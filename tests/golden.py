"""Exact output of bellsim commands whose printed digits do not depend on BLAS rounding.

Each case is the command line, its exit code and the exact text it writes
to stdout and to stderr, run in an empty directory. The unwritable `--out`
is a relative path into a directory that does not exist.
"""

import typing


class Case(typing.NamedTuple):
    argv: list
    code: int
    stdout: str
    stderr: str


PINNED = "pi/8,pi/4,3pi/8,0"

CASES = {
    "run_pinned": Case(
        ["run", "--state", "two_photon", "--angles", PINNED],
        0,
        """\
angles: theta1=0.392699 theta2=0.785398 theta1'=1.178097 theta2'=0.000000
P(t1,t2)=0.426776695297  P(t1,t2')=0.073223304703  P(t1',t2)=0.426776695297  P(t1',t2')=0.426776695297
P(t1,any)=0.500000000000  P(t1',any)=0.500000000000  P(any,t2)=0.500000000000  P(any,any)=1.000000000000
f = 0.207106781187   margins: lower=1.207e+00 upper=-2.071e-01   tail=0.0e+00
verdict: violated
""",
        "",
    ),
    "run_seed": Case(
        ["run", "--state", "two_photon", "--seed", "7"],
        0,
        """\
no angles given; drew random settings with seed 7
angles: theta1=1.963795 theta2=2.818680 theta1'=2.436888 theta2'=0.707509
P(t1,t2)=0.497547950949  P(t1,t2')=0.102669336576  P(t1',t2)=0.366427505606  P(t1',t2')=0.000003934187
P(t1,any)=0.500000000000  P(t1',any)=0.500000000000  P(any,t2)=0.500000000000  P(any,any)=1.000000000000
f = -0.238689945834   margins: lower=7.613e-01 upper=2.387e-01   tail=0.0e+00
verdict: not violated
""",
        "",
    ),
    "run_vacuum": Case(
        ["run", "--state", "vacuum", "--angles", "0,0,0,0"],
        0,
        """\
angles: theta1=0.000000 theta2=0.000000 theta1'=0.000000 theta2'=0.000000
P(t1,t2)=0.000000000000  P(t1,t2')=0.000000000000  P(t1',t2)=0.000000000000  P(t1',t2')=0.000000000000
P(t1,any)=0.000000000000  P(t1',any)=0.000000000000  P(any,t2)=0.000000000000  P(any,any)=0.000000000000
f = 0.000000000000   margins: lower=0.000e+00 upper=0.000e+00   tail=0.0e+00
verdict: not violated
""",
        "",
    ),
    "scan_refined": Case(
        ["scan", "--state", "two_photon", "--grid", "8", "--refine"],
        0,
        """\
best angles: theta1=0.000000 theta2=1.178097 theta1'=0.785398 theta2'=0.392699
grid f = 0.207106781187 over 8^4 points
refined f = 0.207106781187
verdict at best angles: violated
""",
        "",
    ),
    "validate_no_trials": Case(
        ["validate", "--trials", "0"],
        0,
        """\
golden values: worst gap 1.110e-16 (tol 1.0e-10) -> pass
cross-engine rates (cutoff 16): worst gap 4.178e-10 (tol 1.0e-06) -> pass
classical nonviolation: skipped (trials = 0)
validation: pass
""",
        "warning: trials = 0, classical suite was skipped\n",
    ),
    "unknown_kind": Case(
        ["run", "--state", "warp_core"],
        1,
        "",
        "error: unknown state kind 'warp_core' (expected one of: "
        "coherent, file, mixture, squeezed_thermal, two_photon, vacuum)\n",
    ),
    "unwritable_out": Case(
        ["run", "--state", "two_photon", "--angles", PINNED, "--out", "missing/x.csv"],
        1,
        "",
        "error: [Errno 2] No such file or directory: 'missing/x.csv'\n",
    ),
}
