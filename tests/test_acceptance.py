"""Top-level acceptance gate: ten checks, one printed verdict line each.

Each test states its claim, computes everything needed, prints a single
PASS/FAIL line that survives output capture, and then asserts.
"""

import time

import numpy as np
import pytest

import oracle
import states
from bellsim import coherent, detection, fock, gaussian, linear_optics
from bellsim.detection import AngleSettings
from bellsim.gaussian import SqueezedThermalSpec

PINNED = AngleSettings(np.pi / 8, np.pi / 4, 3 * np.pi / 8, 0.0)
SEED = 2026


def announce(capsys, number, label, ok):
    with capsys.disabled():
        print(f"criterion {number:2d} ({label}): {'PASS' if ok else 'FAIL'}")


def test_criterion_01_classical_nonviolation(capsys):
    started = time.time()
    suite = coherent.classical_nonviolation_suite(seed=SEED, trials=1000)
    elapsed = time.time() - started

    # the same trial construction, replayed through the Fock engine with a
    # narrower amplitude box so a cutoff of 16 carries a negligible tail
    worst_gap = 0.0
    for trial in range(50):
        mixture, angles = states.classical_trial_inputs(SEED, trial, 0.5)
        closed = coherent.mixture_ch(mixture, angles)
        replay = coherent.nonviolation_trial(SEED, trial, amplitude_scale=0.5)
        assert closed.f == replay.f
        numeric = states.mixture_fock_report(mixture, angles, cutoff=16)
        worst_gap = max(worst_gap, abs(closed.f - numeric.f))

    ok = (
        suite.trials == 1000
        and suite.violations == 0
        and suite.worst_f <= 1e-9
        and suite.worst_lower_margin >= -1e-9
        and elapsed <= 120.0
        and worst_gap <= 1e-6
    )
    announce(capsys, 1, "classical nonviolation", ok)
    assert suite.violations == 0
    assert suite.worst_f <= 1e-9
    assert suite.worst_lower_margin >= -1e-9
    assert elapsed <= 120.0, f"suite took {elapsed:.1f}s"
    assert worst_gap <= 1e-6, f"fock replica gap {worst_gap:.3e}"


def test_criterion_02_coherent_factorization(capsys):
    rng = np.random.default_rng(SEED + 1)
    worst = 0.0
    for _ in range(100):
        z = rng.normal(size=4) * 1.5 + 1j * rng.normal(size=4) * 1.5
        amp = coherent.CoherentAmplitudes(z)
        t1, t2 = rng.uniform(0.0, np.pi, size=2)
        joint = detection.coincidence_probability(amp, t1, t2)
        both = detection.coincidence_probability(amp, None, None)
        left = detection.coincidence_probability(amp, t1, None)
        right = detection.coincidence_probability(amp, None, t2)
        worst = max(worst, abs(joint * both - left * right))
    ok = worst <= 1e-12
    announce(capsys, 2, "coherent factorization", ok)
    assert ok, f"worst factorization residual {worst:.3e}"


def test_criterion_03_two_photon_violation(capsys):
    started = time.time()
    result = detection.angle_scan(fock.two_photon_state(), grid_density=16, refine=True)
    elapsed = time.time() - started
    target = (np.sqrt(2.0) - 1.0) / 2.0
    ok = result.f > 0.2 and abs(result.f - target) <= 5e-3 and elapsed <= 60.0
    announce(capsys, 3, "two-photon violation", ok)
    assert result.f > 0.2
    assert abs(result.f - target) <= 5e-3
    assert elapsed <= 60.0, f"scan took {elapsed:.1f}s"


def test_criterion_04_reduction_identities(capsys):
    state = fock.two_photon_state()
    beam_one = fock.partial_trace(state.to_density_operator(), (0, 1))
    rng = np.random.default_rng(SEED + 2)
    worst_count = 0.0
    worst_partition = 0.0
    for t1, t2 in rng.uniform(0.0, np.pi, size=(50, 2)):
        # detection reduces to photon counting on the transmitted mode
        rotated = detection.polarizer_apply(beam_one, t1)
        mean = float(
            np.real(
                np.trace(rotated.matrix @ np.diag(rotated.basis.occupations[:, 0]))
            )
        )
        p_beam = detection.coincidence_probability(state, t1, None)
        worst_count = max(worst_count, abs(p_beam - mean))
        # complementary polarizer settings partition the beam rate
        joint = detection.coincidence_probability(state, t1, t2)
        joint_perp = detection.coincidence_probability(state, t1, t2 + np.pi / 2)
        worst_partition = max(worst_partition, abs(joint + joint_perp - p_beam))

    # both identities must visibly fail for a bright coherent state
    z = np.array([1.0, 0.0, 1.0, 0.0], dtype=np.complex128)
    amp = coherent.CoherentAmplitudes(z)
    gap_count = 0.0
    gap_partition = 0.0
    for t1, t2 in rng.uniform(0.0, np.pi, size=(50, 2)):
        transmitted = np.cos(t1) * z[0] - np.sin(t1) * z[1]
        p_beam = detection.coincidence_probability(amp, t1, None)
        gap_count = max(gap_count, abs(p_beam - abs(transmitted) ** 2))
        joint = detection.coincidence_probability(amp, t1, t2)
        joint_perp = detection.coincidence_probability(amp, t1, t2 + np.pi / 2)
        gap_partition = max(gap_partition, abs(joint + joint_perp - p_beam))

    ok = (
        worst_count <= 1e-9
        and worst_partition <= 1e-9
        and gap_count >= 0.01
        and gap_partition >= 0.01
    )
    announce(capsys, 4, "two-photon reduction identities", ok)
    assert worst_count <= 1e-9, f"counting residual {worst_count:.3e}"
    assert worst_partition <= 1e-9, f"partition residual {worst_partition:.3e}"
    assert gap_count >= 0.01
    assert gap_partition >= 0.01


def test_criterion_05_gaussian_violation_exists(capsys):
    started = time.time()
    rows = gaussian.sweep_rows(
        np.arange(0.0, 1.2 + 1e-9, 0.02),
        ("equal", "zero", "opposite"),
        (1.0, 0.9, 0.8),
        PINNED,
    )
    elapsed = time.time() - started
    pure = [r for r in rows if r["kappa"] == 1.0 and r["violated"] == 1]
    warm = [r for r in rows if r["kappa"] < 1.0 and r["violated"] == 1]
    ok = bool(pure) and bool(warm) and elapsed <= 60.0
    announce(capsys, 5, "gaussian violation exists", ok)
    assert pure, "no violated point at kappa = 1"
    assert warm, "no violated point at kappa < 1"
    assert elapsed <= 60.0, f"sweep took {elapsed:.1f}s"
    # the flagged points are genuine bound breaks, not rounding dust
    assert max(r["f"] for r in pure) > 1e-6


def test_criterion_06_cross_engine_rates(capsys):
    rng = np.random.default_rng(SEED + 3)
    settings = rng.uniform(0.0, np.pi, size=(10, 2))
    worst = 0.0
    for u in (0.1, 0.2, 0.3):
        for v in (0.1, 0.2, 0.3):
            spec = SqueezedThermalSpec(u, v, 1.0)
            state = gaussian.build_squeezed_thermal(spec)
            replica = gaussian.fock_equivalent_state(spec, 20)
            for t1, t2 in settings:
                for a, b in ((t1, t2), (t1, None), (None, t2), (None, None)):
                    got = detection.coincidence_probability(state, a, b)
                    want = detection.coincidence_probability(replica, a, b)
                    worst = max(worst, abs(got - want))
    ok = worst <= 1e-6
    announce(capsys, 6, "cross-engine rate agreement", ok)
    assert ok, f"worst cross-engine gap {worst:.3e}"


def test_criterion_07_closed_form_goldens(capsys):
    worst = 0.0
    for u in (0.25, 0.5, 1.0):
        state = gaussian.GaussianState(
            np.diag(np.exp(np.array([2 * u, 0, 0, 0, -2 * u, 0, 0, 0])))
        )
        got = gaussian.vacuum_probability(state, (0,))
        worst = max(worst, abs(got - 1.0 / np.cosh(u)))
    for kappa in (0.5, 0.8, 1.0):
        state = gaussian.GaussianState(kappa * np.eye(8))
        got = gaussian.vacuum_probability(state, (1,))
        worst = max(worst, abs(got - 2.0 * kappa / (1.0 + kappa)))
    for u in (0.25, 0.5, 1.0):
        state = gaussian.build_squeezed_thermal(SqueezedThermalSpec(u, 0.0, 1.0))
        _, min_eig = gaussian.is_squeezed(state)
        worst = max(worst, abs(min_eig - np.exp(-2.0 * u) / 2.0))
    ok = worst <= 1e-10
    announce(capsys, 7, "closed-form golden values", ok)
    assert ok, f"worst golden gap {worst:.3e}"


def test_criterion_08_polarizer_example(capsys):
    basis = fock.enumerate_basis(2, 2)
    amps = np.zeros(basis.size, dtype=np.complex128)
    amps[basis.index_of((1, 0))] = 1.0 / np.sqrt(2.0)
    amps[basis.index_of((0, 1))] = 1.0 / np.sqrt(2.0)
    state = fock.OccupationState(basis, amps)
    reduced = detection.polarizer_apply(state, 0.0)
    want = np.zeros(reduced.matrix.shape)
    want[reduced.basis.index_of((0,)), reduced.basis.index_of((0,))] = 0.5
    want[reduced.basis.index_of((1,)), reduced.basis.index_of((1,))] = 0.5
    residual = np.max(np.abs(reduced.matrix - want))
    ok = residual <= 1e-12
    announce(capsys, 8, "polarizer on a split photon", ok)
    assert ok, f"residual {residual:.3e}"


def test_criterion_09_entangling_example(capsys):
    # the balanced mixer with a quarter-turn phase sends |1,1> to the
    # two-photon superposition (|2,0> + |0,2>)/sqrt(2) up to global phase
    u = np.array(
        [[1.0, 1.0j], [1.0j, 1.0]], dtype=np.complex128
    ) / np.sqrt(2.0)
    state = fock.number_state((1, 1), 2)
    out = linear_optics.apply_passive(state, u)
    target = np.zeros(out.basis.size, dtype=np.complex128)
    target[out.basis.index_of((2, 0))] = 1.0 / np.sqrt(2.0)
    target[out.basis.index_of((0, 2))] = 1.0 / np.sqrt(2.0)
    fidelity = abs(np.vdot(target, out.amplitudes)) ** 2
    # dense exponential reference must land on the same ray
    dense = oracle.passive_op(u, 2) @ oracle.ket((1, 1), 2)
    overlap = abs(np.vdot(dense, oracle.from_graded(out))) ** 2
    ok = fidelity >= 1.0 - 1e-10 and overlap >= 1.0 - 1e-10
    announce(capsys, 9, "entangling mixer example", ok)
    assert fidelity >= 1.0 - 1e-10, f"fidelity {fidelity}"
    assert overlap >= 1.0 - 1e-10, f"oracle overlap {overlap}"


def test_criterion_10_uncertainty_preservation(capsys):
    rng = np.random.default_rng(SEED + 4)
    beta = gaussian.symplectic_form(4)
    worst_eig = np.inf
    worst_shift = 0.0
    for _ in range(200):
        spec = SqueezedThermalSpec(
            u=float(rng.uniform(-1.2, 1.2)),
            v=float(rng.uniform(-1.2, 1.2)),
            kappa=float(rng.uniform(0.05, 1.0)),
        )
        state = gaussian.build_squeezed_thermal(spec)
        moved = gaussian.apply_symplectic(
            state, gaussian.embed_passive(states.haar_unitary(rng))
        )
        herm = gaussian.variance_matrix(moved) + 0.5j * beta
        worst_eig = min(worst_eig, float(np.min(np.linalg.eigvalsh(herm))))
        before = gaussian.is_squeezed(state)[1]
        after = gaussian.is_squeezed(moved)[1]
        worst_shift = max(worst_shift, abs(before - after))
    ok = worst_eig >= -1e-9 and worst_shift <= 1e-10
    announce(capsys, 10, "uncertainty preservation", ok)
    assert worst_eig >= -1e-9, f"uncertainty eigenvalue {worst_eig:.3e}"
    assert worst_shift <= 1e-10, f"squeezing shift {worst_shift:.3e}"
