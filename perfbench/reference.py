"""Independent references for the benchmark's output checks.

Nothing here imports bellsim. The rates come from closed forms, from a
small covariance-matrix calculation written out below, or from the dense
expm reference in the checkout's ``tests/oracle.py``, which builds
Fock-space unitaries from ladder matrices and shares no code with the
package either.

Conventions (those of the paper and the README): beam one is modes (0, 1),
beam two modes (2, 3); a polarizer at angle t transmits the rotated first
mode of its beam, z_i' = cos t z_i - sin t z_j; ``None`` removes it. The
CH combination is f = P(t1,t2) - P(t1,t2') + P(t1',t2) + P(t1',t2')
- P(t1',.) - P(.,t2).
"""

from __future__ import annotations

import functools
import importlib.util
import math

import numpy as np

# The program's NumericalPolicy.verdict_tol: a bound broken by less than
# this (plus the truncation tail) is "inconclusive".
VERDICT_TOL = 1e-9

RATE_NAMES = (
    "p_tt", "p_t_talt", "p_talt_t", "p_talt_talt",
    "p_t_any", "p_talt_any", "p_any_t", "p_any_any",
)


def ch_rates(rate, angles):
    """The eight CH rates, as RATE_NAMES, for a rate(t1, t2) callable."""
    t1, t2, t1a, t2a = angles
    return {
        "p_tt": rate(t1, t2),
        "p_t_talt": rate(t1, t2a),
        "p_talt_t": rate(t1a, t2),
        "p_talt_talt": rate(t1a, t2a),
        "p_t_any": rate(t1, None),
        "p_talt_any": rate(t1a, None),
        "p_any_t": rate(None, t2),
        "p_any_any": rate(None, None),
    }


def ch_value(r):
    return (r["p_tt"] - r["p_t_talt"] + r["p_talt_t"] + r["p_talt_talt"]
            - r["p_talt_any"] - r["p_any_t"])


def allowed_verdicts(f, p_any_any, tail, slack):
    """Verdicts consistent with a reference f known to within ``slack``.

    Mirrors the documented rule: violated when a bound is broken by more
    than verdict_tol + tail, inconclusive when broken by less, otherwise
    not violated. Near a threshold every neighbouring verdict is allowed.
    """
    tol = VERDICT_TOL + tail
    worst = max(f, -(f + p_any_any))  # > 0 means a bound is broken
    allowed = set()
    if worst > tol - slack:
        allowed.add("violated")
    if worst > -slack and worst < tol + slack:
        allowed.add("inconclusive")
    if worst < slack:
        allowed.add("not violated")
    return allowed


def grid_tables(rate, thetas):
    """(p_tt[i, j], p_t_any[i], p_any_t[j]) of rate(t1, t2) on a grid."""
    n = len(thetas)
    p_tt = np.array([[rate(a, b) for b in thetas] for a in thetas]).reshape(n, n)
    p_t_any = np.array([rate(a, None) for a in thetas])
    p_any_t = np.array([rate(None, b) for b in thetas])
    return p_tt, p_t_any, p_any_t


def grid_max(p_tt, p_t_any, p_any_t):
    """Largest f over every (t1, t2, t1', t2') of a grid, in O(n^3).

    f = A[i,j] - A[i,l] + A[k,j] + A[k,l] - c[k] - b[j] splits into a part
    in j and a part in l once (i, k) is fixed.
    """
    a = p_tt
    over_j = np.max(a[:, None, :] + a[None, :, :] - p_any_t[None, None, :], axis=2)
    over_l = np.max(a[None, :, :] - a[:, None, :], axis=2)
    return float(np.max(over_j + over_l - p_t_any[None, :]))


def scan_grid(n):
    """The program's documented scan grid: n points k*pi/n per angle."""
    return np.arange(n) * math.pi / n


# --- closed forms -----------------------------------------------------------

def two_photon_rate(t1, t2):
    """(|1,0,0,1> + |0,1,1,0>)/sqrt(2): joint rate sin^2(t1+t2)/2."""
    if t1 is None and t2 is None:
        return 1.0
    if t1 is None or t2 is None:
        return 0.5
    return 0.5 * math.sin(t1 + t2) ** 2


TWO_PHOTON_MAX_F = (math.sqrt(2.0) - 1.0) / 2.0


def _beam_click(z, theta, i, j):
    if theta is None:
        return 1.0 - math.exp(-(abs(z[i]) ** 2 + abs(z[j]) ** 2))
    zt = math.cos(theta) * z[i] - math.sin(theta) * z[j]
    return 1.0 - math.exp(-abs(zt) ** 2)


def coherent_rate(z, t1, t2):
    """Coherent state |z>: (1 - e^{-|z_i cos t - z_j sin t|^2}) per beam."""
    return _beam_click(z, t1, 0, 1) * _beam_click(z, t2, 2, 3)


def mixture_rate(weights, components, t1, t2):
    return sum(w * coherent_rate(z, t1, t2) for w, z in zip(weights, components))


# --- covariance-matrix reference for the squeezed thermal family ------------

class SqueezedThermal:
    """Squeezed thermal state (u, v, kappa) from its defining construction.

    Quadratures (q_0..q_3, p_0..p_3). The Wigner exponent is
    G = W X^T diag(s^2) X W^T * kappa with q log-scalings (-u, v, -v, u)
    (p scalings opposite), X the entangling mixer [[Y, Y], [-Y, Y]]/2 with
    Y = [[1, 1], [-1, 1]], and W the wiring that swaps modes 1 and 3. The
    variance matrix is V = G^{-1}/2, and vacuum in a mode subset has
    probability 1/sqrt(det(V_s + I/2)).
    """

    def __init__(self, u, v, kappa):
        qe = np.array([-u, v, -v, u])
        s2 = np.exp(2.0 * np.concatenate([qe, -qe]))
        y = np.array([[1.0, 1.0], [-1.0, 1.0]])
        mixer = np.kron(np.eye(2), 0.5 * np.block([[y, y], [-y, y]]))
        swap = np.eye(4)[[0, 3, 2, 1]]
        wiring = np.kron(np.eye(2), swap)
        g = wiring @ (kappa * mixer.T @ np.diag(s2) @ mixer) @ wiring.T
        self.variance = np.linalg.inv(g) / 2.0

    def _vacuum(self, rows):
        """Vacuum probability of the modes whose q rows are given (8-vectors)."""
        q = np.array(rows)
        p = np.roll(q, 4, axis=1)  # same combination of the p quadratures
        lift = np.vstack([q, p])
        block = lift @ self.variance @ lift.T + 0.5 * np.eye(len(lift))
        return 1.0 / math.sqrt(np.linalg.det(block))

    @staticmethod
    def _transmitted(theta, i, j):
        row = np.zeros(8)
        row[i], row[j] = math.cos(theta), -math.sin(theta)
        return row

    def rate(self, t1, t2):
        e = np.eye(8)
        s1 = [self._transmitted(t1, 0, 1)] if t1 is not None else [e[0], e[1]]
        s2 = [self._transmitted(t2, 2, 3)] if t2 is not None else [e[2], e[3]]
        return 1.0 - self._vacuum(s1) - self._vacuum(s2) + self._vacuum(s1 + s2)


def squeezed_fock_tail(u, v, cutoff, depth=400):
    """Weight above a total-photon cutoff of the pure (kappa = 1) state.

    The passive mixer conserves photon number, so the tail is that of four
    independent squeezed vacua with parameters |u|, |v|, |v|, |u|:
    P(2m) = sech r tanh^{2m} r (2m)! / (4^m m!^2).
    """
    total = np.array([1.0])
    for r in (u, v, v, u):
        t2 = math.tanh(abs(r)) ** 2
        dist = np.zeros(depth + 1)
        for m in range(depth // 2 + 1):
            dist[2 * m] = math.comb(2 * m, m) * (t2 / 4.0) ** m / math.cosh(r)
        total = np.convolve(total, dist)[: depth + 1]
    return float(max(0.0, total[cutoff + 1:].sum()))


# --- dense Fock reference for number-basis state files ---------------------

@functools.cache
def load_oracle(root):
    """Import the checkout's tests/oracle.py as a standalone module, once."""
    path = root / "tests" / "oracle.py"
    spec = importlib.util.spec_from_file_location("perfbench_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class DenseFockState:
    """A four-mode number-basis state on the oracle's dense tensor space.

    ``amplitudes`` maps occupation tuples to complex amplitudes; the vector
    is normalized as the program's state-file loader documents. Polarizers
    act on one beam, so each is the oracle's two-mode passive operator
    Kronecker-multiplied with the identity on the other beam.
    """

    def __init__(self, oracle, amplitudes, cap):
        self.oracle = oracle
        self.cap = cap
        vec = np.zeros((cap + 1) ** 4, dtype=np.complex128)
        for occ, amp in amplitudes.items():
            vec[oracle.dense_index(occ, cap)] = amp
        self.vec = vec / np.linalg.norm(vec)
        self._ops = {}
        self._masks = {}

    def _rotation(self, theta, beam):
        key = (theta, beam)
        if key not in self._ops:
            two_mode = self.oracle.passive_op(
                self.oracle.rotation_matrix(theta, (0, 1), 2), self.cap
            )
            eye = np.eye((self.cap + 1) ** 2)
            self._ops[key] = np.kron(two_mode, eye) if beam == 1 else np.kron(eye, two_mode)
        return self._ops[key]

    def _vacuum(self, vec, subset):
        if subset not in self._masks:
            proj = self.oracle.vacuum_projector(subset, 4, self.cap)
            self._masks[subset] = np.real(np.diag(proj))
        return float(np.sum(self._masks[subset] * np.abs(vec) ** 2))

    def rate(self, t1, t2):
        vec = self.vec
        if t1 is not None:
            vec = self._rotation(t1, 1) @ vec
        if t2 is not None:
            vec = self._rotation(t2, 2) @ vec
        s1 = (0,) if t1 is not None else (0, 1)
        s2 = (2,) if t2 is not None else (2, 3)
        return 1.0 - self._vacuum(vec, s1) - self._vacuum(vec, s2) + self._vacuum(vec, s1 + s2)
