"""Detection probabilities, coincidence rates and the CH functional.

A detector answers one question per beam: did at least one photon arrive.
The operator behind that answer is identity minus the vacuum projector, so
every rate in this module reduces to vacuum-probability marginals computed
straight from amplitudes; no detection operator is ever built as a matrix.

A polarizer conserves the photon number N of its beam, and inside each
N-photon block of a beam "no photon in the transmitted mode" is a single
vector (see :func:`_polarizer_vectors`). Every vacuum marginal behind the
rates is therefore a sum of squared contractions of those vectors with the
state's amplitudes regrouped by beam photon numbers, and
:func:`_block_rate_tables` evaluates them for whole grids of angles at once.

The Gaussian and coherent engines produce the same four rate tables, and
:func:`state_tables` picks the engine for a state. The CH report, the
single rates and the angle scan are all built on it, so each takes a
state of any engine.

Beam one holds modes (0, 1), beam two modes (2, 3). A polarizer angle of
``None`` means the polarizer is removed and the whole beam is watched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .fock import DensityOperator, OccupationState, partial_trace
from .linear_optics import apply_passive, polarizer_rotation
from .policy import DEFAULT_POLICY

BEAM_ONE = (0, 1)
BEAM_TWO = (2, 3)

VIOLATED = "violated"
NOT_VIOLATED = "not violated"
INCONCLUSIVE = "inconclusive"


def canonical_angle(theta):
    """Fold an angle into [0, pi); the physics is pi-periodic.

    Raises ValueError for a non-finite angle, which has no place on the
    circle.
    """
    theta = float(theta)
    if not math.isfinite(theta):
        raise ValueError(f"angle {theta} is not finite")
    return theta % math.pi


@dataclass(frozen=True)
class AngleSettings:
    """The four polarizer angles of a CH run, canonicalized to [0, pi)."""

    theta1: float
    theta2: float
    theta1_alt: float
    theta2_alt: float

    def __post_init__(self):
        for name in ("theta1", "theta2", "theta1_alt", "theta2_alt"):
            object.__setattr__(self, name, canonical_angle(getattr(self, name)))

    def as_tuple(self):
        return (self.theta1, self.theta2, self.theta1_alt, self.theta2_alt)

    def beam_grids(self):
        """The 2x2 setting grid: ((theta1, theta1'), (theta2, theta2'))."""
        return (self.theta1, self.theta1_alt), (self.theta2, self.theta2_alt)


@dataclass(frozen=True)
class CoincidenceReport:
    """Every rate entering the CH functional, plus the verdict.

    ``lower_margin`` is f + P(any, any) and ``upper_margin`` is -f; both are
    nonnegative when the inequality holds. ``tail_err`` is the accumulated
    truncation error bar inherited from the state.
    """

    angles: AngleSettings
    p_tt: float
    p_t_any: float
    p_any_t: float
    p_any_any: float
    p_t_talt: float
    p_talt_t: float
    p_talt_talt: float
    p_talt_any: float
    f: float
    lower_margin: float
    upper_margin: float
    tail_err: float
    verdict: str


def vacuum_probability(state, modes):
    """Probability that every listed mode carries zero photons."""
    mask = state.basis.vacuum_mask(modes)
    if isinstance(state, OccupationState):
        return float(np.sum(np.abs(state.amplitudes[mask]) ** 2))
    return float(np.real(np.sum(np.diag(state.matrix)[mask])))


def polarizer_apply(state, theta):
    """Send a two-mode state through a polarizer at angle theta.

    Rotates the pair so the transmitted polarization is the first mode,
    then traces out the blocked orthogonal mode. Returns the single-mode
    reduced density operator.
    """
    if state.mode_count != 2:
        raise ValueError("polarizer_apply expects a two-mode state")
    rotated = apply_passive(state, polarizer_rotation(theta, (0, 1), 2))
    return partial_trace(rotated, keep=(0,))


def _polarizer_vectors(thetas, cutoff):
    """V[N, t, k] = sqrt(C(N, k)) sin^k(theta_t) cos^(N-k)(theta_t), 0 for k > N.

    In the N-photon block of a beam, with k photons in the beam's first
    mode, V[N, t] is the state whose N photons all sit in the mode the
    polarizer at theta_t blocks, sin(t) a_i^dag + cos(t) a_j^dag; it is
    orthogonal to the transmitted mode cos(t) a_i - sin(t) a_j.
    """
    thetas = np.asarray(thetas, dtype=np.float64)
    n = np.arange(cutoff + 1)
    # math.comb is 0 for k > N, which zeroes the entries past the block
    root_binom = np.sqrt([[float(math.comb(big, k)) for k in n] for big in n])
    sin_pow = np.sin(thetas)[None, :, None] ** n[None, None, :]
    cos_exponent = np.maximum(n[:, None] - n[None, :], 0)
    cos_pow = np.cos(thetas)[None, :, None] ** cos_exponent[:, None, :]
    return root_binom[:, None, :] * sin_pow * cos_pow


def _beam_blocks(state):
    """Amplitudes regrouped by beam photon numbers.

    Returns (weights, blocks) with blocks[r, N1, k, N2, l] the amplitude of
    |k, N1 - k, l, N2 - l> in the r-th pure component, zero where no basis
    state exists. A pure state is its own single component of weight 1; a
    density operator enters through its eigen-decomposition
    rho = sum_r weights[r] |psi_r><psi_r|, with signed eigenvalues, so
    every marginal is the same weighted sum for both.
    """
    if state.mode_count != 4:
        raise ValueError("coincidence rates are defined on four-mode states")
    occ = state.basis.occupations
    side = state.cutoff + 1
    if isinstance(state, OccupationState):
        weights = np.ones(1)
        vectors = state.amplitudes[None, :]
    else:
        weights, columns = np.linalg.eigh(state.matrix)
        vectors = columns.T
    blocks = np.zeros((weights.size, side, side, side, side), dtype=np.complex128)
    blocks[:, occ[:, 0] + occ[:, 1], occ[:, 0], occ[:, 2] + occ[:, 3], occ[:, 2]] = vectors
    return weights, blocks


def _weighted_norms(weights, values, axes):
    """sum_r weights[r] * sum over ``axes`` of |values[r, ...]|^2."""
    squares = values.real ** 2 + values.imag ** 2
    return np.tensordot(weights, squares.sum(axis=axes), axes=1)


def _polarize(vectors, blocks):
    """out[r, N, t, ...] = sum_k vectors[N, t, k] blocks[r, N, k, ...].

    The vectors are real, so one real matrix product handles the real and
    imaginary parts together, on a float view with a doubled last axis.
    """
    count, side = blocks.shape[:2]
    flat = np.ascontiguousarray(blocks).reshape(count, side, side, -1)
    out = (vectors @ flat.view(np.float64)).view(np.complex128)
    return out.reshape(count, side, vectors.shape[1], *blocks.shape[3:])


def _swap_beams(blocks):
    """blocks[r, N1, a, N2, b] -> [r, N2, b, N1, a]."""
    return blocks.transpose(0, 3, 4, 1, 2)


def _block_rate_tables(beam_blocks, thetas1, thetas2):
    """Rate tables over the grid thetas1 x thetas2 from precomputed blocks.

    Each rate is an inclusion-exclusion over vacuum marginals; with the
    polarizer vectors V1, V2 every marginal is a weighted sum of squares:

    - q1 (transmitted mode of beam one empty) and q134 (also beam two
      empty) from X = V1 . B;
    - q3 and q123 from Z = B . V2;
    - q13 (both transmitted modes empty) from Y = V1 . B . V2^T, summed
      over the beam photon numbers;
    - q12, q34 and q_all (whole beams empty) from B itself.
    """
    weights, blocks = beam_blocks
    side = blocks.shape[1]
    v1 = _polarizer_vectors(thetas1, side - 1)
    v2 = _polarizer_vectors(thetas2, side - 1)
    x = _polarize(v1, blocks)  # [r, N1, t, N2, l]
    z = _polarize(v2, _swap_beams(blocks))  # [r, N2, s, N1, k]
    y = _polarize(v2, _swap_beams(x))  # [r, N2, s, N1, t]

    q1 = _weighted_norms(weights, x, (1, 3, 4))
    q134 = _weighted_norms(weights, x[:, :, :, 0, 0], 1)
    q3 = _weighted_norms(weights, z, (1, 3, 4))
    q123 = _weighted_norms(weights, z[:, :, :, 0, 0], 1)
    q13 = _weighted_norms(weights, y, (1, 3)).T
    q12 = float(_weighted_norms(weights, blocks[:, 0, 0], (1, 2)))
    q34 = float(_weighted_norms(weights, blocks[:, :, :, 0, 0], (1, 2)))
    q_all = float(_weighted_norms(weights, blocks[:, 0, 0, 0, 0], ()))

    p_tt = 1.0 - q1[:, None] - q3[None, :] + q13
    p_t_any = 1.0 - q1 - q34 + q134
    p_any_t = 1.0 - q12 - q3 + q123
    p_any_any = 1.0 - q12 - q34 + q_all
    return p_tt, p_t_any, p_any_t, p_any_any


def state_tables(state):
    """The rate-table function of a four-mode state and its truncation tail.

    Returns (tables, tail), with ``tables(thetas1, thetas2)`` giving
    (p_tt[i, j], p_t_any[i], p_any_t[j], p_any_any): the joint rate with
    polarizers at thetas1[i] and thetas2[j], the rates with only one
    polarizer in place, and the rate with both removed. This is the one
    place where a state's type picks its engine: Fock states and density
    operators use their beam blocks, Gaussian states their variance
    matrix, and coherent states and classical mixtures the closed forms.
    Raises TypeError for any other type.
    """
    if isinstance(state, (OccupationState, DensityOperator)):
        return partial(_block_rate_tables, _beam_blocks(state)), state.truncation_tail
    from . import coherent, gaussian

    if isinstance(state, gaussian.GaussianState):
        if state.mode_count != 4:
            raise ValueError("coincidence rates are defined on four-mode states")
        return partial(gaussian.rate_tables, gaussian.variance_matrix(state)), 0.0
    if isinstance(state, coherent.CoherentAmplitudes):  # a one-component mixture
        return partial(coherent.rate_tables, np.ones(1), state.z[None]), 0.0
    if isinstance(state, coherent.ClassicalMixture):
        return partial(coherent.rate_tables, state.weights, state.components), 0.0
    raise TypeError(f"no rate tables for {type(state).__name__}")


def single_rate(rate_tables, theta1, theta2):
    """P(theta1, theta2) from an engine's rate tables on a 1x1 grid.

    ``rate_tables(thetas1, thetas2)`` returns the four tables; an angle of
    None removes that polarizer and picks the matching table.
    """
    p_tt, p_t_any, p_any_t, p_any_any = rate_tables(
        [0.0 if theta1 is None else theta1], [0.0 if theta2 is None else theta2]
    )
    if theta1 is None:
        return float(p_any_any) if theta2 is None else float(p_any_t[0])
    return float(p_t_any[0]) if theta2 is None else float(p_tt[0, 0])


def coincidence_probability(state, theta1, theta2):
    """Joint rate P(theta1, theta2) on a four-mode state of any engine.

    Either angle may be None, meaning that polarizer is removed and the
    detector watches the full beam.
    """
    return single_rate(state_tables(state)[0], theta1, theta2)


def report_from_tables(tables, angles, tail_err=0.0, policy=DEFAULT_POLICY):
    """Build a CoincidenceReport from rate tables on the 2x2 setting grid.

    ``tables`` is (p_tt, p_t_any, p_any_t, p_any_any) evaluated on
    thetas1 = (theta1, theta1') and thetas2 = (theta2, theta2'), the shape
    every engine's rate tables take. This is the single place where the
    CH functional, its margins and the verdict are put together.
    """
    if not isinstance(angles, AngleSettings):
        angles = AngleSettings(*angles)
    p_tt, p_t_any, p_any_t, p_any_any = tables
    rates = dict(
        p_tt=float(p_tt[0, 0]),
        p_t_talt=float(p_tt[0, 1]),
        p_talt_t=float(p_tt[1, 0]),
        p_talt_talt=float(p_tt[1, 1]),
        p_t_any=float(p_t_any[0]),
        p_talt_any=float(p_t_any[1]),
        p_any_t=float(p_any_t[0]),
        p_any_any=float(p_any_any),
    )

    tol = policy.verdict_tol + tail_err
    for name, value in rates.items():
        if not math.isfinite(value):
            raise ValueError(f"rate {name} = {value} is not finite")
        if value < -tol or value > 1.0 + tol:
            raise ValueError(f"rate {value} outside [0, 1] beyond the error bar")

    f = (
        rates["p_tt"] - rates["p_t_talt"] + rates["p_talt_t"] + rates["p_talt_talt"]
        - rates["p_talt_any"] - rates["p_any_t"]
    )
    if not (math.isfinite(f) and math.isfinite(tol)):
        raise ValueError(f"f = {f} with error bar {tol} gives no verdict")
    lower_margin = f + rates["p_any_any"]
    upper_margin = 0.0 - f  # a zero f gives +0.0, never -0.0
    # A violation is only claimed when a bound is broken by more than the
    # numerical error bar; a bound broken within the error bar is
    # inconclusive, and saturated bounds count as holding.
    if upper_margin < -tol or lower_margin < -tol:
        verdict = VIOLATED
    elif upper_margin < 0.0 or lower_margin < 0.0:
        verdict = INCONCLUSIVE
    else:
        verdict = NOT_VIOLATED

    return CoincidenceReport(
        angles=angles,
        f=f,
        lower_margin=lower_margin,
        upper_margin=upper_margin,
        tail_err=tail_err,
        verdict=verdict,
        **rates,
    )


def ch_functional(state, angles, policy=DEFAULT_POLICY):
    """Evaluate the CH functional on a four-mode state of any engine.

    The report's error bar is the state's truncation tail (see
    :func:`state_tables`).
    """
    if not isinstance(angles, AngleSettings):
        angles = AngleSettings(*angles)
    tables, tail = state_tables(state)
    return report_from_tables(tables(*angles.beam_grids()), angles, tail, policy)


@dataclass(frozen=True)
class ScanResult:
    """Best angle settings found by a scan, with the f value reached."""

    angles: AngleSettings
    f: float
    grid_f: float
    grid_density: int
    refined: bool


SCAN_TIE_TOL = 1e-12


def scan_angle_tables(p_tt, p_t_any, p_any_t, p_any_any, thetas):
    """Exhaustive CH maximization over a grid, from precomputed rate tables.

    Returns (best angle 4-tuple, grid maximum of f). The best angles are
    the lexicographically first grid point (i, j, k, l) whose f lies
    within SCAN_TIE_TOL of the maximum, so maxima that are tied up to
    rounding give the same angles whatever the last bits of the rates.

    With A = p_tt, t = p_t_any and s = p_any_t,
    f(i, j, k, l) = [A_ij - A_il] + [A_kj + A_kl - t_k] - s_j separates: for each (j, l) the first bracket depends on i alone and
    the second on k alone, so the search takes O(n^3) time and O(n^2)
    memory. Rounding is monotone, so maximizing each bracket first gives
    exactly the maximum of f evaluated in this order.
    """
    a = np.asarray(p_tt, dtype=np.float64)
    t = np.asarray(p_t_any, dtype=np.float64)
    s = np.asarray(p_any_t, dtype=np.float64)[:, None]
    n = len(a)

    def outer(i):  # [j, l]: A_ij - A_il
        return a[i, :, None] - a[i, None, :]

    def inner(k):  # [j, l]: A_kj + A_kl - t_k
        return (a[k, :, None] + a[k, None, :]) - t[k]

    best_inner = inner(0)
    best_outer = outer(0)
    for k in range(1, n):
        np.maximum(best_inner, inner(k), out=best_inner)
        np.maximum(best_outer, outer(k), out=best_outer)
    grid_max = float(np.max((best_outer + best_inner) - s))
    if not math.isfinite(grid_max):
        raise ValueError(f"grid maximum of f is {grid_max}")
    threshold = grid_max - SCAN_TIE_TOL

    for i in range(n):
        by_jl = (outer(i) + best_inner) - s  # max over k of f(i, j, k, l)
        if np.max(by_jl) >= threshold:
            break
    j = int(np.argmax(np.max(by_jl, axis=1) >= threshold))
    by_kl = (a[i, j] - a[i, None, :]) + ((a[:, j, None] + a) - t[:, None])
    by_kl = by_kl - s[j]
    k = int(np.argmax(np.max(by_kl, axis=1) >= threshold))
    l = int(np.argmax(by_kl[k] >= threshold))
    best = tuple(float(thetas[m]) for m in (i, j, k, l))
    return best, grid_max


REFINE_MIN_STEP = 1e-8
REFINE_MAX_STEPS = 200


def _compass_step(tables, centre, step):
    """Best of the 3^4 settings centre + {-h, 0, h}^4 from one table evaluation.

    The tables are evaluated once on the union of the four angles'
    neighbourhoods, at most 12 angles. Only settings that keep each angle
    in its own neighbourhood are compared: the other combinations of the
    12 angles jump to distant settings, which turns the polish into a
    random restart and loses the grid maximum's basin.
    """
    points = np.add.outer(centre, (-step, 0.0, step))  # [angle, offset]
    thetas = np.unique(points)
    a, t, s, _ = tables(thetas)
    i, j, k, l = (np.searchsorted(thetas, p) for p in points)
    # f = [A_ij - A_il] + [A_kj + A_kl - t_k] - s_j over the (i, j, k, l) stencil
    f = (
        (a[np.ix_(i, j)][:, :, None, None] - a[np.ix_(i, l)][:, None, None, :])
        + ((a[np.ix_(k, j)].T[None, :, :, None] + a[np.ix_(k, l)][None, None, :, :])
           - t[k][None, None, :, None])
        - s[j][None, :, None, None]
    )
    best = np.unravel_index(int(np.argmax(f)), f.shape)
    return points[np.arange(4), best], float(f[best])


def _refine(tables, start, grid_f, step):
    """Polish a grid maximum by a shrinking compass scan on the rate tables.

    ``tables(thetas)`` returns an engine's four rate tables on the grid
    thetas x thetas. Each step takes the best of the 3^4 settings around a
    centre point, each angle moved by -h, 0 or +h (see
    :func:`_compass_step`). The best point moves there when it beats the
    current f by more than SCAN_TIE_TOL. The next centre is then one more
    such displacement ahead (a Hooke-Jeeves pattern move), so the scan
    speeds up along a ridge that no compass direction follows; when a
    centre ahead finds nothing better the scan explores around the best
    point again, and when that finds nothing either h is halved. The scan
    stops once h < REFINE_MIN_STEP or after REFINE_MAX_STEPS evaluations.

    Returns (angles, f) with f the value of the tables at the angles; the
    grid point and grid_f come back unchanged when no step beats them.
    """
    angles, best_f = np.asarray(start, dtype=np.float64), grid_f
    centre = angles
    for _ in range(REFINE_MAX_STEPS):
        if step < REFINE_MIN_STEP:
            break
        # angles stay unwrapped so that a displacement is a plain difference;
        # the tables are pi-periodic and AngleSettings folds the result
        candidate, candidate_f = _compass_step(tables, centre, step)
        if candidate_f > best_f + SCAN_TIE_TOL:
            centre = 2.0 * candidate - angles
            angles, best_f = candidate, candidate_f
        elif not np.array_equal(centre, angles):
            centre = angles
        else:
            step /= 2.0
    return tuple(float(a) for a in angles), best_f


def angle_scan(state, grid_density=16, refine=False):
    """Search polarizer angles maximizing the CH functional for a state.

    Scans an exhaustive grid of the four angles over [0, pi), then
    optionally polishes the best grid point with a shrinking compass scan
    (see :func:`_refine`). Both evaluate the state's rate tables from
    :func:`state_tables`.

    Args:
        state: a four-mode state of any engine.
        grid_density: points per angle axis (at least 2).
        refine: polish the best grid point, starting with the grid spacing
            as the step.

    Returns:
        ScanResult with canonicalized best angles.
    """
    if grid_density < 2:
        raise ValueError("grid density must be at least 2")
    thetas = np.arange(grid_density) * math.pi / grid_density

    grid_tables, _ = state_tables(state)
    tables = lambda t: grid_tables(t, t)
    best, grid_f = scan_angle_tables(*tables(thetas), thetas)
    angles, best_f = (best, grid_f)
    if refine:
        angles, best_f = _refine(tables, best, grid_f, math.pi / grid_density)
    return ScanResult(
        angles=AngleSettings(*angles),
        f=best_f,
        grid_f=grid_f,
        grid_density=grid_density,
        refined=refine,
    )
