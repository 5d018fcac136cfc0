"""Detection probabilities, coincidence rates and the CH functional.

A detector answers one question per beam: did at least one photon arrive.
The operator behind that answer is identity minus the vacuum projector, so
every rate in this module reduces to vacuum-probability marginals computed
straight from amplitudes; no detection operator is ever built as a matrix.

A polarizer conserves the photon number N of its beam, and inside each
N-photon block of a beam "no photon in the transmitted mode" is a single
vector (see :func:`_polarizer_vectors`). Every vacuum marginal behind the
rates is therefore a sum of squared contractions of those vectors with the
state's amplitudes regrouped into blocks by the beams' photon numbers
(N1, N2), and :func:`_block_rate_tables` evaluates them for whole grids of
angles at once, for every kind of Fock state.

The Gaussian and coherent engines produce the same four rate tables, and
:func:`state_tables` picks the engine for a state. The CH report, the
single rates and the angle scan are all built on it, so each takes a
state of any engine. The scan's grid maximum and each step of its compass
polish pick their setting by one separable search, :func:`_best_setting`.

Beam one holds modes (0, 1), beam two modes (2, 3). A polarizer angle of
``None`` means the polarizer is removed and the whole beam is watched.
"""

from __future__ import annotations

import math
import sys
import typing
from dataclasses import dataclass
from functools import partial

import numpy as np

from .fock import BeamBlockState, DensityOperator, MixedState, OccupationState, partial_trace
from .linear_optics import apply_passive, polarizer_rotation, su2_shells
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
    folded = theta % math.pi
    return 0.0 if folded == math.pi else folded  # a tiny negative theta rounds up to pi


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
    orthogonal to the transmitted mode cos(t) a_i - sin(t) a_j. It is
    a_j^dag^N |0> / sqrt(N!) under R(theta_t)^T: column 0 of its shells.
    """
    c, s = np.cos(thetas), np.sin(thetas)
    transposed = np.array([[c, s], [-s, c]]).transpose(2, 0, 1)
    return su2_shells(transposed, cutoff, columns=1)[..., 0]


def _beam_blocks(state):
    """A Fock state as (weights, pairs, blocks): its occupied beam-pair blocks.

    blocks[r, p, k, l] is the amplitude of |k, N1 - k, l, N2 - l> in the
    r-th weighted component of the state (see ``components()`` of the
    states in :mod:`fock`; a density operator's are its signed
    eigen-decomposition), with (N1, N2) = pairs[p], and zero where k > N1
    or l > N2, so every marginal is the same weighted sum. Only the pairs a
    state can occupy are listed: N1 + N2 <= cutoff for a state on a basis,
    at index N1 * side - N1 (N1 - 1) / 2 + N2, and N1 = N2 for a
    :class:`BeamBlockState`, which is its own single component.
    """
    if isinstance(state, BeamBlockState):
        photons = np.arange(state.blocks.shape[0])
        return np.ones(1), np.stack([photons, photons], axis=1), state.blocks[None]
    if state.mode_count != 4:
        raise ValueError("coincidence rates are defined on four-mode states")
    weights, vectors = state.components()
    side = state.cutoff + 1
    pairs = np.array([(n1, n2) for n1 in range(side) for n2 in range(side - n1)])
    occ = state.basis.occupations
    n1, n2 = occ[:, 0] + occ[:, 1], occ[:, 2] + occ[:, 3]
    pair = n1 * side - n1 * (n1 - 1) // 2 + n2
    blocks = np.zeros((weights.size, len(pairs), side, side), np.result_type(vectors, np.float64))
    blocks[:, pair, occ[:, 0], occ[:, 2]] = vectors
    return weights, pairs, blocks


def _weighted_sum(weights, squares, axes):
    """sum_r weights[r] * squares[r, ...] summed over ``axes``."""
    summed = squares.sum(axis=axes)
    return (weights @ summed.reshape(weights.size, -1)).reshape(summed.shape[1:])


def _squares(values):
    """|values|^2 as a real array, for real or complex values."""
    squares = values.real**2
    squares += values.imag**2
    return squares


def _polarize(vectors, blocks):
    """out[r, p, t, ...] = sum_k vectors[p, t, k] blocks[r, p, k, ...].

    The vectors are real, so one real matrix product handles the real and
    imaginary parts of complex blocks together, on a float view with a
    doubled last axis.
    """
    flat = np.ascontiguousarray(blocks)
    return (vectors @ flat.view(np.float64)).view(blocks.dtype)


def _block_rate_tables(weights, pairs, blocks, thetas1, thetas2):
    """Rate tables over the grid thetas1 x thetas2 from a state's beam-pair blocks.

    ``(weights, pairs, blocks)`` is the layout of :func:`_beam_blocks`.
    Each rate is an inclusion-exclusion over vacuum marginals; with the
    polarizer vectors V1[N1] and V2[N2] of every pair, each marginal is a
    weighted sum of squares:

    - q1 (transmitted mode of beam one empty) and q134 (also beam two
      empty, N2 = 0) from X = V1 . B;
    - q3 and q123 from Z = V2 . B^T;
    - q13 (both transmitted modes empty) from Y = X . V2^T, formed as its
      transpose V2 . X^T;
    - q12, q34 and q_all (whole beams empty) from B itself.
    """
    top = blocks.shape[-1] - 1
    n1, n2 = pairs.T
    count = len(thetas1)
    vectors = _polarizer_vectors(np.concatenate([thetas1, thetas2]), top)  # [N, t, k]
    v1, v2 = vectors[n1, :count], vectors[n2, count:]
    # each amplitude array gives way to its squares once it has been used,
    # so a state of many components holds few such arrays at a time
    x = _polarize(v1, blocks)  # [r, p, t, l]
    q13 = _weighted_sum(weights, _squares(_polarize(v2, x.swapaxes(-1, -2))), 1).T
    x = _squares(x)
    z = _squares(_polarize(v2, blocks.swapaxes(-1, -2)))  # [r, p, s, k]
    b = _squares(blocks)
    one_empty, two_empty = n1 == 0, n2 == 0
    return rates_from_marginals(
        _weighted_sum(weights, x, (1, 3)),
        _weighted_sum(weights, z, (1, 3)),
        q13,
        _weighted_sum(weights, x[:, two_empty][..., 0], 1),
        _weighted_sum(weights, z[:, one_empty][..., 0], 1),
        _weighted_sum(weights, b[:, one_empty], (1, 2, 3)),
        _weighted_sum(weights, b[:, two_empty], (1, 2, 3)),
        _weighted_sum(weights, b[:, one_empty & two_empty], (1, 2, 3)),
    )


def rates_from_marginals(q1, q3, q13, q134, q123, q12, q34, q_all):
    """The four rate tables from vacuum marginals, by inclusion-exclusion.

    Mode 1 is the transmitted mode of beam one, mode 3 that of beam two,
    and modes 2 and 4 the rest of each beam: q1[..., i], q3[..., j],
    q13[..., i, j], q134[..., i] and q123[..., j] follow the angle grid,
    while q12, q34 (a whole beam empty) and q_all do not. Leading axes are
    a stack of states.
    """
    q12, q34 = np.asarray(q12), np.asarray(q34)
    p_tt = 1.0 - q1[..., :, None] - q3[..., None, :] + q13
    p_t_any = 1.0 - q1 - q34[..., None] + q134
    p_any_t = 1.0 - q12[..., None] - q3 + q123
    p_any_any = 1.0 - q12 - q34 + q_all
    return p_tt, p_t_any, p_any_t, p_any_any


def state_tables(state):
    """The rate-table function of a four-mode state and its truncation tail.

    Returns (tables, tail), with ``tables(thetas1, thetas2)`` giving
    (p_tt[i, j], p_t_any[i], p_any_t[j], p_any_any): the joint rate with
    polarizers at thetas1[i] and thetas2[j], the rates with only one
    polarizer in place, and the rate with both removed. This is the one
    place where a state's type picks its engine: every Fock state uses its
    occupied beam-pair blocks (see :func:`_beam_blocks`), Gaussian states
    their variance matrix, and coherent states and classical mixtures the
    closed forms. Raises TypeError for any other type.
    """
    if isinstance(state, (OccupationState, MixedState, DensityOperator, BeamBlockState)):
        return partial(_block_rate_tables, *_beam_blocks(state)), state.truncation_tail
    # a state of an engine's type exists only once that engine's module is
    # loaded, so telling the types apart loads no other engine
    gaussian = sys.modules.get(f"{__package__}.gaussian")
    if gaussian and isinstance(state, gaussian.GaussianState):
        if state.mode_count != 4:
            raise ValueError("coincidence rates are defined on four-mode states")
        return partial(gaussian.rate_tables, gaussian.variance_matrix(state)), 0.0
    coherent = sys.modules.get(f"{__package__}.coherent")
    if coherent and isinstance(state, coherent.ClassicalMixture):
        return partial(coherent.rate_tables, state.weights, state.components), 0.0
    raise TypeError(f"no rate tables for {type(state).__name__}")


def coincidence_probability(state, theta1, theta2):
    """Joint rate P(theta1, theta2) on a four-mode state of any engine.

    Either angle may be None, meaning that polarizer is removed and the
    detector watches the full beam; the rate comes from the state's rate
    tables on a 1x1 grid, picking the matching table.
    """
    p_tt, p_t_any, p_any_t, p_any_any = state_tables(state)[0](
        [0.0 if theta1 is None else theta1], [0.0 if theta2 is None else theta2]
    )
    if theta1 is None:
        return float(p_any_any) if theta2 is None else float(p_any_t[0])
    return float(p_t_any[0]) if theta2 is None else float(p_tt[0, 0])


_VERDICTS = np.array([NOT_VIOLATED, INCONCLUSIVE, VIOLATED], dtype=object)


class CHStack(typing.NamedTuple):
    """The CH functional of a stack of settings: one entry per row."""

    rates: dict  # CoincidenceReport field name -> that rate of every row
    f: np.ndarray
    lower_margin: np.ndarray
    upper_margin: np.ndarray
    verdict: np.ndarray  # of str


def ch_verdicts(tables, tail_err=0.0, policy=DEFAULT_POLICY):
    """The CH functional, its margins and the verdict for a stack of rate tables.

    ``tables`` is (p_tt[n, 2, 2], p_t_any[n, 2], p_any_t[n, 1+], p_any_any[n]):
    every engine's rate tables on thetas1 = (theta1, theta1') and
    thetas2 = (theta2, theta2'), with a leading stack axis. This is the
    single place where the CH functional, its margins and the verdict are
    put together. Raises ValueError, as for the first row (in stack order)
    that has one, on a non-finite rate, a rate outside [0, 1] by more than
    the error bar, or an f or error bar that is not finite.
    """
    p_tt, p_t_any, p_any_t, p_any_any = (np.asarray(t, dtype=np.float64) for t in tables)
    rates = dict(
        p_tt=p_tt[..., 0, 0],
        p_t_talt=p_tt[..., 0, 1],
        p_talt_t=p_tt[..., 1, 0],
        p_talt_talt=p_tt[..., 1, 1],
        p_t_any=p_t_any[..., 0],
        p_talt_any=p_t_any[..., 1],
        p_any_t=p_any_t[..., 0],
        p_any_any=p_any_any,
    )
    tol = policy.verdict_tol + tail_err
    values = np.array(list(rates.values()))  # [rate, row]
    with np.errstate(over="ignore", invalid="ignore"):
        non_finite = ~np.isfinite(values)
        bad_rate = non_finite | (values < -tol) | (values > 1.0 + tol)
        f = (
            rates["p_tt"] - rates["p_t_talt"] + rates["p_talt_t"] + rates["p_talt_talt"]
            - rates["p_talt_any"] - rates["p_any_t"]
        )
    failing = bad_rate.any(axis=0) | ~(np.isfinite(f) & math.isfinite(tol))
    if failing.any():
        row = int(np.argmax(failing))
        if bad_rate[:, row].any():
            k = int(np.argmax(bad_rate[:, row]))
            name, value = list(rates)[k], float(values[k, row])
            if non_finite[k, row]:
                raise ValueError(f"rate {name} = {value} is not finite")
            raise ValueError(f"rate {value} outside [0, 1] beyond the error bar")
        raise ValueError(f"f = {float(f[row])} with error bar {tol} gives no verdict")

    lower_margin = f + rates["p_any_any"]
    upper_margin = 0.0 - f  # a zero f gives +0.0, never -0.0
    # A violation is only claimed when a bound is broken by more than the
    # numerical error bar. Truncation can raise a margin by up to the tail,
    # so a bound holds only by at least the tail (saturated bounds of an
    # untruncated state count as holding); anything between is inconclusive.
    violated = (upper_margin < -tol) | (lower_margin < -tol)
    broken = (upper_margin < tail_err) | (lower_margin < tail_err)
    verdict = _VERDICTS[np.where(violated, 2, broken.astype(np.intp))]
    return CHStack(rates, f, lower_margin, upper_margin, verdict)


def report_from_tables(tables, angles, tail_err=0.0, policy=DEFAULT_POLICY):
    """Build a CoincidenceReport from rate tables on the 2x2 setting grid.

    ``tables`` is (p_tt, p_t_any, p_any_t, p_any_any) evaluated on
    thetas1 = (theta1, theta1') and thetas2 = (theta2, theta2'), the shape
    every engine's rate tables take: the one-row case of
    :func:`ch_verdicts`.
    """
    if not isinstance(angles, AngleSettings):
        angles = AngleSettings(*angles)
    row = ch_verdicts(tuple(np.asarray(table)[None] for table in tables), tail_err, policy)
    return CoincidenceReport(
        angles=angles,
        f=float(row.f[0]),
        lower_margin=float(row.lower_margin[0]),
        upper_margin=float(row.upper_margin[0]),
        tail_err=tail_err,
        verdict=row.verdict[0],
        **{name: float(value[0]) for name, value in row.rates.items()},
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


def _best_setting(a_ij, a_il, a_kj, a_kl, t, s):
    """The CH maximum over the settings (i, j, k, l) of four blocks of A = p_tt.

    f(i, j, k, l) = [A_ij - A_il] + [A_kj + A_kl - t_k] - s_j, where i and k
    index rows and j and l columns: a_ij = A[I, J], a_il = A[I, L],
    a_kj = A[K, J] and a_kl = A[K, L], t = p_t_any over K, s = p_any_t over
    J. For each (j, l) the first bracket depends on i alone and the second
    on k alone, so the search takes O(n^3) time and O(n^2) memory.
    Rounding is monotone, so maximizing each bracket first gives exactly
    the maximum of f evaluated in this order.

    The chosen setting is the first in C order whose f lies within
    SCAN_TIE_TOL of the maximum, so maxima tied up to rounding give the
    same setting whatever the last bits of the rates. Returns ((i, j, k, l),
    maximum, f at that setting); a maximum that is not finite is a
    ValueError.
    """
    s = s[:, None]

    def outer(i):  # [j, l]: A_ij - A_il
        return a_ij[i, :, None] - a_il[i, None, :]

    def inner(k):  # [j, l]: A_kj + A_kl - t_k
        return (a_kj[k, :, None] + a_kl[k, None, :]) - t[k]

    best_outer = outer(0)
    for i in range(1, len(a_ij)):
        np.maximum(best_outer, outer(i), out=best_outer)
    best_inner = inner(0)
    for k in range(1, len(a_kj)):
        np.maximum(best_inner, inner(k), out=best_inner)
    grid_max = float(np.max((best_outer + best_inner) - s))
    if not math.isfinite(grid_max):
        raise ValueError(f"grid maximum of f is {grid_max}")
    threshold = grid_max - SCAN_TIE_TOL

    for i in range(len(a_ij)):
        by_jl = (outer(i) + best_inner) - s  # max over k of f(i, j, k, l)
        if np.max(by_jl) >= threshold:
            break
    j = int(np.argmax(np.max(by_jl, axis=1) >= threshold))
    by_kl = (a_ij[i, j] - a_il[i, None, :]) + ((a_kj[:, j, None] + a_kl) - t[:, None])
    by_kl = by_kl - s[j]
    k = int(np.argmax(np.max(by_kl, axis=1) >= threshold))
    l = int(np.argmax(by_kl[k] >= threshold))
    return (i, j, k, l), grid_max, float(by_kl[k, l])


def scan_angle_tables(p_tt, p_t_any, p_any_t, p_any_any, thetas):
    """Exhaustive CH maximization over a grid, from precomputed rate tables.

    Returns (best angle 4-tuple, grid maximum of f): the grid point that
    :func:`_best_setting` picks over every (i, j, k, l), as angles.
    """
    a, t, s = (np.asarray(table, dtype=np.float64) for table in (p_tt, p_t_any, p_any_t))
    setting, grid_max, _ = _best_setting(a, a, a, a, t, s)
    return tuple(float(thetas[m]) for m in setting), grid_max


REFINE_MIN_STEP = 1e-8
REFINE_MAX_STEPS = 200


def _refine(tables, start, grid_f, step):
    """Polish a grid maximum by a shrinking compass scan on the rate tables.

    ``tables(thetas1, thetas2)`` returns an engine's four rate tables, as
    from :func:`state_tables`. Each step evaluates them once, on each
    beam's six stencil angles: for beam one theta1 - h, theta1, theta1 + h
    (indices 0-2) and the same for theta1' (indices 3-5), and likewise for
    beam two. :func:`_best_setting` picks the best of the 3^4 settings that
    move each angle by -h, 0 or +h; the other combinations of a beam's
    angles jump to distant settings, which turns the polish into a random
    restart and loses the grid maximum's basin. The scan moves there when
    it beats the current f by more than SCAN_TIE_TOL, and the next centre
    is one more such displacement ahead (a Hooke-Jeeves pattern move), so
    the scan speeds up along a ridge that no compass direction follows;
    when a centre ahead finds nothing better the scan explores around the
    best point again, and when that finds nothing either h is halved. It
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
        points = np.add.outer(centre, (-step, 0.0, step))  # [angle, offset]
        a, t, s, _ = tables(points[0::2].ravel(), points[1::2].ravel())
        blocks = a[:3, :3], a[:3, 3:], a[3:, :3], a[3:, 3:], t[3:], s[:3]
        best, _, candidate_f = _best_setting(*blocks)
        candidate = points[np.arange(4), best]
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

    tables, _ = state_tables(state)
    best, grid_f = scan_angle_tables(*tables(thetas, thetas), thetas)
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
