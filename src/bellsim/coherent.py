"""Closed-form detection rates for coherent states and classical mixtures.

For a four-mode coherent state the joint rates factorize per beam, with
the transmitted amplitude following the same rotation convention as the
Fock engine: z_i' = cos(theta) z_i - sin(theta) z_j. Positive mixtures of
coherent states model classical light; their rates are weight averages and
can never violate the CH inequality, which is what the nonviolation suite
checks by brute sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import detection
from .policy import DEFAULT_POLICY

_WEIGHT_SUM_TOL = 1e-12
# the most components a drawn classical mixture has
_MAX_COMPONENTS = 5


def _detected(z, beam, thetas):
    """1 - exp(-|cos(theta) z_i - sin(theta) z_j|^2): [..., component, angle].

    The detection probability behind a polarizer at each angle, for
    amplitudes z[..., component, 4] and angles thetas[..., angle].
    """
    i, j = beam
    thetas = np.asarray(thetas, dtype=np.float64)[..., None, :]
    # |amplitude|^2 past the float range overflows to +inf, and 1 - exp(-inf)
    # is the exact saturated rate 1, so the overflow is not reported
    with np.errstate(over="ignore"):
        transmitted = np.cos(thetas) * z[..., i, None] - np.sin(thetas) * z[..., j, None]
        return 1.0 - np.exp(-np.abs(transmitted) ** 2)


def _detected_beam(z, beam):
    """1 - exp(-|z_i|^2 - |z_j|^2): the whole beam watched, no polarizer."""
    i, j = beam
    with np.errstate(over="ignore"):  # saturates to 1, as in _detected
        return 1.0 - np.exp(-(np.abs(z[..., i]) ** 2 + np.abs(z[..., j]) ** 2))


def rate_tables(weights, components, thetas1, thetas2):
    """Rate tables over the grid thetas1 x thetas2 for mixtures of coherent states.

    ``weights[..., c]`` and ``components[..., c, 4]`` hold one mixture or a
    stack of them; a zero weight pads a mixture with fewer components.
    ``thetas1[..., i]`` and ``thetas2[..., j]`` are shared by the stack or
    carry its leading axes. Returns (p_tt[..., i, j], p_t_any[..., i],
    p_any_t[..., j], p_any_any[...]), the shape of the other engines' tables.

    A coherent state's beams are independent, so each rate is the product
    of one detection probability per beam, and a mixture's rate is the
    weight average of its components' rates.
    """
    w = np.asarray(weights, dtype=np.float64)
    z = np.asarray(components, dtype=np.complex128)
    left = _detected(z, detection.BEAM_ONE, thetas1)
    right = _detected(z, detection.BEAM_TWO, thetas2)
    left_any = _detected_beam(z, detection.BEAM_ONE)
    right_any = _detected_beam(z, detection.BEAM_TWO)
    weighted_left = w[..., None] * left
    p_tt = np.swapaxes(weighted_left, -1, -2) @ right
    p_t_any = np.sum(weighted_left * right_any[..., None], axis=-2)
    p_any_t = np.sum((w * left_any)[..., None] * right, axis=-2)
    p_any_any = np.sum(w * left_any * right_any, axis=-1)
    return p_tt, p_t_any, p_any_t, p_any_any


@dataclass(frozen=True)
class ClassicalMixture:
    """Finite positive mixture of four-mode coherent states."""

    weights: np.ndarray = field(repr=False)
    components: np.ndarray = field(repr=False)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        comps = np.asarray(self.components, dtype=np.complex128)
        if w.ndim != 1 or comps.shape != (w.size, 4):
            raise ValueError(
                f"shape mismatch: weights {w.shape}, components {comps.shape}"
            )
        if not (np.isfinite(w).all() and np.isfinite(comps).all()):
            raise ValueError("mixture weights and amplitudes must be finite")
        if not np.all(w > 0):
            raise ValueError("mixture weights must be positive")
        if abs(w.sum() - 1.0) > _WEIGHT_SUM_TOL:
            raise ValueError(f"mixture weights sum to {w.sum()}, expected 1")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "components", comps)

    def transformed(self, matrix):
        """Apply a passive unitary: every component maps as z -> matrix z."""
        return ClassicalMixture(self.weights, self.components @ np.asarray(matrix).T)


class CoherentAmplitudes(ClassicalMixture):
    """A four-mode coherent state |z_1, z_2, z_3, z_4>: the one-component classical mixture."""

    def __init__(self, z):
        z = np.asarray(z, dtype=np.complex128)
        if z.shape != (4,):
            raise ValueError(f"expected 4 amplitudes, got shape {z.shape}")
        if not np.all(np.isfinite(z.view(np.float64))):
            raise ValueError("amplitudes must be finite")
        ClassicalMixture.__init__(self, np.ones(1), z[None])


def mixture_ch(mixture, angles, policy=DEFAULT_POLICY):
    """CH report for a classical mixture, from the closed forms."""
    return detection.ch_functional(mixture, angles, policy)


@dataclass(frozen=True)
class SuiteReport:
    """Outcome of the classical nonviolation sweep."""

    trials: int
    violations: int
    worst_f: float
    worst_lower_margin: float
    failing_seed: tuple | None


def _complex(parts):
    """parts[0] + i parts[1]: complex numbers from their drawn real and imaginary parts."""
    return parts[0] + 1j * parts[1]


def _haar_from_gaussian(m):
    """Unitaries from complex Gaussian matrices m[..., n, n]: Q of the QR, phase-fixed.

    Multiplying each column of Q by the conjugate phase of R's diagonal
    makes the result Haar-distributed rather than biased by the QR
    convention (F. Mezzadri, Notices AMS 54, 592 (2007)); any i.i.d.
    complex Gaussian entries will do.
    """
    q, r = np.linalg.qr(m)
    diagonal = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diagonal / np.abs(diagonal)).conj()[..., None, :]


# the uniform doubles of one trial, in row order: the component count, the
# weights, the amplitude parts [2, component, 4], the moduli and then the
# phases of a Gaussian matrix [2, 4, 4], and the angles
_TRIAL_SIZES = (1, _MAX_COMPONENTS, 2 * _MAX_COMPONENTS * 4, 2 * 4 * 4, 4)
_TRIAL_DOUBLES = sum(_TRIAL_SIZES)  # 82


def _trial_uniforms(seed, first, count):
    """Rows first .. first + count - 1 of the seed's uniform table, one row per trial.

    The table is np.random.Generator(np.random.PCG64(seed)).random((trials,
    _TRIAL_DOUBLES)). Each double takes exactly one 64-bit output of the
    bit generator, so advancing it by first * _TRIAL_DOUBLES outputs
    starts the draw at row ``first``, whatever the trial count.
    """
    # advance would take a negative row from the far end of the period
    if first < 0:
        raise ValueError(f"trial must not be negative, got {first}")
    bits = np.random.PCG64(seed)
    bits.advance(first * _TRIAL_DOUBLES)
    return np.random.Generator(bits).random((count, _TRIAL_DOUBLES))


def _trials_from_uniforms(uniforms, amplitude_scale=2.0):
    """The trials of uniform rows [trial, _TRIAL_DOUBLES]: mixtures, Gaussian matrices, angles.

    Returns (counts[trial], weights[trial, component], components[trial,
    component, 4], gaussians[trial, 4, 4], angles[trial, 4]): the Gaussian
    matrix whose QR gives the trial's U(4) (see :func:`_haar_from_gaussian`)
    and the angles in AngleSettings order (theta1, theta2, theta1',
    theta2'). Every trial is padded to _MAX_COMPONENTS components, with
    zero weights past its count. Each quantity is an inverse-transform draw
    from its uniforms: the count 1 + floor(5u); flat Dirichlet weights,
    normalized exponentials -log1p(-u); amplitude parts uniform on
    [-amplitude_scale, amplitude_scale); standard complex Gaussians
    sqrt(-log1p(-u1)) exp(2 pi i u2); angles pi u on [0, pi).
    """
    rows = uniforms.shape[0]
    count, weights, parts, gaussians, angles = np.split(
        uniforms, np.cumsum(_TRIAL_SIZES)[:-1], axis=1
    )
    counts = 1 + np.floor(_MAX_COMPONENTS * count[:, 0]).astype(np.intp)
    weights = -np.log1p(-weights)
    weights[np.arange(_MAX_COMPONENTS) >= counts[:, None]] = 0.0
    weights /= weights.sum(axis=1, keepdims=True)
    parts = amplitude_scale * (2.0 * parts - 1.0)
    components = _complex(np.moveaxis(parts.reshape(rows, 2, _MAX_COMPONENTS, 4), 1, 0))
    moduli, phases = np.moveaxis(gaussians.reshape(rows, 2, 4, 4), 1, 0)
    gaussians = np.sqrt(-np.log1p(-moduli)) * np.exp(2j * math.pi * phases)
    return counts, weights, components, gaussians, math.pi * angles


def nonviolation_trial(seed, trial, policy=DEFAULT_POLICY, amplitude_scale=2.0):
    """One seeded trial of the classical suite: random mixture, random U(4), random angles.

    Trial t of seed s is row t of the seed's uniform table (see
    :func:`_trial_uniforms`), drawn on its own by advancing the bit
    generator to that row, so it replays in O(1) whatever the trial count.
    """
    counts, weights, components, gaussians, angles = _trials_from_uniforms(
        _trial_uniforms(seed, trial, 1), amplitude_scale
    )
    count = counts[0]
    mixture = ClassicalMixture(weights[0, :count], components[0, :count])
    mixture = mixture.transformed(_haar_from_gaussian(gaussians[0]))
    return mixture_ch(mixture, detection.AngleSettings(*angles[0]), policy)


def classical_nonviolation_suite(seed, trials, policy=DEFAULT_POLICY):
    """Sample classical scenarios and confirm the CH inequality holds.

    Each trial draws a random mixture, scrambles it with a Haar-random
    passive U(4), draws four random angles, and evaluates the CH report
    with the closed forms. All trials come from one draw: trial t is row t
    of the seed's uniform table np.random.Generator(np.random.PCG64(seed))
    .random((trials, 82)), which :func:`_trials_from_uniforms` turns into
    the trial's quantities. ``nonviolation_trial(seed, t)`` draws that row
    alone, so a failing trial's (seed, trial) pair is reported and can be
    replayed. The transforms give flat Dirichlet weights, box-uniform
    amplitudes, Haar-random U(4)s and uniform angles. Everything runs once
    over the stack: one QR, one table evaluation (the mixtures padded with
    zero weights to five components) and one stacked verdict. The draws
    are not checked as a ClassicalMixture would check them: the finite
    amplitudes and angles and normalized weights of the transforms cannot
    fail those checks, and a weight drawn as exactly 0 adds nothing.
    """
    if trials == 0:
        return SuiteReport(trials, 0, 0.0, 0.0, None)
    uniforms = _trial_uniforms(seed, 0, trials)
    _, weights, components, gaussians, angles = _trials_from_uniforms(uniforms)
    del uniforms  # before the QR, whose work sets the suite's peak memory
    components = components @ np.swapaxes(_haar_from_gaussian(gaussians), -1, -2)
    tables = rate_tables(weights, components, angles[:, [0, 2]], angles[:, [1, 3]])
    stack = detection.ch_verdicts(tables, 0.0, policy)
    violated = np.flatnonzero(stack.verdict == detection.VIOLATED)
    return SuiteReport(
        trials=trials,
        violations=int(violated.size),
        worst_f=float(stack.f.max()),
        worst_lower_margin=float(stack.lower_margin.min()),
        failing_seed=(seed, int(violated[0])) if violated.size else None,
    )
