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
from .fock import synthesize_coherent_mixture
from .policy import DEFAULT_POLICY

_WEIGHT_SUM_TOL = 1e-12


@dataclass(frozen=True)
class CoherentAmplitudes:
    """Amplitudes (z_1, z_2, z_3, z_4) of a four-mode coherent state."""

    z: np.ndarray = field(repr=True)

    def __post_init__(self):
        z = np.asarray(self.z, dtype=np.complex128)
        if z.shape != (4,):
            raise ValueError(f"expected 4 amplitudes, got shape {z.shape}")
        if not np.all(np.isfinite(z.view(np.float64))):
            raise ValueError("amplitudes must be finite")
        object.__setattr__(self, "z", z)


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


def coincidence_probability(z, theta1, theta2):
    """Joint rate P(theta1, theta2) of a coherent state; None removes a polarizer.

    ``z`` is a CoherentAmplitudes or its four amplitudes.
    """
    state = CoherentAmplitudes(getattr(z, "z", z))
    return detection.single_rate(detection.state_tables(state)[0], theta1, theta2)


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
        if np.any(w <= 0):
            raise ValueError("mixture weights must be positive")
        if abs(float(w.sum()) - 1.0) > _WEIGHT_SUM_TOL:
            raise ValueError(f"mixture weights sum to {w.sum()}, expected 1")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "components", comps)

    def transformed(self, matrix):
        """Apply a passive unitary: every component maps as z -> matrix z."""
        return ClassicalMixture(self.weights, self.components @ np.asarray(matrix).T)


def mixture_ch(mixture, angles, policy=DEFAULT_POLICY):
    """CH report for a classical mixture, from the closed forms."""
    return detection.ch_functional(mixture, angles, policy)


def mixture_fock_report(mixture, angles, cutoff, policy=DEFAULT_POLICY):
    """Fock-engine CH report of a mixture, its components synthesized at a total cutoff.

    The rates are linear in the state, so the mixed state of the pure
    components gives the weight average of their rates; the report's
    error bar is the weighted truncation tail.
    """
    state = synthesize_coherent_mixture(mixture.weights, mixture.components, cutoff, policy)
    return detection.ch_functional(state, angles, policy)


@dataclass(frozen=True)
class SuiteReport:
    """Outcome of the classical nonviolation sweep."""

    trials: int
    violations: int
    worst_f: float
    worst_lower_margin: float
    failing_seed: tuple | None


def random_mixture(rng, max_components=5, amplitude_scale=2.0):
    """Draw a classical mixture: flat simplex weights, box-uniform amplitudes."""
    count = int(rng.integers(1, max_components + 1))
    weights = rng.dirichlet(np.ones(count))
    z = rng.uniform(-amplitude_scale, amplitude_scale, size=(count, 4)) + 1j * (
        rng.uniform(-amplitude_scale, amplitude_scale, size=(count, 4))
    )
    return ClassicalMixture(weights, z)


def haar_unitary(rng, n=4):
    """Haar-distributed U(n) via QR of a complex Gaussian matrix."""
    return _haar_from_gaussian(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))


def _haar_from_gaussian(m):
    """Unitaries from complex Gaussian matrices m[..., n, n]: Q of the QR, phase-fixed.

    Multiplying each column of Q by the conjugate phase of R's diagonal
    makes the result Haar-distributed rather than biased by the QR
    convention.
    """
    q, r = np.linalg.qr(m)
    diagonal = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diagonal / np.abs(diagonal)).conj()[..., None, :]


def _trial_draws(seed, trial, amplitude_scale=2.0):
    """The seeded draws of one trial, in order: mixture, Gaussian matrix, angles."""
    rng = np.random.default_rng([seed, trial])
    mixture = random_mixture(rng, amplitude_scale=amplitude_scale)
    normal = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    angles = detection.AngleSettings(*rng.uniform(0.0, math.pi, size=4))
    return mixture, normal, angles


def nonviolation_trial(seed, trial, policy=DEFAULT_POLICY, amplitude_scale=2.0):
    """One seeded trial: random mixture, random U(4), random angles."""
    mixture, normal, angles = _trial_draws(seed, trial, amplitude_scale)
    return mixture_ch(mixture.transformed(_haar_from_gaussian(normal)), angles, policy)


def classical_nonviolation_suite(seed, trials, policy=DEFAULT_POLICY):
    """Sample classical scenarios and confirm the CH inequality holds.

    Each trial draws a random mixture, scrambles it with a Haar-random
    passive U(4), draws four random angles, and evaluates the CH report
    with the closed forms. Trial t draws exactly what
    ``nonviolation_trial(seed, t)`` draws, so a failing trial's
    (seed, trial) pair is reported and can be replayed. The trials are
    evaluated as one stack: their mixtures padded with zero weights to a
    common length, one QR and one table evaluation for all of them.
    """
    draws = [_trial_draws(seed, trial) for trial in range(trials)]
    if not draws:
        return SuiteReport(trials, 0, 0.0, 0.0, None)
    width = max(mixture.weights.size for mixture, _, _ in draws)
    weights = np.zeros((len(draws), width))
    components = np.zeros((len(draws), width, 4), dtype=np.complex128)
    for t, (mixture, _, _) in enumerate(draws):
        weights[t, : mixture.weights.size] = mixture.weights
        components[t, : mixture.weights.size] = mixture.components
    unitaries = _haar_from_gaussian(np.array([normal for _, normal, _ in draws]))
    components = components @ np.swapaxes(unitaries, -1, -2)
    grids = np.array([angles.beam_grids() for _, _, angles in draws])
    tables = rate_tables(weights, components, grids[:, 0], grids[:, 1])

    worst_f = -math.inf
    worst_lower = math.inf
    violations = 0
    failing = None
    for t, (_, _, angles) in enumerate(draws):
        report = detection.report_from_tables(
            tuple(table[t] for table in tables), angles, 0.0, policy
        )
        worst_f = max(worst_f, report.f)
        worst_lower = min(worst_lower, report.lower_margin)
        if report.verdict == detection.VIOLATED:
            violations += 1
            if failing is None:
                failing = (seed, t)
    return SuiteReport(
        trials=trials,
        violations=violations,
        worst_f=worst_f,
        worst_lower_margin=worst_lower,
        failing_seed=failing,
    )
