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


def _as_amplitudes(z):
    if isinstance(z, CoherentAmplitudes):
        return z.z
    return CoherentAmplitudes(np.asarray(z)).z


def _beam_factor(z, theta, beam):
    """Detection probability factor for one beam.

    With a polarizer: 1 - exp(-|z_i'|^2) for the transmitted amplitude.
    Without (theta None): 1 - exp(-|z_i|^2 - |z_j|^2) for the whole beam.
    """
    i, j = beam
    if theta is None:
        return 1.0 - math.exp(-(abs(z[i]) ** 2 + abs(z[j]) ** 2))
    zt = math.cos(theta) * z[i] - math.sin(theta) * z[j]
    return 1.0 - math.exp(-(abs(zt) ** 2))


def coincidence_probability(z, theta1, theta2):
    """Joint rate P(theta1, theta2) of a coherent state; None removes a polarizer."""
    z = _as_amplitudes(z)
    return _beam_factor(z, theta1, detection.BEAM_ONE) * _beam_factor(
        z, theta2, detection.BEAM_TWO
    )


def coherent_ch(z, angles, policy=DEFAULT_POLICY):
    """CH report for a single coherent state, from the closed forms."""
    z = _as_amplitudes(z)
    return detection.assemble_report(
        lambda t1, t2: coincidence_probability(z, t1, t2), angles, 0.0, policy
    )


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
        if np.any(w <= 0):
            raise ValueError("mixture weights must be positive")
        if abs(float(w.sum()) - 1.0) > _WEIGHT_SUM_TOL:
            raise ValueError(f"mixture weights sum to {w.sum()}, expected 1")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "components", comps)

    def transformed(self, matrix):
        """Apply a passive unitary: every component maps as z -> matrix z."""
        return ClassicalMixture(self.weights, self.components @ np.asarray(matrix).T)


def mixture_probability(mixture, theta1, theta2):
    total = 0.0
    for w, z in zip(mixture.weights, mixture.components):
        total += w * (
            _beam_factor(z, theta1, detection.BEAM_ONE)
            * _beam_factor(z, theta2, detection.BEAM_TWO)
        )
    return total


def mixture_ch(mixture, angles, policy=DEFAULT_POLICY):
    return detection.assemble_report(
        lambda t1, t2: mixture_probability(mixture, t1, t2), angles, 0.0, policy
    )


def scan_tables(mixture, thetas):
    """Rate tables over an angle grid, for the shared scan core."""
    n = len(thetas)
    w = mixture.weights
    comps = mixture.components
    left = np.empty((w.size, n))
    right = np.empty((w.size, n))
    left_any = np.empty(w.size)
    right_any = np.empty(w.size)
    for c, z in enumerate(comps):
        left_any[c] = _beam_factor(z, None, detection.BEAM_ONE)
        right_any[c] = _beam_factor(z, None, detection.BEAM_TWO)
        for k, t in enumerate(thetas):
            left[c, k] = _beam_factor(z, t, detection.BEAM_ONE)
            right[c, k] = _beam_factor(z, t, detection.BEAM_TWO)
    p_tt = np.einsum("c,ci,cj->ij", w, left, right)
    p_t_any = (w * right_any) @ left
    p_any_t = (w * left_any) @ right
    p_any_any = float(np.sum(w * left_any * right_any))
    return p_tt, p_t_any, p_any_t, p_any_any


def mixture_fock_report(mixture, angles, cutoff, policy=DEFAULT_POLICY):
    """Fock-engine CH report of a mixture, averaging pure-component rates.

    Each coherent component is synthesized at the given total cutoff and
    its rate tables computed by the Fock engine on the 2x2 setting grid;
    the mixture tables are the weight average (the rates are linear in the
    state). The report's error bar is the weight-averaged truncation tail.
    """
    from .fock import synthesize_coherent

    if not isinstance(angles, detection.AngleSettings):
        angles = detection.AngleSettings(*angles)
    states = [synthesize_coherent(z, cutoff, policy) for z in mixture.components]
    tail = float(np.sum(mixture.weights * [s.truncation_tail for s in states]))
    per_state = [detection._fock_rate_tables(s, *angles.beam_grids()) for s in states]
    tables = tuple(
        sum(w * table[part] for w, table in zip(mixture.weights, per_state))
        for part in range(4)
    )
    return detection.report_from_tables(tables, angles, tail, policy)


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
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(m)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r))).conj()


def nonviolation_trial(seed, trial, policy=DEFAULT_POLICY, amplitude_scale=2.0):
    """One seeded trial: random mixture, random U(4), random angles."""
    rng = np.random.default_rng([seed, trial])
    mixture = random_mixture(rng, amplitude_scale=amplitude_scale)
    mixture = mixture.transformed(haar_unitary(rng))
    angles = detection.AngleSettings(*rng.uniform(0.0, math.pi, size=4))
    return mixture_ch(mixture, angles, policy)


def classical_nonviolation_suite(
    seed, trials, policy=DEFAULT_POLICY, amplitude_scale=2.0
):
    """Sample classical scenarios and confirm the CH inequality holds.

    Each trial draws a random mixture, scrambles it with a Haar-random
    passive U(4), draws four random angles, and evaluates the CH report
    with the closed forms. A failing trial's (seed, trial) pair is
    reported so it can be replayed.
    """
    worst_f = -math.inf
    worst_lower = math.inf
    violations = 0
    failing = None
    for trial in range(trials):
        report = nonviolation_trial(seed, trial, policy, amplitude_scale)
        worst_f = max(worst_f, report.f)
        worst_lower = min(worst_lower, report.lower_margin)
        if report.verdict == detection.VIOLATED:
            violations += 1
            if failing is None:
                failing = (seed, trial)
    return SuiteReport(
        trials=trials,
        violations=violations,
        worst_f=worst_f if trials else 0.0,
        worst_lower_margin=worst_lower if trials else 0.0,
        failing_seed=failing,
    )
