"""Tests for the closed-form coherent rates and the classical mixtures."""

import math

import numpy as np
import pytest

from bellsim import coherent, detection, fock
from bellsim.detection import AngleSettings

ANGLES = AngleSettings(0.4, 1.1, 2.0, 0.7)


def test_coherent_rates_match_fock_synthesis():
    rng = np.random.default_rng(19)
    for _ in range(3):
        z = 0.45 * (rng.normal(size=4) + 1j * rng.normal(size=4))
        state = fock.synthesize_coherent(z, 14)
        for t1, t2 in [(0.3, 1.0), (1.7, None), (None, None)]:
            closed = coherent.coincidence_probability(coherent.CoherentAmplitudes(z), t1, t2)
            numeric = detection.coincidence_probability(state, t1, t2)
            assert abs(closed - numeric) < 1e-9


def test_beam_rates_factorize_exactly():
    # the two beams of a coherent state are independent, so the joint
    # detection rate is the product of the single-beam rates
    rng = np.random.default_rng(37)
    for _ in range(25):
        z = rng.normal(size=4) * 1.5 + 1j * rng.normal(size=4) * 1.5
        amp = coherent.CoherentAmplitudes(z)
        t1, t2 = rng.uniform(0.0, np.pi, size=2)
        joint = coherent.coincidence_probability(amp, t1, t2)
        left = coherent.coincidence_probability(amp, t1, None)
        right = coherent.coincidence_probability(amp, None, t2)
        both = coherent.coincidence_probability(amp, None, None)
        assert abs(joint * both - left * right) < 1e-12


def test_coherent_ch_never_violates():
    rng = np.random.default_rng(53)
    for _ in range(40):
        z = rng.normal(size=4) * 2.0 + 1j * rng.normal(size=4) * 2.0
        angles = AngleSettings(*rng.uniform(0.0, np.pi, size=4))
        report = detection.ch_functional(coherent.CoherentAmplitudes(z), angles)
        assert report.f <= 1e-12
        assert report.f + report.p_any_any >= -1e-12
        assert report.verdict == detection.NOT_VIOLATED


def test_single_component_mixture_equals_coherent():
    z = np.array([0.8, -0.2 + 0.4j, 0.1, 0.9j])
    mix = coherent.ClassicalMixture(np.array([1.0]), [z])
    a = coherent.mixture_ch(mix, ANGLES)
    b = detection.ch_functional(coherent.CoherentAmplitudes(z), ANGLES)
    assert abs(a.f - b.f) < 1e-15


def pointwise_rate(mixture, theta1, theta2):
    """The closed-form joint rate of a mixture, one component and one beam at a time."""
    def beam(z, theta, i, j):
        if theta is None:
            return 1.0 - math.exp(-(abs(z[i]) ** 2 + abs(z[j]) ** 2))
        zt = math.cos(theta) * z[i] - math.sin(theta) * z[j]
        return 1.0 - math.exp(-(abs(zt) ** 2))

    return sum(
        w * beam(z, theta1, 0, 1) * beam(z, theta2, 2, 3)
        for w, z in zip(mixture.weights, mixture.components)
    )


def test_mixture_rates_are_convex_combinations():
    rng = np.random.default_rng(61)
    z1 = rng.normal(size=4) + 0j
    z2 = rng.normal(size=4) + 0j
    mix = coherent.ClassicalMixture(np.array([0.3, 0.7]), [z1, z2])
    for t1, t2 in [(0.2, 0.9), (1.3, None)]:
        got = detection.coincidence_probability(mix, t1, t2)
        want = 0.3 * coherent.coincidence_probability(
            coherent.CoherentAmplitudes(z1), t1, t2
        ) + 0.7 * coherent.coincidence_probability(
            coherent.CoherentAmplitudes(z2), t1, t2
        )
        assert abs(got - want) < 1e-14


def test_mixture_validation():
    z = np.zeros(4, dtype=np.complex128)
    with pytest.raises(ValueError):
        coherent.ClassicalMixture(np.array([0.5, 0.6]), [z, z])
    with pytest.raises(ValueError):
        coherent.ClassicalMixture(np.array([-0.2, 1.2]), [z, z])
    with pytest.raises(ValueError):
        coherent.ClassicalMixture(np.array([1.0]), [np.zeros(3, dtype=np.complex128)])
    for weights, bad in (([1.0], math.inf), ([1.0], complex(0, math.nan)),
                         ([0.5, math.nan], 0.1), ([math.inf, 0.5], 0.1)):
        with pytest.raises(ValueError, match="must be finite"):
            coherent.ClassicalMixture(np.array(weights), [[bad, 0, 0, 0], z][: len(weights)])


def test_mixture_transformed_moves_components():
    rng = np.random.default_rng(83)
    mix = coherent.random_mixture(rng)
    u = coherent.haar_unitary(rng)
    moved = mix.transformed(u)
    assert np.array_equal(moved.weights, mix.weights)
    for before, after in zip(mix.components, moved.components):
        assert np.max(np.abs(after - u @ before)) < 1e-12


def test_haar_unitary_is_unitary_and_seeded():
    u1 = coherent.haar_unitary(np.random.default_rng(5))
    u2 = coherent.haar_unitary(np.random.default_rng(5))
    assert np.array_equal(u1, u2)
    assert np.max(np.abs(u1.conj().T @ u1 - np.eye(4))) < 1e-12


def test_random_mixture_shape_and_weights():
    rng = np.random.default_rng(7)
    for _ in range(10):
        mix = coherent.random_mixture(rng, max_components=4, amplitude_scale=1.5)
        assert 1 <= len(mix.components) <= 4
        assert abs(mix.weights.sum() - 1.0) < 1e-12
        assert np.all(mix.weights > 0)
        for z in mix.components:
            assert np.max(np.abs(z.real)) <= 1.5
            assert np.max(np.abs(z.imag)) <= 1.5


def test_nonviolation_trial_is_reproducible():
    a = coherent.nonviolation_trial(21, 4)
    b = coherent.nonviolation_trial(21, 4)
    assert a.f == b.f
    assert a.angles == b.angles
    c = coherent.nonviolation_trial(21, 5)
    assert c.f != a.f


def test_classical_suite_small_run():
    report = coherent.classical_nonviolation_suite(seed=9, trials=16)
    assert report.trials == 16
    assert report.violations == 0
    assert report.failing_seed is None
    assert report.worst_f <= 1e-12
    assert report.worst_lower_margin >= -1e-12


def reference_trial(seed, trial):
    """Trial ``trial`` of the suite, replayed from its recipe with pointwise rates."""
    rng = np.random.default_rng([seed, trial])
    mixture = coherent.random_mixture(rng).transformed(coherent.haar_unitary(rng))
    angles = AngleSettings(*rng.uniform(0.0, np.pi, size=4))
    t1, t2, t1a, t2a = angles.as_tuple()

    def rate(a, b):
        return pointwise_rate(mixture, a, b)

    tables = (
        np.array([[rate(t1, t2), rate(t1, t2a)], [rate(t1a, t2), rate(t1a, t2a)]]),
        np.array([rate(t1, None), rate(t1a, None)]),
        np.array([rate(None, t2)]),
        rate(None, None),
    )
    return detection.report_from_tables(tables, angles)


@pytest.mark.parametrize("seed", [0, 7, 2026])
@pytest.mark.parametrize("trials", [0, 1, 5, 300])
def test_stacked_suite_matches_the_per_trial_loop(seed, trials):
    suite = coherent.classical_nonviolation_suite(seed, trials)
    worst_f, worst_lower, violations, failing = -math.inf, math.inf, 0, None
    for trial in range(trials):
        report = reference_trial(seed, trial)
        assert abs(report.f - coherent.nonviolation_trial(seed, trial).f) <= 1e-15
        worst_f = max(worst_f, report.f)
        worst_lower = min(worst_lower, report.lower_margin)
        if report.verdict == detection.VIOLATED:
            violations += 1
            failing = failing or (seed, trial)
    assert suite.trials == trials
    assert suite.violations == violations
    assert suite.failing_seed == failing
    assert abs(suite.worst_f - (worst_f if trials else 0.0)) <= 1e-15
    assert abs(suite.worst_lower_margin - (worst_lower if trials else 0.0)) <= 1e-15


def test_scan_tables_match_pointwise_rates():
    rng = np.random.default_rng(73)
    mix = coherent.random_mixture(rng)
    thetas = np.linspace(0.0, np.pi, 6, endpoint=False)
    p_tt, p_t_any, p_any_t, p_any_any = detection.state_tables(mix)[0](thetas, thetas)
    assert p_tt.shape == (6, 6)
    for i in (0, 3):
        for j in (1, 4):
            want = pointwise_rate(mix, thetas[i], thetas[j])
            assert abs(p_tt[i, j] - want) < 1e-12
        assert abs(p_t_any[i] - pointwise_rate(mix, thetas[i], None)) < 1e-12
    assert abs(p_any_any - pointwise_rate(mix, None, None)) < 1e-12


def test_mixture_fock_report_agrees_with_closed_form():
    rng = np.random.default_rng(99)
    weights = np.array([0.4, 0.6])
    comps = [
        0.4 * (rng.normal(size=4) + 1j * rng.normal(size=4)),
        0.4 * (rng.normal(size=4) + 1j * rng.normal(size=4)),
    ]
    mix = coherent.ClassicalMixture(weights, comps)
    closed = coherent.mixture_ch(mix, ANGLES)
    numeric = coherent.mixture_fock_report(mix, ANGLES, cutoff=14)
    assert abs(closed.f - numeric.f) < 1e-8
    assert abs(closed.p_any_any - numeric.p_any_any) < 1e-8


def test_angle_scan_dispatches_classical_mixtures():
    rng = np.random.default_rng(111)
    mix = coherent.random_mixture(rng, max_components=3, amplitude_scale=1.0)
    result = detection.angle_scan(mix, grid_density=6)
    assert result.f <= 1e-12
