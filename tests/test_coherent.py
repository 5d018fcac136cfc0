"""Tests for the closed-form coherent rates and the classical mixtures."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import states
from bellsim import coherent, detection, fock
from bellsim.detection import AngleSettings
from bellsim.policy import DEFAULT_POLICY

ANGLES = AngleSettings(0.4, 1.1, 2.0, 0.7)


def test_coherent_rates_match_fock_synthesis():
    rng = np.random.default_rng(19)
    for _ in range(3):
        z = 0.45 * (rng.normal(size=4) + 1j * rng.normal(size=4))
        state = fock.synthesize_coherent(z, 14)
        for t1, t2 in [(0.3, 1.0), (1.7, None), (None, None)]:
            closed = detection.coincidence_probability(coherent.CoherentAmplitudes(z), t1, t2)
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
        joint = detection.coincidence_probability(amp, t1, t2)
        left = detection.coincidence_probability(amp, t1, None)
        right = detection.coincidence_probability(amp, None, t2)
        both = detection.coincidence_probability(amp, None, None)
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


def test_coherent_amplitudes_refuse_a_wrong_shape_or_non_finite_value():
    with pytest.raises(ValueError, match=r"^expected 4 amplitudes, got shape \(3,\)$"):
        coherent.CoherentAmplitudes(np.zeros(3))
    with pytest.raises(ValueError, match="^amplitudes must be finite$"):
        coherent.CoherentAmplitudes([0.0, complex(0.0, math.inf), 0.0, 0.0])


AMPLITUDES = st.lists(st.floats(-1.5, 1.5), min_size=8, max_size=8).map(
    lambda parts: np.array(parts[:4]) + 1j * np.array(parts[4:])
)
ANGLE_LISTS = st.lists(st.floats(0.0, math.pi), min_size=1, max_size=5)


def assert_tables_identical(got, want):
    assert len(got) == len(want) == 4
    for got_table, want_table in zip(got, want):
        assert np.array_equal(got_table, want_table)


@settings(max_examples=40, deadline=None)
@given(z=AMPLITUDES, thetas1=ANGLE_LISTS, thetas2=ANGLE_LISTS)
def test_a_coherent_state_is_the_one_component_mixture(z, thetas1, thetas2):
    state = coherent.CoherentAmplitudes(z)
    assert isinstance(state, coherent.ClassicalMixture)
    tables, tail = detection.state_tables(state)
    want, want_tail = detection.state_tables(coherent.ClassicalMixture(np.ones(1), z[None]))
    assert tail == want_tail == 0.0
    assert_tables_identical(tables(thetas1, thetas2), want(thetas1, thetas2))


# a tail tolerance of 1 lets every drawn state build at every cutoff
LOOSE_TAIL = dataclasses.replace(DEFAULT_POLICY, coherent_tail_tol=1.0)


@settings(max_examples=40, deadline=None)
@given(z=AMPLITUDES, cutoff=st.integers(4, 12), thetas1=ANGLE_LISTS, thetas2=ANGLE_LISTS)
def test_the_fock_one_component_mixture_is_the_coherent_state(z, cutoff, thetas1, thetas2):
    # the CLI builds a Fock coherent state as this one-component mixture
    pure = fock.synthesize_coherent(z, cutoff, LOOSE_TAIL)
    mixed = fock.synthesize_coherent_mixture([1.0], [z], cutoff, LOOSE_TAIL)
    tables, tail = detection.state_tables(mixed)
    want, want_tail = detection.state_tables(pure)
    assert tail == want_tail
    assert_tables_identical(tables(thetas1, thetas2), want(thetas1, thetas2))


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
        want = 0.3 * detection.coincidence_probability(
            coherent.CoherentAmplitudes(z1), t1, t2
        ) + 0.7 * detection.coincidence_probability(
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
    mix = states.random_mixture(rng)
    u = states.haar_unitary(rng)
    moved = mix.transformed(u)
    assert np.array_equal(moved.weights, mix.weights)
    for before, after in zip(mix.components, moved.components):
        assert np.max(np.abs(after - u @ before)) < 1e-12


def test_haar_unitary_is_unitary_and_seeded():
    u1 = states.haar_unitary(np.random.default_rng(5))
    u2 = states.haar_unitary(np.random.default_rng(5))
    assert np.array_equal(u1, u2)
    assert np.max(np.abs(u1.conj().T @ u1 - np.eye(4))) < 1e-12


def test_random_mixture_shape_and_weights():
    rng = np.random.default_rng(7)
    for _ in range(10):
        mix = states.random_mixture(rng, max_components=4, amplitude_scale=1.5)
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


@pytest.mark.parametrize("seed", [0, 7, 944904])
def test_mixture_draws_replay_the_flat_dirichlet(seed):
    # the weights are normalized standard exponentials, which must be the
    # documented rng.dirichlet(np.ones(count)) draw bit for bit, and leave
    # the generator where dirichlet leaves it
    for trial in range(700):
        weights, parts = states._mixture_draws(np.random.default_rng([seed, trial]))
        rng = np.random.default_rng([seed, trial])
        count = int(rng.integers(1, coherent._MAX_COMPONENTS + 1))
        assert np.array_equal(weights, rng.dirichlet(np.ones(count)))
        assert np.array_equal(parts, rng.uniform(-2.0, 2.0, size=(2, count, 4)))


@pytest.mark.parametrize("seed", [0, 7, 2026, 2**63 + 5])
def test_one_trial_replays_its_row_of_the_batch(seed):
    # advancing the bit generator by t rows must land on row t of one draw
    table = np.random.Generator(np.random.PCG64(seed)).random((300, coherent._TRIAL_DOUBLES))
    batch = coherent._trial_uniforms(seed, 0, 300)
    assert np.array_equal(batch, table)
    for trial in (0, 1, 299):
        replay = coherent._trial_uniforms(seed, trial, 1)
        assert np.array_equal(replay[0], table[trial])
    with pytest.raises(ValueError, match="negative"):
        coherent.nonviolation_trial(seed, -1)


def test_trial_draws_are_well_formed_and_distributed_as_documented():
    counts, weights, components, gaussians, angles = coherent._trials_from_uniforms(
        coherent._trial_uniforms(5, 0, 1000)
    )
    assert set(counts) == {1, 2, 3, 4, 5}
    assert np.all(weights >= 0.0)
    assert np.max(np.abs(weights.sum(axis=1) - 1.0)) <= 1e-15
    assert np.all(weights[np.arange(5) >= counts[:, None]] == 0.0)
    assert np.all((angles >= 0.0) & (angles < np.pi))
    unitaries = coherent._haar_from_gaussian(gaussians)
    products = unitaries @ np.swapaxes(unitaries, -1, -2).conj()
    assert np.max(np.abs(products - np.eye(4))) <= 1e-12
    # each quantity against its law: the first flat-Dirichlet weight of three
    # is Beta(1, 2), |U_00|^2 of a Haar U(4) is Beta(1, 3), and the real
    # amplitude parts and the angles are uniform
    laws = [
        (weights[counts == 3, 0], lambda x: 1.0 - (1.0 - x) ** 2),
        (np.abs(unitaries[:, 0, 0]) ** 2, lambda x: 1.0 - (1.0 - x) ** 3),
        ((components.real.ravel() + 2.0) / 4.0, lambda x: x),
        (angles.ravel() / np.pi, lambda x: x),
    ]
    for sample, cdf in laws:
        assert stats.kstest(sample, cdf).pvalue > 1e-3


def test_classical_suite_small_run():
    report = coherent.classical_nonviolation_suite(seed=9, trials=16)
    assert report.trials == 16
    assert report.violations == 0
    assert report.failing_seed is None
    assert report.worst_f <= 1e-12
    assert report.worst_lower_margin >= -1e-12


def reference_trial(seed, trial):
    """Trial ``trial`` of the suite, replayed from its recipe with pointwise rates."""
    mixture, angles = states.classical_trial_inputs(seed, trial)
    t1, t2, t1a, t2a = dataclasses.astuple(angles)

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
    mix = states.random_mixture(rng)
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
    numeric = states.mixture_fock_report(mix, ANGLES, cutoff=14)
    assert abs(closed.f - numeric.f) < 1e-8
    assert abs(closed.p_any_any - numeric.p_any_any) < 1e-8


def test_angle_scan_dispatches_classical_mixtures():
    rng = np.random.default_rng(111)
    mix = states.random_mixture(rng, max_components=3, amplitude_scale=1.0)
    result = detection.angle_scan(mix, grid_density=6)
    assert result.f <= 1e-12
