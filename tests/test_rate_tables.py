"""Tests for the batched Fock rate tables behind every Fock-engine rate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from bellsim import detection, fock, gaussian, linear_optics
from bellsim.detection import AngleSettings, _fock_rate_tables


def random_pure_state(rng, cutoff):
    basis = fock.enumerate_basis(4, cutoff)
    amps = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
    return fock.OccupationState(basis, amps).normalized()


@pytest.fixture
def cached_oracle(monkeypatch):
    """The dense reference, building each Fock-space polarizer only once."""
    built = {}
    original = oracle.passive_op

    def passive_op(u, cap):
        key = (np.asarray(u).tobytes(), cap)
        if key not in built:
            built[key] = original(u, cap)
        return built[key]

    monkeypatch.setattr(oracle, "passive_op", passive_op)
    return oracle


def oracle_tables(reference, vectors, weights, thetas1, thetas2, cutoff):
    """The four tables from the dense reference, weight-averaged over vectors."""
    def rate(a, b):
        return sum(
            w * reference.coincidence_probability(v, a, b, cutoff)
            for w, v in zip(weights, vectors)
        )

    p_tt = np.array([[rate(a, b) for b in thetas2] for a in thetas1])
    p_t_any = np.array([rate(a, None) for a in thetas1])
    p_any_t = np.array([rate(None, b) for b in thetas2])
    return p_tt, p_t_any, p_any_t, rate(None, None)


def assert_tables_close(got, want, tol):
    for g, w in zip(got, want):
        assert np.max(np.abs(np.asarray(g) - np.asarray(w))) < tol


@pytest.mark.parametrize("cutoff", [2, 3, 4])
def test_tables_match_the_dense_oracle_on_random_pure_states(cutoff, cached_oracle):
    rng = np.random.default_rng(500 + cutoff)
    state = random_pure_state(rng, cutoff)
    thetas1 = rng.uniform(0.0, np.pi, size=2)
    thetas2 = rng.uniform(0.0, np.pi, size=1)
    got = _fock_rate_tables(state, thetas1, thetas2)
    vectors = [oracle.from_graded(state)]
    want = oracle_tables(cached_oracle, vectors, [1.0], thetas1, thetas2, cutoff)
    assert_tables_close(got, want, 1e-9)


def test_tables_match_the_dense_oracle_on_a_mixed_state(cached_oracle):
    rng = np.random.default_rng(77)
    cutoff = 3
    pure = [random_pure_state(rng, cutoff) for _ in range(3)]
    weights = rng.dirichlet(np.ones(3))
    matrix = sum(w * s.to_density_operator().matrix for w, s in zip(weights, pure))
    rho = fock.DensityOperator(pure[0].basis, matrix)
    thetas1 = rng.uniform(0.0, np.pi, size=2)
    thetas2 = rng.uniform(0.0, np.pi, size=3)
    got = _fock_rate_tables(rho, thetas1, thetas2)
    vectors = [oracle.from_graded(s) for s in pure]
    want = oracle_tables(cached_oracle, vectors, weights, thetas1, thetas2, cutoff)
    assert_tables_close(got, want, 1e-9)


def test_grid_tables_equal_single_point_reports():
    state = gaussian.fock_equivalent_state(
        gaussian.SqueezedThermalSpec(0.3, -0.2, 1.0), 10
    )
    thetas = np.arange(6) * np.pi / 6
    p_tt, p_t_any, p_any_t, p_any_any = _fock_rate_tables(state, thetas, thetas)
    for i, j, ia, ja in [(0, 1, 2, 3), (5, 4, 1, 0), (2, 2, 3, 3)]:
        report = detection.ch_functional(
            state, AngleSettings(thetas[i], thetas[j], thetas[ia], thetas[ja])
        )
        pairs = [
            (report.p_tt, p_tt[i, j]),
            (report.p_t_talt, p_tt[i, ja]),
            (report.p_talt_t, p_tt[ia, j]),
            (report.p_talt_talt, p_tt[ia, ja]),
            (report.p_t_any, p_t_any[i]),
            (report.p_talt_any, p_t_any[ia]),
            (report.p_any_t, p_any_t[j]),
            (report.p_any_any, p_any_any),
        ]
        for single, table in pairs:
            assert abs(single - table) < 1e-14


def test_tables_reject_states_that_are_not_four_mode():
    state = fock.number_state((1, 0), 2)
    with pytest.raises(ValueError):
        _fock_rate_tables(state, [0.0], [0.0])


SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
CUTOFFS = st.integers(min_value=1, max_value=3)
ANGLES = st.lists(
    st.floats(min_value=-10.0, max_value=10.0), min_size=1, max_size=3
)
PROPERTY = settings(max_examples=30, deadline=None)


@PROPERTY
@given(seed=SEEDS, cutoff=CUTOFFS, thetas1=ANGLES, thetas2=ANGLES)
def test_rates_lie_in_the_unit_interval(seed, cutoff, thetas1, thetas2):
    state = random_pure_state(np.random.default_rng(seed), cutoff)
    for table in _fock_rate_tables(state, thetas1, thetas2):
        values = np.asarray(table)
        assert np.all(values >= -1e-12)
        assert np.all(values <= 1.0 + 1e-12)


@PROPERTY
@given(seed=SEEDS, cutoff=CUTOFFS, thetas1=ANGLES, thetas2=ANGLES)
def test_rates_are_pi_periodic_in_each_angle(seed, cutoff, thetas1, thetas2):
    state = random_pure_state(np.random.default_rng(seed), cutoff)
    base = _fock_rate_tables(state, thetas1, thetas2)
    shifted_one = _fock_rate_tables(state, np.add(thetas1, np.pi), thetas2)
    shifted_two = _fock_rate_tables(state, thetas1, np.subtract(thetas2, np.pi))
    assert_tables_close(shifted_one, base, 1e-12)
    assert_tables_close(shifted_two, base, 1e-12)


@PROPERTY
@given(seed=SEEDS, cutoff=CUTOFFS, theta=st.floats(0.0, np.pi), turn=st.floats(0.0, np.pi))
def test_removing_a_polarizer_gives_the_beam_wide_rate(seed, cutoff, theta, turn):
    # without a polarizer the detector watches the whole beam: the rate is
    # blind to any rotation inside that beam, and with both polarizers
    # removed it is the rate built from whole-beam vacuum probabilities
    state = random_pure_state(np.random.default_rng(seed), cutoff)
    turned_one = linear_optics.apply_passive(
        state, linear_optics.polarizer_rotation(turn, detection.BEAM_ONE, 4)
    )
    turned_two = linear_optics.apply_passive(
        state, linear_optics.polarizer_rotation(turn, detection.BEAM_TWO, 4)
    )
    p_any_t = detection.coincidence_probability(state, None, theta)
    p_t_any = detection.coincidence_probability(state, theta, None)
    assert abs(detection.coincidence_probability(turned_one, None, theta) - p_any_t) < 1e-12
    assert abs(detection.coincidence_probability(turned_two, theta, None) - p_t_any) < 1e-12

    vac = detection.vacuum_probability
    beam_wide = (
        1.0
        - vac(state, detection.BEAM_ONE)
        - vac(state, detection.BEAM_TWO)
        + vac(state, detection.BEAM_ONE + detection.BEAM_TWO)
    )
    assert abs(detection.coincidence_probability(state, None, None) - beam_wide) < 1e-12
    # taking a polarizer out can only let more photons through
    assert p_any_t >= detection.coincidence_probability(state, theta, theta) - 1e-12
