"""Tests for polarizer rates, the correlation functional, and verdicts."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
import states
from bellsim import coherent, detection, fock, gaussian
from bellsim.detection import (
    INCONCLUSIVE,
    NOT_VIOLATED,
    VIOLATED,
    AngleSettings,
)

PINNED = AngleSettings(np.pi / 8, np.pi / 4, 3 * np.pi / 8, 0.0)


def test_canonical_angle_wraps_to_half_turn():
    assert detection.canonical_angle(0.0) == 0.0
    assert abs(detection.canonical_angle(np.pi + 0.3) - 0.3) < 1e-15
    assert abs(detection.canonical_angle(-0.2) - (np.pi - 0.2)) < 1e-15
    # x % pi is pi itself for a negative x nearer 0 than half an ulp of pi
    for tiny in (-1e-17, -1e-16, -5e-324, -0.0):
        folded = detection.canonical_angle(tiny)
        assert folded == 0.0 and math.copysign(1.0, folded) == 1.0, (tiny, folded)
    assert AngleSettings(-1e-17, 0.3, 0.5, 0.7).theta1 == 0.0


def test_angle_settings_canonicalize():
    a = AngleSettings(np.pi + 0.1, -0.1, 2 * np.pi + 0.5, 0.0)
    assert abs(a.theta1 - 0.1) < 1e-15
    assert abs(a.theta2 - (np.pi - 0.1)) < 1e-15
    assert abs(a.theta1_alt - 0.5) < 1e-15


def test_vacuum_probability_on_number_states():
    state = fock.number_state((0, 2, 1, 0), 4)
    assert states.vacuum_probability(state, (0,)) == 1.0
    assert states.vacuum_probability(state, (0, 1)) == 0.0
    assert states.vacuum_probability(state, (2, 3)) == 0.0
    assert states.vacuum_probability(state, (3,)) == 1.0


def test_polarizer_apply_balanced_single_photon():
    # one photon split across a beam hits a theta = 0 polarizer: the
    # transmitted mode is an even mixture of empty and occupied
    basis = fock.enumerate_basis(2, 2)
    amps = np.zeros(basis.size, dtype=np.complex128)
    amps[basis.index_of((1, 0))] = 1.0 / np.sqrt(2.0)
    amps[basis.index_of((0, 1))] = 1.0 / np.sqrt(2.0)
    state = fock.OccupationState(basis, amps)
    reduced = detection.polarizer_apply(state, 0.0)
    want = np.zeros((3, 3))
    want[0, 0] = 0.5
    want[1, 1] = 0.5
    assert np.max(np.abs(reduced.matrix - want)) < 1e-12


def test_polarizer_apply_aligned_photon_transmits():
    basis = fock.enumerate_basis(2, 1)
    amps = np.zeros(basis.size, dtype=np.complex128)
    theta = 0.6
    # put the photon exactly along the transmission axis
    amps[basis.index_of((1, 0))] = np.cos(theta)
    amps[basis.index_of((0, 1))] = -np.sin(theta)
    state = fock.OccupationState(basis, amps)
    reduced = detection.polarizer_apply(state, theta)
    one = reduced.basis.index_of((1,))
    assert abs(reduced.matrix[one, one] - 1.0) < 1e-12


def test_two_photon_joint_rate_closed_form():
    # for the balanced pair state the joint rate is sin^2(t1 + t2) / 2
    state = fock.two_photon_state()
    rng = np.random.default_rng(13)
    for t1, t2 in rng.uniform(0.0, np.pi, size=(20, 2)):
        got = detection.coincidence_probability(state, t1, t2)
        assert abs(got - 0.5 * np.sin(t1 + t2) ** 2) < 1e-12


def test_rates_match_dense_reference():
    state = fock.two_photon_state()
    vec = oracle.from_graded(state)
    rng = np.random.default_rng(31)
    for t1, t2 in rng.uniform(0.0, np.pi, size=(5, 2)):
        for a, b in ((t1, t2), (t1, None), (None, t2), (None, None)):
            got = detection.coincidence_probability(state, a, b)
            want = oracle.coincidence_probability(vec, a, b, 2)
            assert abs(got - want) < 1e-12


def test_rates_match_dense_reference_on_a_messy_state():
    rng = np.random.default_rng(101)
    cutoff = 3
    basis = fock.enumerate_basis(4, cutoff)
    amps = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
    state = states.normalized(fock.OccupationState(basis, amps))
    vec = oracle.from_graded(state)
    for t1, t2 in [(0.3, 1.2), (2.0, 0.1)]:
        got = detection.coincidence_probability(state, t1, t2)
        want = oracle.coincidence_probability(vec, t1, t2, cutoff)
        assert abs(got - want) < 1e-11


def test_four_rates_consistency():
    state = fock.two_photon_state()
    p_tt, p_t_any, p_any_t, p_any_any = detection.state_tables(state)[0]([0.7], [1.1])
    assert 0.0 <= p_tt[0, 0] <= p_t_any[0] + 1e-12
    assert p_tt[0, 0] <= p_any_t[0] + 1e-12
    assert p_any_any <= 1.0 + 1e-12
    assert abs(p_any_any - 1.0) < 1e-12


def test_reduction_to_photon_counting_for_one_photon_per_beam():
    # with at most one photon in a beam, "at least one" equals the mean count
    state = fock.two_photon_state()
    rng = np.random.default_rng(67)
    for t1 in rng.uniform(0.0, np.pi, size=5):
        rotated = detection.polarizer_apply(
            fock.partial_trace(state.to_density_operator(), (0, 1)), t1
        )
        n_op = np.diag(rotated.basis.occupations[:, 0].astype(np.float64))
        mean = float(np.real(np.trace(rotated.matrix @ n_op)))
        p = detection.coincidence_probability(state, t1, None)
        assert abs(p - mean) < 1e-12
        assert n_op.shape == rotated.matrix.shape


def test_complementary_settings_partition_the_beam_rate():
    state = fock.two_photon_state()
    rng = np.random.default_rng(43)
    for t1, t2 in rng.uniform(0.0, np.pi, size=(10, 2)):
        joint = detection.coincidence_probability(state, t1, t2)
        joint_perp = detection.coincidence_probability(state, t1, t2 + np.pi / 2)
        no_pol = detection.coincidence_probability(state, t1, None)
        assert abs(joint + joint_perp - no_pol) < 1e-12


def test_ch_functional_two_photon_at_pinned_angles():
    report = detection.ch_functional(fock.two_photon_state(), PINNED)
    assert abs(report.f - 0.20710678118654746) < 1e-12
    assert report.verdict == VIOLATED


def test_ch_functional_bunched_pairs_at_pinned_angles():
    # (1/2)(ad_1 - ad_3)(ad_4 - ad_2)|0>: a pair after 50/50 interference,
    # two of its four components with both photons in one beam
    basis = fock.enumerate_basis(4, 2)
    amps = np.zeros(basis.size, dtype=np.complex128)
    for occ in ((1, 0, 0, 1), (0, 1, 1, 0)):
        amps[basis.index_of(occ)] = 0.5
    for occ in ((1, 1, 0, 0), (0, 0, 1, 1)):
        amps[basis.index_of(occ)] = -0.5
    report = detection.ch_functional(fock.OccupationState(basis, amps), PINNED)
    assert abs(report.f - 0.10355339059327417) < 1e-12
    assert abs(report.p_any_any - 0.5) < 1e-12


def fock_report(state, angles, tail_err=0.0):
    tables = detection.state_tables(state)[0](*angles.beam_grids())
    return detection.report_from_tables(tables, angles, tail_err)


def constant_tables(value, any_value=None):
    """Tables holding one rate everywhere, or ``any_value`` where beam two has no polarizer."""
    off = value if any_value is None else any_value
    return (np.full((2, 2), value), np.full(2, off), np.full(1, value), off)


def test_report_from_tables_classifies_verdicts():
    angles = AngleSettings(0.0, 0.1, 0.2, 0.3)

    # saturated bounds hold: the vacuum gives f = 0 exactly
    report = fock_report(states.vacuum_state(4, 2), angles)
    assert report.verdict == NOT_VIOLATED
    assert report.f == 0.0

    # a clear violation
    report = fock_report(fock.two_photon_state(), PINNED)
    assert report.verdict == VIOLATED
    assert report.upper_margin < 0.0

    # breaking a bound by less than the error bar stays inconclusive
    report = fock_report(fock.two_photon_state(), PINNED, tail_err=1.0)
    assert report.verdict == INCONCLUSIVE


def test_report_from_tables_rejects_rates_outside_the_unit_interval():
    angles = AngleSettings(0.1, 0.2, 0.3, 0.4)
    with pytest.raises(ValueError):
        detection.report_from_tables(constant_tables(1.5), angles)


def test_report_margins_and_fields():
    report = fock_report(fock.two_photon_state(), PINNED)
    assert abs(report.upper_margin - (-report.f)) < 1e-15
    assert abs(report.lower_margin - (report.f + report.p_any_any)) < 1e-15
    assert report.angles == PINNED
    assert report.tail_err == 0.0


def test_angle_scan_finds_the_two_photon_peak():
    result = detection.angle_scan(fock.two_photon_state(), grid_density=8, refine=True)
    assert result.refined
    assert result.f > 0.2
    assert abs(result.f - (np.sqrt(2.0) - 1.0) / 2.0) < 5e-3
    assert result.grid_f <= result.f + 1e-12


def test_angle_scan_on_vacuum_is_flat():
    result = detection.angle_scan(states.vacuum_state(4, 2), grid_density=4)
    assert abs(result.f) < 1e-12


def test_angle_scan_guards():
    with pytest.raises(ValueError):
        detection.angle_scan(fock.two_photon_state(), grid_density=1)
    with pytest.raises(TypeError):
        detection.angle_scan(3.14)


def test_scan_handles_density_operators():
    rho = fock.two_photon_state().to_density_operator()
    result = detection.angle_scan(rho, grid_density=8)
    assert result.f > 0.19


def test_angle_settings_reject_non_finite_angles():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            AngleSettings(bad, 0.0, 0.0, 0.0)


def test_report_from_tables_gives_no_verdict_on_non_finite_numbers():
    angles = AngleSettings(0.1, 0.2, 0.3, 0.4)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            detection.report_from_tables(constant_tables(bad), angles)
        # one bad rate among good ones is enough
        with pytest.raises(ValueError):
            detection.report_from_tables(constant_tables(0.5, any_value=bad), angles)


def scalar_verdict(rates, tail_err, verdict_tol=1e-9):
    """(f, lower, upper, verdict) of one row of eight rates, in plain float arithmetic.

    ``rates`` follows the report's order: p_tt, p_t_talt, p_talt_t,
    p_talt_talt, p_t_any, p_talt_any, p_any_t, p_any_any. Raises ValueError
    where a row gives no sound verdict.
    """
    tol = verdict_tol + tail_err
    for value in rates:
        if not math.isfinite(value) or value < -tol or value > 1.0 + tol:
            raise ValueError(value)
    tt, t_talt, talt_t, talt_talt, _, talt_any, any_t, any_any = rates
    f = tt - t_talt + talt_t + talt_talt - talt_any - any_t
    if not (math.isfinite(f) and math.isfinite(tol)):
        raise ValueError(f)
    lower, upper = f + any_any, 0.0 - f
    if upper < -tol or lower < -tol:
        return f, lower, upper, VIOLATED
    if upper < tail_err or lower < tail_err:  # a bound holds only by at least the tail
        return f, lower, upper, INCONCLUSIVE
    return f, lower, upper, NOT_VIOLATED


SPECIAL_RATES = [np.nan, np.inf, -np.inf, -0.5, 1.5, 1e308, -1e-9, 1.0 + 1e-9]


@st.composite
def table_stacks(draw):
    """(p_tt[n, 2, 2], p_t_any[n, 2], p_any_t[n, 2], p_any_any[n]) with a few bad entries."""
    n = draw(st.integers(1, 6))
    flat = np.array(draw(st.lists(st.floats(-1e-9, 1.0), min_size=9 * n, max_size=9 * n)))
    for row, entry, value in draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, 8), st.sampled_from(SPECIAL_RATES)),
            max_size=3,
        )
    ):
        flat[9 * row + entry] = value
    flat = flat.reshape(n, 9)
    return flat[:, :4].reshape(n, 2, 2), flat[:, 4:6], flat[:, 6:8], flat[:, 8]


RATE_NAMES = (
    "p_tt", "p_t_talt", "p_talt_t", "p_talt_talt", "p_t_any", "p_talt_any", "p_any_t", "p_any_any",
)


def report_rates(report):
    return [getattr(report, name) for name in RATE_NAMES]


def row_rates(row):
    """The eight report rates of one row of tables, in the report's order."""
    p_tt, p_t_any, p_any_t, p_any_any = row
    return [
        float(p_tt[0, 0]), float(p_tt[0, 1]), float(p_tt[1, 0]), float(p_tt[1, 1]),
        float(p_t_any[0]), float(p_t_any[1]), float(p_any_t[0]), float(p_any_any),
    ]


@settings(max_examples=200, deadline=None)
@given(
    tables=table_stacks(),
    tail_err=st.sampled_from([0.0, 1e-9, 1e-3, 0.5, 1.0, np.inf, np.nan]),
)
def test_stacked_verdict_is_the_report_row_by_row(tables, tail_err):
    angles = AngleSettings(0.1, 0.2, 0.3, 0.4)
    rows = [tuple(table[i] for table in tables) for i in range(len(tables[3]))]
    try:
        reports = [detection.report_from_tables(row, angles, tail_err) for row in rows]
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            detection.ch_verdicts(tables, tail_err)
        assert str(info.value) == str(exc)
        with pytest.raises(ValueError):  # and the scalar rules refuse some row too
            for row in rows:
                scalar_verdict(row_rates(row), tail_err)
        return
    stack = detection.ch_verdicts(tables, tail_err)
    assert stack.f.tolist() == [report.f for report in reports]
    assert stack.lower_margin.tolist() == [report.lower_margin for report in reports]
    assert stack.upper_margin.tolist() == [report.upper_margin for report in reports]
    assert stack.verdict.tolist() == [report.verdict for report in reports]
    for name, values in stack.rates.items():
        assert values.tolist() == [getattr(report, name) for report in reports]
    for row, report in zip(rows, reports):
        want = scalar_verdict(report_rates(report), tail_err)
        assert (report.f, report.lower_margin, report.upper_margin, report.verdict) == want
        assert report_rates(report) == row_rates(row)


def test_stacked_verdicts_cover_every_outcome():
    # rows built to violate, break a bound within the error bar, hold by less
    # than the tail, and hold by at least the tail, at tail 1e-3
    tables = (
        np.array([[[0.5, 0.0], [0.5, 0.5]], [[0.5, 0.0], [0.0, 0.5]], [[0.0] * 2] * 2, [[0.0] * 2] * 2]),
        np.array([[0.0, 0.0], [0.0, 0.9995], [0.0, 0.0], [0.0, 0.0]]),
        np.array([[0.0, 0.0], [0.0, 0.0], [0.0005, 0.0], [0.25, 0.0]]),
        np.array([1.0, 1.0, 0.5, 0.5]),
    )
    stack = detection.ch_verdicts(tables, 1e-3)
    assert stack.verdict.tolist() == [VIOLATED, INCONCLUSIVE, INCONCLUSIVE, NOT_VIOLATED]
    assert 0.0 <= stack.upper_margin[2] < 1e-3 <= stack.lower_margin[2]
    assert min(stack.upper_margin[3], stack.lower_margin[3]) >= 1e-3
    # without a tail a saturated bound (f = 0) holds
    zero = tuple(np.zeros_like(table[:1]) for table in tables)
    for tail_err, verdict in ((0.0, NOT_VIOLATED), (1e-3, INCONCLUSIVE)):
        stack = detection.ch_verdicts(zero, tail_err)
        assert stack.verdict.tolist() == [verdict]
        assert stack.f[0] == 0.0 and math.copysign(1.0, stack.upper_margin[0]) == 1.0


def test_the_first_failing_row_names_the_error():
    tables = tuple(np.repeat(np.asarray(t)[None], 3, axis=0) for t in constant_tables(0.5))
    tables[1][1, 1] = 1.5
    tables[0][2, 0, 0] = np.nan
    with pytest.raises(ValueError, match=r"^rate 1.5 outside \[0, 1\]"):
        detection.ch_verdicts(tables)
    tables[0][0, 1, 1] = np.inf
    with pytest.raises(ValueError, match=r"^rate p_talt_talt = inf is not finite"):
        detection.ch_verdicts(tables)


# a cutoff of 8 leaves a nonzero truncation tail for the report to carry
REPLICA = gaussian.fock_equivalent_state(gaussian.SqueezedThermalSpec(0.3, -0.2, 1.0), 8)
RHO = REPLICA.to_density_operator()
BLOCKS = gaussian.fock_replica(gaussian.SqueezedThermalSpec(0.3, -0.2, 1.0), 8)
SQUEEZED = gaussian.build_squeezed_thermal(gaussian.SqueezedThermalSpec(0.4, 0.35, 0.9))
Z = np.array([0.8, -0.2 + 0.4j, 0.1, 0.9j])
MIXTURE = coherent.ClassicalMixture(np.array([0.3, 0.7]), [Z, 0.5 * Z[::-1]])
FOCK_MIXTURE = fock.synthesize_coherent_mixture(MIXTURE.weights, MIXTURE.components, 13)


def fock_tables(state):
    layout = detection._beam_blocks(state)
    return lambda t1, t2: detection._block_rate_tables(*layout, t1, t2)


# state type -> (state, that engine's own rate tables, truncation tail)
ENGINE_STATES = {
    "OccupationState": (REPLICA, fock_tables(REPLICA), REPLICA.truncation_tail),
    "DensityOperator": (RHO, fock_tables(RHO), RHO.truncation_tail),
    "MixedState": (FOCK_MIXTURE, fock_tables(FOCK_MIXTURE), FOCK_MIXTURE.truncation_tail),
    "BeamBlockState": (BLOCKS, fock_tables(BLOCKS), BLOCKS.truncation_tail),
    "GaussianState": (
        SQUEEZED,
        lambda t1, t2: gaussian.rate_tables(gaussian.variance_matrix(SQUEEZED), t1, t2),
        0.0,
    ),
    "CoherentAmplitudes": (
        coherent.CoherentAmplitudes(Z),
        lambda t1, t2: coherent.rate_tables(np.ones(1), Z[None], t1, t2),
        0.0,
    ),
    "ClassicalMixture": (
        MIXTURE,
        lambda t1, t2: coherent.rate_tables(MIXTURE.weights, MIXTURE.components, t1, t2),
        0.0,
    ),
}


@pytest.mark.parametrize("name", sorted(ENGINE_STATES))
def test_ch_functional_takes_every_engines_state(name):
    state, tables, tail = ENGINE_STATES[name]
    assert type(state).__name__ == name
    want = detection.report_from_tables(tables(*PINNED.beam_grids()), PINNED, tail)
    assert detection.ch_functional(state, PINNED) == want
    assert detection.state_tables(state)[1] == tail
    joint = detection.coincidence_probability(state, PINNED.theta1, PINNED.theta2)
    assert abs(joint - want.p_tt) < 1e-15


def test_state_tables_reject_an_unknown_type():
    for bad in (3.14, Z, object()):
        with pytest.raises(TypeError):
            detection.state_tables(bad)
    with pytest.raises(TypeError):
        detection.ch_functional(Z, PINNED)


def test_scan_of_a_coherent_state_equals_its_one_component_mixture():
    single = coherent.ClassicalMixture(np.ones(1), Z[None])
    for refine in (False, True):
        got = detection.angle_scan(coherent.CoherentAmplitudes(Z), 6, refine)
        assert got == detection.angle_scan(single, 6, refine)
