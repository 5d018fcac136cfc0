"""Tests for the batched rate tables of every engine and the scan maximum."""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
import states
from bellsim import coherent, detection, fock, gaussian, linear_optics
from bellsim.detection import AngleSettings


def state_rate_tables(state, thetas1, thetas2):
    return detection.state_tables(state)[0](thetas1, thetas2)


def random_pure_state(rng, cutoff):
    basis = fock.enumerate_basis(4, cutoff)
    amps = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
    return states.normalized(fock.OccupationState(basis, amps))


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


def random_beam_block_state(rng, cutoff):
    """A random BeamBlockState and its dense vector, built without a basis."""
    side = cutoff // 2 + 1
    blocks = rng.normal(size=(side, side, side))
    photons, k, l = np.indices(blocks.shape)
    blocks[(k > photons) | (l > photons)] = 0.0
    blocks /= np.linalg.norm(blocks)
    vec = np.zeros((cutoff + 1) ** 4, dtype=np.complex128)
    for n, k, l in zip(*np.nonzero(blocks)):
        vec[oracle.dense_index((k, n - k, l, n - l), cutoff)] = blocks[n, k, l]
    return fock.BeamBlockState(cutoff, blocks), vec


@pytest.mark.parametrize("cutoff", [2, 3, 4])
def test_tables_match_the_dense_oracle_on_random_pure_states(cutoff, cached_oracle):
    rng = np.random.default_rng(500 + cutoff)
    pure = random_pure_state(rng, cutoff)
    thetas1 = rng.uniform(0.0, np.pi, size=2)
    thetas2 = rng.uniform(0.0, np.pi, size=1)
    replica, replica_vec = random_beam_block_state(rng, cutoff)
    for state, vec in ((pure, oracle.from_graded(pure)), (replica, replica_vec)):
        got = state_rate_tables(state, thetas1, thetas2)
        want = oracle_tables(cached_oracle, [vec], [1.0], thetas1, thetas2, cutoff)
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
    got = state_rate_tables(rho, thetas1, thetas2)
    vectors = [oracle.from_graded(s) for s in pure]
    want = oracle_tables(cached_oracle, vectors, weights, thetas1, thetas2, cutoff)
    assert_tables_close(got, want, 1e-9)


def full_expansion(rho):
    """rho as the mixed state of all its eigenvectors, zero eigenvalues included."""
    weights, columns = np.linalg.eigh(rho.matrix)
    return fock.MixedState(rho.basis, weights, columns.T, rho.truncation_tail)


def rank_three_operator():
    rng = np.random.default_rng(77)
    pure = [random_pure_state(rng, 3) for _ in range(3)]
    weights = rng.dirichlet(np.ones(3))
    matrix = sum(w * s.to_density_operator().matrix for w, s in zip(weights, pure))
    return fock.DensityOperator(pure[0].basis, matrix)


def full_rank_operator():
    rng = np.random.default_rng(78)
    basis = fock.enumerate_basis(4, 3)
    root = rng.normal(size=(basis.size, basis.size)) + 1j * rng.normal(size=(basis.size, basis.size))
    matrix = root @ root.conj().T
    return fock.DensityOperator(basis, matrix / np.trace(matrix).real)


DENSITY_OPERATORS = {
    # the replica at cutoff 8, as in test_detection
    "rank one": (
        lambda: gaussian.fock_equivalent_state(
            gaussian.SqueezedThermalSpec(0.3, -0.2, 1.0), 8
        ).to_density_operator(),
        1,
    ),
    "rank three": (rank_three_operator, 3),
    "full rank": (full_rank_operator, 35),
}


@pytest.mark.parametrize("name", sorted(DENSITY_OPERATORS))
def test_density_operators_bring_only_their_rank(name):
    build, rank = DENSITY_OPERATORS[name]
    rho = build()
    weights = detection._beam_blocks(rho)[0]
    assert weights.size == rank
    thetas1, thetas2 = np.linspace(0.0, 3.0, 5), np.linspace(0.2, 2.9, 4)
    got = state_rate_tables(rho, thetas1, thetas2)
    want = state_rate_tables(full_expansion(rho), thetas1, thetas2)
    assert_tables_close(got, want, 1e-14)


def test_grid_tables_equal_single_point_reports():
    state = gaussian.fock_equivalent_state(
        gaussian.SqueezedThermalSpec(0.3, -0.2, 1.0), 10
    )
    thetas = np.arange(6) * np.pi / 6
    p_tt, p_t_any, p_any_t, p_any_any = state_rate_tables(state, thetas, thetas)
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
    for state in (fock.number_state((1, 0), 2), gaussian.GaussianState(np.eye(4))):
        with pytest.raises(ValueError, match="four-mode"):
            detection.state_tables(state)


SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
CUTOFFS = st.integers(min_value=1, max_value=3)
ANGLES = st.lists(
    st.floats(min_value=-10.0, max_value=10.0), min_size=1, max_size=3
)
PROPERTY = settings(max_examples=30, deadline=None)


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

    vac = states.vacuum_probability
    beam_wide = (
        1.0
        - vac(state, detection.BEAM_ONE)
        - vac(state, detection.BEAM_TWO)
        + vac(state, detection.BEAM_ONE + detection.BEAM_TWO)
    )
    assert abs(detection.coincidence_probability(state, None, None) - beam_wide) < 1e-12
    # taking a polarizer out can only let more photons through
    assert p_any_t >= detection.coincidence_probability(state, theta, theta) - 1e-12


# --- Gaussian engine ----------------------------------------------------------


def reference_gaussian_rate(v, theta1, theta2):
    """Per-point rate: rotate the whole 8 x 8 variance matrix, then take blocks.

    The covariance engine's original formula, kept as the reference for
    the stacked-determinant tables.
    """
    rot = np.eye(4, dtype=np.complex128)
    if theta1 is not None:
        rot = linear_optics.polarizer_rotation(theta1, detection.BEAM_ONE, 4) @ rot
    if theta2 is not None:
        rot = linear_optics.polarizer_rotation(theta2, detection.BEAM_TWO, 4) @ rot
    m = gaussian.embed_passive(rot)
    rotated = m @ v @ m.T

    def vacuum(modes):
        rows = list(modes) + [mode + 4 for mode in modes]
        block = rotated[np.ix_(rows, rows)] + 0.5 * np.eye(len(rows))
        return 1.0 / math.sqrt(np.linalg.det(block))

    s1 = (0,) if theta1 is not None else detection.BEAM_ONE
    s2 = (2,) if theta2 is not None else detection.BEAM_TWO
    return 1.0 - vacuum(s1) - vacuum(s2) + vacuum(s1 + s2)


def reference_gaussian_tables(v, thetas1, thetas2):
    return (
        np.array([[reference_gaussian_rate(v, a, b) for b in thetas2] for a in thetas1]),
        np.array([reference_gaussian_rate(v, a, None) for a in thetas1]),
        np.array([reference_gaussian_rate(v, None, b) for b in thetas2]),
        reference_gaussian_rate(v, None, None),
    )


def random_gaussian_variance(rng):
    spec = gaussian.SqueezedThermalSpec(
        u=float(rng.uniform(-1.5, 1.5)),
        v=float(rng.uniform(-1.5, 1.5)),
        kappa=float(rng.uniform(0.1, 1.0)),
    )
    return gaussian.variance_matrix(gaussian.build_squeezed_thermal(spec))


@pytest.mark.parametrize("seed", range(6))
def test_gaussian_tables_match_the_per_point_formula(seed):
    rng = np.random.default_rng(900 + seed)
    v = random_gaussian_variance(rng)
    thetas1 = rng.uniform(-4.0, 4.0, size=int(rng.integers(1, 6)))
    thetas2 = rng.uniform(-4.0, 4.0, size=int(rng.integers(1, 6)))
    got = gaussian.rate_tables(v, thetas1, thetas2)
    assert got[0].shape == (thetas1.size, thetas2.size)
    assert got[1].shape == (thetas1.size,) and got[2].shape == (thetas2.size,)
    assert_tables_close(got, reference_gaussian_tables(v, thetas1, thetas2), 1e-14)


def test_gaussian_tables_of_a_stack_match_each_matrix():
    rng = np.random.default_rng(31)
    stack = np.array([random_gaussian_variance(rng) for _ in range(5)]).reshape(5, 1, 8, 8)
    thetas1, thetas2 = rng.uniform(0.0, np.pi, size=3), rng.uniform(0.0, np.pi, size=2)
    got = gaussian.rate_tables(stack, thetas1, thetas2)
    assert got[0].shape == (5, 1, 3, 2) and got[3].shape == (5, 1)
    for point in range(5):
        want = reference_gaussian_tables(stack[point, 0], thetas1, thetas2)
        assert_tables_close([table[point, 0] for table in got], want, 1e-14)


def test_gaussian_tables_take_a_fixed_number_of_determinants(monkeypatch):
    calls = []
    det = np.linalg.det
    monkeypatch.setattr(np.linalg, "det", lambda a: calls.append(a.shape) or det(a))
    rng = np.random.default_rng(3)
    v = random_gaussian_variance(rng)
    for shape, n in (((8, 8), 2), ((8, 8), 32), ((40, 8, 8), 2)):
        calls.clear()
        gaussian.rate_tables(np.broadcast_to(v, shape), np.zeros(n), np.ones(n))
        assert len(calls) == 4, (shape, n)


def test_gaussian_tables_reject_an_unphysical_variance():
    with pytest.raises(ValueError, match="determinant"):
        gaussian.rate_tables(np.diag([-2.0] + [0.5] * 7), [0.0], [0.0])


SCENARIOS = ("equal", "zero", "opposite")


def test_batched_sweep_matches_the_per_point_formula():
    angles = AngleSettings(0.3, 1.1, 2.0, 2.9)
    u_values = [0.0, 0.35, 0.9]
    rows = gaussian.sweep_rows(u_values, SCENARIOS, (1.0, 0.7), angles)
    points = itertools.product((1.0, 0.7), SCENARIOS, u_values)
    assert len(rows) == 18
    for row, (kappa, scenario, u) in zip(rows, points):
        v_param = gaussian.scenario_v(scenario, u)
        assert (row["u"], row["v"], row["kappa"]) == (u, v_param, kappa)
        v = gaussian.variance_matrix(
            gaussian.build_squeezed_thermal(gaussian.SqueezedThermalSpec(u, v_param, kappa))
        )
        t1, t2, t1a, t2a = dataclasses.astuple(angles)
        rate = lambda a, b: reference_gaussian_rate(v, a, b)
        f = (
            rate(t1, t2) - rate(t1, t2a) + rate(t1a, t2) + rate(t1a, t2a)
            - rate(t1a, None) - rate(None, t2)
        )
        assert abs(row["f"] - f) < 1e-14
        assert abs(row["neg_p_both"] + rate(None, None)) < 1e-14


def test_sweep_rejects_an_out_of_range_point():
    with pytest.raises(ValueError, match="must not exceed 5"):
        gaussian.sweep_rows([0.5, 5.5], ("equal",), (1.0,), (0.0, 0.1, 0.2, 0.3))
    with pytest.raises(ValueError, match="kappa"):
        gaussian.sweep_rows([0.5], ("equal",), (1.0, 1.2), (0.0, 0.1, 0.2, 0.3))


# --- properties of every engine ---------------------------------------------


GAUSSIAN_SPECS = st.builds(
    gaussian.SqueezedThermalSpec,
    u=st.floats(-1.5, 1.5),
    v=st.floats(-1.5, 1.5),
    kappa=st.floats(0.05, 1.0),
)


def mixtures(max_magnitude):
    amplitudes = st.complex_numbers(
        max_magnitude=max_magnitude, allow_nan=False, allow_infinity=False
    )
    return st.integers(1, 4).flatmap(
        lambda count: st.builds(
            lambda weights, components: coherent.ClassicalMixture(
                np.divide(weights, sum(weights)), components
            ),
            st.lists(st.floats(0.01, 1.0), min_size=count, max_size=count),
            st.lists(
                st.lists(amplitudes, min_size=4, max_size=4), min_size=count, max_size=count
            ),
        )
    )


MIXTURES = mixtures(3.0)
# the same mixtures on the Fock engine, weak enough that a cutoff of 14
# leaves a tail below 1e-15
FOCK_MIXTURES = mixtures(0.4).map(
    lambda mixture: fock.synthesize_coherent_mixture(mixture.weights, mixture.components, 14)
)
FOCK_STATES = st.builds(
    lambda seed, cutoff: random_pure_state(np.random.default_rng(seed), cutoff),
    SEEDS,
    CUTOFFS,
)
STATES = st.one_of(
    FOCK_STATES, GAUSSIAN_SPECS.map(gaussian.build_squeezed_thermal), MIXTURES, FOCK_MIXTURES
)
# about as many examples per engine as PROPERTY gives one engine
ENGINE_PROPERTY = settings(max_examples=120, deadline=None)


@ENGINE_PROPERTY
@given(state=STATES, thetas1=ANGLES, thetas2=ANGLES)
def test_rates_lie_in_the_unit_interval(state, thetas1, thetas2):
    for table in state_rate_tables(state, thetas1, thetas2):
        values = np.asarray(table)
        assert np.all(values >= -1e-12)
        assert np.all(values <= 1.0 + 1e-12)


@ENGINE_PROPERTY
@given(state=STATES, thetas1=ANGLES, thetas2=ANGLES)
def test_rates_are_pi_periodic_in_each_angle(state, thetas1, thetas2):
    tables, _ = detection.state_tables(state)
    base = tables(thetas1, thetas2)
    assert_tables_close(tables(np.add(thetas1, np.pi), thetas2), base, 1e-12)
    assert_tables_close(tables(thetas1, np.subtract(thetas2, np.pi)), base, 1e-12)


@PROPERTY
@given(spec=GAUSSIAN_SPECS, thetas1=ANGLES, thetas2=ANGLES)
def test_gaussian_rates_lie_in_the_unit_interval(spec, thetas1, thetas2):
    v = gaussian.variance_matrix(gaussian.build_squeezed_thermal(spec))
    for table in gaussian.rate_tables(v, thetas1, thetas2):
        values = np.asarray(table)
        assert np.all(values >= -1e-12)
        assert np.all(values <= 1.0 + 1e-12)


@PROPERTY
@given(spec=GAUSSIAN_SPECS, thetas1=ANGLES, thetas2=ANGLES)
def test_gaussian_rates_are_pi_periodic_in_each_angle(spec, thetas1, thetas2):
    v = gaussian.variance_matrix(gaussian.build_squeezed_thermal(spec))
    base = gaussian.rate_tables(v, thetas1, thetas2)
    shifted_one = gaussian.rate_tables(v, np.add(thetas1, np.pi), thetas2)
    shifted_two = gaussian.rate_tables(v, thetas1, np.subtract(thetas2, np.pi))
    assert_tables_close(shifted_one, base, 1e-12)
    assert_tables_close(shifted_two, base, 1e-12)


@settings(max_examples=60, deadline=None)
@given(
    mixture=st.one_of(MIXTURES, FOCK_MIXTURES),
    angles=st.tuples(*[st.floats(-10.0, 10.0)] * 4),
)
def test_mixtures_never_violate(mixture, angles):
    report = detection.ch_functional(mixture, angles)
    assert report.f <= 1e-12
    assert report.f + report.p_any_any >= -1e-12
    assert report.verdict != detection.VIOLATED


# --- scan maximum ---------------------------------------------------------------


def brute_force_scan(p_tt, p_t_any, p_any_t, thetas):
    """The n^4 array of f and the lexicographically first near-maximal point."""
    f = (
        p_tt[:, :, None, None]
        - p_tt[:, None, None, :]
        + p_tt.T[None, :, :, None]
        + p_tt[None, None, :, :]
        - p_t_any[None, None, :, None]
        - p_any_t[None, :, None, None]
    )
    grid_max = float(f.max())
    first = int(np.argmax(f.ravel() >= grid_max - detection.SCAN_TIE_TOL))
    idx = np.unravel_index(first, f.shape)
    return tuple(float(thetas[k]) for k in idx), grid_max


def dense_stencil_best(a, t, s):
    """The polish's pick over a stencil, from the dense 3^4 array of f.

    ``a``, ``t`` and ``s`` are rate tables on six angles per beam, the first
    three around theta1 (theta2) and the last three around theta1'
    (theta2'). Returns ((i, j, k, l), maximum, f there) for the first
    setting in C order whose f lies within SCAN_TIE_TOL of the maximum,
    with k and l counted from the fourth angle.
    """
    i, j, k, l = np.ix_(range(3), range(3), range(3, 6), range(3, 6))
    f = (a[i, j] - a[i, l]) + ((a[k, j] + a[k, l]) - t[k]) - s[j]
    best = np.unravel_index(int(np.argmax(f >= np.max(f) - detection.SCAN_TIE_TOL)), f.shape)
    return tuple(int(m) for m in best), float(np.max(f)), float(f[best])


def tied_tables(rng, n):
    """Random tables in which some angles duplicate others up to 1e-15 noise."""
    p_tt = rng.uniform(0.0, 1.0, size=(n, n))
    p_t_any = rng.uniform(0.0, 1.0, size=n)
    p_any_t = rng.uniform(0.0, 1.0, size=n)
    for _ in range(int(rng.integers(1, n + 1))):
        src, dst = rng.choice(n, size=2, replace=False)
        if rng.integers(2):
            p_tt[dst], p_t_any[dst] = p_tt[src], p_t_any[src]
        else:
            p_tt[:, dst], p_any_t[dst] = p_tt[:, src], p_any_t[src]
    p_tt = p_tt + rng.uniform(-1e-15, 1e-15, size=p_tt.shape)
    p_t_any = p_t_any + rng.uniform(-1e-15, 1e-15, size=n)
    p_any_t = p_any_t + rng.uniform(-1e-15, 1e-15, size=n)
    return p_tt, p_t_any, p_any_t


@pytest.mark.parametrize("seed", range(40))
def test_scan_maximum_matches_brute_force_with_ties(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    thetas = np.arange(n) * np.pi / n
    p_tt, p_t_any, p_any_t = tied_tables(rng, n)
    best, grid_max = detection.scan_angle_tables(p_tt, p_t_any, p_any_t, 0.5, thetas)
    want_best, want_max = brute_force_scan(p_tt, p_t_any, p_any_t, thetas)
    assert best == want_best
    assert abs(grid_max - want_max) < 1e-14
    # the polish's stencil: the same search on the four 3x3 blocks of six
    # angles per beam picks the dense array's setting and its f, to the bit
    a, t, s = tied_tables(rng, 6)
    blocks = a[:3, :3], a[:3, 3:], a[3:, :3], a[3:, 3:], t[3:], s[:3]
    assert detection._best_setting(*blocks) == dense_stencil_best(a, t, s)


@pytest.mark.parametrize("nan_in", ["p_tt", "a_kl"])
def test_scan_maximum_rejects_non_finite_tables(nan_in):
    if nan_in == "p_tt":
        p_tt = np.full((3, 3), 0.5)
        p_tt[1, 2] = np.nan
        with pytest.raises(ValueError):
            detection.scan_angle_tables(p_tt, np.zeros(3), np.zeros(3), 0.0, np.arange(3))
    else:
        # a NaN in the a_kl block alone, as a stencil step could meet
        a = np.full((6, 6), 0.5)
        a[4, 5] = np.nan
        blocks = a[:3, :3], a[:3, 3:], a[3:, :3], a[3:, 3:], np.zeros(3), np.zeros(3)
        with pytest.raises(ValueError, match="grid maximum of f is nan"):
            detection._best_setting(*blocks)
