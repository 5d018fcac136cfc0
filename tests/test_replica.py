"""The closed-form Fock replica of the squeezed family against the dense recipe."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
import states
from bellsim import detection, fock, gaussian
from bellsim.gaussian import SqueezedThermalSpec, _squeeze_q_exponents
from bellsim.linear_optics import apply_passive, beam_wiring, entangling_unitary
from bellsim.policy import DEFAULT_POLICY, DimensionLimitError, NumericalPolicy


def apply_single_mode_squeeze(state, mode, u, policy=DEFAULT_POLICY):
    """Squeeze one currently-unoccupied mode of a pure state.

    Sign convention: u > 0 contracts the q quadrature, q -> exp(-u) q. The
    mode must be in the vacuum across the state's support. Components pushed
    past the total cutoff are dropped into the truncation tail.
    """
    if abs(u) > policy.squeeze_limit:
        raise ValueError(f"|u| = {abs(u)} exceeds the limit {policy.squeeze_limit}")
    if not isinstance(state, fock.OccupationState):
        raise TypeError("squeezing is implemented for pure states only")
    basis = state.basis
    occ = basis.occupations
    occupied = (occ[:, mode] > 0) & (np.abs(state.amplitudes) > 1e-12)
    if np.any(occupied):
        raise ValueError(f"mode {mode} is not in the vacuum; cannot squeeze it")

    series = states.squeezed_vacuum_amplitudes(u, basis.cutoff)
    weights = np.abs(series) ** 2
    # residual weight of the squeeze series past each even photon count
    residual_past = 1.0 - np.cumsum(weights)

    totals = states.totals(basis)
    out = np.zeros_like(state.amplitudes)
    dropped = 0.0
    src = np.nonzero(np.abs(state.amplitudes) > 0)[0]
    for b in src:
        room = basis.cutoff - totals[b]
        target = list(occ[b])
        for two_m in range(0, room + 1, 2):
            target[mode] = two_m
            out[basis.index[tuple(target)]] += state.amplitudes[b] * series[two_m]
        kept = room if room % 2 == 0 else room - 1
        dropped += abs(state.amplitudes[b]) ** 2 * max(0.0, residual_past[kept])
    return fock.OccupationState(basis, out, state.truncation_tail + dropped)


def test_single_mode_squeeze_matches_dense_exponential():
    u = 0.4
    cap = 30
    state = states.vacuum_state(1, cap)
    got = apply_single_mode_squeeze(state, 0, u)
    want = oracle.squeeze_op(u, 0, 1, cap) @ oracle.ket((0,), cap)
    # the dense exponential feels its own truncation near the cap, so use a
    # generous cap and compare the low-lying components only
    assert np.max(np.abs(oracle.from_graded(got)[:12] - want[:12])) < 1e-10


def test_squeeze_acts_on_the_requested_mode_only():
    state = states.vacuum_state(2, 8)
    out = apply_single_mode_squeeze(state, 1, 0.5)
    for idx in np.flatnonzero(np.abs(out.amplitudes) > 1e-14):
        occ = out.basis.occupations[idx]
        assert occ[0] == 0
        assert occ[1] % 2 == 0


def test_squeeze_preconditions():
    occupied = fock.number_state((1, 0), 4)
    with pytest.raises(ValueError):
        apply_single_mode_squeeze(occupied, 0, 0.3)
    with pytest.raises(ValueError):
        apply_single_mode_squeeze(states.vacuum_state(1, 4), 0, 7.0)


def dense_replica(spec, cutoff):
    """The replica built step by step: squeeze each mode of the vacuum, then mix."""
    state = states.vacuum_state(4, cutoff)
    for mode, w in enumerate(_squeeze_q_exponents(spec.u, spec.v)):
        if w != 0.0:
            state = apply_single_mode_squeeze(state, mode, float(w))
    return apply_passive(state, beam_wiring() @ entangling_unitary().T)


SQUEEZE = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


@settings(max_examples=40, deadline=None)
@given(u=SQUEEZE, v=SQUEEZE, cutoff=st.integers(min_value=0, max_value=16))
def test_replica_matches_the_dense_recipe(u, v, cutoff):
    spec = SqueezedThermalSpec(u, v, 1.0)
    got = gaussian.fock_equivalent_state(spec, cutoff)
    want = dense_replica(spec, cutoff)
    assert got.basis is want.basis
    assert np.max(np.abs(got.amplitudes - want.amplitudes)) < 1e-13
    assert abs(got.truncation_tail - want.truncation_tail) < 1e-14
    assert got.truncation_tail >= 0.0


@pytest.mark.parametrize("u, v", [(0.4, 0.35), (0.8, -0.3), (-1.0, 0.2), (0.0, 0.0)])
def test_the_squeeze_exponent_couples_only_the_beams(u, v):
    w = _squeeze_q_exponents(u, v)
    mixer = (beam_wiring() @ entangling_unitary().T).real
    exponent = mixer @ np.diag(-np.tanh(w)) @ mixer.T
    assert np.max(np.abs(exponent[:2, :2])) < 1e-16
    assert np.max(np.abs(exponent[2:, 2:])) < 1e-16
    tu, tv = math.tanh(u), math.tanh(v)
    coupling = 0.5 * np.array([[tu - tv, tu + tv], [tu + tv, tu - tv]])
    assert np.max(np.abs(exponent[:2, 2:] - coupling)) < 1e-16


def test_blocks_follow_the_binomial_expansion():
    # a coupling without the squeezed family's symmetries, so that each
    # entry of C must meet its own pair of modes
    c = np.array([[0.3, -0.45], [0.2, 0.6]])
    top = 6
    blocks = gaussian._coupled_beam_blocks(c, top)
    fact = math.factorial
    for n in range(top + 1):
        want = np.zeros((top + 1, top + 1))
        for k in range(n + 1):
            for l in range(n + 1):
                want[k, l] = math.sqrt(fact(k) * fact(n - k) * fact(l) * fact(n - l)) * sum(
                    c[0, 0] ** p * c[0, 1] ** (k - p) * c[1, 0] ** (l - p)
                    * c[1, 1] ** (n - k - l + p)
                    / (fact(p) * fact(k - p) * fact(l - p) * fact(n - k - l + p))
                    for p in range(max(0, k + l - n), min(k, l) + 1)
                )
        assert np.max(np.abs(blocks[n] - want)) < 1e-15


def test_replica_amplitudes_lie_on_equal_beam_blocks():
    state = gaussian.fock_equivalent_state(SqueezedThermalSpec(0.5, -0.2, 1.0), 11)
    occ = state.basis.occupations
    off_block = occ[:, 0] + occ[:, 1] != occ[:, 2] + occ[:, 3]
    assert np.all(state.amplitudes[off_block] == 0.0)
    assert abs(states.norm(state) ** 2 + state.truncation_tail - 1.0) < 1e-15


def test_replica_guards():
    for build in (gaussian.fock_equivalent_state, gaussian.fock_replica):
        with pytest.raises(ValueError, match=r"\|u\| = 0.4 exceeds the limit 0.1"):
            build(SqueezedThermalSpec(0.4, 0.05, 1.0), 8, NumericalPolicy(squeeze_limit=0.1))
        with pytest.raises(ValueError, match=r"\|u\| = 0.3 exceeds the limit 0.1"):
            build(SqueezedThermalSpec(0.05, -0.3, 1.0), 8, NumericalPolicy(squeeze_limit=0.1))
        with pytest.raises(DimensionLimitError, match="basis dimension"):
            build(SqueezedThermalSpec(0.4, 0.3, 1.0), 12, NumericalPolicy(max_dimension=100))
        with pytest.raises(ValueError, match=r"only pure \(kappa = 1\) states"):
            build(SqueezedThermalSpec(0.4, 0.3, 0.9), 12)


def test_the_dimension_limit_is_the_basis_limit():
    # the replica enumerates no basis, yet it is refused at exactly the
    # dimension where the basis of the same cutoff is
    spec = SqueezedThermalSpec(0.4, 0.3, 1.0)
    policy = NumericalPolicy(max_dimension=fock.enumerate_basis(4, 12).size)
    assert gaussian.fock_replica(spec, 12, policy).cutoff == 12
    for build in (gaussian.fock_replica, lambda *args: fock.enumerate_basis(4, *args[1:])):
        with pytest.raises(DimensionLimitError) as info:
            build(spec, 13, policy)
        assert str(info.value) == (
            "basis dimension 2380 exceeds the configured maximum 1820 (4 modes, cutoff 13)"
        )


def dense_tail(state):
    """The weight a dense state misses, from its own amplitudes."""
    return max(0.0, 1.0 - float(np.sum(np.abs(state.amplitudes) ** 2)))


ANGLE_LISTS = st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=4)


@settings(max_examples=40, deadline=None)
@given(
    u=SQUEEZE,
    v=SQUEEZE,
    cutoff=st.integers(min_value=2, max_value=20),
    thetas1=ANGLE_LISTS,
    thetas2=ANGLE_LISTS,
)
def test_beam_blocks_give_the_dense_replica_tables(u, v, cutoff, thetas1, thetas2):
    spec = SqueezedThermalSpec(u, v, 1.0)
    replica = gaussian.fock_replica(spec, cutoff)
    dense = gaussian.fock_equivalent_state(spec, cutoff)
    assert isinstance(replica, fock.BeamBlockState)
    got = detection.state_tables(replica)[0](thetas1, thetas2)
    want = detection.state_tables(dense)[0](thetas1, thetas2)
    for g, w in zip(got, want):
        assert np.max(np.abs(np.asarray(g) - np.asarray(w))) <= 1e-15
    assert abs(replica.truncation_tail - dense_tail(dense)) <= 1e-15
    assert detection.state_tables(replica)[1] == replica.truncation_tail


ANGLE = st.floats(0.0, math.pi)


@settings(max_examples=60, deadline=None)
@given(
    u=SQUEEZE,
    v=SQUEEZE,
    cutoff=st.integers(min_value=2, max_value=20),
    angles=st.tuples(ANGLE, ANGLE, ANGLE, ANGLE),
)
@example(  # the replica's lower margin 4.1e-4 sits below its tail 5.8e-4
    u=-0.08505226340053484,
    v=-0.5148919488290826,
    cutoff=9,
    angles=(0.9350904340267354, 2.3687507741090967, 0.5301581250006618, 2.9098897262839887),
)
def test_the_replica_never_contradicts_the_covariance_engine(u, v, cutoff, angles):
    # truncation moves each margin by up to the tail, so the replica may be
    # inconclusive where the exact engine decides, but never the opposite
    spec = SqueezedThermalSpec(u, v, 1.0)
    exact = detection.ch_functional(gaussian.build_squeezed_thermal(spec), angles).verdict
    replica = detection.ch_functional(gaussian.fock_replica(spec, cutoff), angles).verdict
    assert {exact, replica} != {detection.VIOLATED, detection.NOT_VIOLATED}


def test_the_beam_block_state_checks_its_blocks():
    with pytest.raises(ValueError, match="expected real"):
        fock.BeamBlockState(4, np.zeros((2, 2, 2)))
    with pytest.raises(ValueError, match="expected real"):
        fock.BeamBlockState(4, np.zeros((3, 3, 3), dtype=np.complex128))
    assert fock.BeamBlockState(5, np.zeros((3, 3, 3))).truncation_tail == 0.0
