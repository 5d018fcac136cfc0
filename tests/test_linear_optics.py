"""Tests for passive transformations and the squeezed-vacuum series."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
import states
from bellsim import detection, fock, linear_optics
from bellsim.detection import _polarizer_vectors


def recompose(phases, mixers):
    """Multiply a decomposition (phases first, then mixers) back into a matrix."""
    out = np.diag(np.exp(1j * phases))
    for (i, j), u in mixers:
        embedded = np.eye(len(phases), dtype=np.complex128)
        embedded[np.ix_([i, j], [i, j])] = u
        out = embedded @ out
    return out


def mixer_block(u2, total):
    """Fock matrix of a 2x2 mixer on the total-photon-(total) shell.

    Entry [m', m] is the amplitude to go from m photons in the first mode
    to m', obtained from the binomial expansion of the transformed creation
    operators.
    """
    a, b = u2[0, 0], u2[0, 1]
    c, d = u2[1, 0], u2[1, 1]
    block = np.zeros((total + 1, total + 1), dtype=np.complex128)
    lg = [math.lgamma(k + 1) for k in range(total + 1)]
    for m in range(total + 1):
        for mp in range(total + 1):
            scale = math.exp(
                0.5 * (lg[mp] + lg[total - mp] - lg[m] - lg[total - m])
            )
            acc = 0.0 + 0.0j
            p_lo = max(0, mp - (total - m))
            p_hi = min(m, mp)
            for p in range(p_lo, p_hi + 1):
                acc += (
                    math.comb(m, p)
                    * math.comb(total - m, mp - p)
                    * a**p
                    * c ** (m - p)
                    * b ** (mp - p)
                    * d ** (total - m - mp + p)
                )
            block[mp, m] = scale * acc
    return block


def closed_form_polarizer_vectors(thetas, cutoff):
    """V[N, t, k] = sqrt(C(N, k)) sin^k(theta_t) cos^(N-k)(theta_t), 0 for k > N."""
    thetas = np.asarray(thetas, dtype=np.float64)
    n = np.arange(cutoff + 1)
    # math.comb is 0 for k > N, which zeroes the entries past the block
    root_binom = np.sqrt([[float(math.comb(big, k)) for k in n] for big in n])
    sin_pow = np.sin(thetas)[None, :, None] ** n[None, None, :]
    cos_exponent = np.maximum(n[:, None] - n[None, :], 0)
    cos_pow = np.cos(thetas)[None, :, None] ** cos_exponent[:, None, :]
    return root_binom[:, None, :] * sin_pow * cos_pow


def random_state(rng, modes, cutoff):
    basis = fock.enumerate_basis(modes, cutoff)
    amps = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
    return states.normalized(fock.OccupationState(basis, amps))


def test_decompose_recompose_round_trip():
    rng = np.random.default_rng(41)
    for n in (2, 3, 4):
        u = states.haar_unitary(rng, n)
        back = recompose(*linear_optics.decompose_passive(u))
        assert np.max(np.abs(back - u)) < 1e-12


def test_decompose_rejects_non_unitary():
    with pytest.raises(ValueError):
        linear_optics.decompose_passive(np.ones((3, 3), dtype=np.complex128))


def test_apply_passive_refuses_a_non_unitary_or_wrong_sized_matrix():
    state = fock.two_photon_state()
    with pytest.raises(ValueError, match=r"^matrix is not unitary \(residual 3\.000e\+00\)$"):
        linear_optics.apply_passive(state, 2.0 * np.eye(4))
    with pytest.raises(ValueError, match="^matrix acts on 3 modes, state has 4$"):
        linear_optics.apply_passive(state, np.eye(3))
    # unitarity is checked before the mode count
    with pytest.raises(ValueError, match="^matrix is not unitary"):
        linear_optics.apply_passive(state, 2.0 * np.eye(3))


def test_apply_passive_matches_dense_two_modes():
    rng = np.random.default_rng(17)
    cutoff = 4
    state = random_state(rng, 2, cutoff)
    u = states.haar_unitary(rng, 2)
    got = linear_optics.apply_passive(state, u)
    want = oracle.passive_op(u, cutoff) @ oracle.from_graded(state)
    assert np.max(np.abs(oracle.from_graded(got) - want)) < 1e-11


def test_apply_passive_matches_dense_four_modes():
    rng = np.random.default_rng(29)
    cutoff = 3
    state = random_state(rng, 4, cutoff)
    u = states.haar_unitary(rng, 4)
    got = linear_optics.apply_passive(state, u)
    want = oracle.passive_op(u, cutoff) @ oracle.from_graded(state)
    assert np.max(np.abs(oracle.from_graded(got) - want)) < 1e-11


def test_apply_passive_single_photon_columns():
    # one photon in mode k must come out as sum_j U_jk adag_j |vac>
    rng = np.random.default_rng(3)
    u = states.haar_unitary(rng, 4)
    for k in range(4):
        state = fock.number_state(tuple(1 if m == k else 0 for m in range(4)), 2)
        moved = linear_optics.apply_passive(state, u)
        for j in range(4):
            occ = tuple(1 if m == j else 0 for m in range(4))
            amp = moved.amplitudes[moved.basis.index_of(occ)]
            assert abs(amp - u[j, k]) < 1e-12


def test_apply_passive_preserves_shells_and_norm():
    rng = np.random.default_rng(59)
    state = random_state(rng, 3, 5)
    u = states.haar_unitary(rng, 3)
    out = linear_optics.apply_passive(state, u)
    assert abs(states.norm(out) - 1.0) < 1e-12
    for total in range(6):
        mask = states.totals(state.basis) == total
        before = np.sum(np.abs(state.amplitudes[mask]) ** 2)
        after = np.sum(np.abs(out.amplitudes[mask]) ** 2)
        assert abs(before - after) < 1e-12


def test_apply_passive_moves_coherent_amplitudes():
    # a passive map sends the coherent vector z to U z
    rng = np.random.default_rng(97)
    z = 0.4 * (rng.normal(size=4) + 1j * rng.normal(size=4))
    u = states.haar_unitary(rng, 4)
    cutoff = fock.coherent_required_cutoff(1.5 * np.abs(z))
    moved = linear_optics.apply_passive(fock.synthesize_coherent(z, cutoff), u)
    direct = fock.synthesize_coherent(u @ z, cutoff)
    assert np.max(np.abs(moved.amplitudes - direct.amplitudes)) < 1e-9


def test_a_mixed_state_maps_and_traces_like_its_density_operator():
    # apply_passive and partial_trace take a MixedState component by
    # component, and its density operator sum_r w_r |v_r><v_r| by its
    # eigen-decomposition; the next test checks that against the dense oracle
    mixed = fock.synthesize_coherent_mixture(
        [0.4, 0.6], [[0.3, 0.1, 0.2, 0], [0.1, 0.2, 0, 0.3]], 6
    )

    def density(state):
        amps = state.amplitudes
        matrix = np.einsum("r,ri,rj->ij", state.weights, amps, amps.conj())
        return fock.DensityOperator(state.basis, matrix, state.truncation_tail)

    u = states.haar_unitary(np.random.default_rng(5), 4)
    moved = linear_optics.apply_passive(mixed, u)
    moved_rho = linear_optics.apply_passive(density(mixed), u)
    assert isinstance(moved, fock.MixedState)
    assert np.array_equal(moved.weights, mixed.weights)
    assert moved.truncation_tail == mixed.truncation_tail
    assert np.max(np.abs(density(moved).matrix - moved_rho.matrix)) < 1e-12
    # keeping every mode also returns the density operator
    for keep in [(0, 1), (1, 3), (2,), (0, 1, 2, 3)]:
        got = fock.partial_trace(moved, keep)
        want = fock.partial_trace(moved_rho, keep)
        assert isinstance(got, fock.DensityOperator)
        assert got.truncation_tail == want.truncation_tail
        assert np.max(np.abs(got.matrix - want.matrix)) < 1e-12
    thetas = np.arange(5) * np.pi / 5
    got = detection.state_tables(moved)[0](thetas, thetas)
    want = detection.state_tables(moved_rho)[0](thetas, thetas)
    for table, reference in zip(got, want):
        assert np.max(np.abs(table - reference)) < 1e-12


def embedding(basis, cap):
    """E[dense, graded] = 1 where both index the same occupation, mode 0 slowest."""
    out = np.zeros(((cap + 1) ** basis.mode_count, basis.size))
    for idx, occ in enumerate(basis.occupations):
        out[oracle.dense_index(tuple(occ), cap), idx] = 1.0
    return out


def test_a_density_operator_maps_and_traces_like_the_dense_oracle():
    # rank 3 with a negative eigenvalue: every signed component must move
    rng = np.random.default_rng(13)
    cutoff, modes = 3, 4
    basis = fock.enumerate_basis(modes, cutoff)
    raw = rng.normal(size=(basis.size, 3)) + 1j * rng.normal(size=(basis.size, 3))
    vectors = np.linalg.qr(raw)[0]
    weights = np.array([0.7, 0.5, -0.2])
    rho = fock.DensityOperator(basis, (vectors * weights) @ vectors.conj().T)
    u = states.haar_unitary(rng, modes)
    moved = linear_optics.apply_passive(rho, u)
    assert isinstance(moved, fock.DensityOperator)
    e = embedding(basis, cutoff)
    dense_op = oracle.passive_op(u, cutoff)
    dense = dense_op @ (e @ rho.matrix @ e.T) @ dense_op.conj().T
    assert np.max(np.abs(e @ moved.matrix @ e.T - dense)) < 1e-12
    tensor = dense.reshape((cutoff + 1,) * (2 * modes))
    letters = "abcdefgh"
    for keep in [(0, 1), (1, 3), (2,), (0, 1, 2, 3)]:
        rows = letters[:modes]
        cols = "".join(letters[modes + m] if m in keep else rows[m] for m in range(modes))
        kept = "".join(rows[m] for m in keep) + "".join(cols[m] for m in keep)
        want = np.einsum(f"{rows}{cols}->{kept}", tensor).reshape((cutoff + 1) ** len(keep), -1)
        got = fock.partial_trace(moved, keep)
        e_kept = embedding(got.basis, cutoff)
        assert np.max(np.abs(e_kept @ got.matrix @ e_kept.T - want)) < 1e-12


def test_diagonal_unitary_becomes_phases():
    diag = np.diag(np.exp(1j * np.array([0.3, -1.1])))
    phases, mixers = linear_optics.decompose_passive(diag)
    assert mixers == []
    assert np.max(np.abs(phases - [0.3, -1.1])) < 1e-15
    state = fock.number_state((2, 1), 3)
    out = linear_optics.apply_passive(state, diag)
    idx = state.basis.index_of((2, 1))
    want = np.exp(1j * (2 * 0.3 + 1 * (-1.1)))
    assert abs(out.amplitudes[idx] - want) < 1e-12


def test_polarizer_rotation_matrix_layout():
    theta = 0.37
    u = linear_optics.polarizer_rotation(theta, modes=(2, 3), mode_count=4)
    c, s = np.cos(theta), np.sin(theta)
    want = np.eye(4, dtype=np.complex128)
    want[2, 2] = c
    want[2, 3] = -s
    want[3, 2] = s
    want[3, 3] = c
    assert np.max(np.abs(u - want)) == 0.0


def test_entangling_unitary_is_real_orthogonal():
    u = linear_optics.entangling_unitary()
    assert np.max(np.abs(u.imag)) == 0.0
    assert np.max(np.abs(u @ u.T.conj() - np.eye(4))) < 1e-15
    y = np.array([[1.0, 1.0], [-1.0, 1.0]])
    want = 0.5 * np.block([[y, y], [-y, y]])
    assert np.max(np.abs(u - want)) < 1e-15


def test_beam_wiring_is_a_permutation():
    w = linear_optics.beam_wiring()
    assert np.array_equal(np.abs(w) > 0, np.abs(w) == 1.0)
    assert np.max(np.abs(w @ w.T - np.eye(4))) == 0.0
    # swapping modes 1 and 3 is its own inverse
    assert np.max(np.abs(w @ w - np.eye(4))) == 0.0


def test_check_unitary_tolerance():
    u = np.eye(3, dtype=np.complex128)
    linear_optics.check_unitary(u)
    u[0, 0] = 1.0 + 1e-6
    with pytest.raises(ValueError):
        linear_optics.check_unitary(u)


def test_squeezed_vacuum_amplitudes_closed_form():
    u = 0.7
    amps = states.squeezed_vacuum_amplitudes(u, 12)
    # even terms only, c_{2m} = (-tanh u)^m sqrt((2m)!)/(2^m m!) / sqrt(cosh u)
    assert abs(amps[0] - 1.0 / np.sqrt(np.cosh(u))) < 1e-14
    assert np.max(np.abs(amps[1::2])) == 0.0
    t = -np.tanh(u)
    from scipy.special import factorial

    for m in range(0, 7):
        want = (
            t**m
            * np.sqrt(factorial(2 * m))
            / (2**m * factorial(m))
            / np.sqrt(np.cosh(u))
        )
        assert abs(amps[2 * m] - want) < 1e-12


def test_mixer_matches_dense_on_two_modes():
    rng = np.random.default_rng(71)
    theta, phi = 0.8, -0.6
    u2 = np.array(
        [
            [np.cos(theta), -np.exp(1j * phi) * np.sin(theta)],
            [np.exp(-1j * phi) * np.sin(theta), np.cos(theta)],
        ]
    )
    state = random_state(rng, 2, 5)
    got = linear_optics.apply_passive(state, u2)
    want = oracle.passive_op(u2, 5) @ oracle.from_graded(state)
    assert np.max(np.abs(oracle.from_graded(got) - want)) < 1e-11


def haar_pair(seed):
    rng = np.random.default_rng(seed)
    return states.haar_unitary(rng, 2), states.haar_unitary(rng, 2)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    thetas=st.lists(st.floats(min_value=-7.0, max_value=7.0), min_size=1, max_size=5),
    top=st.integers(min_value=0, max_value=16),
)
def test_su2_shells_match_the_binomial_expansion(seed, thetas, top):
    u, v = haar_pair(seed)
    shells = linear_optics.su2_shells(u, top)
    product = linear_optics.su2_shells(u @ v, top)
    right = linear_optics.su2_shells(v, top)
    for n in range(top + 1):
        block = shells[n, : n + 1, : n + 1]
        assert np.max(np.abs(block - mixer_block(u, n))) < 1e-13
        assert np.max(np.abs(block.conj().T @ block - np.eye(n + 1))) < 1e-13
        assert not shells[n, n + 1 :].any() and not shells[n, :, n + 1 :].any()
        assert np.max(np.abs(product[n] - shells[n] @ right[n])) < 1e-13
    c, s = np.cos(thetas), np.sin(thetas)
    transposed = np.array([[c, s], [-s, c]]).transpose(2, 0, 1)  # R(theta)^T
    columns = linear_optics.su2_shells(transposed, top)[..., 0]
    want = closed_form_polarizer_vectors(thetas, top)
    assert np.max(np.abs(columns - want)) < 1e-13
    assert np.max(np.abs(_polarizer_vectors(thetas, top) - want)) < 1e-13
