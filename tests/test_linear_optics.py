"""Tests for passive transformations and the squeezed-vacuum series."""

import numpy as np
import pytest

import oracle
from bellsim import fock, linear_optics
from bellsim.coherent import haar_unitary


def random_state(rng, modes, cutoff):
    basis = fock.enumerate_basis(modes, cutoff)
    amps = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
    return fock.OccupationState(basis, amps).normalized()


def test_decompose_recompose_round_trip():
    rng = np.random.default_rng(41)
    for n in (2, 3, 4):
        u = haar_unitary(rng, n)
        ops = linear_optics.decompose_passive(u)
        back = linear_optics.recompose(ops, n)
        assert np.max(np.abs(back - u)) < 1e-12


def test_decompose_rejects_non_unitary():
    with pytest.raises(ValueError):
        linear_optics.decompose_passive(np.ones((3, 3), dtype=np.complex128))


def test_apply_passive_matches_dense_two_modes():
    rng = np.random.default_rng(17)
    cutoff = 4
    state = random_state(rng, 2, cutoff)
    u = haar_unitary(rng, 2)
    got = linear_optics.apply_passive(state, u)
    want = oracle.passive_op(u, cutoff) @ oracle.from_graded(state)
    assert np.max(np.abs(oracle.from_graded(got) - want)) < 1e-11


def test_apply_passive_matches_dense_four_modes():
    rng = np.random.default_rng(29)
    cutoff = 3
    state = random_state(rng, 4, cutoff)
    u = haar_unitary(rng, 4)
    got = linear_optics.apply_passive(state, u)
    want = oracle.passive_op(u, cutoff) @ oracle.from_graded(state)
    assert np.max(np.abs(oracle.from_graded(got) - want)) < 1e-11


def test_apply_passive_single_photon_columns():
    # one photon in mode k must come out as sum_j U_jk adag_j |vac>
    rng = np.random.default_rng(3)
    u = haar_unitary(rng, 4)
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
    u = haar_unitary(rng, 3)
    out = linear_optics.apply_passive(state, u)
    assert abs(out.norm() - 1.0) < 1e-12
    for total in range(6):
        mask = state.basis.totals == total
        before = np.sum(np.abs(state.amplitudes[mask]) ** 2)
        after = np.sum(np.abs(out.amplitudes[mask]) ** 2)
        assert abs(before - after) < 1e-12


def test_apply_passive_moves_coherent_amplitudes():
    # a passive map sends the coherent vector z to U z
    rng = np.random.default_rng(97)
    z = 0.4 * (rng.normal(size=4) + 1j * rng.normal(size=4))
    u = haar_unitary(rng, 4)
    cutoff = fock.coherent_required_cutoff(1.5 * np.abs(z))
    moved = linear_optics.apply_passive(fock.synthesize_coherent(z, cutoff), u)
    direct = fock.synthesize_coherent(u @ z, cutoff)
    assert np.max(np.abs(moved.amplitudes - direct.amplitudes)) < 1e-9


def test_diagonal_unitary_becomes_phases():
    diag = np.diag(np.exp(1j * np.array([0.3, -1.1])))
    ops = linear_optics.decompose_passive(diag)
    assert all(isinstance(op, linear_optics.PhaseOp) for op in ops)
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
    amps = linear_optics.squeezed_vacuum_amplitudes(u, 12)
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
