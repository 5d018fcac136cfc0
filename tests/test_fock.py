"""Tests for the truncated Fock basis and state constructors."""

import math

import numpy as np
import pytest
from scipy.special import comb, factorial
from scipy.stats import poisson

import oracle
import states
from bellsim import fock
from bellsim.policy import DimensionLimitError, NumericalPolicy, TruncationTailError


def test_basis_size_four_modes_cutoff_sixteen():
    basis = fock.enumerate_basis(4, 16)
    assert basis.size == 4845
    assert basis.size == comb(20, 4, exact=True)


def test_basis_shell_counts():
    # states with total n fill a shell of size C(n+3, 3)
    basis = fock.enumerate_basis(4, 9)
    for total in range(10):
        count = int(np.sum(states.totals(basis) == total))
        assert count == comb(total + 3, 3, exact=True)


def test_basis_is_graded_then_lexicographic():
    basis = fock.enumerate_basis(3, 5)
    rows = [tuple(r) for r in basis.occupations]
    keys = [(sum(r), r) for r in rows]
    assert keys == sorted(keys)


def test_index_of_round_trip():
    basis = fock.enumerate_basis(4, 10)
    rng = np.random.default_rng(11)
    for idx in rng.integers(0, basis.size, size=40):
        occ = tuple(int(n) for n in basis.occupations[idx])
        assert basis.index_of(occ) == idx


def test_dimension_guard():
    with pytest.raises(DimensionLimitError):
        fock.enumerate_basis(8, 40)


def test_vacuum_state():
    state = states.vacuum_state(4, 6)
    assert abs(state.amplitudes[0] - 1.0) < 1e-15
    assert abs(np.sum(np.abs(state.amplitudes[1:]))) == 0.0
    assert abs(states.norm(state) - 1.0) < 1e-15


def test_number_state_placement():
    state = fock.number_state((2, 0, 1, 3), 8)
    idx = state.basis.index_of((2, 0, 1, 3))
    assert abs(state.amplitudes[idx] - 1.0) < 1e-15
    assert abs(states.norm(state) - 1.0) < 1e-15


def test_partial_trace_matches_dense():
    cutoff = 3
    rng = np.random.default_rng(7)
    basis = fock.enumerate_basis(3, cutoff)
    amps = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
    state = states.normalized(fock.OccupationState(basis, amps))
    reduced = fock.partial_trace(state.to_density_operator(), (0, 2))

    vec = oracle.from_graded(state)
    dense = np.outer(vec, vec.conj())
    d = cutoff + 1
    dense = dense.reshape(d, d, d, d, d, d)
    dense_reduced = np.einsum("ijkljm->iklm", dense).reshape(d * d, d * d)

    for r, occ_r in enumerate(reduced.basis.occupations):
        for c, occ_c in enumerate(reduced.basis.occupations):
            i = oracle.dense_index(tuple(occ_r), cutoff)
            j = oracle.dense_index(tuple(occ_c), cutoff)
            assert abs(reduced.matrix[r, c] - dense_reduced[i, j]) < 1e-12
    assert abs(np.trace(reduced.matrix) - 1.0) < 1e-12


def test_partial_trace_of_product_state_is_pure():
    state = fock.number_state((1, 0, 2, 0), 4)
    reduced = fock.partial_trace(state.to_density_operator(), (2, 3))
    purity = np.real(np.trace(reduced.matrix @ reduced.matrix))
    assert abs(purity - 1.0) < 1e-12
    idx = reduced.basis.index_of((2, 0))
    assert abs(reduced.matrix[idx, idx] - 1.0) < 1e-12


def test_synthesize_coherent_amplitudes():
    z = np.array([0.6 - 0.2j, 0.0, 0.3j, -0.4])
    cutoff = 14
    state = fock.synthesize_coherent(z, cutoff)
    norm_sq = np.exp(-np.sum(np.abs(z) ** 2))
    for idx in np.flatnonzero(np.abs(state.amplitudes) > 1e-14)[:60]:
        occ = state.basis.occupations[idx]
        want = np.sqrt(norm_sq) * np.prod(
            z ** occ / np.sqrt(factorial(occ))
        )
        assert abs(state.amplitudes[idx] - want) < 1e-13


def test_synthesize_coherent_tail_bookkeeping():
    z = np.array([0.5, 0.5, 0.0, 0.0])
    state = fock.synthesize_coherent(z, 12)
    assert state.truncation_tail >= 0.0
    # the dropped weight is exactly 1 - |kept|^2
    assert abs(state.truncation_tail - (1.0 - states.norm(state) ** 2)) < 1e-13


def test_synthesize_coherent_rejects_heavy_tail():
    z = np.array([3.5, 0.0, 0.0, 0.0])
    with pytest.raises(TruncationTailError):
        fock.synthesize_coherent(z, 8)
    assert fock.coherent_required_cutoff(z) > 8


def test_coherent_required_cutoff_is_sufficient():
    rng = np.random.default_rng(3)
    for _ in range(5):
        z = rng.normal(size=4) * 0.8 + 1j * rng.normal(size=4) * 0.8
        cutoff = fock.coherent_required_cutoff(z)
        state = fock.synthesize_coherent(z, cutoff)
        assert state.truncation_tail <= 1e-8


def reference_required_cutoff(lam, tol=1e-8):
    """The cutoff search by direct summation of Poisson terms from exp(-lam).

    exp(-lam) underflows to 0 once lam is above about 745, so this
    reference stops working there.
    """
    if lam == 0.0:
        return 0
    term = math.exp(-lam)
    cdf = term
    n = 0
    while 1.0 - cdf > tol:
        n += 1
        term *= lam / n
        cdf += term
    return n


def test_coherent_required_cutoff_equals_the_direct_sum():
    rng = np.random.default_rng(8)
    lams = np.concatenate([[0.0], np.geomspace(1e-9, 700.0, 300), rng.uniform(0.0, 700.0, 300)])
    for lam in lams:
        z = np.array([math.sqrt(lam), 0.0, 0.0, 0.0])
        want = reference_required_cutoff(float(np.sum(np.abs(z) ** 2)))
        assert fock.coherent_required_cutoff(z) == want, lam


def test_coherent_required_cutoff_past_the_underflow_matches_the_poisson_tail():
    rng = np.random.default_rng(9)
    for lam in np.concatenate([[745.5, 784.0, 900.0], rng.uniform(700.0, 20000.0, 40)]):
        n = np.arange(int(lam + 20.0 * math.sqrt(lam)))
        want = int(np.argmax(poisson.sf(n, lam) <= 1e-8))
        assert fock.coherent_required_cutoff([math.sqrt(lam), 0, 0, 0]) == want, lam
    assert fock.coherent_required_cutoff([28, 0, 0, 0]) == 946


def test_a_coherent_state_past_the_cutoff_is_refused_before_synthesis():
    # the refusal comes from the Poisson tail alone, before any amplitude
    # is formed (|z| = 1e200 would overflow them), and names the cutoff
    with pytest.raises(TruncationTailError, match="cutoff 1073 would") as refused:
        fock.synthesize_coherent([30, 0, 0, 0], 16)
    assert refused.value.required_cutoff == 1073
    for z in (1e200, math.inf):
        with pytest.raises(ValueError, match="beyond any cutoff"):
            fock.synthesize_coherent([z, 0, 0, 0], 16)


@pytest.mark.parametrize("tol", [1e-8, 1e-16])
def test_the_cutoff_a_coherent_refusal_names_is_accepted(tol):
    # one tail, P(N > cutoff), refuses a cutoff and names the smallest
    # cutoff it accepts
    z = np.array([1.2, 0.7, 0.3, 0.9])
    policy = NumericalPolicy(coherent_tail_tol=tol)
    with pytest.raises(TruncationTailError) as refused:
        fock.synthesize_coherent(z, 1, policy)
    needed = refused.value.required_cutoff
    assert f"cutoff {needed} would satisfy the bound" in str(refused.value)
    with pytest.raises(TruncationTailError, match=f"cutoff {needed} would"):
        fock.synthesize_coherent(z, needed - 1, policy)
    state = fock.synthesize_coherent(z, needed, policy)
    assert state.truncation_tail <= tol
    assert state.truncation_tail == pytest.approx(poisson.sf(needed, np.sum(z**2)), rel=1e-12)
    assert abs(states.norm(state) ** 2 + state.truncation_tail - 1.0) < 1e-13


def test_two_photon_state_support():
    state = fock.two_photon_state()
    idx_a = state.basis.index_of((1, 0, 0, 1))
    idx_b = state.basis.index_of((0, 1, 1, 0))
    root_half = 1.0 / np.sqrt(2.0)
    assert abs(state.amplitudes[idx_a] - root_half) < 1e-15
    assert abs(state.amplitudes[idx_b] - root_half) < 1e-15
    others = np.delete(np.abs(state.amplitudes), [idx_a, idx_b])
    assert np.max(others) == 0.0
    top_shell = states.totals(state.basis) == state.cutoff
    assert abs(np.sum(np.abs(state.amplitudes[top_shell]) ** 2) - 1.0) < 1e-15


def test_density_operator_validation():
    basis = fock.enumerate_basis(2, 2)
    bad = np.zeros((basis.size, basis.size), dtype=np.complex128)
    bad[0, 0] = 1.0
    bad[0, 1] = 0.5
    with pytest.raises(ValueError):
        fock.DensityOperator(basis, bad)
    off_trace = np.zeros_like(bad)
    off_trace[0, 0] = 0.7
    with pytest.raises(ValueError):
        fock.DensityOperator(basis, off_trace)


def test_overlap_and_normalized():
    a = fock.number_state((1, 0), 3)
    b = fock.number_state((0, 1), 3)
    both = states.normalized(fock.OccupationState(a.basis, a.amplitudes + b.amplitudes))
    assert abs(states.norm(both) - 1.0) < 1e-14
    assert abs(abs(states.overlap(both, a)) - 1.0 / np.sqrt(2.0)) < 1e-14
    with pytest.raises(ValueError):
        states.normalized(
            fock.OccupationState(a.basis, np.zeros(a.basis.size, dtype=np.complex128))
        )
