"""Truncated Fock space for a handful of bosonic modes.

The truncation is on the *total* photon number, so the basis is graded:
occupation vectors are ordered by total photon number first, then
lexicographically within each shell. Photon-number conserving operations
act exactly, shell by shell; everything that does truncate accumulates the
discarded squared weight into ``truncation_tail`` so downstream
probabilities carry an explicit error bar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .policy import DEFAULT_POLICY, DimensionLimitError, TruncationTailError

# largest hermiticity residual and trace deviation a density operator may carry
DENSITY_TOL = 1e-10


def _compositions(total, parts):
    """Yield occupation tuples with the given sum, lexicographically."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


@dataclass(frozen=True)
class FockBasis:
    """Graded-lexicographic basis of a total-photon-truncated Fock space."""

    mode_count: int
    cutoff: int
    occupations: np.ndarray = field(repr=False)
    index: dict = field(repr=False)

    @property
    def size(self):
        return self.occupations.shape[0]

    def index_of(self, occupation):
        return self.index[tuple(int(n) for n in occupation)]

    def vacuum_mask(self, modes):
        """Boolean mask of basis states with zero photons in every listed mode."""
        cols = list(modes)
        return (self.occupations[:, cols] == 0).all(axis=1)


@lru_cache(maxsize=None)
def _build_basis(mode_count, cutoff):
    rows = []
    for total in range(cutoff + 1):
        rows.extend(_compositions(total, mode_count))
    occ = np.array(rows, dtype=np.int64)
    occ.setflags(write=False)
    index = {row: i for i, row in enumerate(rows)}
    return FockBasis(mode_count=mode_count, cutoff=cutoff, occupations=occ, index=index)


def enumerate_basis(mode_count, cutoff, policy=DEFAULT_POLICY):
    """Return the cached basis for ``mode_count`` modes at a total cutoff.

    Raises DimensionLimitError before enumerating anything if the dimension
    C(cutoff + mode_count, mode_count) exceeds the policy budget.
    """
    if mode_count < 1 or cutoff < 0:
        raise ValueError(f"invalid basis shape: {mode_count} modes, cutoff {cutoff}")
    dim = math.comb(cutoff + mode_count, mode_count)
    if dim > policy.max_dimension:
        raise DimensionLimitError(
            f"basis dimension {dim} exceeds the configured maximum "
            f"{policy.max_dimension} ({mode_count} modes, cutoff {cutoff})"
        )
    return _build_basis(mode_count, cutoff)


@dataclass(frozen=True)
class OccupationState:
    """Pure state over a truncated Fock basis.

    ``amplitudes`` follow the basis order. ``truncation_tail`` is the total
    squared weight discarded by truncating operations applied so far; it is
    an error bar, not part of the state.
    """

    basis: FockBasis
    amplitudes: np.ndarray = field(repr=False)
    truncation_tail: float = 0.0

    def __post_init__(self):
        if self.amplitudes.shape != (self.basis.size,):
            raise ValueError(
                f"amplitude vector has shape {self.amplitudes.shape}, "
                f"expected ({self.basis.size},)"
            )

    @property
    def mode_count(self):
        return self.basis.mode_count

    @property
    def cutoff(self):
        return self.basis.cutoff

    def to_density_operator(self):
        return DensityOperator(
            self.basis,
            np.outer(self.amplitudes, self.amplitudes.conj()),
            self.truncation_tail,
        )


@dataclass(frozen=True)
class DensityOperator:
    """Density operator over a truncated Fock basis.

    Hermiticity and unit trace are enforced at construction; positivity is
    not checked, since it would cost a full diagonalization.
    """

    basis: FockBasis
    matrix: np.ndarray = field(repr=False)
    truncation_tail: float = 0.0

    def __post_init__(self):
        d = self.basis.size
        if self.matrix.shape != (d, d):
            raise ValueError(f"matrix shape {self.matrix.shape}, expected ({d}, {d})")
        herm = np.max(np.abs(self.matrix - self.matrix.conj().T))
        if herm > DENSITY_TOL:
            raise ValueError(f"matrix is not hermitian (residual {herm:.3e})")
        tr = complex(np.trace(self.matrix))
        if abs(tr - 1.0) > DENSITY_TOL + self.truncation_tail:
            raise ValueError(f"trace is {tr}, expected 1")

    @property
    def mode_count(self):
        return self.basis.mode_count

    @property
    def cutoff(self):
        return self.basis.cutoff


def number_state(occupation, cutoff, policy=DEFAULT_POLICY):
    """Basis state |n_1, ..., n_k> at the given total cutoff."""
    occupation = tuple(int(n) for n in occupation)
    basis = enumerate_basis(len(occupation), cutoff, policy)
    amp = np.zeros(basis.size, dtype=np.complex128)
    amp[basis.index_of(occupation)] = 1.0
    return OccupationState(basis, amp)


def coherent_required_cutoff(z, policy=DEFAULT_POLICY):
    """Smallest total cutoff whose coherent-state tail meets coherent_tail_tol."""
    lam = float(np.sum(np.abs(np.asarray(z, dtype=np.complex128)) ** 2))
    if lam == 0.0:
        return 0
    # survival of a Poisson(lam) total photon count, by direct summation
    term = math.exp(-lam)
    cdf = term
    n = 0
    while 1.0 - cdf > policy.coherent_tail_tol:
        n += 1
        term *= lam / n
        cdf += term
        if n > 100_000:
            raise ValueError("tail target unreachable")
    return n


def synthesize_coherent(z, cutoff, policy=DEFAULT_POLICY):
    """Multimode coherent state |z_1> ... |z_k> truncated at a total cutoff.

    Amplitudes are the exact analytic ones, exp(-|z|^2/2) prod z^n/sqrt(n!);
    no renormalization is applied. The discarded weight must satisfy the
    policy tail bound, otherwise a TruncationTailError reports the cutoff
    that would.
    """
    z = np.asarray(z, dtype=np.complex128)
    basis = enumerate_basis(z.size, cutoff, policy)
    occ = basis.occupations
    log_fact = np.cumsum(np.concatenate([[0.0], np.log(np.arange(1, cutoff + 1))]))
    # per-mode amplitude table: z^n / sqrt(n!)
    table = np.empty((z.size, cutoff + 1), dtype=np.complex128)
    for j in range(z.size):
        powers = z[j] ** np.arange(cutoff + 1)
        table[j] = powers * np.exp(-0.5 * log_fact)
    amp = np.prod(table[np.arange(z.size)[None, :], occ], axis=1)
    amp *= math.exp(-0.5 * float(np.sum(np.abs(z) ** 2)))
    tail = max(0.0, 1.0 - float(np.sum(np.abs(amp) ** 2)))
    if tail > policy.coherent_tail_tol:
        needed = coherent_required_cutoff(z, policy)
        raise TruncationTailError(
            f"coherent tail {tail:.3e} exceeds {policy.coherent_tail_tol:.1e} at "
            f"cutoff {cutoff}; cutoff {needed} would satisfy the bound",
            required_cutoff=needed,
        )
    return OccupationState(basis, amp, tail)


def two_photon_state():
    """Polarization-entangled photon pair, one photon in each beam.

    (|1,0,0,1> + |0,1,1,0>)/sqrt(2): beam one holds modes (0, 1), beam two
    modes (2, 3), and each beam carries exactly one photon.
    """
    basis = enumerate_basis(4, 2)
    amp = np.zeros(basis.size, dtype=np.complex128)
    amp[basis.index_of((1, 0, 0, 1))] = 1.0 / math.sqrt(2.0)
    amp[basis.index_of((0, 1, 1, 0))] = 1.0 / math.sqrt(2.0)
    return OccupationState(basis, amp)


def _reduced_keys(basis, keep, traced):
    """Row/column coordinates of every basis state in the (keep, traced) split."""
    keep_basis = enumerate_basis(len(keep), basis.cutoff)
    traced_basis = enumerate_basis(len(traced), basis.cutoff)
    occ = basis.occupations
    keep_idx = np.array(
        [keep_basis.index[tuple(row)] for row in occ[:, keep]], dtype=np.int64
    )
    traced_idx = np.array(
        [traced_basis.index[tuple(row)] for row in occ[:, traced]], dtype=np.int64
    )
    return keep_basis, traced_basis, keep_idx, traced_idx


def partial_trace(state, keep):
    """Trace out every mode not listed in ``keep``.

    Accepts a pure state or a density operator and returns a
    DensityOperator over the kept modes (ascending order, same cutoff).
    The trace is preserved exactly up to rounding.
    """
    basis = state.basis
    keep = sorted(set(int(m) for m in keep))
    if not keep:
        raise ValueError("keep set is empty")
    if keep[0] < 0 or keep[-1] >= basis.mode_count:
        raise ValueError(f"keep modes {keep} out of range")
    traced = [m for m in range(basis.mode_count) if m not in keep]
    if not traced:
        if isinstance(state, OccupationState):
            return state.to_density_operator()
        return state

    keep_basis, traced_basis, keep_idx, traced_idx = _reduced_keys(basis, keep, traced)

    if isinstance(state, OccupationState):
        # rho_red = A A^dagger where A[k, t] is the amplitude of (k, t)
        block = np.zeros((keep_basis.size, traced_basis.size), dtype=np.complex128)
        block[keep_idx, traced_idx] = state.amplitudes
        reduced = block @ block.conj().T
    else:
        reduced = np.zeros((keep_basis.size, keep_basis.size), dtype=np.complex128)
        for t in range(traced_basis.size):
            members = np.nonzero(traced_idx == t)[0]
            if members.size == 0:
                continue
            rows = keep_idx[members]
            reduced[np.ix_(rows, rows)] += state.matrix[np.ix_(members, members)]

    return DensityOperator(keep_basis, reduced, state.truncation_tail)
