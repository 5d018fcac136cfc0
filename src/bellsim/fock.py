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

from .policy import DEFAULT_POLICY, TruncationTailError

# largest hermiticity residual and trace deviation a density operator may carry
DENSITY_TOL = 1e-10


def _compositions(total, parts):
    """Yield occupation tuples with the given sum, lexicographically."""
    if parts < 2:  # zero parts make only the empty occupation, of sum 0
        if parts or not total:
            yield (total,) * parts
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

    def split(self, keep):
        """This basis as the modes in ``keep``, in that order, x the other modes.

        Returns (kept, rest, kept_index, rest_index): the bases of the two
        groups at this cutoff, and the index in each of every state's
        occupations of that group. With no other modes, ``rest`` holds the
        one empty occupation.
        """
        return _split(self.mode_count, self.cutoff, tuple(keep))


@lru_cache(maxsize=None)
def _build_basis(mode_count, cutoff):
    rows = []
    for total in range(cutoff + 1):
        rows.extend(_compositions(total, mode_count))
    occ = np.array(rows, dtype=np.int64)
    occ.setflags(write=False)
    index = {row: i for i, row in enumerate(rows)}
    return FockBasis(mode_count=mode_count, cutoff=cutoff, occupations=occ, index=index)


@lru_cache(maxsize=None)
def _split(mode_count, cutoff, keep):
    occ = _build_basis(mode_count, cutoff).occupations
    groups = keep, [m for m in range(mode_count) if m not in keep]
    bases = [_build_basis(len(modes), cutoff) for modes in groups]
    indices = [
        np.array([part.index[tuple(row)] for row in occ[:, modes].tolist()], dtype=np.intp)
        for part, modes in zip(bases, groups)
    ]
    for idx in indices:
        idx.setflags(write=False)  # cached, so shared by every caller
    return (*bases, *indices)


def enumerate_basis(mode_count, cutoff, policy=DEFAULT_POLICY):
    """Return the cached basis for ``mode_count`` modes at a total cutoff.

    Its C(cutoff + mode_count, mode_count) states are counted against the
    policy (see :meth:`NumericalPolicy.check_size`) before any is enumerated.
    """
    if mode_count < 1 or cutoff < 0:
        raise ValueError(f"invalid basis shape: {mode_count} modes, cutoff {cutoff}")
    policy.check_size(
        math.comb(cutoff + mode_count, mode_count),
        f"a Fock basis of {mode_count} modes at cutoff {cutoff}",
    )
    return _build_basis(mode_count, cutoff)


class _OnBasis:
    """A state over a truncated Fock basis, seen as its weighted components.

    ``components()`` returns (weights, vectors): the state is
    sum_r weights[r] |vectors[r]><vectors[r]|, each vector in the basis
    order. Every operation on a state of any of these types goes through it.
    """

    @property
    def mode_count(self):
        return self.basis.mode_count

    @property
    def cutoff(self):
        return self.basis.cutoff

    def to_density_operator(self):
        weights, vectors = self.components()
        matrix = (vectors.T * weights) @ vectors.conj()
        return DensityOperator(self.basis, matrix, self.truncation_tail)


@dataclass(frozen=True)
class OccupationState(_OnBasis):
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

    def components(self):
        return np.ones(1), self.amplitudes[None]


@dataclass(frozen=True)
class MixedState(_OnBasis):
    """Mixed state sum_r weights[r] |psi_r><psi_r| given by its pure components.

    ``amplitudes[r]`` is component r in the basis order; ``truncation_tail``
    is the weighted tail of the components.
    """

    basis: FockBasis
    weights: np.ndarray = field(repr=False)
    amplitudes: np.ndarray = field(repr=False)
    truncation_tail: float = 0.0

    def __post_init__(self):
        if self.amplitudes.shape != (self.weights.size, self.basis.size):
            raise ValueError(
                f"component amplitudes have shape {self.amplitudes.shape}, "
                f"expected ({self.weights.size}, {self.basis.size})"
            )

    def components(self):
        return self.weights, self.amplitudes


@dataclass(frozen=True)
class DensityOperator(_OnBasis):
    """Density operator over a truncated Fock basis.

    Hermiticity and unit trace are enforced at construction; positivity is
    not checked, since it would cost a full diagonalization. Its components
    are its eigen-decomposition (see :meth:`components`), so every
    operation takes it as it takes a mixed state.
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

    def components(self):
        """The signed eigen-decomposition rho = sum_r weights[r] |v_r><v_r|.

        Eigenvalues within rounding of zero (up to dim * eps * max|lambda|)
        are dropped, so a rank-r operator has r components.
        """
        weights, columns = np.linalg.eigh(self.matrix)
        rank = np.abs(weights) > weights.size * np.finfo(np.float64).eps * np.abs(weights).max()
        return weights[rank], columns[:, rank].T

    def to_density_operator(self):
        return self


@dataclass(frozen=True)
class BeamBlockState:
    """Pure four-mode state whose two beams carry equal photon numbers.

    ``blocks[N, k, l]`` is the real amplitude of |k, N - k, l, N - l>, for
    N = 0..cutoff // 2: these N1 = N2 beam blocks are all a total cutoff
    keeps of such a state, so no basis is enumerated. ``truncation_tail``
    is the squared weight past the cutoff, as for :class:`OccupationState`.
    """

    cutoff: int
    blocks: np.ndarray = field(repr=False)
    truncation_tail: float = 0.0

    def __post_init__(self):
        side = self.cutoff // 2 + 1
        if self.blocks.shape != (side, side, side) or self.blocks.dtype != np.float64:
            raise ValueError(
                f"beam blocks have shape {self.blocks.shape} and type "
                f"{self.blocks.dtype}, expected real ({side}, {side}, {side})"
            )


def number_state(occupation, cutoff, policy=DEFAULT_POLICY):
    """Basis state |n_1, ..., n_k> at the given total cutoff."""
    occupation = tuple(int(n) for n in occupation)
    basis = enumerate_basis(len(occupation), cutoff, policy)
    amp = np.zeros(basis.size, dtype=np.complex128)
    amp[basis.index_of(occupation)] = 1.0
    return OccupationState(basis, amp)


def _photon_number_tails(z):
    """(lam, tails) for coherent amplitudes z: lam = sum |z|^2 and tails[n] = P(N > n).

    The total photon number N is Poisson(lam). Its terms are formed in log
    space and scaled by the largest, so no lam underflows exp(-lam), and a
    tail is the sum of the terms past n, not 1 minus the rest. They run 20
    standard deviations past the mean, where the last tail is 0.
    """
    with np.errstate(over="ignore"):  # an overflow is +inf, refused below
        lam = float(np.sum(np.abs(np.asarray(z, dtype=np.complex128)) ** 2))
    if not lam <= 100_000:  # beyond any basis; also refuses lam = inf
        raise ValueError(f"mean photon number sum |z|^2 = {lam:.6g} is beyond any cutoff")
    if lam == 0.0:
        return lam, np.zeros(1)
    n = np.arange(math.ceil(lam + 20.0 * math.sqrt(lam) + 40.0) + 1)
    log_terms = n * math.log(lam) - lam - np.cumsum(np.log(np.maximum(n, 1)))
    terms = np.exp(log_terms - log_terms.max())
    from_n = np.cumsum(terms[::-1])[::-1]  # the sum of the terms k >= n
    return lam, np.append(from_n[1:], 0.0) / from_n[0]


def coherent_required_cutoff(z, policy=DEFAULT_POLICY):
    """Smallest total cutoff whose coherent-state tail meets coherent_tail_tol."""
    return int(np.argmax(_photon_number_tails(z)[1] <= policy.coherent_tail_tol))


def synthesize_coherent(z, cutoff, policy=DEFAULT_POLICY):
    """Multimode coherent state |z_1> ... |z_k> truncated at a total cutoff.

    Amplitudes are the exact analytic ones, exp(-|z|^2/2) prod z^n/sqrt(n!);
    no renormalization is applied. The discarded weight is the Poisson tail
    P(N > cutoff) of the total photon number; unless it meets the policy
    tail bound, a TruncationTailError names the smallest cutoff that does,
    before any amplitude is formed.
    """
    z = np.asarray(z, dtype=np.complex128)
    basis = enumerate_basis(z.size, cutoff, policy)
    lam, tails = _photon_number_tails(z)
    tail = float(tails[min(cutoff, tails.size - 1)])
    if tail > policy.coherent_tail_tol:
        needed = int(np.argmax(tails <= policy.coherent_tail_tol))
        raise TruncationTailError(
            f"coherent tail {tail:.3e} exceeds {policy.coherent_tail_tol:.1e} at "
            f"cutoff {cutoff}; cutoff {needed} would satisfy the bound",
            required_cutoff=needed,
        )
    log_fact = np.cumsum(np.concatenate([[0.0], np.log(np.arange(1, cutoff + 1))]))
    # per-mode amplitude table: z^n / sqrt(n!)
    table = z[:, None] ** np.arange(cutoff + 1) * np.exp(-0.5 * log_fact)
    amp = np.prod(table[np.arange(z.size)[None, :], basis.occupations], axis=1)
    amp *= math.exp(-0.5 * lam)
    return OccupationState(basis, amp, tail)


def synthesize_coherent_mixture(weights, components, cutoff, policy=DEFAULT_POLICY):
    """Positive mixture of coherent states components[r] truncated at a total cutoff.

    Each component is synthesized as by :func:`synthesize_coherent`; the
    mixture's tail is the weighted tail of its components.
    """
    weights = np.asarray(weights, dtype=np.float64)
    states = [synthesize_coherent(z, cutoff, policy) for z in components]
    tail = float(np.sum(weights * [s.truncation_tail for s in states]))
    amplitudes = np.array([s.amplitudes for s in states])
    return MixedState(states[0].basis, weights, amplitudes, tail)


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


def partial_trace(state, keep):
    """Trace out every mode not listed in ``keep``.

    Takes any state on a basis by its weighted components and returns the
    DensityOperator sum_r w_r B_r B_r^dagger over the kept modes (ascending
    order, same cutoff), where B_r[k, t] is the amplitude of component r
    with kept occupation k and traced occupation t (see
    :meth:`FockBasis.split`). The trace is preserved exactly up to rounding.
    """
    basis = state.basis
    keep = sorted(set(int(m) for m in keep))
    if not keep:
        raise ValueError("keep set is empty")
    if keep[0] < 0 or keep[-1] >= basis.mode_count:
        raise ValueError(f"keep modes {keep} out of range")
    kept, traced, kept_idx, traced_idx = basis.split(keep)
    weights, vectors = state.components()
    block = np.zeros((kept.size, weights.size, traced.size), dtype=np.complex128)
    block[kept_idx, :, traced_idx] = vectors.T
    weighted = block * weights[:, None]
    reduced = weighted.reshape(kept.size, -1) @ block.reshape(kept.size, -1).conj().T
    return DensityOperator(kept, reduced, state.truncation_tail)
