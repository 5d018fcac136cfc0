"""Passive linear transformations on Fock states, and the squeezed-vacuum series.

A passive n x n unitary U acts on coherent amplitudes as z -> U z. On the
truncated Fock space it is realized exactly, shell by shell, as a product
of elementary two-mode mixers and single-mode phase shifts obtained from a
Givens-style triangular decomposition. Modes are indexed from 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .fock import DensityOperator, OccupationState, enumerate_basis

# largest residual a unitarity (U^dag U = I) or symplectic check accepts
UNITARITY_TOL = 1e-10


@dataclass(frozen=True)
class MixerOp:
    """Two-mode mixer: an SU(2) matrix acting on a mode pair."""

    modes: tuple
    matrix: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class PhaseOp:
    """Single-mode phase shift z_m -> exp(i phase) z_m."""

    mode: int
    phase: float


def check_unitary(matrix):
    matrix = np.asarray(matrix, dtype=np.complex128)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
    n = matrix.shape[0]
    residual = np.max(np.abs(matrix.conj().T @ matrix - np.eye(n)))
    if residual > UNITARITY_TOL:
        raise ValueError(f"matrix is not unitary (residual {residual:.3e})")
    return matrix


def decompose_passive(matrix):
    """Factor a unitary into mixers and phases, in application order.

    Returns ops such that recompose(ops, n) reproduces the input. The
    identity decomposes to an empty list.
    """
    work = check_unitary(matrix).copy()
    n = work.shape[0]
    rotations = []
    for c in range(n - 1):
        for r in range(n - 1, c, -1):
            b = work[r, c]
            if abs(b) < 1e-14:
                continue
            a = work[c, c]
            rho = math.hypot(abs(a), abs(b))
            g = np.array([[a.conj(), b.conj()], [-b, a]], dtype=np.complex128) / rho
            work[[c, r], :] = g @ work[[c, r], :]
            rotations.append((c, r, g))
    ops = []
    for j in range(n):
        lam = float(np.angle(work[j, j]))
        if abs(lam) > 1e-14:
            ops.append(PhaseOp(mode=j, phase=lam))
    for c, r, g in reversed(rotations):
        ops.append(MixerOp(modes=(c, r), matrix=g.conj().T))
    return ops


def recompose(ops, mode_count):
    """Multiply elementary ops (in application order) back into a matrix."""
    out = np.eye(mode_count, dtype=np.complex128)
    for op in ops:
        if isinstance(op, PhaseOp):
            embedded = np.eye(mode_count, dtype=np.complex128)
            embedded[op.mode, op.mode] = np.exp(1j * op.phase)
        else:
            i, j = op.modes
            embedded = np.eye(mode_count, dtype=np.complex128)
            embedded[np.ix_([i, j], [i, j])] = op.matrix
        out = embedded @ out
    return out


def polarizer_rotation(theta, modes=(0, 1), mode_count=None):
    """Rotation mixing a mode pair: z_i' = cos(theta) z_i - sin(theta) z_j.

    This is the convention under which a polarizer at angle theta transmits
    the rotated first mode of the pair.
    """
    if mode_count is None:
        mode_count = max(modes) + 1
    i, j = modes
    out = np.eye(mode_count, dtype=np.complex128)
    c, s = math.cos(theta), math.sin(theta)
    out[i, i] = c
    out[i, j] = -s
    out[j, i] = s
    out[j, j] = c
    return out


def entangling_unitary():
    """Real orthogonal 4-mode mixer that entangles pairwise-squeezed inputs.

    Built from the 2x2 block Y = [[1, 1], [-1, 1]] as X = [[Y, Y], [-Y, Y]]
    scaled by 1/2; it acts identically on position and momentum quadratures.
    """
    y = np.array([[1.0, 1.0], [-1.0, 1.0]])
    x = np.block([[y, y], [-y, y]])
    return (0.5 * x).astype(np.complex128)


def beam_wiring():
    """Mode relabeling that routes the squeeze pairs onto the two beams.

    The diagonal squeeze scalings put equal-and-opposite exponents on the
    outer mode pair (0, 3) and on the inner pair (1, 2). The detectors,
    however, split the field as beam one = modes (0, 1) and beam two =
    modes (2, 3). Exchanging modes 1 and 3 sends the outer pair to beam
    one and the inner pair to beam two, so each beam carries one
    balanced pair and the entangling mixer correlates the beams instead
    of the ports of a single beam. Without this relabeling the mixed
    pairs sit inside one beam each and no polarizer setting can show a
    violation.
    """
    wiring = np.zeros((4, 4))
    for target, source in enumerate((0, 3, 2, 1)):
        wiring[target, source] = 1.0
    return wiring.astype(np.complex128)


@lru_cache(maxsize=None)
def _pair_layout(mode_count, cutoff, i, j):
    """Index arrays grouping basis states by everything but a mode pair.

    Returns a list indexed by the pair total t; entry t is an integer array
    of shape (groups, t + 1) whose [g, m] element is the basis index of the
    group member with m photons in mode i (and t - m in mode j).
    """
    basis = enumerate_basis(mode_count, cutoff)
    occ = basis.occupations
    m = occ[:, i]
    t = occ[:, i] + occ[:, j]
    rest = np.delete(occ, (i, j), axis=1)
    keys = [m] + [rest[:, k] for k in range(rest.shape[1] - 1, -1, -1)] + [t]
    order = np.lexsort(keys)
    layout = []
    pos = 0
    sorted_t = t[order]
    for total in range(cutoff + 1):
        count = int(np.sum(sorted_t == total))
        groups = count // (total + 1)
        block = order[pos : pos + count].reshape(groups, total + 1)
        layout.append(block)
        pos += count
    return layout


def _mixer_block(u2, total):
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


def _apply_mixer(amplitudes, basis, op):
    i, j = op.modes
    layout = _pair_layout(basis.mode_count, basis.cutoff, i, j)
    out = np.empty_like(amplitudes)
    for total, block_idx in enumerate(layout):
        if block_idx.size == 0:
            continue
        b = _mixer_block(op.matrix, total)
        gathered = amplitudes[block_idx]
        out[block_idx] = np.einsum("nm,gm...->gn...", b, gathered)
    return out


def _apply_phase(amplitudes, basis, op):
    factor = np.exp(1j * op.phase * basis.occupations[:, op.mode])
    if amplitudes.ndim == 2:
        factor = factor[:, None]
    return amplitudes * factor


def _apply_ops(amplitudes, basis, ops):
    for op in ops:
        if isinstance(op, PhaseOp):
            amplitudes = _apply_phase(amplitudes, basis, op)
        else:
            amplitudes = _apply_mixer(amplitudes, basis, op)
    return amplitudes


def apply_passive(state, matrix):
    """Apply a passive unitary to a pure state or density operator.

    Photon number is conserved, so the action is exact within every
    total-photon shell and the truncation tail is unchanged. Coherent
    states map as z -> matrix z.
    """
    matrix = check_unitary(matrix)
    if matrix.shape[0] != state.mode_count:
        raise ValueError(
            f"matrix acts on {matrix.shape[0]} modes, state has {state.mode_count}"
        )
    ops = decompose_passive(matrix)
    if isinstance(state, OccupationState):
        amp = _apply_ops(state.amplitudes, state.basis, ops)
        return OccupationState(state.basis, amp, state.truncation_tail)
    half = _apply_ops(state.matrix, state.basis, ops)
    full = _apply_ops(half.conj().T, state.basis, ops).conj().T
    # rounding can leave a ~1e-16 hermiticity residual; symmetrize it away
    full = 0.5 * (full + full.conj().T)
    return DensityOperator(state.basis, full, state.truncation_tail)


def squeezed_vacuum_amplitudes(u, cutoff):
    """Number-basis amplitudes of a single-mode squeezed vacuum.

    c_{2m} = (1/sqrt(cosh u)) (-tanh u)^m sqrt((2m)!) / (2^m m!), zero on
    odd photon numbers; truncated at the cutoff.
    """
    amp = np.zeros(cutoff + 1, dtype=np.complex128)
    c = 1.0 / math.sqrt(math.cosh(u))
    amp[0] = c
    t = math.tanh(u)
    for m in range(1, cutoff // 2 + 1):
        c *= -t * math.sqrt((2 * m - 1) / (2 * m))
        amp[2 * m] = c
    return amp
