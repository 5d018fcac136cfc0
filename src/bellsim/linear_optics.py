"""Passive linear transformations on Fock states.

A passive n x n unitary U acts on coherent amplitudes as z -> U z. On the
truncated Fock space it is realized exactly, shell by shell, as a product
of elementary two-mode mixers and single-mode phase shifts obtained from a
Givens-style triangular decomposition. Modes are indexed from 0.
"""

from __future__ import annotations

import dataclasses
import math
from functools import lru_cache

import numpy as np

from .fock import DensityOperator, MixedState

# largest residual a unitarity (U^dag U = I) or symplectic check accepts
UNITARITY_TOL = 1e-10


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
    """Factor a unitary into phases and two-mode mixers.

    Returns (phases, mixers): the unitary is the phase shift
    z_m -> exp(i phases[m]) z_m followed by the mixers, a list of
    ((i, j), u) pairs applying the 2x2 unitary u to modes i and j, in
    order. A diagonal unitary gives no mixers.
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
    phases = np.angle(np.diagonal(work))
    mixers = [((c, r), g.conj().T) for c, r, g in reversed(rotations)]
    return phases, mixers


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
def _shell_steps(top, columns):
    """Constants of one :func:`su2_shells` step: (pick, scale, rows, cols).

    Term s (a^dag, then b^dag) of column m in shell N is u[s, pick[m]] *
    scale[N, s, k, m] times entry [rows[s, k], cols[m]] of shell N - 1.
    Row -1 is the zero padding row of every shell below top.
    """
    side = top + 1
    n = np.arange(side)
    m = n[:columns]
    root = np.sqrt(n)
    column = np.zeros((side, m.size))  # 1/sqrt(N) for column 0, 1/sqrt(m) after
    column[1:, 0] = 1.0 / root[1:]
    column[:, 1:] = 1.0 / root[1 : m.size]
    up = np.broadcast_to(root, (side, side))  # sqrt(k): a^dag lifts row k - 1 to k
    down = np.sqrt(np.maximum(n[:, None] - n, 0))  # sqrt(N - k): b^dag keeps row k
    scale = np.stack([up, down], axis=1)[..., None] * column[:, None, None, :]
    pick = (m == 0).astype(np.intp)  # u01, u11 for column 0; u00, u10 after
    rows = np.stack([n - 1, n])[:, :, None]
    cols = np.maximum(m - 1, 0)
    return pick, scale, rows, cols


def su2_shells(u, top, columns=None):
    """Fock matrices of a two-mode passive element, shell by shell.

    ``u`` is a 2x2 unitary, sending a^dag to u00 a^dag + u10 b^dag and
    b^dag to u01 a^dag + u11 b^dag. Returns D[N, m', m] for N = 0..top, the
    amplitude to go from |m, N - m> to |m', N - m'>, zero for m or m'
    above N; a stack (n, 2, 2) gives D[N, i, m', m]. Each shell adds one
    creation operator to the one below: column 0 of shell N is column 0
    of shell N - 1 acted on by (u01 a^dag + u11 b^dag)/sqrt(N), and column
    m >= 1 is column m - 1 acted on by (u00 a^dag + u10 b^dag)/sqrt(m). So
    the first ``columns`` columns (all by default) need no others, and
    only they are built. A real ``u`` gives real shells.
    """
    u = np.asarray(u)
    pick, scale, rows, cols = _shell_steps(top, columns)
    factors = u.reshape(-1, 2, 2)[None, :, :, None, pick] * scale[:, None]  # [N, i, s, k, m]
    shells = np.zeros(factors.shape[:2] + factors.shape[3:], dtype=factors.dtype)
    shells[0, :, 0, 0] = 1.0
    for big in range(1, top + 1):
        terms = factors[big] * shells[big - 1][:, rows, cols]
        np.add(terms[:, 0], terms[:, 1], out=shells[big])
    return shells if u.ndim == 3 else shells[:, 0]


def apply_passive(state, matrix):
    """Apply a passive unitary to any state on a basis.

    The state's weighted components move and keep their weights. The
    phases multiply every amplitude; each mixer (i, j) then lays every
    vector out as a (pair x rest) grid by the basis split (see
    :meth:`fock.FockBasis.split`) and multiplies shell N of the pair by its
    :func:`su2_shells` block. Photon number is conserved, so the action is
    exact within every total-photon shell and the truncation tail is
    unchanged. A pure or mixed state comes back with moved amplitudes, and
    a density operator as the density operator of its moved components.
    """
    phases, mixers = decompose_passive(matrix)  # checks that the matrix is unitary
    if phases.size != state.mode_count:
        raise ValueError(f"matrix acts on {phases.size} modes, state has {state.mode_count}")
    basis = state.basis
    weights, vectors = state.components()
    vectors = vectors * np.exp(1j * (basis.occupations @ phases))
    for (i, j), u in mixers:
        pair, rest, pair_idx, rest_idx = basis.split((i, j))
        grid = np.zeros((pair.size, weights.size, rest.size), dtype=np.complex128)
        grid[pair_idx, :, rest_idx] = vectors.T
        rows = grid.reshape(pair.size, -1)
        for total, shell in enumerate(su2_shells(u, basis.cutoff)):
            start = total * (total + 1) // 2  # |m, total - m> is pair state start + m
            block = rows[start : start + total + 1]
            block[...] = shell[: total + 1, : total + 1] @ block
        vectors = grid[pair_idx, :, rest_idx].T
    if isinstance(state, DensityOperator):
        return MixedState(basis, weights, vectors, state.truncation_tail).to_density_operator()
    return dataclasses.replace(state, amplitudes=vectors.reshape(state.amplitudes.shape))
