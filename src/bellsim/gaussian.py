"""Covariance-matrix engine for centered Gaussian states.

Quadratures are ordered xi = (q_1..q_n, p_1..p_n). A state is stored as
the matrix G of its Wigner exponent, W ~ exp(-xi^T G xi); the variance
matrix is V = G^{-1}/2, the vacuum has V = I/2, and the uncertainty
principle reads G^{-1} + i beta >= 0 with beta the symplectic form. All
detection rates come from one fact: the probability of finding vacuum in a
mode subset is 1/sqrt(det(V_s + I/2)) for the reduced variance block V_s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import detection
from .fock import BeamBlockState, OccupationState, enumerate_basis
from .linear_optics import UNITARITY_TOL, beam_wiring, check_unitary, entangling_unitary
from .policy import DEFAULT_POLICY

# how far an eigenvalue of V must sit below the vacuum's 1/2 to count as squeezed
SQUEEZED_EIG_MARGIN = 1e-12


def symplectic_form(mode_count):
    """The matrix beta with [q, p] blocks: [[0, I], [-I, 0]]."""
    eye = np.eye(mode_count)
    zero = np.zeros((mode_count, mode_count))
    return np.block([[zero, eye], [-eye, zero]])


def _checked_exponents(g):
    """Validate a stack (..., 2n, 2n) of Wigner exponents; returns it symmetrized.

    Every matrix must be symmetric, positive definite and obey the
    uncertainty principle G^{-1} + i beta >= 0; the first failure raises
    ValueError.
    """
    asym = float(np.max(np.abs(g - np.swapaxes(g, -1, -2))))
    if asym > 1e-10:
        raise ValueError(f"G is not symmetric (residual {asym:.3e})")
    g = 0.5 * (g + np.swapaxes(g, -1, -2))
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        raise ValueError("G is not positive definite") from None
    uncertainty = np.linalg.inv(g) + 1j * symplectic_form(g.shape[-1] // 2)
    low = float(np.min(np.linalg.eigvalsh(uncertainty)[..., 0]))
    if low < -1e-9:
        raise ValueError(f"G violates the uncertainty principle (eigenvalue {low:.3e})")
    return g


@dataclass(frozen=True)
class GaussianState:
    """Centered Gaussian state, stored through its Wigner exponent matrix."""

    g: np.ndarray = field(repr=False)

    def __post_init__(self):
        g = np.asarray(self.g, dtype=np.float64)
        if g.ndim != 2 or g.shape[0] != g.shape[1] or g.shape[0] % 2:
            raise ValueError(f"G must be 2n x 2n, got shape {g.shape}")
        object.__setattr__(self, "g", _checked_exponents(g))

    @property
    def mode_count(self):
        return self.g.shape[0] // 2


def variance_matrix(state):
    """Quadrature covariance V = G^{-1}/2; the vacuum gives I/2."""
    return np.linalg.inv(state.g) / 2.0


def is_squeezed(state):
    """Whether any quadrature direction beats the vacuum variance.

    Returns (squeezed, min_eigenvalue): squeezed when the smallest
    eigenvalue of V sits below 1/2 by more than SQUEEZED_EIG_MARGIN.
    """
    low = float(np.linalg.eigvalsh(variance_matrix(state))[0])
    return low < 0.5 - SQUEEZED_EIG_MARGIN, low


@dataclass(frozen=True)
class SqueezedThermalSpec:
    """Two-parameter squeezed thermal family on four modes.

    Modes 0 and 3 are squeezed by equal and opposite amounts u, modes 1
    and 2 by equal and opposite amounts v, the pairs are mixed by the
    entangling unitary, and kappa in (0, 1] sets the thermal occupation
    (kappa = 1 is the pure squeezed vacuum).
    """

    u: float
    v: float
    kappa: float

    def __post_init__(self):
        for name in ("u", "v", "kappa"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not 0.0 < self.kappa <= 1.0:
            raise ValueError(f"kappa must be in (0, 1], got {self.kappa}")
        if max(abs(self.u), abs(self.v)) > 5.0:
            raise ValueError("|u| and |v| must not exceed 5")


def _squeeze_q_exponents(u, v):
    # q-quadrature log-scalings of the four modes in the S matrix
    return np.array([-u, v, -v, u])


def _squeezed_thermal_exponents(specs):
    """The G matrices of a sequence of specs, as one (P, 8, 8) stack.

    The core sandwich is G = U^T S^T (kappa I) S U with S the diagonal
    squeeze scalings and U the embedded entangling mixer; the result is
    then relabeled by the beam wiring so that the u-squeezed pair feeds
    beam one and the v-squeezed pair feeds beam two.
    """
    qe = np.array([_squeeze_q_exponents(spec.u, spec.v) for spec in specs]).reshape(-1, 4)
    kappa = np.array([spec.kappa for spec in specs], dtype=np.float64)
    s_diag = np.exp(np.concatenate([qe, -qe], axis=1))
    u8 = embed_passive(entangling_unitary())
    g = (kappa[:, None, None] * u8.T) * (s_diag**2)[:, None, :] @ u8
    w8 = embed_passive(beam_wiring())
    return w8 @ g @ w8.T


def build_squeezed_thermal(spec):
    """The Gaussian state of one member of the squeezed thermal family."""
    return GaussianState(_squeezed_thermal_exponents([spec])[0])


def embed_passive(matrix):
    """Symplectic-orthogonal embedding of a passive n x n unitary.

    [[Re U, -Im U], [Im U, Re U]] in (q..., p...) ordering; this is the
    quadrature action of the transformation z -> U z.
    """
    matrix = check_unitary(matrix)
    re, im = matrix.real, matrix.imag
    return np.block([[re, -im], [im, re]])


def apply_symplectic(state, matrix):
    """Transform the state along xi -> M xi, so V -> M V M^T."""
    m = np.asarray(matrix, dtype=np.float64)
    n = state.mode_count
    if m.shape != (2 * n, 2 * n):
        raise ValueError(f"expected a {2 * n} x {2 * n} matrix, got {m.shape}")
    beta = symplectic_form(n)
    residual = np.max(np.abs(m @ beta @ m.T - beta))
    if residual > UNITARITY_TOL:
        raise ValueError(f"matrix is not symplectic (residual {residual:.3e})")
    m_inv = -beta @ m.T @ beta  # symplectic inverse, exact up to rounding
    g = m_inv.T @ state.g @ m_inv
    return GaussianState(0.5 * (g + g.T))


def vacuum_probability(state, modes):
    """Probability of finding vacuum in every listed mode."""
    rows = list(modes) + [m + state.mode_count for m in modes]
    gram = variance_matrix(state) + 0.5 * np.eye(2 * state.mode_count)
    return float(_vacuum_marginals(gram, np.array([rows]))[0])


def _transmitted_rows(thetas, beam):
    """Quadrature rows (n, 2, 8) of the mode a polarizer transmits at each angle.

    The transmitted mode is z' = cos(theta) z_i - sin(theta) z_j, so its q
    and p quadratures are that combination of the beam's q's and p's.
    """
    thetas = np.asarray(thetas, dtype=np.float64).reshape(-1)
    i, j = beam
    c, s = np.cos(thetas), np.sin(thetas)
    rows = np.zeros((thetas.size, 2, 8))
    rows[:, 0, i], rows[:, 0, j] = c, -s
    rows[:, 1, i + 4], rows[:, 1, j + 4] = c, -s
    return rows


def _vacuum_marginals(gram, index_sets):
    """1/sqrt(det) of the principal blocks gram[..., s, s] for each row of index_sets."""
    blocks = gram[..., index_sets[:, :, None], index_sets[:, None, :]]
    det = np.linalg.det(blocks)
    if not np.all(det > 0.0):
        raise ValueError(
            f"vacuum-overlap determinant is {np.min(det)}; state is invalid"
        )
    return 1.0 / np.sqrt(det)


def rate_tables(v, thetas1, thetas2):
    """Rate tables over the grid thetas1 x thetas2 from variance matrices.

    ``v`` is one 8 x 8 variance matrix or a stack (..., 8, 8) of them.
    Returns (p_tt[..., i, j], p_t_any[..., i], p_any_t[..., j],
    p_any_any[...]), the shape of the Fock engine's rate tables.

    Every rate is an inclusion-exclusion over vacuum marginals
    1/sqrt(det(V_s + I/2)), where V_s is the covariance of the watched
    quadratures: the transmitted mode (rows R(theta)) behind a polarizer,
    the whole beam without one. All of them are principal blocks of one
    Gram matrix rows . V . rows^T + I/2, so each block size (2, 4, 6 and
    8) takes a single stacked determinant.
    """
    v = np.asarray(v, dtype=np.float64)
    r1 = _transmitted_rows(thetas1, detection.BEAM_ONE)
    r2 = _transmitted_rows(thetas2, detection.BEAM_TWO)
    n1, n2 = len(r1), len(r2)
    # Gram indices: the n1 transmitted (q, p) pairs of beam one, the n2 of
    # beam two, then the eight quadratures themselves
    rows = np.concatenate([r1.reshape(-1, 8), r2.reshape(-1, 8), np.eye(8)])
    gram = rows @ v @ rows.T + 0.5 * np.eye(len(rows))

    def joined(left, right):  # every index row of left followed by every one of right
        return np.concatenate(
            [np.repeat(left, len(right), axis=0), np.tile(right, (len(left), 1))], axis=1
        )

    t1 = np.arange(2 * n1).reshape(n1, 2)
    t2 = 2 * n1 + np.arange(2 * n2).reshape(n2, 2)
    every = 2 * (n1 + n2) + np.arange(8)
    beam1, beam2 = every[[0, 1, 4, 5]][None, :], every[[2, 3, 6, 7]][None, :]
    q_one = _vacuum_marginals(gram, np.concatenate([t1, t2]))
    q_two = _vacuum_marginals(gram, np.concatenate([joined(t1, t2), beam1, beam2]))
    q_three = _vacuum_marginals(
        gram, np.concatenate([joined(t1, beam2), joined(beam1, t2)])
    )
    q_all = _vacuum_marginals(gram, every[None, :])[..., 0]

    q1, q3 = q_one[..., :n1], q_one[..., n1:]
    q13 = q_two[..., : n1 * n2].reshape(*q_two.shape[:-1], n1, n2)
    q12, q34 = q_two[..., -2], q_two[..., -1]
    q134, q123 = q_three[..., :n1], q_three[..., n1:]

    return detection.rates_from_marginals(q1, q3, q13, q134, q123, q12, q34, q_all)


def _coupled_beam_blocks(coupling, top):
    """Blocks F[N, k, l] of exp(a^T C b)|0>, for N = 0..top.

    a = (a_0^dag, a_1^dag) and b = (a_2^dag, a_3^dag) create photons in
    beam one and beam two, and F[N, k, l] is the amplitude of
    |k, N - k, l, N - l>. The term (a^T C b)^N / N! of the exponential
    holds the N-photon block, and expanding it gives

        F[N, k, l] = sqrt(k! (N-k)! l! (N-l)!) sum_p C00^p C01^(k-p)
                     C10^(l-p) C11^(N-k-l+p) / (p! (k-p)! (l-p)! (N-k-l+p)!).

    The same numbers come from multiplying block N - 1 by a^T C b / N,
    one creation operator per beam: a recurrence over the four entries of
    C that forms no factorial, so it cannot overflow at large N.
    """
    side = top + 1
    blocks = np.zeros((side, side, side))
    blocks[0, 0, 0] = 1.0
    root = np.sqrt(np.arange(side))
    for n in range(1, side):
        prev = blocks[n - 1, :n, :n]
        up = root[1 : n + 1]  # sqrt(k) for the k = 1..n photons after a creation
        down = root[n:0:-1]  # sqrt(n - k) for k = 0..n - 1
        block = blocks[n, : n + 1, : n + 1]
        block[1:, 1:] += coupling[0, 0] * up[:, None] * prev * up[None, :]
        block[1:, :-1] += coupling[0, 1] * up[:, None] * prev * down[None, :]
        block[:-1, 1:] += coupling[1, 0] * down[:, None] * prev * up[None, :]
        block[:-1, :-1] += coupling[1, 1] * down[:, None] * prev * down[None, :]
        block /= n
    return blocks


def fock_replica(spec, cutoff, policy=DEFAULT_POLICY):
    """Fock-engine replica of a pure squeezed thermal state, in closed form.

    Only kappa = 1 has a pure-state replica: the vacuum squeezed mode by
    mode by the S scalings w, then sent through the beam-wired entangling
    mixer M. In creation operators that is

        prod_m cosh(w_m)^(-1/2) exp(1/2 a^T A a)|0>,  A = M diag(-tanh w) M^T.

    A has no entries inside a beam, so the exponent is a^T C b with the
    beam coupling C = A[:2, 2:] = [[t_u - t_v, t_u + t_v], [t_u + t_v,
    t_u - t_v]] / 2, t = tanh; every amplitude sits on a state
    |k, N - k, l, N - l> with 2N <= cutoff (see :func:`_coupled_beam_blocks`).
    Returns those blocks as a BeamBlockState, which carries the weight past
    the cutoff as its tail. What the policy counts is those (cutoff // 2 + 1)^3
    block entries: no basis is built.
    """
    if spec.kappa != 1.0:
        raise ValueError("only pure (kappa = 1) states have a Fock replica")
    if cutoff < 0:
        raise ValueError(f"invalid cutoff {cutoff}")
    policy.check_size((cutoff // 2 + 1) ** 3, f"the Fock replica at cutoff {cutoff}")
    w = _squeeze_q_exponents(spec.u, spec.v)
    for exponent in w.tolist():
        if exponent != 0.0 and abs(exponent) > policy.squeeze_limit:
            raise ValueError(
                f"|u| = {abs(exponent)} exceeds the limit {policy.squeeze_limit}"
            )
    mixer = (beam_wiring() @ entangling_unitary().T).real
    coupling = (mixer * -np.tanh(w)) @ mixer.T
    blocks = _coupled_beam_blocks(coupling[:2, 2:], cutoff // 2)
    blocks *= np.prod(np.cosh(w)) ** -0.5
    kept = float(np.sum(blocks**2))
    return BeamBlockState(cutoff, blocks, max(0.0, 1.0 - kept))


def fock_equivalent_state(spec, cutoff, policy=DEFAULT_POLICY):
    """The replica of :func:`fock_replica` as an OccupationState on the full basis."""
    replica = fock_replica(spec, cutoff, policy)
    basis = enumerate_basis(4, cutoff, policy)
    occ = basis.occupations
    beam_one, beam_two = occ[:, 0] + occ[:, 1], occ[:, 2] + occ[:, 3]
    on_block = beam_one == beam_two
    amplitudes = np.zeros(basis.size, dtype=np.complex128)
    amplitudes[on_block] = replica.blocks[beam_one[on_block], occ[on_block, 0], occ[on_block, 2]]
    return OccupationState(basis, amplitudes, replica.truncation_tail)


def scenario_v(scenario, u):
    if scenario == "equal":
        return u
    if scenario == "zero":
        return 0.0
    if scenario == "opposite":
        return -u
    raise ValueError(f"unknown sweep scenario {scenario!r}")


def sweep_rows(u_values, scenarios, kappas, angles, policy=DEFAULT_POLICY):
    """Evaluate the CH functional over a (kappa, scenario, u) grid.

    Returns one dict per point, in deterministic (kappa, scenario, u)
    order, with the CSV fields u, v, kappa, f, neg_p_both, violated. Every
    point is validated as a spec and as a Gaussian state, and the whole
    grid goes through one batched rate-table evaluation.
    """
    if not isinstance(angles, detection.AngleSettings):
        angles = detection.AngleSettings(*angles)
    specs = [
        SqueezedThermalSpec(u=u, v=scenario_v(scenario, u), kappa=kappa)
        for kappa in kappas
        for scenario in scenarios
        for u in u_values
    ]
    if not specs:
        return []
    g = _checked_exponents(_squeezed_thermal_exponents(specs))
    tables = rate_tables(np.linalg.inv(g) / 2.0, *angles.beam_grids())
    stack = detection.ch_verdicts(tables, 0.0, policy)
    rows = []
    for spec, f, p_both in zip(specs, stack.f.tolist(), stack.rates["p_any_any"].tolist()):
        neg_p_both = -p_both
        # the flag is the raw bound test on the emitted values, so a CSV
        # row is self-consistent: violated = 0 exactly when
        # neg_p_both <= f <= 0 holds for the numbers in the row
        rows.append(
            {
                "u": spec.u,
                "v": spec.v,
                "kappa": spec.kappa,
                "f": f,
                "neg_p_both": neg_p_both,
                "violated": 0 if neg_p_both <= f <= 0.0 else 1,
            }
        )
    return rows
