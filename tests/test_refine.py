"""The compass-scan polish of ``scan --refine`` against a Nelder-Mead reference."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

import states
from bellsim import detection, fock, gaussian

TWO_PHOTON_MAX_F = (math.sqrt(2.0) - 1.0) / 2.0
RIDGE = (0.9188701607920218, 0.990744124281403, 0.883282765641269)


def nelder_mead_reference(report, start, grid_f):
    """The earlier polish: scipy's Nelder-Mead simplex on the per-point CH report.

    Returns the refined f, or grid_f when the simplex does not beat it.
    """
    result = optimize.minimize(
        lambda x: -report(detection.AngleSettings(*x)).f,
        x0=np.asarray(start, dtype=float),
        method="Nelder-Mead",
        options={"xatol": 1e-7, "fatol": 1e-12, "maxiter": 600},
    )
    return max(-float(result.fun), grid_f)


def random_pure_state(rng, cutoff):
    basis = fock.enumerate_basis(4, cutoff)
    amps = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
    return states.normalized(fock.OccupationState(basis, amps))


def fock_case(seed, cutoff):
    return random_pure_state(np.random.default_rng(seed), cutoff)


def density_case(seed):
    rng = np.random.default_rng(seed)
    pure = [random_pure_state(rng, 2) for _ in range(3)]
    weights = rng.dirichlet(np.ones(3))
    matrix = sum(w * s.to_density_operator().matrix for w, s in zip(weights, pure))
    return fock.DensityOperator(pure[0].basis, matrix)


def gaussian_case(u, v, kappa):
    return gaussian.build_squeezed_thermal(gaussian.SqueezedThermalSpec(u, v, kappa))


def mixture_case(seed):
    rng = np.random.default_rng(seed)
    return states.random_mixture(rng).transformed(states.haar_unitary(rng))


# name -> (state builder, grid density)
CASES = {
    "fock_c3_seed1": (lambda: fock_case(1, 3), 8),
    "fock_c4_seed2": (lambda: fock_case(2, 4), 8),
    "fock_c4_seed3": (lambda: fock_case(3, 4), 5),
    # a polish that compares every combination of the 12 step angles, not
    # just each angle's own neighbours, jumps out of the grid maximum's
    # basin on these two and ends 3e-3 and 7e-3 below the simplex
    "fock_c4_seed1053": (lambda: fock_case(1053, 4), 5),
    "fock_c4_seed51116": (lambda: fock_case(51116, 4), 5),
    "density_c2_seed4": (lambda: density_case(4), 8),
    "squeezed_0.62_0.62_1.0": (lambda: gaussian_case(0.62, 0.62, 1.0), 8),
    "squeezed_0.4_0.35_0.9": (lambda: gaussian_case(0.4, 0.35, 0.9), 8),
    "squeezed_0.8_-0.3_0.8": (lambda: gaussian_case(0.8, -0.3, 0.8), 5),
    # its grid-5 maximum starts the polish below a curved ridge that no
    # compass direction follows: without pattern moves the scan creeps
    # along it until the step cap, with a gradient still near 2e-4
    "squeezed_ridge": (lambda: gaussian_case(*RIDGE), 5),
    "squeezed_ridge_grid8": (lambda: gaussian_case(*RIDGE), 8),
    "mixture_seed5": (lambda: mixture_case(5), 8),
    "mixture_seed6": (lambda: mixture_case(6), 5),
}

# The polish is local. On the ridge state, f is nearly flat along opposite
# rotations of the two beams' polarizers, and two local maxima, 2.6e-5
# apart, lie half a period apart along that valley. From the grid-8
# maximum the compass scan climbs to the lower one (f = 0.0489727), the
# simplex to the higher one (f = 0.0489992); polishing the next best grid
# points instead, or restarting at the end point, reaches the lower one too.
KNOWN_SHORTFALLS = {"squeezed_ridge_grid8"}


def gradient(report, angles, eps=1e-5):
    x = np.asarray(dataclasses.astuple(angles))
    return np.array([
        (report(detection.AngleSettings(*(x + eps * e))).f
         - report(detection.AngleSettings(*(x - eps * e))).f) / (2 * eps)
        for e in np.eye(4)
    ])


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=pytest.mark.xfail(
        strict=True, reason="the polish ends at a lower local maximum than the simplex"))
    if name in KNOWN_SHORTFALLS else name
    for name in sorted(CASES)
])
def test_compass_polish_matches_or_beats_nelder_mead(name):
    build, grid_density = CASES[name]
    state = build()
    report = lambda angles: detection.ch_functional(state, angles)
    grid = detection.angle_scan(state, grid_density=grid_density)
    refined = detection.angle_scan(state, grid_density=grid_density, refine=True)
    assert refined.refined and refined.grid_f == grid.grid_f
    assert refined.f >= refined.grid_f
    reference = nelder_mead_reference(report, dataclasses.astuple(grid.angles), grid.grid_f)
    assert refined.f >= reference - 1e-10
    # the reported f is the CH functional at the returned angles, a local maximum
    assert abs(report(refined.angles).f - refined.f) < 1e-12
    assert np.max(np.abs(gradient(report, refined.angles))) < 1e-5


def test_polish_reaches_an_off_grid_optimum():
    # on a 5-point grid the two-photon optimum, angles spaced by pi/8,
    # lies between grid points
    result = detection.angle_scan(fock.two_photon_state(), grid_density=5, refine=True)
    assert result.grid_f < TWO_PHOTON_MAX_F - 1e-3
    assert abs(result.f - TWO_PHOTON_MAX_F) < 1e-10


def test_polish_keeps_the_grid_point_when_nothing_beats_it():
    # all-zero tables (the vacuum's) give f = 0 everywhere: no step beats the start
    start = (0.0, 0.0, 0.0, 0.0)
    calls = []

    def tables(thetas1, thetas2):
        n1, n2 = len(thetas1), len(thetas2)
        calls.append((n1, n2))
        return np.zeros((n1, n2)), np.zeros(n1), np.zeros(n2), 0.0

    angles, f = detection._refine(tables, start, 0.0, math.pi / 4)
    assert angles == start and f == 0.0
    assert 0 < len(calls) <= detection.REFINE_MAX_STEPS
    # each beam's tables cover only its own two angles' three-point stencils
    assert set(calls) == {(6, 6)}


def test_polish_refuses_a_non_finite_maximum():
    # rates finite at the start angles and NaN off them: a polish step meets
    # a NaN maximum and stops with the grid's error instead of staying put
    def tables(thetas1, thetas2):
        off = np.add.outer(thetas1 != 0.0, thetas2 != 0.0)
        return np.where(off, np.nan, 0.0), np.zeros(len(thetas1)), np.zeros(len(thetas2)), 0.0

    with pytest.raises(ValueError, match="grid maximum of f is nan"):
        detection._refine(tables, (0.0, 0.0, 0.0, 0.0), 0.0, math.pi / 4)


@pytest.mark.parametrize("cutoff", [12, 16, 20])
def test_polish_ignores_the_last_bits_of_the_rates(cutoff):
    # the u = v = 1 replica's maxima are tied up to rounding; without the
    # tie rule, noise of 2e-16 in p_tt moves the polished angles by more
    # than 1e-6 on every one of these runs
    replica = gaussian.fock_replica(gaussian.SqueezedThermalSpec(1.0, 1.0, 1.0), cutoff)
    grid_tables = detection.state_tables(replica)[0]
    thetas = np.arange(8) * math.pi / 8

    def polish(tables):
        best, grid_f = detection.scan_angle_tables(*tables(thetas, thetas), thetas)
        return detection._refine(tables, best, grid_f, math.pi / 8)

    plain_angles, plain_f = polish(grid_tables)
    for seed in range(6):
        rng = np.random.default_rng(seed)

        def noisy(thetas1, thetas2):
            p_tt, *rest = grid_tables(thetas1, thetas2)
            return (p_tt * (1.0 + 2e-16 * rng.normal(size=p_tt.shape)), *rest)

        angles, f = polish(noisy)
        assert angles == plain_angles
        assert abs(f - plain_f) < 1e-12


def one_photon_per_beam_state(seed, rank, cutoff):
    """A rank-``rank`` state on the sector |k, 1-k, l, 1-l>, embedded at ``cutoff``.

    Each beam holds one photon, whose polarization is a qubit.
    """
    rng = np.random.default_rng(seed)
    basis = fock.enumerate_basis(4, cutoff)
    sector = [basis.index_of((k, 1 - k, l, 1 - l)) for k in (0, 1) for l in (0, 1)]
    amplitudes = np.zeros((rank, basis.size), dtype=np.complex128)
    amplitudes[:, sector] = rng.normal(size=(rank, 4)) + 1j * rng.normal(size=(rank, 4))
    amplitudes /= np.linalg.norm(amplitudes, axis=1, keepdims=True)
    if rank == 1:
        return fock.OccupationState(basis, amplitudes[0])
    return fock.MixedState(basis, rng.dirichlet(np.ones(rank)), amplitudes)


def exact_one_photon_max_f(state):
    """The largest CH f over linear analyzers for one photon per beam (Horodecki).

    With a photon sure to reach each beam, +1 for transmitted and -1 for
    blocked, the correlation at polarizer angles (a, b) is
    4 p_tt - 2 p_t_any - 2 p_any_t + 1, and angles 0 and pi/4 are
    orthogonal axes of the linear-polarization plane. The largest CHSH
    value is 2 sqrt(s1^2 + s2^2), for s1, s2 the singular values of the
    2x2 correlation block T, and f = (CHSH - 2) / 4.
    """
    axes = [0.0, math.pi / 4]
    p_tt, p_t_any, p_any_t, _ = detection.state_tables(state)[0](axes, axes)
    correlations = 4.0 * p_tt - 2.0 * p_t_any[:, None] - 2.0 * p_any_t[None, :] + 1.0
    s = np.linalg.svd(correlations, compute_uv=False)
    return (math.sqrt(s[0] ** 2 + s[1] ** 2) - 1.0) / 2.0


def test_the_exact_one_photon_maximum_of_the_two_photon_state():
    assert abs(exact_one_photon_max_f(fock.two_photon_state()) - TWO_PHOTON_MAX_F) < 1e-15


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rank=st.integers(1, 4), cutoff=st.integers(2, 4))
def test_the_scan_reaches_the_exact_one_photon_maximum(seed, rank, cutoff):
    state = one_photon_per_beam_state(seed, rank, cutoff)
    exact = exact_one_photon_max_f(state)
    result = detection.angle_scan(state, grid_density=16, refine=True)
    assert exact - 1e-9 <= result.f <= exact + 1e-12
