"""Tests for the covariance-matrix engine and its Fock replicas."""

import numpy as np
import pytest

import states
from bellsim import detection, fock, gaussian, linear_optics
from bellsim.detection import AngleSettings
from bellsim.gaussian import GaussianState, SqueezedThermalSpec

PINNED = AngleSettings(np.pi / 8, np.pi / 4, 3 * np.pi / 8, 0.0)


def test_state_validation():
    with pytest.raises(ValueError):
        GaussianState(np.eye(7))
    bad = np.eye(8)
    bad[0, 1] = 0.2
    with pytest.raises(ValueError):
        GaussianState(bad)
    # exponent too large: variances dip below the vacuum floor everywhere
    with pytest.raises(ValueError):
        GaussianState(4.0 * np.eye(8))


def test_spec_validation():
    with pytest.raises(ValueError):
        SqueezedThermalSpec(u=0.1, v=0.1, kappa=1.5)
    with pytest.raises(ValueError):
        SqueezedThermalSpec(u=0.1, v=0.1, kappa=0.0)
    with pytest.raises(ValueError):
        SqueezedThermalSpec(u=9.0, v=0.0, kappa=1.0)


def test_vacuum_and_thermal_exponents():
    vac = gaussian.build_squeezed_thermal(SqueezedThermalSpec(0.0, 0.0, 1.0))
    assert np.max(np.abs(vac.g - np.eye(8))) < 1e-15
    assert np.max(np.abs(gaussian.variance_matrix(vac) - 0.5 * np.eye(8))) < 1e-15
    thermal = gaussian.build_squeezed_thermal(SqueezedThermalSpec(0.0, 0.0, 0.7))
    assert np.max(np.abs(thermal.g - 0.7 * np.eye(8))) < 1e-15
    assert (
        np.max(np.abs(gaussian.variance_matrix(thermal) - np.eye(8) / 1.4)) < 1e-15
    )


def test_variance_spectrum_of_pure_squeezed_state():
    state = gaussian.build_squeezed_thermal(SqueezedThermalSpec(0.5, 0.0, 1.0))
    eigs = np.sort(np.linalg.eigvalsh(gaussian.variance_matrix(state)))
    want = np.sort(
        [np.exp(-1.0) / 2] * 2 + [0.5] * 4 + [np.exp(1.0) / 2] * 2
    )
    assert np.max(np.abs(eigs - want)) < 1e-12


def test_minimum_variance_golden():
    state = gaussian.build_squeezed_thermal(SqueezedThermalSpec(0.5, 0.0, 1.0))
    squeezed, min_eig = gaussian.is_squeezed(state)
    assert squeezed
    assert abs(min_eig - np.exp(-1.0) / 2.0) < 1e-10


def test_is_squeezed_on_vacuum_and_thermal():
    vac = gaussian.build_squeezed_thermal(SqueezedThermalSpec(0.0, 0.0, 1.0))
    flag, eig = gaussian.is_squeezed(vac)
    assert not flag
    assert abs(eig - 0.5) < 1e-15
    thermal = gaussian.build_squeezed_thermal(SqueezedThermalSpec(0.0, 0.0, 0.5))
    flag, eig = gaussian.is_squeezed(thermal)
    assert not flag
    assert eig > 0.5


def test_symplectic_form():
    beta = gaussian.symplectic_form(4)
    assert np.max(np.abs(beta + beta.T)) == 0.0
    assert np.max(np.abs(beta @ beta + np.eye(8))) == 0.0


def test_embed_passive_is_orthogonal_symplectic():
    rng = np.random.default_rng(7)
    beta = gaussian.symplectic_form(4)
    for _ in range(5):
        u = states.haar_unitary(rng)
        m = gaussian.embed_passive(u)
        assert np.max(np.abs(m @ m.T - np.eye(8))) < 1e-12
        assert np.max(np.abs(m @ beta @ m.T - beta)) < 1e-12


def test_embed_passive_of_entangler_has_block_form():
    m = gaussian.embed_passive(linear_optics.entangling_unitary())
    y = np.array([[1.0, 1.0], [-1.0, 1.0]])
    x = np.block([[y, y], [-y, y]])
    want = 0.5 * np.block([[x, np.zeros((4, 4))], [np.zeros((4, 4)), x]])
    assert np.max(np.abs(m - want)) < 1e-12


def test_apply_symplectic_guards():
    state = gaussian.build_squeezed_thermal(SqueezedThermalSpec(0.1, 0.1, 1.0))
    with pytest.raises(ValueError):
        gaussian.apply_symplectic(state, np.diag([2.0, 1, 1, 1, 1, 1, 1, 1]))
    same = gaussian.apply_symplectic(state, np.eye(8))
    assert np.max(np.abs(same.g - state.g)) < 1e-15


def test_building_blocks_compose_to_the_constructor():
    # squeeze the quadratures, mix, then relabel; the three-step pipeline
    # must land on the constructor's exponent to machine precision
    for u, v, kappa in [(0.3, 0.5, 1.0), (0.7, 0.2, 0.6), (1.0, 1.0, 0.9)]:
        thermal = GaussianState(kappa * np.eye(8))
        qe = np.array([-u, v, -v, u])
        squeeze_inv = np.diag(np.exp(np.concatenate([-qe, qe])))
        squeezed = gaussian.apply_symplectic(thermal, squeeze_inv)
        mix = gaussian.embed_passive(
            linear_optics.beam_wiring() @ linear_optics.entangling_unitary().T
        )
        composed = gaussian.apply_symplectic(squeezed, mix)
        direct = gaussian.build_squeezed_thermal(SqueezedThermalSpec(u, v, kappa))
        assert np.max(np.abs(composed.g - direct.g)) < 1e-12


def test_vacuum_probability_goldens():
    for u in (0.25, 0.5, 1.0):
        state = GaussianState(
            np.diag(np.exp(np.array([2 * u, 0, 0, 0, -2 * u, 0, 0, 0])))
        )
        got = gaussian.vacuum_probability(state, (0,))
        assert abs(got - 1.0 / np.cosh(u)) < 1e-10
    for kappa in (0.5, 0.8, 1.0):
        state = GaussianState(kappa * np.eye(8))
        got = gaussian.vacuum_probability(state, (2,))
        assert abs(got - 2.0 * kappa / (1.0 + kappa)) < 1e-10


def test_vacuum_probability_of_all_modes():
    kappa = 0.6
    state = GaussianState(kappa * np.eye(8))
    got = gaussian.vacuum_probability(state, (0, 1, 2, 3))
    assert abs(got - (2.0 * kappa / (1.0 + kappa)) ** 4) < 1e-12


def test_vacuum_probability_matches_fock_replica():
    spec = SqueezedThermalSpec(0.25, 0.15, 1.0)
    state = gaussian.build_squeezed_thermal(spec)
    replica = gaussian.fock_equivalent_state(spec, 16)
    for modes in [(0,), (2,), (0, 1), (2, 3), (0, 1, 2, 3)]:
        got = gaussian.vacuum_probability(state, modes)
        want = states.vacuum_probability(replica, modes)
        assert abs(got - want) < 1e-8


def test_gaussian_rates_match_fock_replica():
    spec = SqueezedThermalSpec(0.2, 0.3, 1.0)
    state = gaussian.build_squeezed_thermal(spec)
    replica = gaussian.fock_equivalent_state(spec, 16)
    rng = np.random.default_rng(17)
    for t1, t2 in rng.uniform(0.0, np.pi, size=(4, 2)):
        got = detection.coincidence_probability(state, t1, t2)
        want = detection.coincidence_probability(replica, t1, t2)
        assert abs(got - want) < 1e-6


def test_fock_replica_requires_a_pure_state():
    with pytest.raises(ValueError):
        gaussian.fock_equivalent_state(SqueezedThermalSpec(0.1, 0.1, 0.9), 10)


def test_vacuum_ch_is_flat():
    vac = gaussian.build_squeezed_thermal(SqueezedThermalSpec(0.0, 0.0, 1.0))
    report = detection.ch_functional(vac, PINNED)
    assert report.f == 0.0
    assert report.verdict == detection.NOT_VIOLATED


def test_thermal_state_factorizes_across_beams():
    state = gaussian.build_squeezed_thermal(SqueezedThermalSpec(0.0, 0.0, 0.7))
    rng = np.random.default_rng(29)
    for t1, t2 in rng.uniform(0.0, np.pi, size=(6, 2)):
        joint = detection.coincidence_probability(state, t1, t2)
        left = detection.coincidence_probability(state, t1, None)
        right = detection.coincidence_probability(state, None, t2)
        both = detection.coincidence_probability(state, None, None)
        assert abs(joint * both - left * right) < 1e-12


def test_balanced_squeezing_violates_at_pinned_angles():
    # values pinned from a run cross-checked against the Fock engine
    cases = [
        (0.62, 0.62, 1.0, 0.06348275223272037),
        (0.60, 0.60, 0.9, 0.04207762630022294),
        (0.60, 0.60, 0.8, 0.01568024174174598),
    ]
    for u, v, kappa, f_want in cases:
        state = gaussian.build_squeezed_thermal(SqueezedThermalSpec(u, v, kappa))
        report = detection.ch_functional(state, PINNED)
        assert report.verdict == detection.VIOLATED
        assert abs(report.f - f_want) < 1e-12


def test_scenario_v_mapping():
    assert gaussian.scenario_v("equal", 0.4) == 0.4
    assert gaussian.scenario_v("zero", 0.4) == 0.0
    assert gaussian.scenario_v("opposite", 0.4) == -0.4
    with pytest.raises(ValueError):
        gaussian.scenario_v("weird", 0.4)


def test_sweep_rows_fields_and_flag_consistency():
    rows = gaussian.sweep_rows(
        np.arange(0.0, 0.81, 0.1),
        ("equal", "zero", "opposite"),
        (1.0, 0.8),
        PINNED,
    )
    assert len(rows) == 9 * 3 * 2
    for row in rows:
        assert set(row) == {"u", "v", "kappa", "f", "neg_p_both", "violated"}
        inside = row["neg_p_both"] <= row["f"] <= 0.0
        assert inside == (row["violated"] == 0)
    # the balanced scenario at kappa = 1 must show violations
    assert any(
        r["violated"] == 1 and r["kappa"] == 1.0 and r["v"] == r["u"] for r in rows
    )


def test_sweep_rows_deterministic():
    a = gaussian.sweep_rows(np.arange(0.0, 0.31, 0.1), ("equal",), (1.0,), PINNED)
    b = gaussian.sweep_rows(np.arange(0.0, 0.31, 0.1), ("equal",), (1.0,), PINNED)
    assert a == b


def test_angle_scan_dispatches_gaussian_states():
    state = gaussian.build_squeezed_thermal(SqueezedThermalSpec(0.62, 0.62, 1.0))
    result = detection.angle_scan(state, grid_density=8)
    assert result.f >= 0.06


def test_passive_maps_preserve_uncertainty_and_spectrum():
    rng = np.random.default_rng(211)
    beta = gaussian.symplectic_form(4)
    for _ in range(20):
        spec = SqueezedThermalSpec(
            u=float(rng.uniform(-1.0, 1.0)),
            v=float(rng.uniform(-1.0, 1.0)),
            kappa=float(rng.uniform(0.2, 1.0)),
        )
        state = gaussian.build_squeezed_thermal(spec)
        moved = gaussian.apply_symplectic(
            state, gaussian.embed_passive(states.haar_unitary(rng))
        )
        v_mat = gaussian.variance_matrix(moved)
        herm = v_mat + 0.5j * beta
        assert np.min(np.linalg.eigvalsh(herm)) > -1e-9
        before = gaussian.is_squeezed(state)[1]
        after = gaussian.is_squeezed(moved)[1]
        assert abs(before - after) < 1e-10
