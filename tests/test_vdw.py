import numpy as np
import pytest

from qvdw import (
    DimensionLimitError,
    UnstableConfigurationError,
    VdwConfig,
    config_for_coupling,
    coupling_ratio,
    dipole_coupling_lambda,
    exact_ground_shift,
    excited_state_shift,
    matrix_element_x1x2,
    negativity_fock_oracle,
    normal_modes,
    perturbative_ground_shift,
    polarizability,
    vdw_fock_oracle,
)
from qvdw import full_model, vdw
from qvdw.vdw import coupled_hamiltonian_fock, fock_ground_state

# reduced-unit reference case: e = k = m = w0 = 1, R = 2 gives lambda = -1/4
REF = VdwConfig(separation=2.0)


class TestConfig:

    @pytest.mark.parametrize("kwargs", [
        {"mass": 0.0}, {"freq": -1.0}, {"coulomb_k": 0.0}, {"separation": 0.0},
    ])
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(ValueError):
            VdwConfig(**kwargs)

    def test_config_for_coupling(self):
        cfg = config_for_coupling(0.25)
        assert dipole_coupling_lambda(cfg) == pytest.approx(-0.25, rel=1e-15)
        assert coupling_ratio(cfg) == pytest.approx(-0.25, rel=1e-15)


class TestDipoleCoupling:

    def test_reference_value(self):
        assert dipole_coupling_lambda(REF) == pytest.approx(-0.25, abs=0)

    def test_inverse_cube_scaling(self):
        doubled = VdwConfig(separation=4.0)
        assert dipole_coupling_lambda(doubled) == pytest.approx(
            dipole_coupling_lambda(REF) / 8.0, rel=1e-15)

    def test_neutral(self):
        assert dipole_coupling_lambda(VdwConfig(charge=0.0, separation=2.0)) == 0.0


class TestNormalModes:

    def test_decoupled(self):
        modes = normal_modes(VdwConfig(charge=0.0))
        assert modes.omega_plus == modes.omega_minus == 1.0

    def test_reference_frequencies(self):
        modes = normal_modes(REF)
        assert modes.omega_plus == pytest.approx(np.sqrt(1.25), rel=1e-15)
        assert modes.omega_minus == pytest.approx(np.sqrt(0.75), rel=1e-15)

    def test_against_potential_matrix_diagonalization(self):
        # independent route: eigenfrequencies from the 2x2 potential matrix
        cfg = VdwConfig(separation=1.7)
        lam = dipole_coupling_lambda(cfg)
        v = np.array([[cfg.mass * cfg.freq**2, lam], [lam, cfg.mass * cfg.freq**2]])
        freqs = np.sort(np.sqrt(np.linalg.eigvalsh(v) / cfg.mass))
        modes = normal_modes(cfg)
        assert np.allclose(sorted((modes.omega_minus, modes.omega_plus)), freqs,
                           rtol=1e-12)

    def test_plus_above_minus_for_attraction(self):
        modes = normal_modes(REF)
        assert modes.omega_plus >= modes.omega_minus

    def test_frequency_product_identity(self):
        modes = normal_modes(REF)
        u = coupling_ratio(REF)
        assert modes.omega_plus * modes.omega_minus == pytest.approx(
            np.sqrt(1.0 - u * u), rel=1e-12)
        assert modes.omega_plus * modes.omega_minus <= 1.0

    def test_instability(self):
        with pytest.raises(UnstableConfigurationError):
            normal_modes(VdwConfig(charge=1.0, separation=1.0))  # lambda = -2


class TestGroundShifts:

    def test_exact_zero_at_zero_coupling(self):
        assert exact_ground_shift(VdwConfig(charge=0.0)) == 0.0

    def test_exact_reference_value(self):
        assert exact_ground_shift(REF) == pytest.approx(-0.0079703, abs=1e-7)

    def test_exact_always_negative(self):
        for u in (0.01, 0.1, 0.3, 0.6, 0.9):
            assert exact_ground_shift(config_for_coupling(u)) < 0.0

    def test_perturbative_reference_value(self):
        assert perturbative_ground_shift(REF) == -0.0078125

    def test_perturbative_neutral(self):
        assert perturbative_ground_shift(VdwConfig(charge=0.0)) == 0.0

    def test_perturbative_equals_lambda_form(self):
        for sep in (1.5, 2.0, 3.0, 7.0):
            cfg = VdwConfig(separation=sep)
            lam = dipole_coupling_lambda(cfg)
            assert perturbative_ground_shift(cfg) == pytest.approx(
                -lam**2 / (8.0 * cfg.mass**2 * cfg.freq**3), rel=1e-15)

    def test_perturbative_equals_prefactor_form(self):
        # squared dipole prefactor times the squared matrix element over -2 w0
        cfg = REF
        prefactor = 2.0 * cfg.coulomb_k * cfg.charge**2 / cfg.separation**3
        me = matrix_element_x1x2(cfg)
        expected = prefactor**2 * me**2 / (-2.0 * cfg.freq)
        assert perturbative_ground_shift(cfg) == pytest.approx(expected, rel=1e-14)

    def test_difference_is_quartic(self):
        u = 0.25
        diff = abs(exact_ground_shift(REF) - perturbative_ground_shift(REF))
        assert diff == pytest.approx((5.0 / 128.0) * u**4, rel=0.2)

    def test_quartic_residual_ratio(self):
        def diff(u):
            cfg = config_for_coupling(u)
            return abs(exact_ground_shift(cfg) - perturbative_ground_shift(cfg))

        for u in (0.2, 0.1):
            assert 14.4 <= diff(u) / diff(u / 2.0) <= 17.6

    def test_r6_power_law(self):
        seps = np.array([5.0, 10.0, 20.0, 50.0])
        pert = [perturbative_ground_shift(VdwConfig(separation=r)) for r in seps]
        exact = [exact_ground_shift(VdwConfig(separation=r)) for r in seps]
        slope_p = np.polyfit(np.log(seps), np.log(np.abs(pert)), 1)[0]
        slope_e = np.polyfit(np.log(seps), np.log(np.abs(exact)), 1)[0]
        assert abs(slope_p + 6.0) <= 1e-12
        assert -6.0001 <= slope_e <= -5.999


class TestMatrixElement:

    def test_reference_value(self):
        assert matrix_element_x1x2(REF) == pytest.approx(0.5, rel=1e-12)

    def test_inverse_mass_freq_scaling(self):
        cfg = VdwConfig(mass=2.0, freq=4.0)
        assert matrix_element_x1x2(cfg) == pytest.approx(1.0 / (2.0 * 2.0 * 4.0),
                                                         rel=1e-12)

    def test_independent_of_charge_and_separation(self):
        a = matrix_element_x1x2(VdwConfig(charge=0.3, separation=9.0))
        b = matrix_element_x1x2(VdwConfig(charge=2.0, separation=1.1))
        assert a == b


class TestExcitedStateShift:

    def test_decoupled_mean_shift(self):
        res = excited_state_shift(VdwConfig(charge=0.0))
        assert res.mean_shift == 0.0
        assert res.transition_low == res.transition_high == 1.0

    def test_reference_transitions(self):
        res = excited_state_shift(REF)
        assert res.transition_low == pytest.approx(0.8660254, abs=1e-7)
        assert res.transition_high == pytest.approx(1.1180340, abs=1e-7)
        assert res.mean_shift == pytest.approx(-0.0079703, abs=1e-7)

    def test_splitting(self):
        res = excited_state_shift(REF)
        assert res.transition_high - res.transition_low == pytest.approx(
            0.2520086, abs=1e-7)


class TestPolarizability:

    def test_reference_value(self):
        assert polarizability(VdwConfig()) == 2.0

    def test_neutral(self):
        assert polarizability(VdwConfig(charge=0.0)) == 0.0

    def test_ground_shift_identity(self):
        # perturbative shift rewritten through the polarizability
        for cfg in (REF, VdwConfig(mass=1.3, freq=0.8, charge=0.6, separation=2.5)):
            alpha = polarizability(cfg)
            expected = -(cfg.coulomb_k * alpha / cfg.separation**3) ** 2 * cfg.freq / 8.0
            assert perturbative_ground_shift(cfg) == pytest.approx(expected, rel=1e-14)


class TestFockOracle:

    def test_decoupled(self):
        res = vdw_fock_oracle(VdwConfig(charge=0.0), n_max=10)
        assert abs(res.value) <= 1e-12
        assert res.converged

    def test_reference_value(self):
        res = vdw_fock_oracle(REF, n_max=20)
        assert res.value == pytest.approx(-0.0079703, abs=1e-7)
        assert res.converged

    @pytest.mark.parametrize("u", [0.1, 0.2, 0.3])
    def test_matches_normal_mode_formula(self, u):
        cfg = config_for_coupling(u)
        res = vdw_fock_oracle(cfg, n_max=24)
        assert res.value == pytest.approx(exact_ground_shift(cfg), abs=1e-8)

    def test_rejects_small_truncation(self):
        with pytest.raises(ValueError):
            vdw_fock_oracle(REF, n_max=6)


def odd_parity(n_max):
    """Mask of the basis states |n1, n2> with n1 + n2 odd, flat index n1 n_max + n2."""
    n1, n2 = np.divmod(np.arange(n_max * n_max), n_max)
    return (n1 + n2) % 2 == 1


class TestParitySectors:

    @pytest.mark.parametrize("n_max", [8, 12, 13])
    def test_cross_parity_block_is_exactly_zero(self, n_max):
        h = coupled_hamiltonian_fock(config_for_coupling(0.7), n_max)
        odd = odd_parity(n_max)
        assert np.count_nonzero(h[np.ix_(odd, ~odd)]) == 0
        assert np.count_nonzero(h[np.ix_(~odd, odd)]) == 0

    @pytest.mark.parametrize("u", [0.0, 0.3, 0.9])
    def test_sector_minimum_is_the_full_ground_energy(self, u):
        cfg = config_for_coupling(u)
        h = coupled_hamiltonian_fock(cfg, 14)
        energy, psi = fock_ground_state(cfg, 14)
        assert psi is None
        assert energy == pytest.approx(np.linalg.eigvalsh(h)[0], abs=1e-12)

    def test_odd_sector_ground_state_is_found(self, monkeypatch):
        # lowering the odd antisymmetric state (|0,1> - |1,0>)/sqrt2 by 5 moves
        # the ground state into the last block: it fails the certificate and
        # is solved, and its state is returned
        cfg, n_max = config_for_coupling(0.3), 10
        blocks, eigh = vdw._sector_blocks, np.linalg.eigh
        sizes = [len(block) for _, _, block in blocks(cfg, n_max)]

        def lowered(cfg, n_max):
            for index, coef, block in blocks(cfg, n_max):
                if coef[n_max] < 0:  # the sign of |1,0> in (|0,1> - |1,0>)/sqrt2
                    assert index[1] == index[n_max] == 0
                    block[0, 0] -= 5.0
                yield index, coef, block

        solved = []

        def counting_eigh(block):
            solved.append(len(block))
            return eigh(block)

        monkeypatch.setattr(vdw, "_sector_blocks", lowered)
        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        energy, psi = fock_ground_state(cfg, n_max, with_state=True)
        monkeypatch.undo()

        assert solved == [sizes[0], sizes[3]]
        h = coupled_hamiltonian_fock(cfg, n_max)
        state = np.zeros(n_max * n_max)
        state[1], state[n_max] = np.sqrt(0.5), -np.sqrt(0.5)
        h -= 5.0 * np.outer(state, state)
        assert energy == pytest.approx(np.linalg.eigvalsh(h)[0], abs=1e-12)
        assert np.all(psi.ravel()[~odd_parity(n_max)] == 0.0)
        assert np.array_equal(psi, -psi.T)
        residual = h @ psi.ravel() - energy * psi.ravel()
        assert np.max(np.abs(residual)) <= 1e-12

    @pytest.mark.parametrize("n_max", [8, 12, 13])
    @pytest.mark.parametrize("cfg", [
        config_for_coupling(0.0), config_for_coupling(0.3), config_for_coupling(0.9),
        VdwConfig(mass=1.7, freq=0.6, charge=0.4, separation=1.3),
    ], ids=["u0", "u0.3", "u0.9", "mass1.7-freq0.6"])
    def test_sector_spectra_make_up_the_dense_spectrum(self, cfg, n_max):
        sectors = [np.linalg.eigvalsh(block) for _, _, block in vdw._sector_blocks(cfg, n_max)]
        dense = np.linalg.eigvalsh(coupled_hamiltonian_fock(cfg, n_max))
        assert np.max(np.abs(np.sort(np.concatenate(sectors)) - dense)) <= 1e-12

    @pytest.mark.parametrize("u", [0.0, 0.5])
    def test_ground_state_equals_the_dense_ground_state(self, u):
        cfg = config_for_coupling(u)
        _, psi = fock_ground_state(cfg, 12, with_state=True)
        _, vectors = np.linalg.eigh(coupled_hamiltonian_fock(cfg, 12))
        assert abs(vectors[:, 0] @ psi.ravel()) == pytest.approx(1.0, abs=1e-12)

    def test_oracles_build_no_product_space_matrix(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dense product-space build on the oracle path")

        monkeypatch.setattr(np, "kron", refuse)
        monkeypatch.setattr(vdw, "coupled_hamiltonian_fock", refuse)
        vdw_fock_oracle(REF, n_max=12)
        negativity_fock_oracle(REF, n_max=12)


class TestFockDimensionLimit:

    def test_limit_is_the_full_model_limit(self):
        assert vdw.DEFAULT_DIM_LIMIT is full_model.DEFAULT_DIM_LIMIT

    @pytest.mark.parametrize("oracle", [vdw_fock_oracle, negativity_fock_oracle])
    @pytest.mark.parametrize("n_max", [65, 300])
    def test_oracles_refuse_fock_spaces_above_the_limit(self, oracle, n_max):
        # 64^2 = 4096 is the largest allowed
        with pytest.raises(DimensionLimitError, match=str(n_max * n_max)):
            oracle(REF, n_max=n_max)
