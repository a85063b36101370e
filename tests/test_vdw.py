import math

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
from qvdw import entanglement, full_model, operators, vdw
from qvdw.cli import main
from qvdw.operators import lanczos
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

    @pytest.mark.parametrize("cfg", [VdwConfig(charge=1.0, separation=1.0),
                                     config_for_coupling(1.0)],
                             ids=["ratio-2", "ratio-1"])
    def test_unstable_pair_is_refused(self, cfg):
        # lambda = -2 m w0^2 (or exactly -m w0^2): no normal mode is real, and
        # the truncated Hamiltonian has no physical ground state
        with pytest.raises(UnstableConfigurationError):
            exact_ground_shift(cfg)
        with pytest.raises(UnstableConfigurationError):
            vdw_fock_oracle(cfg, n_max=20)
        with pytest.raises(UnstableConfigurationError):
            negativity_fock_oracle(cfg, n_max=20)
        with pytest.raises(UnstableConfigurationError):
            fock_ground_state(cfg, 12)


def odd_parity(n_max):
    """Mask of the basis states |n1, n2> with n1 + n2 odd, flat index n1 n_max + n2."""
    n1, n2 = np.divmod(np.arange(n_max * n_max), n_max)
    return (n1 + n2) % 2 == 1


def fock_terms(cfg, n_max):
    """The one-oscillator h and x and the coupling lambda that
    fock_ground_state builds its sector blocks and bounds from."""
    return (*vdw._single_oscillator(cfg, n_max), dipole_coupling_lambda(cfg))


def sector_blocks(cfg, n_max):
    return vdw._sector_blocks(*fock_terms(cfg, n_max))


def unbounded(monkeypatch):
    """Patch vdw's separable bounds to -inf, so that no sector is settled
    without its block."""
    separable = vdw._separable_bounds

    def minus_infinity(*terms):
        _, lowest = separable(*terms)
        return -math.inf, (-math.inf,) * len(lowest)

    monkeypatch.setattr(vdw, "_separable_bounds", minus_infinity)


def counted_dense_eigh(monkeypatch):
    """Patch the dense eigensolve to record the size of each matrix it
    solves in the list it returns."""
    eigh, solved = operators._dense_eigh, []

    def counting_eigh(mat):
        solved.append(len(mat))
        return eigh(mat)

    monkeypatch.setattr(operators, "_dense_eigh", counting_eigh)
    return solved


def counted_fallback(monkeypatch):
    """Patch vdw's fallback to record, in two lists it returns, the number
    of each sector whose block is built and the size of each block that is
    factored."""
    blocks, lies_above = vdw._sector_blocks, vdw._lies_above
    drawn, factored = [], []

    def counting_blocks(h_single, x, lam, sectors=range(4)):
        def recorded():
            for sector in sectors:
                drawn.append(sector)
                yield sector
        yield from blocks(h_single, x, lam, recorded())

    def counting_lies_above(block, bounds, energy):
        factored.append(len(block))
        return lies_above(block, bounds, energy)

    monkeypatch.setattr(vdw, "_sector_blocks", counting_blocks)
    monkeypatch.setattr(vdw, "_lies_above", counting_lies_above)
    return drawn, factored


def signless(t):
    """The tridiagonal ``t`` with its off-diagonal made positive."""
    return np.diag(np.diag(t)) + np.abs(t - np.diag(np.diag(t)))


def svd_eigenpairs(t):
    """Eigenvalues, ascending, and eigenvectors as rows of the symmetric
    tridiagonal ``t``, by the SVD of t - shift, a Gershgorin shift that
    leaves it positive semidefinite."""
    radii = np.abs(t).sum(axis=1) - np.abs(np.diag(t))
    shift = np.min(np.diag(t) - radii)
    _, s, vh = np.linalg.svd(t - shift * np.eye(len(t)))
    return s[::-1] + shift, vh[::-1]


def separable_bounds(cfg, n_max):
    return vdw._separable_bounds(*fock_terms(cfg, n_max))


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
        assert energy == pytest.approx(np.linalg.eigvalsh(h)[0], abs=1e-12)
        residual = h @ psi.ravel() - energy * psi.ravel()
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(residual)) <= 1e-12

    def test_odd_sector_ground_state_is_found(self, monkeypatch):
        # lowering the odd antisymmetric state (|0,1> - |1,0>)/sqrt2 by 5 moves
        # the ground state into the last block: it fails its certificate, and
        # the dense H is solved and its ground state returned
        cfg, n_max = config_for_coupling(0.3), 10
        blocks, lanczos = vdw._sector_blocks, vdw.lanczos
        state = np.zeros(n_max * n_max)
        state[1], state[n_max] = np.sqrt(0.5), -np.sqrt(0.5)
        h = coupled_hamiltonian_fock(cfg, n_max) - 5.0 * np.outer(state, state)

        def lowered(*terms):
            for index, coef, block, bounds in blocks(*terms):
                if coef[n_max] < 0:  # the sign of |1,0> in (|0,1> - |1,0>)/sqrt2
                    assert index[1] == index[n_max] == 0
                    block[0, 0] -= 5.0
                yield index, coef, block, bounds

        krylov = []

        def recording_lanczos(matvec, start, max_steps=None):
            krylov.append(len(start))
            return lanczos(matvec, start, max_steps)

        monkeypatch.setattr(vdw, "_sector_blocks", lowered)
        monkeypatch.setattr(vdw, "coupled_hamiltonian_fock", lambda *args: h.copy())
        # the separable bound holds for the real H, not for the lowered one
        unbounded(monkeypatch)
        solved = counted_dense_eigh(monkeypatch)
        monkeypatch.setattr(vdw, "lanczos", recording_lanczos)
        energy, psi = fock_ground_state(cfg, n_max)
        monkeypatch.undo()

        # one run on the whole amplitude matrix, then one dense solve of H
        assert krylov == [n_max * n_max]
        assert solved == [n_max * n_max]
        values, vectors = np.linalg.eigh(h)
        assert energy == values[0]
        assert np.array_equal(psi.ravel(), vectors[:, 0])
        assert energy == pytest.approx(np.linalg.eigvalsh(h)[0], abs=1e-12)
        assert np.max(np.abs(psi.ravel()[~odd_parity(n_max)])) <= 1e-12
        assert np.max(np.abs(psi + psi.T)) <= 1e-12
        residual = h @ psi.ravel() - energy * psi.ravel()
        assert np.max(np.abs(residual)) <= 1e-12

    @pytest.mark.parametrize("n_max", [8, 12, 13])
    @pytest.mark.parametrize("cfg", [
        config_for_coupling(0.0), config_for_coupling(0.3), config_for_coupling(0.9),
        VdwConfig(mass=1.7, freq=0.6, charge=0.4, separation=1.3),
    ], ids=["u0", "u0.3", "u0.9", "mass1.7-freq0.6"])
    def test_sector_spectra_make_up_the_dense_spectrum(self, cfg, n_max):
        sectors = [np.linalg.eigvalsh(block)
                   for _, _, block, _ in sector_blocks(cfg, n_max)]
        dense = np.linalg.eigvalsh(coupled_hamiltonian_fock(cfg, n_max))
        assert np.max(np.abs(np.sort(np.concatenate(sectors)) - dense)) <= 1e-12

    @pytest.mark.parametrize("u", [0.0, 0.5])
    def test_ground_state_equals_the_dense_ground_state(self, u):
        cfg = config_for_coupling(u)
        _, psi = fock_ground_state(cfg, 12)
        _, vectors = np.linalg.eigh(coupled_hamiltonian_fock(cfg, 12))
        assert abs(vectors[:, 0] @ psi.ravel()) == pytest.approx(1.0, abs=1e-12)

    def test_oracles_build_no_product_space_matrix(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dense product-space build on the oracle path")

        monkeypatch.setattr(np, "kron", refuse)
        monkeypatch.setattr(vdw, "coupled_hamiltonian_fock", refuse)
        vdw_fock_oracle(REF, n_max=12)
        negativity_fock_oracle(REF, n_max=12)


def dense_cholesky_passes(block, energy):
    """The certificate as one dense Cholesky factorization of block - energy."""
    try:
        np.linalg.cholesky(block - energy * np.eye(len(block)))
    except np.linalg.LinAlgError:
        return False
    return True


def vacuum_start(dim):
    start = np.zeros(dim)
    start[0] = 1.0  # |0, 0> is the first basis state of the vacuum's block
    return start


def vacuum_amplitudes(n_max):
    """|0, 0> as an n_max x n_max amplitude matrix."""
    start = np.zeros((n_max, n_max))
    start[0, 0] = 1.0
    return start


def counting_lanczos(products):
    """vdw.lanczos, appending each vector it multiplies to ``products``."""
    run = vdw.lanczos

    def counting(matvec, start, max_steps=None):
        def counted(v):
            products.append(v)
            return matvec(v)
        return run(counted, start, max_steps)

    return counting


class TestSectorSolve:

    @pytest.mark.parametrize("n_max", [8, 12, 13])
    @pytest.mark.parametrize("u", [0.0, 0.3, 0.9])
    def test_blocks_are_ordered_by_shell_and_block_tridiagonal(self, u, n_max):
        n1, n2 = np.divmod(np.arange(n_max * n_max), n_max)
        for index, _, block, bounds in sector_blocks(config_for_coupling(u), n_max):
            inside = index >= 0
            shell = np.zeros(len(block), dtype=int)
            shell[index[inside]] = (n1 + n2)[inside]
            starts = bounds[:-1]
            assert np.array_equal(np.repeat(shell[starts], np.diff(bounds)), shell)
            assert np.all(np.diff(shell[starts]) == 2)
            for lo, hi, beyond in zip(bounds, bounds[1:], bounds[2:]):
                assert np.count_nonzero(block[lo:hi, beyond:]) == 0
                assert np.count_nonzero(block[beyond:, lo:hi]) == 0

    @pytest.mark.parametrize("n_max", [8, 12, 13])
    @pytest.mark.parametrize("u", [0.0, 0.3, 0.9])
    def test_lanczos_equals_eigh_on_the_sector_blocks(self, u, n_max):
        rng = np.random.default_rng(n_max)
        blocks = sector_blocks(config_for_coupling(u), n_max)
        for number, (_, _, block, _) in enumerate(blocks):
            # the vacuum's block from the vacuum
            start = rng.normal(size=len(block)) if number else vacuum_start(len(block))
            theta, y, residual, _ = lanczos(block.__matmul__, start)
            values, vectors = np.linalg.eigh(block)
            assert theta == pytest.approx(values[0], abs=1e-12)
            ground = vectors[:, 0] * np.sign(vectors[:, 0] @ y)
            assert np.max(np.abs(y - ground)) <= 1e-12
            assert residual <= 1e-12

    def test_breakdown_at_zero_coupling_returns_the_vacuum(self):
        _, _, block, _ = next(sector_blocks(config_for_coupling(0.0), 12))
        products = []

        def matvec(v):
            products.append(v)
            return block @ v

        start = vacuum_start(len(block))
        theta, y, residual, _ = lanczos(matvec, start)
        assert len(products) == 2  # one Lanczos step, then the residual
        assert theta == pytest.approx(1.0, abs=1e-15)
        assert np.max(np.abs(np.abs(y) - start)) <= 1e-15
        assert residual <= 1e-15

    @pytest.mark.parametrize("n_max", [8, 13, 40])
    @pytest.mark.parametrize("u", [0.0, 0.3, 0.9])
    def test_shell_certificate_agrees_with_dense_cholesky(self, u, n_max):
        for _, _, block, bounds in sector_blocks(config_for_coupling(u), n_max):
            lowest = np.linalg.eigvalsh(block)[0]
            for energy, above in ((lowest - 1e-6, True), (lowest + 1e-6, False)):
                assert vdw._lies_above(block, bounds, energy) is above
                assert dense_cholesky_passes(block, energy) is above

    def test_vacuum_certificate_finds_a_state_hidden_from_lanczos(self, monkeypatch):
        # |1,1> is cut off from the rest of the vacuum's block and put below
        # the ground energy: the vacuum's Krylov space never reaches it, so
        # only the vacuum block's own certificate can find it, and the dense
        # H is solved
        cfg, n_max, low = config_for_coupling(0.3), 10, 0.5
        blocks = vdw._sector_blocks
        h = coupled_hamiltonian_fock(cfg, n_max)
        h[n_max + 1, :] = h[:, n_max + 1] = 0.0
        h[n_max + 1, n_max + 1] = low

        def hidden(*terms):
            for number, (index, coef, block, bounds) in enumerate(blocks(*terms)):
                if number == 0:
                    i = index[n_max + 1]
                    assert coef[n_max + 1] == 1.0  # the basis state is |1,1> itself
                    block[i, :] = block[:, i] = 0.0
                    block[i, i] = low
                yield index, coef, block, bounds

        monkeypatch.setattr(vdw, "_sector_blocks", hidden)
        monkeypatch.setattr(vdw, "coupled_hamiltonian_fock", lambda *args: h.copy())
        # the separable bound holds for the real H, not for the altered one
        unbounded(monkeypatch)
        solved = counted_dense_eigh(monkeypatch)
        energy, psi = fock_ground_state(cfg, n_max)
        monkeypatch.undo()

        assert solved == [n_max * n_max]
        values, vectors = np.linalg.eigh(h)
        assert energy == values[0]
        assert np.array_equal(psi.ravel(), vectors[:, 0])
        assert energy == pytest.approx(np.linalg.eigvalsh(h)[0], abs=1e-12)
        assert energy == pytest.approx(low, abs=1e-12)
        assert abs(psi[1, 1]) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("u", [0.0, 0.3, 0.9])
    def test_oracles_run_no_dense_eigensolve_when_certificates_pass(self, monkeypatch, u):
        def refuse(*args, **kwargs):
            raise AssertionError("dense eigensolve although every certificate passes")

        monkeypatch.setattr(operators, "_dense_eigh", refuse)
        cfg = config_for_coupling(u)
        vdw_fock_oracle(cfg, n_max=16)
        negativity_fock_oracle(cfg, n_max=16)


FOCK_CONFIGS = [
    config_for_coupling(0.0), config_for_coupling(0.3), config_for_coupling(0.79),
    config_for_coupling(0.9), config_for_coupling(0.97),
    VdwConfig(mass=1.7, freq=0.6, charge=0.4, separation=1.3),
]
FOCK_CONFIG_IDS = ["u0", "u0.3", "u0.79", "u0.9", "u0.97", "mass1.7-freq0.6"]


class TestAmplitudeSolve:
    """Lanczos on the n_max x n_max amplitude matrix, from the untruncated
    ground state cut to n_max levels, with no sector block on a certified
    point."""

    @pytest.mark.parametrize("n_max", [4, 5, 8, 13])
    @pytest.mark.parametrize("cfg", FOCK_CONFIGS, ids=FOCK_CONFIG_IDS)
    def test_equals_dense_eigvalsh(self, cfg, n_max):
        h = coupled_hamiltonian_fock(cfg, n_max)
        energy, psi = fock_ground_state(cfg, n_max)
        assert energy == pytest.approx(np.linalg.eigvalsh(h)[0], abs=1e-12)
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(h @ psi.ravel() - energy * psi.ravel()) <= 1e-12
        assert np.all(psi.ravel()[odd_parity(n_max)] == 0.0)
        assert np.max(np.abs(psi - psi.T)) <= 1e-15

    @pytest.mark.parametrize("n_max", [24, 40])
    @pytest.mark.parametrize("u", [0.05, 0.3, 0.6, 0.79])
    def test_equals_eigh_of_the_vacuum_block(self, u, n_max):
        cfg = config_for_coupling(u)
        energy, psi = fock_ground_state(cfg, n_max)
        index, coef, block, _ = next(sector_blocks(cfg, n_max))
        values, vectors = np.linalg.eigh(block)
        ground = coef * vectors[index, 0]
        assert energy == pytest.approx(values[0], abs=1e-12)
        assert abs(ground @ psi.ravel()) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("u", [0.05, 0.3, 0.75])
    def test_seed_lies_in_the_vacuum_sector_and_saves_products(self, monkeypatch, u):
        cfg, n_max = config_for_coupling(u), 38
        products = []
        monkeypatch.setattr(vdw, "lanczos", counting_lanczos(products))
        seeded_energy, _ = fock_ground_state(cfg, n_max)
        seed = products[0].reshape(n_max, n_max)
        seeded = len(products)
        monkeypatch.setattr(vdw, "_gaussian_amplitudes", lambda cfg, n: vacuum_amplitudes(n))
        vacuum_energy, _ = fock_ground_state(cfg, n_max)
        assert np.all(seed.ravel()[odd_parity(n_max)] == 0.0)
        assert np.array_equal(seed, seed.T)
        assert np.count_nonzero(seed) > 1  # not the vacuum
        assert seeded_energy == pytest.approx(vacuum_energy, abs=1e-12)
        # one Lanczos step and the Ritz pair's product, against 18 to 62
        assert seeded == 2
        assert seeded < len(products) - seeded

    @pytest.mark.parametrize("n_max", [40, 64])
    @pytest.mark.parametrize("u", [0.05, 0.3, 0.6, 0.79])
    def test_certified_points_build_no_block_and_run_no_dense_solve(self, monkeypatch, u,
                                                                    n_max):
        def refuse(*args, **kwargs):
            raise AssertionError("fallback ran although the Temple certificate holds")

        for owner, name in ((vdw, "_sector_blocks"), (vdw, "_lies_above"),
                            (operators, "_dense_eigh")):
            monkeypatch.setattr(owner, name, refuse)
        cfg = config_for_coupling(u)
        energy, _ = fock_ground_state(cfg, n_max)
        monkeypatch.undo()
        _, _, block, _ = next(sector_blocks(cfg, n_max))
        assert energy == pytest.approx(np.linalg.eigvalsh(block)[0], abs=1e-12)

    @pytest.mark.parametrize("u", [0.81, 0.9, 0.92, 0.97])
    def test_block_certificates_equal_dense_eigvalsh(self, u):
        cfg = config_for_coupling(u)
        energy, _ = fock_ground_state(cfg, 24)
        assert energy == pytest.approx(
            np.linalg.eigvalsh(coupled_hamiltonian_fock(cfg, 24))[0], abs=1e-12)


class TestSeparableBound:
    """H >= h' x 1 + 1 x h' bounds the sector spectra from below and
    certifies the Lanczos pair without a Cholesky factorization."""

    @pytest.mark.parametrize("n_max", [4, 5, 8, 13, 40])
    @pytest.mark.parametrize("cfg", FOCK_CONFIGS, ids=FOCK_CONFIG_IDS)
    def test_bounds_lie_below_the_block_spectra(self, cfg, n_max):
        second, lowest = separable_bounds(cfg, n_max)
        spectra = [np.linalg.eigvalsh(block) for _, _, block, _ in sector_blocks(cfg, n_max)]
        # at zero coupling h' = h and the bounds are the block minima, up to rounding
        assert second <= spectra[0][1] + 1e-12
        assert len(lowest) == 3
        for bound, spectrum in zip(lowest, spectra[1:]):
            assert bound <= spectrum[0] + 1e-12

    @pytest.mark.parametrize("n_max", [2, 3, 4, 5])
    @pytest.mark.parametrize("cfg", [
        config_for_coupling(0.3), VdwConfig(mass=1.7, freq=0.6, charge=0.4, separation=1.3),
    ], ids=["u0.3", "mass1.7-freq0.6"])
    def test_tiny_truncations_are_refused_where_there_is_no_bound(self, cfg, n_max):
        # at n_max 2 and 3 the odd levels number one, too few for a bound
        if n_max < 4:
            with pytest.raises(ValueError, match=f"n_max .*got {n_max}"):
                fock_ground_state(cfg, n_max)
            return
        energy, _ = fock_ground_state(cfg, n_max)
        dense = np.linalg.eigvalsh(coupled_hamiltonian_fock(cfg, n_max))[0]
        assert energy == pytest.approx(dense, abs=1e-12)

    @pytest.mark.parametrize("u, drawn_blocks", [(0.05, 0), (0.3, 0), (0.6, 0)])
    def test_certified_points_build_only_the_vacuum_block(self, monkeypatch, u, drawn_blocks):
        # a certified point builds no block at all
        drawn, factored = counted_fallback(monkeypatch)
        fock_ground_state(config_for_coupling(u), 40)
        assert len(drawn) == drawn_blocks
        assert len(factored) == 0

    @pytest.mark.parametrize("u", [0.85, 0.9])
    def test_strong_coupling_builds_and_factors_only_the_odd_blocks(self, monkeypatch, u):
        # the odd blocks' bound lies below the ground energy; Temple's
        # inequality on the vacuum's sector still certifies theta, and the even
        # antisymmetric block's own bound clears the energy, so only the two
        # odd blocks are built and factored
        cfg, n_max = config_for_coupling(u), 40
        sizes = [len(block) for _, _, block, _ in sector_blocks(cfg, n_max)]
        drawn, factored = counted_fallback(monkeypatch)
        energy, psi = fock_ground_state(cfg, n_max)
        assert drawn == [2, 3]
        assert factored == sizes[2:]
        monkeypatch.undo()

        dense = np.linalg.eigvalsh(coupled_hamiltonian_fock(cfg, n_max))
        assert energy == pytest.approx(dense[0], abs=1e-12)
        index, coef, block, _ = next(sector_blocks(cfg, n_max))
        _, vectors = np.linalg.eigh(block)
        assert abs((coef * vectors[index, 0]) @ psi.ravel()) == pytest.approx(1.0, abs=1e-12)
        # with the vacuum's Temple test off, its block is factored and passes
        separable = vdw._separable_bounds

        def no_second_bound(*terms):
            _, lowest = separable(*terms)
            return -math.inf, lowest

        monkeypatch.setattr(vdw, "_separable_bounds", no_second_bound)
        drawn, factored = counted_fallback(monkeypatch)
        cholesky_energy, cholesky_psi = fock_ground_state(cfg, n_max)
        assert drawn == [0, 2, 3]
        assert energy == cholesky_energy
        assert np.array_equal(psi, cholesky_psi)

    @pytest.mark.parametrize("n_max", [4, 13, 40])
    @pytest.mark.parametrize("cfg", [
        config_for_coupling(0.0), config_for_coupling(0.3), config_for_coupling(0.9),
        VdwConfig(mass=1.7, freq=0.6, charge=0.4, separation=1.3),
    ], ids=["u0", "u0.3", "u0.9", "mass1.7-freq0.6"])
    def test_bounds_equal_the_svd_reference_on_the_signless_levels(self, cfg, n_max):
        h_single, x, lam = fock_terms(cfg, n_max)
        h_bound = h_single - 0.5 * abs(lam) * (x @ x)
        t, t_odd = h_bound[0::2, 0::2], h_bound[1::2, 1::2]
        second, lowest = vdw._separable_bounds(h_single, x, lam)
        norm = np.linalg.norm(t, 2)
        # the reference solves |T|, T with its off-diagonal made positive and
        # so of the same spectrum, by an SVD
        want_even, _ = svd_eigenpairs(signless(t))
        want_odd, _ = svd_eigenpairs(signless(t_odd))
        (e0, e1), (o0, o1) = want_even[:2], want_odd[:2]
        want_second = sorted((2.0 * e0, e0 + e1, 2.0 * o0, o0 + o1))[1]
        want_lowest = (min(e0 + e1, o0 + o1), e0 + o0, e0 + o0)
        assert abs(second - want_second) <= 2e-13 * norm
        assert np.max(np.abs(np.subtract(lowest, want_lowest))) <= 2e-13 * norm

    @pytest.mark.parametrize("n_max", [24, 40, 64])
    @pytest.mark.parametrize("u, unsettled", [
        (0.5, []), (0.79, []), (0.8, [2, 3]), (0.85, [2, 3]), (0.92, [2, 3]),
        (0.93, [0, 1, 2, 3]), (0.97, [0, 1, 2, 3]),
    ])
    def test_sectors_built_per_solve(self, monkeypatch, u, unsettled, n_max):
        # below u 0.8 every sector is settled without its block; from 0.8 the
        # odd blocks' bound 2 w0 sqrt(1 - u) lies below theta, and from 0.93
        # the vacuum's Temple test and the even antisymmetric bound fail too;
        # every factorization passes, so H is never solved densely
        def refuse(*args, **kwargs):
            raise AssertionError("dense eigensolve although every certificate passes")

        cfg = config_for_coupling(u)
        sizes = [len(block) for _, _, block, _ in sector_blocks(cfg, n_max)]
        drawn, factored = counted_fallback(monkeypatch)
        monkeypatch.setattr(operators, "_dense_eigh", refuse)
        fock_ground_state(cfg, n_max)
        assert drawn == unsettled
        assert factored == [sizes[k] for k in unsettled]

    @pytest.mark.parametrize("n_max", [12, 24, 40])
    @pytest.mark.parametrize("u", [0.0, 0.05, 0.3, 0.6, 0.79, 0.8, 0.9, 0.97])
    def test_no_block_where_the_whole_space_temple_test_holds(self, monkeypatch, u, n_max):
        # Temple's inequality on the whole amplitude space, with rho the least
        # bound on H's second eigenvalue in any sector, implies the vacuum's
        # Temple test and every other sector's bound clearing theta
        cfg = config_for_coupling(u)
        runs, run = [], vdw.lanczos

        def recording(*args, **kwargs):
            runs.append(run(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(vdw, "lanczos", recording)
        drawn, _ = counted_fallback(monkeypatch)
        fock_ground_state(cfg, n_max)
        [(theta, _, residual, _)] = runs
        second, lowest = separable_bounds(cfg, n_max)
        rho = min(second, *lowest)
        tolerance = vdw.FOCK_CERTIFICATE_RTOL * max(1.0, abs(theta))
        whole_space = (theta + tolerance < rho
                       and residual * residual / (rho - theta) <= residual + tolerance)
        assert whole_space == (u < 0.8)
        if whole_space:
            assert drawn == []

    @pytest.mark.parametrize("n_max", [24, 40])
    @pytest.mark.parametrize("u", [0.05, 0.3, 0.6])
    def test_bound_off_gives_the_same_bits(self, monkeypatch, u, n_max):
        cfg = config_for_coupling(u)
        energy, psi = fock_ground_state(cfg, n_max)
        unbounded(monkeypatch)
        cholesky_energy, cholesky_psi = fock_ground_state(cfg, n_max)
        assert energy == cholesky_energy
        assert np.array_equal(psi, cholesky_psi)


def log_negativity(psi):
    return 2.0 * np.log(np.sum(np.linalg.svd(psi, compute_uv=False)))


def seeds():
    """Replacements for vdw._gaussian_amplitudes: the Gaussian plus a 1e-16
    antisymmetric matrix, the size of the rounding that leaves it
    asymmetric; the vacuum |0, 0>; and the Gaussian of the wrong mode
    order.  Swapping z_+ and z_- flips Z12, which multiplies
    psi[n1, n2] = sum_k E[n1, k] Z12^k E[n2, k] by (-1)^k = (-1)^n1."""
    gaussian = vdw._gaussian_amplitudes
    return {
        "antisymmetric-ulp": lambda cfg, n: gaussian(cfg, n) + 1e-16 * (np.tri(n).T - np.tri(n)),
        "vacuum": lambda cfg, n: vacuum_amplitudes(n),
        "swapped": lambda cfg, n: (-1.0) ** np.arange(n)[:, None] * gaussian(cfg, n),
    }


class TestGaussianSeed:
    """The solve starts from the untruncated Gaussian ground state cut to
    n_max levels; the start sets the number of steps, never the value."""

    @pytest.mark.parametrize("n_max", [4, 13, 40, 64])
    @pytest.mark.parametrize("cfg", FOCK_CONFIGS, ids=FOCK_CONFIG_IDS)
    def test_lanczos_starts_exactly_symmetric_and_even(self, monkeypatch, cfg, n_max):
        products = []
        monkeypatch.setattr(vdw, "lanczos", counting_lanczos(products))
        fock_ground_state(cfg, n_max)
        seed = products[0].reshape(n_max, n_max)
        assert np.array_equal(seed, seed.T)
        assert np.all(seed.ravel()[odd_parity(n_max)] == 0.0)
        # exact zeros, so the start needs no parity mask beside its exchange projection
        amplitudes = vdw._gaussian_amplitudes(cfg, n_max)
        assert np.all(amplitudes.ravel()[odd_parity(n_max)] == 0.0)
        assert np.array_equal(seed, (amplitudes + amplitudes.T) / np.linalg.norm(
            amplitudes + amplitudes.T))

    @pytest.mark.parametrize("u", [0.0, 0.05, 0.3, 0.6, 0.75])
    def test_seed_log_negativity_equals_the_gaussian_route(self, u):
        cfg = config_for_coupling(u)
        psi = vdw._gaussian_amplitudes(cfg, 64)
        gaussian = entanglement.log_negativity_gaussian(
            entanglement.ground_state_covariance(cfg))
        assert log_negativity(psi / np.linalg.norm(psi)) == pytest.approx(gaussian, abs=1e-12)

    @pytest.mark.parametrize("cfg", [
        config_for_coupling(0.05), config_for_coupling(0.3), config_for_coupling(0.6),
        VdwConfig(mass=1.7, freq=0.6, charge=0.4, separation=1.3),
    ], ids=["u0.05", "u0.3", "u0.6", "mass1.7-freq0.6"])
    def test_seed_is_the_ground_state_below_the_truncation(self, cfg):
        psi = vdw._gaussian_amplitudes(cfg, 40)
        _, ground = fock_ground_state(cfg, 40)
        assert abs(np.sum(psi * ground)) / np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)

    def test_zero_coupling_gives_the_vacuum_under_raising_float_errors(self, capsys):
        # Z = 0: the amplitudes come from 0^0 = 1 and 0^k = 0
        with np.errstate(all="raise"):
            assert np.array_equal(vdw._gaussian_amplitudes(config_for_coupling(0.0), 12),
                                  vacuum_amplitudes(12))
        assert main(["entangle", "--set", "coupling=0"]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("u, n_max", [(0.97, 12), (0.995, 40)])
    def test_any_start_gives_the_dense_ground_energy(self, monkeypatch, u, n_max):
        # the product reads only the symmetric part of Psi, so an antisymmetric
        # part of the start has eigenvalue 0, below the whole spectrum; left in,
        # 1e-16 of it grows under Lanczos into a Ritz value near 0 that every
        # certificate passes.  The start is summed with its transpose, which
        # puts each of these even starts in the vacuum's sector, so each gives
        # the dense ground energy and, through the oracles, the same converged
        # flags
        cfg = config_for_coupling(u)
        dense = np.linalg.eigvalsh(coupled_hamiltonian_fock(cfg, n_max))[0]
        flags = (vdw_fock_oracle(cfg, n_max).converged,
                 negativity_fock_oracle(cfg, n_max).converged)
        solved = counted_dense_eigh(monkeypatch)
        for name, seed in seeds().items():
            with monkeypatch.context() as patched:
                patched.setattr(vdw, "_gaussian_amplitudes", seed)
                energy, _ = fock_ground_state(cfg, n_max)
                assert energy == pytest.approx(dense, abs=1e-12), name
                assert (vdw_fock_oracle(cfg, n_max).converged,
                        negativity_fock_oracle(cfg, n_max).converged) == flags, name
        assert solved == []


class TestFockOracleSolves:
    """Each Fock oracle solves its n_max and its n_max - 2 truncation itself."""

    @pytest.mark.parametrize("oracle", [vdw_fock_oracle, negativity_fock_oracle])
    def test_an_oracle_solves_n_max_then_its_probe(self, monkeypatch, oracle):
        calls, solve = [], vdw.fock_ground_state

        def recording(cfg, n_max):
            calls.append(n_max)
            return solve(cfg, n_max)

        monkeypatch.setattr(vdw, "fock_ground_state", recording)
        monkeypatch.setattr(entanglement, "fock_ground_state", recording)
        oracle(config_for_coupling(0.3), n_max=40)
        oracle(config_for_coupling(0.3), n_max=40)
        assert calls == [40, 38, 40, 38]

    @pytest.mark.parametrize("u", [0.0, 0.3, 0.9])
    def test_values_equal_the_two_solves_bit_for_bit(self, u):
        cfg = config_for_coupling(u)
        shift, log_neg = vdw_fock_oracle(cfg, n_max=24), negativity_fock_oracle(cfg, n_max=24)
        energy, psi = fock_ground_state(cfg, 24)
        probe_energy, probe_psi = fock_ground_state(cfg, 22)
        assert shift.value == energy - cfg.freq
        assert shift.converged == (abs(probe_energy - energy) <= vdw.FOCK_CONVERGENCE_TOL)
        assert log_neg.value == log_negativity(psi)
        assert log_neg.converged == (abs(log_negativity(probe_psi) - log_negativity(psi))
                                     <= vdw.FOCK_CONVERGENCE_TOL)

    @pytest.mark.parametrize("u", [0.05, 0.3, 0.6])
    def test_oracles_converge_without_a_dense_eigensolve(self, monkeypatch, u):
        def refuse(*args, **kwargs):
            raise AssertionError("dense eigensolve although every certificate passes")

        monkeypatch.setattr(operators, "_dense_eigh", refuse)
        cfg = config_for_coupling(u)
        assert vdw_fock_oracle(cfg, n_max=40).converged
        assert negativity_fock_oracle(cfg, n_max=40).converged

    def test_entangle_prints_the_same_bytes_after_a_vdw_oracle_call(self, capsys):
        argv = ["entangle", "--set", "coupling=0.3", "--set", "n_max=16"]
        assert main(argv) == 0
        alone = capsys.readouterr()
        vdw_fock_oracle(config_for_coupling(0.3), n_max=16)
        assert main(argv) == 0
        assert capsys.readouterr() == alone


class TestFockDimensionLimit:

    def test_limit_is_the_full_model_limit(self):
        assert vdw.DEFAULT_DIM_LIMIT is full_model.DEFAULT_DIM_LIMIT

    @pytest.mark.parametrize("oracle", [vdw_fock_oracle, negativity_fock_oracle])
    @pytest.mark.parametrize("n_max", [65, 300])
    def test_oracles_refuse_fock_spaces_above_the_limit(self, oracle, n_max):
        # 64^2 = 4096 is the largest allowed
        with pytest.raises(DimensionLimitError, match=str(n_max * n_max)):
            oracle(REF, n_max=n_max)
