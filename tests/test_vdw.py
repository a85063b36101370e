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

    def test_underflowed_denominators_overflow(self):
        # 1e-200 cubed and squared round to 0 in double precision
        with pytest.raises(OverflowError, match=r"^overflow: separation\*\*3 underflows"):
            dipole_coupling_lambda(VdwConfig(separation=1e-200))
        with pytest.raises(OverflowError, match=r"^overflow: mass \* freq\*\*2 underflows"):
            coupling_ratio(VdwConfig(freq=1e-200))
        with pytest.raises(OverflowError, match=r"^overflow: mass \* freq\*\*2 underflows"):
            polarizability(VdwConfig(freq=1e-200))
        # 1e-110 cubed underflows, squared does not
        with pytest.raises(OverflowError, match=r"^overflow: 8 \* mass\*\*2 \* freq\*\*3 under"):
            perturbative_ground_shift(VdwConfig(charge=1e-200, freq=1e-110))


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
    """The one-oscillator h's diagonal and x and the coupling lambda that
    fock_ground_state builds its product, sector blocks and bounds from."""
    return (*vdw._single_oscillator(cfg, n_max), dipole_coupling_lambda(cfg))


def sector_blocks(cfg, n_max):
    return vdw._sector_blocks(*fock_terms(cfg, n_max))


def unbounded(monkeypatch):
    """Patch vdw's separable bounds to -inf, so that no sector is settled
    without its block."""
    monkeypatch.setattr(vdw, "_separable_bounds", lambda *terms: (-math.inf, -math.inf))


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

    def counting_blocks(diagonal, x, lam, sectors=range(2)):
        def recorded():
            for sector in sectors:
                drawn.append(sector)
                yield sector
        yield from blocks(diagonal, x, lam, recorded())

    def counting_lies_above(block, bounds, energy):
        factored.append(len(block))
        return lies_above(block, bounds, energy)

    monkeypatch.setattr(vdw, "_sector_blocks", counting_blocks)
    monkeypatch.setattr(vdw, "_lies_above", counting_lies_above)
    return drawn, factored


def lowering_the_odd_block(monkeypatch, n_max):
    """Patch vdw's sector blocks to lower the odd symmetric state
    (|0,1> + |1,0>)/sqrt2 by 5, which moves the ground state into the odd
    block: it fails its certificate, and that block is solved and its ground
    state returned.  The lowering adds -5/2 off the diagonal, so H stays a
    Z-matrix.  The separable bounds, which hold for the real H and not for
    the lowered one, are patched to -inf.  Returns the list of the (index,
    coef, block) of every block drawn."""
    blocks, drawn = vdw._sector_blocks, []

    def lowered(*terms):
        for index, coef, block, bounds in blocks(*terms):
            if index[1] >= 0:  # the odd block, whose first state is (|0,1> + |1,0>)/sqrt2
                assert index[1] == index[n_max] == 0
                assert coef[1] == coef[n_max] == np.sqrt(0.5)
                block[0, 0] -= 5.0
            drawn.append((index, coef, block))
            yield index, coef, block, bounds

    monkeypatch.setattr(vdw, "_sector_blocks", lowered)
    unbounded(monkeypatch)
    return drawn


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


def exchange_basis(n_max, sign):
    """Orthonormal columns spanning the range of the projector (1 + sign P)/2,
    P the exchange n1 <-> n2, and the parity n1 + n2 mod 2 of each column:
    the projector's columns for the pairs a <= b (a < b for sign -1),
    normalized."""
    dim = n_max * n_max
    exchange = np.eye(dim)[np.arange(dim).reshape(n_max, n_max).T.ravel()]
    a, b = np.triu_indices(n_max, 0 if sign > 0 else 1)
    columns = (0.5 * (np.eye(dim) + sign * exchange))[:, a * n_max + b]
    return columns / np.linalg.norm(columns, axis=0), (a + b) % 2


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
        cfg, n_max = config_for_coupling(0.3), 10
        lanczos = vdw.lanczos
        krylov = []

        def recording_lanczos(matvec, start, max_steps=None):
            krylov.append(len(start))
            return lanczos(matvec, start, max_steps)

        drawn = lowering_the_odd_block(monkeypatch, n_max)
        solved = counted_dense_eigh(monkeypatch)
        monkeypatch.setattr(vdw, "lanczos", recording_lanczos)
        energy, psi = fock_ground_state(cfg, n_max)
        monkeypatch.undo()

        # one run on the whole amplitude matrix, then one solve of the odd block
        assert krylov == [n_max * n_max]
        assert solved == [25]
        index, coef, block = drawn[1]
        values, vectors = np.linalg.eigh(block)
        assert energy == values[0]
        assert np.array_equal(psi.ravel(), coef * vectors[index, 0])
        state = np.zeros(n_max * n_max)
        state[1] = state[n_max] = np.sqrt(0.5)
        h = coupled_hamiltonian_fock(cfg, n_max) - 5.0 * np.outer(state, state)
        assert energy == pytest.approx(np.linalg.eigvalsh(h)[0], abs=1e-12)
        assert np.all(psi.ravel()[~odd_parity(n_max)] == 0.0)
        assert np.max(np.abs(psi - psi.T)) <= 1e-12
        residual = h @ psi.ravel() - energy * psi.ravel()
        assert np.max(np.abs(residual)) <= 1e-12

    @pytest.mark.parametrize("n_max", [8, 12, 13])
    @pytest.mark.parametrize("cfg", [
        config_for_coupling(0.0), config_for_coupling(0.3), config_for_coupling(0.9),
        VdwConfig(mass=1.7, freq=0.6, charge=0.4, separation=1.3),
    ], ids=["u0", "u0.3", "u0.9", "mass1.7-freq0.6"])
    def test_sector_spectra_make_up_the_dense_spectrum(self, cfg, n_max):
        # the two blocks together are H on the exchange-symmetric subspace
        sectors = [np.linalg.eigvalsh(block)
                   for _, _, block, _ in sector_blocks(cfg, n_max)]
        basis, _ = exchange_basis(n_max, 1)
        dense = np.linalg.eigvalsh(basis.T @ coupled_hamiltonian_fock(cfg, n_max) @ basis)
        assert np.max(np.abs(np.sort(np.concatenate(sectors)) - dense)) <= 1e-12

    @pytest.mark.parametrize("u", [0.0, 0.5])
    def test_ground_state_equals_the_dense_ground_state(self, u):
        cfg = config_for_coupling(u)
        _, psi = fock_ground_state(cfg, 12)
        _, vectors = np.linalg.eigh(coupled_hamiltonian_fock(cfg, 12))
        assert abs(vectors[:, 0] @ psi.ravel()) == pytest.approx(1.0, abs=1e-12)

    def test_oracles_build_no_product_space_matrix(self, monkeypatch):
        # past coupling 0.8 the sector blocks are built and factored, and a
        # block that failed would be solved itself, never the n_max^2 H
        def refuse(*args, **kwargs):
            raise AssertionError("dense product-space build on the oracle path")

        monkeypatch.setattr(np, "kron", refuse)
        monkeypatch.setattr(vdw, "coupled_hamiltonian_fock", refuse)
        monkeypatch.setattr(entanglement, "coupled_hamiltonian_fock", refuse)
        vdw_fock_oracle(REF, n_max=12)
        negativity_fock_oracle(REF, n_max=12)
        for n_max in (12, 24, 40, 64):
            for cfg in [*map(config_for_coupling, np.linspace(0.8, 0.995, 14)),
                        VdwConfig(mass=1.7, freq=0.6, charge=0.4, separation=1.3),
                        VdwConfig(mass=0.5, freq=2.0, charge=0.9, separation=1.1)]:
                vdw_fock_oracle(cfg, n_max)
                negativity_fock_oracle(cfg, n_max)


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
        assert len(products) == 1  # one Lanczos step, whose product gives the residual
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
        # only the vacuum block's own certificate can find it, and that block
        # is solved
        cfg, n_max, low = config_for_coupling(0.3), 10, 0.5
        blocks = vdw._sector_blocks
        drawn = []

        def hidden(*terms):
            for number, (index, coef, block, bounds) in enumerate(blocks(*terms)):
                if number == 0:
                    i = index[n_max + 1]
                    assert coef[n_max + 1] == 1.0  # the basis state is |1,1> itself
                    block[i, :] = block[:, i] = 0.0
                    block[i, i] = low
                drawn.append((index, coef, block))
                yield index, coef, block, bounds

        monkeypatch.setattr(vdw, "_sector_blocks", hidden)
        # the separable bound holds for the real H, not for the altered one
        unbounded(monkeypatch)
        solved = counted_dense_eigh(monkeypatch)
        energy, psi = fock_ground_state(cfg, n_max)
        monkeypatch.undo()

        assert solved == [30]
        index, coef, block = drawn[0]
        values, vectors = np.linalg.eigh(block)
        assert energy == values[0]
        assert np.array_equal(psi.ravel(), coef * vectors[index, 0])
        h = coupled_hamiltonian_fock(cfg, n_max)
        h[n_max + 1, :] = h[:, n_max + 1] = 0.0
        h[n_max + 1, n_max + 1] = low
        assert energy == pytest.approx(np.linalg.eigvalsh(h)[0], abs=1e-12)
        assert energy == pytest.approx(low, abs=1e-12)
        assert abs(psi[1, 1]) == pytest.approx(1.0, abs=1e-12)
        residual = h @ psi.ravel() - energy * psi.ravel()
        assert np.max(np.abs(residual)) <= 1e-12

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
        # one Lanczos step, whose product gives the Ritz pair, against 18 to 62
        assert seeded == 1
        assert seeded < len(products) - seeded

    @pytest.mark.parametrize("u, count", [(0.8, 6), (0.9, 18), (0.95, 38), (0.97, 90)])
    def test_runs_past_the_first_step_keep_their_product_count(self, monkeypatch, u, count):
        # 4 m + 1 steps up to the Ritz check that stops the run, then the
        # Ritz vector's product
        products = []
        monkeypatch.setattr(vdw, "lanczos", counting_lanczos(products))
        fock_ground_state(config_for_coupling(u), 40)
        assert len(products) == count

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
        second, odd = separable_bounds(cfg, n_max)
        vacuum, odd_spectrum = (np.linalg.eigvalsh(block)
                                for _, _, block, _ in sector_blocks(cfg, n_max))
        # at zero coupling h' = h and the bounds are the block minima, up to rounding
        assert second <= vacuum[1] + 1e-12
        assert odd <= odd_spectrum[0] + 1e-12

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
    def test_strong_coupling_builds_and_factors_only_the_odd_block(self, monkeypatch, u):
        # the odd block's bound lies below the ground energy, and Temple's
        # inequality on the vacuum's sector still certifies theta, so only the
        # odd block is built and factored
        cfg, n_max = config_for_coupling(u), 40
        sizes = [len(block) for _, _, block, _ in sector_blocks(cfg, n_max)]
        drawn, factored = counted_fallback(monkeypatch)
        energy, psi = fock_ground_state(cfg, n_max)
        assert drawn == [1]
        assert factored == sizes[1:]
        monkeypatch.undo()

        dense = np.linalg.eigvalsh(coupled_hamiltonian_fock(cfg, n_max))
        assert energy == pytest.approx(dense[0], abs=1e-12)
        index, coef, block, _ = next(sector_blocks(cfg, n_max))
        _, vectors = np.linalg.eigh(block)
        assert abs((coef * vectors[index, 0]) @ psi.ravel()) == pytest.approx(1.0, abs=1e-12)
        # with the vacuum's Temple test off, its block is factored and passes
        separable = vdw._separable_bounds

        def no_second_bound(*terms):
            _, odd = separable(*terms)
            return -math.inf, odd

        monkeypatch.setattr(vdw, "_separable_bounds", no_second_bound)
        drawn, factored = counted_fallback(monkeypatch)
        cholesky_energy, cholesky_psi = fock_ground_state(cfg, n_max)
        assert drawn == [0, 1]
        assert energy == cholesky_energy
        assert np.array_equal(psi, cholesky_psi)

    @pytest.mark.parametrize("n_max", [4, 13, 40])
    @pytest.mark.parametrize("cfg", [
        config_for_coupling(0.0), config_for_coupling(0.3), config_for_coupling(0.9),
        VdwConfig(mass=1.7, freq=0.6, charge=0.4, separation=1.3),
    ], ids=["u0", "u0.3", "u0.9", "mass1.7-freq0.6"])
    def test_bounds_equal_the_svd_reference_on_the_signless_levels(self, cfg, n_max):
        diagonal, x, lam = fock_terms(cfg, n_max)
        h_bound = np.diag(diagonal) - 0.5 * abs(lam) * (x @ x)
        t, t_odd = h_bound[0::2, 0::2], h_bound[1::2, 1::2]
        second, odd = vdw._separable_bounds(diagonal, x, lam)
        norm = np.linalg.norm(t, 2)
        # the reference solves |T|, T with its off-diagonal made positive and
        # so of the same spectrum, by an SVD
        want_even, _ = svd_eigenpairs(signless(t))
        want_odd, _ = svd_eigenpairs(signless(t_odd))
        (e0, e1), (o0, o1) = want_even[:2], want_odd[:2]
        want_second = sorted((2.0 * e0, e0 + e1, 2.0 * o0, o0 + o1))[1]
        assert abs(second - want_second) <= 2e-13 * norm
        assert abs(odd - (e0 + o0)) <= 2e-13 * norm

    @pytest.mark.parametrize("n_max", [24, 40, 64])
    @pytest.mark.parametrize("u, unsettled", [
        (0.5, []), (0.79, []), (0.8, [1]), (0.85, [1]), (0.92, [1]),
        (0.93, [0, 1]), (0.97, [0, 1]),
    ])
    def test_sectors_built_per_solve(self, monkeypatch, u, unsettled, n_max):
        # below u 0.8 both sectors are settled without their blocks; from 0.8
        # the odd block's bound 2 w0 sqrt(1 - u) lies below theta, and from
        # 0.93 the vacuum's Temple test fails too; every factorization
        # passes, so H is never solved densely
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
        # Temple's inequality on the whole amplitude space, with rho the lesser
        # of the separable bounds, which bound the second eigenvalue of H's
        # even parity and the lowest of its odd one, implies the vacuum's
        # Temple test and the odd bound clearing theta
        cfg = config_for_coupling(u)
        runs, run = [], vdw.lanczos

        def recording(*args, **kwargs):
            runs.append(run(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(vdw, "lanczos", recording)
        drawn, _ = counted_fallback(monkeypatch)
        fock_ground_state(cfg, n_max)
        [(theta, _, residual, _)] = runs
        rho = min(separable_bounds(cfg, n_max))
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


PREMISE_CONFIGS = [*FOCK_CONFIGS, config_for_coupling(0.995)]
PREMISE_CONFIG_IDS = [*FOCK_CONFIG_IDS, "u0.995"]


@pytest.mark.parametrize("n_max", [4, 5, 8, 13, 24, 40])
@pytest.mark.parametrize("cfg", PREMISE_CONFIGS, ids=PREMISE_CONFIG_IDS)
class TestPerronFrobeniusPremise:
    """fock_ground_state certifies only the exchange-symmetric sectors: H has
    no positive off-diagonal entry beyond rounding, so the lowest level of
    each parity is exchange-symmetric."""

    def test_no_off_diagonal_entry_is_positive_beyond_rounding(self, cfg, n_max):
        h = coupled_hamiltonian_fock(cfg, n_max)
        diagonal = np.diag(h)
        assert np.max(h - np.diag(diagonal)) <= 1e-14 * np.max(np.abs(diagonal))
        assert dipole_coupling_lambda(cfg) <= 0.0

    def test_antisymmetric_levels_lie_above_the_symmetric_ground_level(self, cfg, n_max):
        h = coupled_hamiltonian_fock(cfg, n_max)
        odd = odd_parity(n_max)
        bases = [exchange_basis(n_max, sign) for sign in (1, -1)]
        for parity, rows in enumerate((~odd, odd)):
            block = h[np.ix_(rows, rows)]
            lowest = []
            for basis, column_parity in bases:
                q = basis[np.ix_(rows, column_parity == parity)]
                lowest.append(np.linalg.eigvalsh(q.T @ block @ q)[0])
            symmetric, antisymmetric = lowest
            assert antisymmetric >= symmetric - 1e-13


OSCILLATOR_CONFIGS = [
    config_for_coupling(0.0), config_for_coupling(0.3), config_for_coupling(0.9),
    VdwConfig(mass=1.7, freq=0.6, charge=0.4, separation=1.3),
    VdwConfig(mass=0.5, freq=2.0, charge=0.9, separation=1.1),
]
OSCILLATOR_CONFIG_IDS = ["u0", "u0.3", "u0.9", "mass1.7-freq0.6", "mass0.5-freq2"]


@pytest.mark.parametrize("n_max", [4, 13, 40, 64])
@pytest.mark.parametrize("cfg", OSCILLATOR_CONFIGS, ids=OSCILLATOR_CONFIG_IDS)
def test_oscillator_diagonal_is_the_quadrature_build(cfg, n_max):
    # p^2/2m + m w0^2 x^2 / 2 from the truncated quadratures is diagonal up
    # to rounding, and its diagonal is _single_oscillator's, the top level
    # lowered to w0 (n_max - 1)/2
    x_ref, p = operators.quadratures(n_max, cfg.mass, cfg.freq)
    h = np.real(p @ p) / (2.0 * cfg.mass) + 0.5 * cfg.mass * cfg.freq**2 * (x_ref @ x_ref)
    diagonal, x = vdw._single_oscillator(cfg, n_max)
    assert np.max(np.abs(np.diag(h) - diagonal)) <= 4.0 * np.spacing(cfg.freq * n_max)
    assert np.max(np.abs(h - np.diag(np.diag(h)))) <= 1e-15 * np.max(np.abs(diagonal))
    assert diagonal[-1] == cfg.freq * (n_max - 1) / 2
    assert np.array_equal(x, x_ref)


def test_level_arrays_are_built_once_per_n_max_and_shared_read_only():
    vdw._level_arrays.cache_clear()
    arrays = vdw._level_arrays(40)
    assert vdw._level_arrays(40) is arrays
    assert not any(array.flags.writeable for array in arrays)
    # a config scales them into arrays of its own
    diagonal, x = vdw._single_oscillator(VdwConfig(mass=1.7, freq=0.6), 40)
    assert diagonal.flags.writeable and x.flags.writeable
    assert np.array_equal(diagonal, 0.6 * arrays.diagonal)
    assert np.array_equal(x, np.sqrt(1.0 / (2.0 * 1.7 * 0.6)) * arrays.x)
    assert vdw._level_arrays.cache_info().misses == 1


class TestCertifiedZMatrix:
    """The operator that fock_ground_state solves and certifies, h held as
    its diagonal: no off-diagonal entry is positive, with no rounding slack,
    and its product is the dense reference's."""

    @pytest.mark.parametrize("n_max", [4, 13, 40, 64])
    @pytest.mark.parametrize("cfg", [*PREMISE_CONFIGS, OSCILLATOR_CONFIGS[-1]],
                             ids=[*PREMISE_CONFIG_IDS, OSCILLATOR_CONFIG_IDS[-1]])
    def test_no_off_diagonal_entry_is_positive(self, cfg, n_max):
        rows, cols, vals = vdw._product_nonzeros(*fock_terms(cfg, n_max))
        off = rows != cols
        assert np.count_nonzero(off) > 0
        assert np.all(vals[off] <= 0.0)

    @pytest.mark.parametrize("n_max", [5, 13, 24])
    @pytest.mark.parametrize("cfg", [*PREMISE_CONFIGS, OSCILLATOR_CONFIGS[-1]],
                             ids=[*PREMISE_CONFIG_IDS, OSCILLATOR_CONFIG_IDS[-1]])
    def test_product_equals_the_dense_reference(self, monkeypatch, cfg, n_max):
        products, run = [], vdw.lanczos

        def recording(matvec, start, max_steps=None):
            products.append(matvec)
            return run(matvec, start, max_steps)

        monkeypatch.setattr(vdw, "lanczos", recording)
        fock_ground_state(cfg, n_max)
        [matvec] = products
        rng = np.random.default_rng(n_max)
        psi = rng.standard_normal((n_max, n_max))
        psi = psi + psi.T
        psi.ravel()[odd_parity(n_max)] = 0.0
        h = coupled_hamiltonian_fock(cfg, n_max)
        assert np.max(np.abs(matvec(psi.ravel()) - h @ psi.ravel())) <= 1e-13 * np.linalg.norm(h, 2)


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


def recurrence_amplitudes(cfg, n_max):
    """The Gaussian ground state's amplitudes psi[n1, n2], psi[0, 0] = 1,
    from its annihilation condition a1 psi = (Z11 a1^dag + Z12 a2^dag) psi:
    sqrt(n1 + 1) psi[n1 + 1, n2] = Z11 sqrt(n1) psi[n1 - 1, n2]
    + Z12 sqrt(n2) psi[n1, n2 - 1].  At n2 = 0 it fills column 0; the
    condition on a2 at n1 = 0 is the same recurrence, so row 0 equals it."""
    modes = normal_modes(cfg)
    z_plus, z_minus = ((cfg.freq - w) / (cfg.freq + w)
                       for w in (modes.omega_plus, modes.omega_minus))
    z11, z12 = 0.5 * (z_minus + z_plus), 0.5 * (z_minus - z_plus)
    psi = np.zeros((n_max, n_max))
    psi[0, 0] = 1.0
    for n1 in range(1, n_max - 1):
        psi[n1 + 1, 0] = z11 * math.sqrt(n1) * psi[n1 - 1, 0] / math.sqrt(n1 + 1)
    psi[0, :] = psi[:, 0]
    for n1 in range(n_max - 1):
        for n2 in range(1, n_max):
            below = z11 * math.sqrt(n1) * psi[n1 - 1, n2] if n1 else 0.0
            psi[n1 + 1, n2] = (below + z12 * math.sqrt(n2) * psi[n1, n2 - 1]) / math.sqrt(n1 + 1)
    return psi


class TestGaussianToeplitzProduct:
    """_gaussian_amplitudes as the product F G diag(Z12^k / k!) G^T F, G
    gathered from one vector, against the annihilation-condition recurrence."""

    @pytest.mark.parametrize("n_max", [4, 5, 12, 40, 64])
    @pytest.mark.parametrize("u", [0.0, 0.05, 0.3, 0.6, 0.9, 0.97, 0.995])
    def test_equals_the_recurrence(self, u, n_max):
        cfg = config_for_coupling(u)
        with np.errstate(all="raise"):
            psi = vdw._gaussian_amplitudes(cfg, n_max)
        assert np.all(np.isfinite(psi))
        assert np.max(np.abs(psi - recurrence_amplitudes(cfg, n_max))) <= (
            1e-14 * np.max(np.abs(psi)))
        assert np.all(psi.ravel()[odd_parity(n_max)] == 0.0)
        if u == 0.0:
            assert np.array_equal(psi, vacuum_amplitudes(n_max))


def probe_flag(cfg, n_max):
    """The converged flag of the n_max - 2 comparison: whether the n_max - 2
    shift lies within FOCK_CONVERGENCE_TOL of the n_max one."""
    value = fock_ground_state(cfg, n_max)[0] - cfg.freq
    probe = fock_ground_state(cfg, n_max - 2)[0] - cfg.freq
    return bool(abs(probe - value) <= vdw.FOCK_CONVERGENCE_TOL)


def enclosure(cfg, n_max):
    """The enclosure's (low, high) of the untruncated ground energy, or None."""
    ends = vdw._untruncated_enclosure(cfg, fock_ground_state(cfg, n_max)[1])
    return ends and (ends.low, ends.high)


OUTSIDE_CONFIG, OUTSIDE_N_MAX = config_for_coupling(0.3), 12


def state_outside_the_vacuum_sector(sign):
    """(energy, psi) at OUTSIDE_CONFIG and OUTSIDE_N_MAX: the lowest odd
    level and its vector, which an odd ground state's block solve returns
    (sign 1), or an antisymmetric even state (sign -1)."""
    n_max = OUTSIDE_N_MAX
    values, vectors = np.linalg.eigh(coupled_hamiltonian_fock(OUTSIDE_CONFIG, n_max))
    if sign > 0:
        energy, psi = values[1], vectors[:, 1].reshape(n_max, n_max)
        assert np.abs(psi.ravel()[~odd_parity(n_max)]).max() <= 1e-12
    else:
        energy, psi = values[0], np.zeros((n_max, n_max))
        psi[0, 2], psi[2, 0] = math.sqrt(0.5), -math.sqrt(0.5)
    return energy, psi


def solving_outside(monkeypatch, module, energy, psi):
    """Make ``module``'s fock_ground_state return (energy, psi) at
    OUTSIDE_N_MAX and solve every other n_max; returns the list of the
    n_max it is called with."""
    calls, solve = [], vdw.fock_ground_state

    def outside(cfg, n):
        calls.append(n)
        return (energy, psi) if n == OUTSIDE_N_MAX else solve(cfg, n)

    monkeypatch.setattr(module, "fock_ground_state", outside)
    return calls


ENCLOSURE_N_MAX = [8, 10, 12, 16, 20, 24, 32, 40, 64]
PHYSICAL_CONFIGS = [VdwConfig(mass=1.7, freq=0.6, separation=2.0),
                    VdwConfig(mass=0.4, freq=2.5, charge=1.3, separation=1.5)]
PHYSICAL_CONFIG_IDS = ["mass1.7-freq0.6", "mass0.4-freq2.5"]
# the couplings below 0.8 where the enclosure applies
ENCLOSED_COUPLINGS = np.round(np.arange(0.0, 0.8, 0.01), 2)
# the couplings of ENCLOSED_COUPLINGS where the enclosure reads 1 and the
# n_max - 2 comparison 0: at these small n_max the n_max - 2 solve is the
# poorer one
MOVED_FLAGS = {8: list(np.round(np.arange(0.33, 0.475, 0.01), 2)),
               10: list(np.round(np.arange(0.54, 0.605, 0.01), 2)),
               12: [0.69, 0.70]}


class TestUntruncatedEnclosure:
    """vdw_fock_oracle's flag from a Temple enclosure of the untruncated
    ground energy, built from the n_max solve alone."""

    @pytest.mark.parametrize("n_max", ENCLOSURE_N_MAX)
    def test_encloses_the_exact_ground_energy(self, n_max):
        for u in ENCLOSED_COUPLINGS:
            cfg = config_for_coupling(u)
            exact = exact_ground_shift(cfg) + cfg.freq
            low, high = enclosure(cfg, n_max)
            # up to rounding, a few ulps of the energy
            assert low - 1e-15 <= exact <= high + 1e-15, (u, low - exact, high - exact)

    @pytest.mark.parametrize("cfg", PHYSICAL_CONFIGS, ids=PHYSICAL_CONFIG_IDS)
    @pytest.mark.parametrize("n_max", [12, 24, 40])
    def test_encloses_the_exact_ground_energy_in_physical_units(self, cfg, n_max):
        exact = exact_ground_shift(cfg) + cfg.freq
        low, high = enclosure(cfg, n_max)
        slack = 1e-15 * max(1.0, exact)
        assert low - slack <= exact <= high + slack
        assert vdw_fock_oracle(cfg, n_max).converged

    def test_upper_end_is_variational_where_the_truncated_energy_is_not(self):
        below = 0
        for n_max in ENCLOSURE_N_MAX:
            for u in ENCLOSED_COUPLINGS:
                cfg = config_for_coupling(u)
                exact = exact_ground_shift(cfg) + cfg.freq
                energy, psi = fock_ground_state(cfg, n_max)
                assert vdw._untruncated_enclosure(cfg, psi)[1] >= exact - 1e-15, (n_max, u)
                below += energy < exact - 1e-12
        # the truncation lowers the top level, so the truncated energy can
        # lie below the untruncated one
        assert below > 0

    @pytest.mark.parametrize("n_max", ENCLOSURE_N_MAX)
    def test_flags_move_only_from_0_to_1_and_only_within_tolerance(self, n_max):
        moved = []
        for u in ENCLOSED_COUPLINGS:
            cfg = config_for_coupling(u)
            result = vdw_fock_oracle(cfg, n_max)
            if result.converged != probe_flag(cfg, n_max):
                assert result.converged, u
                moved.append(u)
            if result.converged:
                assert abs(result.value - exact_ground_shift(cfg)) < vdw.FOCK_CONVERGENCE_TOL, u
        assert moved == MOVED_FLAGS.get(n_max, [])

    @pytest.mark.parametrize("u", [0.8, 0.85, 0.9, 0.95])
    @pytest.mark.parametrize("n_max", [12, 24, 40])
    def test_past_coupling_0_8_the_flag_is_the_probe_flag(self, u, n_max):
        # the exact energy (w+ + w-)/2 reaches 2 w0 sqrt(1 - u), the bound on
        # the odd levels, at u 0.8
        cfg = config_for_coupling(u)
        assert enclosure(cfg, n_max) is None
        assert vdw_fock_oracle(cfg, n_max).converged is probe_flag(cfg, n_max)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_a_state_outside_the_vacuum_sector_falls_back_to_the_probe(self, monkeypatch, sign):
        cfg, n_max = OUTSIDE_CONFIG, OUTSIDE_N_MAX
        energy, psi = state_outside_the_vacuum_sector(sign)
        assert vdw._untruncated_enclosure(cfg, psi) is None
        calls = solving_outside(monkeypatch, vdw, energy, psi)
        vdw_fock_oracle(cfg, n_max)
        assert calls == [n_max, n_max - 2]

    def test_zero_coupling_encloses_the_vacuum_exactly(self):
        cfg = config_for_coupling(0.0)
        assert enclosure(cfg, 8) == (cfg.freq, cfg.freq)


def schmidt_sum(psi):
    return float(np.sum(np.linalg.svd(psi, compute_uv=False)))


def log_negativity_enclosure(cfg, n_max):
    psi = fock_ground_state(cfg, n_max)[1]
    return entanglement._log_negativity_enclosure(cfg, psi, schmidt_sum(psi))


def log_negativity_probe_flag(cfg, n_max):
    """probe_flag's E_N analogue: whether the n_max - 2 state's E_N lies
    within FOCK_CONVERGENCE_TOL of the n_max one's."""
    value = log_negativity(fock_ground_state(cfg, n_max)[1])
    probe = log_negativity(fock_ground_state(cfg, n_max - 2)[1])
    return bool(abs(probe - value) <= vdw.FOCK_CONVERGENCE_TOL)


def gaussian_log_negativity(cfg):
    return entanglement.log_negativity_gaussian(entanglement.ground_state_covariance(cfg))


def recorded_solves(monkeypatch):
    """The list of the n_max that fock_ground_state is called with, as both
    oracles look it up."""
    calls, solve = [], vdw.fock_ground_state

    def recording(cfg, n_max):
        calls.append(n_max)
        return solve(cfg, n_max)

    monkeypatch.setattr(vdw, "fock_ground_state", recording)
    monkeypatch.setattr(entanglement, "fock_ground_state", recording)
    return calls


LOG_NEGATIVITY_N_MAX = [12, 16, 20, 24, 32, 40, 64]
STRONG_COUPLINGS = [0.85, 0.9, 0.95]


class TestLogNegativityEnclosure:
    """negativity_fock_oracle's flag from an interval around the untruncated
    state's E_N, built from the n_max solve alone."""

    @pytest.mark.parametrize("n_max", LOG_NEGATIVITY_N_MAX)
    def test_encloses_the_gaussian_log_negativity(self, n_max):
        for u in ENCLOSED_COUPLINGS:
            cfg = config_for_coupling(u)
            exact = gaussian_log_negativity(cfg)
            low, high = log_negativity_enclosure(cfg, n_max)
            assert low - 1e-14 <= exact <= high + 1e-14, (u, low - exact, high - exact)

    @pytest.mark.parametrize("cfg", PHYSICAL_CONFIGS, ids=PHYSICAL_CONFIG_IDS)
    @pytest.mark.parametrize("n_max", [12, 24, 40, 64])
    def test_encloses_the_gaussian_log_negativity_in_physical_units(self, cfg, n_max):
        exact = gaussian_log_negativity(cfg)
        low, high = log_negativity_enclosure(cfg, n_max)
        assert low - 1e-14 <= exact <= high + 1e-14, (low - exact, high - exact)

    def test_zero_coupling_encloses_no_entanglement_exactly(self):
        assert log_negativity_enclosure(config_for_coupling(0.0), 12) == (0.0, 0.0)

    @pytest.mark.parametrize("u", [0.8, *STRONG_COUPLINGS])
    @pytest.mark.parametrize("n_max", [12, 24, 40])
    def test_past_coupling_0_8_there_is_none_and_the_probe_is_solved(self, monkeypatch, u,
                                                                      n_max):
        cfg = config_for_coupling(u)
        assert log_negativity_enclosure(cfg, n_max) is None
        calls = recorded_solves(monkeypatch)
        negativity_fock_oracle(cfg, n_max)
        assert calls == [n_max, n_max - 2]

    @pytest.mark.parametrize("sign", [1, -1])
    def test_a_state_outside_the_vacuum_sector_falls_back_to_the_probe(self, monkeypatch, sign):
        energy, psi = state_outside_the_vacuum_sector(sign)
        nuclear = schmidt_sum(psi)
        assert entanglement._log_negativity_enclosure(OUTSIDE_CONFIG, psi, nuclear) is None
        calls = solving_outside(monkeypatch, entanglement, energy, psi)
        negativity_fock_oracle(OUTSIDE_CONFIG, OUTSIDE_N_MAX)
        assert calls == [OUTSIDE_N_MAX, OUTSIDE_N_MAX - 2]

    def test_an_interval_wider_than_the_tolerance_falls_back_to_the_probe(self, monkeypatch):
        cfg = config_for_coupling(0.5)
        low, high = log_negativity_enclosure(cfg, 12)
        assert high - low > 2.0 * vdw.FOCK_CONVERGENCE_TOL
        calls = recorded_solves(monkeypatch)
        negativity_fock_oracle(cfg, 12)
        assert calls == [12, 10]

    @pytest.mark.parametrize("n_max", LOG_NEGATIVITY_N_MAX)
    def test_flags_are_the_probe_flags(self, n_max):
        for u in [*ENCLOSED_COUPLINGS, *STRONG_COUPLINGS]:
            cfg = config_for_coupling(u)
            result = negativity_fock_oracle(cfg, n_max)
            assert result.converged == log_negativity_probe_flag(cfg, n_max), u
            if result.converged:
                error = abs(result.value - gaussian_log_negativity(cfg))
                assert error < vdw.FOCK_CONVERGENCE_TOL, (u, error)


def counted_linalg(monkeypatch, name):
    """Patch np.linalg.<name> to record each call in the list it returns."""
    solve, calls = getattr(np.linalg, name), []

    def counting(*args, **kwargs):
        calls.append(name)
        return solve(*args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counting)
    return calls


class TestSchmidtSum:
    """The oracle's Schmidt sum: the |eigenvalues| of psi's two parity blocks
    for a psi in the vacuum's sector, an SVD for any other, and the sum of
    the singular values either way."""

    @pytest.mark.parametrize("n_max", [12, 13, 24, 40, 41, 64])
    def test_equals_the_svd_on_solved_ground_states(self, monkeypatch, n_max):
        for u in [0.0, 0.05, 0.3, 0.6, 0.9, 0.97, 0.995]:
            _, psi = fock_ground_state(config_for_coupling(u), n_max)
            with monkeypatch.context() as patched:
                svd = counted_linalg(patched, "svd")
                got = entanglement._schmidt_sum(psi)
            # every solved ground state lies in the vacuum's sector
            assert svd == [], u
            assert abs(got - schmidt_sum(psi)) <= 1e-14, u

    def test_states_outside_the_vacuum_sector_take_the_svd(self, monkeypatch):
        lowering_the_odd_block(monkeypatch, 10)
        _, odd_ground = fock_ground_state(config_for_coupling(0.3), 10)
        monkeypatch.undo()
        assert np.all(odd_ground.ravel()[~odd_parity(10)] == 0.0) and odd_ground[0, 1] != 0.0
        for psi in (odd_ground, *(state_outside_the_vacuum_sector(sign)[1] for sign in (1, -1))):
            with monkeypatch.context() as patched:
                svd = counted_linalg(patched, "svd")
                got = entanglement._schmidt_sum(psi)
            assert svd == ["svd"]
            assert got == schmidt_sum(psi)


class TestWeakCouplingCallWork:
    """A weak-coupling call at n_max 40: one product of H, one stacked
    eigensolve for the separable bounds, and one for the Schmidt sum."""

    @pytest.mark.parametrize("call, eigvalsh_calls", [
        (fock_ground_state, 1), (vdw_fock_oracle, 1), (negativity_fock_oracle, 2),
    ])
    def test_calls_make_one_product_and_no_svd(self, monkeypatch, call, eigvalsh_calls):
        products = []
        monkeypatch.setattr(vdw, "lanczos", counting_lanczos(products))
        eigvalsh, svd = counted_linalg(monkeypatch, "eigvalsh"), counted_linalg(monkeypatch, "svd")
        call(config_for_coupling(0.3), 40)
        assert (len(products), len(eigvalsh), len(svd)) == (1, eigvalsh_calls, 0)


BOUND_PREMISE_CONFIGS = [config_for_coupling(0.0), config_for_coupling(0.3),
                         config_for_coupling(0.79), *PHYSICAL_CONFIGS]
BOUND_PREMISE_CONFIG_IDS = ["u0", "u0.3", "u0.79", *PHYSICAL_CONFIG_IDS]


class TestLogNegativityBoundPremises:
    """The two inequalities that turn the residual into the E_N enclosure's
    bound on ||S||_*: ||H v|| >= (1 - u) w0 ||(N + 1) v|| and ||S||_* <=
    (pi / sqrt6) ||(1 + n1) S||_F."""

    @pytest.mark.parametrize("n_max", [8, 24, 40])
    @pytest.mark.parametrize("cfg", BOUND_PREMISE_CONFIGS, ids=BOUND_PREMISE_CONFIG_IDS)
    def test_h_is_bounded_below_by_the_total_number(self, cfg, n_max):
        rng = np.random.default_rng(n_max)
        lam = dipole_coupling_lambda(cfg)
        u = abs(coupling_ratio(cfg))
        levels = np.arange(n_max + 2)
        exact = cfg.freq * (levels + 0.5)
        total = np.add.outer(levels[:-1], levels[:-1]) + 1.0
        _, x = vdw._single_oscillator(cfg, n_max + 1)
        _, x_wide = vdw._single_oscillator(cfg, n_max + 2)
        for decay in (0.5, 0.9, 1.0, 1.1):
            a = rng.normal(size=(n_max, n_max)) * decay ** total[:n_max, :n_max]
            # padded with a zero level, even and exchange-symmetric
            v = np.zeros((n_max + 1, n_max + 1))
            v[:n_max, :n_max] = a + a.T
            v[::2, 1::2] = v[1::2, ::2] = 0.0
            h_v = vdw._product(exact[:-1], x, lam, v)
            # no term reaches past level n_max: one more level adds nothing
            wide = vdw._product(exact, x_wide, lam, np.pad(v, ((0, 1), (0, 1))))
            assert np.array_equal(wide[:-1, :-1], h_v) and not wide[-1].any()
            assert (np.linalg.norm(h_v)
                    >= (1.0 - u) * cfg.freq * np.linalg.norm(total * v) * (1.0 - 1e-14)), decay

    @pytest.mark.parametrize("n", [1, 2, 5, 13, 41, 65])
    def test_nuclear_norm_is_bounded_by_the_weighted_frobenius_norm(self, n):
        rng = np.random.default_rng(n)
        weight = 1.0 + np.arange(n)
        # Hoelder is nearly tight on diag(1 + n)^-2
        matrices = [np.diag(weight**-2.0), *(rng.normal(size=(n, n)) * rng.uniform(0.2, 1.0)
                                            ** np.add.outer(weight, weight) for _ in range(5))]
        for s in matrices:
            nuclear = np.sum(np.linalg.svd(s, compute_uv=False))
            assert nuclear <= math.pi / math.sqrt(6.0) * np.linalg.norm(weight[:, None] * s)


class TestFockOracleSolves:
    """Each oracle solves n_max, and n_max - 2 only where its enclosure does
    not apply."""

    @pytest.mark.parametrize("oracle, u, per_call", [
        (vdw_fock_oracle, 0.3, [40]),
        (vdw_fock_oracle, 0.9, [40, 38]),
        (negativity_fock_oracle, 0.3, [40]),
        (negativity_fock_oracle, 0.9, [40, 38]),
    ])
    def test_an_oracle_call_solves_n_max_and_its_probe_where_needed(self, monkeypatch, oracle,
                                                                     u, per_call):
        calls = recorded_solves(monkeypatch)
        oracle(config_for_coupling(u), n_max=40)
        oracle(config_for_coupling(u), n_max=40)
        assert calls == per_call * 2

    @pytest.mark.parametrize("u", [0.0, 0.3, 0.9])
    def test_values_and_flags_follow_from_the_solves_bit_for_bit(self, u):
        cfg = config_for_coupling(u)
        shift, log_neg = vdw_fock_oracle(cfg, n_max=24), negativity_fock_oracle(cfg, n_max=24)
        energy, psi = fock_ground_state(cfg, 24)
        _, probe_psi = fock_ground_state(cfg, 22)
        ends = vdw._untruncated_enclosure(cfg, psi)
        # the oracle's own Schmidt sum, which its value repeats bit for bit;
        # TestSchmidtSum holds it to the SVD
        log_ends = entanglement._log_negativity_enclosure(cfg, psi, entanglement._schmidt_sum(psi))
        assert (ends is None) == (log_ends is None) == (u >= 0.8)
        assert shift.value == energy - cfg.freq
        if ends is None:
            assert shift.converged == probe_flag(cfg, 24)
        else:
            assert shift.converged == all(abs((end - cfg.freq) - shift.value)
                                          <= vdw.FOCK_CONVERGENCE_TOL for end in ends[:2])
        log_negativity = entanglement._log_negativity
        assert log_neg.value == log_negativity(psi)
        if log_ends is None:
            assert log_neg.converged == (abs(log_negativity(probe_psi) - log_negativity(psi))
                                         <= vdw.FOCK_CONVERGENCE_TOL)
        else:
            # at n_max 24 below coupling 0.7 the interval is narrow enough
            assert log_neg.converged
            assert all(abs(end - log_neg.value) <= vdw.FOCK_CONVERGENCE_TOL for end in log_ends)

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
