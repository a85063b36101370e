import re

import numpy as np
import pytest

from qvdw import (
    GaussianTwoModeState,
    HermitianOperator,
    InvalidStateError,
    TwoQubitState,
    UncertaintyViolationError,
    VdwConfig,
    bell_state,
    chsh_max,
    concurrence,
    config_for_coupling,
    correlation_matrix,
    ground_state_covariance,
    log_negativity_gaussian,
    negativity_fock_oracle,
    normal_modes,
    pauli,
    symplectic_eigenvalues,
)
from qvdw import entanglement
from qvdw.cli import main
from qvdw.vdw import coupled_hamiltonian_fock

TSIRELSON = 2.0 * np.sqrt(2.0)


def werner(p):
    """p Phi+ + (1 - p) I/4."""
    phi = bell_state("phi+").rho
    return TwoQubitState(p * phi + (1.0 - p) * np.eye(4) / 4.0)


def partial_transpose_log_negativity(cfg, n_max):
    """ln(2N + 1), N the summed negative eigenvalues of the ground-state
    projector partially transposed on mode 2 (dense n_max^2 x n_max^2)."""
    _, vectors = np.linalg.eigh(coupled_hamiltonian_fock(cfg, n_max))
    psi = vectors[:, 0].reshape(n_max, n_max)
    # rho[(i,k),(j,l)] = psi[i,k] psi[j,l]; transposing mode 2 swaps k <-> l
    rho_pt = np.einsum("ik,jl->iljk", psi, psi).reshape(n_max * n_max, n_max * n_max)
    ev = np.linalg.eigvalsh(rho_pt)
    return np.log(2.0 * -np.sum(ev[ev < 0]) + 1.0)


def random_density_matrix(rng, rank=4):
    m = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
    rho = m @ m.conj().T
    return TwoQubitState(rho / np.trace(rho).real)


def random_local_unitary(rng):
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestGroundStateCovariance:

    def test_decoupled_is_vacuum(self):
        state = ground_state_covariance(VdwConfig(charge=0.0))
        assert np.allclose(state.cov, 0.5 * np.eye(4), atol=1e-15)

    def test_pure_for_any_stable_coupling(self):
        for u in (0.05, 0.25, 0.6, 0.9):
            state = ground_state_covariance(config_for_coupling(u))
            assert np.allclose(symplectic_eigenvalues(state.cov), 0.5, atol=1e-10)

    def test_reference_entries(self):
        cfg = VdwConfig(separation=2.0)  # lambda = -1/4
        modes = normal_modes(cfg)
        wp, wm = modes.omega_plus, modes.omega_minus
        state = ground_state_covariance(cfg)
        assert state.cov[0, 0] == pytest.approx((1 / wp + 1 / wm) / 4, rel=1e-12)
        assert state.cov[0, 2] == pytest.approx((1 / wm - 1 / wp) / 4, rel=1e-12)
        assert state.cov[1, 1] == pytest.approx((wp + wm) / 4, rel=1e-12)
        assert state.cov[1, 3] == pytest.approx((wm - wp) / 4, rel=1e-12)
        # attractive coupling: positions correlate, momenta anticorrelate
        assert state.cov[0, 2] > 0.0
        assert state.cov[1, 3] < 0.0

    def test_against_fock_moment_oracle(self):
        # covariance entries recomputed as ground-state expectation values
        # of quadrature products on the truncated two-mode space
        from qvdw import quadratures
        from qvdw.vdw import coupled_hamiltonian_fock

        cfg = config_for_coupling(0.3)
        n = 20
        _, vectors = np.linalg.eigh(coupled_hamiltonian_fock(cfg, n))
        psi = vectors[:, 0]
        x, p = quadratures(n, cfg.mass, cfg.freq)
        eye = np.eye(n)

        def moment(op):
            return float(np.real(psi.conj() @ op @ psi))

        state = ground_state_covariance(cfg)
        assert moment(np.kron(x @ x, eye)) == pytest.approx(state.cov[0, 0], abs=1e-8)
        assert moment(np.kron(x, x)) == pytest.approx(state.cov[0, 2], abs=1e-8)
        assert moment(np.real(np.kron(p @ p, eye))) == pytest.approx(
            state.cov[1, 1], abs=1e-8)
        assert moment(np.real(np.kron(p, p))) == pytest.approx(
            state.cov[1, 3], abs=1e-8)

    def test_invalid_covariance_rejected(self):
        with pytest.raises(UncertaintyViolationError):
            GaussianTwoModeState(0.1 * np.eye(4))

    def test_rejection_prints_the_failing_eigenvalue(self):
        # a deficit of a few SYMPLECTIC_TOL is invisible at numpy's 8 digits
        cov = (0.5 - 3.0 * entanglement.SYMPLECTIC_TOL) * np.eye(4)
        with pytest.raises(UncertaintyViolationError) as caught:
            GaussianTwoModeState(cov)
        printed = float(re.search(r"eigenvalue (\S+),", str(caught.value)).group(1))
        assert printed < 0.5 - entanglement.SYMPLECTIC_TOL

    def test_non_4x4_covariance_rejected(self):
        with pytest.raises(ValueError, match="4x4"):
            GaussianTwoModeState(0.5 * np.eye(3))

    def test_asymmetric_covariance_rejected(self):
        cov = 0.5 * np.eye(4)
        cov[0, 1] = 0.2
        with pytest.raises(UncertaintyViolationError):
            GaussianTwoModeState(cov)

    def test_symmetry_is_tested_as_allclose_tests_it(self):
        base = ground_state_covariance(config_for_coupling(0.6)).cov
        cases = []
        for scale in (1.0, 1e6):
            # one entry moved by about STATE_ATOL, then by about 1e-5 of itself
            for delta in (0.0, 5e-13, 1e-12, 2e-12,
                          *(r * scale * base[0, 2] for r in (1e-6, 1e-5, 3e-5))):
                cov = scale * base
                cov[0, 2] += delta
                cases.append(cov)
        for first, second in ((np.inf, np.inf), (np.inf, -np.inf), (np.inf, 1.0),
                              (np.nan, np.nan), (1.0, np.nan)):
            cov = 0.5 * np.eye(4)
            cov[0, 2], cov[2, 0] = first, second
            cases.append(cov)
        cov = 0.5 * np.eye(4)
        cov[1, 1] = np.nan
        cases.append(cov)
        for cov in cases:
            try:
                with np.errstate(all="ignore"):
                    GaussianTwoModeState(cov)
                rejected = False
            except UncertaintyViolationError as error:
                rejected = "not symmetric" in str(error)
            except np.linalg.LinAlgError:  # an infinite entry passes as symmetric
                rejected = False
            assert rejected == (not np.allclose(cov, cov.T, atol=entanglement.STATE_ATOL)), cov

    def test_pure_states_near_u_1_are_accepted(self):
        # the eigensolve rounds the smallest symplectic eigenvalue by about
        # eps ||cov||, ||cov|| ~ 1/(2 omega_minus), which passes SYMPLECTIC_TOL
        # from 1 - u ~ 1e-11; the entries themselves round, so E_N strays
        # from its closed form by a few eps / (1 - u)
        eps = np.finfo(float).eps
        for k in range(6, 17):
            u = 1.0 - 10.0**-k
            e_n = log_negativity_gaussian(ground_state_covariance(config_for_coupling(u)))
            assert abs(e_n - 0.25 * np.log((1.0 + u) / (1.0 - u))) <= 4.0 * eps / (1.0 - u), k

    def test_entangle_near_u_1_exits_0_unconverged(self, capsys):
        assert main(["entangle", "--set", "coupling=0.99999999999999", "--set", "n_max=24"]) == 0
        out, err = capsys.readouterr()
        header, row = out.strip().splitlines()
        values = dict(zip(header.split(","), (float(v) for v in row.split(","))))
        assert values["converged"] == 0.0 and err == ""

    def test_a_deficit_far_above_the_rounding_is_rejected_at_any_scale(self):
        # one mode squeezed to ||cov|| ~ 1e6, with the smallest symplectic
        # eigenvalue 1e-6 below 1/2: 4 eps ||cov|| ~ 1e-9 tolerates none of it
        nu, squeeze = 0.5 - 1e-6, 2e6
        cov = np.diag([nu * squeeze, nu / squeeze, 0.5, 0.5])
        assert symplectic_eigenvalues(cov)[0] == pytest.approx(nu, abs=1e-9)
        with pytest.raises(UncertaintyViolationError, match="uncertainty relation"):
            GaussianTwoModeState(cov)


class TestLogNegativityGaussian:

    def test_vacuum(self):
        assert log_negativity_gaussian(GaussianTwoModeState(0.5 * np.eye(4))) == 0.0

    def test_separable_thermal_state_has_zero(self):
        # uncorrelated thermal state sits strictly inside the PPT region
        state = GaussianTwoModeState(0.8 * np.eye(4))
        assert log_negativity_gaussian(state) == 0.0

    def test_positive_and_monotone_in_coupling(self):
        values = [log_negativity_gaussian(ground_state_covariance(config_for_coupling(u)))
                  for u in (0.1, 0.2, 0.3)]
        assert values[0] > 0.0
        assert values[0] < values[1] < values[2]

    def test_ppt_boundary(self):
        # entangled side: smallest PT symplectic eigenvalue below 1/2
        flip = np.diag([1.0, 1.0, 1.0, -1.0])
        ent = ground_state_covariance(config_for_coupling(0.2))
        nu = symplectic_eigenvalues(flip @ ent.cov @ flip)[0]
        assert nu < 0.5
        assert log_negativity_gaussian(ent) > 0.0
        # separable side: eigenvalue above 1/2, E_N clamped to zero
        sep = GaussianTwoModeState(0.6 * np.eye(4))
        nu = symplectic_eigenvalues(flip @ sep.cov @ flip)[0]
        assert nu > 0.5
        assert log_negativity_gaussian(sep) == 0.0


class TestNegativityFockOracle:

    def test_decoupled(self):
        res = negativity_fock_oracle(VdwConfig(charge=0.0), n_max=14)
        assert abs(res.value) <= 1e-10

    @pytest.mark.parametrize("u", [0.1, 0.25])
    def test_matches_gaussian_route(self, u):
        cfg = config_for_coupling(u)
        gaussian = log_negativity_gaussian(ground_state_covariance(cfg))
        res = negativity_fock_oracle(cfg, n_max=16)
        assert res.value == pytest.approx(gaussian, abs=1e-6)
        assert res.converged

    def test_increases_with_coupling(self):
        values = [negativity_fock_oracle(config_for_coupling(u), n_max=14).value
                  for u in (0.1, 0.2, 0.3)]
        assert values[0] < values[1] < values[2]

    def test_rejects_small_truncation(self):
        with pytest.raises(ValueError):
            negativity_fock_oracle(VdwConfig(), n_max=8)

    @pytest.mark.parametrize("n_max", [12, 16])
    @pytest.mark.parametrize("u", [0.1, 0.5, 0.9])
    def test_schmidt_route_equals_partial_transpose(self, u, n_max):
        cfg = config_for_coupling(u)
        res = negativity_fock_oracle(cfg, n_max=n_max)
        assert res.value == pytest.approx(
            partial_transpose_log_negativity(cfg, n_max), abs=1e-12)

    def test_truncation_flag_at_strong_coupling(self):
        # at u = 0.9 the n_max 12 and 10 truncations still differ by ~1e-4
        assert not negativity_fock_oracle(config_for_coupling(0.9), n_max=12).converged


def test_pauli_products_are_the_checked_operators_products():
    checked = {axis: HermitianOperator(pauli(axis)).entries for axis in "xyz"}
    products = np.array([[np.kron(checked[a], checked[b]) for b in "xyz"] for a in "xyz"])
    assert entanglement._PAULI_PRODUCTS.tobytes() == products.tobytes()
    assert np.array_equal(entanglement._PAULI_PRODUCTS[1, 1], np.fliplr(np.diag([-1, 1, 1, -1])))


class TestConcurrence:

    def test_bell_state_maximal(self):
        assert concurrence(bell_state("phi+")) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed(self):
        assert concurrence(TwoQubitState(np.eye(4) / 4.0)) == 0.0

    def test_werner_closed_form(self):
        assert concurrence(werner(0.5)) == pytest.approx(0.25, abs=1e-12)
        assert concurrence(werner(0.2)) == 0.0

    def test_pure_state_closed_form(self):
        # for |psi> = a|00> + b|01> + c|10> + d|11>, C = 2 |a d - b c|
        rng = np.random.default_rng(31)
        for _ in range(5):
            ket = rng.normal(size=4) + 1j * rng.normal(size=4)
            ket /= np.linalg.norm(ket)
            state = TwoQubitState(np.outer(ket, ket.conj()))
            expected = 2.0 * abs(ket[0] * ket[3] - ket[1] * ket[2])
            assert concurrence(state) == pytest.approx(expected, abs=1e-7)


class TestChshMax:

    def test_bell_state_tsirelson(self):
        assert chsh_max(bell_state("phi+")) == pytest.approx(TSIRELSON, abs=1e-12)

    def test_product_state_classical_bound(self):
        ket = np.zeros(4)
        ket[0] = 1.0
        assert chsh_max(TwoQubitState(np.outer(ket, ket))) == pytest.approx(2.0, abs=1e-12)

    def test_werner_violation_threshold(self):
        p_crit = 1.0 / np.sqrt(2.0)
        assert chsh_max(werner(p_crit + 1e-6)) > 2.0
        assert chsh_max(werner(p_crit - 1e-6)) < 2.0

    def test_tsirelson_bound_on_random_states(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            assert chsh_max(random_density_matrix(rng)) <= TSIRELSON + 1e-10

    def test_maximum_attained_by_explicit_settings(self):
        # build the optimal measurement directions from the correlation
        # matrix and check the CHSH expectation actually reaches the bound
        rng = np.random.default_rng(29)
        pauli_vec = [np.array([[0, 1], [1, 0]], dtype=complex),
                     np.array([[0, -1j], [1j, 0]], dtype=complex),
                     np.array([[1, 0], [0, -1]], dtype=complex)]

        def spin(direction):
            return sum(c * s for c, s in zip(direction, pauli_vec))

        for state in (bell_state("phi+"), werner(0.9), random_density_matrix(rng)):
            t = correlation_matrix(state)
            m, v = np.linalg.eigh(t.T @ t)
            m = np.clip(m, 0.0, None)
            c1, c2 = v[:, -1], v[:, -2]
            theta = np.arctan2(np.sqrt(m[-2]), np.sqrt(m[-1]))
            b_plus = np.cos(theta) * c1 + np.sin(theta) * c2
            b_minus = np.cos(theta) * c1 - np.sin(theta) * c2
            # Alice aligns with the images of the two principal directions;
            # b+ + b- is parallel to c1 and b+ - b- to c2
            a = t @ c1 / np.linalg.norm(t @ c1)
            tc2 = t @ c2
            a_prime = tc2 / np.linalg.norm(tc2) if np.linalg.norm(tc2) > 0 else a

            def corr(u, w):
                return float(np.trace(state.rho @ np.kron(spin(u), spin(w))).real)

            s = (corr(a, b_plus) + corr(a_prime, b_plus)
                 + corr(a, b_minus) - corr(a_prime, b_minus))
            assert abs(s) == pytest.approx(chsh_max(state), abs=1e-9)


class TestBellStates:

    @pytest.mark.parametrize("kind", ["phi+", "phi-", "psi+", "psi-"])
    def test_trace_one(self, kind):
        assert np.trace(bell_state(kind).rho).real == pytest.approx(1.0, abs=1e-15)

    def test_singlet_correlation_matrix(self):
        assert np.allclose(correlation_matrix(bell_state("psi-")), -np.eye(3),
                           atol=1e-12)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            bell_state("omega+")


class TestTwoQubitStateValidation:

    def test_non_hermitian(self):
        rho = np.eye(4, dtype=complex) / 4.0
        rho[0, 1] = 0.1
        with pytest.raises(InvalidStateError):
            TwoQubitState(rho)

    def test_wrong_trace(self):
        with pytest.raises(InvalidStateError):
            TwoQubitState(np.eye(4) / 2.0)

    def test_negative_eigenvalue(self):
        rho = np.diag([0.7, 0.5, -0.1, -0.1])
        with pytest.raises(InvalidStateError):
            TwoQubitState(rho)

    def test_not_4x4(self):
        with pytest.raises(ValueError, match="4x4"):
            TwoQubitState(np.eye(2) / 2.0)


class TestLocalUnitaryInvariance:

    def test_concurrence_and_chsh_invariant(self):
        # full-rank states keep the spin-flip eigenvalues away from zero,
        # where the sqrt would amplify eigensolver noise
        rng = np.random.default_rng(42)
        for _ in range(5):
            state = random_density_matrix(rng, rank=4)
            u = np.kron(random_local_unitary(rng), random_local_unitary(rng))
            rotated = TwoQubitState(u @ state.rho @ u.conj().T)
            assert concurrence(rotated) == pytest.approx(concurrence(state), abs=1e-10)
            assert chsh_max(rotated) == pytest.approx(chsh_max(state), abs=1e-10)
