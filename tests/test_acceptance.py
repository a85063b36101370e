"""Acceptance suite: one test per criterion, printed as PASS/FAIL lines.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance and runtime budget is pinned here.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from qvdw import (
    FullModelConfig,
    TwoQubitState,
    VdwConfig,
    bell_state,
    build_h0,
    build_hint,
    chsh_max,
    concurrence,
    config_for_coupling,
    dressed_transition,
    exact_ground_shift,
    ground_state_covariance,
    ladder,
    log_negativity_gaussian,
    negativity_fock_oracle,
    pauli,
    perturbative_ground_shift,
    second_order_shift,
    symplectic_eigenvalues,
    transition_shift,
)
from qvdw.cli import fit_power_law, main


@contextmanager
def criterion(label):
    try:
        yield
    except Exception:
        print(f"FAIL  {label}")
        raise
    print(f"PASS  {label}")


def test_criterion_1_closed_form_ground_shift():
    with criterion("1: closed-form vs exact ground shift at R=2"):
        cfg = VdwConfig(mass=1.0, freq=1.0, charge=1.0, coulomb_k=1.0, separation=2.0)
        perturbative_ground_shift(cfg)  # warm-up outside the timed window
        start = time.perf_counter()
        pert = perturbative_ground_shift(cfg)
        exact = exact_ground_shift(cfg)
        elapsed = time.perf_counter() - start

        # both algebraic forms of the R^-6 shift, exactly
        lam = -2.0 * cfg.coulomb_k * cfg.charge**2 / cfg.separation**3
        assert pert == -0.0078125
        assert -(lam * lam) / (8.0 * cfg.mass**2 * cfg.freq**3) == -0.0078125
        assert -cfg.charge**4 * cfg.coulomb_k**2 / (
            2.0 * cfg.mass**2 * cfg.freq**3 * cfg.separation**6) == -0.0078125

        assert exact == pytest.approx(-0.0079703, abs=1e-6)
        quartic = (5.0 / 128.0) * 0.25**4  # 1.526e-4
        assert abs(exact - pert) == pytest.approx(quartic, rel=0.2)
        assert elapsed < 1e-3


def test_criterion_2_r6_power_law():
    with criterion("2: R^-6 power law on R in {5, 10, 20, 50}"):
        start = time.perf_counter()
        seps = [5.0, 10.0, 20.0, 50.0]
        pert = [perturbative_ground_shift(VdwConfig(separation=r)) for r in seps]
        exact = [exact_ground_shift(VdwConfig(separation=r)) for r in seps]
        pert_slope, _, _ = fit_power_law(seps, pert)
        exact_slope, _, _ = fit_power_law(seps, exact)
        elapsed = time.perf_counter() - start

        assert abs(pert_slope - (-6.0)) <= 1e-12
        assert -6.0001 <= exact_slope <= -5.999
        assert elapsed < 1e-2


def test_criterion_3_quartic_residual_scaling():
    with criterion("3: |exact - perturbative| scales as u^4"):
        def residual(u):
            cfg = config_for_coupling(u)
            return abs(exact_ground_shift(cfg) - perturbative_ground_shift(cfg))

        r = {u: residual(u) for u in (0.2, 0.1, 0.05)}
        assert 14.4 <= r[0.2] / r[0.1] <= 17.6
        assert 14.4 <= r[0.1] / r[0.05] <= 17.6


def test_criterion_4_perturbation_vs_exact_diagonalization():
    with criterion("4: second-order engine vs exact diagonalization"):
        start = time.perf_counter()

        def residual(g):
            cfg = FullModelConfig(1.0, (5.0,), (), (g,), (), 30)
            exact = dressed_transition(cfg).shift
            h0 = np.diag(build_h0(cfg).entries).real
            pert = transition_shift(h0, build_hint(cfg).entries, cfg.n_max, 0)
            return abs(exact - pert)

        res_g = residual(0.01)
        elapsed = time.perf_counter() - start
        assert res_g <= 1e-8
        ratio = res_g / residual(0.005)
        assert 16.0 * 0.7 <= ratio <= 16.0 * 1.3
        assert elapsed < 1.0


def test_criterion_5_full_model_smoke():
    with criterion("5: qubit + field + dipole model, dim 392"):
        start = time.perf_counter()
        cfg = FullModelConfig(
            qubit_freq=1.0, field_freqs=(5.0,), dipole_freqs=(3.0,),
            qubit_field_couplings=(0.01,), dipole_field_couplings=((0.01,),),
            n_max=14)
        assert cfg.dim == 392
        report = dressed_transition(cfg)  # convergence probe runs n_max=16
        h0 = np.diag(build_h0(cfg).entries).real
        pert = transition_shift(h0, build_hint(cfg).entries, cfg.n_max**2, 0)
        elapsed = time.perf_counter() - start

        assert np.isfinite(report.shift)
        assert report.converged
        assert report.shift == pytest.approx(pert, abs=1e-7)
        assert elapsed < 30.0


def test_criterion_6_entanglement_oracle_equivalence():
    with criterion("6: Gaussian vs Fock logarithmic negativity"):
        start = time.perf_counter()
        zero = log_negativity_gaussian(ground_state_covariance(VdwConfig(charge=0.0)))
        assert zero == 0.0

        values = []
        for u in (0.05, 0.1, 0.2, 0.3):
            cfg = config_for_coupling(u)
            gaussian = log_negativity_gaussian(ground_state_covariance(cfg))
            fock = negativity_fock_oracle(cfg, n_max=24)
            assert abs(gaussian - fock.value) <= 1e-6
            values.append(gaussian)
        elapsed = time.perf_counter() - start

        assert all(a < b for a, b in zip(values, values[1:]))
        assert elapsed < 60.0


def test_criterion_7_bell_program():
    with criterion("7: CHSH, concurrence and the Werner threshold"):
        phi = bell_state("phi+")
        assert chsh_max(phi) == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-12)
        assert concurrence(phi) == pytest.approx(1.0, abs=1e-12)

        ket00 = np.zeros(4)
        ket00[0] = 1.0
        product = TwoQubitState(np.outer(ket00, ket00))
        assert chsh_max(product) == pytest.approx(2.0, abs=1e-12)

        def violates(p):
            rho = p * phi.rho + (1.0 - p) * np.eye(4) / 4.0
            return chsh_max(TwoQubitState(rho)) > 2.0

        lo, hi = 0.5, 0.9
        assert not violates(lo) and violates(hi)
        while hi - lo > 1e-9:
            mid = 0.5 * (lo + hi)
            if violates(mid):
                hi = mid
            else:
                lo = mid
        assert 0.5 * (lo + hi) == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-6)


def test_criterion_8_invariant_suites():
    with criterion("8: cross-module invariant checks"):
        # Hermiticity of built operators
        for axis in ("x", "y", "z"):
            m = pauli(axis)
            assert np.max(np.abs(m - m.conj().T)) <= 1e-12
        cfg = FullModelConfig(1.0, (5.0,), (3.0,), (0.1,), ((0.2,),), 5)
        h = build_h0(cfg).entries + build_hint(cfg).entries
        assert np.max(np.abs(h - h.conj().T)) == 0.0

        # truncated commutator identity (one ulp per sqrt product)
        for n_max in range(2, 11):
            a = ladder(n_max)
            expected = np.eye(n_max)
            expected[-1, -1] -= n_max
            assert np.allclose(a @ a.T - a.T @ a, expected, atol=4e-15)

        # first order vanishes for excitation-changing interactions
        h0 = np.diag(build_h0(cfg).entries).real
        hi = build_hint(cfg).entries
        assert all(second_order_shift(h0, hi, i).first_order == 0.0
                   for i in range(0, cfg.dim, 7))

        # ground shift negativity
        for u in (0.05, 0.2, 0.5, 0.9):
            assert exact_ground_shift(config_for_coupling(u)) < 0.0

        # purity of the Gaussian ground state
        for u in (0.1, 0.4, 0.8):
            state = ground_state_covariance(config_for_coupling(u))
            assert np.allclose(symplectic_eigenvalues(state.cov), 0.5, atol=1e-10)

        # local unitary invariance, fixed seed
        rng = np.random.default_rng(42)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = m @ m.conj().T
        state = TwoQubitState(rho / np.trace(rho).real)
        qs = []
        for _ in range(2):
            w = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            q, r = np.linalg.qr(w)
            qs.append(q * (np.diag(r) / np.abs(np.diag(r))))
        u = np.kron(qs[0], qs[1])
        rotated = TwoQubitState(u @ state.rho @ u.conj().T)
        assert concurrence(rotated) == pytest.approx(concurrence(state), abs=1e-10)
        assert chsh_max(rotated) == pytest.approx(chsh_max(state), abs=1e-10)


def test_criterion_9_cli_determinism_and_exit_codes(tmp_path, capsys):
    with criterion("9: CLI determinism and exit codes"):
        sweep_args = ["vdw", "--sweep", "separation=5:50:10:log"]
        paths = [tmp_path / "run1.csv", tmp_path / "run2.csv"]
        for path in paths:
            assert main(sweep_args + ["--out", str(path)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

        assert main(["no-such-model"]) == 2                        # usage
        assert main(["vdw", "--set", "bogus=1"]) == 2              # bad key
        assert main(["vdw", "--set", "separation=1.0"]) == 3       # unstable
        assert main(["dispersive", "--set", "mode_freq=1.0"]) == 3  # resonance
        assert main(["refractive", "--out", "/nonexistent/x.csv"]) == 4  # i/o
        capsys.readouterr()  # drop buffered CLI diagnostics
