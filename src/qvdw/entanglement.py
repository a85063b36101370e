"""Entanglement measures for the coupled-oscillator and two-qubit settings.

Gaussian route: the ground state of the dipole-coupled oscillator pair is
Gaussian, so its 4x4 covariance matrix (ordering x1, p1, x2, p2; vacuum
variance 1/2 with hbar = 1) determines the logarithmic negativity through
the smallest symplectic eigenvalue of the partial transpose.  A Fock-basis
oracle provides an independent check: it solves the truncated Hamiltonian
by Lanczos on the n_max x n_max amplitude matrix of its ground state, which
its parity x exchange symmetry keeps in the vacuum's sector, certifies the
energy in one pass (separable bounds, Temple's inequality, and past coupling
~0.8 a Cholesky factorization of each sector block they leave unsettled),
and takes E_N from its Schmidt coefficients; both routes use natural logs.
The Lanczos run starts from the Gaussian ground state cut to n_max levels,
which sets only its number of steps: the certificates, which never read
the Gaussian route, decide the value.

Two-qubit route: Wootters concurrence and the maximal CHSH value (the
Horodecki criterion), quantifying the Bell-test program for verifying
entanglement between a qubit and the body it is coupled to.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidStateError, UncertaintyViolationError
from .operators import pauli, truncation_probe
from .vdw import FOCK_CONVERGENCE_TOL, ConvergedValue, VdwConfig, fock_ground_state, normal_modes
# not called here; perfbench's tracer wraps this binding by name
from .vdw import coupled_hamiltonian_fock  # noqa: F401

SYMPLECTIC_TOL = 1e-10
STATE_ATOL = 1e-12
EIGENVALUE_FLOOR = -1e-10

# one-mode symplectic form [[0, 1], [-1, 0]], stacked for two modes
SYMPLECTIC_FORM = np.kron(np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]]))

# _PAULI_PRODUCTS[a, b] = sigma_a x sigma_b for a, b in x, y, z
_PAULI_PRODUCTS = np.array([[np.kron(pauli(a), pauli(b)) for b in "xyz"] for a in "xyz"])


@dataclass(frozen=True)
class GaussianTwoModeState:
    """Two-mode Gaussian state given by its covariance matrix.

    Ordering (x1, p1, x2, p2); vacuum is diag(1/2, 1/2, 1/2, 1/2).
    Physicality (the uncertainty relation) is enforced at construction via
    the symplectic eigenvalues.
    """

    cov: np.ndarray

    def __post_init__(self):
        cov = np.array(self.cov, dtype=float)
        if cov.shape != (4, 4):
            raise ValueError(f"covariance must be 4x4, got {cov.shape}")
        if not np.allclose(cov, cov.T, atol=STATE_ATOL):
            raise UncertaintyViolationError("covariance matrix is not symmetric")
        if np.min(symplectic_eigenvalues(cov)) < 0.5 - SYMPLECTIC_TOL:
            raise UncertaintyViolationError(
                "covariance violates the uncertainty relation "
                f"(symplectic eigenvalues {symplectic_eigenvalues(cov)})"
            )
        cov.setflags(write=False)
        object.__setattr__(self, "cov", cov)


@dataclass(frozen=True)
class TwoQubitState:
    """Two-qubit density matrix, validated at construction."""

    rho: np.ndarray

    def __post_init__(self):
        rho = np.array(self.rho, dtype=complex)
        if rho.shape != (4, 4):
            raise ValueError(f"density matrix must be 4x4, got {rho.shape}")
        if np.max(np.abs(rho - rho.conj().T)) > STATE_ATOL:
            raise InvalidStateError("density matrix is not Hermitian")
        if abs(np.trace(rho).real - 1.0) > STATE_ATOL:
            raise InvalidStateError(f"trace is {np.trace(rho).real!r}, expected 1")
        if np.min(np.linalg.eigvalsh(rho)) < EIGENVALUE_FLOOR:
            raise InvalidStateError("density matrix has a negative eigenvalue")
        rho.setflags(write=False)
        object.__setattr__(self, "rho", rho)


def symplectic_eigenvalues(cov: np.ndarray) -> np.ndarray:
    """Symplectic spectrum of a 4x4 covariance matrix, sorted ascending.

    The eigenvalues of i Omega cov come in pairs +-nu; the two positive
    members are returned.  Physical states have all nu >= 1/2.
    """
    ev = np.abs(np.linalg.eigvals(1.0j * SYMPLECTIC_FORM @ cov))
    return np.sort(ev)[::2]


def ground_state_covariance(cfg: VdwConfig) -> GaussianTwoModeState:
    """Exact Gaussian ground state of the coupled oscillator pair.

    In the symmetric/antisymmetric coordinates the ground state is a
    product of vacua at omega_minus and omega_plus (see the vdw module
    for the labeling convention).  Transforming back:

      <x1^2> = (1/4m)(1/w+ + 1/w-)     <x1 x2> = (1/4m)(1/w- - 1/w+)
      <p1^2> = (m/4)(w+ + w-)          <p1 p2> = (m/4)(w- - w+)

    so for attractive coupling (lambda < 0, w- the softened symmetric
    mode) positions correlate and momenta anticorrelate.  All x-p cross
    covariances vanish.
    """
    modes = normal_modes(cfg)
    wp, wm = modes.omega_plus, modes.omega_minus
    m = cfg.mass
    xx = (1.0 / wp + 1.0 / wm) / (4.0 * m)
    xy = (1.0 / wm - 1.0 / wp) / (4.0 * m)
    pp = m * (wp + wm) / 4.0
    pq = m * (wm - wp) / 4.0
    cov = np.array([
        [xx, 0.0, xy, 0.0],
        [0.0, pp, 0.0, pq],
        [xy, 0.0, xx, 0.0],
        [0.0, pq, 0.0, pp],
    ])
    return GaussianTwoModeState(cov)


def log_negativity_gaussian(state: GaussianTwoModeState) -> float:
    """E_N = max(0, -ln(2 nu)) with nu the smallest symplectic eigenvalue
    of the partially transposed covariance (p2 -> -p2)."""
    flip = np.diag([1.0, 1.0, 1.0, -1.0])
    nu_min = float(symplectic_eigenvalues(flip @ state.cov @ flip)[0])
    return max(0.0, -np.log(2.0 * nu_min))


def negativity_fock_oracle(cfg: VdwConfig, n_max: int = 24) -> ConvergedValue:
    """Log-negativity of the coupled ground state from its Fock amplitudes,
    independent of the covariance route.

    The ground state psi[n1, n2] of the truncated two-mode Hamiltonian and
    its n_max - 2 probe come from fock_ground_state, as for vdw_fock_oracle.
    The state is pure, so
    E_N = 2 ln(sum of its Schmidt coefficients), the singular values of psi;
    this equals ln(2N + 1) with N the summed negative eigenvalues of the
    partially transposed projector.  The converged flag compares against
    the probe's E_N.
    """
    if n_max < 12:
        raise ValueError(f"n_max must be >= 12 for a meaningful oracle, got {n_max}")

    def log_neg(psi):
        return 2.0 * float(np.log(np.sum(np.linalg.svd(psi, compute_uv=False))))

    _, psi = fock_ground_state(cfg, n_max)
    _, probe_psi = fock_ground_state(cfg, n_max - 2)
    return ConvergedValue(*truncation_probe(log_neg(psi), log_neg(probe_psi),
                                            FOCK_CONVERGENCE_TOL))


def concurrence(state: TwoQubitState) -> float:
    """Wootters concurrence of a two-qubit density matrix, in [0, 1]."""
    rho = state.rho
    sy2 = _PAULI_PRODUCTS[1, 1]
    rho_tilde = sy2 @ rho.conj() @ sy2
    ev = np.linalg.eigvals(rho @ rho_tilde)
    # eigenvalues are real and nonnegative up to roundoff
    lam = np.sqrt(np.clip(np.real(ev), 0.0, None))
    lam = np.sort(lam)[::-1]
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def correlation_matrix(state: TwoQubitState) -> np.ndarray:
    """3x3 Pauli correlation matrix T_ab = Tr[rho sigma_a x sigma_b]."""
    # Tr[rho P] = sum_kl rho_kl P_lk, for all nine products at once
    return np.einsum("kl,ablk->ab", state.rho, _PAULI_PRODUCTS).real


def chsh_max(state: TwoQubitState) -> float:
    """Maximal CHSH value over all measurement settings.

    2 sqrt(m1 + m2) with m1 >= m2 the two largest eigenvalues of T^T T.
    Exceeding 2 certifies that local complementary measurements on the two
    subsystems can violate the Bell inequality; 2 sqrt(2) is the quantum
    ceiling.
    """
    t = correlation_matrix(state)
    ev = np.sort(np.linalg.eigvalsh(t.T @ t))
    return float(2.0 * np.sqrt(ev[-1] + ev[-2]))


_BELL_KETS = {
    "phi+": np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0),
    "phi-": np.array([1.0, 0.0, 0.0, -1.0]) / np.sqrt(2.0),
    "psi+": np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2.0),
    "psi-": np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0),
}


def bell_state(kind: str) -> TwoQubitState:
    """Density matrix of a Bell state: 'phi+', 'phi-', 'psi+' or 'psi-'."""
    try:
        ket = _BELL_KETS[kind]
    except KeyError:
        raise ValueError(
            f"kind must be one of {sorted(_BELL_KETS)}, got {kind!r}"
        ) from None
    return TwoQubitState(np.outer(ket, ket))
