"""Two identical dipole oscillators with electrostatic dipole-dipole coupling.

The London picture of the dispersion force: expanding the Coulomb energy of
two unit-charge oscillators a distance R apart to bilinear order leaves an
interaction lambda * x1 * x2 with lambda = -2 k e^2 / R^3 (k the Coulomb
constant).  The quadratic Hamiltonian separates into symmetric and
antisymmetric normal coordinates, giving exact spectra to compare against
second-order perturbation theory and its R^-6 ground-state shift.

Reduced units, hbar = 1.  Sign convention for the mode labels: omega_minus
always belongs to the symmetric (center-of-mass) coordinate (x1 + x2)/sqrt2
and omega_plus to the relative coordinate (x1 - x2)/sqrt2.  For the physical
attractive case lambda < 0 the symmetric mode softens, so
omega_plus >= omega_minus.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionLimitError, UnstableConfigurationError
from .operators import DEFAULT_DIM_LIMIT, quadratures, truncation_probe

FOCK_CONVERGENCE_TOL = 1e-8


@dataclass(frozen=True)
class VdwConfig:
    """Two-oscillator model parameters (reduced units).

    ``coulomb_k`` is 1/(4 pi eps0); the reduced default 1 makes the
    dipole coupling lambda = -2 e^2 / R^3.
    """

    mass: float = 1.0
    freq: float = 1.0
    charge: float = 1.0
    coulomb_k: float = 1.0
    separation: float = 1.0

    def __post_init__(self):
        if self.mass <= 0 or self.freq <= 0:
            raise ValueError("mass and freq must be positive")
        if self.coulomb_k <= 0:
            raise ValueError(f"coulomb_k must be positive, got {self.coulomb_k}")
        if self.separation <= 0:
            raise ValueError(f"separation must be positive, got {self.separation}")


@dataclass(frozen=True)
class NormalModes:
    """Decoupled oscillation frequencies of the coupled pair."""

    omega_plus: float
    omega_minus: float


@dataclass(frozen=True)
class ExcitedStateShift:
    """First excited manifold relative to the coupled ground state.

    The two transitions are exactly omega_minus and omega_plus;
    ``mean_shift`` is how far their mean moved from the bare frequency.
    """

    transition_low: float
    transition_high: float
    mean_shift: float


@dataclass(frozen=True)
class ConvergedValue:
    """Numerical result carrying a truncation-convergence flag."""

    value: float
    converged: bool


def config_for_coupling(u: float) -> VdwConfig:
    """VdwConfig with |lambda|/(m w0^2) == u in fully reduced units.

    Uses unit mass, frequency, Coulomb constant and separation with the
    charge chosen so that lambda = -u.  Convenient for sweeps over the
    dimensionless coupling strength.
    """
    if u < 0:
        raise ValueError(f"coupling ratio must be >= 0, got {u}")
    return VdwConfig(charge=np.sqrt(u / 2.0))


def dipole_coupling_lambda(cfg: VdwConfig) -> float:
    """Coefficient of x1*x2 in the bilinear expansion of the Coulomb term.

    lambda = -2 k e^2 / R^3, negative: aligned dipole fluctuations lower
    the energy.
    """
    return -2.0 * cfg.coulomb_k * cfg.charge**2 / cfg.separation**3


def coupling_ratio(cfg: VdwConfig) -> float:
    """Dimensionless lambda / (m w0^2); |ratio| < 1 is the stable regime."""
    return dipole_coupling_lambda(cfg) / (cfg.mass * cfg.freq**2)


def normal_modes(cfg: VdwConfig) -> NormalModes:
    """Exact normal-mode frequencies w0 sqrt(1 -+ u), u = lambda/(m w0^2)."""
    u = coupling_ratio(cfg)
    rad_plus, rad_minus = 1.0 - u, 1.0 + u
    if rad_plus <= 0 or rad_minus <= 0:
        raise UnstableConfigurationError(
            f"|lambda| = {abs(dipole_coupling_lambda(cfg)):.6g} >= m w0^2 = "
            f"{cfg.mass * cfg.freq**2:.6g}; a normal mode frequency is imaginary"
        )
    return NormalModes(omega_plus=cfg.freq * np.sqrt(rad_plus),
                       omega_minus=cfg.freq * np.sqrt(rad_minus))


def exact_ground_shift(cfg: VdwConfig) -> float:
    """Ground energy shift (w+ + w-)/2 - w0; strictly negative for lambda != 0."""
    modes = normal_modes(cfg)
    return 0.5 * (modes.omega_plus + modes.omega_minus) - cfg.freq


def perturbative_ground_shift(cfg: VdwConfig) -> float:
    """Second-order ground shift -lambda^2 / (8 m^2 w0^3).

    Equals -e^4 k^2 / (2 m^2 w0^3 R^6), the R^-6 dispersion law.
    """
    lam = dipole_coupling_lambda(cfg)
    return -(lam * lam) / (8.0 * cfg.mass**2 * cfg.freq**3)


def matrix_element_x1x2(cfg: VdwConfig, n_max: int = 2) -> float:
    """<1,1| x1 x2 |0,0> evaluated on truncated quadrature matrices.

    Computed from the position matrices rather than the closed form
    1/(2 m w0); independent of charge and separation.
    """
    x, _ = quadratures(n_max, cfg.mass, cfg.freq)
    x1x2 = np.kron(x, x)
    return float(np.real(x1x2[n_max + 1, 0]))


def excited_state_shift(cfg: VdwConfig) -> ExcitedStateShift:
    """Transitions into the first excited manifold and their mean shift.

    The coupled levels above the ground state sit at omega_minus and
    omega_plus, so the mean transition moves by the same amount as the
    ground state: (w+ + w-)/2 - w0.
    """
    modes = normal_modes(cfg)
    low, high = sorted((modes.omega_plus, modes.omega_minus))
    return ExcitedStateShift(
        transition_low=low,
        transition_high=high,
        mean_shift=0.5 * (modes.omega_plus + modes.omega_minus) - cfg.freq,
    )


def polarizability(cfg: VdwConfig) -> float:
    """Static polarizability 2 e^2 / (m w0^2) of one charged oscillator."""
    return 2.0 * cfg.charge**2 / (cfg.mass * cfg.freq**2)


def _single_oscillator(cfg: VdwConfig, n_max: int):
    """One oscillator's truncated p^2/2m + m w0^2 x^2 / 2 and its x matrix."""
    x, p = quadratures(n_max, cfg.mass, cfg.freq)
    p_sq = np.real(p @ p)  # imaginary parts are exact zeros
    return p_sq / (2.0 * cfg.mass) + 0.5 * cfg.mass * cfg.freq**2 * (x @ x), x


def coupled_hamiltonian_fock(cfg: VdwConfig, n_max: int) -> np.ndarray:
    """Dense H on the two-mode truncated Fock space, built from quadratures.

    p^2/2m + m w0^2 x^2 / 2 for each oscillator plus lambda x1 x2; real
    symmetric.  The dense reference that fock_ground_state's sector blocks
    are checked against.  Every term changes n1 + n2 by 0 or +-2, so H has
    no entry between the even and odd (-1)^(n1 + n2) parity sectors.
    """
    h_single, x = _single_oscillator(cfg, n_max)
    eye = np.eye(n_max)
    lam = dipole_coupling_lambda(cfg)
    return np.kron(h_single, eye) + np.kron(eye, h_single) + lam * np.kron(x, x)


def _product_nonzeros(h_single: np.ndarray, x: np.ndarray, lam: float):
    """Nonzero entries of h x 1 + 1 x h + lam x x as flat (row, column,
    value) arrays, the state |n1, n2> having flat index n1 n_max + n2."""
    n = len(h_single)
    k = np.arange(n)
    hr, hc = np.nonzero(h_single)
    xr, xc = np.nonzero(x)
    h_vals, x_vals = h_single[hr, hc], x[xr, xc]
    # h x 1 couples |a, k> to |c, k>, 1 x h couples |k, a> to |k, c>, and
    # x x couples |a, b> to |c, d>
    rows = (np.add.outer(hr * n, k), np.add.outer(k * n, hr), np.add.outer(xr * n, xr))
    cols = (np.add.outer(hc * n, k), np.add.outer(k * n, hc), np.add.outer(xc * n, xc))
    vals = (np.repeat(h_vals, n), np.tile(h_vals, n), lam * np.outer(x_vals, x_vals))
    return tuple(np.concatenate([part.ravel() for part in parts])
                 for parts in (rows, cols, vals))


def _sector_blocks(cfg: VdwConfig, n_max: int):
    """The four parity x exchange blocks of coupled_hamiltonian_fock(cfg, n_max).

    Both oscillators are identical, so H commutes with the exchange
    n1 <-> n2 as well as with (-1)^(n1 + n2).  Basis state i of a sector is
    N_i (|a_i, b_i> + sign |b_i, a_i>) with a_i <= b_i, N_i = 1/sqrt2 for
    a_i < b_i and 1/2 for a_i == b_i (the state |a_i, a_i>, symmetric
    sectors only).  Yields ``(index, coef, block)`` per sector: for every
    product state s = |n1, n2>, flat index n1 n_max + n2, index[s] is the
    basis state it belongs to (-1 outside the sector) and coef[s] =
    <S_index[s]|s> (0 outside).  The even symmetric sector, which holds
    the vacuum |0, 0>, comes first.  Each block is scattered from the
    nonzero entries of H; no n_max^2 matrix is built.
    """
    h_single, x = _single_oscillator(cfg, n_max)
    rows, cols, vals = _product_nonzeros(h_single, x, dipole_coupling_lambda(cfg))
    a_all, b_all = np.triu_indices(n_max)
    even = (a_all + b_all) % 2 == 0
    pair = a_all < b_all
    for mask, sign in ((even, 1.0), (even & pair, -1.0), (~even, 1.0), (~even, -1.0)):
        a, b = a_all[mask], b_all[mask]
        dim = len(a)
        index = np.full(n_max * n_max, -1)
        index[b * n_max + a] = index[a * n_max + b] = np.arange(dim)
        coef = np.zeros(n_max * n_max)
        norm = np.where(a == b, 1.0, np.sqrt(0.5))
        coef[b * n_max + a] = sign * norm
        coef[a * n_max + b] = norm
        inside = (index[rows] >= 0) & (index[cols] >= 0)
        r, c = rows[inside], cols[inside]
        block = np.bincount(index[r] * dim + index[c], weights=coef[r] * vals[inside] * coef[c],
                            minlength=dim * dim)
        yield index, coef, block.reshape(dim, dim)


def _lies_above(block: np.ndarray, energy: float) -> bool:
    """Whether every eigenvalue of ``block`` exceeds ``energy``: block - energy
    is then positive definite, which its Cholesky factor certifies."""
    try:
        np.linalg.cholesky(block - energy * np.eye(len(block)))
    except np.linalg.LinAlgError:
        return False
    return True


def fock_ground_state(cfg: VdwConfig, n_max: int, with_state: bool = False):
    """Ground energy of the two-mode Fock Hamiltonian, solved per sector.

    The vacuum's block (even parity, exchange symmetric) is diagonalized;
    each other parity x exchange block is certified to lie above that
    energy by a Cholesky factorization, and a block that fails the
    certificate is diagonalized too, the lowest energy winning.  So the
    result is the ground energy of coupled_hamiltonian_fock(cfg, n_max)
    whichever sector holds it.  Raises DimensionLimitError when n_max^2
    exceeds the dense-matrix limit.

    Returns ``(energy, psi)``.  With ``with_state`` the winning block's
    eigenvector is computed too and returned as the n_max x n_max amplitude
    matrix psi[n1, n2]; otherwise psi is None.
    """
    if n_max * n_max > DEFAULT_DIM_LIMIT:
        raise DimensionLimitError(
            f"Fock dimension n_max^2 = {n_max * n_max} exceeds limit "
            f"{DEFAULT_DIM_LIMIT}; reduce n_max")
    energy, ground = None, None
    for index, coef, block in _sector_blocks(cfg, n_max):
        if energy is not None and _lies_above(block, energy):
            continue
        if with_state:
            values, vectors = np.linalg.eigh(block)
        else:
            values, vectors = np.linalg.eigvalsh(block), None
        if energy is None or values[0] < energy:
            energy, ground = float(values[0]), (index, coef, vectors)
    if not with_state:
        return energy, None
    index, coef, vectors = ground
    # coef is 0 outside the winning sector, where index is -1
    return energy, (coef * vectors[index, 0]).reshape(n_max, n_max)


def vdw_fock_oracle(cfg: VdwConfig, n_max: int = 20) -> ConvergedValue:
    """Ground shift by diagonalizing the truncated Fock^2 Hamiltonian.

    Independent check of exact_ground_shift: solve the truncated two-mode
    Hamiltonian sector by sector (fock_ground_state) and subtract the
    uncoupled ground energy w0.  The converged flag compares against the
    n_max - 2 truncation.
    """
    if n_max < 8:
        raise ValueError(f"n_max must be >= 8 for a meaningful oracle, got {n_max}")

    def ground_shift(n):
        return fock_ground_state(cfg, n)[0] - cfg.freq

    return ConvergedValue(*truncation_probe(
        ground_shift(n_max), lambda: ground_shift(n_max - 2), FOCK_CONVERGENCE_TOL))
