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

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import operators
from .errors import DimensionLimitError, UnstableConfigurationError
from .operators import DEFAULT_DIM_LIMIT, lanczos, quadratures

FOCK_CONVERGENCE_TOL = 1e-8
# the Lanczos energy of the Fock ground state is certified to lie within its
# residual plus this fraction of max(1, |energy|) above H's minimum, and a
# separable bound must clear it by this fraction to count as lying above it
FOCK_CERTIFICATE_RTOL = 1e-10


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
    the energy.  Raises OverflowError when R^3 underflows to 0.
    """
    cube = cfg.separation**3
    if cube == 0.0:
        raise OverflowError(f"overflow: separation**3 underflows to 0 at {cfg.separation!r}")
    return -2.0 * cfg.coulomb_k * cfg.charge**2 / cube


def _stiffness(cfg: VdwConfig) -> float:
    """m w0^2; OverflowError when it underflows to 0, as its quotients overflow."""
    stiffness = cfg.mass * cfg.freq**2
    if stiffness == 0.0:
        raise OverflowError(f"overflow: mass * freq**2 underflows to 0 at freq {cfg.freq!r}")
    return stiffness


def coupling_ratio(cfg: VdwConfig) -> float:
    """Dimensionless lambda / (m w0^2), stable for |ratio| < 1; OverflowError if m w0^2 is 0."""
    return dipole_coupling_lambda(cfg) / _stiffness(cfg)


def _mode_frequencies(cfg: VdwConfig) -> tuple:
    """(omega_plus, omega_minus); see normal_modes."""
    u = coupling_ratio(cfg)
    rad_plus, rad_minus = 1.0 - u, 1.0 + u
    if rad_plus <= 0 or rad_minus <= 0:
        raise UnstableConfigurationError(
            f"|lambda| = {abs(dipole_coupling_lambda(cfg)):.6g} >= m w0^2 = "
            f"{cfg.mass * cfg.freq**2:.6g}; a normal mode frequency is imaginary"
        )
    return cfg.freq * math.sqrt(rad_plus), cfg.freq * math.sqrt(rad_minus)


def normal_modes(cfg: VdwConfig) -> NormalModes:
    """Exact normal-mode frequencies w0 sqrt(1 -+ u), u = lambda/(m w0^2)."""
    return NormalModes(*_mode_frequencies(cfg))


def exact_ground_shift(cfg: VdwConfig) -> float:
    """Ground energy shift (w+ + w-)/2 - w0; strictly negative for lambda != 0."""
    omega_plus, omega_minus = _mode_frequencies(cfg)
    return 0.5 * (omega_plus + omega_minus) - cfg.freq


def perturbative_ground_shift(cfg: VdwConfig) -> float:
    """Second-order ground shift -lambda^2 / (8 m^2 w0^3).

    Equals -e^4 k^2 / (2 m^2 w0^3 R^6), the R^-6 dispersion law;
    OverflowError if 8 m^2 w0^3 underflows to 0.
    """
    lam = dipole_coupling_lambda(cfg)
    denominator = 8.0 * cfg.mass**2 * cfg.freq**3
    if denominator == 0.0:
        raise OverflowError(f"overflow: 8 * mass**2 * freq**3 underflows to 0 at freq {cfg.freq!r}")
    return -(lam * lam) / denominator


def matrix_element_x1x2(cfg: VdwConfig) -> float:
    """<1,1| x1 x2 |0,0> = <1|x|0>^2, read from the quadrature matrix on the
    levels 0 and 1, which hold both states.

    Computed from the position matrix rather than the closed form
    1/(2 m w0); independent of charge and separation.
    """
    x, _ = quadratures(2, cfg.mass, cfg.freq)
    return float(x[1, 0] * x[1, 0])


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
    """Static polarizability 2 e^2 / (m w0^2); OverflowError if m w0^2 is 0."""
    return 2.0 * cfg.charge**2 / _stiffness(cfg)


class _LevelArrays(NamedTuple):
    """The arrays of an n_max-level oscillator that depend on n_max alone:
    the levels k, h / w0 (see _single_oscillator), x sqrt(2 m w0) = A + A^T,
    k!, sqrt(k!), and _gaussian_amplitudes' Toeplitz gather index
    n_max - 1 + m - k at [m, k]."""

    level: np.ndarray
    diagonal: np.ndarray
    x: np.ndarray
    factorial: np.ndarray
    root_factorial: np.ndarray
    rise_index: np.ndarray


@lru_cache(maxsize=8)
def _level_arrays(n_max: int) -> _LevelArrays:
    """_LevelArrays at n_max levels, built once per n_max and shared,
    read-only, by every config, as full_model._coupling_bands is.  Nothing
    that reads a config, and no solve, is cached."""
    a = operators.ladder(n_max)
    level = np.arange(n_max)
    diagonal = level + 0.5
    diagonal[-1] = (n_max - 1) / 2
    factorial = np.cumprod(np.maximum(level, 1.0))
    arrays = _LevelArrays(level, diagonal, a + a.T, factorial, np.sqrt(factorial),
                          (n_max - 1 + level)[:, None] - level)
    for array in arrays:
        array.setflags(write=False)
    return arrays


def _single_oscillator(cfg: VdwConfig, n_max: int):
    """The diagonal d of one oscillator's truncated h = p^2/2m + m w0^2 x^2/2,
    and its x matrix: on the truncated quadratures h = (w0/2)(A A^T + A^T A),
    A the truncated lowering matrix, so d[k] = w0 (k + 1/2), except that
    A A^T drops the top level's n + 1: d[n_max - 1] = w0 (n_max - 1)/2.
    Both scale the read-only arrays of _level_arrays."""
    arrays = _level_arrays(n_max)
    return cfg.freq * arrays.diagonal, np.sqrt(1.0 / (2.0 * cfg.mass * cfg.freq)) * arrays.x


def coupled_hamiltonian_fock(cfg: VdwConfig, n_max: int) -> np.ndarray:
    """Dense H on the two-mode truncated Fock space, built from quadratures.

    p^2/2m + m w0^2 x^2 / 2 for each oscillator, the imaginary parts of
    p @ p exact zeros, plus lambda x1 x2; real symmetric.  The independent
    dense reference, squaring the quadratures where _single_oscillator
    reads h's diagonal: fock_ground_state's product and sector blocks are
    checked against it, and no solver builds it.
    Every term changes n1 + n2 by 0 or +-2, so H has no entry between the
    even and odd (-1)^(n1 + n2) parity sectors.
    """
    x, p = quadratures(n_max, cfg.mass, cfg.freq)
    h_single = np.real(p @ p) / (2.0 * cfg.mass) + 0.5 * cfg.mass * cfg.freq**2 * (x @ x)
    eye = np.eye(n_max)
    lam = dipole_coupling_lambda(cfg)
    return np.kron(h_single, eye) + np.kron(eye, h_single) + lam * np.kron(x, x)


def _product(diagonal: np.ndarray, x: np.ndarray, lam: float, s: np.ndarray) -> np.ndarray:
    """H s for a symmetric amplitude matrix s[n1, n2], H = h x 1 + 1 x h +
    lam x x with h = diag(diagonal): A + A^T with A = h s + (lam/2) x s x."""
    a = diagonal[:, None] * s + (0.5 * lam) * (x @ s @ x)
    return a + a.T


def _product_nonzeros(diagonal: np.ndarray, x: np.ndarray, lam: float):
    """Nonzero entries of h x 1 + 1 x h + lam x x, h = diag(diagonal), as flat
    (row, column, value) arrays, |n1, n2> having flat index n1 n_max + n2:
    d[n1] + d[n2] on the diagonal and, x's diagonal being zero, lam x[a, c]
    x[b, d] <= 0 coupling |a, b> to |c, d> off it (lam <= 0, x >= 0)."""
    n = len(diagonal)
    xr, xc = np.nonzero(x)
    x_vals = x[xr, xc]
    rows = (np.arange(n * n), np.add.outer(xr * n, xr))
    cols = (np.arange(n * n), np.add.outer(xc * n, xc))
    vals = (np.add.outer(diagonal, diagonal), lam * np.outer(x_vals, x_vals))
    return tuple(np.concatenate([part.ravel() for part in parts])
                 for parts in (rows, cols, vals))


def _sector_blocks(diagonal: np.ndarray, x: np.ndarray, lam: float, sectors=range(2)):
    """The exchange-symmetric block of each parity of H = h x 1 + 1 x h +
    lam x x, h = diag(diagonal) and x the n_max-level terms of
    _single_oscillator, with no positive entry off the diagonal: for
    lam = dipole_coupling_lambda(cfg), the blocks of
    coupled_hamiltonian_fock(cfg, n_max) up to the rounding of its p @ p.

    Both oscillators are identical, so H commutes with the exchange
    n1 <-> n2 as well as with (-1)^(n1 + n2).  Basis state i of a sector is
    N_i (|a_i, b_i> + |b_i, a_i>) with a_i <= b_i, N_i = 1/sqrt2 for
    a_i < b_i and 1/2 for a_i == b_i.  The states are ordered by shell
    a_i + b_i, then by a_i.  Every term changes n1 + n2 by 0 or +-2 and a
    sector holds every other shell, so each block is block-tridiagonal over
    its shells.  The antisymmetric states need no block (Perron-Frobenius,
    see fock_ground_state).

    Yields ``(index, coef, block, bounds)`` for each sector that
    ``sectors`` names, in its order: for every product state s = |n1, n2>,
    flat index n1 n_max + n2, index[s] is the basis state it belongs to (-1
    outside the sector) and coef[s] = <S_index[s]|s>, the normalization
    (0 outside); shell j holds the basis states bounds[j] to
    bounds[j + 1] - 1.  Sector 0 is the even one, which holds the vacuum
    |0, 0> as its first basis state, and sector 1 the odd one.  Each block
    is scattered from the nonzero entries of H when it is drawn; no n_max^2
    matrix is built; fock_ground_state draws only those it leaves unsettled.
    """
    n_max = len(diagonal)
    rows, cols, vals = _product_nonzeros(diagonal, x, lam)
    a_all, b_all = np.triu_indices(n_max)
    order = np.lexsort((a_all, a_all + b_all))
    a_all, b_all = a_all[order], b_all[order]
    shell = a_all + b_all
    for sector in sectors:
        mask = shell % 2 == sector
        a, b = a_all[mask], b_all[mask]
        dim = len(a)
        index = np.full(n_max * n_max, -1)
        index[b * n_max + a] = index[a * n_max + b] = np.arange(dim)
        coef = np.zeros(n_max * n_max)
        coef[b * n_max + a] = coef[a * n_max + b] = np.where(a == b, 1.0, np.sqrt(0.5))
        inside = (index[rows] >= 0) & (index[cols] >= 0)
        r, c = rows[inside], cols[inside]
        block = np.bincount(index[r] * dim + index[c], weights=coef[r] * vals[inside] * coef[c],
                            minlength=dim * dim)
        bounds = np.append(np.flatnonzero(np.diff(shell[mask], prepend=-1)), dim)
        yield index, coef, block.reshape(dim, dim), bounds


def _lies_above(block: np.ndarray, bounds: np.ndarray, energy: float) -> bool:
    """Whether every eigenvalue of ``block`` exceeds ``energy``: block - energy
    is then positive definite, which its Cholesky factor certifies.

    The block is block-tridiagonal over the shells that ``bounds`` delimits
    (see _sector_blocks), so the factor has no fill outside them and is
    built one shell at a time.  Shell j's pivot is its diagonal block minus
    energy minus W^T W, where W = L^-1 C, L the previous shell's Cholesky
    factor and C the block coupling the previous shell to shell j.
    """
    update = 0.0
    for j in range(len(bounds) - 1):
        lo, hi = bounds[j], bounds[j + 1]
        try:
            factor = np.linalg.cholesky(block[lo:hi, lo:hi] - energy * np.eye(hi - lo) - update)
        except np.linalg.LinAlgError:
            return False
        if j + 2 < len(bounds):
            w = np.linalg.solve(factor, block[lo:hi, hi:bounds[j + 2]])
            update = w.T @ w
    return True


def _separable_bounds(diagonal: np.ndarray, x: np.ndarray, lam: float):
    """Lower bounds on the spectra of H's two sector blocks (see
    _sector_blocks) from a separable operator below H, h = diag(diagonal).

    (x x 1 +- 1 x x)^2 >= 0 gives lam x x x >= -(|lam|/2)(x^2 x 1 + 1 x x^2),
    so H >= B = h' x 1 + 1 x h' with h' = h - (|lam|/2) x^2.  Every term of
    h' changes the level by 0 or 2, so its even levels 0, 2, ... and its odd
    levels 1, 3, ... make two tridiagonal matrices, whose values one stacked
    call of LAPACK's symmetric eigensolver gives (np.linalg.eigvalsh on
    _parity_parts).  At odd n_max the odd part is one level short, and a
    decoupled level at max(diagonal) fills it: h' <= h, so no value of
    either part lies above h's top level, and the part's two lowest values
    are unchanged.  With e_0 <= e_1 the
    two lowest even values and o_0 <= o_1 the two lowest odd ones (n_max
    >= 4 gives both parts two levels), B's eigenvalues are the sums of two
    values.  B, like H, commutes with parity and exchange, so by Weyl's
    monotonicity and Cauchy's interlacing each eigenvalue of a sector block
    of H lies at or above the same eigenvalue of B in that parity: the
    vacuum block's second eigenvalue above the second smallest of 2 e_0,
    e_0 + e_1, 2 o_0 and o_0 + o_1, and the odd block's lowest above e_0 + o_0.

    Returns ``(second, odd)``: the bound on the vacuum block's second
    eigenvalue, and the bound on the odd block's lowest.
    """
    h_bound = np.diag(diagonal) - 0.5 * abs(lam) * (x @ x)
    (e0, e1), (o0, o1) = np.linalg.eigvalsh(_parity_parts(h_bound, np.max(diagonal)))[:, :2]
    return sorted((2.0 * e0, e0 + e1, 2.0 * o0, o0 + o1))[1], e0 + o0


def _parity_parts(mat: np.ndarray, pad: float) -> np.ndarray:
    """The even-level part mat[0::2, 0::2] and the odd-level part
    mat[1::2, 1::2] of the square ``mat``, stacked as one (2, m, m) array,
    m = ceil(len(mat) / 2), for one stacked eigensolve.  At odd len(mat) the
    odd part is one level short, and a level of value ``pad``, coupled to
    nothing, fills it."""
    n = len(mat)
    parts = np.zeros((2, (n + 1) // 2, (n + 1) // 2))
    parts[0] = mat[0::2, 0::2]
    parts[1, :n // 2, :n // 2] = mat[1::2, 1::2]
    if n % 2:
        parts[1, -1, -1] = pad
    return parts


def _gaussian_amplitudes(cfg: VdwConfig, n_max: int) -> np.ndarray:
    """The untruncated ground state's amplitudes psi[n1, n2], n1, n2 < n_max,
    unnormalized, psi[0, 0] = 1.

    A mode of frequency W has the vacuum exp(z b^dag^2 / 2)|0> in the levels
    of the bare oscillator, z = (w0 - W)/(w0 + W).  The symmetric mode
    (omega_minus) and the relative one (omega_plus) combine to
    exp(a^dag^T Z a^dag / 2)|0, 0> with Z11 = Z22 = (z_- + z_+)/2 and
    Z12 = (z_- - z_+)/2.  exp(Z12 a1^dag a2^dag)|0, 0> = sum_k Z12^k |k, k>,
    and exp(c a^dag^2)|k> = sum_j E[k + 2j, k] |k + 2j> with c = Z11/2 and
    E[k + 2j, k] = c^j sqrt((k + 2j)!/k!) / j!, so psi = E diag(Z12^k) E^T.
    E = F G F^-1 with F = diag(sqrt(n!)) and G[m, k] = c^j / j! for
    m - k = 2j >= 0, 0 otherwise: G depends on m - k alone, so it is
    gathered with one index from a vector of length 2 n_max - 1, and
    psi = F G diag(Z12^k / k!) G^T F.  The index, n! and F come from
    _level_arrays.  No raising operator lowers a level,
    so the amplitudes below n_max are exact; every odd-parity amplitude is
    a sum of exact zeros.  Rounding leaves psi symmetric only up to an ulp.
    """
    omega_plus, omega_minus = _mode_frequencies(cfg)
    z_plus, z_minus = ((cfg.freq - w) / (cfg.freq + w) for w in (omega_plus, omega_minus))
    arrays = _level_arrays(n_max)
    level, factorial = arrays.level, arrays.factorial
    # rise[n_max - 1 + m - k] = G[m, k], and raise_pairs = F G
    rise = np.zeros(2 * n_max - 1)
    half = (n_max + 1) // 2
    rise[n_max - 1::2] = np.power(0.25 * (z_minus + z_plus), level[:half]) / factorial[:half]
    raise_pairs = arrays.root_factorial[:, None] * rise[arrays.rise_index]
    return (raise_pairs * (np.power(0.5 * (z_minus - z_plus), level) / factorial)) @ raise_pairs.T


def fock_ground_state(cfg: VdwConfig, n_max: int):
    """Ground energy and state of the two-mode Fock Hamiltonian, solved
    matrix-free on its amplitude matrix.

    H acts on the n_max x n_max amplitude matrix Psi[n1, n2] as
    h Psi + Psi h + lambda x Psi x, h = diag(d) and x from
    _single_oscillator, and operators.lanczos finds its lowest Ritz pair
    from that product alone.  H commutes with the parity (-1)^(n1 + n2) and
    the exchange n1 <-> n2, so a run started from an even, symmetric Psi
    stays in the vacuum's sector, and it is capped at that sector's
    dimension (420 at n_max 40).  _product takes it on the symmetric part
    of Psi and rounds to an exactly symmetric matrix, so rounding cannot
    seed an antisymmetric part that the run would amplify (the three terms
    evaluated one by one let it grow to 2e-14 at n_max 8, u 0.97), and
    odd-parity amplitudes stay exact zeros.

    The run starts from the untruncated ground state cut to n_max levels
    (_gaussian_amplitudes) plus its transpose, which lies in the vacuum's
    sector: its odd-parity amplitudes are exact zeros, and the transpose
    matters, as the amplitudes are symmetric only up to an ulp and the
    product's null space holds every antisymmetric part, which Lanczos
    would amplify to a Ritz value near 0 below the whole spectrum.  Up to
    coupling ~0.77 at n_max 40 (~0.91 at n_max 64) the run ends after one
    product: the truncation leaves the start's residual under the stop
    tolerance, and lanczos returns the start as its Ritz vector.

    The run gives the Ritz value theta and its residual r, and theta is the
    ground energy once H is certified to have no eigenvalue below theta -
    margin, margin = r + tol and tol = FOCK_CERTIFICATE_RTOL max(1, |theta|).
    Only the two exchange-symmetric sectors of _sector_blocks need it.  h
    being diagonal, H's entries off its diagonal are exactly
    lambda x[a, c] x[b, d], and x >= 0 entrywise and lambda = -2 k e^2 / R^3
    <= 0 make each <= 0: each parity block is a Z-matrix, whose lowest
    eigenvalue has an entrywise nonnegative eigenvector v (Perron-Frobenius;
    Berman and Plemmons, Nonnegative Matrices in the Mathematical Sciences,
    ch. 6).  With P the exchange, v + Pv is a symmetric eigenvector of that
    eigenvalue, so no antisymmetric eigenvalue lies below the lowest
    symmetric one of its parity; a test pins the premise.  The vacuum's
    sector, where the run lies, is settled by Temple's inequality when
    theta + tol < rho, rho = the separable bound on its second eigenvalue
    (_separable_bounds): its lowest eigenvalue then lies at or above
    theta - r^2 / (rho - theta), and r^2 / (rho - theta) <= margin
    certifies theta.  The odd sector is settled when its separable bound
    exceeds theta + tol.  A sector left unsettled has its block built and
    factored shell by shell (_lies_above): the vacuum's against
    theta - margin, the odd one against theta.  Below coupling ~0.8 no
    block is built; from ~0.8 the odd bound 2 w0 sqrt(1 - u) falls below
    theta and the odd block is factored, and from ~0.93 (n_max 24 to 64)
    both are.  If every factorization passes, theta and its Ritz vector are
    returned.  A block that fails is diagonalized as built, by
    operators._dense_eigh, and its lowest eigenpair replaces theta and the
    Ritz vector, mapped back to the amplitude matrix through the sector's
    index and coef; the odd block is factored against the energy held
    then, theta unless the vacuum's block was just solved.  No block
    failed on a grid of n_max 12 to 64 and couplings 0 to 0.995, and no
    n_max^2 matrix is built.  So the result lies within margin of H's
    ground energy whichever sector holds it, which is
    coupled_hamiltonian_fock(cfg, n_max)'s up to the rounding of its p @ p;
    the start changes only how many Lanczos steps that takes.

    Raises ValueError when n_max < 4 (a level parity class of h' then has
    fewer than two levels, and there is no bound), DimensionLimitError when
    n_max^2 exceeds the dense-matrix limit, and UnstableConfigurationError,
    as normal_modes does, when |lambda| >= m w0^2: the pair then has no
    ground state, and its truncated Hamiltonian's lowest level means nothing.

    Returns ``(energy, psi)``, psi the ground state as the n_max x n_max
    amplitude matrix psi[n1, n2].
    """
    _mode_frequencies(cfg)  # raises for an unstable pair
    if n_max < 4:
        raise ValueError(f"n_max must be >= 4 for the separable bound, got {n_max}")
    if n_max * n_max > DEFAULT_DIM_LIMIT:
        raise DimensionLimitError(
            f"Fock dimension n_max^2 = {n_max * n_max} exceeds limit "
            f"{DEFAULT_DIM_LIMIT}; reduce n_max")
    diagonal, x = _single_oscillator(cfg, n_max)
    lam = dipole_coupling_lambda(cfg)
    second, odd_bound = _separable_bounds(diagonal, x, lam)
    gaussian = _gaussian_amplitudes(cfg, n_max)
    # its exchange-symmetric part, up to a factor 2; its odd-parity part is 0
    start = gaussian + gaussian.T

    def matvec(v):
        psi = v.reshape(n_max, n_max)
        return _product(diagonal, x, lam, 0.5 * (psi + psi.T)).ravel()

    # the vacuum's sector holds the pairs n1 <= n2 of even n1 + n2
    evens, odds = (n_max + 1) // 2, n_max // 2
    theta, vector, residual, _ = lanczos(matvec, start.ravel(),
                                         max_steps=(evens * (evens + 1) + odds * (odds + 1)) // 2)
    tolerance = FOCK_CERTIFICATE_RTOL * max(1.0, abs(theta))
    margin = residual + tolerance
    # Temple's inequality on the vacuum's sector, whose second eigenvalue
    # lies at or above ``second``
    vacuum_certified = (theta + tolerance < second
                        and residual * residual / (second - theta) <= margin)
    unsettled = [] if vacuum_certified else [0]
    if odd_bound <= theta + tolerance:
        unsettled.append(1)
    blocks = _sector_blocks(diagonal, x, lam, unsettled) if unsettled else ()
    energy, psi = theta, vector
    for sector, (index, coef, block, bounds) in zip(unsettled, blocks):
        if not _lies_above(block, bounds, theta - margin if sector == 0 else energy):
            values, vectors = operators._dense_eigh(block)
            energy, psi = float(values[0]), coef * vectors[index, 0]
    return energy, psi.reshape(n_max, n_max)


class UntruncatedEnclosure(NamedTuple):
    """What one truncated ground state certifies about the untruncated one,
    psi_inf: ``low <= E <= high`` for its energy E, and psi = kappa psi_inf +
    t with t orthogonal to psi_inf, ``overlap_low <= kappa <= overlap_high``
    and the nuclear norm of t's amplitude matrix at most ``spread``."""

    low: float
    high: float
    overlap_low: float
    overlap_high: float
    spread: float


def _untruncated_enclosure(cfg: VdwConfig, psi: np.ndarray):
    """UntruncatedEnclosure of the untruncated two-mode Hamiltonian's ground
    state from a unit truncated amplitude matrix psi[n1, n2]; None where
    none is certified.

    phi is psi's part in the vacuum's sector (exchange-symmetric, even
    n1 + n2), of norm c, renormalized and padded with a zero level n_max;
    None is returned when c^2 < 1/2, as for an odd ground state solved from
    its block.  _product with the exact h = w0 (n + 1/2) and x on
    n_max + 1 levels gives the untruncated H phi, so theta = <phi|H|phi> >=
    E and r = ||H phi - theta phi|| are H's own, the in-box residual of the
    solve included.  H >= h' x 1 + 1 x h' with h' the oscillator of
    frequency w' = w0 sqrt(1 - u), u = |lambda|/(m w0^2), the softer normal
    mode (see _separable_bounds), and this bound commutes with parity and
    exchange, so every level of H outside the vacuum's sector lies at or
    above 2 w', and the sector's own second level at or above 3 w'.  When
    theta + tol < 2 w', tol = FOCK_CERTIFICATE_RTOL max(1, |theta|), E is
    the sector's lowest level, and with gamma = 3 w' - theta:

    - Temple's inequality (Parlett, The Symmetric Eigenvalue Problem,
      ch. 10) gives E >= theta - r^2 / gamma, and w = sqrt(r^2 + (r^2 /
      gamma)^2) >= ||(H - E) phi||.
    - phi = cos(a) psi_inf + s, phased so that cos(a) >= 0, and sin(a) <=
      w / gamma by Davis-Kahan inside the sector (Parlett, ch. 11).
    - s = R (H - E) phi with R = (H - E)^-1 on psi_inf's complement in the
      sector, ||R|| <= 1/gamma, and H R y = y + E R y, so ||H s|| <= w (1 +
      theta / gamma).
    - H = w0 (N + 1) - (u w0 / 2)(a1 + a1^dag)(a2 + a2^dag), and (a +
      a^dag)^2 <= 4 n + 2 and (2 n1 + 1)(2 n2 + 1) <= (N + 1)^2 give
      ||(a1 + a1^dag)(a2 + a2^dag) v|| <= 2 ||(N + 1) v||, so ||H v|| >=
      (1 - u) w0 ||(N + 1) v|| for every v.
    - By Hoelder, ||S||_* <= ||diag(1 + n1)^-1||_F ||(1 + n1) S||_F <=
      (pi / sqrt6) ||(N + 1) s||, S the amplitude matrix of s.

    So ||S||_* <= B = (pi / sqrt6) w (1 + theta / gamma) / ((1 - u) w0).
    psi = c phi + e, e its part outside the sector, so kappa = c cos(a)
    lies in [c sqrt(1 - (w / gamma)^2), c] and t = c s + e has nuclear norm
    at most c B + sqrt(n_max) ||e||_F.  Tests pin the two premises.  Past
    coupling 0.8, 2 w' falls below E, and None is returned.
    """
    n_max = len(psi)
    phi = np.zeros((n_max + 1, n_max + 1))
    phi[:n_max, :n_max] = 0.5 * (psi + psi.T)
    # zero the odd-parity amplitudes, those of n1 and n2 of opposite parity
    phi[::2, 1::2] = phi[1::2, ::2] = 0.0
    weight = np.vdot(phi, phi)
    if weight < 0.5:
        return None
    outside = float(np.linalg.norm(psi - phi[:n_max, :n_max]))
    norm = math.sqrt(weight)
    phi /= norm
    _, x = _single_oscillator(cfg, n_max + 1)
    h_phi = _product(cfg.freq * (np.arange(n_max + 1) + 0.5), x, dipole_coupling_lambda(cfg), phi)
    theta = float(np.vdot(phi, h_phi))
    soft = min(_mode_frequencies(cfg))
    if theta + FOCK_CERTIFICATE_RTOL * max(1.0, abs(theta)) >= 2.0 * soft:
        return None
    residual = float(np.linalg.norm(h_phi - theta * phi))
    gap = 3.0 * soft - theta
    drop = residual * residual / gap
    sine = math.hypot(residual, drop) / gap
    nuclear = (math.pi / math.sqrt(6.0) * sine * (gap + theta)
               / ((1.0 - abs(coupling_ratio(cfg))) * cfg.freq))
    return UntruncatedEnclosure(theta - drop, theta, norm * math.sqrt(max(0.0, 1.0 - sine * sine)),
                                norm, norm * nuclear + math.sqrt(n_max) * outside)


def vdw_fock_oracle(cfg: VdwConfig, n_max: int = 20) -> ConvergedValue:
    """Ground shift from the lowest level of the truncated Fock^2 Hamiltonian.

    Independent check of exact_ground_shift: the ground energy of the
    truncated two-mode Hamiltonian, solved on its amplitude matrix and
    certified (fock_ground_state), minus the uncoupled ground energy w0.
    The converged flag reads whether both ends of an enclosure of the
    untruncated ground energy, built from the solved state alone
    (_untruncated_enclosure), lie within FOCK_CONVERGENCE_TOL of the
    truncated energy.  Where no enclosure is certified (past coupling 0.8,
    or a ground state outside the vacuum's sector) it compares against the
    n_max - 2 truncation instead, solved the same way.
    """
    if n_max < 8:
        raise ValueError(f"n_max must be >= 8 for a meaningful oracle, got {n_max}")
    energy, psi = fock_ground_state(cfg, n_max)
    enclosure = _untruncated_enclosure(cfg, psi)
    ends = enclosure[:2] if enclosure else (fock_ground_state(cfg, n_max - 2)[0],)
    value = energy - cfg.freq
    return ConvergedValue(value, all(abs((end - cfg.freq) - value) <= FOCK_CONVERGENCE_TOL
                                     for end in ends))
