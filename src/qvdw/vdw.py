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

import numpy as np

from . import operators
from .errors import DimensionLimitError, UnstableConfigurationError
from .operators import DEFAULT_DIM_LIMIT, lanczos, quadratures, truncation_probe

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
    the energy.
    """
    return -2.0 * cfg.coulomb_k * cfg.charge**2 / cfg.separation**3


def coupling_ratio(cfg: VdwConfig) -> float:
    """Dimensionless lambda / (m w0^2); |ratio| < 1 is the stable regime."""
    return dipole_coupling_lambda(cfg) / (cfg.mass * cfg.freq**2)


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

    Equals -e^4 k^2 / (2 m^2 w0^3 R^6), the R^-6 dispersion law.
    """
    lam = dipole_coupling_lambda(cfg)
    return -(lam * lam) / (8.0 * cfg.mass**2 * cfg.freq**3)


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
    symmetric.  The dense reference that fock_ground_state's product on the
    amplitude matrix and its sector blocks are checked against; the solver
    builds it only for its dense fallback, when a block certificate fails.
    Every term changes n1 + n2 by 0 or +-2, so H has no entry between the
    even and odd (-1)^(n1 + n2) parity sectors.
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


def _sector_blocks(h_single: np.ndarray, x: np.ndarray, lam: float, sectors=range(4)):
    """The four parity x exchange blocks of H = h x 1 + 1 x h + lam x x, h
    and x the n_max-level matrices of _single_oscillator: the blocks of
    coupled_hamiltonian_fock(cfg, n_max) for lam = dipole_coupling_lambda(cfg).

    Both oscillators are identical, so H commutes with the exchange
    n1 <-> n2 as well as with (-1)^(n1 + n2).  Basis state i of a sector is
    N_i (|a_i, b_i> + sign |b_i, a_i>) with a_i <= b_i, N_i = 1/sqrt2 for
    a_i < b_i and 1/2 for a_i == b_i (the state |a_i, a_i>, symmetric
    sectors only).  The states are ordered by shell a_i + b_i, then by a_i.
    Every term changes n1 + n2 by 0 or +-2 and a sector holds every other
    shell, so each block is block-tridiagonal over its shells.

    Yields ``(index, coef, block, bounds)`` for each sector that
    ``sectors`` names, in its order: for every product state s = |n1, n2>,
    flat index n1 n_max + n2, index[s] is the basis state it belongs to (-1
    outside the sector) and coef[s] = <S_index[s]|s> (0 outside); shell j
    holds the basis states bounds[j] to bounds[j + 1] - 1.  Sector 0 is the
    even symmetric one, which holds the vacuum |0, 0> as its first basis
    state, then come the even antisymmetric, the odd symmetric and the odd
    antisymmetric sectors.  Each block is scattered from the nonzero
    entries of H when it is drawn; no n_max^2 matrix is built.
    fock_ground_state draws only the blocks that its Temple test and its
    separable bounds leave unsettled (none below coupling ~0.8), to factor
    them with _lies_above.
    """
    n_max = len(h_single)
    rows, cols, vals = _product_nonzeros(h_single, x, lam)
    a_all, b_all = np.triu_indices(n_max)
    order = np.lexsort((a_all, a_all + b_all))
    a_all, b_all = a_all[order], b_all[order]
    shell = a_all + b_all
    even = shell % 2 == 0
    pair = a_all < b_all
    signed_masks = ((even, 1.0), (even & pair, -1.0), (~even, 1.0), (~even, -1.0))
    for sector in sectors:
        mask, sign = signed_masks[sector]
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


def _separable_bounds(h_single: np.ndarray, x: np.ndarray, lam: float):
    """Lower bounds on the spectra of H's sector blocks (see _sector_blocks)
    from a separable operator below H.

    (x x 1 +- 1 x x)^2 >= 0 gives lam x x x >= -(|lam|/2)(x^2 x 1 + 1 x x^2),
    so H >= B = h' x 1 + 1 x h' with h' = h - (|lam|/2) x^2.  Every term of
    h' changes the level by 0 or 2, so its even levels 0, 2, ... and its odd
    levels 1, 3, ... make two tridiagonal matrices, whose values LAPACK's
    symmetric eigensolver gives (np.linalg.eigvalsh).  With e_0 <= e_1 the
    two lowest even values and o_0 <= o_1 the two lowest odd ones (n_max
    >= 4 gives both parts two levels), B's eigenvalues are the sums of two
    values.  B, like H, commutes with parity and exchange, so by Weyl's
    monotonicity each eigenvalue of a sector block of H lies at or above
    the same eigenvalue of B's block in that sector: the vacuum block's
    second eigenvalue above the second smallest of 2 e_0, e_0 + e_1, 2 o_0
    and o_0 + o_1, the even antisymmetric block's lowest above
    min(e_0 + e_1, o_0 + o_1), and both odd blocks' lowest above e_0 + o_0.

    Returns ``(second, lowest)``: the bound on the vacuum block's second
    eigenvalue, and the bounds on the lowest eigenvalues of sectors 1, 2
    and 3.
    """
    h_bound = h_single - 0.5 * abs(lam) * (x @ x)
    (e0, e1), (o0, o1) = (np.linalg.eigvalsh(h_bound[p::2, p::2])[:2] for p in (0, 1))
    second = sorted((2.0 * e0, e0 + e1, 2.0 * o0, o0 + o1))[1]
    return second, (min(e0 + e1, o0 + o1), e0 + o0, e0 + o0)


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
    No raising operator lowers a level, so the amplitudes below n_max are
    exact; every odd-parity amplitude is an exact zero.  Rounding leaves psi
    symmetric only up to an ulp.
    """
    omega_plus, omega_minus = _mode_frequencies(cfg)
    z_plus, z_minus = ((cfg.freq - w) / (cfg.freq + w) for w in (omega_plus, omega_minus))
    level = np.arange(n_max)
    rise = level[:, None] - level  # 2 j on E's nonzero entries
    j = np.maximum(rise, 0) // 2
    factorial = np.cumprod(np.maximum(level, 1.0))
    raise_pairs = np.where((rise >= 0) & (rise % 2 == 0), np.power(0.25 * (z_minus + z_plus), j)
                           * np.sqrt(factorial[:, None] / factorial) / factorial[j], 0.0)
    return (raise_pairs * np.power(0.5 * (z_minus - z_plus), level)) @ raise_pairs.T


def fock_ground_state(cfg: VdwConfig, n_max: int):
    """Ground energy and state of the two-mode Fock Hamiltonian, solved
    matrix-free on its amplitude matrix.

    H acts on the n_max x n_max amplitude matrix Psi[n1, n2] as
    h Psi + Psi h + lambda x Psi x, h and x the one-oscillator matrices of
    _single_oscillator, and operators.lanczos finds its lowest Ritz pair
    from that product alone.  H commutes with the parity (-1)^(n1 + n2) and
    the exchange n1 <-> n2, so a run started from an even, symmetric Psi
    stays in the vacuum's sector, and it is capped at that sector's
    dimension (420 at n_max 40).  The product is taken on the symmetric part
    S of Psi, as A + A^T with A = h S + (lambda/2) x S x, which rounds to an
    exactly symmetric matrix: rounding then cannot seed an antisymmetric
    part that the run would amplify (h Psi + Psi h + lambda x Psi x
    evaluated term by term lets it grow to 2e-14 at n_max 8, u 0.97), and
    odd-parity amplitudes stay exact zeros.

    The run starts from the untruncated ground state cut to n_max levels
    (_gaussian_amplitudes) plus its transpose.  Its odd-parity amplitudes
    are exact zeros, so that sum lies in the vacuum's sector.  The exchange
    projection is needed: rounding leaves the amplitudes symmetric only up
    to an ulp, and the product reads only the symmetric part, so an
    antisymmetric part of the start, however small, lies in its null space,
    and Lanczos would amplify it to a Ritz value near 0 below the whole
    spectrum.
    Below coupling ~0.8 at n_max 40 the run stops at its first Ritz check,
    the truncation leaving the start's residual under the stop tolerance.

    The run gives the Ritz value theta and its residual r, and theta is the
    ground energy once H is certified to have no eigenvalue below theta -
    margin, margin = r + tol and tol = FOCK_CERTIFICATE_RTOL max(1, |theta|).
    That takes one pass over the four sectors of _sector_blocks.  The
    vacuum's sector, where the run lies, is settled by Temple's inequality
    when theta + tol < rho, rho = the separable bound on its second
    eigenvalue (_separable_bounds): its lowest eigenvalue then lies at or
    above theta - r^2 / (rho - theta), and r^2 / (rho - theta) <= margin
    certifies theta.  Each other sector is settled when its separable bound
    exceeds theta + tol.  Every sector left unsettled has its block built
    and factored shell by shell (_lies_above): the vacuum's against theta -
    margin, each other one against theta.  Below coupling ~0.8 every sector
    is settled and no block is built; from ~0.8 the odd blocks' bound
    2 w0 sqrt(1 - u) falls below theta and both odd blocks are factored,
    and from ~0.93 (n_max 24 to 64) all four are.  If every factorization
    passes, theta and its Ritz vector are returned.  Otherwise the lowest
    eigenpair of the dense coupled_hamiltonian_fock(cfg, n_max), from
    operators._dense_eigh, is returned: about 0.8 s at n_max 40 (measured
    on 2 cores) and, scaled as n_max^6, about 13 s at n_max 64, where H and
    its eigenvectors take 134 MB each.  It runs only when a factorization
    fails, which happened nowhere on a grid of n_max 4 to 64 and couplings
    0 to 0.995.  So the result is the ground energy of
    coupled_hamiltonian_fock(cfg, n_max) whichever sector holds it; the
    start changes only how many Lanczos steps that takes.

    Raises ValueError when n_max < 4 (a level parity class of h' then has
    fewer than two levels, and there is no bound), DimensionLimitError when
    n_max^2 exceeds the dense-matrix limit, and UnstableConfigurationError,
    as normal_modes does, when |lambda| >= m w0^2: the pair then has no
    ground state, and the lowest level of its truncated Hamiltonian means
    nothing.

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
    h_single, x = _single_oscillator(cfg, n_max)
    lam = dipole_coupling_lambda(cfg)
    second, lowest = _separable_bounds(h_single, x, lam)
    gaussian = _gaussian_amplitudes(cfg, n_max)
    # its exchange-symmetric part, up to a factor 2; its odd-parity part is 0
    start = gaussian + gaussian.T

    def matvec(v):
        psi = v.reshape(n_max, n_max)
        s = 0.5 * (psi + psi.T)
        a = h_single @ s + (0.5 * lam) * (x @ s @ x)
        return (a + a.T).ravel()

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
    unsettled += [k for k, bound in enumerate(lowest, 1) if bound <= theta + tolerance]
    blocks = _sector_blocks(h_single, x, lam, unsettled) if unsettled else ()
    for sector, (_, _, block, bounds) in zip(unsettled, blocks):
        if not _lies_above(block, bounds, theta - margin if sector == 0 else theta):
            values, vectors = operators._dense_eigh(coupled_hamiltonian_fock(cfg, n_max))
            return float(values[0]), vectors[:, 0].reshape(n_max, n_max)
    return theta, vector.reshape(n_max, n_max)


def vdw_fock_oracle(cfg: VdwConfig, n_max: int = 20) -> ConvergedValue:
    """Ground shift by diagonalizing the truncated Fock^2 Hamiltonian.

    Independent check of exact_ground_shift: the ground energy of the
    truncated two-mode Hamiltonian, solved on its amplitude matrix and
    certified (fock_ground_state), minus the uncoupled ground energy w0.
    The converged flag compares against the n_max - 2 truncation, solved
    the same way.
    """
    if n_max < 8:
        raise ValueError(f"n_max must be >= 8 for a meaningful oracle, got {n_max}")
    energy, _ = fock_ground_state(cfg, n_max)
    probe_energy, _ = fock_ground_state(cfg, n_max - 2)
    return ConvergedValue(*truncation_probe(energy - cfg.freq, probe_energy - cfg.freq,
                                            FOCK_CONVERGENCE_TOL))
