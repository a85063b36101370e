"""Finite-dimensional operator building blocks.

Ladder operators, Pauli matrices, Kronecker products, position/momentum
quadratures, dense Hermitian eigendecomposition and a Lanczos kernel for the
lowest eigenpair.  Everything works in reduced units (hbar = 1) on truncated
Fock spaces represented as dense numpy arrays; composite operators carry
their subsystem dimensions so basis indices keep their row-major product
meaning.
"""

from dataclasses import dataclass

import numpy as np

from .errors import HermiticityError, TruncationError

# max|O - O^dag| allowed after arithmetic; exact-real-symmetric builds give 0
HERMITICITY_ATOL = 1e-12
# largest dimension of a product space that is held as one dense matrix
DEFAULT_DIM_LIMIT = 4096
# a Lanczos run stops once its residual estimate is this fraction of ||T||,
# and it takes a Ritz pair every LANCZOS_CHECK_EVERY steps
LANCZOS_RTOL = 1e-14
LANCZOS_CHECK_EVERY = 4

_PAULI = {
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


@dataclass(frozen=True)
class HermitianOperator:
    """Dense complex Hermitian matrix with subsystem metadata.

    ``subsystem_dims`` records the row-major tensor-factor dimensions; their
    product must equal the matrix dimension.  Entries are copied and frozen
    at construction, so instances are safe to share across threads.
    """

    entries: np.ndarray
    subsystem_dims: tuple[int, ...]

    def __post_init__(self):
        entries = np.array(self.entries, dtype=complex)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError(f"operator must be a square matrix, got shape {entries.shape}")
        dims = tuple(int(d) for d in self.subsystem_dims)
        if any(d < 1 for d in dims):
            raise ValueError(f"subsystem dimensions must be positive, got {dims}")
        if int(np.prod(dims)) != entries.shape[0]:
            raise ValueError(
                f"product of subsystem_dims {dims} != matrix dimension {entries.shape[0]}"
            )
        check_hermitian(entries)
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "subsystem_dims", dims)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition of a Hermitian operator.

    ``values`` is sorted ascending (energies, hbar = 1); ``vectors`` holds
    the matching orthonormal eigenvectors as columns.
    """

    values: np.ndarray
    vectors: np.ndarray


def check_hermitian(mat: np.ndarray) -> None:
    """Raise HermiticityError when max|O - O^dag| exceeds HERMITICITY_ATOL."""
    dev = np.max(np.abs(mat - mat.conj().T)) if mat.size else 0.0
    if dev > HERMITICITY_ATOL:
        raise HermiticityError(f"max|O - O^dag| = {dev:.3e} exceeds {HERMITICITY_ATOL}")


def as_matrix(op) -> np.ndarray:
    """Return the ndarray behind ``op``, which may be a HermitianOperator."""
    if isinstance(op, HermitianOperator):
        return op.entries
    return np.asarray(op)


def ladder(n_max: int) -> np.ndarray:
    """Annihilation operator on an ``n_max``-level truncated Fock space.

    Parameters
    ----------
    n_max : int
        Number of retained Fock states, at least 2.

    Returns
    -------
    ndarray
        Real matrix A with A[k-1, k] = sqrt(k); the creation operator is
        its transpose.  On the truncated space [A, A^dag] equals the
        identity except for the entry -(n_max - 1) in the last diagonal
        position (the truncation artifact).
    """
    if n_max < 2:
        raise TruncationError(f"n_max must be >= 2, got {n_max}")
    a = np.zeros((n_max, n_max))
    for k in range(1, n_max):
        a[k - 1, k] = np.sqrt(k)
    return a


def pauli(axis: str) -> HermitianOperator:
    """Standard 2x2 Pauli matrix for axis 'x', 'y' or 'z'."""
    try:
        mat = _PAULI[axis]
    except KeyError:
        raise ValueError(f"axis must be one of 'x', 'y', 'z', got {axis!r}") from None
    return HermitianOperator(mat, (2,))


def tensor(ops):
    """Kronecker product of ``ops`` in list order.

    Accepts plain matrices or HermitianOperator instances.  When every
    factor is a HermitianOperator the result is one too, with the
    subsystem dimensions concatenated in order; otherwise a plain ndarray
    is returned.
    """
    ops = list(ops)
    if not ops:
        raise ValueError("tensor requires at least one operator")
    out = as_matrix(ops[0])
    for op in ops[1:]:
        out = np.kron(out, as_matrix(op))
    if all(isinstance(op, HermitianOperator) for op in ops):
        dims = tuple(d for op in ops for d in op.subsystem_dims)
        return HermitianOperator(out, dims)
    return out


def quadratures(n_max: int, mass: float, freq: float):
    """Position and momentum matrices of a truncated harmonic oscillator.

    x = sqrt(1/(2 m w)) (a + a^dag) and p = i sqrt(m w / 2) (a^dag - a)
    with hbar = 1.  [x, p] = i holds on all diagonal entries except the
    last, where the truncation bites.

    Parameters
    ----------
    n_max : int
        Fock truncation, at least 2.
    mass, freq : float
        Oscillator mass and angular frequency, both positive.

    Returns
    -------
    (x, p) : tuple of ndarray
        x is real symmetric, p is complex Hermitian.
    """
    if mass <= 0 or freq <= 0:
        raise ValueError(f"mass and freq must be positive, got mass={mass}, freq={freq}")
    a = ladder(n_max)
    x = np.sqrt(1.0 / (2.0 * mass * freq)) * (a + a.T)
    p = 1.0j * np.sqrt(mass * freq / 2.0) * (a.T - a)
    return x, p


def truncation_probe(value: float, probe, tol: float):
    """Check a truncated-space result against a second truncation.

    ``probe`` computes the same quantity at another n_max; it is None when
    that run cannot be made (say, it would exceed a dimension limit), which
    counts as not converged.

    Returns
    -------
    (value, converged) : tuple
        ``value`` unchanged, and whether the probe lies within ``tol`` of it.
    """
    return value, probe is not None and bool(abs(probe() - value) <= tol)


def _lowest_of_tridiagonal(alpha, beta):
    """Unit eigenvector of the lowest eigenvalue of the symmetric tridiagonal
    matrix T with diagonal ``alpha`` and off-diagonal ``beta`` >= 0.

    numpy has no tridiagonal eigensolver, and np.linalg.eigh is kept for the
    dense solves that a failed certificate asks for.  So the vector comes from
    the SVD of T - shift, shift a Gershgorin lower bound of T: the shifted
    matrix is positive semidefinite, its singular pairs are its eigenpairs,
    and the smallest singular value belongs to the lowest eigenvalue.
    """
    off = np.diag(beta, 1) + np.diag(beta, -1)
    shift = np.min(alpha - off.sum(axis=1))
    _, s, vh = np.linalg.svd(np.diag(alpha - shift) + off)
    return vh[-1]


def lanczos_lowest(matvec, start):
    """Lowest Ritz pair of a real symmetric operator in the Krylov space of
    ``start``.

    Lanczos with full reorthogonalization: each new direction is
    orthogonalized twice against every earlier one.  The run stops when the
    residual estimate beta_k |s_k| of the lowest Ritz pair of the
    tridiagonal T falls to LANCZOS_RTOL times a Gershgorin bound on ||T||.
    That covers breakdown (beta_k ~ 0: the Krylov space is invariant, as
    when ``start`` is itself an eigenvector), and it happens at the latest
    after len(start) steps, when the Krylov space is the whole space and the
    Ritz pair is exact.  Only the Krylov space of ``start`` is searched: an
    eigenvector orthogonal to it is never found, so a caller that needs the
    lowest eigenvalue of the whole operator must certify it.

    Parameters
    ----------
    matvec : callable
        v -> H v for a real symmetric H of dimension len(start).
    start : ndarray
        Nonzero real start vector.

    Returns
    -------
    (theta, y, residual) : tuple
        The unit Ritz vector y, its Rayleigh quotient theta = y.Hy (so theta
        never lies below the lowest eigenvalue of H) and ||H y - theta y||.
    """
    dim = len(start)
    basis = np.empty((dim, dim))  # row k is the k-th Lanczos vector
    basis[0] = start / np.linalg.norm(start)
    alpha, beta, scale = [], [], 0.0
    for k in range(dim):
        w = matvec(basis[k])
        alpha.append(basis[k] @ w)
        for _ in range(2):
            w -= basis[:k + 1].T @ (basis[:k + 1] @ w)
        beta.append(np.linalg.norm(w))
        scale = max(scale, abs(alpha[-1]) + sum(beta[-2:]))
        tol = LANCZOS_RTOL * scale
        # a Ritz pair costs more than a step, so it is taken every few steps,
        # at a breakdown and at the last step
        if k % LANCZOS_CHECK_EVERY == 0 or beta[-1] <= tol or k == dim - 1:
            s = _lowest_of_tridiagonal(alpha, beta[:-1])
            if beta[-1] * abs(s[-1]) <= tol or k == dim - 1:
                break
        basis[k + 1] = w / beta[-1]
    y = s @ basis[:k + 1]
    y /= np.linalg.norm(y)
    hy = matvec(y)
    theta = float(y @ hy)
    return theta, y, float(np.linalg.norm(hy - theta * y))


def eig_hermitian(op) -> Spectrum:
    """Full eigendecomposition of a Hermitian matrix.

    Parameters
    ----------
    op : HermitianOperator or ndarray
        Raw arrays are Hermiticity-checked against the module tolerance.

    Returns
    -------
    Spectrum
        Eigenvalues ascending, orthonormal eigenvectors as columns.
    """
    mat = as_matrix(op)
    if not isinstance(op, HermitianOperator):
        check_hermitian(mat)
    values, vectors = np.linalg.eigh(mat)
    return Spectrum(values=values, vectors=vectors)
