"""Finite-dimensional operator building blocks.

Ladder operators, Pauli matrices, Kronecker products, position/momentum
quadratures and dense Hermitian eigendecomposition.  Everything works in
reduced units (hbar = 1) on truncated Fock spaces represented as dense
numpy arrays; composite operators carry their subsystem dimensions so
basis indices keep their row-major product meaning.
"""

from dataclasses import dataclass

import numpy as np

from .errors import HermiticityError, TruncationError

# max|O - O^dag| allowed after arithmetic; exact-real-symmetric builds give 0
HERMITICITY_ATOL = 1e-12
# largest dimension of a product space that is held as one dense matrix
DEFAULT_DIM_LIMIT = 4096

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
