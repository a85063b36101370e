"""Finite-dimensional operator building blocks and the eigenpair kernels.

Ladder operators, Pauli matrices, position/momentum quadratures, a Lanczos
kernel for the lowest eigenpair (the Fock oracles), a Davidson kernel for
the eigenpair that overlaps a start vector most (the microscopic model),
and the dense eigensolve that their callers fall back to: what the solvers
use.
HermitianOperator is the checked dense matrix that full_model.build_h0 and
build_hint return as references for the tests.
Everything works in reduced units (hbar = 1) on truncated Fock spaces
represented as dense numpy arrays.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import HermiticityError, TruncationError

# max|O - O^dag| allowed after arithmetic; exact-real-symmetric builds give 0
HERMITICITY_ATOL = 1e-12
# largest product-space dimension a model solves unless told otherwise
DEFAULT_DIM_LIMIT = 4096
# a Lanczos run stops once its residual estimate is this fraction of ||T||,
# and it takes a Ritz pair every LANCZOS_CHECK_EVERY steps; a Davidson run
# stops one step after its residual is this fraction of max|diagonal|
LANCZOS_RTOL = 1e-14
LANCZOS_CHECK_EVERY = 4

_PAULI = {
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}
for _matrix in _PAULI.values():
    _matrix.setflags(write=False)


@dataclass(frozen=True)
class HermitianOperator:
    """Dense complex Hermitian matrix.

    Entries are copied and frozen at construction, so instances are safe to
    share across threads.
    """

    entries: np.ndarray

    def __post_init__(self):
        entries = np.array(self.entries, dtype=complex)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError(f"operator must be a square matrix, got shape {entries.shape}")
        check_hermitian(entries)
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def check_hermitian(mat: np.ndarray) -> None:
    """Raise HermiticityError when max|O - O^dag| exceeds HERMITICITY_ATOL."""
    dev = np.max(np.abs(mat - mat.conj().T)) if mat.size else 0.0
    if dev > HERMITICITY_ATOL:
        raise HermiticityError(f"max|O - O^dag| = {dev:.3e} exceeds {HERMITICITY_ATOL}")


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
    # the superdiagonal, every n_max + 1 entries from 1
    a.flat[1::n_max + 1] = np.sqrt(np.arange(1.0, n_max))
    return a


def pauli(axis: str) -> np.ndarray:
    """Standard 2x2 Pauli matrix for axis 'x', 'y' or 'z', as a read-only
    complex array that every call shares."""
    try:
        return _PAULI[axis]
    except KeyError:
        raise ValueError(f"axis must be one of 'x', 'y', 'z', got {axis!r}") from None


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


def _tridiagonal_eigenpairs(alpha, beta):
    """Eigenvalues, ascending, and unit eigenvectors, as rows in the same
    order, of the symmetric tridiagonal matrix T with diagonal ``alpha`` and
    off-diagonal ``beta`` (of either sign).

    numpy has no tridiagonal eigensolver, so T's diagonal and subdiagonal
    are written into one array by flat index, every m + 1 entries from 0 and
    from m, and np.linalg.eigh solves it from that lower triangle alone.  It
    calls np.linalg.eigh directly, not _dense_eigh, so that counting the
    dense solves does not count these.
    """
    m = len(alpha)
    t = np.zeros((m, m))
    t.flat[::m + 1] = alpha
    t.flat[m::m + 1] = beta
    values, vectors = np.linalg.eigh(t)
    return values, vectors.T


def _dense_eigh(mat):
    """np.linalg.eigh of the dense real symmetric ``mat``: the eigensolve
    that full_model and vdw fall back to when a certificate fails.  They
    call it as operators._dense_eigh, so one patch or trace wrapper on this
    attribute sees every dense solve, and none of the Ritz checks."""
    return np.linalg.eigh(mat)


class RitzPair(NamedTuple):
    """A Ritz pair of lanczos or davidson: the Rayleigh quotient ``value``
    of the unit vector ``vector``, its residual ||H y - value y||, and
    ``gap``, the distance from its Ritz value to the nearest other Ritz
    value of the run (inf when the run's basis holds one vector)."""

    value: float
    vector: np.ndarray
    residual: float
    gap: float


def _ritz_pair(matvec, y, values, j, hy=None) -> RitzPair:
    """RitzPair of the unit vector ``y`` from one product H y, ``hy`` when
    the run has already made it, its gap read from the ascending Ritz values
    ``values`` of the run, ``j`` its own."""
    if hy is None:
        hy = matvec(y)
    theta = float(y @ hy)
    # the Ritz values ascend, so the nearest other one is a neighbour
    below = values[j] - values[j - 1] if j else math.inf
    above = values[j + 1] - values[j] if j + 1 < len(values) else math.inf
    return RitzPair(theta, y, float(np.linalg.norm(hy - theta * y)), float(min(below, above)))


def lanczos(matvec, start, max_steps=None) -> RitzPair:
    """The lowest Ritz pair of a real symmetric operator in the Krylov space
    of ``start``.

    Lanczos with full reorthogonalization: each new direction is
    orthogonalized twice against every earlier one.  Every
    LANCZOS_CHECK_EVERY steps after the first, at a breakdown and at the
    last step, the k x k tridiagonal T of the run is solved for its Ritz
    pairs by LAPACK's symmetric eigensolver (_tridiagonal_eigenpairs),
    O(k^3) a check.  The run stops when the residual estimate
    beta_k |s_k| of the lowest Ritz pair falls to LANCZOS_RTOL times a
    Gershgorin bound on ||T||.
    That covers breakdown (beta_k ~ 0: the Krylov space is invariant, as
    when ``start`` is itself an eigenvector), and it happens at the latest
    after len(start) steps, when the Krylov space is the whole space and the
    Ritz pairs are exact; ``max_steps`` stops it earlier, unconverged, with
    the lowest pair of that step.  At step 0, T is 1 x 1 and the start is
    its own Ritz vector: when the run stops there (beta_0 within the
    tolerance, or a one-step cap), it returns the start with theta =
    alpha_0, the residual ||H q_0 - alpha_0 q_0|| from the product that
    step made, and gap inf, so it makes one product of H.  A run that goes
    on makes one more, for its Ritz vector's residual.  Only the Krylov
    space of ``start`` is searched: an eigenvector orthogonal to it is
    never found, so a caller that needs more than the Ritz pair must
    certify it.

    The basis is one (min(len(start), max_steps), len(start)) array, and
    only the rows a run writes take memory: m steps hold about
    m * len(start) * 8 bytes.

    Parameters
    ----------
    matvec : callable
        v -> H v for a real symmetric H of dimension len(start).
    start : ndarray
        Nonzero real start vector.
    max_steps : int, optional
        Most steps to take; len(start) when None.

    Returns
    -------
    RitzPair
        The unit Ritz vector y, its Rayleigh quotient theta = y.Hy, which
        never lies below the lowest eigenvalue of H, ||H y - theta y|| and
        the gap to the nearest other Ritz value.
    """
    dim = len(start)
    steps = dim if max_steps is None else min(dim, max_steps)
    basis = np.empty((steps, dim))
    basis[0] = start / np.linalg.norm(start)
    alpha, beta, scale = np.empty(steps), np.empty(steps), 0.0
    for k in range(steps):
        product = w = matvec(basis[k])
        alpha[k] = basis[k] @ product
        for _ in range(2):
            w = w - basis[:k + 1].T @ (basis[:k + 1] @ w)
        beta[k] = np.linalg.norm(w)
        # row k's Gershgorin radius, its two betas summed before alpha is added
        scale = max(scale, abs(alpha[k]) + (beta[k - 1] + beta[k] if k else beta[k]))
        tol = LANCZOS_RTOL * scale
        last = k == steps - 1
        if k == 0 and (beta[0] <= tol or last):
            # the start is its own Ritz vector, with this step's product
            return _ritz_pair(matvec, basis[0].copy(), alpha[:1], 0, product)
        # a Ritz pair costs more than a step, so it is taken every few steps,
        # at a breakdown and at the last step
        if (k and k % LANCZOS_CHECK_EVERY == 0) or beta[k] <= tol or last:
            values, vectors = _tridiagonal_eigenpairs(alpha[:k + 1], beta[:k])
            if beta[k] * abs(vectors[0, -1]) <= tol or last:
                break
        basis[k + 1] = w / beta[k]
    y = vectors[0] @ basis[:k + 1]
    return _ritz_pair(matvec, y / np.linalg.norm(y), values, 0)


def _new_direction(basis, v):
    """``v`` orthogonalized twice against the orthonormal rows of ``basis``
    and normalized, or None when less than LANCZOS_RTOL of it is left: v
    then lies in the span of the basis."""
    size = np.linalg.norm(v)
    for _ in range(2):
        v = v - basis.T @ (basis @ v)
    norm = np.linalg.norm(v)
    return v / norm if norm > LANCZOS_RTOL * size else None


def davidson(matvec, diagonal, start, max_steps) -> RitzPair:
    """The Ritz pair of a real symmetric operator H whose vector overlaps
    ``start`` most, by Davidson's method with H's diagonal as the
    preconditioner (E. R. Davidson, J. Comput. Phys. 17, 87 (1975)).

    The basis starts at ``start`` and grows by one vector a step.  Each
    basis vector is multiplied by H once and the product kept, so no product
    is repeated; Rayleigh-Ritz on the basis, np.linalg.eigh of the k x k
    projection of H, gives the Ritz pairs, and the one whose vector
    overlaps the start most is picked.  Its residual r = H y - theta y,
    divided entrywise by theta - ``diagonal`` (each |theta - D_i| held at
    least the stop tolerance below, so that no entry divides by zero), and
    orthogonalized twice against the basis, is the next basis vector.
    For a diagonally dominant H that is the perturbative step: a coupling
    c between levels a detuning Delta apart leaves an error of about c /
    Delta of the last one.  When that correction lies in the basis (Davidson
    stagnates, as when theta equals the start's own diagonal entry and the
    couplings cancel), the residual itself, orthogonal to the basis, is the
    next vector instead.  The run stops one step after the residual ||r||
    first falls to LANCZOS_RTOL max|D|, a tolerance scaled to ||H|| (the
    extra step costs one product and leaves a margin below the tolerance);
    at a breakdown, when the residual too lies in the basis (the basis
    holds an invariant subspace, as when ``start`` is itself an eigenvector
    and the residual is 0); or, unconverged, when the basis holds
    min(len(start), max_steps) vectors.  Like lanczos it searches only the
    space it builds, so a caller that needs more than the Ritz pair must
    certify it.

    The basis and its products are two (min(len(start), max_steps),
    len(start)) arrays, of which a run touches only the rows it fills.

    Parameters
    ----------
    matvec : callable
        v -> H v for a real symmetric H of dimension len(start).
    diagonal : ndarray
        H's diagonal, not all zero: its largest magnitude sets the stop
        tolerance.
    start : ndarray
        Nonzero real start vector.
    max_steps : int
        Most basis vectors, each one product of H; the final product makes
        at most max_steps + 1.

    Returns
    -------
    RitzPair
        The unit Ritz vector y, its Rayleigh quotient theta = y.Hy and
        ||H y - theta y|| from one final product, and the gap to the
        nearest other Ritz value of the last Rayleigh-Ritz step.
    """
    dim = len(start)
    steps = min(dim, max_steps)
    basis, images = np.empty((steps, dim)), np.empty((steps, dim))
    projection = np.zeros((steps, steps))
    basis[0] = start / np.linalg.norm(start)
    tol = LANCZOS_RTOL * np.max(np.abs(diagonal))
    passed = False
    for k in range(steps):
        images[k] = matvec(basis[k])
        # eigh reads the lower triangle, row k of which this product fills
        projection[k, :k + 1] = basis[:k + 1] @ images[k]
        values, vectors = np.linalg.eigh(projection[:k + 1, :k + 1])
        # row 0 holds each Ritz vector's overlap with the start
        j = int(np.argmax(vectors[0] ** 2))
        if passed or k == steps - 1:
            break
        s = vectors[:, j]
        residual = s @ images[:k + 1] - values[j] * (s @ basis[:k + 1])
        passed = np.linalg.norm(residual) <= tol
        delta = values[j] - diagonal
        direction = _new_direction(
            basis[:k + 1], residual / np.copysign(np.maximum(np.abs(delta), tol), delta))
        if direction is None:  # the correction lies in the basis: step along the residual
            direction = _new_direction(basis[:k + 1], residual)
        if direction is None:
            break
        basis[k + 1] = direction
    y = vectors[:, j] @ basis[:k + 1]
    return _ritz_pair(matvec, y / np.linalg.norm(y), values, j)
