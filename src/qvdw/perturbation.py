"""Rayleigh-Schrodinger perturbation engine for diagonal H0 plus H_int.

Second order in the coupling (first order is reported as well; it vanishes
identically for excitation-changing interactions).  Degenerate denominators
coupled by the perturbation abort the computation instead of producing a
silently huge shift; the degeneracy tolerance is the fixed DEGENERACY_TOL.

The H0 diagonal may carry leading batch axes, one diagonal per row against
one shared interaction: a whole sweep then runs in one array pass, and each
row's shift equals, bit for bit, the call on that row alone.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegeneracyError

DEGENERACY_TOL = 1e-9


@dataclass(frozen=True)
class PerturbationResult:
    """Energy corrections for one unperturbed basis state.

    For a batch of H0 diagonals, ``second_order`` and ``min_denominator``
    are arrays of the batch shape, one entry per row; ``first_order`` and
    ``terms_used`` (the number of states H_int couples to this one) read
    H_int only and stay scalars.
    """

    first_order: float
    second_order: float
    terms_used: int
    min_denominator: float


def second_order_shift(h0_diag, h_int, i: int) -> PerturbationResult:
    """Second-order energy shift of basis state ``i``.

    second_order = sum over n != i of |<n|H_int|i>|^2 / (E_i - E_n),
    first_order = <i|H_int|i>, where E are the entries of ``h0_diag``
    (the diagonal of H0 in its eigenbasis).  ``h_int`` is the square
    interaction matrix as an array (for a HermitianOperator, its
    ``entries``); only its column H_int|i> is read.

    ``h0_diag`` may have shape (..., dim): its leading axes are a batch of
    diagonals against the one ``h_int``, and the result holds one
    ``second_order`` and one ``min_denominator`` per row (see
    PerturbationResult), each equal to the call on that row alone.

    Terms with an exactly zero numerator are skipped before the degeneracy
    check, so accidental degeneracies between uncoupled sectors do not
    abort valid computations.

    Raises
    ------
    DegeneracyError
        If some coupled state n has |E_i - E_n| < DEGENERACY_TOL, in any
        row of a batch; the message is the first such row's own.
    """
    energies = np.asarray(h0_diag, dtype=float)
    mat = np.asarray(h_int)
    dim = energies.shape[-1]
    if mat.shape != (dim, dim):
        raise ValueError(f"h_int shape {mat.shape} does not match h0_diag length {dim}")
    if not 0 <= i < dim:
        raise ValueError(f"state index {i} out of range for dimension {dim}")

    column = mat[:, i]
    coupled = np.abs(column) > 0
    coupled[i] = False
    amplitudes = column[coupled]
    terms = len(amplitudes)
    # compress keeps each row's terms contiguous (a boolean index on the last
    # axis would not), so add.reduce below sums each row as it sums a row alone
    denominators = energies[..., i, None] - np.compress(coupled, energies, axis=-1)
    gaps = np.abs(denominators)
    min_den = np.minimum.reduce(gaps, axis=-1, initial=np.inf)

    bad = min_den < DEGENERACY_TOL
    if bad.any():
        # the first degenerate row, with the message a call on it alone raises
        row = np.unravel_index(np.argmax(bad), bad.shape)
        n_bad = np.flatnonzero(coupled)[gaps[row] < DEGENERACY_TOL][0]
        gap = abs(energies[row][i] - energies[row][n_bad])
        raise DegeneracyError(
            f"states {i} and {n_bad} are coupled but near-degenerate "
            f"(|E_i - E_n| = {gap:.3e} < {DEGENERACY_TOL})"
        )

    # index order is preserved by the mask, keeping the sum deterministic
    second = np.add.reduce(np.abs(amplitudes) ** 2 / denominators, axis=-1)
    if energies.ndim == 1:
        second, min_den = float(second), float(min_den)
    return PerturbationResult(
        first_order=float(column[i].real),
        second_order=second,
        terms_used=terms,
        min_denominator=min_den,
    )


def transition_shift(h0_diag, h_int, i_excited: int, i_ground: int) -> float:
    """Second-order shift of the transition energy E_excited - E_ground:
    a float, or an array of the batch shape for a batch of H0 diagonals."""
    if i_excited == i_ground:
        raise ValueError("excited and ground indices must differ")
    upper = second_order_shift(h0_diag, h_int, i_excited)
    lower = second_order_shift(h0_diag, h_int, i_ground)
    return upper.second_order - lower.second_order
