"""Rayleigh-Schrodinger perturbation engine for diagonal H0 plus H_int.

Second order in the coupling (first order is reported as well; it vanishes
identically for excitation-changing interactions).  Degenerate denominators
coupled by the perturbation abort the computation instead of producing a
silently huge shift; the degeneracy tolerance is the fixed DEGENERACY_TOL.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegeneracyError

DEGENERACY_TOL = 1e-9


@dataclass(frozen=True)
class PerturbationResult:
    """Energy corrections for one unperturbed basis state."""

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

    Terms with an exactly zero numerator are skipped before the degeneracy
    check, so accidental degeneracies between uncoupled sectors do not
    abort valid computations.

    Raises
    ------
    DegeneracyError
        If some coupled state n has |E_i - E_n| < DEGENERACY_TOL.
    """
    energies = np.asarray(h0_diag, dtype=float)
    mat = np.asarray(h_int)
    dim = energies.shape[0]
    if mat.shape != (dim, dim):
        raise ValueError(f"h_int shape {mat.shape} does not match h0_diag length {dim}")
    if not 0 <= i < dim:
        raise ValueError(f"state index {i} out of range for dimension {dim}")

    column = mat[:, i]
    coupled = np.abs(column) > 0
    coupled[i] = False
    amplitudes = column[coupled]
    terms = len(amplitudes)
    denominators = energies[i] - energies[coupled]
    gaps = np.abs(denominators)
    min_den = float(np.minimum.reduce(gaps)) if terms else np.inf

    if min_den < DEGENERACY_TOL:
        n_bad = np.flatnonzero(coupled)[gaps < DEGENERACY_TOL][0]
        raise DegeneracyError(
            f"states {i} and {n_bad} are coupled but near-degenerate "
            f"(|E_i - E_n| = {abs(energies[i] - energies[n_bad]):.3e} < {DEGENERACY_TOL})"
        )

    # index order is preserved by the boolean mask, keeping the sum deterministic
    second = float(np.add.reduce(np.abs(amplitudes) ** 2 / denominators))
    return PerturbationResult(
        first_order=float(column[i].real),
        second_order=second,
        terms_used=terms,
        min_denominator=min_den,
    )


def transition_shift(h0_diag, h_int, i_excited: int, i_ground: int) -> float:
    """Second-order shift of the transition energy E_excited - E_ground."""
    if i_excited == i_ground:
        raise ValueError("excited and ground indices must differ")
    upper = second_order_shift(h0_diag, h_int, i_excited)
    lower = second_order_shift(h0_diag, h_int, i_ground)
    return upper.second_order - lower.second_order
