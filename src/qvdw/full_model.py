"""Qubit + field modes + dipole modes: the full microscopic Hamiltonian.

H = (w/2) s_z + sum_n w_n a_n^dag a_n + sum_m W_m b_m^dag b_m
    + s_x sum_k g_k (a_k^dag + a_k) + sum_{l,k} f_lk (b_l^dag + b_l)(a_k^dag + a_k)

on the row-major product basis (qubit, field modes in order, dipole modes
in order).  Qubit basis index 0 is the lower level with energy -w/2, so the
bare transition |0> -> |1> costs +w.  Counter-rotating terms are kept; no
rotating-wave approximation is made anywhere.

The observable of interest is the dressed transition: the energy difference
between the interacting eigenstates that maximally overlap the bare excited
and ground product states, compared against the bare splitting w.
"""

from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import perturbation
from .errors import DimensionLimitError, IdentificationError, NearResonanceError
from .operators import (DEFAULT_DIM_LIMIT, HermitianOperator, check_hermitian, ladder, tensor,
                        truncation_probe)

CONVERGENCE_TOL = 1e-8
OVERLAP_THRESHOLD = 0.5


@dataclass(frozen=True)
class FullModelConfig:
    """Parameters of the microscopic model, reduced units (hbar = 1).

    ``qubit_field_couplings`` has one entry per field mode;
    ``dipole_field_couplings`` is a matrix with one row per dipole mode and
    one column per field mode (the physically motivated case is diagonal,
    one dipole talking to one field mode, but nothing forces that).
    ``n_max`` is the per-mode Fock truncation.
    """

    qubit_freq: float
    field_freqs: tuple = ()
    dipole_freqs: tuple = ()
    qubit_field_couplings: tuple = ()
    dipole_field_couplings: tuple = ()
    n_max: int = 8
    dim_limit: int = DEFAULT_DIM_LIMIT

    def __post_init__(self):
        object.__setattr__(self, "field_freqs", tuple(float(w) for w in self.field_freqs))
        object.__setattr__(self, "dipole_freqs", tuple(float(w) for w in self.dipole_freqs))
        object.__setattr__(self, "qubit_field_couplings",
                           tuple(float(g) for g in self.qubit_field_couplings))
        f = np.asarray(self.dipole_field_couplings, dtype=float)
        f = f.reshape(len(self.dipole_freqs), len(self.field_freqs))
        f.setflags(write=False)
        object.__setattr__(self, "dipole_field_couplings", f)

        if self.qubit_freq <= 0:
            raise ValueError(f"qubit_freq must be positive, got {self.qubit_freq}")
        if any(w <= 0 for w in self.field_freqs + self.dipole_freqs):
            raise ValueError("all mode frequencies must be positive")
        if len(self.qubit_field_couplings) != len(self.field_freqs):
            raise ValueError(
                f"need one qubit-field coupling per field mode: "
                f"{len(self.qubit_field_couplings)} couplings, {len(self.field_freqs)} modes"
            )
        if self.n_max < 2:
            raise ValueError(f"n_max must be >= 2, got {self.n_max}")

    @property
    def n_modes(self) -> int:
        return len(self.field_freqs) + len(self.dipole_freqs)

    @property
    def dim(self) -> int:
        return 2 * self.n_max ** self.n_modes

    @property
    def mode_dims(self) -> tuple:
        return (2,) + (self.n_max,) * self.n_modes

    def with_n_max(self, n_max: int) -> "FullModelConfig":
        return FullModelConfig(self.qubit_freq, self.field_freqs, self.dipole_freqs,
                               self.qubit_field_couplings, self.dipole_field_couplings,
                               n_max, self.dim_limit)


@dataclass(frozen=True)
class ShiftReport:
    """Dressed vs bare qubit transition.

    ``shift`` is dressed - bare.  The overlaps are |<bare|dressed>|^2 of the
    two identified eigenstates; ``converged`` records whether repeating the
    diagonalization with n_max + 2 moves the shift by at most 1e-8.
    """

    bare_transition: float
    dressed_transition: float
    shift: float
    overlap_ground: float
    overlap_excited: float
    converged: bool


def _check_dim(cfg: FullModelConfig):
    if cfg.dim > cfg.dim_limit:
        raise DimensionLimitError(
            f"product dimension {cfg.dim} exceeds limit {cfg.dim_limit}; "
            f"reduce n_max or the number of modes"
        )


def _h0_diagonal(cfg: FullModelConfig) -> np.ndarray:
    """Diagonal of H0 as a real vector; build_h0 wraps it."""
    _check_dim(cfg)
    occupations = np.arange(float(cfg.n_max))
    diags = [0.5 * cfg.qubit_freq * np.array([-1.0, 1.0])]
    diags += [w * occupations for w in cfg.field_freqs + cfg.dipole_freqs]
    return reduce(np.add.outer, diags).ravel()


def _hint_matrix(cfg: FullModelConfig) -> np.ndarray:
    """Real dense H_int; build_hint wraps it."""
    _check_dim(cfg)
    x = ladder(cfg.n_max)
    x = x + x.T
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    n_fields = len(cfg.field_freqs)

    def term(factors):
        # factors maps tensor slot -> operator; every other slot is the identity
        return tensor(factors.get(slot, np.eye(d)) for slot, d in enumerate(cfg.mode_dims))

    h = np.zeros((cfg.dim, cfg.dim))
    for k, g in enumerate(cfg.qubit_field_couplings):
        if g != 0.0:
            h += g * term({0: sx, 1 + k: x})
    for l in range(len(cfg.dipole_freqs)):
        for k in range(n_fields):
            f = cfg.dipole_field_couplings[l, k]
            if f != 0.0:
                h += f * term({1 + k: x, 1 + n_fields + l: x})
    return h


def build_h0(cfg: FullModelConfig) -> HermitianOperator:
    """Uncoupled Hamiltonian, diagonal in the product Fock basis.

    Qubit term diag(-w/2, +w/2), plus w_n a_n^dag a_n per field mode and
    W_m b_m^dag b_m per dipole mode.
    """
    return HermitianOperator(np.diag(_h0_diagonal(cfg)), cfg.mode_dims)


def build_hint(cfg: FullModelConfig) -> HermitianOperator:
    """Interaction Hamiltonian: qubit-field and dipole-field couplings.

    s_x tensor sum_k g_k (a_k + a_k^dag) plus
    sum_{l,k} f_lk (a_k + a_k^dag)(b_l + b_l^dag).  Every term changes an
    excitation number, so the matrix has an exactly zero diagonal.
    """
    return HermitianOperator(_hint_matrix(cfg), cfg.mode_dims)


def _bare_indices(cfg: FullModelConfig):
    # |0>|vac>|vac> is flat index 0; flipping the qubit moves by the qubit stride
    return 0, cfg.n_max ** cfg.n_modes


def _diagonalize_and_identify(cfg: FullModelConfig):
    # H is real symmetric: H_int with H0 added onto its (zero) diagonal
    h = _hint_matrix(cfg)
    h[np.diag_indices_from(h)] += _h0_diagonal(cfg)
    check_hermitian(h)
    values, vectors = np.linalg.eigh(h)
    i_ground_bare, i_excited_bare = _bare_indices(cfg)
    reports = []
    for bare in (i_ground_bare, i_excited_bare):
        overlaps = vectors[bare] ** 2
        best = int(np.argmax(overlaps))
        if overlaps[best] < OVERLAP_THRESHOLD:
            raise IdentificationError(
                f"largest overlap with bare state {bare} is {overlaps[best]:.3f} < "
                f"{OVERLAP_THRESHOLD}; coupling too strong for dressed-state labeling"
            )
        reports.append((values[best], float(overlaps[best])))
    (e_ground, ov_ground), (e_excited, ov_excited) = reports
    return e_excited - e_ground, ov_ground, ov_excited


def dressed_transition(cfg: FullModelConfig) -> ShiftReport:
    """Dressed qubit transition by exact diagonalization.

    The dressed ground/excited states are the eigenvectors with maximum
    squared overlap against the bare |0>|vac...> and |1>|vac...> product
    states; an overlap below 1/2 raises IdentificationError.  The converged
    flag compares against a run at n_max + 2 (False if that run would
    exceed the dimension limit).
    """
    dressed, ov_g, ov_e = _diagonalize_and_identify(cfg)
    bare = cfg.qubit_freq
    wider = cfg.with_n_max(cfg.n_max + 2)

    def probe():
        return _diagonalize_and_identify(wider)[0] - bare

    shift, converged = truncation_probe(
        dressed - bare, probe if wider.dim <= wider.dim_limit else None, CONVERGENCE_TOL)

    return ShiftReport(
        bare_transition=bare,
        dressed_transition=dressed,
        shift=shift,
        overlap_ground=ov_g,
        overlap_excited=ov_e,
        converged=converged,
    )


def dispersive_single_mode(qubit_freq: float, mode_freq: float, coupling: float,
                           n_max: int = 30,
                           tol_degeneracy: float = perturbation.DEGENERACY_TOL) -> float:
    """Second-order transition shift of a qubit coupled to one mode.

    Delegates to the perturbation engine on the 2 x n_max product model
    with interaction g s_x (a + a^dag); no hand-derived dispersive formula
    is used.
    """
    if qubit_freq <= 0 or mode_freq <= 0:
        raise ValueError("qubit_freq and mode_freq must be positive")
    if abs(qubit_freq - mode_freq) < tol_degeneracy:
        raise NearResonanceError(
            f"|qubit_freq - mode_freq| = {abs(qubit_freq - mode_freq):.3e} is below "
            f"{tol_degeneracy}; the dispersive expansion does not apply on resonance"
        )
    cfg = FullModelConfig(qubit_freq, (mode_freq,), (), (coupling,), (), n_max)
    i_ground, i_excited = _bare_indices(cfg)
    return perturbation.transition_shift(_h0_diagonal(cfg), _hint_matrix(cfg),
                                         i_excited, i_ground, tol_degeneracy)


def refractive_modulation(qubit_freq: float, index: float) -> float:
    """Qubit frequency inside a dielectric of the given refractive index.

    The crudest account of the observed shift: the medium rescales the
    transition to qubit_freq / index.
    """
    if qubit_freq <= 0:
        raise ValueError(f"qubit_freq must be positive, got {qubit_freq}")
    if index < 1.0:
        raise ValueError(f"refractive index must be >= 1, got {index}")
    return qubit_freq / index
