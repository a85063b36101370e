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

Solver.  H is real symmetric and never assembled on the main path: apply_h
multiplies a state by the H0 diagonal and adds each coupling term as
shifted slices of the state times a coefficient band, O(dim) per term.
A term c A_j B_l on tensor slots j < l has two bands, one per step of
slot l, and each is c times the outer product of two one-mode amplitude
vectors, slot j's raising amplitudes and slot l's amplitudes for its step,
with ones on every other slot.  The bands read no frequency, so a process
builds them once per coupling set and n_max and shares them, read-only,
with every later config that has the same couplings and n_max: a
qubit_freq sweep builds two sets, one for the solve and one for the
n_max + 2 probe.
Davidson's method (operators.davidson) runs once from the bare ground
state and once from the bare excited state, with the H0 diagonal as its
preconditioner, and keeps, in each run, the Ritz pair whose vector
overlaps the start most.  H0 is H's diagonal, so the correction
r / (theta - D) of a step is the perturbative one: each step gains about
a factor coupling / detuning, and a weakly coupled state takes a few
products of H.  A pair is certified when its residual
r = ||H y - theta y|| is at most CERTIFICATE_RTOL max(1, |theta|), when
2 r / gap is at most OVERLAP_ATOL, gap the distance to the nearest other
Ritz value (r / gap bounds the angle between y and the eigenvector, so
2 r / gap bounds the error of its squared overlap, as far as the Ritz
values show the spectrum), and when its squared overlap with the bare
state exceeds 1/2.  Eigenvectors are orthonormal, so at most one
eigenvector overlaps a bare state that much, and the certified pair is the
one the dense maximum-overlap rule picks, interior eigenvalues included (a
qubit above a mode frequency).  If a pair fails its certificate, H is
assembled once from the same diagonal and bands, and the block of H on the
bare state's parity is solved by dense eigh (operators._dense_eigh): every
term changes the qubit level plus the mode levels by 0 or 2, so that
block, half of H, holds every eigenvector the bare state overlaps.  The
dense route raises IdentificationError when no eigenvector overlaps the
bare state by 1/2; the other state keeps its certified pair.  A pair fails
near a resonance, where the gap closes, and at strong coupling, where no
eigenvector overlaps a bare state by 1/2 or a run stops unconverged after
DAVIDSON_MAX_STEPS products.  The truncation check at n_max + 2 runs the
same Davidson with the same certificates and the same dense fallback, but
starts from the two n_max vectors padded with two empty levels per mode:
at a converged truncation they are eigenvectors of the wider H to within
its tolerance, and the runs stop after a few products.
FullModelConfig refuses a product dimension above dim_limit when it is
built, so no solver checks it again; a Davidson run keeps its basis and
the products of H with it, about 2 m * dim * 8 bytes for m <=
DAVIDSON_MAX_STEPS products (about 8 at weak coupling), the dense
fallback dim^2 * 8 bytes for the assembled H.  Each Davidson step solves
the run's small projected matrix by np.linalg.eigh as well; only the dense
fallback passes through operators._dense_eigh, so that is where dense
solves are counted.
"""

from dataclasses import dataclass, replace
from functools import lru_cache, reduce

import numpy as np

from . import operators, perturbation
from .errors import (DimensionLimitError, IdentificationError, NearResonanceError,
                     UnstableConfigurationError)
from .operators import DEFAULT_DIM_LIMIT, HermitianOperator, davidson, truncation_probe

CONVERGENCE_TOL = 1e-8
OVERLAP_THRESHOLD = 0.5
# a Davidson Ritz pair is accepted when ||H y - theta y|| <= this * max(1, |theta|)
CERTIFICATE_RTOL = 1e-10
# ... and when its squared overlap with the bare state is known to within
# this: 2 ||H y - theta y|| / gap, gap the distance to the nearest other Ritz
# value, bounds how far it can lie from the eigenvector's
OVERLAP_ATOL = 1e-11
# a Davidson run that has not converged after this many products hands over
# to the dense path: weakly coupled dressed states take about 8 and the
# strongest couplings that still converge up to ~32, while each step solves
# an eigenproblem as large as the basis, so a run far beyond that would
# cost more than eigh.  It is a run's only stop short of convergence
DAVIDSON_MAX_STEPS = 60


@dataclass(frozen=True)
class FullModelConfig:
    """Parameters of the microscopic model, reduced units (hbar = 1).

    ``qubit_field_couplings`` has one entry per field mode;
    ``dipole_field_couplings`` is a matrix with one row per dipole mode and
    one column per field mode (the physically motivated case is diagonal,
    one dipole talking to one field mode, but nothing forces that).
    ``n_max`` is the per-mode Fock truncation.

    Each list is stored as a tuple of floats and the coupling matrix as a
    tuple of float rows, however they were given, so equal configs compare
    equal and hash alike, and the coupling bands are cached by their values.

    Construction raises ValueError for malformed parameters,
    UnstableConfigurationError when the field and dipole modes have no
    ground state, and, checked last, DimensionLimitError when the product
    dimension ``dim`` exceeds ``dim_limit``.
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
        shape = (len(self.dipole_freqs), len(self.field_freqs))
        try:
            f = np.asarray(self.dipole_field_couplings, dtype=float)
        except ValueError:  # ragged rows, or entries that are not numbers
            f = None
        # an empty value stands for the empty matrix when either mode count is 0
        if f is None or (f.shape != shape and not (f.size == 0 and 0 in shape)):
            got = repr(self.dipole_field_couplings) if f is None else f"shape {f.shape}"
            raise ValueError(f"dipole_field_couplings must have shape {shape}, one row per "
                             f"dipole mode and one column per field mode, got {got}")
        f = f.reshape(shape)
        object.__setattr__(self, "dipole_field_couplings", tuple(map(tuple, f.tolist())))

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
        if self.dim_limit < 2:
            raise ValueError(f"dim_limit must be >= 2, the bare qubit's dimension, "
                             f"got {self.dim_limit}")
        # with x = (a + a^dag)/sqrt2 the field and dipole part of H is
        # p^T D p / 2 + x^T V x / 2, D = diag(mode freqs) and V = D + 2 F, F
        # the symmetric field-dipole coupling block: bounded below only when V
        # is positive definite (one field, one dipole: w_a w_b > 4 f^2)
        if f.any():
            n_fields = len(self.field_freqs)
            v = np.diag(self.field_freqs + self.dipole_freqs)
            v[n_fields:, :n_fields] = 2.0 * f
            v[:n_fields, n_fields:] = 2.0 * f.T
            try:
                np.linalg.cholesky(v)
            except np.linalg.LinAlgError:
                raise UnstableConfigurationError(
                    "dipole_field_couplings too strong: diag(mode freqs) + 2 F is not "
                    "positive definite, so the field and dipole modes have no ground state"
                ) from None
        # last, so a config that also fails a check above raises that check's error
        if self.dim > self.dim_limit:
            raise DimensionLimitError(
                f"product dimension {self.dim} exceeds limit {self.dim_limit}; "
                f"reduce n_max or the number of modes"
            )

    @property
    def n_modes(self) -> int:
        return len(self.field_freqs) + len(self.dipole_freqs)

    @property
    def dim(self) -> int:
        return 2 * self.n_max ** self.n_modes

    @property
    def mode_dims(self) -> tuple:
        return (2,) + (self.n_max,) * self.n_modes


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


def _h0_diagonal(cfg: FullModelConfig) -> np.ndarray:
    """Diagonal of H0 as a real vector; build_h0 wraps it."""
    return _product_diagonal(cfg.qubit_freq, cfg.field_freqs + cfg.dipole_freqs, cfg.n_max)


def _product_diagonal(qubit_freq, mode_freqs, n_max: int) -> np.ndarray:
    """H0's diagonal on the flat product basis of the qubit and the modes at
    n_max levels each.  The frequencies may be arrays whose shapes
    broadcast; their axes then lead the result's, one diagonal per entry,
    each the one that entry's frequencies give alone."""
    diag = 0.5 * np.asarray(qubit_freq, dtype=float)[..., None] * np.array([-1.0, 1.0])
    for w in mode_freqs:
        levels = np.asarray(w, dtype=float)[..., None, None] * np.arange(float(n_max))
        outer = diag[..., :, None] + levels
        diag = outer.reshape(*outer.shape[:-2], -1)
    return diag


def _hint_bands(cfg: FullModelConfig) -> tuple:
    """The interaction as bands above the diagonal of the flat product
    basis: (offset, coefficients) pairs with
    H_int[i, i + offset] = H_int[i + offset, i] = coefficients[i].

    A term c A_j B_l acting on tensor slots j < l (A = s_x on the qubit, slot
    0, or a + a^dag on a mode) moves slot j one level up and slot l one
    level up or down, so it fills the two bands at offsets
    stride_j + stride_l and stride_j - stride_l, stride_s being n_max to the
    number of slots after s.  Each band is c times the outer product, over
    the tensor slots, of slot j's raising amplitudes, slot l's amplitudes
    for its step and ones on every other slot, read in the flat row-major
    order and cut after its last nonzero entry.  Zero couplings have no
    bands, and neither has the bare qubit.

    The bands read no frequency or dim_limit, so _coupling_bands builds
    them once per coupling set and n_max and every such config shares them,
    read-only.
    """
    return _coupling_bands(cfg.n_max, cfg.qubit_field_couplings, cfg.dipole_field_couplings)


@lru_cache(maxsize=4)
def _coupling_bands(n_max: int, qubit_field: tuple, dipole_field: tuple) -> tuple:
    """_hint_bands for these couplings, one qubit-field entry per field mode
    and one row per dipole mode, at n_max levels per mode."""
    n_fields = len(qubit_field)
    n_slots = 1 + n_fields + len(dipole_field)
    terms = [(g, 0, 1 + k) for k, g in enumerate(qubit_field) if g != 0.0]
    terms += [(f, 1 + k, 1 + n_fields + l)
              for l, row in enumerate(dipole_field) for k, f in enumerate(row) if f != 0.0]
    if not terms:
        return ()
    # a + a^dag takes level n up with sqrt(n + 1), 0 at the top level, and
    # down with sqrt(n); s_x takes the lower qubit level up with amplitude 1
    levels = np.arange(float(n_max))
    up, down = np.append(np.sqrt(levels[1:]), 0.0), np.sqrt(levels)
    qubit_up = np.array([1.0, 0.0])
    strides = [n_max ** (n_slots - 1 - slot) for slot in range(n_slots)]
    bands = []
    for c, j, l in terms:
        for step, amplitudes in ((1, up), (-1, down)):
            factors = [np.ones(2)] + [np.ones(n_max)] * (n_slots - 1)
            factors[j] = qubit_up if j == 0 else up
            factors[l] = amplitudes
            amplitude = reduce(np.multiply.outer, factors).ravel()
            coefficients = float(c) * amplitude[:np.flatnonzero(amplitude)[-1] + 1]
            coefficients.setflags(write=False)
            bands.append((strides[j] + step * strides[l], coefficients))
    return tuple(bands)


def _add_bands(bands: tuple, psi: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out += H_int psi along the last axis, from the bands of _hint_bands."""
    for offset, coefficients in bands:
        n = len(coefficients)
        out[..., :n] += coefficients * psi[..., offset:offset + n]
        out[..., offset:offset + n] += coefficients * psi[..., :n]
    return out


def apply_h(cfg: FullModelConfig, psi: np.ndarray) -> np.ndarray:
    """(H0 + H_int) psi without building a matrix.

    ``psi`` is a state of length cfg.dim or a (k, dim) block of states as
    rows.  H0 multiplies it by its diagonal.  Each g_k s_x x_k and
    f_lk x_k x_l term moves one level along two tensor slots, which in the
    flat row-major basis is a shift by fixed offsets: it adds shifted
    slices of psi times coefficient bands (_hint_bands), so a product costs
    O(dim) per term and no matrix is built.  cfg's dimension was checked
    against its dim_limit when cfg was built.
    """
    psi = np.asarray(psi, dtype=float)
    return _add_bands(_hint_bands(cfg), psi, _h0_diagonal(cfg) * psi)


def _assemble(diagonal: np.ndarray, bands: tuple) -> np.ndarray:
    """The dense matrix with this diagonal and these bands (_hint_bands).
    Both triangles get the same coefficients, so it is exactly symmetric."""
    h = np.diag(diagonal)
    for offset, coefficients in bands:
        rows = np.arange(len(coefficients))
        h[rows, rows + offset] += coefficients
        h[rows + offset, rows] += coefficients
    return h


def build_h0(cfg: FullModelConfig) -> HermitianOperator:
    """Uncoupled Hamiltonian, diagonal in the product Fock basis.

    Qubit term diag(-w/2, +w/2), plus w_n a_n^dag a_n per field mode and
    W_m b_m^dag b_m per dipole mode.  Like every builder here it does not
    check dim_limit: FullModelConfig refuses an oversized config.
    """
    return HermitianOperator(np.diag(_h0_diagonal(cfg)))


def build_hint(cfg: FullModelConfig) -> HermitianOperator:
    """Interaction Hamiltonian: qubit-field and dipole-field couplings.

    s_x tensor sum_k g_k (a_k + a_k^dag) plus
    sum_{l,k} f_lk (a_k + a_k^dag)(b_l + b_l^dag).  Every term changes an
    excitation number, so the matrix has an exactly zero diagonal.  The
    dense reference of the terms apply_h applies; dim_limit was checked
    when cfg was built.
    """
    return HermitianOperator(_assemble(np.zeros(cfg.dim), _hint_bands(cfg)))


def _bare_indices(cfg: FullModelConfig):
    # |0>|vac>|vac> is flat index 0; flipping the qubit moves by the qubit stride
    return 0, cfg.n_max ** cfg.n_modes


def _identify(cfg: FullModelConfig, h: np.ndarray, bare: int):
    """Dense route for one bare state: solve by operators._dense_eigh the
    block of the assembled H on the basis states whose qubit level plus mode
    levels have the bare state's parity, and take the eigenvector that
    overlaps the bare state most, as (energy, overlap, eigenvector on the
    whole basis).  Every term of H changes that total by 0 or 2, so H has no
    entry between the two parities and the block, half of cfg.dim, holds
    every eigenvector that overlaps the bare state."""
    level_sums = np.indices(cfg.mode_dims).sum(axis=0).ravel()
    block = np.flatnonzero(level_sums % 2 == level_sums[bare] % 2)
    values, vectors = operators._dense_eigh(h[np.ix_(block, block)])
    overlaps = vectors[np.searchsorted(block, bare)] ** 2
    best = int(np.argmax(overlaps))
    if overlaps[best] < OVERLAP_THRESHOLD:
        raise IdentificationError(
            f"largest overlap with bare state {bare} is {overlaps[best]:.3f} < "
            f"{OVERLAP_THRESHOLD}; coupling too strong for dressed-state labeling"
        )
    vector = np.zeros(cfg.dim)
    vector[block] = vectors[:, best]
    return float(values[best]), float(overlaps[best]), vector


def _diagonalize_and_identify(cfg: FullModelConfig, starts=None):
    """(dressed transition, overlap_ground, overlap_excited, vectors).

    Davidson (operators.davidson) from each bare state, or from the
    matching row of ``starts``, preconditioned by the H0 diagonal and
    capped at DAVIDSON_MAX_STEPS products, keeps the Ritz pair that
    overlaps the start most.  The pair is certified when its residual r is
    at most CERTIFICATE_RTOL max(1, |theta|), 2 r / gap at most OVERLAP_ATOL
    and its squared overlap with the bare state above 1/2: eigenvectors are
    orthonormal, so at most one overlaps the bare state that much, and it is
    the one the dense max-overlap rule picks, whatever the run started from.
    A pair that fails is replaced by the dense route on its bare state's
    parity block (_identify), which raises IdentificationError when no
    eigenvector overlaps the bare state by 1/2; the other state's certified
    pair is kept, and H is assembled at most once.  ``vectors`` holds the
    two kept vectors as rows, ground first.
    """
    diagonal, bands = _h0_diagonal(cfg), _hint_bands(cfg)
    bares = _bare_indices(cfg)
    if starts is None:
        starts = np.zeros((2, cfg.dim))
        starts[[0, 1], bares] = 1.0
    reports, h = [], None
    for bare, start in zip(bares, starts):
        theta, y, residual, gap = davidson(lambda v: _add_bands(bands, v, diagonal * v),
                                           diagonal, start, DAVIDSON_MAX_STEPS)
        overlap = float(y[bare] ** 2)
        if (residual > CERTIFICATE_RTOL * max(1.0, abs(theta))
                or 2.0 * residual > OVERLAP_ATOL * gap or overlap <= OVERLAP_THRESHOLD):
            h = _assemble(diagonal, bands) if h is None else h
            theta, overlap, y = _identify(cfg, h, bare)
        reports.append((theta, overlap, y))
    (e_ground, ov_ground, y_ground), (e_excited, ov_excited, y_excited) = reports
    return e_excited - e_ground, ov_ground, ov_excited, np.array([y_ground, y_excited])


def _pad(cfg: FullModelConfig, vectors: np.ndarray, n_max: int) -> np.ndarray:
    """Rows of ``vectors`` on the basis of cfg, zero-padded to n_max levels
    per mode: the same states on the basis of replace(cfg, n_max=n_max)."""
    padded = np.zeros((len(vectors), 2) + (n_max,) * cfg.n_modes)
    padded[(...,) + (slice(cfg.n_max),) * cfg.n_modes] = (
        vectors.reshape((len(vectors),) + cfg.mode_dims))
    return padded.reshape(len(vectors), -1)


def dressed_transition(cfg: FullModelConfig) -> ShiftReport:
    """Dressed qubit transition by exact diagonalization.

    The dressed ground/excited states are the eigenvectors with maximum
    squared overlap against the bare |0>|vac...> and |1>|vac...> product
    states; an overlap below 1/2 raises IdentificationError.  They come
    from certified Davidson runs, or from dense eigh when a certificate
    fails (see the module docstring).  The converged flag compares against
    a run at n_max + 2 (False if that config exceeds the dimension limit,
    which building it reports by DimensionLimitError).
    That run starts from the two n_max vectors, padded with two empty levels
    per mode, and keeps every certificate: a converged truncation hands it
    nearly exact eigenvectors, so a run takes about 3 products of H where
    one from a bare state takes about 8.  Only the flag reads it; the reported
    numbers come from the n_max solve.
    """
    dressed, ov_g, ov_e, vectors = _diagonalize_and_identify(cfg)
    bare = cfg.qubit_freq
    try:  # only building the wider config checks dim_limit
        wider = replace(cfg, n_max=cfg.n_max + 2)
        probe = _diagonalize_and_identify(wider, _pad(cfg, vectors, wider.n_max))[0] - bare
    except DimensionLimitError:
        probe = None
    shift, converged = truncation_probe(dressed - bare, probe, CONVERGENCE_TOL)

    return ShiftReport(
        bare_transition=bare,
        dressed_transition=dressed,
        shift=shift,
        overlap_ground=ov_g,
        overlap_excited=ov_e,
        converged=converged,
    )


# H_int of the qubit and one mode on the levels 0 and 1 at unit coupling: every
# ladder amplitude there is 1, so g times it is g on each coupled pair, +-0.0 elsewhere
_UNIT_TWO_LEVEL_HINT = _assemble(np.zeros(4), _coupling_bands(2, (1.0,), ()))
_UNIT_TWO_LEVEL_HINT.setflags(write=False)


def dispersive_single_mode(qubit_freq, mode_freq, coupling: float):
    """Second-order transition shift of a qubit coupled to one mode.

    Delegates to the perturbation engine on the qubit + one-mode product
    model with interaction g s_x (a + a^dag); no hand-derived dispersive
    formula is used.  H_int takes |0,vac> and |1,vac> to one photon and no
    further, so both second-order sums read Fock level 1 only: the mode is
    truncated to the levels 0 and 1; a wider truncation gives the same bits.
    There every ladder amplitude is 1, so H_int is float(coupling) times
    the one unit-coupling H_int built at import, equal on every coupled
    entry to the H_int the model's bands give at this coupling: nothing is
    rebuilt per coupling.

    The frequencies may be arrays whose shapes broadcast (the coupling is a
    scalar): the engine then runs once, on one H0 diagonal per entry against
    the one H_int of this coupling, and returns an array each entry of which
    equals the call at that entry's frequencies, bit for bit.  Scalars give
    a float.
    """
    # no dtype: ints are compared and subtracted exactly, as Python does
    qubit, mode = np.asarray(qubit_freq), np.asarray(mode_freq)
    if (qubit <= 0).any() or (mode <= 0).any():
        raise ValueError("qubit_freq and mode_freq must be positive")
    detuning = np.asarray(abs(qubit - mode))
    near = detuning < perturbation.DEGENERACY_TOL
    if near.any():
        raise NearResonanceError(
            f"|qubit_freq - mode_freq| = {detuning[near][0]:.3e} is below "
            f"{perturbation.DEGENERACY_TOL}; the dispersive expansion fails on resonance"
        )
    # |0,0> is index 0 and |1,0> index 2 on the levels 0 and 1
    return perturbation.transition_shift(_product_diagonal(qubit, (mode,), 2),
                                         float(coupling) * _UNIT_TWO_LEVEL_HINT, 2, 0)


def refractive_modulation(qubit_freq, index):
    """Qubit frequency inside a dielectric of the given refractive index.

    The crudest account of the observed shift: the medium rescales the
    transition to qubit_freq / index.  Either argument may be an array:
    the quotient is then taken entry by entry, and a ValueError names the
    first entry out of range.  Scalars give a float.
    """
    qubit, index_ = np.asarray(qubit_freq), np.asarray(index)
    if (qubit <= 0).any():
        raise ValueError(f"qubit_freq must be positive, got {qubit[qubit <= 0][0]}")
    if (index_ < 1.0).any():
        raise ValueError(f"refractive index must be >= 1, got {index_[index_ < 1.0][0]}")
    return qubit_freq / index
