from dataclasses import replace
from functools import reduce

import numpy as np
import pytest

from qvdw import (
    DimensionLimitError,
    FullModelConfig,
    IdentificationError,
    NearResonanceError,
    UnstableConfigurationError,
    build_h0,
    build_hint,
    dispersive_single_mode,
    dressed_transition,
    refractive_modulation,
    transition_shift,
)
from qvdw import full_model, operators
from qvdw.full_model import _h0_diagonal, apply_h
from qvdw.operators import ladder


def single_mode_cfg(omega=1.0, mode=5.0, g=0.05, n_max=30):
    return FullModelConfig(omega, (mode,), (), (g,), (), n_max)


# one, two and three oscillator modes beside the qubit, at small n_max
MODE_CONFIGS = [
    FullModelConfig(1.0, (1.3,), (), (0.2,), (), 10),
    FullModelConfig(1.0, (5.0,), (3.0,), (0.05,), ((0.3,),), 8),
    FullModelConfig(2.0, (5.0, 2.6), (3.0,), (0.1, 0.07), ((0.2, 0.1),), 5),
]


def kron_hamiltonian(cfg):
    """H0 + H_int assembled from Kronecker products of the one-slot
    operators, independent of the bands that apply_h uses."""
    x = ladder(cfg.n_max)
    x = x + x.T
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    n_fields = len(cfg.field_freqs)

    def term(factors):
        return reduce(np.kron, [factors.get(slot, np.eye(d))
                                for slot, d in enumerate(cfg.mode_dims)])

    h = np.diag(_h0_diagonal(cfg))
    for k, g in enumerate(cfg.qubit_field_couplings):
        h += g * term({0: sx, 1 + k: x})
    for l in range(len(cfg.dipole_freqs)):
        for k in range(n_fields):
            h += cfg.dipole_field_couplings[l][k] * term({1 + k: x, 1 + n_fields + l: x})
    return h


def dense_reference(cfg):
    """(shift, overlap_ground, overlap_excited) by eigh of kron_hamiltonian
    and the max-overlap rule."""
    values, vectors = np.linalg.eigh(kron_hamiltonian(cfg))
    picked = []
    for bare in (0, cfg.n_max ** cfg.n_modes):
        overlaps = vectors[bare] ** 2
        best = np.argmax(overlaps)
        picked.append((values[best], overlaps[best]))
    (e_ground, ov_ground), (e_excited, ov_excited) = picked
    return e_excited - e_ground - cfg.qubit_freq, ov_ground, ov_excited


# configurations the Davidson route is checked on against dense eigh
SOLVER_CONFIGS = {
    "below-dipole": FullModelConfig(1.0, (5.0,), (3.0,), (0.01,), ((0.01,),), 10),
    "above-dipole": FullModelConfig(4.0, (5.0,), (3.0,), (0.01,), ((0.01,),), 10),
    "above-field": FullModelConfig(5.6, (5.0,), (3.0,), (0.05,), ((0.02,),), 9),
    "two-dipoles": FullModelConfig(2.0, (5.0,), (3.0, 3.3), (0.02,), ((0.01,), (0.02,)), 7),
    "two-fields": FullModelConfig(2.0, (5.0, 2.6), (3.0,), (0.1, 0.07), ((0.2, 0.1),), 5),
    "strong-single": FullModelConfig(1.0, (1.3,), (), (0.2,), (), 12),
    "zero-coupling": FullModelConfig(1.0, (5.0,), (3.0,), (0.0,), ((0.0,),), 8),
    "no-modes": FullModelConfig(1.5, (), (), (), (), 8),
}


class TestConfig:

    def test_coupling_count_mismatch(self):
        with pytest.raises(ValueError):
            FullModelConfig(1.0, (5.0,), (), (), (), 4)

    def test_dipole_matrix_shape_mismatch(self):
        for dipole_freqs, field_freqs, couplings in [
                ((3.0,), (5.0,), ((0.1, 0.2),)),
                # the same number of entries in the wrong shape
                ((3.0, 3.0), (5.0, 6.0), ((0.01, 0.02, 0.03, 0.04),)),
                ((3.0, 3.0), (5.0, 6.0), (0.01, 0.02, 0.03, 0.04)),
                ((3.0, 3.0), (5.0, 6.0), ((0.01,), (0.02, 0.03, 0.04))),
                ((), (5.0,), ((0.01,),))]:
            shape = (len(dipole_freqs), len(field_freqs))
            with pytest.raises(ValueError, match=rf"dipole_field_couplings must have shape "
                                                 rf"\({shape[0]}, {shape[1]}\)"):
                FullModelConfig(1.0, field_freqs, dipole_freqs, (0.01,) * len(field_freqs),
                                couplings, 4)

    @pytest.mark.parametrize("dipole_freqs, field_freqs, couplings", [
        ((), (), ()), ((3.0,), (), ()), ((3.0,), (), ((),)), ((), (5.0, 6.0), ())])
    def test_empty_dipole_matrix_when_a_mode_count_is_zero(self, dipole_freqs, field_freqs,
                                                           couplings):
        cfg = FullModelConfig(1.0, field_freqs, dipole_freqs, (0.01,) * len(field_freqs),
                              couplings, 4)
        assert cfg.dipole_field_couplings == ((),) * len(dipole_freqs)

    def test_nonpositive_frequency(self):
        with pytest.raises(ValueError):
            FullModelConfig(1.0, (0.0,), (), (0.1,), (), 4)

    def test_n_max_too_small(self):
        with pytest.raises(ValueError):
            FullModelConfig(1.0, (), (), (), (), 1)

    @pytest.mark.parametrize("dim_limit", [-5, 0, 1])
    def test_dim_limit_below_the_bare_qubit(self, dim_limit):
        # no truncation fits below the qubit's own dimension 2
        with pytest.raises(ValueError, match="dim_limit"):
            FullModelConfig(1.0, (), (), (), (), 8, dim_limit)
        assert dressed_transition(FullModelConfig(1.0, dim_limit=2)).shift == 0.0

    @pytest.mark.parametrize("f", [0.5, 0.6, 1.0, 3.0, -0.6])
    def test_unstable_field_dipole_coupling_is_refused(self, f):
        # field 1, dipole 1: the field and dipole part of H is bounded below
        # only when w_a w_b > 4 f^2, i.e. |f| < 1/2
        with pytest.raises(UnstableConfigurationError):
            FullModelConfig(3.0, (1.0,), (1.0,), (0.05,), ((f,),), 4)

    @pytest.mark.parametrize("f", [0.49, -0.49])
    def test_stable_field_dipole_coupling_runs(self, f):
        report = dressed_transition(FullModelConfig(3.0, (1.0,), (1.0,), (0.05,), ((f,),), 4))
        assert np.isfinite(report.shift)

    def test_stability_reads_the_whole_coupling_matrix(self):
        # each dipole alone is stable on the field (4 f^2 = 0.64 < 1), but
        # together they couple it to (x_b1 + x_b2) / sqrt2 with 2 f sqrt2 = 1.13 > 1
        with pytest.raises(UnstableConfigurationError):
            FullModelConfig(3.0, (1.0,), (1.0, 1.0), (0.05,), ((0.4,), (0.4,)), 4)
        FullModelConfig(3.0, (1.0,), (1.0, 1.0), (0.05,), ((0.3,), (0.3,)), 4)

    def test_dim(self):
        cfg = FullModelConfig(1.0, (5.0,), (3.0,), (0.1,), ((0.1,),), 14)
        assert cfg.dim == 2 * 14 * 14

    def test_oversized_config_is_refused_when_built(self):
        with pytest.raises(DimensionLimitError, match=r"^product dimension 392 exceeds limit "
                           r"391; reduce n_max or the number of modes$"):
            FullModelConfig(1.0, (5.0,), (3.0,), (0.1,), ((0.1,),), 14, dim_limit=391)
        FullModelConfig(1.0, (5.0,), (3.0,), (0.1,), ((0.1,),), 14, dim_limit=392)
        # the bare qubit has dimension 2 at any truncation
        assert FullModelConfig(1.0, n_max=10**12, dim_limit=2).dim == 2

    def test_unstable_and_oversized_config_reports_the_instability(self):
        # the size is checked last, so the earlier checks keep their errors
        with pytest.raises(UnstableConfigurationError):
            FullModelConfig(3.0, (1.0,), (1.0,), (0.05,), ((1.0,),), 70)
        with pytest.raises(ValueError, match="one qubit-field coupling per field mode"):
            FullModelConfig(3.0, (1.0,), (1.0,), (), ((0.1,),), 70)

    @pytest.mark.parametrize("cfg", MODE_CONFIGS + [SOLVER_CONFIGS["two-dipoles"]])
    def test_equal_configs_compare_equal_and_hash_alike(self, cfg):
        twin = replace(cfg)
        assert twin is not cfg
        assert twin == cfg
        assert hash(twin) == hash(cfg)
        assert {cfg: "stored"}[twin] == "stored"

    def test_one_coupling_entry_makes_configs_unequal(self):
        cfg = SOLVER_CONFIGS["two-dipoles"]
        assert cfg != replace(cfg, qubit_field_couplings=(0.03,))
        assert cfg != replace(cfg, dipole_field_couplings=((0.01,), (0.03,)))
        assert len({cfg, replace(cfg, dipole_field_couplings=((0.01,), (0.03,)))}) == 2

    @pytest.mark.parametrize("couplings", [
        [[0.01], [0.02]], ((0.01,), (0.02,)), ([0.01], (0.02,)), np.array([[0.01], [0.02]])],
        ids=["lists", "tuples", "mixed", "ndarray"])
    def test_coupling_matrix_is_stored_as_float_rows(self, couplings):
        given = SOLVER_CONFIGS["two-dipoles"]
        cfg = replace(given, dipole_field_couplings=couplings)
        assert cfg.dipole_field_couplings == ((0.01,), (0.02,))
        assert all(type(f) is float for row in cfg.dipole_field_couplings for f in row)
        assert cfg == given
        assert hash(cfg) == hash(given)
        # the band cache keys on the rows: a qubit_freq change reads the same set
        full_model._coupling_bands.cache_clear()
        full_model._hint_bands(given)
        full_model._hint_bands(replace(cfg, qubit_freq=2.5))
        info = full_model._coupling_bands.cache_info()
        assert (info.misses, info.hits) == (1, 1)


class TestBuildH0:

    def test_single_mode_diagonal(self):
        cfg = single_mode_cfg(omega=1.0, mode=1.0, g=0.0, n_max=2)
        h0 = build_h0(cfg)
        assert np.array_equal(np.diag(h0.entries).real, [-0.5, 0.5, 0.5, 1.5])
        assert np.array_equal(h0.entries, np.diag(np.diag(h0.entries)))

    def test_bare_qubit(self):
        cfg = FullModelConfig(2.0, (), (), (), (), 4)
        h0 = build_h0(cfg)
        assert np.array_equal(h0.entries.real, np.diag([-1.0, 1.0]))

    def test_trace_is_sum_of_level_energies(self):
        cfg = FullModelConfig(1.0, (5.0,), (3.0,), (0.1,), ((0.2,),), 3)
        h0 = build_h0(cfg)
        assert np.trace(h0.entries).real == pytest.approx(
            np.sum(np.diag(h0.entries).real), abs=0)

    def test_dimension_guard(self):
        # the config refuses the size before any builder runs
        with pytest.raises(DimensionLimitError):
            build_h0(FullModelConfig(1.0, (5.0,), (3.0,), (0.1,), ((0.2,),), 70))


class TestH0Diagonal:

    @pytest.mark.parametrize("cfg", MODE_CONFIGS, ids=["1-mode", "2-mode", "3-mode"])
    def test_equals_per_basis_state_loop(self, cfg):
        freqs = cfg.field_freqs + cfg.dipole_freqs
        expected = []
        for qubit, *occupations in np.ndindex(*cfg.mode_dims):
            energy = (-0.5, 0.5)[qubit] * cfg.qubit_freq
            for n, w in zip(occupations, freqs):
                energy += n * w
            expected.append(energy)
        assert np.array_equal(_h0_diagonal(cfg), expected)


class TestBuildHint:

    def test_zero_couplings_give_zero_matrix(self):
        cfg = single_mode_cfg(g=0.0, n_max=4)
        assert not np.any(build_hint(cfg).entries)

    def test_diagonal_vanishes(self):
        # every interaction term changes an excitation number
        cfg = FullModelConfig(1.0, (5.0,), (3.0,), (0.1,), ((0.3,),), 4)
        assert np.array_equal(np.diag(build_hint(cfg).entries), np.zeros(cfg.dim))

    def test_single_flip_matrix_element(self):
        # <0_q 1_f| H_int |1_q 0_f> = g for g sigma_x (a + a^dag)
        cfg = single_mode_cfg(g=0.1, n_max=2)
        hi = build_hint(cfg).entries
        assert hi[1, 2].real == pytest.approx(0.1, abs=0)

    def test_total_hamiltonian_exactly_hermitian(self):
        cfg = FullModelConfig(1.0, (5.0,), (3.0,), (0.1,), ((0.3,),), 5)
        h = build_h0(cfg).entries + build_hint(cfg).entries
        assert np.array_equal(h, h.conj().T)


class TestApplyH:

    @pytest.mark.parametrize("cfg", MODE_CONFIGS, ids=["1-mode", "2-mode", "3-mode"])
    def test_equals_dense_product(self, cfg):
        rng = np.random.default_rng(cfg.dim)
        h = kron_hamiltonian(cfg)
        psi = rng.normal(size=cfg.dim)
        assert np.max(np.abs(apply_h(cfg, psi) - h @ psi)) <= 1e-12
        block = rng.normal(size=(3, cfg.dim))
        assert np.max(np.abs(apply_h(cfg, block) - block @ h)) <= 1e-12

    @pytest.mark.parametrize("cfg", MODE_CONFIGS + list(SOLVER_CONFIGS.values()) + [
        # negative couplings and a zero entry on two fields and two dipoles
        FullModelConfig(2.0, (5.0, 2.6), (3.0, 3.3), (-0.1, 0.07),
                        ((0.2, -0.1), (0.0, -0.15)), 3),
        FullModelConfig(2.0, (5.0,), (3.0, 3.3), (0.02,), ((0.01,), (-0.02,)), 2),
    ], ids=["1-mode", "2-mode", "3-mode", *SOLVER_CONFIGS, "2-fields-2-dipoles-n3",
            "2-dipoles-n2"])
    def test_dense_assembly_equals_kronecker_products(self, cfg):
        # the bands set every entry exactly
        h = build_h0(cfg).entries.real + build_hint(cfg).entries.real
        assert np.array_equal(h, kron_hamiltonian(cfg))

    def test_bare_qubit_is_its_diagonal(self):
        cfg = FullModelConfig(2.0, (), (), (), (), 5)
        assert np.array_equal(apply_h(cfg, np.array([1.0, 2.0])), [-1.0, 2.0])

    def test_dimension_guard(self):
        # the config refuses the size before any product runs
        with pytest.raises(DimensionLimitError):
            apply_h(FullModelConfig(1.0, (5.0,), (3.0,), (0.1,), ((0.2,),), 70), np.zeros(9800))


class TestDavidsonRoute:

    @pytest.mark.parametrize("cfg", SOLVER_CONFIGS.values(), ids=SOLVER_CONFIGS.keys())
    def test_equals_dense_reference(self, cfg, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dense eigh ran although every certificate should pass")

        shift, ov_ground, ov_excited = dense_reference(cfg)
        monkeypatch.setattr(operators, "_dense_eigh", refuse)
        dressed, got_ground, got_excited, _ = full_model._diagonalize_and_identify(cfg)
        assert dressed - cfg.qubit_freq == pytest.approx(shift, abs=1e-12)
        assert got_ground == pytest.approx(ov_ground, abs=1e-12)
        assert got_excited == pytest.approx(ov_excited, abs=1e-12)

    @pytest.mark.parametrize("cfg", [SOLVER_CONFIGS["above-dipole"],
                                     SOLVER_CONFIGS["two-dipoles"]],
                             ids=["above-dipole", "two-dipoles"])
    def test_failed_certificate_takes_the_dense_path(self, cfg, monkeypatch):
        solved = []

        def counting_eigh(mat):
            solved.append(len(mat))
            return eigh(mat)

        eigh = operators._dense_eigh
        monkeypatch.setattr(full_model, "CERTIFICATE_RTOL", -1.0)  # no residual passes
        monkeypatch.setattr(operators, "_dense_eigh", counting_eigh)
        dressed, got_ground, got_excited, _ = full_model._diagonalize_and_identify(cfg)
        monkeypatch.undo()
        assert solved == [cfg.dim // 2] * 2  # each state's parity block
        shift, ov_ground, ov_excited = dense_reference(cfg)
        assert dressed - cfg.qubit_freq == pytest.approx(shift, abs=1e-12)
        assert got_ground == pytest.approx(ov_ground, abs=1e-12)
        assert got_excited == pytest.approx(ov_excited, abs=1e-12)

    def test_unconverged_run_takes_the_dense_path(self, monkeypatch):
        # a run stopped after two steps has a large residual, so its pair is
        # refused and eigh decides
        cfg = SOLVER_CONFIGS["below-dipole"]
        solved = []

        def counting_eigh(mat):
            solved.append(len(mat))
            return eigh(mat)

        eigh = operators._dense_eigh
        monkeypatch.setattr(full_model, "DAVIDSON_MAX_STEPS", 2)
        monkeypatch.setattr(operators, "_dense_eigh", counting_eigh)
        dressed, got_ground, got_excited, _ = full_model._diagonalize_and_identify(cfg)
        monkeypatch.undo()
        assert solved == [cfg.dim // 2] * 2  # each state's parity block
        shift, ov_ground, ov_excited = dense_reference(cfg)
        assert dressed - cfg.qubit_freq == pytest.approx(shift, abs=1e-12)
        assert got_excited == pytest.approx(ov_excited, abs=1e-12)

    def test_low_overlap_takes_the_dense_path(self, monkeypatch):
        # a Ritz pair below the overlap threshold is never accepted; the dense
        # route then raises as before
        cfg = FullModelConfig(1.0, (1.0,), (), (2.0,), (), 12)
        solved = []

        def counting_eigh(mat):
            solved.append(len(mat))
            return eigh(mat)

        eigh = operators._dense_eigh
        monkeypatch.setattr(operators, "_dense_eigh", counting_eigh)
        with pytest.raises(IdentificationError):
            full_model._diagonalize_and_identify(cfg)
        assert solved == [cfg.dim // 2]  # the ground state's parity block

    def test_resonance_fails_the_gap_certificate(self, monkeypatch):
        # at qubit_freq = dipole frequency the dressed excited state lies
        # ~1e-4 from its neighbour, so 2 r / gap bounds its overlap only to
        # ~3e-9: the pair is refused and eigh decides
        cfg = FullModelConfig(3.0, (5.0,), (3.0,), (0.01,), ((0.01,),), 8)
        solved = []

        def counting_eigh(mat):
            solved.append(len(mat))
            return eigh(mat)

        eigh = operators._dense_eigh
        monkeypatch.setattr(operators, "_dense_eigh", counting_eigh)
        dressed, got_ground, got_excited, _ = full_model._diagonalize_and_identify(cfg)
        monkeypatch.undo()
        assert solved == [cfg.dim // 2]  # the excited state's parity block only
        monkeypatch.setattr(full_model, "OVERLAP_ATOL", np.inf)
        monkeypatch.setattr(operators, "_dense_eigh", counting_eigh)
        full_model._diagonalize_and_identify(cfg)
        assert solved == [cfg.dim // 2]  # the residual alone would have passed
        shift, ov_ground, ov_excited = dense_reference(cfg)
        assert dressed - cfg.qubit_freq == pytest.approx(shift, abs=1e-12)
        # a dense eigenvector is accurate to about eps ||H|| / gap, here
        # 2.2e-16 * 57.5 / 1.3e-4 = 1e-10, so eigh of the odd block and eigh
        # of the whole H agree on the overlap to that, not to the last bit
        assert got_excited == pytest.approx(ov_excited, abs=1e-9)

    def test_certified_state_keeps_its_davidson_pair(self, monkeypatch):
        # at the resonance above only the excited pair fails: the ground
        # values are the certified Davidson pair's own, bit for bit
        cfg = FullModelConfig(3.0, (5.0,), (3.0,), (0.01,), ((0.01,),), 8)
        pairs = []
        run = full_model.davidson

        def recording(*args):
            pairs.append(run(*args))
            return pairs[-1]

        monkeypatch.setattr(full_model, "davidson", recording)
        dressed, got_ground, _, vectors = full_model._diagonalize_and_identify(cfg)
        ground, excited = pairs
        assert np.array_equal(vectors[0], ground.vector)
        assert got_ground == float(ground.vector[0] ** 2)
        assert not np.array_equal(vectors[1], excited.vector)
        # the excited energy is an eigenvalue of H
        values = np.linalg.eigvalsh(kron_hamiltonian(cfg))
        assert np.min(np.abs(values - (dressed + ground.value))) <= 1e-12

    def test_strong_coupling_hands_a_capped_run_to_eigh(self, monkeypatch):
        # the bare ground state spreads over many eigenvectors, none with a
        # squared overlap of 1/2: its run takes at most DAVIDSON_MAX_STEPS
        # products and one more for the Ritz vector, then one dense
        # solve of its parity block, half of H, raises before the excited
        # state's run
        # (f = 0.5 keeps the field and dipole modes stable: 4 f^2 < 1.0 * 1.1)
        cfg = FullModelConfig(1.05, (1.0,), (1.1,), (1.5,), ((0.5,),), 20)
        products, solved = [], []
        add_bands, eigh = full_model._add_bands, operators._dense_eigh

        def counting(bands, psi, out):
            products.append(psi)
            return add_bands(bands, psi, out)

        def counting_eigh(mat):
            solved.append(len(mat))
            return eigh(mat)

        monkeypatch.setattr(full_model, "_add_bands", counting)
        monkeypatch.setattr(operators, "_dense_eigh", counting_eigh)
        with pytest.raises(IdentificationError, match=r"^largest overlap with bare state 0 "
                           r"is 0\.122 < 0\.5; coupling too strong for dressed-state "
                           r"labeling$"):
            full_model._diagonalize_and_identify(cfg)
        assert len(products) <= full_model.DAVIDSON_MAX_STEPS + 1
        assert solved == [cfg.dim // 2]

    @pytest.mark.parametrize("qubit", [2.9, 2.925, 2.995, 3.005, 3.075, 3.1])
    def test_rows_beside_the_dipole_resonance_certify(self, qubit, monkeypatch):
        # within 0.1 of the dipole the gap is 5e-3 to 0.1, so 2 r / gap passes
        # only with r well below the stop tolerance (1e-12 here): the step
        # Davidson takes after passing it leaves that margin, and no dense
        # solve runs, in the n_max solve or in the probe
        def refuse(*args, **kwargs):
            raise AssertionError("dense eigh ran although every certificate should pass")

        monkeypatch.setattr(operators, "_dense_eigh", refuse)
        cfg = FullModelConfig(qubit, (5.0,), (3.0,), (0.01,), ((0.01,),), 14)
        report = dressed_transition(cfg)
        assert report.converged and min(report.overlap_ground, report.overlap_excited) > 0.5

    def test_bare_qubit_stops_at_the_breakdown(self, monkeypatch):
        # no modes: each bare state is an eigenvector, so every run, two at
        # n_max and two in the probe, stops after one product and takes one
        # more for its residual, 0
        cfg = SOLVER_CONFIGS["no-modes"]
        products = []
        add_bands = full_model._add_bands

        def counting(bands, psi, out):
            products.append(psi)
            return add_bands(bands, psi, out)

        monkeypatch.setattr(full_model, "_add_bands", counting)
        with np.errstate(all="raise"):
            report = dressed_transition(cfg)
        assert len(products) == 4 * 2
        assert report.shift == 0.0 and report.converged
        assert report.overlap_ground == report.overlap_excited == 1.0

    @pytest.mark.parametrize("n_max", [3, 4, 5, 6])
    def test_kernel_equals_dense_eigh_across_the_qubit_range(self, n_max):
        # one field at 4.2 and one dipole at 3.0: qubit 3.0 and 4.2 are the
        # resonances.  From each bare state the run converges to the
        # eigenvector that overlaps it most, as dense eigh of H finds it
        for qubit in sorted(set(np.linspace(1.0, 4.6, 10).tolist()) | {3.0, 4.2}):
            cfg = FullModelConfig(qubit, (4.2,), (3.0,), (0.05,), ((0.02,),), n_max)
            diagonal, bands = full_model._h0_diagonal(cfg), full_model._hint_bands(cfg)
            values, vectors = np.linalg.eigh(full_model._assemble(diagonal, bands))
            for bare in full_model._bare_indices(cfg):
                theta, y, residual, _ = operators.davidson(
                    lambda v: full_model._add_bands(bands, v, diagonal * v), diagonal,
                    np.eye(cfg.dim)[bare], full_model.DAVIDSON_MAX_STEPS)
                best = int(np.argmax(vectors[bare] ** 2))
                assert residual <= 1e-12
                assert theta == pytest.approx(values[best], abs=1e-12)
                assert (y @ vectors[:, best]) ** 2 == pytest.approx(1.0, abs=1e-12)
                assert y[bare] ** 2 == pytest.approx(vectors[bare, best] ** 2, abs=1e-12)

    @pytest.mark.parametrize("rtol", [full_model.CERTIFICATE_RTOL, -1.0],
                             ids=["certified", "dense"])
    @pytest.mark.parametrize("qubit", [1.4, 3.0], ids=["off-resonance", "resonance"])
    def test_report_fields_are_floats_on_every_route(self, qubit, rtol, monkeypatch):
        # off resonance both pairs are certified, at the resonance the excited
        # pair goes dense, and with no residual passing both do: every route
        # reports Python floats, so a repr reads the same whichever ran
        monkeypatch.setattr(full_model, "CERTIFICATE_RTOL", rtol)
        report = dressed_transition(FullModelConfig(qubit, (5.0,), (3.0,), (0.01,), ((0.01,),), 8))
        for name in ("bare_transition", "dressed_transition", "shift", "overlap_ground",
                     "overlap_excited"):
            assert type(getattr(report, name)) is float, name
        assert type(report.converged) is bool

    def test_reaches_dimensions_above_the_default_limit(self):
        # one field and two dipoles at n_max 14: dim 5488, as the CI step runs it
        cfg = FullModelConfig(1.0, (5.0,), (3.0, 3.0), (0.01,), ((0.01,), (0.01,)), 14,
                              dim_limit=10_000)
        report = dressed_transition(cfg)
        assert report.converged
        assert report.overlap_ground > 0.99 and report.overlap_excited > 0.99
        assert report.shift == pytest.approx(
            0.01**2 * (1.0 / (1.0 - 5.0) + 1.0 / (1.0 + 5.0)), rel=1e-2)


# the full-dressed benchmark's kinds of point: n_max 14 below and above the
# dipole frequency, n_max 30, and one field with two dipoles at n_max 9
PROBE_CONFIGS = {
    "sweep-below": FullModelConfig(1.4, (5.0,), (3.0,), (0.01,), ((0.01,),), 14),
    "sweep-above": FullModelConfig(4.2, (5.0,), (3.0,), (0.01,), ((0.01,),), 14),
    "single": FullModelConfig(2.2, (5.0,), (3.0,), (0.01,), ((0.01,),), 30),
    "three-mode": FullModelConfig(2.2, (5.0,), (3.0, 3.0), (0.01,), ((0.01,), (0.01,)), 9),
}


def probe_runs(cfg, monkeypatch):
    """The n_max + 2 solve from the bare states and from the padded n_max
    vectors, as (result, products H_int psi taken) each."""
    *_, vectors = full_model._diagonalize_and_identify(cfg)
    wider = replace(cfg, n_max=cfg.n_max + 2)
    products = []
    add_bands = full_model._add_bands

    def counting(bands, psi, out):
        products.append(len(psi))
        return add_bands(bands, psi, out)

    monkeypatch.setattr(full_model, "_add_bands", counting)
    cold = full_model._diagonalize_and_identify(wider)
    cold_products = len(products)
    warm = full_model._diagonalize_and_identify(wider, full_model._pad(cfg, vectors, wider.n_max))
    return (cold, cold_products), (warm, len(products) - cold_products)


class TestWarmProbe:

    def test_padding_keeps_every_amplitude_in_place(self):
        cfg = MODE_CONFIGS[2]  # two fields and a dipole at n_max 5
        vectors = np.random.default_rng(3).normal(size=(2, cfg.dim))
        padded = full_model._pad(cfg, vectors, 7).reshape((2, 2) + (7,) * cfg.n_modes)
        assert np.array_equal(padded[..., :5, :5, :5], vectors.reshape((2,) + cfg.mode_dims))
        assert np.count_nonzero(padded) == np.count_nonzero(vectors)

    @pytest.mark.parametrize("cfg", list(SOLVER_CONFIGS.values()) + list(PROBE_CONFIGS.values()),
                             ids=list(SOLVER_CONFIGS) + list(PROBE_CONFIGS))
    def test_warm_probe_equals_cold_probe(self, cfg, monkeypatch):
        (cold, cold_products), (warm, warm_products) = probe_runs(cfg, monkeypatch)
        for got, want in zip(warm[:3], cold[:3]):
            assert got == pytest.approx(want, abs=1e-12)
        assert abs(warm[3][0] @ cold[3][0]) == pytest.approx(1.0, abs=1e-12)
        assert abs(warm[3][1] @ cold[3][1]) == pytest.approx(1.0, abs=1e-12)
        assert warm_products <= cold_products

    @pytest.mark.parametrize("cfg", PROBE_CONFIGS.values(), ids=PROBE_CONFIGS.keys())
    def test_warm_probe_takes_at_most_half_the_products(self, cfg, monkeypatch):
        # at a converged truncation the padded n_max vectors are eigenvectors
        # of the wider H to within its tolerance; a truncation far from
        # converged (two-fields at n_max 5) saves less
        (_, cold_products), (_, warm_products) = probe_runs(cfg, monkeypatch)
        assert 2 * warm_products <= cold_products

    def test_dressed_transition_probes_from_the_padded_vectors(self, monkeypatch):
        cfg = PROBE_CONFIGS["sweep-below"]
        starts = []
        run = full_model.davidson

        def recording(matvec, diagonal, start, max_steps):
            starts.append(start)
            return run(matvec, diagonal, start, max_steps)

        monkeypatch.setattr(full_model, "davidson", recording)
        report = dressed_transition(cfg)
        assert report.converged
        assert len(starts) == 4
        # the n_max runs start from the bare states, the probe's from states
        # spread over many levels
        assert [np.count_nonzero(start) for start in starts[:2]] == [1, 1]
        assert min(np.count_nonzero(start) for start in starts[2:]) > 10
        assert all(len(start) == 2 * 16 ** 2 for start in starts[2:])

    @pytest.mark.parametrize("cfg", [PROBE_CONFIGS["sweep-above"], SOLVER_CONFIGS["two-dipoles"]],
                             ids=["sweep-above", "two-dipoles"])
    def test_failed_warm_certificate_runs_eigh_once(self, cfg, monkeypatch):
        # the n_max runs start from a bare state (one nonzero entry) and pass;
        # every run from a padded vector is made to fail its residual test,
        # so the probe solves each state's parity block of the one wider H
        run, eigh = full_model.davidson, operators._dense_eigh
        solved = []

        def failing_when_warm(matvec, diagonal, start, max_steps):
            pair = run(matvec, diagonal, start, max_steps)
            return pair._replace(residual=np.inf) if np.count_nonzero(start) > 1 else pair

        def counting_eigh(mat):
            solved.append(len(mat))
            return eigh(mat)

        expected = dressed_transition(cfg)
        monkeypatch.setattr(full_model, "davidson", failing_when_warm)
        monkeypatch.setattr(operators, "_dense_eigh", counting_eigh)
        report = dressed_transition(cfg)
        monkeypatch.undo()
        assert solved == [replace(cfg, n_max=cfg.n_max + 2).dim // 2] * 2
        assert report == expected


class TestDressedTransition:

    def test_decoupled_shift_is_zero(self):
        cfg = FullModelConfig(1.0, (5.0,), (3.0,), (0.0,), ((0.0,),), 6)
        report = dressed_transition(cfg)
        assert abs(report.shift) <= 1e-12
        assert report.overlap_ground == pytest.approx(1.0, abs=1e-12)
        assert report.overlap_excited == pytest.approx(1.0, abs=1e-12)
        assert report.converged
        assert report.shift == report.dressed_transition - report.bare_transition

    @pytest.mark.parametrize("cfg", MODE_CONFIGS, ids=["1-mode", "2-mode", "3-mode"])
    def test_equals_complex_operator_reference(self, cfg):
        values, vectors = np.linalg.eigh(build_h0(cfg).entries + build_hint(cfg).entries)
        picked = []
        for bare in (0, cfg.n_max ** cfg.n_modes):
            overlaps = np.abs(vectors[bare]) ** 2
            best = np.argmax(overlaps)
            picked.append((values[best], overlaps[best]))
        (e_ground, ov_ground), (e_excited, ov_excited) = picked
        report = dressed_transition(cfg)
        assert report.shift == pytest.approx(e_excited - e_ground - cfg.qubit_freq, abs=1e-12)
        assert report.overlap_ground == pytest.approx(ov_ground, abs=1e-12)
        assert report.overlap_excited == pytest.approx(ov_excited, abs=1e-12)

    def test_matches_perturbation_engine(self):
        cfg = single_mode_cfg(omega=1.0, mode=5.0, g=0.05, n_max=30)
        report = dressed_transition(cfg)
        pert = dispersive_single_mode(1.0, 5.0, 0.05)
        assert report.shift == pytest.approx(pert, abs=1e-6)

    def test_dipole_changes_the_shift(self):
        with_dipole = FullModelConfig(1.0, (5.0,), (3.0,), (0.05,), ((0.3,),), 10)
        without = FullModelConfig(1.0, (5.0,), (3.0,), (0.05,), ((0.0,),), 10)
        delta = dressed_transition(with_dipole).shift - dressed_transition(without).shift
        assert abs(delta) > 1e-8

    def test_identification_fails_at_strong_coupling(self):
        cfg = FullModelConfig(1.0, (1.0,), (), (2.0,), (), 12)
        with pytest.raises(IdentificationError):
            dressed_transition(cfg)

    def test_perturbative_consistency_quartic(self):
        # residual against second order drops ~16x when g is halved
        def residual(g):
            cfg = single_mode_cfg(omega=1.0, mode=5.0, g=g, n_max=20)
            exact = dressed_transition(cfg).shift
            h0 = np.diag(build_h0(cfg).entries).real
            pert = transition_shift(h0, build_hint(cfg).entries, cfg.n_max, 0)
            return abs(exact - pert)

        ratio = residual(0.01) / residual(0.005)
        assert 16.0 * 0.7 <= ratio <= 16.0 * 1.3

    def test_truncation_is_cauchy(self):
        # successive truncation differences shrink until they reach the
        # double-precision noise floor
        noise_floor = 1e-13
        shifts = {}
        for n in range(8, 18, 2):
            cfg = FullModelConfig(1.0, (1.3,), (), (0.5,), (), n)
            shifts[n] = dressed_transition(cfg).dressed_transition
        diffs = [abs(shifts[n + 2] - shifts[n]) for n in range(8, 16, 2)]
        assert all(d < 1e-8 for d in diffs)
        for previous, current in zip(diffs, diffs[1:]):
            assert current < previous or current <= noise_floor


class TestDispersiveSingleMode:

    def test_zero_coupling(self):
        assert dispersive_single_mode(1.0, 5.0, 0.0) == 0.0

    def test_quadratic_scaling(self):
        small = dispersive_single_mode(1.0, 5.0, 0.01)
        double = dispersive_single_mode(1.0, 5.0, 0.02)
        assert double == pytest.approx(4.0 * small, rel=0.01)

    def test_near_resonance_rejected(self):
        with pytest.raises(NearResonanceError):
            dispersive_single_mode(1.0, 1.0, 0.01)

    def test_sign_for_mode_above_qubit(self):
        # mode above the qubit frequency pushes the transition down
        assert dispersive_single_mode(1.0, 5.0, 0.05) < 0.0

    @pytest.mark.parametrize("omega,mode,g,n_max", [
        (1.0, 5.0, 0.01, 30), (2.7, 0.4, 0.3, 12), (0.3, 1.9, 0.05, 7)])
    def test_real_path_equals_complex_operator_path(self, omega, mode, g, n_max):
        # the dense reference at n_max levels: the shift does not depend on n_max
        cfg = single_mode_cfg(omega, mode, g, n_max)
        h0 = np.diag(build_h0(cfg).entries).real
        bare_ground, bare_excited = 0, n_max
        old = transition_shift(h0, build_hint(cfg).entries, bare_excited, bare_ground)
        assert dispersive_single_mode(omega, mode, g) == old


    @pytest.mark.parametrize("g", [0.0, -0.0, 1e-300, -1e-300, 0.3, -0.3, 1e200, -1e200, 7])
    def test_scaled_unit_interaction_equals_the_bands_at_this_coupling(self, g):
        # every ladder amplitude on the levels 0 and 1 is 1, so g times the
        # unit H_int couples the same states with g itself
        scaled = float(g) * full_model._UNIT_TWO_LEVEL_HINT
        built = full_model._assemble(np.zeros(4), full_model._coupling_bands(2, (float(g),), ()))
        coupled = np.abs(built) > 0
        assert np.array_equal(np.abs(scaled) > 0, coupled)
        assert np.array_equal(scaled[coupled], built[coupled])
        assert np.count_nonzero(coupled) == (0 if g == 0 else 4)

    def test_unit_interaction_is_read_only(self):
        with pytest.raises(ValueError):
            full_model._UNIT_TWO_LEVEL_HINT[0, 1] = 1.0

    def test_arrays_equal_scalar_calls_bit_for_bit(self):
        qubit = np.linspace(0.3, 4.9, 7)[:, None]
        mode = np.array([0.2, 5.0, 11.0])
        shifts = dispersive_single_mode(qubit, mode, 0.03)
        assert shifts.shape == (7, 3)
        for (r, c), shift in np.ndenumerate(shifts):
            alone = dispersive_single_mode(float(qubit[r, 0]), float(mode[c]), 0.03)
            assert type(alone) is float and shift == alone

    def test_array_error_names_the_first_resonant_entry(self):
        with pytest.raises(NearResonanceError, match=r"= 0\.000e\+00 is below"):
            dispersive_single_mode(np.array([1.0, 5.0, 4.0]), 5.0, 0.01)
        with pytest.raises(ValueError, match="must be positive"):
            dispersive_single_mode(np.array([1.0, -5.0]), 5.0, 0.01)


class TestRefractiveModulation:

    def test_arrays_equal_scalar_calls_bit_for_bit(self):
        index = np.linspace(1.0, 3.7, 9)
        for freq in (0.7, np.full(9, 2.3)):
            modulated = refractive_modulation(freq, index)
            for k, value in enumerate(modulated):
                assert value == refractive_modulation(float(np.broadcast_to(freq, 9)[k]),
                                                      float(index[k]))

    def test_array_error_names_the_first_bad_entry(self):
        with pytest.raises(ValueError, match=r"index must be >= 1, got 0\.5$"):
            refractive_modulation(1.0, np.array([1.5, 0.5, 0.25]))

    def test_vacuum(self):
        assert refractive_modulation(1.0, 1.0) == 1.0

    def test_modulated_value(self):
        assert refractive_modulation(1.0, 1.25) == pytest.approx(0.8, abs=0)

    def test_shift_negative_above_unity(self):
        for index in (1.1, 1.5, 2.0, 10.0):
            assert refractive_modulation(1.0, index) - 1.0 < 0.0

    def test_invalid_index(self):
        with pytest.raises(ValueError):
            refractive_modulation(1.0, 0.9)


# one field and one dipole at n_max 14, the benchmark's sweep point
BAND_CFG = FullModelConfig(2.2, (5.0,), (3.0,), (0.01,), ((0.01,),), 14)


def same_bands(got, want):
    return ([offset for offset, _ in got] == [offset for offset, _ in want]
            and all(np.array_equal(a, b) for (_, a), (_, b) in zip(got, want)))


class TestBandCache:
    """_hint_bands builds the bands once per coupling set and n_max."""

    @pytest.mark.parametrize("changes", [
        {"qubit_freq": 3.7}, {"field_freqs": (4.0,)}, {"dipole_freqs": (2.5,)},
        {"dim_limit": 5000}], ids=["qubit", "field", "dipole", "dim_limit"])
    def test_cached_bands_equal_a_fresh_build(self, changes):
        other = replace(BAND_CFG, **changes)
        full_model._coupling_bands.cache_clear()
        cached = full_model._hint_bands(BAND_CFG)
        hit = full_model._hint_bands(other)
        assert hit is cached
        full_model._coupling_bands.cache_clear()
        fresh = full_model._hint_bands(other)
        assert fresh is not cached
        assert same_bands(hit, fresh)

    def test_cached_coefficients_are_read_only(self):
        for _, coefficients in full_model._hint_bands(BAND_CFG):
            with pytest.raises(ValueError):
                coefficients[0] = 1.0

    def test_smaller_dim_limit_still_raises_on_a_cache_hit(self):
        # the bands do not read dim_limit; the config refuses it when built
        full_model._hint_bands(BAND_CFG)
        with pytest.raises(DimensionLimitError):
            replace(BAND_CFG, dim_limit=BAND_CFG.dim - 1)

    def test_qubit_sweep_builds_one_band_set_per_n_max(self):
        full_model._coupling_bands.cache_clear()
        for q in np.linspace(1.0, 2.6, 9):
            assert dressed_transition(replace(BAND_CFG, qubit_freq=q)).converged
        info = full_model._coupling_bands.cache_info()
        # n_max and the n_max + 2 probe
        assert (info.misses, info.hits) == (2, 16)
