import numpy as np
import pytest

from qvdw import (
    HermitianOperator,
    HermiticityError,
    TruncationError,
    ladder,
    pauli,
    quadratures,
)
from qvdw import operators
from qvdw.operators import check_hermitian, davidson, lanczos, truncation_probe


class TestLadder:

    def test_two_level_truncation(self):
        a = ladder(2)
        expected = np.zeros((2, 2))
        expected[0, 1] = 1.0
        assert np.array_equal(a, expected)

    def test_sqrt_weights(self):
        a = ladder(3)
        assert a[1, 2] == pytest.approx(np.sqrt(2.0), abs=0)
        assert a[0, 1] == 1.0

    @pytest.mark.parametrize("n_max", [2, 3, 8, 40, 64])
    def test_equals_the_entrywise_build(self, n_max):
        want = np.zeros((n_max, n_max))
        for k in range(1, n_max):
            want[k - 1, k] = np.sqrt(k)
        assert np.array_equal(ladder(n_max), want)

    def test_truncation_error(self):
        with pytest.raises(TruncationError):
            ladder(1)

    def test_commutator_n4(self):
        a = ladder(4)
        comm = a @ a.T - a.T @ a
        assert np.allclose(comm, np.diag([1.0, 1.0, 1.0, -3.0]), atol=2e-15)

    @pytest.mark.parametrize("n_max", range(2, 11))
    def test_truncated_commutator_identity(self, n_max):
        # [a, a^dag] = I - n_max |n_max-1><n_max-1|; sqrt(k)*sqrt(k) lands
        # within one ulp of k in IEEE doubles, never exactly on it
        a = ladder(n_max)
        comm = a @ a.T - a.T @ a
        expected = np.eye(n_max)
        expected[-1, -1] -= n_max
        assert np.allclose(comm, expected, atol=4e-15)

    def test_harmonic_oscillator_spectrum(self):
        n_max = 20
        a = ladder(n_max)
        h = a.T @ a + 0.5 * np.eye(n_max)
        values = np.linalg.eigvalsh(h)
        assert np.allclose(values[:3], [0.5, 1.5, 2.5], atol=1e-12)


class TestPauli:

    def test_z(self):
        assert np.array_equal(pauli("z"), np.diag([1.0, -1.0]))

    def test_x(self):
        assert np.array_equal(pauli("x"), np.array([[0, 1], [1, 0]], dtype=complex))

    @pytest.mark.parametrize("axis", ["x", "y", "z"])
    def test_spectrum(self, axis):
        values = np.linalg.eigvalsh(pauli(axis))
        assert np.allclose(values, [-1.0, 1.0], atol=1e-15)

    @pytest.mark.parametrize("axis", ["x", "y", "z"])
    def test_hermiticity(self, axis):
        m = pauli(axis)
        assert np.max(np.abs(m - m.conj().T)) <= 1e-12

    @pytest.mark.parametrize("axis", ["x", "y", "z"])
    def test_read_only_array_equal_to_the_checked_operator(self, axis):
        m = pauli(axis)
        assert m.dtype == complex
        with pytest.raises(ValueError):
            m[0, 0] = 2.0
        # the checked operator's complex copy, bit for bit
        assert m.tobytes() == HermitianOperator(m).entries.tobytes()

    def test_bad_axis(self):
        with pytest.raises(ValueError):
            pauli("w")


class TestQuadratures:

    def test_ground_state_x_variance(self):
        x, _ = quadratures(8, 1.0, 1.0)
        assert (x @ x)[0, 0] == pytest.approx(0.5, rel=1e-12)

    def test_ground_state_x_mean(self):
        x, _ = quadratures(8, 1.0, 1.0)
        assert x[0, 0] == 0.0

    def test_canonical_commutator(self):
        n_max = 6
        x, p = quadratures(n_max, 2.0, 3.0)
        comm = x @ p - p @ x
        diag = np.diag(comm)
        assert np.allclose(diag[: n_max - 1], 1.0j, atol=1e-12)
        # last diagonal entry carries the truncation artifact
        assert diag[-1] != pytest.approx(1.0j, abs=0.1)

    @pytest.mark.parametrize("mass,freq", [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0)])
    def test_invalid_arguments(self, mass, freq):
        with pytest.raises(ValueError):
            quadratures(4, mass, freq)


class TestCheckHermitian:

    def test_rejects_non_symmetric_real_matrix(self):
        with pytest.raises(HermiticityError):
            check_hermitian(np.array([[1.0, 2.0], [2.0 + 1e-9, 1.0]]))

    def test_accepts_symmetric_real_matrix(self):
        check_hermitian(np.array([[1.0, 2.0], [2.0, -1.0]]))


class TestHermitianOperator:

    def test_rejects_non_hermitian_entries(self):
        with pytest.raises(HermiticityError):
            HermitianOperator(np.array([[0.0, 1.0], [0.5, 0.0]]))

    def test_rejects_non_square_entries(self):
        with pytest.raises(ValueError):
            HermitianOperator(np.zeros((2, 3)))

    def test_entries_frozen(self):
        op = HermitianOperator(np.eye(2))
        with pytest.raises(ValueError):
            op.entries[0, 0] = 5.0

    def test_tolerates_tiny_asymmetry(self):
        m = np.eye(2, dtype=complex)
        m[0, 1] = 1e-13
        op = HermitianOperator(m)
        assert op.dim == 2


class TestTruncationProbe:

    def test_agreeing_probe_converges(self):
        assert truncation_probe(1.0, 1.0 + 1e-9, 1e-8) == (1.0, True)

    def test_distant_probe_does_not_converge(self):
        assert truncation_probe(1.0, 1.0 + 1e-7, 1e-8) == (1.0, False)

    def test_missing_probe_does_not_converge(self):
        assert truncation_probe(1.0, None, 1e-8) == (1.0, False)


class TestLanczosLowest:

    @pytest.mark.parametrize("dim", [1, 2, 7, 40, 120])
    def test_equals_dense_eigh_on_random_symmetric_matrices(self, dim):
        rng = np.random.default_rng(dim)
        mat = rng.normal(size=(dim, dim))
        mat += mat.T
        theta, y, residual, _ = lanczos(mat.__matmul__, rng.normal(size=dim))
        values, vectors = np.linalg.eigh(mat)
        assert theta == pytest.approx(values[0], abs=1e-12)
        ground = vectors[:, 0] * np.sign(vectors[:, 0] @ y)
        assert np.max(np.abs(y - ground)) <= 1e-12
        assert residual == pytest.approx(np.linalg.norm(mat @ y - theta * y), abs=1e-15)
        assert residual <= 1e-12

    def test_steps_are_capped_at_the_dimension(self, monkeypatch):
        # with no tolerance left the run never stops early: the Krylov space
        # grows to the whole space, where the Ritz pair is exact
        monkeypatch.setattr(operators, "LANCZOS_RTOL", 0.0)
        rng = np.random.default_rng(3)
        mat = np.diag(np.arange(6.0)) + 1e-3 * np.ones((6, 6))
        products = []

        def matvec(v):
            products.append(v)
            return mat @ v

        theta, _, residual, _ = lanczos(matvec, rng.normal(size=6))
        assert len(products) == 6 + 1  # the steps, then the residual
        assert theta == pytest.approx(np.linalg.eigvalsh(mat)[0], abs=1e-14)
        assert residual <= 1e-14

    def test_breakdown_in_an_invariant_subspace(self):
        # the start lies in the span of the two lowest eigenvectors, so the
        # Krylov space stops growing after two steps
        mat = np.diag([1.0, 2.0, 3.0, 4.0, 5.0])
        products = []

        def matvec(v):
            products.append(v)
            return mat @ v

        theta, y, residual, _ = lanczos(matvec, np.array([1.0, 1.0, 0.0, 0.0, 0.0]))
        assert len(products) <= 3
        assert theta == pytest.approx(1.0, abs=1e-15)
        assert np.max(np.abs(np.abs(y) - [1.0, 0.0, 0.0, 0.0, 0.0])) <= 1e-15
        assert residual <= 1e-15

    def test_never_leaves_the_krylov_space_of_its_start(self):
        # the lowest eigenvector is orthogonal to the start: Lanczos finds the
        # lowest state it can reach, which is why callers certify the result
        mat = np.diag([0.0, 1.0, 2.0, 3.0])
        theta, y, _, _ = lanczos(mat.__matmul__, np.array([0.0, 1.0, 1.0, 1.0]))
        assert theta == pytest.approx(1.0, abs=1e-14)
        assert y[0] == 0.0

    def test_max_steps_stops_the_run_early(self):
        rng = np.random.default_rng(5)
        mat = rng.normal(size=(30, 30))
        mat += mat.T
        products = []

        def matvec(v):
            products.append(v)
            return mat @ v

        theta, y, residual, _ = lanczos(matvec, rng.normal(size=30), max_steps=3)
        assert len(products) == 3 + 1  # the steps, then the residual
        assert np.linalg.norm(y) == pytest.approx(1.0, abs=1e-14)
        assert residual == pytest.approx(np.linalg.norm(mat @ y - theta * y), abs=1e-14)
        assert residual > 1e-3

    def test_gap_is_the_distance_to_the_nearest_other_ritz_value(self):
        # a run over the whole space: the Ritz values are the eigenvalues
        mat = np.diag([0.0, 1.0, 1.25, 3.0])
        assert lanczos(mat.__matmul__, np.ones(4)).gap == pytest.approx(1.0, abs=1e-14)


class TestDavidson:

    @pytest.mark.parametrize("dim", [2, 9, 50, 200])
    def test_finds_the_eigenvector_that_overlaps_the_start_most(self, dim):
        # an interior eigenvector, tilted: the start overlaps it with weight
        # about 0.9, and no other eigenvector comes close; H is not
        # diagonally dominant, so its diagonal preconditions poorly, and the
        # run may need the whole space
        rng = np.random.default_rng(dim)
        q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        values = np.sort(rng.uniform(-5.0, 5.0, size=dim))
        mat = (q * values) @ q.T
        target = dim // 2
        start = q[:, target] + 0.33 * rng.normal(size=dim) / np.sqrt(dim)
        theta, y, residual, _ = davidson(mat.__matmul__, np.diag(mat), start, dim)
        overlaps = (q.T @ start) ** 2
        best = int(np.argmax(overlaps))
        assert theta == pytest.approx(values[best], abs=1e-12)
        assert np.max(np.abs(y - q[:, best] * np.sign(q[:, best] @ y))) <= 1e-11
        assert residual <= 1e-12

    @pytest.mark.parametrize("dim", [1, 2, 7, 30, 60])
    def test_equals_dense_eigh_on_diagonally_dominant_matrices(self, dim):
        # levels spread over [-10, 10] and couplings of 0.05: from each basis
        # state the run finds the eigenvector that overlaps it most, in far
        # fewer products than the dimension once that is large
        rng = np.random.default_rng(dim)
        diagonal = np.sort(rng.uniform(-10.0, 10.0, size=dim))
        mat = 0.05 * rng.normal(size=(dim, dim))
        mat = np.diag(diagonal) + np.triu(mat, 1) + np.triu(mat, 1).T
        values, vectors = np.linalg.eigh(mat)
        for i in range(dim):
            products = []

            def matvec(v):
                products.append(v)
                return mat @ v

            start = np.zeros(dim)
            start[i] = 1.0
            theta, y, residual, _ = davidson(matvec, diagonal, start, dim)
            best = int(np.argmax(vectors[i] ** 2))
            assert theta == pytest.approx(values[best], abs=1e-12)
            assert np.max(np.abs(y - vectors[:, best] * np.sign(vectors[:, best] @ y))) <= 1e-11
            assert residual == pytest.approx(np.linalg.norm(mat @ y - theta * y), abs=1e-15)
            assert residual <= 1e-12
            assert len(products) <= min(dim, 24) + 1

    def test_tolerance_follows_the_diagonal_not_the_ritz_value(self):
        # a level at 0 among 40 levels spread over +-1000: its eigenvalue lies
        # near 0, where a tolerance scaled to |theta| would lie below the
        # rounding of H y and hold the run until its basis spans the space
        rng = np.random.default_rng(4)
        diagonal = np.sort(np.append(rng.uniform(-1000.0, 1000.0, size=40), 0.0))
        mat = np.diag(diagonal) + 0.5 * (np.ones((41, 41)) - np.eye(41))
        products = []

        def matvec(v):
            products.append(v)
            return mat @ v

        start = (diagonal == 0.0).astype(float)
        pair = davidson(matvec, diagonal, start, 60)
        values, vectors = np.linalg.eigh(mat)
        best = int(np.argmax((vectors.T @ start) ** 2))
        assert len(products) <= 12
        assert pair.value == pytest.approx(values[best], abs=1e-12)
        assert pair.residual <= 1e-11

    def test_stagnation_steps_along_the_residual(self):
        # levels symmetric about the start's 0 and equal couplings: the first
        # correction couples to the start by sum 0.25 / D_i = 0, so the Ritz
        # pair does not move and the next correction lies in the basis; the
        # run steps along the residual instead and converges
        diagonal = np.linspace(-1000.0, 1000.0, 41)
        mat = np.diag(diagonal) + 0.5 * (np.ones((41, 41)) - np.eye(41))
        products = []

        def matvec(v):
            products.append(v)
            return mat @ v

        pair = davidson(matvec, diagonal, np.eye(41)[20], 60)
        assert len(products) <= 12
        assert pair.value == pytest.approx(np.linalg.eigvalsh(mat)[20], abs=1e-12)
        assert pair.residual <= 1e-10

    def test_breakdown_when_the_start_is_an_eigenvector(self):
        # the bare qubit's H: the residual vanishes, so the correction does,
        # and the run stops after its first product, with no division by
        # zero; the final product gives the residual
        products = []

        def matvec(v):
            products.append(v)
            return np.array([-0.5, 0.5]) * v

        with np.errstate(all="raise"):
            pair = davidson(matvec, np.array([-0.5, 0.5]), np.array([1.0, 0.0]), 60)
        assert len(products) == 2
        assert pair.value == -0.5
        assert pair.residual == 0.0
        assert pair.gap == np.inf
        assert np.array_equal(pair.vector, [1.0, 0.0])

    def test_breakdown_in_an_invariant_subspace(self):
        # H splits into two blocks and the start lies in the first, of
        # dimension 2: the run never leaves it and stops once it holds it
        mat = np.diag([1.0, 2.0, 3.0, 4.0, 5.0])
        mat[0, 1] = mat[1, 0] = 0.1
        mat[2, 3] = mat[3, 2] = 0.1
        products = []

        def matvec(v):
            products.append(v)
            return mat @ v

        with np.errstate(all="raise"):
            pair = davidson(matvec, np.diag(mat), np.eye(5)[0], 60)
        assert len(products) <= 3 + 1
        assert pair.value == pytest.approx(np.linalg.eigvalsh(mat[:2, :2])[0], abs=1e-14)
        assert np.all(pair.vector[2:] == 0.0)
        assert pair.residual <= 1e-14

    def test_gap_is_the_distance_to_the_nearest_other_ritz_value(self):
        # a run over the whole space: the Ritz values are the eigenvalues
        mat = np.diag([0.0, 1.0, 1.25, 3.0]) + 0.01 * (np.ones((4, 4)) - np.eye(4))
        pair = davidson(mat.__matmul__, np.diag(mat), np.array([0.1, 0.9, 0.3, 0.2]), 4)
        values = np.linalg.eigvalsh(mat)
        assert pair.value == pytest.approx(values[1], abs=1e-14)
        assert pair.gap == pytest.approx(values[2] - values[1], abs=1e-14)

    @pytest.mark.parametrize("max_steps, steps", [(5, 5), (40, 40), (400, 200)])
    def test_a_start_with_no_dominant_eigenvector_runs_to_the_cap(self, max_steps, steps):
        # the start spreads evenly over 200 eigenvectors of a dense H, so
        # none overlaps it by more than ~1/200: only the cap, or the whole
        # space, ends the run, and one more product gives the Ritz vector's
        # residual
        dim = 200
        rng = np.random.default_rng(7)
        q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        mat = (q * np.linspace(0.0, 1.0, dim)) @ q.T
        start = q @ np.ones(dim)
        products = []

        def matvec(v):
            products.append(v)
            return mat @ v

        pair = davidson(matvec, np.diag(mat), start, max_steps)
        assert len(products) == steps + 1
        if max_steps > dim:  # the basis spans the whole space: exact
            assert pair.residual <= 1e-12
        else:
            assert pair.residual > 1e-3


def diag_built_eigenpairs(alpha, beta):
    """Independent reference for the Ritz-check solve: T from np.diag calls,
    shifted by a Gershgorin lower bound so that it is positive
    semidefinite, and solved by an SVD, whose singular pairs are then its
    eigenpairs."""
    off = np.diag(beta, 1) + np.diag(beta, -1)
    shift = np.min(alpha - np.abs(off).sum(axis=1))
    _, s, vh = np.linalg.svd(np.diag(alpha - shift) + off)
    return s[::-1] + shift, vh[::-1]


def recorded_checks(monkeypatch, run):
    """The (alpha, beta) of every Ritz check that ``run()`` makes."""
    recorded = []
    solve = operators._tridiagonal_eigenpairs

    def recording(alpha, beta):
        recorded.append((np.array(alpha), np.array(beta)))
        return solve(alpha, beta)

    with monkeypatch.context() as patched:
        patched.setattr(operators, "_tridiagonal_eigenpairs", recording)
        run()
    return recorded


def recorded_fock_run(monkeypatch, u, n_max):
    """The Ritz checks of the Fock solve at coupling ratio u and n_max."""
    from qvdw import vdw
    return recorded_checks(
        monkeypatch, lambda: vdw.fock_ground_state(vdw.config_for_coupling(u), n_max))


def assert_eigenpairs_of(alpha, beta):
    """_tridiagonal_eigenpairs solves T: ascending values within 1e-13 ||T||
    of the reference's, unit orthogonal rows with residuals within
    1e-13 ||T||, and each vector whose value lies more than 1e-8 from every
    other one the reference's up to sign, within 1e-13 ||T|| / gap."""
    m = len(alpha)
    t = np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1)
    norm = np.linalg.norm(t, 2)
    values, vectors = operators._tridiagonal_eigenpairs(alpha, beta)
    want_values, want_vectors = diag_built_eigenpairs(alpha, beta)
    assert values.shape == (m,) and vectors.shape == (m, m)
    assert np.all(np.diff(values) >= 0.0)
    assert np.max(np.abs(values - want_values)) <= 1e-13 * norm
    assert np.max(np.abs(vectors @ t - values[:, None] * vectors)) <= 1e-13 * norm
    assert np.max(np.abs(vectors @ vectors.T - np.eye(m))) <= 1e-13
    gaps = np.full(m, np.inf)
    gaps[:-1] = np.diff(values)
    gaps[1:] = np.minimum(gaps[1:], np.diff(values))
    for vector, want, gap in zip(vectors, want_vectors, gaps):
        if gap > 1e-8:
            sign = np.sign(vector @ want)
            assert np.max(np.abs(vector - sign * want)) <= 1e-13 * norm / min(gap, norm)


class TestTridiagonalEigenpairs:
    """LAPACK's symmetric eigensolver on the Ritz-check T agrees with the
    independent SVD reference to rounding."""

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 17, 40])
    def test_equals_the_diag_build_on_random_coefficients(self, m):
        rng = np.random.default_rng(m)
        for trial in range(12):
            alpha, beta = rng.normal(size=m), rng.uniform(0.0, 2.0, size=m - 1)
            if trial % 2:
                beta = -beta  # of either sign, as in the separable bound's T
            if trial % 3 == 2 and m > 1:
                beta[rng.integers(m - 1)] = 0.0  # T splits in two
            assert_eigenpairs_of(alpha, beta)

    def test_equals_the_diag_build_on_a_recorded_weak_fock_run(self, monkeypatch):
        from qvdw import vdw
        # from the Gaussian ground state the weak-coupling run stops after one
        # step, so it starts from the vacuum |0, 0>
        monkeypatch.setattr(vdw, "_gaussian_amplitudes", lambda cfg, n: np.diag(np.eye(n)[0]))
        recorded = recorded_fock_run(monkeypatch, 0.3, 24)
        assert max(len(alpha) for alpha, _ in recorded) >= 10
        for alpha, beta in recorded:
            assert_eigenpairs_of(alpha, beta)

    def test_equals_the_diag_build_on_a_recorded_fock_run(self, monkeypatch):
        recorded = recorded_fock_run(monkeypatch, 0.97, 40)
        assert max(len(alpha) for alpha, _ in recorded) >= 40
        for alpha, beta in recorded:
            assert_eigenpairs_of(alpha, beta)

    def test_one_row_is_its_own_eigenpair(self):
        values, vectors = operators._tridiagonal_eigenpairs(np.array([0.7]), np.array([]))
        assert np.array_equal(values, [0.7])
        assert np.array_equal(vectors, [[1.0]])
