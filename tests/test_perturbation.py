import numpy as np
import pytest

from qvdw import (
    DegeneracyError,
    FullModelConfig,
    build_h0,
    build_hint,
    pauli,
    second_order_shift,
    transition_shift,
)

SX = pauli("x").real


def two_level(omega, g):
    """h0 diag of (omega/2) sigma_z plus g sigma_x coupling."""
    return np.array([omega / 2.0, -omega / 2.0]), g * SX


class TestSecondOrderShift:

    def test_two_level_ground(self):
        # ground state is index 1 for sigma_z = diag(1, -1)
        h0, hi = two_level(1.0, 0.1)
        res = second_order_shift(h0, hi, 1)
        assert res.second_order == pytest.approx(-0.01, rel=1e-12)
        assert res.first_order == 0.0
        assert res.terms_used == 1
        assert res.min_denominator == pytest.approx(1.0)

    def test_against_two_level_closed_form(self):
        # exact eigenvalues are +-sqrt(omega^2/4 + g^2); the second-order
        # result must agree up to the quartic remainder
        omega, g = 1.0, 0.1
        h0, hi = two_level(omega, g)
        res = second_order_shift(h0, hi, 1)
        exact = -np.sqrt(omega**2 / 4.0 + g**2)
        assert abs(exact - (h0[1] + res.second_order)) < 2.0 * g**4 / omega**3

    def test_zero_perturbation(self):
        res = second_order_shift(np.array([0.0, 1.0]), np.zeros((2, 2)), 0)
        assert res.first_order == 0.0
        assert res.second_order == 0.0
        assert res.terms_used == 0
        assert res.min_denominator == np.inf

    def test_degenerate_coupled_states_abort(self):
        with pytest.raises(DegeneracyError):
            second_order_shift(np.array([0.0, 0.0]), SX, 0)

    def test_degenerate_uncoupled_states_skipped(self):
        # states 0 and 1 are degenerate but the perturbation only couples 0 and 2
        h0 = np.array([0.0, 0.0, 1.0])
        hi = np.zeros((3, 3))
        hi[0, 2] = hi[2, 0] = 0.3
        res = second_order_shift(h0, hi, 0)
        assert res.second_order == pytest.approx(-0.09, rel=1e-12)
        assert res.terms_used == 1

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            second_order_shift(np.array([0.0, 1.0]), np.zeros((2, 2)), 2)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            second_order_shift(np.array([0.0, 1.0]), np.zeros((3, 3)), 0)
        # h_int is the square matrix; a single column is not accepted
        with pytest.raises(ValueError, match=r"h_int shape \(2,\) does not match"):
            second_order_shift(np.array([0.0, 1.0]), np.array([0.0, 0.1]), 0)


class TestTransitionShift:

    def test_symmetric_two_level(self):
        # level shifts are -+ g^2/omega, so the transition moves by +2 g^2/omega
        h0, hi = two_level(1.0, 0.1)
        assert transition_shift(h0, hi, 0, 1) == pytest.approx(0.02, rel=1e-12)

    def test_zero_coupling(self):
        h0, hi = two_level(1.0, 0.0)
        assert transition_shift(h0, hi, 0, 1) == 0.0

    def test_same_index_rejected(self):
        h0, hi = two_level(1.0, 0.1)
        with pytest.raises(ValueError):
            transition_shift(h0, hi, 1, 1)


class TestInvariants:

    def test_first_order_vanishes_for_interaction_hamiltonians(self):
        # every term of the interaction changes an excitation number
        cfg = FullModelConfig(1.0, (5.0, 2.0), (3.0,), (0.1, 0.2),
                              ((0.3, 0.4),), n_max=3)
        h0 = np.diag(build_h0(cfg).entries).real
        hi = build_hint(cfg).entries
        for i in range(0, cfg.dim, 5):
            assert second_order_shift(h0, hi, i).first_order == 0.0

    def test_global_ground_shift_nonpositive(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            dim = 8
            h0 = np.sort(rng.uniform(0.0, 10.0, size=dim))
            m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            hi = (m + m.conj().T) / 2
            res = second_order_shift(h0, hi, 0)
            assert res.second_order <= 0.0

    def test_pairwise_antisymmetry_sum_rule(self):
        # summed over all states the second-order contributions cancel pairwise
        rng = np.random.default_rng(5)
        dim = 7
        h0 = np.arange(dim, dtype=float)
        m = rng.normal(size=(dim, dim))
        hi = (m + m.T) / 2
        total = sum(second_order_shift(h0, hi, i).second_order for i in range(dim))
        assert total == pytest.approx(0.0, abs=1e-12)

    def test_quartic_residual_ratio(self):
        # residual against the exact 2x2 eigenvalue scales as g^4
        omega = 1.0

        def residual(g):
            h0, hi = two_level(omega, g)
            res = second_order_shift(h0, hi, 1)
            exact = -np.sqrt(omega**2 / 4.0 + g**2)
            return abs(exact - (h0[1] + res.second_order))

        g = 0.1
        ratio = residual(g) / residual(g / 2.0)
        assert 12.0 <= ratio <= 20.0

    def test_against_finite_difference_oracle(self):
        # the second-order coefficient is half the curvature of the exact
        # eigenvalue along eps -> H0 + eps H_int, estimated centrally
        rng = np.random.default_rng(23)
        dim = 9
        h0 = np.sort(rng.uniform(0.0, 10.0, size=dim))
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        hi = (m + m.conj().T) / 2
        np.fill_diagonal(hi, 0.0)

        def eigenvalue(i, eps):
            values, vectors = np.linalg.eigh(np.diag(h0) + eps * hi)
            track = np.argmax(np.abs(vectors[i, :]))
            return values[track]

        eps = 1e-3
        for i in (0, 4, 8):
            curvature = (eigenvalue(i, eps) + eigenvalue(i, -eps)
                         - 2.0 * eigenvalue(i, 0.0)) / eps**2
            res = second_order_shift(h0, hi, i)
            assert res.second_order == pytest.approx(curvature / 2.0, rel=1e-4)


class TestBatch:
    """A stack of H0 diagonals against one shared H_int."""

    @staticmethod
    def problem(seed, batch_shape, dim=13):
        rng = np.random.default_rng(seed)
        h0s = rng.uniform(0.0, 10.0, size=batch_shape + (dim,))
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        hi = (m + m.conj().T) / 2
        hi[rng.random((dim, dim)) < 0.2] = 0.0  # some uncoupled states
        return h0s, hi

    # numpy sums 8 or more terms pairwise, in blocks of 128
    @pytest.mark.parametrize("batch_shape,dim", [((1,), 13), ((7,), 13), ((2, 3), 13),
                                                 ((5,), 200)])
    def test_rows_equal_per_row_calls_bit_for_bit(self, batch_shape, dim):
        h0s, hi = self.problem(11, batch_shape, dim)
        for i in (0, 5, 12):
            batch = second_order_shift(h0s, hi, i)
            assert batch.second_order.shape == batch_shape
            assert batch.min_denominator.shape == batch_shape
            for row in np.ndindex(batch_shape):
                alone = second_order_shift(h0s[row], hi, i)
                assert batch.second_order[row] == alone.second_order
                assert batch.min_denominator[row] == alone.min_denominator
                assert batch.first_order == alone.first_order
                assert batch.terms_used == alone.terms_used
        shifts = transition_shift(h0s, hi, 3, 0)
        for row in np.ndindex(batch_shape):
            assert shifts[row] == transition_shift(h0s[row], hi, 3, 0)

    def test_scalar_input_returns_floats(self):
        h0s, hi = self.problem(12, (2,))
        res = second_order_shift(h0s[0], hi, 4)
        assert type(res.second_order) is float and type(res.min_denominator) is float
        assert type(transition_shift(h0s[0], hi, 4, 0)) is float

    def test_terms_used_and_min_denominator_keep_their_meaning(self):
        # terms_used counts the states H_int couples to i, whatever the rows;
        # min_denominator is each row's own smallest coupled gap
        h0s = np.array([[0.0, 1.0, 3.0, 0.0], [0.0, 2.0, -0.5, 7.0]])
        hi = np.zeros((4, 4))
        hi[0, 1] = hi[1, 0] = 0.1
        hi[0, 2] = hi[2, 0] = 0.2
        res = second_order_shift(h0s, hi, 0)
        assert res.terms_used == 2
        assert res.min_denominator.tolist() == [1.0, 0.5]
        assert res.second_order.tolist() == [
            0.1**2 / -1.0 + 0.2**2 / -3.0, 0.1**2 / -2.0 + 0.2**2 / 0.5]
        # row 0's state 3 is degenerate with state 0 but uncoupled: no abort
        empty = second_order_shift(h0s, np.zeros((4, 4)), 0)
        assert empty.terms_used == 0
        assert empty.second_order.tolist() == [0.0, 0.0]
        assert empty.min_denominator.tolist() == [np.inf, np.inf]

    def test_one_degenerate_row_raises_its_own_error(self):
        h0s, hi = self.problem(13, (5,))
        coupled = np.flatnonzero(np.abs(hi[:, 2]) > 0)
        n = coupled[coupled != 2][0]
        h0s[3, n] = h0s[3, 2] + 1e-12
        with pytest.raises(DegeneracyError) as alone:
            second_order_shift(h0s[3], hi, 2)
        with pytest.raises(DegeneracyError) as batch:
            second_order_shift(h0s, hi, 2)
        assert str(batch.value) == str(alone.value)
        with pytest.raises(DegeneracyError):
            transition_shift(h0s, hi, 2, 0)
        # the other rows are regular
        second_order_shift(np.delete(h0s, 3, axis=0), hi, 2)
