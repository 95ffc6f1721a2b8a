import numpy as np
import pytest
from scipy.interpolate import BSpline

from dynstack.splines import (
    assemble_block_penalty,
    basis_matrix,
    curvature_penalty,
    knot_spans,
    make_basis,
)

from oracles import dense_penalty_matrix, trapezoid_penalty_matrix


class TestMakeBasis:
    def test_bernstein_case_size(self):
        assert make_basis(0.0, 1.0, 0, 3).size == 4

    def test_six_interior_cubic_size(self):
        assert make_basis(0.0, 1.0, 6, 3).size == 10

    def test_degenerate_domain_rejected(self):
        with pytest.raises(ValueError):
            make_basis(1.0, 1.0, 3, 3)
        with pytest.raises(ValueError):
            make_basis(2.0, 1.0, 3, 3)

    def test_clamped_knot_multiplicity(self):
        b = make_basis(-2.0, 5.0, 4, 3)
        assert np.all(b.knots[:4] == -2.0) and np.all(b.knots[-4:] == 5.0)
        assert len(b.knots) == b.size + b.degree + 1

    def test_constant_basis(self):
        b = make_basis(0.0, 1.0, 0, 0)
        assert b.size == 1
        for u in (0.0, 0.3, 1.0, -5.0, 7.0):
            assert basis_matrix(b, u)[0] == pytest.approx([1.0])


class TestEvalBasis:
    def test_partition_of_unity(self):
        b = make_basis(-1.5, 4.0, 6, 3)
        u = np.random.default_rng(0).uniform(-1.5, 4.0, 1000)
        sums = basis_matrix(b, u).sum(axis=1)
        assert np.abs(sums - 1.0).max() < 1e-12

    def test_left_endpoint_is_first_basis(self):
        b = make_basis(0.0, 1.0, 4, 3)
        row = basis_matrix(b, 0.0)[0]
        assert row[0] == pytest.approx(1.0) and np.all(row[1:] == 0.0)

    def test_bernstein_midpoint(self):
        # closed form: C(3,k) 0.5^3
        b = make_basis(0.0, 1.0, 0, 3)
        np.testing.assert_allclose(
            basis_matrix(b, 0.5)[0], [0.125, 0.375, 0.375, 0.125], atol=1e-15
        )

    def test_local_support(self):
        b = make_basis(0.0, 1.0, 8, 3)
        u = np.random.default_rng(1).uniform(0, 1, 500)
        assert (basis_matrix(b, u) != 0).sum(axis=1).max() <= b.degree + 1

    @pytest.mark.parametrize("interior,degree", [(0, 0), (3, 0), (0, 3), (1, 1), (6, 3)])
    def test_knot_spans_cover_the_nonzero_columns(self, interior, degree):
        b = make_basis(-1.0, 2.0, interior, degree)
        edges = np.r_[np.unique(b.knots), -5.0, 7.0]  # on every knot, and clamped
        u = np.r_[edges, np.random.default_rng(4).uniform(-1.0, 2.0, 300)]
        span = knot_spans(b, u)
        assert span.min() >= 0 and span.max() == b.size - degree - 1
        rows, cols = np.nonzero(basis_matrix(b, u))
        assert np.all((cols >= span[rows]) & (cols <= span[rows] + degree))

    def test_out_of_domain_clamps(self):
        b = make_basis(0.0, 1.0, 3, 3)
        np.testing.assert_array_equal(basis_matrix(b, -9.0)[0], basis_matrix(b, 0.0)[0])
        np.testing.assert_array_equal(basis_matrix(b, 9.0)[0], basis_matrix(b, 1.0)[0])

    def test_matches_scipy_bspline(self):
        b = make_basis(-1.3, 2.7, 6, 3)
        u = np.random.default_rng(2).uniform(-1.3, 2.7, 400)
        mine = basis_matrix(b, u)
        for i in range(b.size):
            c = np.zeros(b.size)
            c[i] = 1.0
            ref = BSpline(b.knots, c, 3)(u)
            np.testing.assert_allclose(mine[:, i], ref, atol=1e-12)

    def test_second_derivative_matches_scipy(self):
        b = make_basis(0.0, 3.0, 5, 3)
        u = np.random.default_rng(3).uniform(0, 3, 300)
        mine = basis_matrix(b, u, deriv=2)
        for i in range(b.size):
            c = np.zeros(b.size)
            c[i] = 1.0
            ref = BSpline(b.knots, c, 3).derivative(2)(u)
            np.testing.assert_allclose(mine[:, i], ref, atol=1e-9)


class TestCurvaturePenalty:
    def test_degree_one_is_zero(self):
        assert np.all(curvature_penalty(make_basis(0, 1, 3, 1)) == 0.0)

    def test_degree_zero_is_zero(self):
        assert np.all(curvature_penalty(make_basis(0, 1, 0, 0)) == 0.0)

    def test_symmetric_psd_zero_row_sums(self):
        h = curvature_penalty(make_basis(0.0, 2.0, 6, 3))
        assert np.abs(h - h.T).max() < 1e-12
        assert np.linalg.eigvalsh(h).min() >= -1e-10
        # sum_k B_k'' = 0 because the basis sums to one
        assert np.abs(h.sum(axis=1)).max() < 1e-9

    def test_bernstein_entry_closed_form(self):
        # B_1(x) = (1-x)^3 so B_1'' = 6(1-x); integral of 36(1-x)^2 = 12
        h = curvature_penalty(make_basis(0.0, 1.0, 0, 3))
        assert h[0, 0] == pytest.approx(12.0, abs=1e-12)

    def test_matches_dense_quadrature_oracle(self):
        for basis in (make_basis(0.0, 1.0, 0, 3), make_basis(0.0, 1.0, 6, 3)):
            h = curvature_penalty(basis)
            np.testing.assert_allclose(h, dense_penalty_matrix(basis), atol=1e-8)

    def test_close_to_plain_trapezoid_oracle(self):
        # coarser oracle: 1e4-point trapezoid truncation error is ~6e-8
        basis = make_basis(0.0, 1.0, 0, 3)
        np.testing.assert_allclose(
            curvature_penalty(basis), trapezoid_penalty_matrix(basis), atol=1e-6
        )

    def test_quartic_degree_against_dense_oracle(self):
        basis = make_basis(0.0, 1.0, 3, 4)
        np.testing.assert_allclose(
            curvature_penalty(basis), dense_penalty_matrix(basis), atol=1e-8
        )


class TestBlockPenalty:
    def test_structure_p1(self):
        h = curvature_penalty(make_basis(0, 1, 0, 3))
        a = assemble_block_penalty(h, 1)
        assert a.shape == (5, 5)
        assert np.all(a[0, :] == 0.0) and np.all(a[:, 0] == 0.0)
        np.testing.assert_array_equal(a[1:, 1:], h)

    def test_two_identical_blocks(self):
        h = curvature_penalty(make_basis(0, 1, 2, 3))
        k = h.shape[0]
        a = assemble_block_penalty(h, 2)
        np.testing.assert_array_equal(a[1 : 1 + k, 1 : 1 + k], h)
        np.testing.assert_array_equal(a[1 + k :, 1 + k :], h)
        assert np.all(a[1 : 1 + k, 1 + k :] == 0.0)

    def test_psd_preserved(self):
        h = curvature_penalty(make_basis(0, 1, 4, 3))
        a = assemble_block_penalty(h, 3)
        assert np.linalg.eigvalsh(a).min() >= -1e-10

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            assemble_block_penalty(np.eye(2), 0)
