import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dynstack import stacking
from dynstack.simulation import auc, generate_case, sigmoid
from dynstack.splines import assemble_block_penalty, basis_matrix, curvature_penalty, make_basis
from dynstack.stacking import (
    STATIC_DESIGNS,
    ConvergenceError,
    FitConfig,
    Level1Data,
    StackModel,
    build_level1,
    coefficient_curves,
    default_basis,
    design_matrix,
    dynamic_design,
    fit_dynamic,
    fit_static,
    load_model,
    predict,
    read_level1,
    save_model,
    select_lambda,
    select_strength,
    write_level1,
)

from oracles import (
    cholesky_solve_reference,
    cv_walk_reference,
    irls_logistic,
    lasso_quadratic_bruteforce,
    neg_loglik_reference,
)


def make_data(case=3, n=600, seed=0):
    return generate_case(case, n, seed).to_level1()


def random_binary_data(rng, n=200, p=2, signal=2.0):
    z = rng.uniform(0, 1, (n, p))
    u = rng.uniform(0, 1, n)
    logit = signal * (z.sum(axis=1) - 0.5 * p) + 0.3 * rng.normal(size=n)
    y = (rng.uniform(0, 1, n) < sigmoid(logit)).astype(int)
    return Level1Data(y, z, u, [f"z{j + 1}" for j in range(p)])


class TestLevel1Data:
    def test_validation(self):
        with pytest.raises(ValueError, match="binary"):
            Level1Data(np.array([0, 2]), np.zeros((2, 1)), np.zeros(2), ["a"])
        with pytest.raises(ValueError, match="probabilities"):
            Level1Data(np.array([0, 1]), np.array([[0.2], [1.5]]), np.zeros(2), ["a"])
        with pytest.raises(ValueError, match="provenance"):
            Level1Data(np.array([0, 1]), np.zeros((2, 2)), np.zeros(2), ["a"])

    def test_no_z_column_rejected(self):
        # it used to load, then fit an intercept-only logistic_m1 model or fail
        # in the dynamic fit with "p must be >= 1"
        with pytest.raises(ValueError, match="^z has no columns; level-1 data needs p >= 1$"):
            Level1Data(np.array([0, 1, 0, 1]), np.zeros((4, 0)), np.zeros(4), [])

    def test_fractional_y_rejected_before_the_integer_cast(self):
        with pytest.raises(ValueError, match="binary"):
            Level1Data([0.5, 1, 0], np.zeros((3, 1)), np.zeros(3), ["a"])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_z_names_its_column(self, bad):
        z = np.full((3, 2), 0.5)
        z[1, 1] = bad
        with pytest.raises(ValueError, match="z column 2 .* row 2"):
            Level1Data(np.array([0, 1, 0]), z, np.zeros(3), ["a", "b"])

    def test_csv_round_trip_with_provenance(self, tmp_path):
        data = make_data(n=40)
        path = tmp_path / "lvl1.csv"
        write_level1(path, data)
        assert (tmp_path / "lvl1.csv.provenance.txt").exists()
        back = read_level1(path)
        np.testing.assert_array_equal(back.y, data.y)
        np.testing.assert_array_equal(back.z, data.z)  # 17 digits: exact
        np.testing.assert_array_equal(back.u, data.u)
        assert back.columns == data.columns

    @pytest.mark.parametrize(
        "body,message",
        [
            ("1,0.5,0.3\n0,0.5\n", "level1.csv line 3: expected 3 fields, got 2"),
            ("1,0.5\n0,0.5\n", "level1.csv line 2: expected 3 fields, got 2"),
            ("1,0.5,0.3\n\n0,nan,0.2\n", "level1.csv line 4: non-finite value"),
            ("1,0.5,0.3\n\n\n0,0.5,inf\n", "level1.csv line 5: non-finite value"),
            ("1,0.5,0.3\n0,abc,0.2\n", "level1.csv line 3: could not convert .*'abc'"),
            ("", "level1.csv: no data rows"),
            ("0.5,0.5,0.3\n1,0.5,0.2\n0,0.5,0.1\n", "level1.csv line 2: y must be 0 or 1, got '0.5'"),
            ("1,0.5,0.3\n1,1.5,0.2\n", r"level1.csv line 3: z values must be probabilities"),
            ("1,-1e-8,0.3\n", r"level1.csv line 2: z values must be probabilities in \[0, 1\]"),
        ],
        ids=[
            "short row", "every row short", "nan", "inf", "non-numeric", "header only",
            "fractional y", "z above 1", "z below 0",
        ],
    )
    def test_bad_row_names_file_and_line(self, tmp_path, body, message):
        path = tmp_path / "level1.csv"
        path.write_text("y,z_1,u\n" + body)
        with pytest.raises(ValueError, match=message):
            read_level1(path)

    @pytest.mark.parametrize(
        "header,require_y",
        [("y,u", True), ("y,u", False), ("u", False)],
        ids=["y-u", "y-u-predict", "u"],
    )
    def test_header_without_z_column_rejected(self, tmp_path, header, require_y):
        # y,u used to load, then fail in the fit or write an intercept-only model
        path = tmp_path / "level1.csv"
        path.write_text(header + "\n" + ",".join(["1"] * len(header.split(","))) + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: unexpected level-1 header"):
            read_level1(path, require_y=require_y)

    def test_sidecar_with_wrong_name_count_rejected(self, tmp_path):
        # it used to be dropped in silence, leaving the columns named z_1..z_p
        path = tmp_path / "lvl1.csv"
        write_level1(path, make_data(n=20))
        sidecar = tmp_path / "lvl1.csv.provenance.txt"
        sidecar.write_text(sidecar.read_text() + "z_3 = extra\n")
        with pytest.raises(ValueError, match="provenance.txt: 3 names for 2 z columns"):
            read_level1(path)

    def test_sidecar_with_empty_name_names_the_sidecar(self, tmp_path):
        path = tmp_path / "lvl1.csv"
        write_level1(path, make_data(n=20))
        (tmp_path / "lvl1.csv.provenance.txt").write_text("z_1 = a\nz_2 =\n")
        with pytest.raises(ValueError, match="^.*lvl1.csv.provenance.txt: provenance name ''"):
            read_level1(path)

    def test_empty_file_names_file(self, tmp_path):
        path = tmp_path / "level1.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="level1.csv: unexpected level-1 header"):
            read_level1(path)


class TestBuildLevel1:
    def test_column_arithmetic_two_binary(self):
        n = 20
        y = np.arange(n) % 2
        u = np.linspace(0, 1, n)
        half = lambda fit, held: np.full((len(held), 2), 0.5)
        data = build_level1(y, {"clf0": half, "clf1": half}, u, folds=4, seed=0)
        assert data.p == 2
        assert data.columns == ["clf0:class0", "clf1:class0"]

    def test_column_arithmetic_mixed_classes(self):
        n = 18
        y = np.arange(n) % 2
        u = np.zeros(n)
        three = lambda fit, held: np.full((len(held), 3), 1 / 3)
        two = lambda fit, held: np.full((len(held), 2), 0.5)
        data = build_level1(y, {"three": three, "two": two}, u, folds=3, seed=0)
        assert data.p == 3
        assert data.columns == ["three:class0", "three:class1", "two:class0"]

    def test_perfect_classifier_column_equals_y(self):
        n = 30
        rng = np.random.default_rng(2)
        y = rng.integers(0, 2, n)

        def perfect(fit_idx, heldout_idx):
            out = np.zeros((len(heldout_idx), 2))
            out[np.arange(len(heldout_idx)), 1 - y[heldout_idx]] = 0.0
            out[np.arange(len(heldout_idx)), np.where(y[heldout_idx] == 1, 0, 1)] = 1.0
            return out

        data = build_level1(y, {"perfect": perfect}, np.zeros(n), folds=5, seed=1)
        np.testing.assert_array_equal(data.z[:, 0], y)

    def test_rows_come_from_the_holding_fold(self):
        # classifier answers with the mean of the fit fold's y: held-out rows
        # must never see their own label
        n = 24
        y = np.arange(n) % 2
        seen = []

        def fn(fit_idx, heldout_idx):
            seen.append((set(fit_idx.tolist()), set(heldout_idx.tolist())))
            return np.full((len(heldout_idx), 2), 0.5)

        build_level1(y, {"c": fn}, np.zeros(n), folds=4, seed=3)
        assert len(seen) == 4
        union = set()
        for fit, held in seen:
            assert fit.isdisjoint(held)
            assert fit | held == set(range(n))
            union |= held
        assert union == set(range(n))

    @pytest.mark.parametrize("folds", [1, 0])
    def test_fewer_than_two_folds_rejected_as_every_cross_validation_does(self, folds):
        half = lambda fit, held: np.full((len(held), 2), 0.5)
        with pytest.raises(ValueError, match="^cross-validation needs at least 2 folds$"):
            build_level1(np.arange(10) % 2, {"c": half}, np.zeros(10), folds=folds, seed=0)
        with pytest.raises(ValueError, match="^cross-validation needs at least 2 folds$"):
            FitConfig(cv_folds=folds)

    def test_missing_class_error_advises_folds(self):
        def failing(fit_idx, heldout_idx):
            raise ValueError("no training node for class(es) [1]")

        with pytest.raises(ValueError, match="larger training folds"):
            build_level1(np.arange(10) % 2, {"c": failing}, np.zeros(10), folds=5, seed=0)

    @pytest.mark.parametrize(
        "shape_of,fold",
        [
            (lambda j, k: (k, 3 if j == 2 else 2), 2),  # a later fold adds a class column
            (lambda j, k: (k - 1, 2), 1),  # one row short
            (lambda j, k: (k,), 1),  # not a matrix
        ],
        ids=["width", "rows", "flat"],
    )
    def test_wrong_shape_names_classifier_and_fold(self, shape_of, fold):
        calls = []

        def fn(fit_idx, heldout_idx):
            calls.append(1)
            return np.full(shape_of(len(calls), len(heldout_idx)), 0.5)

        with pytest.raises(ValueError, match=rf"classifier 'odd' .* in fold {fold};"):
            build_level1(np.arange(12) % 2, {"odd": fn}, np.zeros(12), folds=4, seed=0)


class TestDynamicDesign:
    @pytest.mark.parametrize("n,p", [(0, 2), (1, 0), (50, 1), (300, 3)])
    def test_columns_are_the_intercept_then_each_z_times_the_basis(self, n, p):
        # n = 0 and p = 0 leave no products, whose reshape must still be a view of the design
        rng = np.random.default_rng(10 * n + p)
        basis = make_basis(0.0, 1.0, 4, 3)
        z, u = rng.uniform(0, 1, (n, p)), rng.uniform(-0.2, 1.2, n)
        b = basis_matrix(basis, u)
        want = np.hstack([np.ones((n, 1)), *(z[:, [j]] * b for j in range(p))])
        got = dynamic_design(z, u, basis)
        assert got.shape == want.shape and np.array_equal(got, want)

    def test_peak_memory_without_a_copy_of_the_products(self):
        import tracemalloc

        # the design and the basis matrix (0.48x for p = 2); a second copy of
        # the products, as an hstack of them makes, would read about 2.5
        data = make_data(case=3, n=4000, seed=34)
        basis = default_basis(data.u)
        design_bytes = data.n * (1 + data.p * basis.size) * 8
        tracemalloc.start()
        try:
            dynamic_design(data.z, data.u, basis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.0 * design_bytes


class TestFitDynamic:
    def test_objective_path_non_increasing(self):
        data = make_data()
        basis = default_basis(data.u)
        model = fit_dynamic(data, 1.0, basis)
        path = np.array(model.objective_path)
        assert np.all(np.diff(path) <= 1e-12)

    def test_gradient_matches_finite_differences(self):
        # five datasets, twenty random coefficient points each
        for seed in range(5):
            rng = np.random.default_rng(seed)
            data = random_binary_data(rng, n=150)
            basis = default_basis(data.u, interior_knots=4)
            lam = 0.7
            h_pen = lam * assemble_block_penalty(curvature_penalty(basis), data.p)
            x = dynamic_design(data.z, data.u, basis)

            def objective(b):
                eta = x @ b
                return float(
                    np.sum(np.logaddexp(0.0, eta) - data.y * eta) + b @ h_pen @ b
                )

            for _ in range(20):
                b = rng.normal(0, 0.3, x.shape[1])
                mu = sigmoid(x @ b)
                g = -(x.T @ (data.y - mu)) + 2 * h_pen @ b
                fd = np.zeros_like(b)
                step = 1e-6
                for k in range(len(b)):
                    e = np.zeros_like(b)
                    e[k] = step
                    fd[k] = (objective(b + e) - objective(b - e)) / (2 * step)
                rel = np.abs(g - fd).max() / (1.0 + np.abs(g).max())
                assert rel < 1e-5

    def test_final_gradient_small(self):
        data = make_data()
        basis = default_basis(data.u)
        lam = 2.5
        model = fit_dynamic(data, lam, basis)
        x = dynamic_design(data.z, data.u, basis)
        h_pen = lam * assemble_block_penalty(curvature_penalty(basis), data.p)
        mu = sigmoid(x @ model.coef)
        g = -(x.T @ (data.y - mu)) + 2 * h_pen @ model.coef
        assert np.abs(g).max() < 1e-6 * (1.0 + abs(model.objective_path[-1]))

    def test_penalty_limit_linearizes_curves(self):
        data = make_data(case=3, n=800, seed=5)
        model = fit_dynamic(data, 1e12, default_basis(data.u))
        grid = np.linspace(model.basis.u_lo, model.basis.u_hi, 200)
        curves = coefficient_curves(model, grid)
        assert np.abs(np.diff(curves, 2, axis=0)).max() < 1e-3

    def test_penalty_limit_matches_plain_logistic_on_constant_weight_data(self):
        # constant true weights: the linearized model gains nothing
        train = generate_case(1, 2000, 11).to_level1()
        test = generate_case(1, 2000, 12).to_level1()
        dyn = fit_dynamic(train, 1e12, default_basis(train.u))
        logistic = fit_static(train, "m1", "none", 0.0)
        a_dyn = auc(predict(dyn, test.z, test.u), test.y)
        a_log = auc(predict(logistic, test.z, test.u), test.y)
        assert abs(a_dyn - a_log) < 0.01

    def test_nesting_constant_basis_equals_plain_logistic(self):
        cfg = FitConfig(newton_tol=1e-12)
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            data = random_binary_data(rng)
            basis = make_basis(data.u.min(), data.u.max(), 0, 0)
            dyn = fit_dynamic(data, 0.0, basis, cfg)
            stat = fit_static(data, "m1", "none", 0.0, cfg)
            p_dyn = predict(dyn, data.z, data.u)
            p_stat = predict(stat, data.z, data.u)
            assert np.abs(p_dyn - p_stat).max() < 1e-6
            # and the logistic side agrees with the IRLS oracle
            x = np.hstack([np.ones((data.n, 1)), data.z])
            oracle = irls_logistic(x, data.y.astype(float))
            np.testing.assert_allclose(stat.coef, oracle, atol=1e-6)

    def test_train_deviance_monotone_in_lambda(self):
        data = make_data(case=3, n=500, seed=9)
        basis = default_basis(data.u)
        x = dynamic_design(data.z, data.u, basis)
        prev = -np.inf
        for lam in (0.001, 0.1, 10.0, 1000.0, 1e6):
            model = fit_dynamic(data, lam, basis)
            eta = x @ model.coef
            nll = float(np.sum(np.logaddexp(0.0, eta) - data.y * eta))
            assert nll >= prev - 1e-7
            prev = nll

    def test_negative_lambda_rejected(self):
        data = make_data(n=50)
        with pytest.raises(ValueError):
            fit_dynamic(data, -1.0, default_basis(data.u))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1e-300])
    def test_bad_strength_rejected_before_fitting(self, bad):
        # a NaN strength used to pass "strength > 0" as False and fit unpenalized
        data = make_data(n=50)
        with pytest.raises(ValueError, match="penalty strength must be finite and >= 0"):
            fit_dynamic(data, bad, default_basis(data.u))
        for penalty in ("ridge", "lasso"):
            with pytest.raises(ValueError, match="penalty strength must be finite and >= 0"):
                fit_static(data, "m3", penalty, strength=bad)

    @pytest.mark.filterwarnings("error")
    def test_strength_overflowing_its_penalty_weights_rejected(self):
        # 2 * strength * weight overflowed inside Newton: a RuntimeWarning, then
        # "non-finite objective" (dynamic) or "cannot solve a system holding infs"
        data = make_data(n=300)
        basis = default_basis(data.u)
        top = float(np.linalg.eigvalsh(assemble_block_penalty(curvature_penalty(basis), 2))[-1])
        edge = float(np.finfo(float).max) / 2  # the largest finite 2 * strength * weight, halved
        for lam in (1e304, 1e306, 1.01 * edge / top):
            with pytest.raises(ValueError, match=re.escape(f"penalty strength {lam} overflows")):
                fit_dynamic(data, lam, basis)
        for strength in (1e308, 1.01 * edge):
            with pytest.raises(ValueError, match=re.escape(f"penalty strength {strength} overflows")):
                fit_static(data, "m1", "ridge", strength=strength)
        # just below the edge the fits run as before; lasso uses no weights
        assert fit_dynamic(data, 0.99 * edge / top, basis).converged
        assert fit_static(data, "m1", "ridge", strength=0.99 * edge).converged
        assert fit_static(data, "m1", "lasso", strength=1e308).converged

    def test_underdetermined_warns(self):
        data = make_data(n=15)
        with pytest.warns(UserWarning, match="observations"):
            fit_dynamic(data, 1.0, default_basis(data.u))

    def test_separable_unpenalized_raises_with_ridge_guidance(self):
        rng = np.random.default_rng(3)
        z = rng.uniform(0, 1, (80, 2))
        y = (z[:, 0] > 0.5).astype(int)
        data = Level1Data(y, z, rng.uniform(0, 1, 80), ["z1", "z2"])
        # a zero-strength ridge or lasso is as unpenalized as plain logistic
        for penalty, strength in (("none", None), ("ridge", 0.0), ("lasso", 0.0)):
            with pytest.raises(ConvergenceError, match="ridge"):
                fit_static(data, "m1", penalty, strength=strength)


class TestPredictDynamic:
    def test_zero_coefficients_give_half(self):
        data = make_data(n=50)
        model = fit_dynamic(data, 1.0, default_basis(data.u))
        model.coef[:] = 0.0
        np.testing.assert_allclose(predict(model, data.z, data.u), 0.5)

    def test_intercept_only_closed_form(self):
        data = make_data(n=50)
        model = fit_dynamic(data, 1.0, default_basis(data.u))
        model.coef[:] = 0.0
        model.coef[0] = -3.0
        np.testing.assert_allclose(
            predict(model, np.zeros((4, 2)), np.full(4, 0.5)),
            sigmoid(-3.0),
            atol=1e-12,
        )

    def test_wrong_width_rejected(self):
        data = make_data(n=50)
        model = fit_dynamic(data, 1.0, default_basis(data.u))
        with pytest.raises(ValueError, match="z columns"):
            predict(model, np.zeros((3, 5)), np.zeros(3))

    def test_row_mismatch_rejected(self):
        data = make_data(n=50)
        model = fit_dynamic(data, 1.0, default_basis(data.u))
        with pytest.raises(ValueError, match="z has 3 rows, u has 4"):
            predict(model, np.zeros((3, 2)), np.zeros(4))

    def test_outputs_in_unit_interval(self):
        data = make_data(n=300, seed=21)
        model = fit_dynamic(data, 0.01, default_basis(data.u))
        p = predict(model, data.z, data.u)
        assert np.all((p > 0) & (p < 1))

    def test_covariate_clamped_outside_training_range(self):
        data = make_data(n=200, seed=2)
        model = fit_dynamic(data, 1.0, default_basis(data.u))
        z = data.z[:3]
        lo = predict(model, z, np.full(3, model.basis.u_lo - 100.0))
        at_lo = predict(model, z, np.full(3, model.basis.u_lo))
        np.testing.assert_allclose(lo, at_lo, atol=1e-12)


class TestCoefficientCurves:
    def test_constant_basis_flat_at_coefficients(self):
        data = make_data(n=80)
        basis = make_basis(data.u.min(), data.u.max(), 0, 0)
        model = fit_dynamic(data, 0.0, basis, FitConfig(newton_tol=1e-12))
        grid = np.linspace(basis.u_lo, basis.u_hi, 9)
        curves = coefficient_curves(model, grid)
        for j in range(data.p):
            np.testing.assert_allclose(curves[:, j], model.coef[1 + j], atol=1e-12)

    def test_hand_set_coefficients_match_direct_evaluation(self):
        from scipy.interpolate import BSpline

        data = make_data(n=60)
        basis = default_basis(data.u, interior_knots=3)
        model = fit_dynamic(data, 1.0, basis)
        rng = np.random.default_rng(12)
        model.coef[1:] = rng.normal(0, 1, data.p * basis.size)
        grid = np.linspace(basis.u_lo, basis.u_hi, 40)
        curves = coefficient_curves(model, grid)
        for j in range(data.p):
            eta = model.coef[1 + j * basis.size : 1 + (j + 1) * basis.size]
            ref = BSpline(basis.knots, eta, basis.degree)(grid)
            np.testing.assert_allclose(curves[:, j], ref, atol=1e-10)


def assert_matches_cold_oracle_cv(x, y, pen, cfg, seed, chosen, report):
    """``(chosen, report)`` of a cross-validation over ``x`` equal the choice and,
    to 1e-8 relative, the scores of IRLS fits from zero on the same folds."""
    from dynstack.stacking import _cv_fold_indices

    n = len(y)
    folds, grid = _cv_fold_indices(n, cfg.cv_folds, seed), stacking.LAMBDA_GRID
    assert np.array_equal(np.sort(np.concatenate(folds)), np.arange(n))
    scores = np.zeros(len(grid))
    for heldout in folds:
        fit = np.setdiff1d(np.arange(n), heldout)
        for gi, s in enumerate(grid):
            coef = irls_logistic(x[fit], y[fit], pen=s * pen)
            scores[gi] += neg_loglik_reference(x[heldout] @ coef, y[heldout])
    best = len(scores) - 1 - int(np.argmin(scores[::-1]))  # ties go to the larger value
    assert chosen == grid[best]
    np.testing.assert_allclose([v for _, v in report], scores, rtol=1e-8, atol=0)


class TestSelectLambda:
    def test_single_point_grid(self, monkeypatch):
        data = make_data(n=120)
        monkeypatch.setattr(stacking, "LAMBDA_GRID", np.array([3.7]))
        lam, report = select_lambda(data, FitConfig(cv_folds=4), default_basis(data.u))
        assert lam == 3.7 and len(report) == 1

    def test_sine_data_picks_interior_lambda(self):
        data = make_data(case=3, n=1000, seed=4)
        lam, report = select_lambda(data, FitConfig(cv_folds=5), default_basis(data.u), seed=1)
        assert lam < stacking.LAMBDA_GRID.max()
        scores = np.array([s for _, s in report])
        assert scores.argmin() not in (len(scores) - 1,)

    def test_tie_prefers_larger_lambda(self, monkeypatch):
        # degree-1 basis has a zero curvature penalty, so every lambda ties
        data = make_data(n=100, seed=6)
        basis = make_basis(data.u.min(), data.u.max(), 2, 1)
        monkeypatch.setattr(stacking, "LAMBDA_GRID", np.array([0.1, 10.0, 1000.0]))
        lam, report = select_lambda(data, FitConfig(cv_folds=4), basis=basis, seed=0)
        assert lam == 1000.0
        scores = [s for _, s in report]
        assert max(scores) - min(scores) < 1e-6

    def test_degenerate_folds_rejected(self):
        data = make_data(n=12)
        cfg = FitConfig(cv_folds=12)
        bad = Level1Data(
            np.r_[np.ones(11, dtype=int), 0], data.z, data.u, data.columns
        )
        with pytest.raises(ValueError, match="degenerate folds"):
            select_lambda(bad, cfg, default_basis(bad.u))

    @pytest.mark.parametrize("seed", [31, 32, 33])
    def test_matches_cold_started_oracle_cv(self, monkeypatch, seed):
        from dynstack.stacking import _penalty_eigenbasis

        # damped Newton walking the grid on carried state, against IRLS from
        # zero on every fold and lambda
        data = make_data(case=3, n=2000, seed=seed)
        monkeypatch.setattr(stacking, "LAMBDA_GRID", np.logspace(-4.0, 4.0, 7))
        cfg = FitConfig()
        basis = default_basis(data.u)
        lam, report = select_lambda(data, cfg, basis, seed=seed)

        pen, rot = _penalty_eigenbasis(basis, data.p)
        x = dynamic_design(data.z, data.u, basis) @ rot
        assert_matches_cold_oracle_cv(x, data.y, pen, cfg, seed, lam, report)

    @pytest.mark.parametrize("design", ["m1", "m3"])
    def test_ridge_strength_matches_cold_started_oracle_cv(self, monkeypatch, design):
        data = make_data(case=3, n=2000, seed=35)
        monkeypatch.setattr(stacking, "LAMBDA_GRID", np.logspace(-4.0, 4.0, 7))
        cfg = FitConfig()
        strength, report = select_strength(data, design, "ridge", cfg, seed=35)

        x = design_matrix(data.z, data.u, design)
        pen = np.r_[0.0, np.ones(x.shape[1] - 1)]
        assert_matches_cold_oracle_cv(x, data.y, pen, cfg, 35, strength, report)

    def test_peak_memory_bounded_by_the_design(self):
        import tracemalloc

        from dynstack.stacking import _penalty_eigenbasis

        # one fold copy at a time: two coexisting copies would read about 4.0
        data = make_data(case=3, n=4000, seed=34)
        basis = default_basis(data.u)
        design_bytes = data.n * (1 + data.p * basis.size) * 8
        _penalty_eigenbasis(basis, data.p)  # lazy set-up outside the measurement
        tracemalloc.start()
        try:
            select_lambda(data, FitConfig(), basis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * design_bytes

    def test_peak_memory_without_a_dense_rotated_design(self):
        import tracemalloc

        from dynstack.stacking import SPAN_HESSIAN_ROWS, _penalty_eigenbasis

        # above the gate the walk keeps only knot-span blocks: no rotated
        # design and no dense fold copy, so dynamic_design sets the peak
        data = make_data(case=3, n=4000, seed=34)
        assert data.n > SPAN_HESSIAN_ROWS
        basis = default_basis(data.u)
        design_bytes = data.n * (1 + data.p * basis.size) * 8
        _penalty_eigenbasis(basis, data.p)  # lazy set-up outside the measurement
        tracemalloc.start()
        try:
            select_lambda(data, FitConfig(), basis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.9 * design_bytes

    @pytest.mark.filterwarnings("error")
    def test_grid_value_overflowing_its_penalty_weights_rejected(self, monkeypatch):
        # 2 * strength * weight overflowed in the fold whose walk reached the
        # value: a RuntimeWarning, then "non-finite objective at the starting
        # point" (dynamic) or "cannot solve a system holding infs" (ridge)
        data = make_data(n=300)
        real_fit = stacking._fit
        monkeypatch.setattr(stacking, "_fit", lambda *a: pytest.fail("a fold ran"))
        monkeypatch.setattr(stacking, "LAMBDA_GRID", np.array([1.0, 1e306]))
        with pytest.raises(ValueError, match=re.escape("penalty strength 1e+306 overflows")):
            select_lambda(data, FitConfig(), default_basis(data.u), 0)
        monkeypatch.setattr(stacking, "LAMBDA_GRID", np.array([1.0, 1e308]))
        with pytest.raises(ValueError, match=re.escape("penalty strength 1e+308 overflows")):
            select_strength(data, "m1", "ridge", FitConfig(), 0)
        monkeypatch.setattr(stacking, "_fit", real_fit)
        # lasso uses no weights, so its grid may reach the largest float
        _, report = select_strength(data, "m1", "lasso", FitConfig(), 0)
        assert np.isfinite([v for _, v in report]).all()


class TestNewtonCarry:
    """The state a cross-validation grid walk hands from one Newton fit to the next."""

    @staticmethod
    def two_folds(seed):
        from dynstack.stacking import _cv_fold_indices, _penalty_eigenbasis

        data = make_data(case=3, n=2000, seed=seed)
        basis = default_basis(data.u)
        pen, rot = _penalty_eigenbasis(basis, data.p)
        x = dynamic_design(data.z, data.u, basis) @ rot
        folds = _cv_fold_indices(data.n, 10, seed)
        rows = [np.setdiff1d(np.arange(data.n), h) for h in folds[:2]]
        return [(x[r], data.y[r]) for r in rows], pen

    @staticmethod
    def likelihood_hessian(x, coef):
        mu = sigmoid(x @ coef)
        return (x * (mu * (1.0 - mu))[:, None]).T @ x

    def test_carried_state_describes_the_returned_coefficients(self):
        from dynstack.stacking import _neg_loglik, _newton_diag

        ((x, y), _), pen = self.two_folds(36)
        cfg = FitConfig()
        carry = {}
        coef, path, _ = _newton_diag(x, y, 0.01 * pen, cfg, None, carry)
        assert np.array_equal(carry["eta"], x @ coef)
        assert carry["nll"] == _neg_loglik(x @ coef, y)
        assert path[-1] == carry["nll"] + float(0.01 * pen @ (coef * coef))
        # carrying only the linear predictor and log-likelihood changes nothing
        cold = _newton_diag(x, y, 0.1 * pen, cfg, coef)
        del carry["hess"]
        warm = _newton_diag(x, y, 0.1 * pen, cfg, coef, carry)
        assert np.array_equal(warm[0], cold[0]) and warm[1] == cold[1]
        # the Hessian carried is the likelihood's alone, which w <= 1/4 bounds
        _newton_diag(x, y, 1e4 * pen, cfg, warm[0], carry)
        assert np.all(np.diag(carry["hess"]) <= np.diag(x.T @ x) / 4.0 * (1.0 + 1e-12))

    @pytest.mark.parametrize("wrong", ["at_zero", "other_fold"])
    def test_first_step_on_a_wrong_hessian_reaches_the_cold_objective(self, wrong):
        from dynstack.stacking import _newton_diag

        (fold, other), pen = self.two_folds(37)
        x, y = fold
        cfg, grid = FitConfig(), stacking.LAMBDA_GRID
        for prev, lam in zip(grid[::4], grid[1::4]):
            start, _, _ = _newton_diag(x, y, prev * pen, cfg)
            if wrong == "at_zero":
                hess = self.likelihood_hessian(x, np.zeros(x.shape[1]))
            else:
                hess = self.likelihood_hessian(other[0], _newton_diag(*other, prev * pen, cfg)[0])
            _, path, converged = _newton_diag(x, y, lam * pen, cfg, start, {"hess": hess})
            _, cold, _ = _newton_diag(x, y, lam * pen, cfg)
            assert converged
            assert all(b <= a for a, b in zip(path, path[1:]))
            assert abs(path[-1] - cold[-1]) <= cfg.newton_tol * (1.0 + abs(cold[-1]))

    def test_no_state_survives_a_call(self):
        a, b = make_data(case=3, n=600, seed=38), make_data(case=2, n=500, seed=39)
        cfg = FitConfig(cv_folds=5)
        basis = default_basis(a.u)
        before = fit_dynamic(a, 0.01, basis, cfg)
        first = select_lambda(a, cfg, basis, seed=1)
        select_lambda(b, cfg, default_basis(b.u), seed=1)
        assert select_lambda(a, cfg, basis, seed=1) == first
        after = fit_dynamic(a, 0.01, basis, cfg)
        assert np.array_equal(after.coef, before.coef)
        assert after.objective_path == before.objective_path


def span_u(kind, rng, basis, n=400):
    """Covariate values of ``kind`` for :class:`TestSpanHessian`."""
    if kind == "uniform":
        return rng.uniform(basis.u_lo, basis.u_hi, n)
    if kind == "skewed":  # closeness-like, crowded low with the upper spans empty
        return basis.u_lo + 0.3 * (basis.u_hi - basis.u_lo) * rng.uniform(0, 1, n) ** 4
    # on every knot, both ends included, and outside the basis range on both sides
    edges = np.r_[np.unique(basis.knots), basis.u_lo - 0.7, basis.u_hi + 2.5]
    return np.r_[rng.choice(edges, n // 2), rng.uniform(basis.u_lo, basis.u_hi, n - n // 2)]


class TestSpanHessian:
    """A large dynamic design held as knot-span blocks, and the Newton walk on them."""

    @pytest.mark.parametrize("kind", ["uniform", "skewed", "knots_and_outside"])
    @pytest.mark.parametrize("interior", [0, 1, 6])
    @pytest.mark.parametrize("degree", [0, 1, 3])
    @pytest.mark.parametrize("p", [1, 2, 5])
    def test_span_sum_equals_the_dense_gram(self, monkeypatch, p, degree, interior, kind):
        # x @ b, x.T @ r and X'WX, each summed span by span, on all rows and on a fold
        monkeypatch.setattr(stacking, "SPAN_HESSIAN_ROWS", 0)
        rng = np.random.default_rng(1000 * p + 100 * degree + 10 * interior)
        basis = make_basis(0.0, 1.0, interior, degree)
        u = span_u(kind, rng, basis)
        z = rng.uniform(0, 1, (len(u), p))
        data = Level1Data(rng.integers(0, 2, len(u)), z, u, [f"z{j}" for j in range(p)])
        spans, y, _, rot = stacking._problem(data, "dynamic", "curvature", basis)
        assert isinstance(spans, stacking._SpanDesign)
        assert np.array_equal(np.sort(spans.order), np.arange(len(u)))
        assert np.array_equal(y, data.y[spans.order])
        dense = (dynamic_design(z, u, basis) @ rot)[spans.order]
        keep = rng.uniform(0, 1, len(u)) < 0.9
        for x, rows in ((spans, dense), (spans.take(keep), dense[keep])):
            b, r = rng.normal(size=x.shape[1]), rng.normal(size=len(rows))
            w = rng.uniform(0, 0.25, len(rows))
            gram = (rows * w[:, None]).T @ rows
            for got, want in ((x @ b, rows @ b), (x.T @ r, rows.T @ r), (x.gram(w), gram)):
                assert got.shape == want.shape
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_dense_product_at_and_below_the_gate(self):
        from dynstack.stacking import SPAN_HESSIAN_ROWS, _problem, _SpanDesign

        basis = make_basis(0.0, 1.0, 6, 3)
        u = np.linspace(0.0, 1.0, SPAN_HESSIAN_ROWS + 1)
        data = Level1Data(np.arange(len(u)) % 2, np.full((len(u), 2), 0.5), u, ["a", "b"])
        at_gate = data.subset(slice(1, None))
        assert type(_problem(at_gate, "dynamic", "curvature", basis)[0]) is np.ndarray
        assert isinstance(_problem(data, "dynamic", "curvature", basis)[0], _SpanDesign)
        assert type(_problem(data, "dynamic", "none", basis)[0]) is np.ndarray  # unpenalized
        # so test_matches_cold_started_oracle_cv checks select_lambda on span
        # designs against the IRLS cold oracle
        assert 2000 > SPAN_HESSIAN_ROWS

    def test_blocks_built_once_per_select_lambda_and_final_fit(self, monkeypatch):
        from dynstack.stacking import SPAN_HESSIAN_ROWS, _SpanDesign

        sorts, grams = [], []
        real_spans, real_gram = stacking.knot_spans, _SpanDesign.gram
        monkeypatch.setattr(stacking, "knot_spans", lambda *a: sorts.append(1) or real_spans(*a))
        monkeypatch.setattr(_SpanDesign, "gram", lambda *a: grams.append(len(a[1])) or real_gram(*a))
        data = make_data(case=3, n=2 * SPAN_HESSIAN_ROWS, seed=43)
        monkeypatch.setattr(stacking, "LAMBDA_GRID", np.logspace(-4.0, 4.0, 5))
        cfg = FitConfig(cv_folds=4)
        basis = default_basis(data.u)
        lam, _ = select_lambda(data, cfg, basis, seed=43)
        # one sort into spans; every fold's Newton steps run on blocks of it
        assert len(sorts) == 1 and set(grams) == {data.n - data.n // 4}
        fit_dynamic(data, lam, basis, cfg)
        assert len(sorts) == 2 and set(grams) == {data.n - data.n // 4, data.n}

    @pytest.mark.parametrize("cv_seed", [1, 2, 3])
    def test_span_and_dense_walks_agree(self, monkeypatch, cv_seed):
        data, heldout = make_data(case=3, n=4000, seed=46), make_data(case=3, n=500, seed=47)
        basis = default_basis(data.u)
        runs = []
        for gate in (stacking.SPAN_HESSIAN_ROWS, data.n):  # the span path, then the dense one
            monkeypatch.setattr(stacking, "SPAN_HESSIAN_ROWS", gate)
            lam, report = select_lambda(data, FitConfig(), basis, seed=cv_seed)
            probs = predict(fit_dynamic(data, lam, basis), heldout.z, heldout.u)
            runs.append((lam, np.array([v for _, v in report]), probs))
        (lam, scores, probs), (dense_lam, dense_scores, dense_probs) = runs
        assert lam == dense_lam
        np.testing.assert_allclose(scores, dense_scores, rtol=1e-9, atol=0)
        np.testing.assert_allclose(probs, dense_probs, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("lam", [1e-3, 10.0])
    def test_fit_above_the_gate_matches_irls(self, lam):
        from dynstack.stacking import SPAN_HESSIAN_ROWS, _penalty_eigenbasis

        data = make_data(case=3, n=2000, seed=44)
        assert data.n > SPAN_HESSIAN_ROWS
        basis = default_basis(data.u)
        model = fit_dynamic(data, lam, basis, FitConfig(newton_tol=1e-14))
        pen, rot = _penalty_eigenbasis(basis, data.p)
        x = dynamic_design(data.z, data.u, basis)
        oracle = rot @ irls_logistic(x @ rot, data.y, pen=lam * pen)
        np.testing.assert_allclose(x @ model.coef, x @ oracle, rtol=0, atol=1e-7)


class TestLassoCarry:
    """The state a lasso cross-validation walk hands from one fit to the next."""

    @staticmethod
    def fold(seed, design="m3"):
        from dynstack.stacking import _cv_fold_indices, _lasso_null_fit

        data = make_data(case=3, n=2000, seed=seed)
        rows = np.setdiff1d(np.arange(data.n), _cv_fold_indices(data.n, 10, seed)[0])
        x = np.asfortranarray(design_matrix(data.z, data.u, design)[rows])
        y = data.y[rows].astype(float)
        return x, y, _lasso_null_fit(x, y)

    def test_carried_state_describes_the_returned_coefficients(self):
        from dynstack.stacking import _lasso_logistic, _neg_loglik

        x, y, null_fit = self.fold(41)
        for strength in (0.1, 0.3 * null_fit[1]):
            carry = {}
            coef, path, converged = _lasso_logistic(x, y, strength, None, null_fit, carry)
            assert converged and len(path) > 2 and np.any(coef[1:])
            eta = x @ coef
            mu = sigmoid(eta)
            assert np.array_equal(carry["eta"], eta) and np.array_equal(carry["mu"], mu)
            assert np.array_equal(carry["grad"], -(x.T @ (y - mu)))
            assert carry["nll"] == _neg_loglik(eta, y)
            assert path[-1] == carry["nll"] + strength * np.abs(coef[1:]).sum()

    @pytest.mark.parametrize("design", STATIC_DESIGNS)
    def test_carried_walk_equals_the_walk_on_coefficients_alone(self, design):
        from dynstack.stacking import _lasso_logistic

        x, y, null_fit = self.fold(42, design)
        carry, warm, cold = {}, None, None
        for strength in stacking.LAMBDA_GRID:
            warm, warm_path, warm_ok = _lasso_logistic(x, y, strength, warm, null_fit, carry)
            cold, cold_path, cold_ok = _lasso_logistic(x, y, strength, cold, null_fit)
            assert np.array_equal(warm, cold)
            assert warm_path == cold_path and warm_ok == cold_ok

    def test_no_carry_after_an_above_critical_or_unconverged_fit(self, monkeypatch):
        x, y, null_fit = self.fold(43)
        carry = {}
        coef, _, _ = stacking._lasso_logistic(x, y, 0.1, None, null_fit, carry)
        assert set(carry) == {"eta", "mu", "grad", "nll"}
        # above the critical strength the fit is the intercept-only one
        stacking._lasso_logistic(x, y, 2.0 * null_fit[1], coef, null_fit, carry)
        assert carry == {}
        # one outer step does not reach the optimum at 1e-3 from the one at 0.1
        coef, _, _ = stacking._lasso_logistic(x, y, 0.1, None, null_fit, carry)
        monkeypatch.setattr(stacking, "MAX_NEWTON_ITER", 1)
        _, _, converged = stacking._lasso_logistic(x, y, 1e-3, coef, null_fit, carry)
        assert not converged and carry == {}

    def test_no_state_survives_a_call(self, monkeypatch):
        a, b = make_data(case=3, n=600, seed=44), make_data(case=2, n=500, seed=45)
        # the grid stays below every fold's critical strength (12 or more here),
        # so each call ends on a fit whose state a leak would hand on
        monkeypatch.setattr(stacking, "LAMBDA_GRID", np.logspace(-4.0, 0.0, 9))
        cfg = FitConfig(cv_folds=5)
        for design in STATIC_DESIGNS:
            first = select_strength(a, design, "lasso", cfg, seed=1)
            select_strength(b, design, "lasso", cfg, seed=1)
            assert select_strength(a, design, "lasso", cfg, seed=1) == first

    @pytest.mark.parametrize("case", [1, 2, 3])
    def test_report_equals_the_reference_walk(self, monkeypatch, case):
        from dynstack.stacking import _cv_fold_indices, _fit, _lasso_null_fit

        # 1001 rows make the first fold one row longer, so state carried across
        # a fold could not go unnoticed; the default grid crosses every fold's
        # critical strength and the short one stays below all of them; the last
        # starts with an unpenalized Newton fit whose state the lasso fits inherit
        data = make_data(case=case, n=1001, seed=46 + case)
        grids = (
            (stacking.LAMBDA_GRID, True),
            (np.logspace(-4.0, 1.0, 11), False),
            (np.r_[0.0, 1e-2, 1.0, 1e2, 1e3], True),
        )
        cfg = FitConfig()
        for grid, crosses in grids:
            monkeypatch.setattr(stacking, "LAMBDA_GRID", grid)
            folds = _cv_fold_indices(data.n, cfg.cv_folds, case)
            for design in STATIC_DESIGNS:
                x = design_matrix(data.z, data.u, design)
                pen = np.r_[0.0, np.ones(x.shape[1] - 1)]
                critical = [
                    _lasso_null_fit(x[r], data.y[r])[1]
                    for r in (np.setdiff1d(np.arange(data.n), h) for h in folds)
                ]
                assert (max(critical) < grid[-1]) == crosses and min(critical) > grid[0]

                def fit(x_fit, y_fit, strength, coef0):
                    return _fit(x_fit, y_fit, pen, strength, True, cfg, coef0)[0]

                _, report = select_strength(data, design, "lasso", cfg, seed=case)
                scores = cv_walk_reference(x, data.y, folds, grid, fit)
                assert [v for _, v in report] == scores.tolist()


class TestFitStatic:
    def test_designs_have_expected_width(self):
        data = make_data(n=200, seed=8)
        for design, width in (("m1", 3), ("m2", 4), ("m3", 6)):
            m = fit_static(data, design, "ridge", strength=1.0)
            assert len(m.coef) == width

    def test_unknown_design_and_penalty_rejected(self):
        data = make_data(n=50)
        with pytest.raises(ValueError, match="design"):
            fit_static(data, "m9", "none", 0.0)
        with pytest.raises(ValueError, match="penalty"):
            fit_static(data, "m1", "elastic", 1.0)

    def test_huge_ridge_shrinks_to_prior(self):
        rng = np.random.default_rng(10)
        n = 400
        z = rng.uniform(0, 1, (n, 2))
        y = rng.integers(0, 2, n)  # independent of z
        data = Level1Data(y, z, rng.uniform(0, 1, n), ["z1", "z2"])
        m = fit_static(data, "m1", "ridge", strength=1e9)
        assert np.abs(m.coef[1:]).max() < 1e-6
        ybar = y.mean()
        assert m.coef[0] == pytest.approx(np.log(ybar / (1 - ybar)), abs=1e-4)

    def test_huge_lasso_zeroes_exactly(self):
        data = make_data(n=300, seed=13)
        m = fit_static(data, "m3", "lasso", strength=1e4)
        assert np.all(m.coef[1:] == 0.0)
        ybar = data.y.mean()
        assert m.coef[0] == pytest.approx(np.log(ybar / (1 - ybar)), abs=1e-8)

    def test_lasso_kkt_conditions(self):
        rng = np.random.default_rng(14)
        for seed in range(5):
            data = random_binary_data(np.random.default_rng(200 + seed), n=300, p=3)
            strength = float(rng.uniform(0.05, 20.0))
            m = fit_static(data, "m3", "lasso", strength=strength)
            x = design_matrix(data.z, data.u, "m3")
            mu = sigmoid(x @ m.coef)
            g = -(x.T @ (data.y - mu))
            assert abs(g[0]) < 1e-6
            for j in range(1, x.shape[1]):
                if m.coef[j] == 0.0:
                    assert abs(g[j]) <= strength + 1e-6
                else:
                    assert abs(g[j] + strength * np.sign(m.coef[j])) < 1e-6

    def test_case1_m1_auc_near_reported_value(self):
        train = generate_case(1, 2000, 31).to_level1()
        test = generate_case(1, 2000, 32).to_level1()
        m = fit_static(train, "m1", "none", 0.0)
        assert auc(predict(m, test.z, test.u), test.y) == pytest.approx(0.75, abs=0.03)

    def test_strength_selection_returns_grid_value(self, monkeypatch):
        data = make_data(n=240, seed=15)
        monkeypatch.setattr(stacking, "LAMBDA_GRID", np.logspace(-3, 3, 7))
        strength, report = select_strength(data, "m1", "ridge", FitConfig(cv_folds=4), seed=2)
        assert strength in stacking.LAMBDA_GRID
        assert len(report) == 7


def working_problem(rng, design, p, n=400):
    """Weighted Gram and target of one proximal-Newton step on a static design."""
    x = design_matrix(rng.uniform(0, 1, (n, p)), rng.uniform(0, 1, n), design)
    mu = sigmoid(x @ rng.normal(0.0, 1.0, x.shape[1]))
    y = (rng.uniform(0, 1, n) < mu).astype(float)
    gram = (x * (mu * (1 - mu))[:, None]).T @ x
    c = gram @ rng.normal(0.0, 2.0, x.shape[1]) + x.T @ (y - mu)
    return gram, c


def critical_strength(gram, c):
    """Smallest strength at which the intercept-only point is optimal."""
    return float(np.abs(gram[1:, 0] * (c[0] / gram[0, 0]) - c[1:]).max())


class TestLassoWorkingSolve:
    # m3 is the hard case: its z*u columns correlate with z and u (r ~ 0.6)
    @pytest.mark.parametrize(
        "design,p,width", [("m1", 2, 3), ("m3", 1, 4), ("m2", 2, 4), ("m3", 2, 6)]
    )
    def test_matches_bruteforce_oracle(self, design, p, width):
        from dynstack.stacking import _lasso_working_solve

        rng = np.random.default_rng(40 + width + p)
        for _ in range(4):
            gram, c = working_problem(rng, design, p)
            assert gram.shape == (width, width)
            crit = critical_strength(gram, c)
            for frac in (0.001, 0.05, 0.2, 0.5, 0.8, 0.99, 1.01, 3.0):
                want = lasso_quadratic_bruteforce(gram, c, frac * crit)
                for b0 in (np.zeros(width), rng.normal(0.0, 3.0, width)):
                    got = _lasso_working_solve(gram, c, frac * crit, b0)
                    np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)
                    if frac > 1:  # above the critical strength: intercept only
                        assert np.all(got[1:] == 0.0)

    def test_collinear_columns_do_not_crash(self):
        from dynstack.stacking import _lasso_working_solve

        rng = np.random.default_rng(42)
        z = rng.uniform(0, 1, (300, 1))
        y = (rng.uniform(0, 1, 300) < sigmoid(3 * z[:, 0] - 1.5)).astype(int)
        data = Level1Data(y, np.hstack([z, z]), rng.uniform(0, 1, 300), ["a", "b"])
        for strength in (0.01, 1.0, 10.0):
            m = fit_static(data, "m3", "lasso", strength=strength)
            assert np.all(np.isfinite(m.coef))
        x = np.hstack([np.ones((300, 1)), z, z])
        gram = x.T @ x
        b = _lasso_working_solve(gram, gram @ np.array([0.5, 1.0, 1.0]), 0.5, np.zeros(3))
        grad = gram @ b - gram @ np.array([0.5, 1.0, 1.0])
        assert np.all(np.isfinite(b))
        assert abs(grad[0]) < 1e-8 and np.all(np.abs(grad[1:]) <= 0.5 + 1e-8)


class TestSolveSpd:
    """The direct LAPACK solve against the scipy-wrapper oracle, bit for bit."""

    @pytest.mark.parametrize("d", [3, 6, 21])
    def test_matches_oracle_on_spd(self, d):
        from dynstack.stacking import HESSIAN_JITTER, _solve_spd

        rng = np.random.default_rng(70 + d)
        for _ in range(20):
            # column scales over six decades, as penalty and covariate units give
            x = rng.normal(size=(3 * d, d)) * 10.0 ** rng.uniform(-3, 3, d)
            a = (x * rng.uniform(0.01, 0.25, 3 * d)[:, None]).T @ x
            g = rng.normal(size=d)
            for jitter in (0.0, HESSIAN_JITTER):
                np.testing.assert_array_equal(
                    _solve_spd(a, g, jitter), cholesky_solve_reference(a, g, jitter)
                )

    def test_matches_oracle_on_rank_deficient_psd(self):
        from scipy.linalg import cho_factor

        from dynstack.stacking import _solve_spd

        # a duplicated column, as a collinear lasso working set gives, and an
        # all-ones matrix whose second pivot is exactly zero
        cases = [(np.ones((4, 4)), np.arange(1.0, 5.0))]
        for seed in range(10):
            rng = np.random.default_rng(seed)
            z = rng.uniform(0, 1, (300, 1))
            x = np.hstack([np.ones((300, 1)), z, z, rng.uniform(0, 1, (300, 1))])
            cases.append(((x * rng.uniform(0.05, 0.25, 300)[:, None]).T @ x, rng.normal(size=4)))
        escalated = 0
        for a, g in cases:
            np.testing.assert_array_equal(_solve_spd(a, g, 0.0), cholesky_solve_reference(a, g, 0.0))
            d = np.sqrt(np.diag(a))
            try:
                cho_factor(a / d[:, None] / d[None, :], lower=True)
            except np.linalg.LinAlgError:
                escalated += 1
        assert escalated >= 5  # the jitter escalation path really ran

    def test_matches_oracle_through_repeated_escalation_and_lstsq(self):
        from dynstack.stacking import HESSIAN_JITTER, _solve_spd

        g = np.array([1.0, -2.0, 0.5, 3.0])
        # eigenvalues near -1e-9 need the fourth jitter; -1 outlasts all six
        for a in (np.ones((4, 4)) - 1e-9 * np.eye(4), np.eye(4) - 2.0 * np.eye(4)[::-1]):
            for jitter in (0.0, HESSIAN_JITTER):
                np.testing.assert_array_equal(
                    _solve_spd(a, g, jitter), cholesky_solve_reference(a, g, jitter)
                )

    @pytest.mark.parametrize("where", ["matrix", "rhs"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_rejected(self, where, bad):
        from dynstack.stacking import _solve_spd

        a = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, 0.2], [0.5, 0.2, 2.0]])
        g = np.array([1.0, -2.0, 0.5])
        if where == "matrix":
            a[2, 1] = a[1, 2] = bad
        else:
            g[1] = bad
        for jitter in (0.0, 1e-10):
            with pytest.raises(ValueError):
                _solve_spd(a, g, jitter)


class TestNegLoglik:
    """The closed-form log-likelihood kernel against ``np.logaddexp``."""

    def test_matches_logaddexp_reference(self):
        from dynstack.stacking import _neg_loglik

        for e in (0.0, 1e-300, 1.0, 36.0, 710.0, 745.0, 1e3):
            for eta in (e, -e):
                for y in (0, 1):
                    got = _neg_loglik(np.array([eta]), np.array([y]))
                    want = neg_loglik_reference([eta], [y])
                    np.testing.assert_allclose(got, want, rtol=1e-14, err_msg=f"eta={eta}, y={y}")

    def test_non_finite_eta_gives_non_finite_value(self):
        from dynstack.stacking import _neg_loglik

        for eta in (np.inf, -np.inf, np.nan):
            for y in (0, 1):
                with np.errstate(invalid="ignore"):
                    assert not np.isfinite(_neg_loglik(np.array([0.5, eta]), np.array([1, y])))
                    assert not np.isfinite(neg_loglik_reference([0.5, eta], [1, y]))


class TestObjectivePath:
    """``objective_path[-1]`` is the objective at the returned coefficients,
    bit for bit: a fit's last path entry is reused, never recomputed."""

    @staticmethod
    def objective(x, y, coef, ridge=None, l1=0.0):
        # the library's closed form, so the comparison can stay bit for bit
        eta = x @ coef
        val = float(np.sum(np.maximum(eta, 0.0) + np.log1p(np.exp(-np.abs(eta))) - y * eta))
        if ridge is not None:
            val += float(ridge @ (coef * coef))
        return val + l1 * np.abs(coef[1:]).sum() if l1 else val

    def test_static_fits(self):
        data = make_data(n=500, seed=21)
        for design in STATIC_DESIGNS:
            x = design_matrix(data.z, data.u, design)
            ones = np.r_[0.0, np.ones(x.shape[1] - 1)]
            crit = float(np.abs(x[:, 1:].T @ (data.y - data.y.mean())).max())
            m = fit_static(data, design, "none", 0.0)
            assert m.objective_path[-1] == self.objective(x, data.y, m.coef)
            m = fit_static(data, design, "ridge", strength=2.0)
            assert m.objective_path[-1] == self.objective(x, data.y, m.coef, ridge=2.0 * ones)
            for strength in (0.05 * crit, 0.3 * crit, 3.0 * crit):
                m = fit_static(data, design, "lasso", strength=strength)
                assert (m.coef[1:] == 0.0).all() == (strength > crit)
                assert m.objective_path[-1] == self.objective(x, data.y, m.coef, l1=strength)

    def test_lasso_warm_start_path(self):
        from dynstack.stacking import _fit

        data = make_data(n=400, seed=22)
        x = design_matrix(data.z, data.u, "m3")
        pen = np.r_[0.0, np.ones(x.shape[1] - 1)]
        coef = None
        for strength in np.logspace(-3, 2, 11):
            coef, path, _ = _fit(x, data.y, pen, strength, True, FitConfig(), coef)
            assert path[-1] == self.objective(x, data.y, coef, l1=strength)

    def test_dynamic_fit(self):
        from dynstack.stacking import _fit, _penalty_eigenbasis

        # the dynamic model is fitted in the penalty's eigenbasis; its
        # objective is evaluated there
        data = make_data(n=500, seed=23)
        basis = default_basis(data.u)
        pen, rot = _penalty_eigenbasis(basis, data.p)
        x = dynamic_design(data.z, data.u, basis) @ rot
        for lam in (0.0, 1e-2, 10.0):
            gamma, path, _ = _fit(x, data.y, pen, lam, False, FitConfig())
            ridge = lam * pen if lam > 0 else None
            assert path[-1] == self.objective(x, data.y, gamma, ridge=ridge)


class TestPredictStatic:
    def test_zero_coefficients_give_half(self):
        m = StackModel("m2", "none", 0.0, np.zeros(4), 2, ["z1", "z2"])
        np.testing.assert_allclose(
            predict(m, np.random.default_rng(0).uniform(0, 1, (5, 2)), np.zeros(5)),
            0.5,
        )

    def test_interaction_only_hand_expansion(self):
        # design m3 columns: 1, z1, z2, u, z1*u, z2*u
        c = 1.7
        coef = np.array([0.0, 0.0, 0.0, 0.0, c, 0.0])
        m = StackModel("m3", "none", 0.0, coef, 2, ["z1", "z2"])
        z = np.array([[0.4, 0.9]])
        u = np.array([0.25])
        np.testing.assert_allclose(
            predict(m, z, u), sigmoid(c * 0.4 * 0.25), atol=1e-15
        )

    def test_design_width_mismatch_rejected(self):
        m2 = StackModel("m3", "none", 0.0, np.zeros(4), 2, ["z1", "z2"])
        with pytest.raises(ValueError, match="coefficients"):
            predict(m2, np.zeros((2, 2)), np.zeros(2))

    def test_wrong_z_width_rejected(self):
        m = StackModel("m1", "none", 0.0, np.zeros(3), 2, ["z1", "z2"])
        with pytest.raises(ValueError, match="z columns"):
            predict(m, np.zeros((2, 4)), np.zeros(2))

    def test_row_mismatch_rejected(self):
        m = StackModel("m3", "none", 0.0, np.zeros(6), 2, ["z1", "z2"])
        with pytest.raises(ValueError, match="z has 5 rows, u has 2"):
            predict(m, np.zeros((5, 2)), np.zeros(2))


class TestModelFiles:
    def test_dynamic_round_trip_exact(self, tmp_path):
        data = make_data(n=150, seed=16)
        model = fit_dynamic(data, 3.3, default_basis(data.u))
        path = tmp_path / "dyn.txt"
        save_model(path, model)
        back = load_model(path)
        np.testing.assert_array_equal(back.coef, model.coef)
        np.testing.assert_array_equal(back.basis.knots, model.basis.knots)
        assert (back.design, back.penalty, back.strength) == ("dynamic", "curvature", 3.3)
        assert back.p == model.p and back.columns == model.columns
        q = np.random.default_rng(1).uniform(0, 1, (20, 2))
        uu = np.random.default_rng(2).uniform(0, 1, 20)
        np.testing.assert_array_equal(predict(back, q, uu), predict(model, q, uu))

    def test_static_round_trip_exact(self, tmp_path):
        data = make_data(n=150, seed=17)
        model = fit_static(data, "m3", "lasso", strength=0.8)
        path = tmp_path / "stat.txt"
        save_model(path, model)
        back = load_model(path)
        np.testing.assert_array_equal(back.coef, model.coef)
        assert (back.design, back.penalty, back.strength) == ("m3", "lasso", 0.8)
        assert back.basis is None and "knots" not in path.read_text()

    @pytest.mark.parametrize(
        "kind,edit,message",
        [
            ("dynamic", "drop coef", "model file has no 'coef' line"),
            ("static", "drop design", "model file has no 'design' line"),
            ("dynamic", "truncate coef", "'coef' has 20 values; a dynamic model .* needs 21"),
            ("static", "truncate coef", "'coef' has 5 values; a m3 model with p = 2 needs 6"),
            ("static", "replace coef = 1.0 abc", "could not convert string to float: 'abc'"),
            ("dynamic", "replace p = 2.5", "invalid literal for int"),
            ("static", "replace design = m9", "unknown design 'm9'"),
            ("dynamic", "replace dynstack-model 1", "a dynstack-model 1 file, which this version no"),
            ("static", "replace penalty = curvature", "unknown penalty 'curvature' for design 'm3'"),
            ("dynamic", "replace penalty = ridge", "unknown penalty 'ridge' for design 'dynamic'"),
            ("dynamic", "drop knots", "model file has no 'knots' line"),
        ],
    )
    def test_damaged_file_names_file_and_key(self, tmp_path, kind, edit, message):
        data = make_data(n=150, seed=18)
        if kind == "dynamic":
            model = fit_dynamic(data, 1.0, default_basis(data.u))
        else:
            model = fit_static(data, "m3", "ridge", strength=1.0)
        path = tmp_path / "model.txt"
        save_model(path, model)
        action, key, *value = edit.split(" ", 2)
        lines = []
        for line in path.read_text().splitlines():
            if line.startswith(key) and action == "truncate":
                line = line.rsplit(" ", 1)[0]
            if line.startswith(key + " ") and action == "replace":
                line = f"{key} {value[0]}"
            if not (line.startswith(key) and action == "drop"):
                lines.append(line)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="model.txt: " + message):
            load_model(path)

    def test_model_without_z_column_rejected(self, tmp_path):
        # an intercept-only static model with p = 0 used to load
        path = tmp_path / "model.txt"
        path.write_text(
            "dynstack-model 2\ndesign = m1\npenalty = none\nstrength = 0\np = 0\ncoef = 0.5\n"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: p = 0; a model needs p >= 1$"):
            load_model(path)

    def test_non_model_file_rejected(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("hello\n")
        with pytest.raises(ValueError, match="model file"):
            load_model(path)

    @pytest.mark.parametrize(
        "kind,key,edit,message",
        [
            ("dynamic", "knots", lambda v: " ".join(reversed(v.split())), "'knots' are not"),
            ("dynamic", "knots", lambda v: v.replace(v.split()[5], "nan", 1), "'knots' are not"),
            ("dynamic", "knots", lambda v: v.rsplit(" ", 1)[0], "'knots' are not"),
            ("dynamic", "u_lo", lambda v: "2.5", r"invalid domain \[2.5, "),
            ("dynamic", "coef", lambda v: "nan " + v.split(" ", 1)[1], "'coef' holds a non-finite"),
            ("static", "coef", lambda v: v.rsplit(" ", 1)[0] + " inf", "'coef' holds a non-finite"),
            ("dynamic", "column", lambda v: None, "1 'column' lines for p = 2"),
            ("dynamic", "column", lambda v: f"{v}\ncolumn = {v}", "3 'column' lines for p = 2"),
            ("static", "column", lambda v: None, "1 'column' lines for p = 2"),
            ("static", "column", lambda v: f"{v}\ncolumn = extra", "3 'column' lines for p = 2"),
            ("dynamic", "strength", lambda v: "nan", "penalty strength must be finite .* got nan"),
            ("static", "strength", lambda v: "-5", "penalty strength must be finite .* got -5.0"),
            ("static", "penalty", lambda v: "bogus", "unknown penalty 'bogus' for design 'm2'"),
        ],
        ids=[
            "reversed-knots", "nan-knot", "short-knots", "lo-above-hi", "nan-coef", "inf-coef",
            "dynamic-missing-column", "dynamic-extra-column",
            "static-missing-column", "static-extra-column",
            "nan-strength", "negative-strength", "unknown-penalty",
        ],
    )
    def test_inconsistent_model_rejected(self, tmp_path, kind, key, edit, message):
        # each of these used to load and then predict wrong numbers or NaN,
        # or label curves with the wrong names; an edit of None drops the line
        data = make_data(n=150, seed=19)
        if kind == "dynamic":
            model = fit_dynamic(data, 1.0, default_basis(data.u))
        else:
            model = fit_static(data, "m2", "none", 0.0)
        path = tmp_path / "model.txt"
        save_model(path, model)
        lines = path.read_text().splitlines()
        i = next(i for i, line in enumerate(lines) if line.startswith(key + " = "))
        value = edit(lines[i].split(" = ", 1)[1])
        lines[i : i + 1] = [] if value is None else [f"{key} = {value}"]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="model.txt: " + message):
            load_model(path)


_floats = st.floats(-1e6, 1e6, allow_nan=False)
# provenance names: one stripped line, holding the separators the files use
_names = st.text("abxyz09:_= ", min_size=1, max_size=8).filter(lambda s: s == s.strip())


@st.composite
def _dynamic_models(draw):
    lo, width = draw(_floats), draw(st.floats(1e-3, 1e6))
    basis = make_basis(lo, lo + width, draw(st.integers(0, 8)), draw(st.integers(0, 4)))
    p = draw(st.integers(1, 3))
    coef = draw(st.lists(_floats, min_size=1 + p * basis.size, max_size=1 + p * basis.size))
    lam = draw(st.floats(0, 1e8))
    columns = draw(st.lists(_names, min_size=p, max_size=p))
    return StackModel("dynamic", "curvature", lam, np.array(coef), p, columns, basis)


@st.composite
def _static_models(draw):
    design = draw(st.sampled_from(STATIC_DESIGNS))
    p = draw(st.integers(1, 3))
    width = {"m1": 1 + p, "m2": 2 + p, "m3": 2 + 2 * p}[design]
    return StackModel(
        design=design,
        penalty=draw(st.sampled_from(("none", "ridge", "lasso"))),
        strength=draw(st.floats(0, 1e8)),
        coef=np.array(draw(st.lists(_floats, min_size=width, max_size=width))),
        p=p,
        columns=draw(st.lists(_names, min_size=p, max_size=p)),
    )


class TestModelFileRoundTrip:
    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture], deadline=None)
    @given(model=st.one_of(_dynamic_models(), _static_models()))
    def test_save_then_load_is_bit_equal(self, tmp_path, model):
        path = tmp_path / "model.txt"
        save_model(path, model)
        back = load_model(path)
        assert (back.design, back.penalty) == (model.design, model.penalty)
        assert np.float64(back.strength).tobytes() == np.float64(model.strength).tobytes()
        assert back.coef.tobytes() == model.coef.tobytes()
        assert (back.p, back.columns) == (model.p, model.columns)
        if model.basis is None:
            assert back.basis is None
        else:
            assert back.basis.degree == model.basis.degree
            assert back.basis.knots.tobytes() == model.basis.knots.tobytes()
            for end in ("u_lo", "u_hi"):
                assert np.float64(getattr(back.basis, end)).tobytes() == np.float64(
                    getattr(model.basis, end)
                ).tobytes()


@st.composite
def _level1_tables(draw):
    n, p = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    y = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    z = draw(st.lists(st.floats(0.0, 1.0), min_size=n * p, max_size=n * p))
    u = draw(st.lists(_floats, min_size=n, max_size=n))
    columns = draw(st.lists(_names, min_size=p, max_size=p))
    return Level1Data(np.array(y), np.reshape(z, (n, p)), np.array(u), columns)


class TestLevel1RoundTrip:
    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture], deadline=None)
    @given(data=_level1_tables())
    def test_write_then_read_is_exact(self, tmp_path, data):
        path = tmp_path / "level1.csv"
        write_level1(path, data)
        back = read_level1(path)
        assert back.y.tobytes() == data.y.tobytes()
        assert back.z.tobytes() == data.z.tobytes()
        assert back.u.tobytes() == data.u.tobytes()
        assert back.columns == data.columns

    @pytest.mark.parametrize(
        "name", ["", "x\ny", " pad ", "pad ", "\tpad", "a\rb", "a\x0bb", "a\u2028b"]
    )
    def test_name_that_cannot_round_trip_rejected(self, name):
        # these came back changed, or made read_level1 drop every name
        with pytest.raises(ValueError, match="provenance name"):
            Level1Data(np.array([0, 1]), np.zeros((2, 2)), np.zeros(2), ["ok", name])
