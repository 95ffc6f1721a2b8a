import numpy as np
import pytest

from dynstack.simulation import auc, generate_case, sigmoid
from dynstack.splines import assemble_block_penalty, curvature_penalty, make_basis
from dynstack.stacking import (
    STATIC_DESIGNS,
    ConvergenceError,
    FitConfig,
    Level1Data,
    StaticStackModel,
    build_level1,
    coefficient_curves,
    default_basis,
    dynamic_design,
    fit_dynamic,
    fit_static,
    load_model,
    predict_dynamic,
    predict_static,
    read_level1,
    save_model,
    select_lambda,
    select_strength,
    write_level1,
)

from oracles import cholesky_solve_reference, irls_logistic, lasso_quadratic_bruteforce


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
        ],
        ids=[
            "short row", "every row short", "nan", "inf", "non-numeric", "header only",
            "fractional y",
        ],
    )
    def test_bad_row_names_file_and_line(self, tmp_path, body, message):
        path = tmp_path / "level1.csv"
        path.write_text("y,z_1,u\n" + body)
        with pytest.raises(ValueError, match=message):
            read_level1(path)

    def test_empty_file_names_file(self, tmp_path):
        path = tmp_path / "level1.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="level1.csv: unexpected level-1 header"):
            read_level1(path)


class _StubClassifier:
    """Deterministic stand-in level-0 model for dataset-assembly tests."""

    def __init__(self, name, n_classes, probs_fn):
        self.name = name
        self.n_classes = n_classes
        self._fn = probs_fn

    def heldout_probs(self, fit_idx, heldout_idx):
        return self._fn(fit_idx, heldout_idx)


class TestBuildLevel1:
    def test_column_arithmetic_two_binary(self):
        n = 20
        y = np.arange(n) % 2
        u = np.linspace(0, 1, n)
        mk = lambda c: _StubClassifier(
            f"clf{c}", 2, lambda fit, held: np.full((len(held), 2), 0.5)
        )
        data = build_level1(y, [mk(0), mk(1)], u, folds=4, seed=0)
        assert data.p == 2
        assert data.columns == ["clf0:class0", "clf1:class0"]

    def test_column_arithmetic_mixed_classes(self):
        n = 18
        y = np.arange(n) % 2
        u = np.zeros(n)
        three = _StubClassifier(
            "three", 3, lambda fit, held: np.full((len(held), 3), 1 / 3)
        )
        two = _StubClassifier("two", 2, lambda fit, held: np.full((len(held), 2), 0.5))
        data = build_level1(y, [three, two], u, folds=3, seed=0)
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

        clf = _StubClassifier("perfect", 2, perfect)
        data = build_level1(y, [clf], np.zeros(n), folds=5, seed=1)
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

        build_level1(y, [_StubClassifier("c", 2, fn)], np.zeros(n), folds=4, seed=3)
        assert len(seen) == 4
        union = set()
        for fit, held in seen:
            assert fit.isdisjoint(held)
            assert fit | held == set(range(n))
            union |= held
        assert union == set(range(n))

    def test_missing_class_error_advises_folds(self):
        def failing(fit_idx, heldout_idx):
            raise ValueError("no training node for class(es) [1]")

        with pytest.raises(ValueError, match="larger training folds"):
            build_level1(
                np.arange(10) % 2,
                [_StubClassifier("c", 2, failing)],
                np.zeros(10),
                folds=5,
                seed=0,
            )


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
        logistic = fit_static(train, "m1", "none")
        a_dyn = auc(predict_dynamic(dyn, test.z, test.u), test.y)
        a_log = auc(predict_static(logistic, test.z, test.u), test.y)
        assert abs(a_dyn - a_log) < 0.01

    def test_nesting_constant_basis_equals_plain_logistic(self):
        cfg = FitConfig(newton_tol=1e-12)
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            data = random_binary_data(rng)
            basis = make_basis(data.u.min(), data.u.max(), 0, 0)
            dyn = fit_dynamic(data, 0.0, basis, cfg)
            stat = fit_static(data, "m1", "none", config=cfg)
            p_dyn = predict_dynamic(dyn, data.z, data.u)
            p_stat = predict_static(stat, data.z, data.u)
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
        np.testing.assert_allclose(predict_dynamic(model, data.z, data.u), 0.5)

    def test_intercept_only_closed_form(self):
        data = make_data(n=50)
        model = fit_dynamic(data, 1.0, default_basis(data.u))
        model.coef[:] = 0.0
        model.coef[0] = -3.0
        np.testing.assert_allclose(
            predict_dynamic(model, np.zeros((4, 2)), np.full(4, 0.5)),
            sigmoid(-3.0),
            atol=1e-12,
        )

    def test_wrong_width_rejected(self):
        data = make_data(n=50)
        model = fit_dynamic(data, 1.0, default_basis(data.u))
        with pytest.raises(ValueError, match="z columns"):
            predict_dynamic(model, np.zeros((3, 5)), np.zeros(3))

    def test_row_mismatch_rejected(self):
        data = make_data(n=50)
        model = fit_dynamic(data, 1.0, default_basis(data.u))
        with pytest.raises(ValueError, match="z has 3 rows, u has 4"):
            predict_dynamic(model, np.zeros((3, 2)), np.zeros(4))

    def test_outputs_in_unit_interval(self):
        data = make_data(n=300, seed=21)
        model = fit_dynamic(data, 0.01, default_basis(data.u))
        p = predict_dynamic(model, data.z, data.u)
        assert np.all((p > 0) & (p < 1))

    def test_covariate_clamped_outside_training_range(self):
        data = make_data(n=200, seed=2)
        model = fit_dynamic(data, 1.0, default_basis(data.u))
        z = data.z[:3]
        lo = predict_dynamic(model, z, np.full(3, model.basis.u_lo - 100.0))
        at_lo = predict_dynamic(model, z, np.full(3, model.basis.u_lo))
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


class TestSelectLambda:
    def test_single_point_grid(self):
        data = make_data(n=120)
        cfg = FitConfig(lambda_grid=np.array([3.7]), cv_folds=4)
        lam, report = select_lambda(data, cfg)
        assert lam == 3.7 and len(report) == 1

    def test_sine_data_picks_interior_lambda(self):
        data = make_data(case=3, n=1000, seed=4)
        cfg = FitConfig(cv_folds=5)
        lam, report = select_lambda(data, cfg, seed=1)
        assert lam < cfg.lambda_grid.max()
        scores = np.array([s for _, s in report])
        assert scores.argmin() not in (len(scores) - 1,)

    def test_tie_prefers_larger_lambda(self):
        # degree-1 basis has a zero curvature penalty, so every lambda ties
        data = make_data(n=100, seed=6)
        basis = make_basis(data.u.min(), data.u.max(), 2, 1)
        cfg = FitConfig(lambda_grid=np.array([0.1, 10.0, 1000.0]), cv_folds=4)
        lam, report = select_lambda(data, cfg, basis=basis, seed=0)
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
            select_lambda(bad, cfg)


class TestFitStatic:
    def test_designs_have_expected_width(self):
        data = make_data(n=200, seed=8)
        for design, width in (("m1", 3), ("m2", 4), ("m3", 6)):
            m = fit_static(data, design, "ridge", strength=1.0)
            assert len(m.coef) == width

    def test_unknown_design_and_penalty_rejected(self):
        data = make_data(n=50)
        with pytest.raises(ValueError, match="design"):
            fit_static(data, "m9", "none")
        with pytest.raises(ValueError, match="penalty"):
            fit_static(data, "m1", "elastic")

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
        from dynstack.stacking import static_design

        rng = np.random.default_rng(14)
        for seed in range(5):
            data = random_binary_data(np.random.default_rng(200 + seed), n=300, p=3)
            strength = float(rng.uniform(0.05, 20.0))
            m = fit_static(data, "m3", "lasso", strength=strength)
            x = static_design(data.z, data.u, "m3")
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
        m = fit_static(train, "m1", "none")
        assert auc(predict_static(m, test.z, test.u), test.y) == pytest.approx(0.75, abs=0.03)

    def test_strength_selection_returns_grid_value(self):
        data = make_data(n=240, seed=15)
        cfg = FitConfig(lambda_grid=np.logspace(-3, 3, 7), cv_folds=4)
        strength, report = select_strength(data, "m1", "ridge", cfg, seed=2)
        assert strength in cfg.lambda_grid
        assert len(report) == 7


def working_problem(rng, design, p, n=400):
    """Weighted Gram and target of one proximal-Newton step on a static design."""
    from dynstack.stacking import static_design

    x = static_design(rng.uniform(0, 1, (n, p)), rng.uniform(0, 1, n), design)
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


class TestObjectivePath:
    """``objective_path[-1]`` is the objective at the returned coefficients,
    bit for bit: a fit's last path entry is reused, never recomputed."""

    @staticmethod
    def objective(x, y, coef, ridge=None, l1=0.0):
        eta = x @ coef
        val = float(np.sum(np.logaddexp(0.0, eta) - y * eta))
        if ridge is not None:
            val += float(ridge @ (coef * coef))
        return val + l1 * np.abs(coef[1:]).sum() if l1 else val

    def test_static_fits(self):
        from dynstack.stacking import static_design

        data = make_data(n=500, seed=21)
        for design in STATIC_DESIGNS:
            x = static_design(data.z, data.u, design)
            ones = np.r_[0.0, np.ones(x.shape[1] - 1)]
            crit = float(np.abs(x[:, 1:].T @ (data.y - data.y.mean())).max())
            m = fit_static(data, design, "none")
            assert m.objective_path[-1] == self.objective(x, data.y, m.coef)
            m = fit_static(data, design, "ridge", strength=2.0)
            assert m.objective_path[-1] == self.objective(x, data.y, m.coef, ridge=2.0 * ones)
            for strength in (0.05 * crit, 0.3 * crit, 3.0 * crit):
                m = fit_static(data, design, "lasso", strength=strength)
                assert (m.coef[1:] == 0.0).all() == (strength > crit)
                assert m.objective_path[-1] == self.objective(x, data.y, m.coef, l1=strength)

    def test_lasso_warm_start_path(self):
        from dynstack.stacking import _fit, static_design

        data = make_data(n=400, seed=22)
        x = static_design(data.z, data.u, "m3")
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
        m = StaticStackModel("m2", "none", 0.0, np.zeros(4), 2, ["z1", "z2"])
        np.testing.assert_allclose(
            predict_static(m, np.random.default_rng(0).uniform(0, 1, (5, 2)), np.zeros(5)),
            0.5,
        )

    def test_interaction_only_hand_expansion(self):
        # design m3 columns: 1, z1, z2, u, z1*u, z2*u
        c = 1.7
        coef = np.array([0.0, 0.0, 0.0, 0.0, c, 0.0])
        m = StaticStackModel("m3", "none", 0.0, coef, 2, ["z1", "z2"])
        z = np.array([[0.4, 0.9]])
        u = np.array([0.25])
        np.testing.assert_allclose(
            predict_static(m, z, u), sigmoid(c * 0.4 * 0.25), atol=1e-15
        )

    def test_design_width_mismatch_rejected(self):
        m2 = StaticStackModel("m3", "none", 0.0, np.zeros(4), 2, ["z1", "z2"])
        with pytest.raises(ValueError, match="coefficients"):
            predict_static(m2, np.zeros((2, 2)), np.zeros(2))

    def test_wrong_z_width_rejected(self):
        m = StaticStackModel("m1", "none", 0.0, np.zeros(3), 2, ["z1", "z2"])
        with pytest.raises(ValueError, match="z columns"):
            predict_static(m, np.zeros((2, 4)), np.zeros(2))

    def test_row_mismatch_rejected(self):
        m = StaticStackModel("m3", "none", 0.0, np.zeros(6), 2, ["z1", "z2"])
        with pytest.raises(ValueError, match="z has 5 rows, u has 2"):
            predict_static(m, np.zeros((5, 2)), np.zeros(2))


class TestModelFiles:
    def test_dynamic_round_trip_exact(self, tmp_path):
        data = make_data(n=150, seed=16)
        model = fit_dynamic(data, 3.3, default_basis(data.u))
        path = tmp_path / "dyn.txt"
        save_model(path, model)
        back = load_model(path)
        np.testing.assert_array_equal(back.coef, model.coef)
        np.testing.assert_array_equal(back.basis.knots, model.basis.knots)
        assert back.lam == model.lam and back.p == model.p
        assert back.columns == model.columns
        q = np.random.default_rng(1).uniform(0, 1, (20, 2))
        uu = np.random.default_rng(2).uniform(0, 1, 20)
        np.testing.assert_array_equal(
            predict_dynamic(back, q, uu), predict_dynamic(model, q, uu)
        )

    def test_static_round_trip_exact(self, tmp_path):
        data = make_data(n=150, seed=17)
        model = fit_static(data, "m3", "lasso", strength=0.8)
        path = tmp_path / "stat.txt"
        save_model(path, model)
        back = load_model(path)
        np.testing.assert_array_equal(back.coef, model.coef)
        assert (back.design, back.penalty, back.strength) == ("m3", "lasso", 0.8)

    @pytest.mark.parametrize(
        "kind,edit,message",
        [
            ("dynamic", "drop coef", "model file has no 'coef' line"),
            ("static", "drop kind", "model file has no 'kind' line"),
            ("dynamic", "truncate coef", "'coef' has 20 values; a dynamic model .* needs 21"),
            ("static", "truncate coef", "'coef' has 5 values; a static model with p = 2 needs 6"),
            ("static", "replace coef = 1.0 abc", "could not convert string to float: 'abc'"),
            ("dynamic", "replace p = 2.5", "invalid literal for int"),
            ("static", "replace design = m9", "unknown design 'm9'"),
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

    def test_non_model_file_rejected(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("hello\n")
        with pytest.raises(ValueError, match="model file"):
            load_model(path)
