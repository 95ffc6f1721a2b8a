import numpy as np
import pytest

import dynstack.simulation as sim_mod
from dynstack import stacking
from dynstack.simulation import METHODS, auc, generate_case, run_simulation
from dynstack.stacking import ConvergenceError, sigmoid
from dynstack.stacking import fit_static as real_fit_static

from oracles import brute_force_auc


class TestGenerateCase:
    def test_formula_case1_structure(self):
        d = generate_case(1, 5000, 0)
        # p(y=1 | z1=z2=1, w=0) = sigmoid(3): check via the literal formula
        assert sigmoid(-3 + 3 * 1 + 3 * 1 + 0) == pytest.approx(0.95257, abs=1e-4)
        assert set(np.unique(d.y)) <= {0, 1}
        for col in (d.z1, d.z2, d.u):
            assert col.min() >= 0.0 and col.max() <= 1.0

    def test_case3_no_signal_at_u_zero(self):
        # sin(0) = 0: at u = 0 the first score's weight vanishes
        assert 3 * np.sin(6 * 0.0) == 0.0
        d = generate_case(3, 10, 1)
        assert len(d.y) == len(d.z1) == len(d.z2) == len(d.u) == 10

    def test_deterministic_per_seed(self):
        a, b = generate_case(2, 500, 42), generate_case(2, 500, 42)
        for fa, fb in ((a.y, b.y), (a.z1, b.z1), (a.z2, b.z2), (a.u, b.u)):
            np.testing.assert_array_equal(fa, fb)
        c = generate_case(2, 500, 43)
        assert not np.array_equal(a.y, c.y)

    def test_case2_mean_matches_independent_monte_carlo(self):
        # oracle: Monte-Carlo integral of the response mean under the same
        # law, drawn with numpy's legacy RandomState generator
        d = generate_case(2, 1_000_000, 7)
        rs = np.random.RandomState(123)
        z1 = rs.uniform(size=1_000_000)
        z2 = rs.uniform(size=1_000_000)
        u = rs.uniform(size=1_000_000)
        w = rs.normal(size=1_000_000)
        oracle = sigmoid(-3 + 3 * u * z1 + 3 * z2 + w).mean()
        assert d.y.mean() == pytest.approx(oracle, abs=0.005)

    def test_invalid_case_rejected(self):
        with pytest.raises(ValueError, match="case"):
            generate_case(4, 10, 0)
        with pytest.raises(ValueError):
            generate_case(1, 0, 0)


class TestAuc:
    def test_perfect_separation(self):
        assert auc(np.array([0.9, 0.8, 0.1, 0.2]), np.array([1, 1, 0, 0])) == 1.0

    def test_hand_example(self):
        scores = np.array([0.1, 0.4, 0.35, 0.8])
        labels = np.array([0, 0, 1, 1])
        # pairs: (.35,.1) win, (.35,.4) loss, (.8,.1) win, (.8,.4) win
        assert auc(scores, labels) == 0.75

    def test_null_distribution_near_half(self):
        rng = np.random.default_rng(1)
        scores = rng.uniform(0, 1, 20000)
        labels = rng.integers(0, 2, 20000)
        assert auc(scores, labels) == pytest.approx(0.5, abs=0.02)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="both classes"):
            auc(np.array([0.2, 0.4]), np.array([1, 1]))

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(2)
        scores = rng.normal(0, 1, 300)
        labels = rng.integers(0, 2, 300)
        labels[:2] = [0, 1]
        base = auc(scores, labels)
        assert auc(np.exp(scores), labels) == pytest.approx(base, abs=1e-12)
        assert auc(3 * scores - 7, labels) == pytest.approx(base, abs=1e-12)

    def test_label_flip_complement(self):
        rng = np.random.default_rng(3)
        scores = rng.choice([0.1, 0.3, 0.3, 0.9], 200)  # forced ties
        labels = rng.integers(0, 2, 200)
        labels[:2] = [0, 1]
        assert auc(scores, labels) + auc(scores, 1 - labels) == pytest.approx(1.0, abs=1e-12)

    def test_matches_brute_force_on_random_vectors(self):
        rng = np.random.default_rng(4)
        for _ in range(1000):
            n = int(rng.integers(2, 51))
            labels = rng.integers(0, 2, n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            # half the draws use a tiny score alphabet to force heavy ties
            if rng.uniform() < 0.5:
                scores = rng.choice([0.0, 0.25, 0.5, 1.0], n)
            else:
                scores = rng.normal(0, 1, n)
            assert auc(scores, labels) == pytest.approx(
                brute_force_auc(scores, labels), abs=1e-12
            )


class TestRunSimulation:
    def test_report_shape_and_determinism(self, monkeypatch):
        monkeypatch.setattr(stacking, "LAMBDA_GRID", np.logspace(-2, 2, 5))
        kwargs = dict(cases=(1,), n=240, reps=3, seed=5, folds=3)
        a = run_simulation(**kwargs)
        b = run_simulation(**kwargs)
        assert len(a.cells) == len(METHODS)
        for ca, cb in zip(a.cells, b.cells):
            assert ca == cb
        for key in a.raw:
            np.testing.assert_array_equal(a.raw[key], b.raw[key])

    def test_threads_do_not_change_results(self, monkeypatch):
        # the worker processes fork, so they inherit the patched grid
        monkeypatch.setattr(stacking, "LAMBDA_GRID", np.logspace(-2, 2, 3))
        kwargs = dict(
            cases=(2,), methods=("z1_only", "logistic_m1", "dynamic"),
            n=240, reps=4, seed=9, folds=3,
        )
        seq = run_simulation(threads=1, **kwargs)
        par = run_simulation(threads=2, **kwargs)
        for key in seq.raw:
            np.testing.assert_array_equal(seq.raw[key], par.raw[key])

    @pytest.mark.parametrize(
        "threads,jobs,workers", [(64, 2, 2), (2, 5, 2), (3, 3, 3), (8, 1, None), (1, 4, None)]
    )
    def test_at_most_one_worker_per_job(self, monkeypatch, threads, jobs, workers):
        # threads=64 for 2 jobs used to ask the pool for 64 workers, and fork
        # them all; the recorder runs the jobs in this process and starts none
        import concurrent.futures

        from dynstack.simulation import map_reps

        asked = []

        class Recorder:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
        out = map_reps(lambda a, b: a * b, [(j, 10) for j in range(jobs)], threads)
        assert out == [10 * j for j in range(jobs)]
        assert asked == ([] if workers is None else [workers])

    def test_paired_data_shared_across_methods(self):
        # z1_only and z2_only see the same datasets: with the same split
        # their AUCs must come from the identical test labels, which we can
        # verify through determinism of the whole cell
        rep = run_simulation(
            cases=(1,), methods=("z1_only", "z2_only"), n=200, reps=2, seed=3, folds=2
        )
        assert rep.cell(1, "z1_only").n_reps == 2
        assert rep.cell(1, "z2_only").n_reps == 2

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown method"):
            run_simulation(cases=(1,), methods=("bogus",), n=100, reps=2, seed=0)

    def test_repeated_method_rejected(self):
        # it was fitted twice and reported in two rows, but raw kept one set
        with pytest.raises(ValueError, match="^method 'ridge_m1' is given twice$"):
            run_simulation(cases=(1,), methods=("ridge_m1", "random", "ridge_m1"), n=100, reps=2)

    def test_sd_uses_sample_formula(self):
        rep = run_simulation(cases=(1,), methods=("random",), n=150, reps=5, seed=2, folds=2)
        vals = rep.raw[(1, "random")]
        cell = rep.cell(1, "random")
        assert cell.sd_auc == pytest.approx(vals.std(ddof=1))
        assert cell.mean_auc == pytest.approx(vals.mean())
        assert not any(np.isnan(v).any() for v in rep.raw.values())


class TestFailurePolicy:
    KWARGS = dict(
        cases=(2,), methods=("z1_only", "logistic_m2", "ridge_m2", "lasso_m3", "dynamic"),
        n=200, reps=3, seed=4, folds=3,
    )

    @pytest.fixture(autouse=True)
    def three_point_grid(self, monkeypatch):
        monkeypatch.setattr(stacking, "LAMBDA_GRID", np.logspace(-2, 2, 3))

    def test_diverged_fit_loses_only_its_cell(self, monkeypatch, caplog):
        clean = run_simulation(**self.KWARGS)
        calls = []

        def first_logistic_m2_diverges(data, design, penalty, *rest):
            if (design, penalty) == ("m2", "none"):
                calls.append(design)
                if len(calls) == 1:
                    raise ConvergenceError("separable")
            return real_fit_static(data, design, penalty, *rest)

        monkeypatch.setattr(sim_mod, "fit_static", first_logistic_m2_diverges)
        with caplog.at_level("WARNING", logger="dynstack.simulation"):
            flaky = run_simulation(**self.KWARGS)
        assert len(calls) == 3
        assert [r.getMessage().count("logistic_m2 failed") for r in caplog.records] == [1]
        raw = flaky.raw[(2, "logistic_m2")]
        assert np.isnan(raw[0]) and not np.isnan(raw[1:]).any()
        np.testing.assert_array_equal(raw[1:], clean.raw[(2, "logistic_m2")][1:])
        assert flaky.cell(2, "logistic_m2").n_reps == 2
        assert flaky.cell(2, "logistic_m2").mean_auc == pytest.approx(raw[1:].mean())
        for m in self.KWARGS["methods"]:
            if m != "logistic_m2":
                np.testing.assert_array_equal(flaky.raw[(2, m)], clean.raw[(2, m)])
                assert flaky.cell(2, m) == clean.cell(2, m)

    def test_other_errors_stop_the_run(self, monkeypatch):
        def broken_fit_static(*args, **kw):
            raise TypeError("a programming error, not a diverged fit")

        monkeypatch.setattr(sim_mod, "fit_static", broken_fit_static)
        with pytest.raises(TypeError, match="programming error"):
            run_simulation(**self.KWARGS)

    def test_fit_method_rejects_unknown_names(self):
        train = generate_case(1, 100, 0).to_level1()
        for name in ("logistic_m4", "elastic_m1", "dynamic_m1", "z1_only"):
            with pytest.raises(ValueError, match="unknown method"):
                sim_mod.fit_method(name, train, 10, 0)

    def test_fit_method_raises_a_diverged_fit(self, monkeypatch):
        def diverges(*args):
            raise ConvergenceError("separable")

        monkeypatch.setattr(sim_mod, "fit_static", diverges)
        train = generate_case(1, 100, 0).to_level1()
        with pytest.raises(ConvergenceError, match="separable"):
            sim_mod.fit_method("logistic_m2", train, 3, 0)

    def test_fit_method_at_a_fixed_strength_runs_no_cross_validation(self, monkeypatch):
        monkeypatch.setattr(stacking, "select_strength", None)  # a call would raise
        monkeypatch.setattr(sim_mod, "select_lambda", None)
        train = generate_case(2, 200, 0).to_level1()
        for name, strength in (("ridge_m2", 0.5), ("lasso_m3", 0.01), ("dynamic", 1.0)):
            model, report = sim_mod.fit_method(name, train, 3, 0, strength=strength)
            assert report is None and model.strength == strength
        model, report = sim_mod.fit_method("logistic_m1", train, 3, 0)
        assert report is None and model.strength == 0.0

    def test_parse_method_gives_design_and_penalty(self):
        got = [sim_mod.parse_method(m) for m in ("dynamic", "logistic_m1", "lasso_m2", "ridge_m3")]
        assert got == [("dynamic", "curvature"), ("m1", "none"), ("m2", "lasso"), ("m3", "ridge")]
        for name in ("logistic_m4", "elastic_m1", "dynamic_m1", "z1_only", "m1"):
            with pytest.raises(ValueError, match="unknown method"):
                sim_mod.parse_method(name)

    def test_both_method_lists_name_the_same_ten_stackers(self):
        # reports list their rows in these orders: the simulation design-major,
        # the graph experiment dynamic first and then kind-major
        from dynstack.experiment import METHODS as LEVEL1_METHODS

        assert METHODS == (
            "random", "z1_only", "z2_only",
            "logistic_m1", "lasso_m1", "ridge_m1",
            "logistic_m2", "lasso_m2", "ridge_m2",
            "logistic_m3", "lasso_m3", "ridge_m3",
            "dynamic",
        )
        assert LEVEL1_METHODS == (
            "dynamic",
            "logistic_m1", "logistic_m2", "logistic_m3",
            "lasso_m1", "lasso_m2", "lasso_m3",
            "ridge_m1", "ridge_m2", "ridge_m3",
        )
        assert sorted(LEVEL1_METHODS) == sorted(METHODS[3:])
        assert len({sim_mod.parse_method(m) for m in LEVEL1_METHODS}) == 10
