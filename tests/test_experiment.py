import numpy as np
import pytest

from dynstack.experiment import (
    ExperimentConfig,
    binarize_labels,
    level0_predictors,
    node_covariate,
    run_graph_experiment,
    run_graph_repetition,
)
from dynstack.graph import attach_labels, parse_edge_list, split_nodes
from dynstack.stacking import FitConfig


def small_cfg(**kw):
    base = dict(
        covariate="degree",
        test_fraction=0.5,
        reps=2,
        folds=5,
        seed=7,
        fit=FitConfig(lambda_grid=np.logspace(-2, 3, 6), cv_folds=5),
    )
    base.update(kw)
    return ExperimentConfig(**base)


class TestBinarize:
    def test_prefix_mapping(self):
        g = attach_labels(
            parse_edge_list(["a b", "b c", "c d"]),
            [("a", "ai/nn"), ("b", "ai/ga"), ("c", "db"), ("d", "os")],
        )
        bg = binarize_labels(g, "ai/")
        assert bg.class_names == ["positive", "negative"]
        assert bg.labels.tolist() == [0, 0, 1, 1]

    def test_no_match_rejected(self):
        g = attach_labels(parse_edge_list(["a b"]), [("a", "x"), ("b", "y")])
        with pytest.raises(ValueError, match="no label class"):
            binarize_labels(g, "zzz")

    def test_all_match_rejected(self):
        g = attach_labels(parse_edge_list(["a b"]), [("a", "x1"), ("b", "x2")])
        with pytest.raises(ValueError, match="every label class"):
            binarize_labels(g, "x")

    def test_unlabeled_stay_unlabeled(self):
        g = attach_labels(parse_edge_list(["a b", "b c"]), [("a", "p"), ("b", "q")])
        bg = binarize_labels(g, "p")
        assert bg.labels.tolist() == [0, 1, -1]


class TestNodeCovariate:
    def test_kinds(self, k4):
        assert node_covariate(k4, "degree").tolist() == [3.0] * 4
        np.testing.assert_allclose(node_covariate(k4, "closeness"), 1 / 3)
        with pytest.raises(ValueError, match="covariate"):
            node_covariate(k4, "betweenness")

    def test_closeness_requires_connected(self):
        g = parse_edge_list(["a b", "c d"])
        with pytest.raises(ValueError, match="connected"):
            node_covariate(g, "closeness")


class TestLevel0Predictors:
    def test_relational_predictor_masks_fold_labels(self, planted_network, planted_features):
        g = binarize_labels(planted_network.graph, "topic/positive")
        train, test = split_nodes(g, 0.5, 3)
        wvrn_ica = level0_predictors(g, planted_features, 0)["wvrn_ica"]
        fit, held = train[: len(train) // 2], train[len(train) // 2 :]
        probs = wvrn_ica(fit, held)
        assert probs.shape == (len(held), 2)
        assert np.all(probs >= 0) and np.all(probs <= 1)

    def test_nb_predictor_round_trip(self, planted_network, planted_features):
        g = binarize_labels(planted_network.graph, "topic/positive")
        local_nb = level0_predictors(g, planted_features, 0)["local_nb"]
        probs = local_nb(np.arange(0, 500), np.arange(500, 600))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)


class TestRepetition:
    def test_repetition_outputs(self, planted_network, planted_features):
        g = binarize_labels(planted_network.graph, "topic/positive")
        cov = node_covariate(g, "degree")
        res = run_graph_repetition(g, planted_features, cov, 1234, small_cfg())
        assert set(res.accuracies) == {"dynamic", *(
            f"{k}_{d}" for k in ("logistic", "lasso", "ridge") for d in ("m1", "m2", "m3")
        )}
        for v in res.accuracies.values():
            assert 0.0 <= v <= 1.0
        assert res.model.p == 2
        assert res.model.columns == ["local_nb:class0", "wvrn_ica:class0"]

    def test_repetition_deterministic(self, planted_network, planted_features):
        g = binarize_labels(planted_network.graph, "topic/positive")
        cov = node_covariate(g, "degree")
        a = run_graph_repetition(g, planted_features, cov, 99, small_cfg())
        b = run_graph_repetition(g, planted_features, cov, 99, small_cfg())
        assert a.accuracies == b.accuracies
        np.testing.assert_array_equal(a.model.coef, b.model.coef)


class TestExperimentDriver:
    def test_report_aggregation(self, planted_network, planted_features):
        rep = run_graph_experiment(
            planted_network.graph, planted_features, "topic/positive", small_cfg()
        )
        assert rep.accuracies["dynamic"].shape == (2,)
        assert set(rep.comparisons) == set(rep.methods) - {"dynamic"}
        for m, c in rep.comparisons.items():
            assert c.mean_diff == pytest.approx(
                rep.accuracies["dynamic"].mean() - rep.accuracies[m].mean()
            )
        # integer-binned deltas over the degree range
        assert rep.bin_lo[0] == node_covariate(
            binarize_labels(planted_network.graph, "topic/positive"), "degree"
        ).min()
        assert rep.model.p == 2
        assert rep.model.columns == ["local_nb:class0", "wvrn_ica:class0"]

    def test_failed_static_fit_drops_method_not_run(
        self, planted_network, planted_features, monkeypatch
    ):
        import dynstack.simulation as sim_mod  # the method table looks fits up here
        from dynstack.stacking import ConvergenceError, fit_static as real_fit_static

        def flaky_fit_static(data, design="m1", penalty="none", **kw):
            if penalty == "none" and design == "m3":
                raise ConvergenceError("separable")
            return real_fit_static(data, design, penalty, **kw)

        monkeypatch.setattr(sim_mod, "fit_static", flaky_fit_static)
        rep = run_graph_experiment(
            planted_network.graph, planted_features, "topic/positive", small_cfg()
        )
        assert np.isnan(rep.accuracies["logistic_m3"]).all()
        assert np.isnan(rep.comparisons["logistic_m3"].mean_diff)
        assert rep.comparisons["logistic_m3"].degenerate
        # everything else is untouched
        assert not np.isnan(rep.accuracies["dynamic"]).any()
        assert not np.isnan(rep.accuracies["ridge_m3"]).any()

    def test_diverged_dynamic_fit_drops_its_repetition(
        self, planted_network, planted_features, monkeypatch
    ):
        import dynstack.simulation as sim_mod
        from dynstack.stacking import ConvergenceError, fit_dynamic as real_fit_dynamic

        clean = run_graph_experiment(
            planted_network.graph, planted_features, "topic/positive", small_cfg()
        )
        calls = []

        def first_fit_diverges(*args, **kw):
            calls.append(1)
            if len(calls) == 1:
                raise ConvergenceError("separable")
            return real_fit_dynamic(*args, **kw)

        monkeypatch.setattr(sim_mod, "fit_dynamic", first_fit_diverges)
        rep = run_graph_experiment(
            planted_network.graph, planted_features, "topic/positive", small_cfg()
        )
        assert np.isnan(rep.accuracies["dynamic"][0])
        assert rep.accuracies["dynamic"][1] == clean.accuracies["dynamic"][1]
        np.testing.assert_array_equal(rep.accuracies["ridge_m3"], clean.accuracies["ridge_m3"])
        # one paired repetition left: every comparison is degenerate
        assert all(c.degenerate for c in rep.comparisons.values())
        assert rep.model.p == 2

        def every_fit_diverges(*args, **kw):
            raise ConvergenceError("separable")

        monkeypatch.setattr(sim_mod, "fit_dynamic", every_fit_diverges)
        with pytest.raises(ConvergenceError, match="every repetition"):
            run_graph_experiment(
                planted_network.graph, planted_features, "topic/positive", small_cfg()
            )

    def test_threads_match_sequential(self, planted_network, planted_features):
        seq = run_graph_experiment(
            planted_network.graph, planted_features, "topic/positive", small_cfg()
        )
        par = run_graph_experiment(
            planted_network.graph, planted_features, "topic/positive",
            small_cfg(threads=2),
        )
        for m in seq.methods:
            np.testing.assert_array_equal(seq.accuracies[m], par.accuracies[m])
