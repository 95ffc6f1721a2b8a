"""Acceptance suite: one test per release criterion, run at full scale.

Each criterion prints a single PASS/FAIL line (run with ``pytest -s -v``
to see them live). The simulation reproduction runs the complete
50-repetition comparison and takes a few minutes; everything else is
seconds.
"""

import os
from itertools import combinations

import numpy as np
import pytest

from dynstack.graph import Graph
from dynstack.experiment import ExperimentConfig, run_graph_experiment
from dynstack.metrics import accuracy, binned_accuracy
from dynstack.naive_bayes import parse_feature_file
from dynstack.relational import ica_run
from dynstack.simulation import METHODS, auc, generate_case, run_simulation, sigmoid
from dynstack.splines import (
    assemble_block_penalty,
    basis_matrix,
    curvature_penalty,
    make_basis,
)
from dynstack.stacking import (
    FitConfig,
    Level1Data,
    coefficient_curves,
    default_basis,
    dynamic_design,
    fit_dynamic,
    fit_static,
    predict,
)
from dynstack.synth import planted_homophily_network

from conftest import random_graph
from oracles import (
    LabelState,
    brute_force_auc,
    dense_penalty_matrix,
    direct_wvrn,
    irls_logistic,
    neighbors,
    wvrn_estimate,
)

WORKERS = min(8, os.cpu_count() or 1)
STATIC_METHODS = [m for m in METHODS if m not in ("random", "z1_only", "z2_only", "dynamic")]

RESULTS: list[str] = []  # echoed by the terminal-summary hook in conftest


def report(number: int, name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    line = f"ACCEPTANCE {number} {name}: {status}"
    if detail:
        line += f"  [{detail}]"
    RESULTS.append(line)
    print("\n" + line, flush=True)
    assert passed, line


class TestCriterion1TableReproduction:
    def test_table1(self):
        table = run_simulation(
            cases=(1, 2, 3), methods=METHODS, n=2000, reps=50, seed=20240, threads=WORKERS
        )
        mean = lambda case, m: table.cell(case, m).mean_auc
        checks = {
            "case1 dynamic in 0.75 +/- 0.03": abs(mean(1, "dynamic") - 0.75) <= 0.03,
            "case1 dynamic within 0.02 of logistic_m1": abs(
                mean(1, "dynamic") - mean(1, "logistic_m1")
            ) <= 0.02,
            "case2 dynamic in 0.73 +/- 0.03": abs(mean(2, "dynamic") - 0.73) <= 0.03,
            "case3 dynamic in 0.79 +/- 0.03": abs(mean(3, "dynamic") - 0.79) <= 0.03,
            "case3 dynamic beats every static mean": all(
                mean(3, "dynamic") > mean(3, m) for m in STATIC_METHODS
            ),
            "case3 logistic_m1 in 0.67 +/- 0.03": abs(mean(3, "logistic_m1") - 0.67) <= 0.03,
            "case3 logistic_m3 in 0.76 +/- 0.03": abs(mean(3, "logistic_m3") - 0.76) <= 0.03,
            "case1 z2_only in 0.68 +/- 0.03": abs(mean(1, "z2_only") - 0.68) <= 0.03,
            "all repetitions completed": table.complete,
        }
        detail = (
            f"c1dyn={mean(1, 'dynamic'):.3f}"
            f", c2dyn={mean(2, 'dynamic'):.3f}, c3dyn={mean(3, 'dynamic'):.3f}"
            f", c3log1={mean(3, 'logistic_m1'):.3f}, c3log3={mean(3, 'logistic_m3'):.3f}"
            f", c1z2={mean(1, 'z2_only'):.3f}"
        )
        failed = [k for k, ok in checks.items() if not ok]
        report(1, "simulation table reproduction", not failed, detail + (
            f"; failed: {failed}" if failed else ""
        ))


class TestCriterion2PenaltyLimit:
    def test_lambda_infinity_linearizes(self):
        data = generate_case(3, 2000, 77).to_level1()
        model = fit_dynamic(data, 1e12, default_basis(data.u))
        grid = np.linspace(model.basis.u_lo, model.basis.u_hi, 200)
        worst = np.abs(np.diff(coefficient_curves(model, grid), 2, axis=0)).max()
        report(2, "penalty-limit linearization", worst < 1e-3, f"max second diff {worst:.2e}")


class TestCriterion3NestingEquivalence:
    def test_constant_basis_matches_logistic_and_oracle(self):
        cfg = FitConfig(newton_tol=1e-12)
        worst_pred, worst_coef = 0.0, 0.0
        for seed in range(10):
            rng = np.random.default_rng(5000 + seed)
            n = 250
            z = rng.uniform(0, 1, (n, 2))
            u = rng.uniform(0, 1, n)
            y = (rng.uniform(0, 1, n) < sigmoid(2.5 * (z.sum(axis=1) - 1.0))).astype(int)
            data = Level1Data(y, z, u, ["z1", "z2"])
            basis = make_basis(u.min(), u.max(), 0, 0)  # K = 1 constant
            dyn = fit_dynamic(data, 0.0, basis, cfg)
            stat = fit_static(data, "m1", "none", config=cfg)
            worst_pred = max(
                worst_pred,
                float(np.abs(predict(dyn, z, u) - predict(stat, z, u)).max()),
            )
            oracle = irls_logistic(np.hstack([np.ones((n, 1)), z]), y.astype(float))
            worst_coef = max(worst_coef, float(np.abs(stat.coef - oracle).max()))
        ok = worst_pred < 1e-6 and worst_coef < 1e-6
        report(
            3,
            "constant-basis nesting and IRLS oracle",
            ok,
            f"max pred diff {worst_pred:.2e}, max coef diff {worst_coef:.2e}",
        )


class TestCriterion4NumericalSoundness:
    def test_gradient_monotonicity_penalty_and_basis(self):
        # analytic gradient vs central differences, 5 datasets x 20 points
        worst_rel = 0.0
        for seed in range(5):
            rng = np.random.default_rng(900 + seed)
            n = 180
            z = rng.uniform(0, 1, (n, 2))
            u = rng.uniform(0, 1, n)
            y = rng.integers(0, 2, n)
            data = Level1Data(y, z, u, ["z1", "z2"])
            basis = default_basis(u, interior_knots=4)
            lam = 1.3
            pen = lam * assemble_block_penalty(curvature_penalty(basis), 2)
            x = dynamic_design(z, u, basis)

            def objective(b):
                eta = x @ b
                return float(np.sum(np.logaddexp(0.0, eta) - y * eta) + b @ pen @ b)

            for _ in range(20):
                b = rng.normal(0, 0.25, x.shape[1])
                mu = sigmoid(x @ b)
                g = -(x.T @ (y - mu)) + 2 * pen @ b
                fd = np.empty_like(b)
                for k in range(len(b)):
                    e = np.zeros_like(b)
                    e[k] = 1e-6
                    fd[k] = (objective(b + e) - objective(b - e)) / 2e-6
                worst_rel = max(worst_rel, np.abs(g - fd).max() / (1 + np.abs(g).max()))
        grad_ok = worst_rel < 1e-5

        # Newton path never increases
        mono_ok = True
        for lam in (0.0, 0.5, 50.0, 1e12):
            data = generate_case(3, 700, 13).to_level1()
            model = fit_dynamic(data, lam, default_basis(data.u))
            mono_ok &= bool(np.all(np.diff(model.objective_path) <= 0.0))

        # penalty matrix: PSD and equal to the dense quadrature oracle
        pen_ok = True
        for basis in (make_basis(0, 1, 0, 3), make_basis(0, 1, 6, 3), make_basis(-2, 3, 4, 3)):
            h = curvature_penalty(basis)
            pen_ok &= np.linalg.eigvalsh(h).min() >= -1e-10
            pen_ok &= bool(np.abs(h - dense_penalty_matrix(basis)).max() < 1e-8)

        # partition of unity on 1000 random points
        basis = make_basis(-1.0, 2.0, 6, 3)
        pts = np.random.default_rng(4).uniform(-1, 2, 1000)
        pou = float(np.abs(basis_matrix(basis, pts).sum(axis=1) - 1.0).max())
        pou_ok = pou < 1e-12

        ok = grad_ok and mono_ok and pen_ok and pou_ok
        report(
            4,
            "numerical soundness suite",
            ok,
            f"grad rel {worst_rel:.2e}, monotone {mono_ok}, penalty {pen_ok}, unity {pou:.1e}",
        )


class TestCriterion5RelationalSuite:
    def test_wvrn_and_ica_properties(self):
        rng = np.random.default_rng(321)

        # convex combination on 100 random graphs
        convex_ok = True
        for _ in range(100):
            g = random_graph(rng, int(rng.integers(2, 9)))
            c = int(rng.integers(2, 4))
            g = Graph.build(
                g.node_ids,
                [
                    (i, j, w)
                    for i in range(g.n_nodes)
                    for j, w in zip(*neighbors(g, i))
                    if i < j
                ],
            ).with_labels(np.full(g.n_nodes, -1), [f"c{k}" for k in range(c)])
            probs = np.zeros((g.n_nodes, c))
            known = np.zeros(g.n_nodes, dtype=bool)
            for i in range(g.n_nodes):
                if rng.uniform() < 0.7:
                    probs[i] = rng.dirichlet(np.ones(c))
                    known[i] = True
            state = LabelState(probs, known)
            for i in range(g.n_nodes):
                est = wvrn_estimate(g, i, state)
                nbrs, _ = neighbors(g, i)
                kn = [j for j in nbrs if known[j]]
                if not kn:
                    convex_ok &= est is None
                    continue
                stack = probs[kn]
                convex_ok &= bool(
                    np.all(est >= stack.min(axis=0) - 1e-12)
                    and np.all(est <= stack.max(axis=0) + 1e-12)
                )

        # determinism for a fixed seed
        g = random_graph(rng, 35, 0.15)
        from dynstack.graph import attach_labels

        g = attach_labels(g, [(nid, "XY"[i % 2]) for i, nid in enumerate(g.node_ids)])
        labels = g.labels.copy()
        labels[rng.permutation(35)[:28]] = -1
        r1 = ica_run(g, labels, seed=11)
        r2 = ica_run(g, labels, seed=11)
        det_ok = bool(
            np.array_equal(r1.hard_labels, r2.hard_labels)
            and np.array_equal(r1.probs, r2.probs)
        )

        # unanimous labeled neighborhoods resolve in the first sweep
        from dynstack.graph import parse_edge_list

        ug = attach_labels(
            parse_edge_list(["t1 a", "t1 b", "t2 b", "t2 c"]),
            [("a", "X"), ("b", "X"), ("c", "X")],
        )
        ur = ica_run(ug, ug.labels, seed=0)
        unam_ok = bool(
            all(ur.hard_labels[ug.node_ids.index(t)] == 0 for t in ("t1", "t2"))
        )

        # exhaustive graphs on <= 5 nodes, C = 2, vs the direct rule
        brute_ok = True
        srng = np.random.default_rng(777)
        for n in range(1, 6):
            pairs = list(combinations(range(n), 2))
            for mask in range(2 ** len(pairs)):
                edges = [
                    (a, b, float(1 + (mask >> k) % 2))
                    for k, (a, b) in enumerate(pairs)
                    if mask & (1 << k)
                ]
                g = Graph.build([f"n{i}" for i in range(n)], edges).with_labels(
                    np.full(n, -1), ["a", "b"]
                )
                adjacency = {
                    i: dict(zip(*(arr.tolist() for arr in neighbors(g, i))))
                    for i in range(n)
                }
                dists = {}
                probs = np.zeros((n, 2))
                known = np.zeros(n, dtype=bool)
                for i in range(n):
                    if srng.uniform() < 0.6:
                        p = float(srng.uniform())
                        dists[i] = [p, 1 - p]
                        probs[i] = dists[i]
                        known[i] = True
                state = LabelState(probs, known)
                for i in range(n):
                    expected = direct_wvrn(adjacency, i, dists)
                    got = wvrn_estimate(g, i, state)
                    if expected is None:
                        brute_ok &= got is None
                    else:
                        brute_ok &= bool(np.abs(got - expected).max() < 1e-12)

        ok = convex_ok and det_ok and unam_ok and brute_ok
        report(
            5,
            "relational classifier suite",
            ok,
            f"convex {convex_ok}, deterministic {det_ok}, unanimous {unam_ok}, brute force {brute_ok}",
        )


class TestCriterion6AucOracle:
    def test_rank_auc_equals_brute_force(self):
        rng = np.random.default_rng(55)
        worst = 0.0
        for _ in range(1000):
            n = int(rng.integers(2, 51))
            labels = rng.integers(0, 2, n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            if rng.uniform() < 0.5:
                scores = rng.choice([0.0, 0.2, 0.5, 0.8], n)
            else:
                scores = rng.normal(0, 1, n)
            worst = max(worst, abs(auc(scores, labels) - brute_force_auc(scores, labels)))
        report(6, "rank AUC vs all-pairs oracle", worst < 1e-12, f"max diff {worst:.1e}")


class TestCriterion7MetricsConsistency:
    def test_binned_accuracy_weighted_mean(self):
        rng = np.random.default_rng(66)
        worst = 0.0
        for _ in range(50):
            n = int(rng.integers(5, 400))
            pred = rng.uniform(0, 1, n)
            truth = rng.integers(0, 2, n)
            vals = rng.normal(0, 3, n)
            b = binned_accuracy(pred, truth, vals, bins=int(rng.integers(1, 50)))
            ok = b.counts > 0
            weighted = float((b.correct[ok] / b.counts[ok] * b.counts[ok]).sum() / b.counts.sum())
            worst = max(worst, abs(weighted - accuracy(pred, truth)))
        report(7, "binned accuracy consistency", worst < 1e-12, f"max diff {worst:.1e}")


class TestCriterion8GraphPipeline:
    def test_planted_homophily_noninferiority_and_extremes(self):
        net = planted_homophily_network(n_nodes=600, seed=3)
        features = parse_feature_file(net.feature_lines, net.graph.node_ids)
        cfg = ExperimentConfig(
            covariate="degree",
            test_fraction=0.5,
            reps=20,
            folds=10,
            seed=424242,
            threads=WORKERS,
        )
        rep = run_graph_experiment(net.graph, features, "topic/positive", cfg)

        dyn = rep.accuracies["dynamic"].mean()
        stat = rep.accuracies["logistic_m1"].mean()
        noninferior = dyn >= stat - 0.005

        # extreme covariate bins: bottom and top quintile of the degree range
        from dynstack.experiment import binarize_labels, node_covariate

        cov = node_covariate(binarize_labels(net.graph, "topic/positive"), "degree")
        q20, q80 = np.quantile(cov, [0.2, 0.8])
        low = rep.bin_lo <= q20
        high = rep.bin_hi >= q80
        delta = rep.bin_delta_correct["logistic_m1"]
        low_gain = float(delta[low].sum())
        high_gain = float(delta[high].sum())
        extremes_ok = low_gain > 0 and high_gain > 0

        ok = noninferior and extremes_ok
        report(
            8,
            "planted-homophily pipeline (fixture substitute)",
            ok,
            f"dynamic {dyn:.4f} vs logistic {stat:.4f}, "
            f"extreme-bin gains low {low_gain:+.2f} high {high_gain:+.2f} correct/rep",
        )


CORA_ENV = ("DYNSTACK_CORA_EDGES", "DYNSTACK_CORA_LABELS", "DYNSTACK_CORA_FEATURES")


@pytest.mark.skipif(
    not all(os.environ.get(v) for v in CORA_ENV),
    reason="optional real-data reproduction; set DYNSTACK_CORA_* paths to enable",
)
class TestCriterion8RealData:
    def test_cora_reproduction(self):
        from dynstack.graph import attach_labels, parse_edge_list, read_label_file
        from pathlib import Path

        graph = attach_labels(
            parse_edge_list(Path(os.environ[CORA_ENV[0]]).read_text().splitlines()),
            read_label_file(os.environ[CORA_ENV[1]]),
        )
        features = parse_feature_file(
            Path(os.environ[CORA_ENV[2]]).read_text().splitlines(), graph.node_ids
        )
        cfg = ExperimentConfig(
            covariate="closeness", test_fraction=0.8, reps=100, folds=10,
            seed=1, threads=WORKERS,
        )
        rep = run_graph_experiment(
            graph, features, "/Artificial_Intelligence/", cfg
        )
        dyn = rep.accuracies["dynamic"].mean()
        pairwise_ok = all(
            rep.comparisons[m].p_value < 0.01
            for m in ("logistic_m1", "ridge_m1", "lasso_m1")
        )
        report(
            8,
            "Cora real-data reproduction",
            pairwise_ok and abs(dyn - 0.9193) <= 0.01,
            f"dynamic mean {dyn:.4f}",
        )
