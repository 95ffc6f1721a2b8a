import pickle
from itertools import combinations

import numpy as np
import pytest

from dynstack.graph import Graph, attach_labels, parse_edge_list
from dynstack.relational import IcaConfig, ica_run

from conftest import random_graph
from oracles import (
    LabelState,
    direct_wvrn,
    ica_exact_reference,
    ica_reference,
    neighbors,
    wvrn_estimate,
)


def state_from(graph, dists: dict):
    probs = np.zeros((graph.n_nodes, graph.class_count))
    known = np.zeros(graph.n_nodes, dtype=bool)
    for i, d in dists.items():
        probs[i] = d
        known[i] = True
    return LabelState(probs, known)


class TestWvrnEstimate:
    def test_two_unit_neighbors_symmetric(self):
        g = attach_labels(parse_edge_list(["t a", "t b"]), [("a", "X"), ("b", "Y")])
        s = state_from(g, {1: [1, 0], 2: [0, 1]})
        np.testing.assert_allclose(wvrn_estimate(g, 0, s), [0.5, 0.5])

    def test_weighted_neighbors(self):
        # weights 3 and 1 on opposite point masses -> (0.75, 0.25)
        g = attach_labels(parse_edge_list(["t a 3", "t b 1"]), [("a", "X"), ("b", "Y")])
        s = state_from(g, {1: [1, 0], 2: [0, 1]})
        np.testing.assert_allclose(wvrn_estimate(g, 0, s), [0.75, 0.25])

    def test_all_null_neighbors(self):
        g = attach_labels(parse_edge_list(["t a", "t b"]), [("a", "X"), ("b", "Y")])
        s = state_from(g, {})
        assert wvrn_estimate(g, 0, s) is None

    def test_no_neighbors(self):
        g = attach_labels(parse_edge_list(["a b"]), [("a", "X"), ("b", "Y")])
        iso = g.subgraph([0])
        assert wvrn_estimate(iso, 0, state_from(iso, {})) is None

    def test_zero_weight_edges_carry_no_evidence(self):
        g = attach_labels(parse_edge_list(["t a 0"]), [("a", "X"), ("t", "Y")])
        s = state_from(g, {g.node_ids.index("a"): [1, 0]})
        assert wvrn_estimate(g, g.node_ids.index("t"), s) is None

    def test_convex_combination_on_random_graphs(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            g = random_graph(rng, int(rng.integers(2, 9)))
            c = 3
            g = Graph.build(
                g.node_ids,
                [
                    (i, j, w)
                    for i in range(g.n_nodes)
                    for j, w in zip(*neighbors(g, i))
                    if i < j
                ],
                class_names=[f"c{k}" for k in range(c)],
            )
            dists = {}
            for i in range(g.n_nodes):
                if rng.uniform() < 0.7:
                    p = rng.dirichlet(np.ones(c))
                    dists[i] = p
            s = state_from(g, dists)
            for i in range(g.n_nodes):
                est = wvrn_estimate(g, i, s)
                nbrs, _ = neighbors(g, i)
                known_nbrs = [j for j in nbrs if j in dists]
                if not known_nbrs:
                    assert est is None
                    continue
                np.testing.assert_allclose(est.sum(), 1.0, atol=1e-9)
                stack = np.vstack([dists[j] for j in known_nbrs])
                assert np.all(est >= stack.min(axis=0) - 1e-12)
                assert np.all(est <= stack.max(axis=0) + 1e-12)

    def test_edge_weight_scaling_invariance(self):
        rng = np.random.default_rng(23)
        g = random_graph(rng, 8)
        labels = [(nid, "XY"[i % 2]) for i, nid in enumerate(g.node_ids)]
        g1 = attach_labels(g, labels)
        scaled = Graph.build(
            g1.node_ids,
            [
                (i, j, got * 17.5)
                for i in range(g1.n_nodes)
                for j, got in zip(*neighbors(g1, i))
                if i < j
            ],
            labels=g1.labels,
            class_names=g1.class_names,
        )
        dists = {i: [1.0, 0.0] if i % 2 else [0.3, 0.7] for i in range(0, 8, 2)}
        s1, s2 = state_from(g1, dists), state_from(scaled, dists)
        for i in range(g1.n_nodes):
            a, b = wvrn_estimate(g1, i, s1), wvrn_estimate(scaled, i, s2)
            if a is None:
                assert b is None
            else:
                np.testing.assert_allclose(a, b, atol=1e-12)

    def test_exhaustive_small_graphs_against_direct_rule(self):
        # every graph on up to 5 nodes, two classes, seeded random states
        rng = np.random.default_rng(99)
        checked = 0
        for n in range(1, 6):
            pairs = list(combinations(range(n), 2))
            for mask in range(2 ** len(pairs)):
                edges = [
                    (a, b, float(1 + (mask >> k) % 3))
                    for k, (a, b) in enumerate(pairs)
                    if mask & (1 << k)
                ]
                g = Graph.build([f"n{i}" for i in range(n)], edges, class_names=["a", "b"])
                adjacency = {
                    i: dict(zip(*(arr.tolist() for arr in neighbors(g, i))))
                    for i in range(n)
                }
                dists = {}
                for i in range(n):
                    if rng.uniform() < 0.6:
                        p = float(rng.uniform())
                        dists[i] = [p, 1.0 - p]
                s = state_from(g, dists)
                for i in range(n):
                    expected = direct_wvrn(adjacency, i, dists)
                    got = wvrn_estimate(g, i, s)
                    if expected is None:
                        assert got is None
                    else:
                        np.testing.assert_allclose(got, expected, atol=1e-12)
                    checked += 1
        assert checked > 5000


class TestIcaRun:
    def test_unanimous_neighborhood_first_sweep(self):
        g = attach_labels(
            parse_edge_list(["t a", "a b"]), [("a", "X"), ("b", "X")]
        )
        labels = g.labels.copy()
        labels[0] = -1
        res = ica_run(g, labels, IcaConfig(order_seed=1))
        assert res.hard_labels[0] == g.labels[1]
        assert res.converged and res.n_sweeps <= 2

    def test_isolated_test_node_reports_uniform_flagged(self):
        g = attach_labels(parse_edge_list(["a b", "c d"]), [("a", "X"), ("b", "Y"), ("d", "Y")])
        # node 'c' (index 2) is only connected to 'd'... use a real isolate instead
        g2 = g.subgraph([0, 1, 2])  # drops d, leaving c isolated
        labels = g2.labels.copy()
        idx_c = g2.node_ids.index("c")
        labels[idx_c] = -1
        res = ica_run(g2, labels, IcaConfig())
        assert res.was_null[idx_c]
        np.testing.assert_allclose(res.probs[idx_c], [0.5, 0.5])

    def test_four_cycle_deterministic(self):
        g = attach_labels(
            parse_edge_list(["a b", "b c", "c d", "d a"]),
            [("a", "X"), ("c", "Y")],
        )
        labels = g.labels.copy()
        # b and d unobserved; both see one X and one Y -> tie -> class 0
        cfg = IcaConfig(order_seed=42)
        res1 = ica_run(g, labels, cfg)
        res2 = ica_run(g, labels, cfg)
        np.testing.assert_array_equal(res1.hard_labels, res2.hard_labels)
        np.testing.assert_array_equal(res1.probs, res2.probs)
        for nid in ("b", "d"):
            i = g.node_ids.index(nid)
            assert res1.hard_labels[i] == 0
            np.testing.assert_allclose(res1.probs[i], [0.5, 0.5])

    def test_requires_observed_nodes(self, path3):
        g = attach_labels(path3, [("a", "X")])
        labels = np.full(3, -1)
        with pytest.raises(ValueError, match="observed"):
            ica_run(g, labels, IcaConfig())

    def test_determinism_across_runs_on_random_graph(self):
        rng = np.random.default_rng(31)
        g = random_graph(rng, 40, 0.12)
        lab_rows = [(nid, "XYZ"[i % 3]) for i, nid in enumerate(g.node_ids)]
        g = attach_labels(g, lab_rows)
        labels = g.labels.copy()
        labels[rng.permutation(40)[:30]] = -1
        a = ica_run(g, labels, IcaConfig(order_seed=7))
        b = ica_run(g, labels, IcaConfig(order_seed=7))
        np.testing.assert_array_equal(a.hard_labels, b.hard_labels)
        np.testing.assert_array_equal(a.probs, b.probs)
        assert a.n_sweeps == b.n_sweeps

    def test_halts_within_iteration_cap(self):
        rng = np.random.default_rng(37)
        g = random_graph(rng, 30, 0.15)
        g = attach_labels(g, [(nid, "XY"[i % 2]) for i, nid in enumerate(g.node_ids)])
        labels = g.labels.copy()
        labels[rng.permutation(30)[:24]] = -1
        cfg = IcaConfig(max_iterations=3, order_seed=0)
        res = ica_run(g, labels, cfg)
        assert res.n_sweeps <= 3

    def test_observed_nodes_keep_point_mass(self):
        g = attach_labels(parse_edge_list(["a b", "b c"]), [("a", "X"), ("c", "Y")])
        labels = g.labels.copy()
        res = ica_run(g, labels, IcaConfig())
        i_a, i_c = g.node_ids.index("a"), g.node_ids.index("c")
        np.testing.assert_array_equal(res.probs[i_a], [1.0, 0.0])
        np.testing.assert_array_equal(res.probs[i_c], [0.0, 1.0])

    def test_soft_pass_uses_terminal_states(self):
        # hand-run of the sweep: whichever of t, b goes first, b ends up
        # tied between X and Y and takes class 0 (X); t then sees two X
        # neighbors. The soft pass re-averages from those terminal states,
        # so b reports (0.5, 0.5) even though its hard label is X.
        g = attach_labels(
            parse_edge_list(["t a", "t b", "b y"]),
            [("a", "X"), ("y", "Y")],
        )
        res = ica_run(g, g.labels, IcaConfig(order_seed=0))
        i_t, i_b = g.node_ids.index("t"), g.node_ids.index("b")
        assert res.hard_labels[i_b] == 0
        np.testing.assert_allclose(res.probs[i_t], [1.0, 0.0])
        np.testing.assert_allclose(res.probs[i_b], [0.5, 0.5])


ALL_OUTCOMES = {(False, False), (False, True), (True, False), (True, True)}


def fractional_weight(rng):
    return float(rng.choice([0.0, rng.uniform(0.1, 3.0), 1.0], p=[0.15, 0.7, 0.15]))


class TestIcaAgainstReference:
    @staticmethod
    def random_case(rng, weight=fractional_weight):
        """Random graph with ``weight(rng)`` edge weights and isolated nodes."""
        n = int(rng.integers(8, 40))
        iso = rng.uniform(size=n) < 0.1
        edges = [
            (i, j, weight(rng))
            for i in range(n)
            for j in range(i + 1, n)
            if not (iso[i] or iso[j]) and rng.uniform() < 0.15
        ]
        c = int(rng.integers(2, 5))
        truth = rng.integers(0, c, size=n)
        g = Graph.build([f"v{i}" for i in range(n)], edges, truth, "WXYZ"[:c])
        labels = truth.copy()
        labels[rng.uniform(size=n) < rng.uniform(0.3, 0.9)] = -1
        k = int(rng.integers(n))
        labels[k] = truth[k]  # at least one observed node
        return g, labels

    @staticmethod
    def check(g, labels, cap, order_seed, oracle=ica_reference):
        """Assert ``ica_run`` equals the literal sweep ``oracle``; return its outcome."""
        res = ica_run(g, labels, IcaConfig(max_iterations=cap, order_seed=order_seed))
        probs, hard, was_null, sweeps, converged = oracle(g, labels, cap, order_seed)
        np.testing.assert_array_equal(res.probs, probs)
        np.testing.assert_array_equal(res.hard_labels, hard)
        np.testing.assert_array_equal(res.was_null, was_null)
        assert (res.n_sweeps, res.converged) == (sweeps, converged)
        return converged, bool(was_null.any())

    def test_matches_literal_sweep_bit_for_bit(self):
        # fractional weights: float sums would round differently in each order,
        # so the oracle scores every visit on exact rationals
        rng = np.random.default_rng(47)
        outcomes = set()
        for trial in range(60):
            g, labels = self.random_case(rng)
            cap = (1, 2, 3, 100)[trial % 4]
            outcomes.add(self.check(g, labels, cap, trial, ica_exact_reference))
        # the cases reached every combination of (converged, some null node)
        assert outcomes == ALL_OUTCOMES

    def test_extreme_weights_match_exact_sweep(self):
        # weights 600 orders of magnitude apart: 1e300 swamps 3.0 in any float
        # sum, and 1e-300 makes every weight an integer only times 2**1049
        rng = np.random.default_rng(67)
        outcomes = set()
        for trial in range(40):
            g, labels = self.random_case(rng, lambda r: float(r.choice([1e-300, 0.1, 3.0, 1e300])))
            cap = (1, 2, 3, 100)[trial % 4]
            outcomes.add(self.check(g, labels, cap, trial, ica_exact_reference))
        assert outcomes == ALL_OUTCOMES

    @pytest.mark.parametrize("weights", [(1.0,), (0.0, 1.0, 2.0, 3.0)], ids=["unit", "0-3"])
    def test_integral_weights_match_literal_sweep_bit_for_bit(self, weights):
        # integer sums are exact in float64 too, so the float oracle agrees
        rng = np.random.default_rng(53)
        outcomes = set()
        for trial in range(80):
            g, labels = self.random_case(rng, lambda r: float(r.choice(weights)))
            outcomes.add(self.check(g, labels, (1, 2, 3, 100)[trial % 4], trial))
        assert outcomes == ALL_OUTCOMES

    def test_second_call_reuses_the_neighbour_lists(self):
        # the sweep keeps the graph's plain-list adjacency after its first call;
        # later calls read it back and still match the literal sweep
        rng = np.random.default_rng(59)
        g, labels = self.random_case(rng, lambda r: 1.0)
        first = ica_run(g, labels, IcaConfig(order_seed=3))
        lists = g._lists
        assert lists is not None
        second = ica_run(g, labels, IcaConfig(order_seed=3))
        assert g._lists is lists
        np.testing.assert_array_equal(second.probs, first.probs)
        np.testing.assert_array_equal(second.hard_labels, first.hard_labels)
        np.testing.assert_array_equal(second.was_null, first.was_null)
        assert (second.n_sweeps, second.converged) == (first.n_sweeps, first.converged)
        other = np.where(rng.uniform(size=len(labels)) < 0.5, -1, g.labels)
        other[0] = g.labels[0]
        self.check(g, other, 100, 4)

    def test_graph_with_filled_neighbour_lists_pickles(self):
        # worker processes receive the graph pickled
        g, labels = self.random_case(np.random.default_rng(61), lambda r: 1.0)
        expected = ica_run(g, labels, IcaConfig(order_seed=5))
        clone = pickle.loads(pickle.dumps(g))
        assert clone._lists == g._lists
        got = ica_run(clone, labels, IcaConfig(order_seed=5))
        np.testing.assert_array_equal(got.probs, expected.probs)
        np.testing.assert_array_equal(got.hard_labels, expected.hard_labels)

    def test_weights_summing_past_2_53_stay_exact(self):
        # t sees x and y (weight 1 each; both turn X through p), a (X,
        # 2**53) and b (Y, 2**53 + 2). Summed in neighbour order, X gets
        # 1 + 1 + 2**53 exactly and ties Y; added one commit at a time in
        # float64, each +1 to 2**53 would round away and pick Y.
        big = 2.0**53
        edges = [(4, 0, 1.0), (4, 1, 1.0), (4, 2, big), (4, 3, big + 2), (0, 5, 1.0), (1, 5, 1.0)]
        labels = np.array([-1, -1, 0, 1, -1, 0])
        g = Graph.build(list("xyabtp"), edges, labels, "XY")
        for seed in range(6):
            self.check(g, labels, 100, seed)
        res = ica_run(g, labels, IcaConfig(order_seed=0))
        assert res.hard_labels[4] == 0
        np.testing.assert_array_equal(res.probs[4], [0.5, 0.5])


class TestIcaConfig:
    def test_max_iterations_validated(self):
        with pytest.raises(ValueError):
            IcaConfig(max_iterations=0)
