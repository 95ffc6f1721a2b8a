import numpy as np
import pytest

from dynstack.graph import (
    Graph,
    GraphParseError,
    SplitSpec,
    attach_labels,
    closeness_centrality,
    degree,
    largest_connected_component,
    parse_edge_list,
    read_label_file,
    split_nodes,
)

from conftest import random_graph
from oracles import connected_component_sets


class TestParseEdgeList:
    def test_minimal_path(self):
        g = parse_edge_list(["a b", "b c"])
        assert g.n_nodes == 3 and g.n_edges == 2
        _, w = g.neighbors(0)
        assert np.all(w == 1.0)

    def test_repeated_pair_merges_weights(self):
        g = parse_edge_list(["a b 2", "b a 3"])
        assert g.n_nodes == 2 and g.n_edges == 1
        nbrs, w = g.neighbors(0)
        assert nbrs.tolist() == [1] and w.tolist() == [5.0]

    def test_self_loop_rejected(self):
        with pytest.raises(GraphParseError, match="line 1"):
            parse_edge_list(["a a"])

    def test_malformed_lines(self):
        with pytest.raises(GraphParseError, match="line 2"):
            parse_edge_list(["a b", "a"])
        with pytest.raises(GraphParseError, match="non-numeric"):
            parse_edge_list(["a b x"])
        with pytest.raises(GraphParseError, match="weight"):
            parse_edge_list(["a b -1"])

    def test_comments_and_blanks_skipped(self):
        g = parse_edge_list(["# header", "", "a b", "  ", "# a c"])
        assert g.n_nodes == 2 and g.n_edges == 1

    def test_first_seen_id_order(self):
        g = parse_edge_list(["x y", "a x"])
        assert g.node_ids == ["x", "y", "a"]

    def test_symmetry_and_degree_sum(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            g = random_graph(rng, int(rng.integers(2, 12)))
            adj = g.adjacency().toarray()
            np.testing.assert_array_equal(adj, adj.T)
            assert degree(g).values.sum() == 2 * g.n_edges


def dict_merge_reference(n, edges):
    """CSR arrays of the merged adjacency, built edge by edge through a dict."""
    merged = {}
    for i, j, w in edges:
        key = (min(i, j), max(i, j))
        merged[key] = merged.get(key, 0.0) + w
    rows = [{} for _ in range(n)]
    for (i, j), w in merged.items():
        rows[i][j] = rows[j][i] = w
    indptr = np.cumsum([0] + [len(r) for r in rows])
    indices = [j for r in rows for j in sorted(r)]
    data = [r[j] for r in rows for j in sorted(r)]
    return indptr, np.array(indices, dtype=np.int64), np.array(data)


class TestBuild:
    def test_matches_dict_merge_reference(self):
        rng = np.random.default_rng(8)
        most_parallel = 0
        for _ in range(40):
            n = int(rng.integers(2, 15))
            edges = []
            for _ in range(int(rng.integers(1, 3 * n))):
                i, j = (int(v) for v in rng.choice(n, 2, replace=False))
                copies = int(rng.integers(1, 5))
                most_parallel = max(most_parallel, copies)
                for _ in range(copies):  # either direction, zero or fractional weights
                    w = float(rng.choice([0.0, 1.0, rng.uniform(0.0, 3.0)]))
                    edges.append((i, j, w) if rng.uniform() < 0.5 else (j, i, w))
            edges = [edges[k] for k in rng.permutation(len(edges))]
            adj = Graph.build([f"v{k}" for k in range(n)], edges).adjacency()
            indptr, indices, data = dict_merge_reference(n, edges)
            np.testing.assert_array_equal(adj.indptr, indptr)
            np.testing.assert_array_equal(adj.indices, indices)
            np.testing.assert_allclose(adj.data, data, rtol=1e-15)
            assert (adj != adj.T).nnz == 0
        assert most_parallel >= 3

    def test_zero_weight_edge_survives_subgraph_and_lcc(self):
        g = parse_edge_list(["a b 1", "b c 1", "a c 0", "d e 1"])
        for h in (g.subgraph([0, 1, 2]), largest_connected_component(g)):
            assert h.node_ids == ["a", "b", "c"]
            nbrs, w = h.neighbors(0)
            assert nbrs.tolist() == [1, 2] and w.tolist() == [1.0, 0.0]
            np.testing.assert_array_equal(degree(h).values, [2.0, 2.0, 2.0])

    @pytest.mark.parametrize(
        "edge,message",
        [
            ((2, 2, 1.0), r"edges\[1\] = \(2, 2, 1\) is a self-loop"),
            ((0, 3, 1.0), r"edges\[1\] = \(0, 3, 1\) is out of range for 3 nodes"),
            ((-1, 2, 1.0), r"edges\[1\] = \(-1, 2, 1\) is out of range"),
            ((1, 2, -0.5), r"edges\[1\] = \(1, 2, -0.5\) is negatively weighted"),
        ],
        ids=["self-loop", "index too large", "negative index", "negative weight"],
    )
    def test_bad_edge_rejected_by_position(self, edge, message):
        # edges[2] is bad as well; the first bad edge is the one named
        with pytest.raises(GraphParseError, match=message):
            Graph.build(["a", "b", "c"], [(0, 1, 1.0), edge, (1, 1, -1.0)])


class TestAttachLabels:
    def test_basic_vocabulary(self):
        g = parse_edge_list(["a b", "b c"])
        lg = attach_labels(g, [("a", "X"), ("b", "Y")])
        assert lg.class_count == 2
        assert lg.labels.tolist() == [0, 1, -1]

    def test_duplicate_consistent_ok(self):
        g = parse_edge_list(["a b"])
        lg = attach_labels(g, [("a", "X"), ("a", "X")])
        assert lg.labels[0] == 0

    def test_duplicate_conflicting_rejected(self):
        g = parse_edge_list(["a b"])
        with pytest.raises(GraphParseError, match="conflicting"):
            attach_labels(g, [("a", "X"), ("a", "Y")])

    def test_unknown_node_rejected(self):
        g = parse_edge_list(["a b"])
        with pytest.raises(GraphParseError, match="unknown"):
            attach_labels(g, [("z", "X")])


class TestReadLabelFile:
    def test_header_tolerated(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("node_id,label\na,X\n\nb,Y\n")
        assert read_label_file(path) == [("a", "X"), ("b", "Y")]

    def test_bad_row_names_file_and_line(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("a,X\n\nb,Y,extra\n")
        with pytest.raises(GraphParseError, match=r"labels.csv line 3: expected node_id,label"):
            read_label_file(path)


class TestLargestConnectedComponent:
    def test_picks_larger(self):
        g = parse_edge_list(["a b", "b c", "d e"])
        lcc = largest_connected_component(g)
        assert sorted(lcc.node_ids) == ["a", "b", "c"]

    def test_connected_graph_identity(self, k4):
        lcc = largest_connected_component(k4)
        assert lcc.node_ids == k4.node_ids
        np.testing.assert_array_equal(lcc.adjacency().toarray(), k4.adjacency().toarray())

    def test_tie_goes_to_smallest_node_index(self):
        # components {0,1} and {2,3}: both size 2
        g = parse_edge_list(["a b", "c d"])
        lcc = largest_connected_component(g)
        assert lcc.node_ids == ["a", "b"]

    def test_idempotent(self):
        g = parse_edge_list(["a b", "b c", "d e", "f g"])
        once = largest_connected_component(g)
        twice = largest_connected_component(once)
        assert once.node_ids == twice.node_ids

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            largest_connected_component(parse_edge_list([]))

    def test_against_exhaustive_enumeration(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            g = random_graph(rng, int(rng.integers(2, 14)), edge_prob=0.15)
            edges = []
            for i in range(g.n_nodes):
                nbrs, _ = g.neighbors(i)
                edges += [(i, j) for j in nbrs if i < j]
            comps = connected_component_sets(g.n_nodes, edges)
            best_size = max(len(c) for c in comps)
            expected = min(
                (c for c in comps if len(c) == best_size), key=min
            )
            lcc = largest_connected_component(g)
            assert sorted(lcc.node_ids) == sorted(g.node_ids[i] for i in expected)


class TestDegree:
    def test_path(self, path3):
        assert degree(path3).values.tolist() == [1.0, 2.0, 1.0]

    def test_isolated_node(self):
        g = parse_edge_list(["a b"]).subgraph([0])
        assert degree(g).values.tolist() == [0.0]

    def test_star_center(self, star5):
        assert degree(star5).values[0] == 5.0


class TestCloseness:
    def test_path_hand_bfs(self, path3):
        # center: 1+1 = 2 -> 1/2; ends: 1+2 = 3 -> 1/3
        np.testing.assert_allclose(
            closeness_centrality(path3).values, [1 / 3, 1 / 2, 1 / 3]
        )

    def test_k4_all_equal(self, k4):
        np.testing.assert_allclose(closeness_centrality(k4).values, [1 / 3] * 4)

    def test_single_node_convention(self):
        g = parse_edge_list(["a b"]).subgraph([0])
        assert closeness_centrality(g).values.tolist() == [0.0]

    def test_disconnected_rejected(self):
        g = parse_edge_list(["a b", "c d"])
        with pytest.raises(ValueError, match="connected"):
            closeness_centrality(g)

    def test_bounds_and_star_equality(self, star5):
        vals = closeness_centrality(star5).values
        n = star5.n_nodes
        assert np.all(vals <= 1 / (n - 1) + 1e-15)
        # the hub is adjacent to everyone: upper bound is attained
        assert vals[0] == pytest.approx(1 / (n - 1))
        assert np.all(vals[1:] < 1 / (n - 1))

    def test_bounds_random_graphs(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            g = largest_connected_component(random_graph(rng, int(rng.integers(3, 12))))
            n = g.n_nodes
            if n < 2:
                continue
            vals = closeness_centrality(g).values
            assert np.all(vals <= 1 / (n - 1) + 1e-15)
            assert np.all(vals >= 1 / ((n - 1) * (n - 1)))  # diameter < n

    def test_ignores_weights(self):
        light = parse_edge_list(["a b 0.1", "b c 10"])
        np.testing.assert_allclose(
            closeness_centrality(light).values, [1 / 3, 1 / 2, 1 / 3]
        )


class TestClosenessAgainstNetworkx:
    """``1 / values`` must be networkx's summed hop distances, exactly."""

    @staticmethod
    def hop_totals(graph):
        nx = pytest.importorskip("networkx")
        g = nx.Graph()
        g.add_nodes_from(range(graph.n_nodes))
        adj = graph.adjacency().tocoo()  # explicit zero-weight edges included
        g.add_edges_from(zip(adj.row.tolist(), adj.col.tolist()))
        return np.array(
            [sum(nx.single_source_shortest_path_length(g, v).values()) for v in g],
            dtype=float,
        )

    def check(self, graph, chunk=512):
        totals = self.hop_totals(graph)
        vals = closeness_centrality(graph, chunk=chunk).values
        np.testing.assert_array_equal(vals, 1.0 / totals)
        np.testing.assert_array_equal(np.rint(1.0 / vals), totals)

    def test_random_connected_graphs(self):
        rng = np.random.default_rng(41)
        for _ in range(12):
            g = largest_connected_component(
                random_graph(rng, int(rng.integers(4, 40)), float(rng.uniform(0.05, 0.4)))
            )
            if g.n_nodes > 1:
                self.check(g)

    def test_zero_weight_bridge_is_one_hop(self):
        g = parse_edge_list(["a b", "b c", "c a", "c x 0", "x y", "y z", "z x"])
        assert g.n_edges == 7
        self.check(g)

    def test_hub_of_degree_300(self):
        # the second hub's 200 leaves form one frontier, so the first hub
        # sees 200 frontier neighbours at once: an 8-bit counter would wrap
        lines = [f"h l{i}" for i in range(300)] + [f"g l{i}" for i in range(200)]
        g = parse_edge_list(lines)
        assert degree(g).values.max() == 300
        self.check(g)

    @pytest.mark.parametrize("chunk", [1, 7, 20, 64])
    def test_chunk_boundaries(self, chunk):
        rng = np.random.default_rng(43)
        g = random_graph(rng, 20, 0.15)
        while largest_connected_component(g).n_nodes < 20:
            g = random_graph(rng, 20, 0.15)
        self.check(g, chunk=chunk)


class TestDegreeAndComponentsAgainstNetworkx:
    """``degree`` and ``largest_connected_component`` match networkx on graphs
    with isolated nodes, zero-weight edges and equal-size components."""

    @staticmethod
    def random_edges(rng, n):
        """Graph.build triples over ``n`` nodes; about a third weigh 0."""
        edges = []
        for _ in range(int(rng.integers(0, 2 * n))):
            i, j = (int(v) for v in rng.choice(n, 2, replace=False))
            edges.append((i, j, float(rng.choice([0.0, rng.uniform(0.1, 3.0)]))))
        return edges

    def cases(self):
        rng = np.random.default_rng(47)
        for _ in range(30):
            k = int(rng.integers(2, 12))
            edges = self.random_edges(rng, k)
            if rng.uniform() < 0.5:
                # a shifted copy ties every component size, and the node
                # shuffle below moves which copy holds the smallest index
                edges += [(i + k, j + k, w) for i, j, w in edges]
                k *= 2
            n = k + int(rng.integers(0, 4))  # trailing isolated nodes
            perm = rng.permutation(n)
            edges = [(int(perm[i]), int(perm[j]), w) for i, j, w in edges]
            yield n, edges, Graph.build([f"v{i}" for i in range(n)], edges)

    @staticmethod
    def networkx_graph(n, edges):
        nx = pytest.importorskip("networkx")
        g = nx.Graph()
        g.add_nodes_from(range(n))
        g.add_edges_from((i, j) for i, j, _ in edges)
        return nx, g

    def test_degree(self):
        isolated = zero_weight = 0
        for n, edges, graph in self.cases():
            _, g = self.networkx_graph(n, edges)
            want = [g.degree(v) for v in range(n)]
            np.testing.assert_array_equal(degree(graph).values, want)
            isolated += want.count(0)
            zero_weight += sum(w == 0.0 for _, _, w in edges)
        assert isolated > 0 and zero_weight > 0

    def test_largest_connected_component(self):
        ties = 0
        for n, edges, graph in self.cases():
            nx, g = self.networkx_graph(n, edges)
            comps = list(nx.connected_components(g))
            size = max(len(c) for c in comps)
            tied = [c for c in comps if len(c) == size]
            ties += len(tied) > 1
            want = sorted(min(tied, key=min))
            lcc = largest_connected_component(graph)
            assert lcc.node_ids == [graph.node_ids[i] for i in want]
            # the induced edges, zero-weight ones included
            sub = g.subgraph(want)
            assert lcc.n_edges == sub.number_of_edges()
            np.testing.assert_array_equal(degree(lcc).values, [sub.degree(v) for v in want])
        assert ties > 5


class TestSplitNodes:
    def _labeled(self, n, seed=0):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, n, 0.5)
        return attach_labels(g, [(nid, "AB"[i % 2]) for i, nid in enumerate(g.node_ids)])

    def test_sizes_and_determinism(self):
        g = self._labeled(10)
        spec = SplitSpec(0.8, 99)
        train, test = split_nodes(g, spec)
        assert len(test) == 8 and len(train) == 2
        train2, test2 = split_nodes(g, spec)
        np.testing.assert_array_equal(train, train2)
        np.testing.assert_array_equal(test, test2)

    def test_disjoint_exhaustive(self):
        g = self._labeled(23, seed=1)
        train, test = split_nodes(g, SplitSpec(0.4, 3))
        combined = np.sort(np.r_[train, test])
        np.testing.assert_array_equal(combined, np.arange(g.n_nodes))

    def test_different_seeds_differ(self):
        g = self._labeled(30, seed=2)
        _, t1 = split_nodes(g, SplitSpec(0.5, 1))
        _, t2 = split_nodes(g, SplitSpec(0.5, 2))
        assert not np.array_equal(t1, t2)

    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            SplitSpec(1.0, 0)
        with pytest.raises(ValueError):
            SplitSpec(0.0, 0)

    def test_requires_labels(self, path3):
        with pytest.raises(ValueError, match="labeled"):
            split_nodes(path3, SplitSpec(0.5, 0))

    def test_mask_labels_copy(self):
        g = self._labeled(8, seed=4)
        train, test = split_nodes(g, SplitSpec(0.5, 7))
        masked = g.mask_labels(test)
        assert np.all(masked.labels[test] == -1)
        np.testing.assert_array_equal(masked.labels[train], g.labels[train])
        assert np.all(g.labels >= 0)  # original untouched
