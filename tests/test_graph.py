import csv

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dynstack import graph as graph_module
from dynstack.graph import (
    Graph,
    GraphParseError,
    attach_labels,
    closeness_centrality,
    degree,
    largest_connected_component,
    parse_edge_list,
    read_label_file,
    split_nodes,
)

from conftest import random_graph
from oracles import connected_component_sets, neighbors


class TestParseEdgeList:
    def test_minimal_path(self):
        g = parse_edge_list(["a b", "b c"])
        assert g.n_nodes == 3 and g.n_edges == 2
        _, w = neighbors(g, 0)
        assert np.all(w == 1.0)

    def test_repeated_pair_merges_weights(self):
        g = parse_edge_list(["a b 2", "b a 3"])
        assert g.n_nodes == 2 and g.n_edges == 1
        nbrs, w = neighbors(g, 0)
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

    @pytest.mark.parametrize(
        "lines,message",
        [
            (["a b 1e308", "b a 1e308"], "line 2: the parallel edges between 'a' and 'b'"),
            (
                ["# w", "c d 1e308", "a b 1e308", "", "d c 1e308", "b a 1e308"],
                "line 5: the parallel edges between 'c' and 'd'",
            ),
            (
                ["b c 1e308", "a b 1e308", "c b 1e308", "b a 1e308"],
                "line 3: the parallel edges between 'b' and 'c'",
            ),
        ],
        ids=["second line", "first overflow in file order", "first overflow, later pair first"],
    )
    def test_overflowing_parallel_edges_name_their_line(self, lines, message):
        # the line whose weight takes the pair's sum past the float range
        with pytest.raises(GraphParseError, match=f"^{message} sum to a non-finite weight$"):
            parse_edge_list(lines)

    def test_first_seen_id_order(self):
        g = parse_edge_list(["x y", "a x"])
        assert g.node_ids == ["x", "y", "a"]

    def test_symmetry_and_degree_sum(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            g = random_graph(rng, int(rng.integers(2, 12)))
            adj = g.adjacency().toarray()
            np.testing.assert_array_equal(adj, adj.T)
            assert degree(g).sum() == 2 * g.n_edges


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
            nbrs, w = neighbors(h, 0)
            assert nbrs.tolist() == [1, 2] and w.tolist() == [1.0, 0.0]
            np.testing.assert_array_equal(degree(h), [2.0, 2.0, 2.0])

    @pytest.mark.parametrize(
        "edge,message",
        [
            ((2, 2, 1.0), r"edges\[1\] = \(2, 2, 1\) is a self-loop"),
            ((0, 3, 1.0), r"edges\[1\] = \(0, 3, 1\) is out of range for 3 nodes"),
            ((-1, 2, 1.0), r"edges\[1\] = \(-1, 2, 1\) is out of range"),
            ((1, 2, -0.5), r"edges\[1\] = \(1, 2, -0.5\) is negatively weighted"),
            ((0, 2, np.inf), r"edges\[1\] = \(0, 2, inf\) is weighted by a non-finite value"),
            ((1, 2, np.nan), r"edges\[1\] = \(1, 2, nan\) is weighted by a non-finite value"),
            ((0.5, 1, 1.0), r"edges\[1\] = \(0.5, 1, 1\) is not between integer indices"),
            ((np.nan, 1, 1.0), r"edges\[1\] = \(nan, 1, 1\) is not between integer indices"),
            ((1, 2.0000001, 1.0), r"edges\[1\] = \(1, 2.0000001, 1\) is not between integer"),
        ],
        ids=["self-loop", "index too large", "negative index", "negative weight", "inf", "nan",
             "fractional index", "nan index", "nearly integral index"],
    )
    def test_bad_edge_rejected_by_position(self, edge, message):
        # edges[2] is bad as well; the first bad edge is the one named
        with pytest.raises(GraphParseError, match=message):
            Graph.build(["a", "b", "c"], [(0, 1, 1.0), edge, (1, 1, -1.0)])

    def test_parallel_edges_summing_to_infinity_rejected(self):
        # each weight is finite, their sum is not; it used to load as one edge
        # of weight inf, on which every ica_run raised OverflowError
        message = "the parallel edges between 'a' and 'b' sum to a non-finite weight"
        with pytest.raises(GraphParseError, match=message):
            parse_edge_list(["a c 1", "a b 1e308", "c b 1", "b a 1e308"])
        with pytest.raises(GraphParseError, match="between 'b' and 'c'"):
            Graph.build(["a", "b", "c"], [(0, 1, 1.0), (2, 1, 1.5e308), (1, 2, 1.5e308)])
        # both pairs overflow; b-c does so first, on edges[2], though a-b sorts first
        edges = [(1, 2, 1e308), (0, 1, 1e308), (2, 1, 1e308), (1, 0, 1e308)]
        with pytest.raises(GraphParseError, match="^the parallel edges between 'b' and 'c' sum"):
            Graph.build(["a", "b", "c"], edges)


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


# ids are whitespace-free printable ASCII that does not open a comment line
_node_ids = st.text(st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=6).filter(
    lambda s: not s.startswith("#")
)


@st.composite
def _labelled_edge_lists(draw):
    """``(ids, edges, nodes, rows)``: distinct ids, ``(i, j, weight or None)``
    edges between them (None writes an unweighted line), the ids the edges
    use in first-seen order, and ``(id, label)`` rows for some of those,
    consistent duplicates allowed."""
    ids = draw(st.lists(_node_ids, min_size=2, max_size=8, unique=True))
    weights = st.none() | st.floats(0.0, allow_infinity=False, allow_subnormal=True)
    pairs = st.tuples(st.integers(0, len(ids) - 1), st.integers(0, len(ids) - 1), weights)
    edges = draw(st.lists(pairs.filter(lambda e: e[0] != e[1]), min_size=1, max_size=20))
    nodes = list(dict.fromkeys(ids[k] for i, j, _ in edges for k in (i, j)))
    labels = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n"), max_size=4)
    chosen = sorted(draw(st.dictionaries(st.sampled_from(nodes), labels)).items())
    repeats = draw(st.lists(st.sampled_from(chosen), max_size=4)) if chosen else []
    rows = draw(st.permutations(chosen + repeats))
    return ids, edges, nodes, [r for r in rows if r != ("node_id", "label")]  # the header's spelling


class TestEdgeAndLabelRoundTrip:
    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture], deadline=None)
    @given(case=_labelled_edge_lists())
    def test_write_then_read_is_exact(self, tmp_path, case):
        ids, edges, nodes, rows = case
        lines = [f"{ids[i]} {ids[j]}" + ("" if w is None else f" {w!r}") for i, j, w in edges]
        path = tmp_path / "labels.csv"
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows([("node_id", "label"), *rows])
        at = {nid: k for k, nid in enumerate(nodes)}
        merged = [(at[ids[i]], at[ids[j]], 1.0 if w is None else w) for i, j, w in edges]
        indptr, indices, weights = dict_merge_reference(len(nodes), merged)
        if not np.isfinite(weights).all():  # finite weights whose merged sum overflows
            with pytest.raises(GraphParseError, match="sum to a non-finite weight"):
                parse_edge_list(lines)
            return
        g = attach_labels(parse_edge_list(lines), read_label_file(path))

        assert g.node_ids == nodes
        assert np.array_equal(g._indptr, indptr) and np.array_equal(g._indices, indices)
        assert g._weights.tobytes() == weights.tobytes()
        classes = list(dict.fromkeys(label for _, label in rows))
        assert g.class_names == classes
        expected = {nid: classes.index(label) for nid, label in rows}
        assert g.labels.tolist() == [expected.get(nid, -1) for nid in nodes]


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
                nbrs, _ = neighbors(g, i)
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
        assert degree(path3).tolist() == [1.0, 2.0, 1.0]

    def test_isolated_node(self):
        g = parse_edge_list(["a b"]).subgraph([0])
        assert degree(g).tolist() == [0.0]

    def test_star_center(self, star5):
        assert degree(star5)[0] == 5.0


class TestCloseness:
    def test_path_hand_bfs(self, path3):
        # center: 1+1 = 2 -> 1/2; ends: 1+2 = 3 -> 1/3
        np.testing.assert_allclose(
            closeness_centrality(path3), [1 / 3, 1 / 2, 1 / 3]
        )

    def test_k4_all_equal(self, k4):
        np.testing.assert_allclose(closeness_centrality(k4), [1 / 3] * 4)

    def test_single_node_convention(self):
        g = parse_edge_list(["a b"]).subgraph([0])
        assert closeness_centrality(g).tolist() == [0.0]

    def test_disconnected_rejected(self):
        g = parse_edge_list(["a b", "c d"])
        with pytest.raises(ValueError, match="connected"):
            closeness_centrality(g)

    @pytest.mark.parametrize("chunk", [1, 64, 65, 130])
    def test_disconnected_stall_behind_running_sources(self, chunk, monkeypatch):
        # a 150-node path and a 50-node cycle with interleaved indices: in
        # every chunk the cycle's sources stall while the path's still run
        lines = [f"p{i} p{i + 1}" for i in range(149)] + [f"c{i} c{(i + 1) % 50}" for i in range(50)]
        order = sorted(lines, key=lambda line: int(line.split()[0][1:]))
        g = parse_edge_list(order)
        assert g.node_ids[:4] == ["p0", "p1", "c0", "c1"]
        monkeypatch.setattr(graph_module, "CLOSENESS_CHUNK", chunk)
        with pytest.raises(ValueError, match="connected graph"):
            closeness_centrality(g)

    def test_isolated_node_rejected(self):
        g = Graph.build(list("abcd"), [(0, 1, 1.0), (1, 2, 1.0)])
        with pytest.raises(ValueError, match="connected graph"):
            closeness_centrality(g)

    def test_bounds_and_star_equality(self, star5):
        vals = closeness_centrality(star5)
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
            vals = closeness_centrality(g)
            assert np.all(vals <= 1 / (n - 1) + 1e-15)
            assert np.all(vals >= 1 / ((n - 1) * (n - 1)))  # diameter < n

    def test_ignores_weights(self):
        light = parse_edge_list(["a b 0.1", "b c 10"])
        np.testing.assert_allclose(
            closeness_centrality(light), [1 / 3, 1 / 2, 1 / 3]
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
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph_module, "CLOSENESS_CHUNK", chunk)
            vals = closeness_centrality(graph)
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
        assert degree(g).max() == 300
        self.check(g)

    @pytest.mark.parametrize("chunk", [1, 7, 20, 64])
    def test_chunk_boundaries(self, chunk):
        rng = np.random.default_rng(43)
        g = random_graph(rng, 20, 0.15)
        while largest_connected_component(g).n_nodes < 20:
            g = random_graph(rng, 20, 0.15)
        self.check(g, chunk=chunk)

    @pytest.fixture(scope="class")
    def connected_200(self):
        # a random tree on 200 nodes (connected by construction) plus 100 chords
        rng = np.random.default_rng(44)
        lines = [f"v{i} v{rng.integers(i)}" for i in range(1, 200)]
        lines += [f"v{a} v{b}" for a, b in rng.integers(200, size=(100, 2)) if a != b]
        g = parse_edge_list(lines)
        assert g.n_nodes == 200
        return g

    @pytest.mark.parametrize("chunk", [63, 64, 65, 130, 512])
    def test_word_and_chunk_edges(self, connected_200, chunk):
        # one bit per source: chunks that end inside, on and just past a
        # 64-bit word, a partial last chunk, and one chunk for all nodes
        self.check(connected_200, chunk=chunk)


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
            np.testing.assert_array_equal(degree(graph), want)
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
            np.testing.assert_array_equal(degree(lcc), [sub.degree(v) for v in want])
        assert ties > 5


class TestSplitNodes:
    def _labeled(self, n, seed=0):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, n, 0.5)
        return attach_labels(g, [(nid, "AB"[i % 2]) for i, nid in enumerate(g.node_ids)])

    def test_sizes_and_determinism(self):
        g = self._labeled(10)
        train, test = split_nodes(g, 0.8, 99)
        assert len(test) == 8 and len(train) == 2
        train2, test2 = split_nodes(g, 0.8, 99)
        np.testing.assert_array_equal(train, train2)
        np.testing.assert_array_equal(test, test2)

    def test_disjoint_exhaustive(self):
        g = self._labeled(23, seed=1)
        train, test = split_nodes(g, 0.4, 3)
        combined = np.sort(np.r_[train, test])
        np.testing.assert_array_equal(combined, np.arange(g.n_nodes))

    def test_different_seeds_differ(self):
        g = self._labeled(30, seed=2)
        _, t1 = split_nodes(g, 0.5, 1)
        _, t2 = split_nodes(g, 0.5, 2)
        assert not np.array_equal(t1, t2)

    def test_fraction_bounds(self):
        g = self._labeled(10)
        for fraction in (1.0, 0.0, -0.5, 1.5, float("nan")):
            with pytest.raises(ValueError, match=r"test_fraction must be in \(0, 1\)"):
                split_nodes(g, fraction, 0)

    def test_requires_labels(self, path3):
        with pytest.raises(ValueError, match="labeled"):
            split_nodes(path3, 0.5, 0)
