"""Undirected weighted graphs with optional node labels.

Nodes are dense integer indices 0..N-1 carrying external string ids.
Adjacency is stored in CSR form (symmetric, no self-loops, parallel
edges merged by weight summation at ingest). Labels are class indices
with -1 meaning unobserved.
"""

from __future__ import annotations

import csv
from typing import TYPE_CHECKING

import numpy as np

# scipy.sparse loads where a matrix is built: runs without a graph never import it
if TYPE_CHECKING:
    from scipy.sparse import csr_matrix

__all__ = [
    "Graph",
    "GraphParseError",
    "parse_edge_list",
    "attach_labels",
    "read_label_file",
    "largest_connected_component",
    "degree",
    "closeness_centrality",
    "split_nodes",
]

# sources per breadth-first search of closeness_centrality; the median call on
# the six 5,000-node benchmark networks (2-core VM) took 0.095 s at 512, 0.058 s
# at 1,024, 0.057 s at 2,048 and 0.070 s at 5,000, and the buffers grow with it
CLOSENESS_CHUNK = 1024


class GraphParseError(ValueError):
    """Malformed edge, label or feature input; from :meth:`Graph.build`,
    ``record`` is the first bad edge's index and ``detail`` its fault."""

    record: int | None = None
    detail = ""


def _merge(keys: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray, int | None]:
    """The distinct ``keys`` in ascending order, each one's finite ``weights``
    added in record order from 0.0, and the index of the first record at
    which a running sum stops being finite (None when none does)."""
    distinct, inverse = np.unique(keys, return_inverse=True)
    # bincount adds in record order; it gives int64 for no records
    sums = np.bincount(inverse, weights, len(distinct)).astype(float, copy=False)
    bad = ~np.isfinite(sums)
    if not bad.any():
        return distinct, sums, None
    at = np.flatnonzero(bad[inverse])
    at = at[np.argsort(inverse[at], kind="stable")]  # grouped by key, each in record order
    with np.errstate(over="ignore"):  # cumsum adds in record order too
        return distinct, sums, min(
            int(group[np.argmax(~np.isfinite(np.cumsum(weights[group])))])
            for group in np.split(at, np.flatnonzero(np.diff(inverse[at])) + 1)
        )


class Graph:
    """Immutable undirected weighted graph.

    Build with :func:`parse_edge_list` or :meth:`Graph.build`. Edge
    weights are nonnegative; adjacency is symmetric by construction.
    """

    __slots__ = ("node_ids", "_indptr", "_indices", "_weights", "labels", "class_names", "_lists")

    def __init__(self, node_ids, indptr, indices, weights, labels, class_names):
        self.node_ids = list(node_ids)
        self._indptr = indptr
        self._indices = indices
        self._weights = weights
        self.labels = labels
        self.class_names = list(class_names)
        self._lists = None
        if labels.shape != (len(self.node_ids),):
            raise ValueError("labels length must equal node count")
        if len(self.class_names) and labels.max(initial=-1) >= len(self.class_names):
            raise ValueError("label index out of range")

    @classmethod
    def build(cls, node_ids, edges):
        """Construct from an iterable of ``(i, j, weight)`` index triples.

        Parallel edges are merged by summing their weights in input order.
        This is the one check of edge values: the first edge with an out-of-range,
        fractional or NaN index, a self-loop, or a negative, infinite or NaN weight,
        else the first at which a pair's merged weight overflows, raises
        :class:`GraphParseError` as ``edges[k] = (i, j, w): <detail>``.
        Zero-weight edges are stored, so they count toward the degree.
        Every node is unlabeled; :meth:`with_labels` adds labels.
        """
        node_ids = list(node_ids)
        n = len(node_ids)
        e = np.array(list(edges), dtype=float).reshape(-1, 3)
        ends, w = e[:, :2], e[:, 2]
        outside, fractional = (ends < 0) | (ends >= n), ends != np.floor(ends)  # NaN: fractional
        fault = np.select([outside.any(axis=1), fractional.any(axis=1), e[:, 0] == e[:, 1], w < 0,
                           ~np.isfinite(w)], [1, 2, 3, 4, 5])
        if fault.any():
            k = int(np.argmax(fault > 0))
            i, _, wk = e[k].tolist()
            node = node_ids[int(i)] if fault[k] == 3 else None  # a self-loop's index is valid
            detail = (f"node index out of range for {n} nodes", "node index not an integer",
                      f"self-loop on {node!r}", f"negative weight {wk!r}",
                      f"non-finite weight {wk!r}")[fault[k] - 1]
        else:
            lo, hi = np.sort(ends, axis=1).astype(np.int64).T
            pairs, total, k = _merge(lo * n + hi, w)
            if k is not None:
                a, b = node_ids[lo[k]], node_ids[hi[k]]
                detail = f"the parallel edges between {a!r} and {b!r} sum to a non-finite weight"
        if k is not None:
            edge = ", ".join(repr(v).removesuffix(".0") for v in e[k].tolist())
            err = GraphParseError(f"edges[{k}] = ({edge}): {detail}")
            err.record, err.detail = k, detail
            raise err
        i, j = np.divmod(pairs, n)
        from scipy.sparse import csr_matrix

        adj = csr_matrix((np.r_[total, total], (np.r_[i, j], np.r_[j, i])), shape=(n, n))
        adj.sort_indices()
        return cls(node_ids, adj.indptr, adj.indices, adj.data, np.full(n, -1, dtype=np.int64), ())

    # -- basic accessors -------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return len(self.node_ids)

    @property
    def n_edges(self) -> int:
        return len(self._indices) // 2

    @property
    def class_count(self) -> int:
        return len(self.class_names)

    def _neighbor_lists(self) -> tuple[list[list[int]], list[list[int]]]:
        """Every node's neighbour indices and edge weights as plain lists, for
        per-node Python loops; built on first use and kept, as the graph never
        changes. Callers must not mutate them.

        Each weight ``w`` is listed as the exact int ``w * 2**shift``, where
        ``shift`` is the smallest nonnegative power making every weight an
        integer: sums of these are exact in any order, and their ratios are
        the ratios of the float weights."""
        if self._lists is None:
            distinct, inverse = np.unique(self._weights, return_inverse=True)
            ratios = [w.as_integer_ratio() for w in distinct.tolist()]
            shift = max((d.bit_length() - 1 for _, d in ratios), default=0)
            exact = np.array([(a << shift) // d for a, d in ratios], dtype=object)
            ptr, idx, wts = self._indptr.tolist(), self._indices.tolist(), exact[inverse].tolist()
            self._lists = (
                [idx[a:b] for a, b in zip(ptr, ptr[1:])],
                [wts[a:b] for a, b in zip(ptr, ptr[1:])],
            )
        return self._lists

    def adjacency(self) -> csr_matrix:
        from scipy.sparse import csr_matrix

        n = self.n_nodes
        return csr_matrix((self._weights, self._indices, self._indptr), shape=(n, n))

    # -- derived graphs ---------------------------------------------------

    def with_labels(self, labels: np.ndarray, class_names) -> "Graph":
        return Graph(
            self.node_ids,
            self._indptr,
            self._indices,
            self._weights,
            np.asarray(labels, dtype=np.int64),
            class_names,
        )

    def subgraph(self, node_indices) -> "Graph":
        """Induced subgraph; indices recompacted, external ids preserved."""
        keep = np.sort(np.asarray(node_indices, dtype=np.int64))
        adj = self.adjacency()[keep][:, keep]
        adj.sort_indices()
        ids = [self.node_ids[i] for i in keep]
        return Graph(ids, adj.indptr, adj.indices, adj.data, self.labels[keep], self.class_names)


def _records(lines):
    """The 1-based number and whitespace-separated fields of each line of
    ``lines`` that is neither blank nor a ``#`` comment, lazily."""
    return ((n, f) for n, f in enumerate(map(str.split, lines), 1) if f and f[0][0] != "#")


def _weight(token: str, lineno: int) -> float:
    try:
        return float(token)
    except ValueError:
        raise GraphParseError(f"line {lineno}: non-numeric weight {token!r}") from None


def parse_edge_list(lines) -> Graph:
    """Parse whitespace-separated ``id1 id2 [weight]`` lines into a graph.

    Blank lines and lines starting with ``#`` are skipped. Repeated pairs
    merge by weight sum; node ids are interned in first-seen order. A line
    without two or three fields or with a non-numeric weight raises
    :class:`GraphParseError` with its line number, as does the first edge
    that breaks a rule of :meth:`Graph.build`, the one place they live.
    """
    ids: dict[str, int] = {}
    edges, at = [], []  # each edge's (i, j, weight), and its line
    for lineno, parts in _records(lines):
        if len(parts) not in (2, 3):
            got = " ".join(parts)
            raise GraphParseError(f"line {lineno}: expected 'id1 id2 [weight]', got {got!r}")
        w = _weight(parts[2], lineno) if len(parts) == 3 else 1.0
        a = ids.setdefault(parts[0], len(ids))
        edges.append((a, ids.setdefault(parts[1], len(ids)), w))
        at.append(lineno)
    try:
        return Graph.build(list(ids), edges)
    except GraphParseError as err:
        raise GraphParseError(f"line {at[err.record]}: {err.detail}") from None


class _LabelRows(list):
    """``(id, label)`` pairs read from ``path``, row ``k`` on line ``lines[k]``."""

    def __init__(self, path):
        super().__init__()
        self.path, self.lines = path, []


def _label_error(rows, k: int, message: str) -> GraphParseError:
    if isinstance(rows, _LabelRows):
        message = f"{rows.path} line {rows.lines[k]}: {message}"
    return GraphParseError(message)


def attach_labels(graph: Graph, rows) -> Graph:
    """Return a copy of ``graph`` with labels from ``(id, label)`` pairs.

    The class vocabulary is the distinct label strings in first-seen
    order; nodes not mentioned stay unobserved. Unknown ids and
    conflicting duplicates are errors, which name the file and line of a
    row read by :func:`read_label_file`; consistent duplicates are fine.
    """
    index = {nid: i for i, nid in enumerate(graph.node_ids)}
    classes: dict[str, int] = {}
    labels = np.full(graph.n_nodes, -1, dtype=np.int64)
    for k, (node_id, label) in enumerate(rows):
        if node_id not in index:
            raise _label_error(rows, k, f"label for unknown node id {node_id!r}")
        if label not in classes:
            classes[label] = len(classes)
        c = classes[label]
        i = index[node_id]
        if labels[i] != -1 and labels[i] != c:
            raise _label_error(rows, k, f"conflicting labels for node {node_id!r}")
        labels[i] = c
    return graph.with_labels(labels, list(classes))


def read_label_file(path) -> list[tuple[str, str]]:
    """Read a ``node_id,label`` CSV; a literal header row is tolerated.

    A malformed row raises :class:`GraphParseError` naming the file and
    line; the returned list keeps both for :func:`attach_labels`.
    """
    rows = _LabelRows(path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for rec in reader:
            if not rec:
                continue
            if len(rec) != 2:
                raise GraphParseError(
                    f"{path} line {reader.line_num}: expected node_id,label, got {rec!r}"
                )
            if rec == ["node_id", "label"]:
                continue
            rows.append((rec[0], rec[1]))
            rows.lines.append(reader.line_num)
    return rows


def largest_connected_component(graph: Graph) -> Graph:
    """Induced subgraph on the largest component.

    Size ties go to the component containing the smallest node index.
    """
    if graph.n_nodes == 0:
        raise ValueError("empty graph has no components")
    from scipy.sparse.csgraph import connected_components

    n_comp, comp = connected_components(graph.adjacency(), directed=False)
    sizes = np.bincount(comp, minlength=n_comp)
    # component ids are assigned in node-index order, so the first argmax
    # is the tied component containing the smallest node index
    best = int(np.argmax(sizes))
    return graph.subgraph(np.flatnonzero(comp == best))


def degree(graph: Graph) -> np.ndarray:
    """Unweighted neighbor count per node, as floats."""
    return np.diff(graph._indptr).astype(float)


_DISCONNECTED = (
    "closeness centrality needs a connected graph "
    "(reduce to the largest connected component first)"
)


def closeness_centrality(graph: Graph) -> np.ndarray:
    """Reciprocal of each node's total hop distance to all other nodes.

    Hop counts come from a level-synchronous breadth-first search, in
    which a stored zero-weight edge is still one hop. The graph must be
    connected (run :func:`largest_connected_component` first). A
    single-node graph gets the value 0 by convention. The search runs from
    ``CLOSENESS_CHUNK`` = k sources at once, one bit per source (Then et al.
    2014), on rows in descending degree order, read in the ELL + CSR layout
    of Bell & Garland 2009: slot d holds the d-th neighbour of each node of
    degree > d (a prefix of the rows) for each d that 64 or more nodes
    reach, and the further neighbours of the fewer than 64 hubs left form
    one CSR tail. A level gathers slot 0, ORs each further slot into its
    prefix and the tail into the hubs' rows with one ``reduceat`` per run of
    hubs holding at most n tail entries. The seen, frontier and gathered sets
    are n x ceil(k/64) words each, and a slot's or a run's gather at most that.
    """
    n = graph.n_nodes
    if n == 0:
        raise ValueError("empty graph")
    if n == 1:
        return np.zeros(1)
    indptr, indices = graph._indptr, graph._indices
    deg = np.diff(indptr)
    if not deg.all():  # an isolated node; slot 0 and reduceat need no empty rows
        raise ValueError(_DISCONNECTED)
    order = np.argsort(-deg, kind="stable")  # row r of the search is node order[r]
    rank = np.argsort(order)  # node v is row rank[v]
    deg, starts = deg[order], indptr[:-1][order]
    above = n - np.cumsum(np.bincount(deg))  # above[d]: nodes of degree > d
    width = max(1, int(np.count_nonzero(above >= 64)))  # slots 0 .. width-1
    slots = [rank[indices[starts[: above[d]] + d]] for d in range(width)]
    hubs = int(above[width])  # rows with neighbours past the last slot
    rest = deg[:hubs] - width
    ptr = np.cumsum(rest) - rest  # each hub's first entry in the tail
    tail = rank[indices[np.repeat(starts[:hubs] + width - ptr, rest) + np.arange(rest.sum())]]
    ends, blocks, a = ptr + rest, [], 0  # runs of hubs holding at most n tail entries each
    for h in range(1, hubs + 1):
        if h == hubs or ends[h] - ptr[a] > n:
            blocks.append((a, h, tail[ptr[a] : ends[h - 1]], ptr[a:h] - ptr[a]))
            a = h
    # hop distance is symmetric, so a node's total over every source is
    # its own total distance: count each node's newly reached sources
    totals = np.zeros(n, dtype=np.int64)
    for lo in range(0, n, CLOSENESS_CHUNK):
        k = min(CLOSENESS_CHUNK, n - lo)
        src = np.arange(k)
        # bit s of row lo + s: source s has seen itself
        seen = np.zeros((n, (k + 63) // 64), dtype=np.uint64)
        seen[lo + src, src // 64] = np.uint64(1) << (src % 64).astype(np.uint64)
        front, buf = seen.copy(), np.empty_like(seen)
        hop, reached = 0, k
        while reached < n * k:
            hop += 1
            np.take(front, slots[0], axis=0, out=buf)
            for slot in slots[1:]:
                buf[: len(slot)] |= front[slot]
            for a, b, entries, at in blocks:
                buf[a:b] |= np.bitwise_or.reduceat(front[entries], at, axis=0)
            front, buf = buf, front
            front &= ~seen
            if not front.any():  # every source stalled short of n nodes
                raise ValueError(_DISCONNECTED)
            seen |= front
            counts = np.bitwise_count(front).sum(axis=1, dtype=np.int64)
            totals += hop * counts
            reached += int(counts.sum())
    return (1.0 / totals)[rank]


def split_nodes(graph: Graph, test_fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic seeded partition into (train, test) node indices.

    All nodes must be labeled. The test set holds ``round(N * test_fraction)``
    nodes (ties round up); both sides are returned sorted.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be in (0, 1)")
    if np.any(graph.labels < 0):
        raise ValueError("split requires every node to be labeled")
    n = graph.n_nodes
    n_test = int(np.floor(n * test_fraction + 0.5))
    perm = np.random.default_rng(seed).permutation(n)
    test = np.sort(perm[:n_test])
    train = np.sort(perm[n_test:])
    return train, test

