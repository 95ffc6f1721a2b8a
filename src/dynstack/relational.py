"""Weighted-vote relational neighbor classifier with iterative collective inference.

A node's class distribution is estimated as the edge-weighted average of
its neighbors' current distributions, skipping neighbors whose state is
still unknown. Collective inference sweeps the unlabeled nodes in a
seeded random order, committing each node to the argmax class of its
estimate, until a full sweep changes nothing or the iteration cap hits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph

__all__ = ["IcaConfig", "IcaResult", "LabelState", "wvrn_estimate", "ica_run"]


@dataclass(frozen=True)
class IcaConfig:
    max_iterations: int = 100
    order_seed: int = 0

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass
class LabelState:
    """Per-node class distributions; rows with ``known`` False are null."""

    probs: np.ndarray  # (N, C)
    known: np.ndarray  # (N,) bool

    @classmethod
    def from_labels(cls, labels: np.ndarray, class_count: int) -> "LabelState":
        """Point masses on observed labels, null elsewhere (-1 = unobserved)."""
        n = len(labels)
        probs = np.zeros((n, class_count))
        known = labels >= 0
        probs[np.flatnonzero(known), labels[known]] = 1.0
        return cls(probs, known)


@dataclass
class IcaResult:
    """Terminal state of a collective-inference run, for every node.

    Observed nodes carry their own point mass. ``was_null`` flags nodes
    that never acquired a classified neighbor; they report the uniform
    distribution and the hard label 0.
    """

    probs: np.ndarray
    hard_labels: np.ndarray
    was_null: np.ndarray
    n_sweeps: int
    converged: bool


def _neighbor_average(graph: Graph, i: int, probs: np.ndarray, known: np.ndarray):
    nbrs, wts = graph.neighbors(i)
    m = known[nbrs]
    if not m.any():
        return None
    w = wts[m]
    total = w.sum()
    if total == 0.0:  # only zero-weight edges reach a classified neighbor
        return None
    return (w[:, None] * probs[nbrs[m]]).sum(axis=0) / total


def wvrn_estimate(graph: Graph, node: int, state: LabelState) -> np.ndarray | None:
    """Edge-weighted average of the non-null neighbor distributions.

    Returns ``None`` when the node has no neighbors or all of them are
    null; that is an in-band outcome, not an error.
    """
    return _neighbor_average(graph, node, state.probs, state.known)


def _has_exact_sums(graph: Graph) -> bool:
    """Whether every sum of edge weights is exact in float64, in any order.

    True when every weight is an integer and all of them together stay
    below 2**53; an infinite or NaN weight fails the second test.
    """
    w = graph._weights
    return bool(np.all(w == np.floor(w))) and float(w.sum()) < 2.0**53


def _sweep_by_sums(graph, labels, test_nodes, rng, max_iterations):
    """ICA on running per-class sums of the known neighbours' edge weights.

    Every known node holds a point mass, so a node's neighbour average is
    its per-class known weight over its total known weight. A commit adds
    to (and, on a relabel, subtracts from) only its neighbours' sums.
    """
    n, c = len(labels), graph.class_count
    indptr, indices, weights = graph._indptr, graph._indices, graph._weights
    rows = np.repeat(np.arange(n), np.diff(indptr))
    nbr_label = labels[indices]
    m = nbr_label >= 0
    sums = np.bincount(rows[m] * c + nbr_label[m], weights[m], n * c).reshape(n, c).tolist()
    total = np.bincount(rows[m], weights[m], n).tolist()
    nbrs, nwts = graph._neighbor_lists()
    hard = np.where(labels >= 0, labels, -1).tolist()

    sweeps = 0
    converged = False
    while sweeps < max_iterations:
        sweeps += 1
        changed = False
        for i in rng.permutation(test_nodes).tolist():
            if not total[i]:  # no classified neighbour, or only zero weights
                continue
            row = sums[i]
            label = row.index(max(row))
            old = hard[i]
            if label == old:
                continue
            changed = True
            hard[i] = label
            if old < 0:
                for j, w in zip(nbrs[i], nwts[i]):
                    sums[j][label] += w
                    total[j] += w
            else:
                for j, w in zip(nbrs[i], nwts[i]):
                    s = sums[j]
                    s[label] += w
                    s[old] -= w
        if not changed:
            converged = True
            break

    tot = np.array(total)[test_nodes]
    null = tot == 0.0
    soft = np.array(sums)[test_nodes] / np.where(null, 1.0, tot)[:, None]
    return np.array(hard, dtype=np.int64), soft, null, sweeps, converged


def _sweep_by_cache(graph, labels, test_nodes, rng, max_iterations):
    """ICA that caches each neighbour average until a neighbour changes.

    An average is recomputed only when it is stale: when a neighbour
    became known or changed label since it was last computed.
    """
    state = LabelState.from_labels(labels, graph.class_count)
    probs, known = state.probs, state.known
    hard = np.where(labels >= 0, labels, -1)
    est: list = [None] * len(labels)  # (average or None, its argmax or None)
    stale = labels < 0

    def estimate(i):
        if stale[i]:
            avg = _neighbor_average(graph, i, probs, known)
            est[i] = (avg, None if avg is None else int(np.argmax(avg)))
            stale[i] = False
        return est[i]

    sweeps = 0
    converged = False
    while sweeps < max_iterations:
        sweeps += 1
        changed = False
        for i in rng.permutation(test_nodes):
            label = estimate(i)[1]
            if label is None or label == hard[i]:
                continue
            changed = True
            hard[i] = label
            probs[i] = 0.0
            probs[i, label] = 1.0
            known[i] = True
            stale[graph.neighbors(i)[0]] = True
        if not changed:
            converged = True
            break

    soft = np.zeros((len(test_nodes), graph.class_count))
    null = np.zeros(len(test_nodes), dtype=bool)
    for k, i in enumerate(test_nodes):
        avg = estimate(i)[0]
        if avg is None:
            null[k] = True
        else:
            soft[k] = avg
    return hard, soft, null, sweeps, converged


def ica_run(graph: Graph, labels: np.ndarray, config: IcaConfig = IcaConfig()) -> IcaResult:
    """Iterative classification over the unobserved nodes of ``graph``.

    ``labels`` marks observed nodes with their class index and unobserved
    ones with -1. Each sweep visits the unobserved nodes in a fresh seeded
    random order and commits each to a point mass on the argmax of its
    neighbor average (ties to the lowest class index); updates are visible
    to later nodes in the same sweep. Observed nodes are never revisited.
    After the final sweep one extra soft pass reports each unobserved
    node's neighbor average from the terminal hard states, which is what
    feeds stacking.

    Two implementations give the same result bit for bit, chosen from
    the edge weights alone. When every weight is an integer and all of
    them sum to less than 2**53 (unit-weight networks such as Cora), each
    node keeps running per-class sums of its known neighbours' weights;
    integer sums below 2**53 are exact in float64 in any order, so they
    equal the neighbour average's numerator and denominator, and dividing
    by the same positive total keeps their argmax. Any other weights keep
    each node's average cached and recompute it only when a neighbour
    became known or changed label since it was last computed.
    """
    labels = np.asarray(labels, dtype=np.int64)
    c = graph.class_count
    if c < 1:
        raise ValueError("graph has no label classes")
    test_nodes = np.flatnonzero(labels < 0)
    if len(test_nodes) == len(labels):
        raise ValueError("collective inference needs at least one observed node")

    out = LabelState.from_labels(labels, c).probs
    sweep = _sweep_by_sums if _has_exact_sums(graph) else _sweep_by_cache
    rng = np.random.default_rng(config.order_seed)
    hard, soft, null, sweeps, converged = sweep(
        graph, labels, test_nodes, rng, config.max_iterations
    )
    out[test_nodes] = soft
    nulls = test_nodes[null]
    out[nulls] = 1.0 / c
    hard[nulls] = 0
    was_null = np.zeros(len(labels), dtype=bool)
    was_null[nulls] = True
    return IcaResult(out, hard, was_null, sweeps, converged)
