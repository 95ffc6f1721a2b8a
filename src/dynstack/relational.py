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

__all__ = ["IcaConfig", "IcaResult", "ica_run"]


@dataclass(frozen=True)
class IcaConfig:
    max_iterations: int = 100
    order_seed: int = 0

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


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


def _sweep(graph, labels, test_nodes, rng, max_iterations):
    """ICA on running per-class sums of the known neighbours' edge weights.

    Every known node holds a point mass, so a node's neighbour average is
    its per-class known weight over its total known weight. The sums add
    the graph's exact integer weights, so they are exact in any order. A
    commit adds to (and, on a relabel, subtracts from) only its
    neighbours' sums.
    """
    n, c = len(labels), graph.class_count
    nbrs, nwts = graph._neighbor_lists()
    hard = np.where(labels >= 0, labels, -1).tolist()
    sums = [[0] * c for _ in range(n)]
    total = [0] * n
    for j in np.flatnonzero(labels >= 0).tolist():
        label = hard[j]
        for i, w in zip(nbrs[j], nwts[j]):
            sums[i][label] += w
            total[i] += w

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

    test = test_nodes.tolist()
    null = np.array([not total[i] for i in test], dtype=bool)
    # int / int is the correctly rounded ratio, whatever the sizes
    soft = [[s / total[i] for s in sums[i]] if total[i] else [0.0] * c for i in test]
    return np.array(hard, dtype=np.int64), np.array(soft).reshape(-1, c), null, sweeps, converged


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

    Each node keeps running per-class sums of its known neighbours' edge
    weights, taken as the exact integers of ``Graph._neighbor_lists``, so
    the argmax is decided on exact values and each reported probability
    is the correctly rounded ratio of exact sums, whatever the weights.
    """
    labels = np.asarray(labels, dtype=np.int64)
    c = graph.class_count
    if c < 1:
        raise ValueError("graph has no label classes")
    test_nodes = np.flatnonzero(labels < 0)
    if len(test_nodes) == len(labels):
        raise ValueError("collective inference needs at least one observed node")

    out = np.zeros((len(labels), c))
    observed = np.flatnonzero(labels >= 0)
    out[observed, labels[observed]] = 1.0
    rng = np.random.default_rng(config.order_seed)
    hard, soft, null, sweeps, converged = _sweep(
        graph, labels, test_nodes, rng, config.max_iterations
    )
    out[test_nodes] = soft
    nulls = test_nodes[null]
    out[nulls] = 1.0 / c
    hard[nulls] = 0
    was_null = np.zeros(len(labels), dtype=bool)
    was_null[nulls] = True
    return IcaResult(out, hard, was_null, sweeps, converged)
