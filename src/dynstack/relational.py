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


def ica_run(
    graph: Graph, labels: np.ndarray | None = None, config: IcaConfig = IcaConfig()
) -> IcaResult:
    """Iterative classification over the unobserved nodes of ``graph``.

    ``labels`` (default ``graph.labels``) marks observed nodes with their
    class index and unobserved ones with -1. Each sweep visits the
    unobserved nodes in a fresh seeded random order and commits each to a
    point mass on the argmax of its neighbor average (ties to the lowest
    class index); updates are visible to later nodes in the same sweep.
    Observed nodes are never revisited. After the final sweep one extra
    soft pass reports each unobserved node's neighbor average from the
    terminal hard states, which is what feeds stacking.

    A neighbor average depends only on the neighbors' states, so each
    node's average is cached and recomputed only when it is stale: when a
    neighbor became known or changed label since it was last computed.
    The results equal those of recomputing every visited node.
    """
    labels = graph.labels if labels is None else np.asarray(labels, dtype=np.int64)
    c = graph.class_count
    if c < 1:
        raise ValueError("graph has no label classes")
    test_nodes = np.flatnonzero(labels < 0)
    if len(test_nodes) == len(labels):
        raise ValueError("collective inference needs at least one observed node")

    state = LabelState.from_labels(labels, c)
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

    rng = np.random.default_rng(config.order_seed)
    sweeps = 0
    converged = False
    while sweeps < config.max_iterations:
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

    out = probs.copy()
    was_null = np.zeros(len(labels), dtype=bool)
    for i in test_nodes:
        avg = estimate(i)[0]
        if avg is None:
            out[i] = 1.0 / c
            was_null[i] = True
            hard[i] = 0
        else:
            out[i] = avg
    return IcaResult(out, hard, was_null, sweeps, converged)
