"""Synthetic labeled networks with covariate-dependent relational signal.

The planted-homophily generator grows a graph in which a node's degree
controls how informative its neighborhood is: low-budget nodes attach to
uniformly random partners (their edges carry no label signal) while
high-budget nodes attach mostly to same-label partners. Node text
features carry a fixed, degree-independent signal. A relational
classifier is therefore strong exactly where degree is high and a local
classifier is flat, which is the regime functional classifier weights
are meant to exploit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph, attach_labels, parse_edge_list

__all__ = ["SyntheticNetwork", "planted_homophily_network"]

POSITIVE, NEGATIVE = "topic/positive", "topic/negative"
# the network's shape; planted_homophily_network says what each one does
STUBS_LO, STUBS_HI, HOMOPHILY_HI = 2, 8, 0.92
FEATURE_FIDELITY, N_NOISE_TERMS = 0.75, 10


@dataclass(frozen=True)
class SyntheticNetwork:
    """A generated network in the same file formats the loaders accept."""

    graph: Graph  # labels attached; classes [positive, negative]
    edge_lines: list[str]
    label_rows: list[tuple[str, str]]
    feature_lines: list[str]

    def write(self, edges_path, labels_path, features_path) -> None:
        with open(edges_path, "w") as fh:
            fh.write("\n".join(self.edge_lines) + "\n")
        with open(labels_path, "w") as fh:
            for nid, lab in self.label_rows:
                fh.write(f"{nid},{lab}\n")
        with open(features_path, "w") as fh:
            fh.write("\n".join(self.feature_lines) + "\n")


def planted_homophily_network(n_nodes: int = 800, seed: int = 0) -> SyntheticNetwork:
    """Generate a binary-labeled network plus bag-of-words features.

    Half the nodes are high-budget: they draw ``STUBS_HI`` edge stubs and
    attach, with probability ``HOMOPHILY_HI``, to a same-label partner
    inside the high-budget core (uniformly anywhere otherwise). The
    other half draw ``STUBS_LO`` stubs attached uniformly at random, so
    their neighborhoods carry no label signal of their own. Every node
    emits one class-signal token that is correct with probability
    ``FEATURE_FIDELITY`` plus two noise tokens, so local-classifier
    accuracy stays flat across degrees while relational accuracy climbs
    steeply with degree.
    """
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, n_nodes)  # 0 = positive
    high = np.zeros(n_nodes, dtype=bool)
    high[rng.permutation(n_nodes)[: n_nodes // 2]] = True

    core_by_label = [np.flatnonzero(high & (labels == c)) for c in (0, 1)]
    everyone = np.arange(n_nodes)
    pairs: set[tuple[int, int]] = set()
    for i in range(n_nodes):
        stubs = STUBS_HI if high[i] else STUBS_LO
        for _ in range(stubs):
            if high[i] and rng.uniform() < HOMOPHILY_HI:
                pool = core_by_label[labels[i]]
            else:
                pool = everyone
            for _ in range(20):  # reroll self-loops and duplicates
                j = int(pool[rng.integers(len(pool))])
                key = (i, j) if i < j else (j, i)
                if j != i and key not in pairs:
                    pairs.add(key)
                    break

    ids = [f"n{i}" for i in range(n_nodes)]
    edge_lines = [f"{ids[a]} {ids[b]}" for a, b in sorted(pairs)]
    label_rows = [(ids[i], POSITIVE if labels[i] == 0 else NEGATIVE) for i in range(n_nodes)]

    feature_lines = []
    for i in range(n_nodes):
        correct = rng.uniform() < FEATURE_FIDELITY
        shown = labels[i] if correct else 1 - labels[i]
        toks = [f"sig{shown}:1"]
        for t in rng.integers(0, N_NOISE_TERMS, 2):
            toks.append(f"noise{t}:1")
        feature_lines.append(f"{ids[i]} " + " ".join(toks))

    graph = attach_labels(parse_edge_list(edge_lines), label_rows)
    return SyntheticNetwork(graph, edge_lines, label_rows, feature_lines)
