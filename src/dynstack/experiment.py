"""End-to-end network experiments: level-0 classifiers, stacking, reports.

One repetition seeds a train/test split, trains the local text
classifier and the relational classifier on the training nodes, builds
level-1 data from their in-train cross-validated predictions, fits the
dynamic generalizer and the static baselines, and scores everything on
the masked test nodes. The driver repeats this, then aggregates mean
accuracies, paired comparisons against the dynamic model, and per-bin
accuracy differences across the covariate range.

The dynamic model and the nine static baselines are fitted through
:func:`dynstack.simulation.fit_method`: a fit that does not converge
scores NaN in its repetition, and any other error stops the run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import Graph, closeness_centrality, degree, split_nodes
from .metrics import ComparisonResult, accuracy, binned_accuracy, paired_comparison
from .naive_bayes import SparseFeatures, fit_nb, predict_nb
from .relational import ica_run
from .simulation import child_seeds, fit_method, map_reps
from .stacking import (
    ConvergenceError,
    FitConfig,
    StackModel,
    build_level1,
    default_basis,
    predict,
)
# not called here: perfbench/tracing.py wraps these names on this module too
from .stacking import fit_dynamic, fit_static, select_lambda  # noqa: F401

__all__ = [
    "ExperimentConfig",
    "GraphExperimentReport",
    "binarize_labels",
    "level0_predictors",
    "node_covariate",
    "run_graph_experiment",
    "STATIC_METHODS",
]

STATIC_METHODS = tuple(
    f"{kind}_{design}"
    for kind in ("logistic", "lasso", "ridge")
    for design in ("m1", "m2", "m3")
)
METHODS = ("dynamic", *STATIC_METHODS)


@dataclass(frozen=True)
class ExperimentConfig:
    covariate: str = "closeness"  # or "degree"
    test_fraction: float = 0.8
    reps: int = 10
    folds: int = 10
    seed: int = 0
    interior_knots: int = 6
    spline_degree: int = 3
    bins: int = 100
    threads: int = 1
    fit: FitConfig = field(default_factory=FitConfig)

    def __post_init__(self):
        if self.bins < 1:
            raise ValueError(f"bins must be >= 1, got {self.bins}")


def binarize_labels(graph: Graph, positive_prefix: str) -> Graph:
    """Collapse the label vocabulary to [positive, negative] by prefix match.

    The positive class gets index 0, so the kept (non-dropped) level-0
    probability column is always the positive-class probability.
    """
    pos = np.array(
        [name.startswith(positive_prefix) for name in graph.class_names], dtype=bool
    )
    if not pos.any():
        raise ValueError(f"no label class matches prefix {positive_prefix!r}")
    if pos.all():
        raise ValueError(f"every label class matches prefix {positive_prefix!r}")
    labels = np.where(graph.labels < 0, -1, np.where(pos[graph.labels], 0, 1))
    return graph.with_labels(labels, ["positive", "negative"])


def node_covariate(graph: Graph, kind: str) -> np.ndarray:
    if kind == "degree":
        return degree(graph)
    if kind == "closeness":
        return closeness_centrality(graph)
    raise ValueError(f"unknown covariate {kind!r}; expected 'degree' or 'closeness'")


def level0_predictors(graph: Graph, features: SparseFeatures, ica_seed: int) -> dict:
    """The level-0 classifiers as ``predict(fit_nodes, pred_nodes)`` functions.

    Each one trains on the labels of ``fit_nodes`` alone and returns class
    probabilities for ``pred_nodes``, one row per node. ``local_nb`` is
    multinomial naive Bayes on the nodes' own features; ``wvrn_ica`` is
    wvRN with collective inference in which every node outside
    ``fit_nodes`` is unobserved, its sweep order drawn from ``ica_seed``.
    """

    def local_nb(fit, pred):
        model = fit_nb(features.matrix[fit], graph.labels[fit], graph.class_count)
        return predict_nb(model, features.matrix[pred])

    def wvrn_ica(fit, pred):
        labels = np.full(graph.n_nodes, -1, dtype=np.int64)
        labels[fit] = graph.labels[fit]
        return ica_run(graph, labels, ica_seed).probs[pred]

    return {"local_nb": local_nb, "wvrn_ica": wvrn_ica}


@dataclass
class RepetitionResult:
    accuracies: dict[str, float]
    hard: dict[str, np.ndarray]  # per-test-node hard predictions of the methods that fit
    y_test: np.ndarray
    test_u: np.ndarray
    model: StackModel | None  # the dynamic model; None when its fit diverged


def run_graph_repetition(
    graph: Graph,
    features: SparseFeatures,
    cov: np.ndarray,
    rep_seed: int,
    cfg: ExperimentConfig,
) -> RepetitionResult:
    """One seeded split -> level-0 fits -> stacking fits -> test accuracy."""
    split_seed, fold_seed, ica_seed, cv_seed = child_seeds(rep_seed, 4)
    train, test = split_nodes(graph, cfg.test_fraction, split_seed)
    y = (graph.labels == 0).astype(np.int64)  # class 0 is the positive label

    level0 = level0_predictors(graph, features, ica_seed)
    # fold rows: instance indices into ``train``
    folded = {name: lambda f, h, fn=fn: fn(train[f], train[h]) for name, fn in level0.items()}
    level1 = build_level1(y[train], folded, cov[train], cfg.folds, fold_seed)

    basis = default_basis(level1.u, cfg.interior_knots, cfg.spline_degree)
    where = f"repetition seed {rep_seed}"
    models = {m: fit_method(m, level1, cfg.fit, cv_seed, where, basis) for m in METHODS}

    # test rows: every classifier trained on the full training set
    z_test = np.column_stack([fn(train, test)[:, 0] for fn in level0.values()])
    u_test = cov[test]
    y_test = y[test]

    hard = {
        m: (predict(model, z_test, u_test) > 0.5).astype(np.int64)
        for m, model in models.items()
        if model is not None
    }
    accuracies = {m: accuracy(hard[m], y_test) if m in hard else float("nan") for m in METHODS}
    return RepetitionResult(
        accuracies=accuracies, hard=hard, y_test=y_test, test_u=u_test, model=models["dynamic"]
    )


@dataclass
class GraphExperimentReport:
    methods: list[str]
    accuracies: dict[str, np.ndarray]  # per repetition
    comparisons: dict[str, ComparisonResult]  # dynamic vs each static
    model: StackModel  # the first fitted repetition's dynamic model, for its weight curves
    bin_lo: np.ndarray
    bin_hi: np.ndarray
    bin_counts: np.ndarray  # mean test count per bin
    bin_delta_correct: dict[str, np.ndarray]  # mean(dynamic - static) correct per bin


def run_graph_experiment(
    graph: Graph,
    features: SparseFeatures,
    positive_prefix: str,
    cfg: ExperimentConfig = ExperimentConfig(),
) -> GraphExperimentReport:
    """Repeat seeded experiments on one network and aggregate the reports.

    ``graph`` must be fully labeled; its labels are collapsed to binary
    with :func:`binarize_labels`. The topology covariate is computed once
    (it does not depend on the split).
    """
    bin_graph = binarize_labels(graph, positive_prefix)
    cov = node_covariate(bin_graph, cfg.covariate)
    jobs = [(bin_graph, features, cov, s, cfg) for s in child_seeds(cfg.seed, cfg.reps)]
    results = map_reps(run_graph_repetition, jobs, cfg.threads)

    accuracies = {m: np.array([r.accuracies[m] for r in results]) for m in METHODS}
    # pair each comparison on the repetitions where both methods completed
    comparisons = {}
    for m in STATIC_METHODS:
        ok = ~np.isnan(accuracies[m]) & ~np.isnan(accuracies["dynamic"])
        if ok.sum() >= 2:
            comparisons[m] = paired_comparison(
                accuracies["dynamic"][ok], accuracies[m][ok]
            )
        else:
            comparisons[m] = ComparisonResult(float("nan"), float("nan"), True)

    # bins and curves need the dynamic model; bin edges depend only on the range
    fitted = [r for r in results if r.model is not None]
    if not fitted:
        raise ConvergenceError("the dynamic fit diverged in every repetition")
    vr = (float(cov.min()), float(cov.max()))
    integer_bins = cfg.covariate == "degree"
    counts, diffs = [], {m: [] for m in STATIC_METHODS}
    for r in fitted:
        binned = {
            m: binned_accuracy(r.hard[m], r.y_test, r.test_u, cfg.bins, integer_bins, vr)
            for m in r.hard
        }
        counts.append(binned["dynamic"].counts)
        for m in STATIC_METHODS:
            if m in binned:
                diffs[m].append(binned["dynamic"].correct - binned[m].correct)
    edges = binned["dynamic"]
    delta = {
        m: np.mean(d, axis=0) if d else np.full(len(edges.counts), np.nan)
        for m, d in diffs.items()
    }
    return GraphExperimentReport(
        methods=list(METHODS),
        accuracies=accuracies,
        comparisons=comparisons,
        model=fitted[0].model,
        bin_lo=edges.bin_lo,
        bin_hi=edges.bin_hi,
        bin_counts=np.mean(np.vstack(counts), axis=0),
        bin_delta_correct=delta,
    )
