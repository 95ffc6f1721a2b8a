"""End-to-end network experiments: level-0 classifiers, stacking, reports.

One repetition seeds a train/test split, trains the local text
classifier and the relational classifier on the training nodes, builds
level-1 data from their in-train cross-validated predictions, fits the
dynamic generalizer and the static baselines, and scores everything on
the masked test nodes. The driver repeats this, then aggregates mean
accuracies, paired comparisons against the dynamic model, and per-bin
accuracy differences across the covariate range.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .graph import (
    Graph,
    NodeCovariate,
    SplitSpec,
    closeness_centrality,
    degree,
    split_nodes,
)
from .metrics import ComparisonResult, accuracy, binned_accuracy, paired_comparison
from .naive_bayes import SparseFeatures, fit_nb, predict_nb
from .relational import IcaConfig, ica_run
from .simulation import child_seeds, map_reps
from .stacking import (
    ConvergenceError,
    DynamicStackModel,
    FitConfig,
    build_level1,
    default_basis,
    coefficient_curves,
    fit_dynamic,
    fit_static,
    predict_dynamic,
    predict_static,
    select_lambda,
)

__all__ = [
    "ExperimentConfig",
    "GraphExperimentReport",
    "binarize_labels",
    "node_covariate",
    "run_graph_experiment",
    "STATIC_METHODS",
]

log = logging.getLogger(__name__)

STATIC_METHODS = tuple(
    f"{kind}_{design}"
    for kind in ("logistic", "lasso", "ridge")
    for design in ("m1", "m2", "m3")
)


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


def node_covariate(graph: Graph, kind: str) -> NodeCovariate:
    if kind == "degree":
        return degree(graph)
    if kind == "closeness":
        return closeness_centrality(graph)
    raise ValueError(f"unknown covariate {kind!r}; expected 'degree' or 'closeness'")


class LocalNaiveBayesClassifier:
    """Level-0 adapter: multinomial NB over the training nodes' features."""

    name = "local_nb"

    def __init__(self, features, labels, n_classes: int):
        self.features = features  # csr rows aligned with the instance indices
        self.labels = np.asarray(labels, dtype=np.int64)
        self.n_classes = n_classes

    def heldout_probs(self, fit_idx, heldout_idx):
        model = fit_nb(self.features[fit_idx], self.labels[fit_idx], self.n_classes)
        return predict_nb(model, self.features[heldout_idx])


class RelationalIcaClassifier:
    """Level-0 adapter: wvRN + collective inference with fold labels masked.

    Training on a fold's complement means running inference with that
    fold's labels nulled out (on top of the already-masked test nodes)
    and reading off the fold nodes' terminal soft distributions.
    """

    name = "wvrn_ica"

    def __init__(self, masked_graph: Graph, train_nodes, config: IcaConfig):
        self.graph = masked_graph
        self.train_nodes = np.asarray(train_nodes, dtype=np.int64)
        self.config = config
        self.n_classes = masked_graph.class_count

    def heldout_probs(self, fit_idx, heldout_idx):
        labels = np.full(self.graph.n_nodes, -1, dtype=np.int64)
        keep = self.train_nodes[fit_idx]
        labels[keep] = self.graph.labels[keep]
        result = ica_run(self.graph, labels, self.config)
        return result.probs[self.train_nodes[heldout_idx]]


@dataclass
class RepetitionResult:
    accuracies: dict[str, float]
    hard: dict[str, np.ndarray]  # per-test-node hard predictions of the methods that fit
    y_test: np.ndarray
    test_u: np.ndarray
    model: DynamicStackModel


def run_graph_repetition(
    graph: Graph,
    features: SparseFeatures,
    cov: NodeCovariate,
    rep_seed: int,
    cfg: ExperimentConfig,
) -> RepetitionResult:
    """One seeded split -> level-0 fits -> stacking fits -> test accuracy."""
    split_seed, fold_seed, ica_seed, cv_seed = child_seeds(rep_seed, 4)
    train, test = split_nodes(graph, SplitSpec(cfg.test_fraction, split_seed))
    masked = graph.mask_labels(test)
    y = (graph.labels == 0).astype(np.int64)  # class 0 is the positive label

    nb = LocalNaiveBayesClassifier(features.matrix[train], graph.labels[train], graph.class_count)
    ica_cfg = IcaConfig(order_seed=ica_seed)
    rel = RelationalIcaClassifier(masked, train, ica_cfg)
    level1 = build_level1(y[train], [nb, rel], cov.values[train], cfg.folds, fold_seed)

    basis = default_basis(level1.u, cfg.interior_knots, cfg.spline_degree)
    lam, _ = select_lambda(level1, cfg.fit, basis, seed=cv_seed)
    dynamic = fit_dynamic(level1, lam, basis, cfg.fit)
    statics = {}
    for name in STATIC_METHODS:
        kind, design = name.split("_")
        try:
            statics[name] = fit_static(
                level1,
                design=design,
                penalty="none" if kind == "logistic" else kind,
                config=cfg.fit,
                cv_seed=cv_seed,
            )
        except ConvergenceError as err:
            # a separable unpenalized fit loses its repetition, not the run
            log.warning("repetition seed %d: %s failed (%s)", rep_seed, name, err)
            statics[name] = None

    # level-0 predictions for the test nodes from the full training set
    nb_model = fit_nb(features.matrix[train], graph.labels[train], graph.class_count)
    nb_test = predict_nb(nb_model, features.matrix[test])
    rel_test = ica_run(masked, None, ica_cfg).probs[test]
    z_test = np.column_stack([nb_test[:, 0], rel_test[:, 0]])
    u_test = cov.values[test]
    y_test = y[test]

    accuracies, hard = {}, {}
    preds = {"dynamic": predict_dynamic(dynamic, z_test, u_test)}
    for name, model in statics.items():
        preds[name] = None if model is None else predict_static(model, z_test, u_test)
    for name, p in preds.items():
        if p is None:
            accuracies[name] = float("nan")
            continue
        hard[name] = (p > 0.5).astype(np.int64)
        accuracies[name] = accuracy(hard[name], y_test)

    return RepetitionResult(
        accuracies=accuracies, hard=hard, y_test=y_test, test_u=u_test, model=dynamic
    )


@dataclass
class GraphExperimentReport:
    methods: list[str]
    accuracies: dict[str, np.ndarray]  # per repetition
    comparisons: dict[str, ComparisonResult]  # dynamic vs each static
    curves_u: np.ndarray
    curves: np.ndarray
    curve_columns: list[str]
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

    methods = ["dynamic", *STATIC_METHODS]
    accuracies = {
        m: np.array([r.accuracies[m] for r in results]) for m in methods
    }
    # pair each comparison on the repetitions where both methods completed
    comparisons = {}
    for m in STATIC_METHODS:
        ok = ~np.isnan(accuracies[m])
        if ok.sum() >= 2:
            comparisons[m] = paired_comparison(
                accuracies["dynamic"][ok], accuracies[m][ok]
            )
        else:
            comparisons[m] = ComparisonResult(float("nan"), float("nan"), True)

    integer_bins = cfg.covariate == "degree"
    vr = (float(cov.values.min()), float(cov.values.max()))
    per_method_bins: dict[str, list] = {m: [] for m in methods}
    counts = []
    for r in results:
        for m in methods:
            if np.isnan(r.accuracies[m]):
                per_method_bins[m].append(None)
                continue
            b = binned_accuracy(
                r.hard[m],
                r.y_test,
                r.test_u,
                bins=cfg.bins,
                integer_bins=integer_bins,
                value_range=vr,
            )
            per_method_bins[m].append(b)
        counts.append(per_method_bins["dynamic"][-1].counts)

    first = per_method_bins["dynamic"][0]
    all_nan = np.full(len(first.counts), np.nan)
    delta = {}
    for m in STATIC_METHODS:
        diffs = [
            d.correct - s.correct
            for d, s in zip(per_method_bins["dynamic"], per_method_bins[m])
            if s is not None
        ]
        delta[m] = np.mean(np.vstack(diffs), axis=0) if diffs else all_nan

    # only the first repetition's weight curves are reported
    model = results[0].model
    curves_u = np.linspace(model.basis.u_lo, model.basis.u_hi, 200)
    return GraphExperimentReport(
        methods=methods,
        accuracies=accuracies,
        comparisons=comparisons,
        curves_u=curves_u,
        curves=coefficient_curves(model, curves_u),
        curve_columns=model.columns,
        bin_lo=first.bin_lo,
        bin_hi=first.bin_hi,
        bin_counts=np.mean(np.vstack(counts), axis=0),
        bin_delta_correct=delta,
    )
