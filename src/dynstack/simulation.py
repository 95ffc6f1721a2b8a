"""Synthetic comparison of level-1 generalizers on three generative cases.

Each case draws two classifier scores and a covariate uniformly on
[0, 1], puts a standard normal disturbance inside the logit, and flips a
Bernoulli coin: case 1 weights the scores independently of the
covariate, case 2 scales the first score's weight linearly in it, and
case 3 uses a sine-shaped weight the static stackers cannot represent.
The runner repeats fresh-data experiments, scoring every method by test
AUC, and aggregates means and standard deviations across repetitions.
Every level-1 fit, in both experiment drivers and ``stack-fit``, goes
through :func:`fit_method`, which alone decides whether to cross-validate
the penalty strength. In the drivers a fit that does not converge scores
NaN in its repetition (``n_reps`` counts the others), and any other error
stops the run.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import stacking
from .stacking import (
    STATIC_DESIGNS,
    ConvergenceError,
    FitConfig,
    Level1Data,
    check_folds,
    default_basis,
    fit_dynamic,
    fit_static,
    predict,
    select_lambda,
    sigmoid,
)

__all__ = [
    "SimDataset", "SimCell", "SimReport", "METHODS", "generate_case", "auc", "fit_method",
    "run_simulation",
]

log = logging.getLogger(__name__)

KINDS = ("logistic", "lasso", "ridge")  # a static level-1 method is "<kind>_<design>"
METHODS = (
    "random",
    "z1_only",
    "z2_only",
    *(f"{kind}_{design}" for design in STATIC_DESIGNS for kind in KINDS),
    "dynamic",
)


@dataclass(frozen=True)
class SimDataset:
    y: np.ndarray
    z1: np.ndarray
    z2: np.ndarray
    u: np.ndarray

    def to_level1(self) -> Level1Data:
        return Level1Data(self.y, np.column_stack([self.z1, self.z2]), self.u, ["z1", "z2"])


def generate_case(case: int, n: int, seed) -> SimDataset:
    """Draw one synthetic dataset for the given case.

    Draw order is fixed (z1, z2, u, disturbance, response), so a given
    seed always yields the identical dataset.
    """
    if case not in (1, 2, 3):
        raise ValueError(f"unknown case {case}; expected 1, 2, or 3")
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    z1 = rng.uniform(0.0, 1.0, n)
    z2 = rng.uniform(0.0, 1.0, n)
    u = rng.uniform(0.0, 1.0, n)
    w = rng.normal(0.0, 1.0, n)
    if case == 1:
        logit = -3.0 + 3.0 * z1 + 3.0 * z2 + w
    elif case == 2:
        logit = -3.0 + 3.0 * u * z1 + 3.0 * z2 + w
    else:
        logit = -3.0 + 3.0 * np.sin(6.0 * u) * z1 + 3.0 * z2 + w
    y = (rng.uniform(0.0, 1.0, n) < sigmoid(logit)).astype(np.int64)
    return SimDataset(y, z1, z2, u)


def auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Area under the ROC curve: the share of (positive, negative) pairs in
    which the positive scores higher, a tie counting one half; NaN when any
    score is NaN. The pair counts are exact half-integers."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    if scores.shape != labels.shape:
        raise ValueError("scores and labels must be aligned")
    pos = labels == 1
    n_pos = int(pos.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs both classes present")
    if np.isnan(scores).any():
        return np.nan
    # per positive: twice the negatives below it, plus the negatives it ties
    neg = np.sort(scores[~pos])
    twice = np.searchsorted(neg, scores[pos], "left") + np.searchsorted(neg, scores[pos], "right")
    return float(twice.sum() / 2 / (n_pos * n_neg))


@dataclass(frozen=True)
class SimCell:
    case: int
    method: str
    mean_auc: float
    sd_auc: float
    n_reps: int  # repetitions that completed for this cell


@dataclass(frozen=True)
class SimReport:
    cells: list[SimCell]
    raw: dict[tuple[int, str], np.ndarray]  # per-repetition AUC, NaN = failed

    def cell(self, case: int, method: str) -> SimCell:
        for c in self.cells:
            if c.case == case and c.method == method:
                return c
        raise KeyError((case, method))


def child_seeds(seed: int, count: int) -> list[int]:
    """``count`` 64-bit seeds expanded from ``numpy.random.SeedSequence(seed)``."""
    if count < 1:  # both drivers draw their repetition seeds here
        raise ValueError("reps must be >= 1")
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count, np.uint64)]


def map_reps(fn, jobs, threads: int = 1) -> list:
    """``fn(*job)`` for every job, in job order; ``threads > 1`` runs the jobs
    in up to that many worker processes, one per job at most, so ``fn`` and
    the jobs must pickle."""
    if threads < 1:
        raise ValueError("threads must be >= 1")
    workers = min(threads, len(jobs))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, *zip(*jobs), chunksize=1))
    return [fn(*job) for job in jobs]


def parse_method(name: str) -> tuple[str, str]:
    """``(design, penalty)`` of level-1 method ``"dynamic"`` (curvature) or
    ``"<kind>_<design>"``, kind in :data:`KINDS` (logistic is unpenalized)
    and design in ``STATIC_DESIGNS``."""
    if name == "dynamic":
        return "dynamic", "curvature"
    kind, _, design = name.partition("_")
    if kind in KINDS and design in STATIC_DESIGNS:
        return design, "none" if kind == "logistic" else kind
    raise ValueError(f"unknown method {name!r}")


def fit_method(name, train, folds, seed, basis=None, strength=None):
    """Fit level-1 method ``name`` (see :func:`parse_method`) on ``train``, the
    dynamic one on ``basis`` (default :func:`default_basis`). Without a
    ``strength`` the penalty is chosen by ``folds``-fold cross-validation
    seeded with ``seed``. Returns ``(model, cv_report)``; the report is None
    when no cross-validation ran."""
    design, penalty = parse_method(name)
    config = FitConfig(cv_folds=folds)
    report = None
    if design == "dynamic":
        basis = default_basis(train.u) if basis is None else basis
        if strength is None:
            strength, report = select_lambda(train, config, basis, seed=seed)
        return fit_dynamic(train, strength, basis, config), report
    if strength is None and penalty != "none":
        # looked up on stacking, the only binding perfbench/tracing.py wraps
        strength, report = stacking.select_strength(train, design, penalty, config, seed)
    return fit_static(train, design, penalty, strength, config), report


def fit_or_warn(name, train, folds, seed, where, basis=None):
    """The drivers' :func:`fit_method`: a :class:`ConvergenceError` logs one
    warning naming ``where`` and returns None; any other error propagates."""
    try:
        return fit_method(name, train, folds, seed, basis)[0]
    except ConvergenceError as err:
        log.warning("%s: %s failed (%s)", where, name, err)
        return None


def summarize(vals: np.ndarray) -> tuple[float, float, int]:
    """Mean, sample sd and count of the non-NaN (completed) repetitions."""
    ok = vals[~np.isnan(vals)]
    mean = float(ok.mean()) if len(ok) else float("nan")
    sd = float(ok.std(ddof=1)) if len(ok) > 1 else float("nan")
    return mean, sd, len(ok)


def _run_repetition(case, n, rep_seed, methods, folds):
    """One fresh-data experiment; returns per-method AUC (NaN on failure)."""
    data_seed, split_seed, rand_seed, cv_seed = child_seeds(rep_seed, 4)
    data = generate_case(case, n, data_seed).to_level1()
    perm = np.random.default_rng(split_seed).permutation(data.n)
    train = data.subset(np.sort(perm[: data.n // 2]))
    test = data.subset(np.sort(perm[data.n // 2 :]))

    out = {}
    for name in methods:
        if name == "random":
            scores = np.random.default_rng(rand_seed).uniform(0.0, 1.0, test.n)
        elif name == "z1_only":
            scores = test.z[:, 0]
        elif name == "z2_only":
            scores = test.z[:, 1]
        else:
            model = fit_or_warn(name, train, folds, cv_seed, f"case {case} seed {rep_seed}")
            scores = None if model is None else predict(model, test.z, test.u)
        out[name] = float("nan") if scores is None else auc(scores, test.y)
    return out


def run_simulation(
    cases=(1, 2, 3),
    methods=METHODS,
    n: int = 2000,
    reps: int = 50,
    seed: int = 0,
    threads: int = 1,
    folds: int = 10,
) -> SimReport:
    """Repeat the train/test experiment and aggregate AUC per method.

    Repetition seeds come from ``numpy.random.SeedSequence(seed)``
    expanded case-major, so every method inside a repetition sees the
    same data (paired comparisons) and the whole run is reproducible for
    a fixed master seed regardless of ``threads``.
    """
    cases = tuple(cases)
    methods = tuple(methods)
    for m in methods:
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r}; choose from {METHODS}")
    check_folds(folds)
    rep_seeds = child_seeds(seed, len(cases) * reps)
    jobs = [
        (case, n, rep_seeds[ci * reps + r], methods, folds)
        for ci, case in enumerate(cases)
        for r in range(reps)
    ]
    results = map_reps(_run_repetition, jobs, threads)

    cells = []
    raw = {}
    for ci, case in enumerate(cases):
        per_rep = results[ci * reps : (ci + 1) * reps]
        for m in methods:
            raw[(case, m)] = np.array([rep[m] for rep in per_rep])
            cells.append(SimCell(case, m, *summarize(raw[(case, m)])))
    return SimReport(cells, raw)
