"""The three benchmark workloads: seeded inputs, set-up, one unit, output check.

Every workload draws its inputs from a fixed pool of seeds whose outputs
were recorded in ``references.json`` (see ``record.py``). The run seed
picks the pool entries and their order, so the same seed always yields
the same inputs and every unit can be checked against a reference.

The dynstack package is imported from ``src/`` of the checkout this file
lives in; nothing else of the repository is used.
"""

from __future__ import annotations

import json
import logging
import math
import sys
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
if not (SRC / "dynstack" / "__init__.py").is_file():
    raise ImportError(f"no dynstack sources under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from dynstack import experiment, graph, naive_bayes, simulation, stacking, synth  # noqa: E402

REFERENCES = HERE / "references.json"
POSITIVE_PREFIX = "topic/positive"

# Input sizes. "full" is the benchmark; "tiny" is for the benchmark's tests.
SIZES = {
    "full": {"sim_n": 2000, "graph_nodes": 5000, "level1_rows": 20000, "heldout_rows": 2000},
    "tiny": {"sim_n": 300, "graph_nodes": 300, "level1_rows": 600, "heldout_rows": 100},
}
# Pool sizes: (input sets, unit seeds per input set). Each run uses one
# input set and cycles through that set's unit seeds in a seeded order.
# Simulation repetitions differ up to twofold in cost, so that pool is no
# larger than the units one run completes: every run then covers nearly
# the same seeds and its median does not hinge on which ones were drawn.
POOLS = {
    "full": {"sim_case3": (1, 8), "graph_closeness": (6, 3), "stackfit_dynamic": (6, 6)},
    "tiny": {"sim_case3": (1, 3), "graph_closeness": (2, 2), "stackfit_dynamic": (2, 2)},
}
# Absolute tolerances for the output check; lambda must match exactly.
TOLERANCE = {"auc": 1e-6, "accuracy": 1e-6, "prediction": 1e-7}

# Held-out predictions are compared through this many evenly spaced rows
# plus their mean and a fixed random projection of the whole vector.
PREDICTION_SAMPLES = 25

# logistic m2/m3 diverge on closeness-scaled inputs; the failure is part of
# the recorded output, not an error of the benchmark.
logging.getLogger("dynstack").setLevel(logging.ERROR)


@dataclass(frozen=True)
class Plan:
    """What one run executes: an input set and the unit seeds in order."""

    workload: str
    size: str
    input_index: int
    unit_seeds: tuple[int, ...]

    def unit_seed(self, i: int) -> int:
        return self.unit_seeds[i % len(self.unit_seeds)]

    def key(self, unit_seed: int) -> str:
        return f"{self.input_index}/{unit_seed}"


def make_plan(workload: str, size: str, seed: int) -> Plan:
    n_inputs, n_units = POOLS[size][workload]
    rng = np.random.default_rng(seed)
    input_index = int(rng.integers(n_inputs))
    order = tuple(int(s) for s in rng.permutation(n_units))
    return Plan(workload, size, input_index, order)


def _input_seed(workload: str, index: int) -> int:
    # distinct, fixed seeds per workload so the input sets never coincide
    return 1000 * (1 + WORKLOAD_NAMES.index(workload)) + index


# ---------------------------------------------------------------------------
# sim_case3: one case-3 simulation repetition with all 13 methods


def sim_inputs(plan: Plan, workdir: Path) -> None:
    """No files: a unit is fully described by its seed."""


def sim_setup(plan: Plan, workdir: Path):
    return SIZES[plan.size]["sim_n"]


def sim_unit(state, unit_seed: int) -> dict:
    report = simulation.run_simulation(cases=(3,), n=state, reps=1, seed=unit_seed, threads=1)
    return {"auc": {m: float(report.raw[(3, m)][0]) for m in simulation.METHODS}}


# ---------------------------------------------------------------------------
# graph_closeness: the network pipeline on a planted network with closeness


def graph_inputs(plan: Plan, workdir: Path) -> None:
    net = synth.planted_homophily_network(
        n_nodes=SIZES[plan.size]["graph_nodes"],
        seed=_input_seed(plan.workload, plan.input_index),
    )
    net.write(workdir / "edges.txt", workdir / "labels.csv", workdir / "features.txt")


def graph_setup(plan: Plan, workdir: Path):
    """The ``graph-experiment --lcc`` load path of the command-line tool."""
    edge_lines = (workdir / "edges.txt").read_text().splitlines()
    g = graph.attach_labels(
        graph.parse_edge_list(edge_lines), graph.read_label_file(workdir / "labels.csv")
    )
    feature_lines = (workdir / "features.txt").read_text().splitlines()
    features = naive_bayes.parse_feature_file(feature_lines, g.node_ids)
    original_index = {nid: i for i, nid in enumerate(g.node_ids)}
    labeled = np.flatnonzero(g.labels >= 0)
    if len(labeled) < g.n_nodes:
        g = g.subgraph(labeled)
    g = graph.largest_connected_component(g)
    if g.n_nodes < len(original_index):
        keep = np.array([original_index[nid] for nid in g.node_ids])
        features = type(features)(features.matrix[keep], features.vocabulary)
    return g, features


def graph_unit(state, unit_seed: int) -> dict:
    g, features = state
    cfg = experiment.ExperimentConfig(
        covariate="closeness", test_fraction=0.8, folds=10, reps=1, seed=unit_seed, threads=1
    )
    report = experiment.run_graph_experiment(g, features, POSITIVE_PREFIX, cfg)
    acc = {m: float(report.accuracies[m][0]) for m in report.methods}
    return {"accuracy": acc, "failed_methods": sorted(m for m, v in acc.items() if math.isnan(v))}


# ---------------------------------------------------------------------------
# stackfit_dynamic: stack-fit --model dynamic plus stack-predict on a large table


def stackfit_inputs(plan: Plan, workdir: Path) -> None:
    sizes = SIZES[plan.size]
    seed = _input_seed(plan.workload, plan.input_index)
    train = simulation.generate_case(3, sizes["level1_rows"], seed).to_level1()
    heldout = simulation.generate_case(3, sizes["heldout_rows"], seed + 500).to_level1()
    stacking.write_level1(workdir / "level1.csv", train)
    stacking.write_level1(workdir / "heldout.csv", heldout)


def stackfit_setup(plan: Plan, workdir: Path):
    """The ``stack-fit`` and ``stack-predict`` load path: both level-1 CSVs."""
    train = stacking.read_level1(workdir / "level1.csv")
    heldout = stacking.read_level1(workdir / "heldout.csv", require_y=False)
    return train, heldout


def stackfit_unit(state, unit_seed: int) -> dict:
    train, heldout = state
    config = stacking.FitConfig(cv_folds=10)
    basis = stacking.default_basis(train.u, 6, 3)
    lam, _ = stacking.select_lambda(train, config, basis, seed=unit_seed)
    model = stacking.fit_dynamic(train, lam, basis, config)
    probs = stacking.predict_dynamic(model, heldout.z, heldout.u)
    return {"lambda": lam, "prediction": prediction_summary(probs)}


def prediction_summary(probs: np.ndarray) -> dict:
    probs = np.asarray(probs, dtype=float)
    idx = np.linspace(0, len(probs) - 1, PREDICTION_SAMPLES).round().astype(int)
    weights = np.random.default_rng(0).standard_normal(len(probs))
    return {
        "mean": float(probs.mean()),
        "projection": float(probs @ weights) / len(probs),
        "samples": [float(v) for v in probs[idx]],
    }


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    make_inputs: object
    setup: object
    unit: object
    fits_per_unit: int  # method fits counted in failed_share
    warmup: bool = False  # the first unit of a run is checked but not timed


WORKLOADS = {
    "sim_case3": Workload(sim_inputs, sim_setup, sim_unit, 13),
    "graph_closeness": Workload(graph_inputs, graph_setup, graph_unit, 10),
    # the first unit on the 20,000-row table runs 20-30% slower than the rest
    "stackfit_dynamic": Workload(stackfit_inputs, stackfit_setup, stackfit_unit, 1, warmup=True),
}
WORKLOAD_NAMES = list(WORKLOADS)


def failed_fits(workload: str, output: dict) -> int:
    """Method fits of one unit that failed (NaN score or a raised error)."""
    if workload == "sim_case3":
        return sum(math.isnan(v) for v in output["auc"].values())
    if workload == "graph_closeness":
        return len(output["failed_methods"])
    return 0


# ---------------------------------------------------------------------------
# output check


def load_references() -> dict:
    with open(REFERENCES) as fh:
        return json.load(fh)


def _close(a: float, b: float, tol: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= tol


def check_output(output: dict, reference: dict | None) -> list[str]:
    """Differences between a unit's output and its recorded reference."""
    if reference is None:
        return ["no recorded reference for this input"]
    diffs = []
    for kind in ("auc", "accuracy"):
        for method, want in reference.get(kind, {}).items():
            got = output[kind].get(method, float("nan"))
            if not _close(got, want, TOLERANCE[kind]):
                diffs.append(f"{kind}[{method}] = {got!r}, reference {want!r}")
    if "failed_methods" in reference and output["failed_methods"] != reference["failed_methods"]:
        diffs.append(
            f"failed methods {output['failed_methods']}, reference {reference['failed_methods']}"
        )
    if "lambda" in reference and output["lambda"] != reference["lambda"]:
        diffs.append(f"lambda = {output['lambda']!r}, reference {reference['lambda']!r}")
    if "prediction" in reference:
        got, want = output["prediction"], reference["prediction"]
        tol = TOLERANCE["prediction"]
        pairs = [("mean", got["mean"], want["mean"]), ("projection", got["projection"], want["projection"])]
        pairs += [(f"samples[{i}]", g, w) for i, (g, w) in enumerate(zip(got["samples"], want["samples"]))]
        for label, g, w in pairs:
            if not _close(g, w, tol):
                diffs.append(f"prediction {label} = {g!r}, reference {w!r}")
    return diffs
