"""Spans around dynstack's public functions, recorded from outside the package.

The package's modules copy names with ``from .x import y``, so a function
is wrapped at every module attribute its callers look it up through
(``WRAPS``), not only where it is defined. Spans stay in memory until the
run ends; ``Tracer.restore`` puts every original function back.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import time
from dataclasses import dataclass, field

from workloads import experiment, graph, naive_bayes, simulation, stacking


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    unit: str | None
    tags: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; ``unit`` labels the spans of the current unit."""

    def __init__(self):
        self.spans: list[Span] = []
        self.unit: str | None = None
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def begin(self, name: str, **tags) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter(), float("nan"), parent, self.unit, tags))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._open.pop()
        return span

    def wrap(self, owner, attr: str, name: str, tags=None, counts=None) -> None:
        """Replace ``owner.attr`` by a traced version of it.

        ``tags(bound_arguments)`` labels the span from the call's
        arguments; ``counts(result)`` adds counts read off the return
        value. A call that raises gets ``failures = 1``.
        """
        original = getattr(owner, attr)
        signature = inspect.signature(original)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            labels = {}
            if tags is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                labels = tags(bound.arguments)
            index = tracer.begin(name, **labels)
            try:
                result = original(*args, **kwargs)
            except Exception:
                tracer.end(index).counts["failures"] = 1
                raise
            span = tracer.end(index)
            if counts is not None:
                span.counts.update(counts(result))
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def install(self) -> "Tracer":
        for owners, attr, name, tags, counts in WRAPS:
            for owner in owners:
                self.wrap(owner, attr, name, tags, counts)
        return self

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": s.name,
                            "start": s.start,
                            "end": s.end,
                            "parent": s.parent,
                            "unit": s.unit,
                            "tags": s.tags,
                            "counts": s.counts,
                        }
                    )
                    + "\n"
                )


def _penalty_design(args) -> dict:
    return {"penalty": args["penalty"], "design": args["design"]}


def _lambda_counts(result) -> dict:
    lam, report = result
    grid = [g for g, _ in report]
    return {"edge_of_grid": int(lam in (grid[0], grid[-1]))}


def _newton_counts(model) -> dict:
    return {"newton_steps": len(model.objective_path) - 1, "unconverged": int(not model.converged)}


def _ica_counts(result) -> dict:
    return {
        "sweeps": result.n_sweeps,
        "null_nodes": int(result.was_null.sum()),
        "unconverged": int(not result.converged),
    }


# (modules the callers look the name up in, attribute, span name, tags, counts)
WRAPS = [
    ((simulation,), "generate_case", "simulation.generate_case", None, None),
    ((simulation,), "auc", "simulation.auc", None, None),
    ((simulation, experiment, stacking), "select_lambda", "stacking.select_lambda", None, _lambda_counts),
    ((simulation, experiment, stacking), "fit_dynamic", "stacking.fit_dynamic", None, _newton_counts),
    ((simulation, experiment), "fit_static", "stacking.fit_static", _penalty_design, _newton_counts),
    ((stacking,), "select_strength", "stacking.select_strength", _penalty_design, None),
    ((stacking,), "dynamic_design", "stacking.dynamic_design", None, None),
    ((stacking,), "basis_matrix", "splines.basis_matrix", None, None),
    ((stacking,), "curvature_penalty", "splines.curvature_penalty", None, None),
    ((experiment,), "build_level1", "stacking.build_level1", None, None),
    ((stacking,), "read_level1", "stacking.read_level1", None, None),
    ((experiment,), "ica_run", "relational.ica_run", None, _ica_counts),
    ((experiment,), "closeness_centrality", "graph.closeness_centrality", None, None),
    ((experiment,), "fit_nb", "naive_bayes.fit_nb", None, None),
    ((experiment,), "predict_nb", "naive_bayes.predict_nb", None, None),
    ((experiment,), "binned_accuracy", "metrics.binned_accuracy", None, None),
    ((experiment,), "run_graph_experiment", "experiment.run_graph_experiment", None, None),
    ((graph,), "parse_edge_list", "graph.parse_edge_list", None, None),
    ((graph,), "largest_connected_component", "graph.largest_connected_component", None, None),
    ((naive_bayes,), "parse_feature_file", "naive_bayes.parse_feature_file", None, None),
]

# Spans of the load path; their metrics are medians over repeated set-ups.
SETUP_SPANS = {
    "stacking.read_level1",
    "graph.parse_edge_list",
    "graph.largest_connected_component",
    "naive_bayes.parse_feature_file",
}


def _metric_specs():
    """(metric, unit, span name, quantity, tag filter) for every layer metric.

    The quantity is ``s`` (summed duration), ``self_s`` (duration minus
    child spans), ``calls`` or the name of a count read off the result.
    """
    specs = []
    for penalty in ("lasso", "ridge"):
        for design in ("m1", "m2", "m3"):
            specs.append(
                (
                    f"stacking.select_strength.{penalty}.{design}.s",
                    "s",
                    "stacking.select_strength",
                    "s",
                    {"penalty": penalty, "design": design},
                )
            )
    specs += [
        ("stacking.fit_static.self_s", "s", "stacking.fit_static", "self_s", None),
        ("stacking.fit_static.failures", "count", "stacking.fit_static", "failures", None),
        ("stacking.fit_static.newton_steps", "count", "stacking.fit_static", "newton_steps", None),
        ("stacking.select_lambda.s", "s", "stacking.select_lambda", "s", None),
        ("stacking.select_lambda.edge_of_grid", "count", "stacking.select_lambda", "edge_of_grid", None),
        ("stacking.dynamic_design.s", "s", "stacking.dynamic_design", "s", None),
        ("stacking.fit_dynamic.s", "s", "stacking.fit_dynamic", "s", None),
        ("stacking.fit_dynamic.newton_steps", "count", "stacking.fit_dynamic", "newton_steps", None),
        ("stacking.fit_dynamic.unconverged", "count", "stacking.fit_dynamic", "unconverged", None),
        ("stacking.build_level1.self_s", "s", "stacking.build_level1", "self_s", None),
        ("stacking.read_level1.s", "s", "stacking.read_level1", "s", None),
        ("splines.basis_matrix.s", "s", "splines.basis_matrix", "s", None),
        ("splines.basis_matrix.calls", "count", "splines.basis_matrix", "calls", None),
        ("splines.curvature_penalty.s", "s", "splines.curvature_penalty", "s", None),
        ("splines.curvature_penalty.calls", "count", "splines.curvature_penalty", "calls", None),
        ("relational.ica_run.s", "s", "relational.ica_run", "s", None),
        ("relational.ica_run.calls", "count", "relational.ica_run", "calls", None),
        ("relational.ica_run.sweeps", "count", "relational.ica_run", "sweeps", None),
        ("relational.ica_run.null_nodes", "count", "relational.ica_run", "null_nodes", None),
        ("relational.ica_run.unconverged", "count", "relational.ica_run", "unconverged", None),
        ("graph.closeness_centrality.s", "s", "graph.closeness_centrality", "s", None),
        ("graph.parse_edge_list.s", "s", "graph.parse_edge_list", "s", None),
        ("graph.largest_connected_component.s", "s", "graph.largest_connected_component", "s", None),
        ("naive_bayes.parse_feature_file.s", "s", "naive_bayes.parse_feature_file", "s", None),
        ("naive_bayes.fit_nb.s", "s", "naive_bayes.fit_nb", "s", None),
        ("naive_bayes.fit_nb.calls", "count", "naive_bayes.fit_nb", "calls", None),
        ("naive_bayes.predict_nb.s", "s", "naive_bayes.predict_nb", "s", None),
        ("simulation.generate_case.s", "s", "simulation.generate_case", "s", None),
        ("simulation.auc.s", "s", "simulation.auc", "s", None),
        ("metrics.binned_accuracy.s", "s", "metrics.binned_accuracy", "s", None),
        ("experiment.run_graph_experiment.self_s", "s", "experiment.run_graph_experiment", "self_s", None),
    ]
    return specs


METRIC_SPECS = _metric_specs()

# Shares of the traced unit's wall time that show which layers a workload
# exercises: (metric, span names, tag filter).
SHARES = [
    ("share.lasso_select_strength", ("stacking.select_strength",), {"penalty": "lasso"}),
    ("share.ica_run_plus_closeness", ("relational.ica_run", "graph.closeness_centrality"), None),
    ("share.select_lambda", ("stacking.select_lambda",), None),
]


def _matches(span: Span, names, where: dict | None) -> bool:
    return span.name in names and not (where and any(span.tags.get(k) != v for k, v in where.items()))


def _quantity(span: Span, quantity: str, child_time: float) -> float:
    if quantity == "s":
        return span.duration
    if quantity == "self_s":
        return span.duration - child_time
    if quantity == "calls":
        return 1
    return span.counts.get(quantity, 0)


def layer_metrics(spans: list[Span], unit_ids: list[str], setup_ids: list[str]) -> dict:
    """Median over units (or over set-ups, for load-path spans) of each
    metric summed within one unit; layers a workload never calls read 0."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.duration
    totals: dict[tuple[str, str], float] = {}
    for i, s in enumerate(spans):
        for metric, _, name, quantity, where in METRIC_SPECS:
            if not _matches(s, (name,), where):
                continue
            key = (metric, s.unit)
            totals[key] = totals.get(key, 0.0) + _quantity(s, quantity, child_time[i])
    out = {}
    for metric, unit, name, _, _ in METRIC_SPECS:
        groups = setup_ids if name in SETUP_SPANS else unit_ids
        values = [totals.get((metric, g), 0.0) for g in groups]
        out[metric] = {"value": statistics.median(values) if values else 0.0, "unit": unit}
    unit_spans = {s.unit: s.duration for s in spans if s.name == "unit" and s.unit in unit_ids}
    for metric, names, where in SHARES:
        shares = []
        for u in unit_ids:
            busy = sum(s.duration for s in spans if s.unit == u and _matches(s, names, where))
            shares.append(busy / unit_spans[u])
        out[metric] = {"value": statistics.median(shares) if shares else 0.0, "unit": "ratio"}
    return out
