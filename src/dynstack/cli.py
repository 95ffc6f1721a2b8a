"""Command-line entry points for reproducible experiment runs.

Every subcommand writes its artifacts plus a ``manifest.txt`` recording
the fully resolved parameters; rerunning with the same flags (or the
flags read back from a manifest) reproduces the outputs byte for byte.
A run that fails writes nothing: :func:`main` exits 1, or 2 for a flag the
command cannot use, after one ``error:`` line on stderr.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from . import experiment as exp
from .graph import (
    GraphParseError,
    attach_labels,
    largest_connected_component,
    parse_edge_list,
    read_label_file,
)
from .naive_bayes import parse_feature_file
from .simulation import METHODS, fit_method, parse_method, run_simulation, summarize
from .stacking import (
    DEFAULT_DEGREE,
    DEFAULT_KNOTS,
    StackModel,
    check_folds,
    coefficient_curves,
    default_basis,
    load_model,
    predict,
    read_level1,
    save_model,
)


class _UsageError(ValueError):
    """A flag the command cannot use; :func:`main` exits 2 on it."""


def _fmt_value(v) -> str:
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, (list, tuple)):
        return ",".join(str(x) for x in v)
    return str(v)


def _manifest(args, omit=(), **resolved) -> str:
    """Record every parsed flag but ``--out`` and ``omit``; ``resolved`` overrides values."""
    params = {k: v for k, v in vars(args).items() if k not in ("command", "func", "out", *omit)}
    params.update(resolved)
    lines = [f"command = {args.command}"]
    lines += [f"{k} = {_fmt_value(v)}" for k, v in sorted(params.items())]
    return "\n".join(lines) + "\n"


def _curves(model: StackModel, points: int):
    """``points`` rows over the model's domain: ``u``, then each weight curve there."""
    grid = np.linspace(model.basis.u_lo, model.basis.u_hi, points)
    curves = coefficient_curves(model, grid)
    rows = [[repr(float(u))] + [repr(float(v)) for v in row] for u, row in zip(grid, curves)]
    return ["u"] + list(model.columns), rows


def _parse_file(parse, path, *args):
    """Run a ``line N: ...`` line parser on a file; errors name the file."""
    try:
        return parse(Path(path).read_text().splitlines(), *args)
    except GraphParseError as err:
        raise GraphParseError(f"{path} {err}") from None


# ---------------------------------------------------------------------------
# Each command returns ``(files, manifest text)`` or raises. ``files`` maps a
# file name to a CSV ``(header, rows)`` or to a writer taking the file's path.


def cmd_simulate(args):
    methods = tuple(args.methods.split(",")) if args.methods else METHODS
    report = run_simulation(
        cases=(args.case,),
        methods=methods,
        n=args.n,
        reps=args.reps,
        seed=args.seed,
        threads=args.threads,
        folds=args.folds,
    )
    files = {
        "simulation_report.csv": (
            ["case", "method", "mean_auc", "sd_auc", "n_reps"],
            [
                [c.case, c.method, repr(c.mean_auc), repr(c.sd_auc), c.n_reps]
                for c in report.cells
            ],
        )
    }
    if args.raw:
        rows = []
        for (case, method), vals in report.raw.items():
            rows += [
                [case, method, r, repr(float(v))] for r, v in enumerate(vals)
            ]
        files["simulation_raw.csv"] = (["case", "method", "rep", "auc"], rows)
    return files, _manifest(args, methods=list(methods))


def cmd_graph_experiment(args):
    cfg = exp.ExperimentConfig(
        covariate=args.covariate,
        test_fraction=args.test_fraction,
        reps=args.reps,
        folds=args.folds,
        seed=args.seed,
        interior_knots=args.knots,
        spline_degree=args.spline_degree,
        bins=exp.ExperimentConfig.bins if args.bins is None else args.bins,
        threads=args.threads,
    )
    if args.covariate == "degree" and args.bins is not None:
        raise _UsageError(
            "--bins does not apply to --covariate degree, which is binned one integer per bin"
        )
    graph = attach_labels(_parse_file(parse_edge_list, args.edges), read_label_file(args.labels))
    features = _parse_file(parse_feature_file, args.features, graph.node_ids)
    original_index = {nid: i for i, nid in enumerate(graph.node_ids)}
    # nodes without labels cannot enter a fully labeled split
    labeled = np.flatnonzero(graph.labels >= 0)
    if len(labeled) < graph.n_nodes:
        graph = graph.subgraph(labeled)
    if args.lcc:
        graph = largest_connected_component(graph)
    if graph.n_nodes < len(original_index):
        keep = np.array([original_index[nid] for nid in graph.node_ids])
        features = type(features)(features.matrix[keep], features.vocabulary)

    try:
        report = exp.run_graph_experiment(graph, features, args.positive_label, cfg)
    except ValueError as err:
        if "connected" not in str(err):
            raise
        raise ValueError(f"{err}; pass --lcc to do so") from err

    acc_rows = []
    for m in report.methods:
        mean, sd, n_reps = summarize(report.accuracies[m])
        acc_rows.append([m, *("" if np.isnan(v) else repr(v) for v in (mean, sd)), n_reps])
    delta_rows = []
    for m, deltas in report.bin_delta_correct.items():
        for lo, hi, cnt, d in zip(report.bin_lo, report.bin_hi, report.bin_counts, deltas):
            delta_rows.append([m, repr(float(lo)), repr(float(hi)), repr(float(cnt)), repr(float(d))])
    files = {
        "accuracy_report.csv": (["method", "mean_accuracy", "sd_accuracy", "n_reps"], acc_rows),
        "paired_comparisons.csv": (
            ["method_a", "method_b", "mean_diff", "p_value"],
            [
                ["dynamic", m, repr(c.mean_diff), repr(c.p_value)]
                for m, c in report.comparisons.items()
            ],
        ),
        "binned_deltas.csv": (
            ["method", "bin_lo", "bin_hi", "mean_count", "mean_delta_correct"],
            delta_rows,
        ),
        "coefficient_curves.csv": _curves(report.model, 200),
    }
    return files, _manifest(args, bins=cfg.bins)


def cmd_centrality(args):
    graph = largest_connected_component(_parse_file(parse_edge_list, args.edges))
    values = exp.node_covariate(graph, args.kind)
    rows = [[nid, repr(float(v))] for nid, v in zip(graph.node_ids, values)]
    return {"covariate.csv": (["node_id", "value"], rows)}, _manifest(args)


def cmd_stack_fit(args):
    design, penalty = parse_method(args.model)
    static = design != "dynamic"
    # a flag the chosen model never reads would still be written to the manifest
    skip = {"strength": penalty == "none", "knots": static, "spline_degree": static}
    unread = [f for f in skip if skip[f]]
    flag = next((f for f in unread if getattr(args, f) is not None), None)
    if flag is not None:
        flag = "--" + flag.replace("_", "-")
        raise _UsageError(f"{flag} does not apply to --model {args.model}")
    check_folds(args.folds)
    data = read_level1(args.level1)
    strength, basis = args.strength, None
    resolved = {} if penalty == "none" else {"strength": "cv" if strength is None else strength}
    if not static:
        knots = DEFAULT_KNOTS if args.knots is None else args.knots
        degree = DEFAULT_DEGREE if args.spline_degree is None else args.spline_degree
        resolved.update(knots=knots, spline_degree=degree)
        basis = default_basis(data.u, knots, degree)
    model, cv_report = fit_method(args.model, data, args.folds, args.seed, basis, strength)
    files = {"model.txt": lambda path: save_model(path, model)}
    if cv_report is not None:
        files["cv_report.csv"] = (
            ["penalty_strength", "heldout_nll"],
            [[repr(lam), repr(score)] for lam, score in cv_report],
        )
    return files, _manifest(args, unread, chosen_strength=model.strength, **resolved)


def cmd_stack_predict(args):
    model = load_model(args.model)
    data = read_level1(args.data, require_y=False)
    if data.p != model.p:
        raise ValueError(
            f"{args.data} has {data.p} z columns; {args.model} was fitted on {model.p}"
        )
    probs = predict(model, data.z, data.u)
    rows = [[i, repr(float(p))] for i, p in enumerate(probs)]
    return {"predictions.csv": (["row", "probability"], rows)}, _manifest(args)


def cmd_curves(args):
    if args.points < 1:
        raise _UsageError(f"--points must be >= 1, got {args.points}")
    model = load_model(args.model)
    if model.design != "dynamic":
        raise ValueError(f"{args.model}: coefficient curves require a dynamic model file")
    return {"curves.csv": _curves(model, args.points)}, _manifest(args)


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dynstack",
        description="Dynamic stacked generalization for node classification on networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=False, threads=False):
        if seed:
            p.add_argument("--seed", type=int, default=0, help="master random seed")
        p.add_argument("--out", default=".", help="output directory")
        if threads:
            p.add_argument(
                "--threads", type=int, default=1,
                help="parallel worker processes, at most one per repetition",
            )

    p = sub.add_parser("simulate", help="synthetic level-1 comparison of generalizers")
    p.add_argument("--case", type=int, required=True, choices=(1, 2, 3))
    p.add_argument("--n", type=int, default=2000)
    p.add_argument("--reps", type=int, default=50)
    p.add_argument("--methods", default="", help="comma list; default = all methods")
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--raw", action="store_true", help="also write per-repetition AUCs")
    common(p, seed=True, threads=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser(
        "graph-experiment",
        help="full pipeline on a labeled network with node text features",
    )
    p.add_argument("--edges", required=True, help="edge list file: id1 id2 [weight]")
    p.add_argument("--labels", required=True, help="CSV node_id,label")
    p.add_argument("--features", required=True, help="lines: node_id term:weight ...")
    p.add_argument("--covariate", choices=("degree", "closeness"), default="closeness")
    p.add_argument("--test-fraction", type=float, default=0.8)
    p.add_argument("--reps", type=int, default=10)
    p.add_argument("--folds", type=int, default=10)
    p.add_argument(
        "--positive-label",
        required=True,
        help="label prefix mapped to the positive class (unlabeled nodes are dropped)",
    )
    p.add_argument("--lcc", action="store_true", help="keep only the largest connected component")
    p.add_argument(
        "--bins",
        type=int,
        default=None,
        help="closeness bins (default 100); degree is binned one integer per bin",
    )
    p.add_argument("--knots", type=int, default=DEFAULT_KNOTS)
    p.add_argument("--spline-degree", type=int, default=DEFAULT_DEGREE)
    common(p, seed=True, threads=True)
    p.set_defaults(func=cmd_graph_experiment)

    p = sub.add_parser("centrality", help="export a topology covariate of the LCC")
    p.add_argument("--edges", required=True)
    p.add_argument("--kind", choices=("degree", "closeness"), default="closeness")
    common(p)
    p.set_defaults(func=cmd_centrality)

    p = sub.add_parser("stack-fit", help="fit a level-1 generalizer from a level-1 CSV")
    p.add_argument("--level1", required=True)
    p.add_argument("--model", choices=exp.METHODS, default="dynamic")
    p.add_argument("--strength", type=float, default=None, help="fixed penalty; default CV")
    only = "dynamic model only; default {}"
    p.add_argument("--knots", type=int, default=None, help=only.format(DEFAULT_KNOTS))
    p.add_argument("--spline-degree", type=int, default=None, help=only.format(DEFAULT_DEGREE))
    p.add_argument("--folds", type=int, default=10)
    common(p, seed=True)
    p.set_defaults(func=cmd_stack_fit)

    p = sub.add_parser("stack-predict", help="probabilities from a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True, help="level-1 CSV (y column optional)")
    common(p)
    p.set_defaults(func=cmd_stack_predict)

    p = sub.add_parser("curves", help="tabulate fitted coefficient curves")
    p.add_argument("--model", required=True)
    p.add_argument("--points", type=int, default=200)
    common(p)
    p.set_defaults(func=cmd_curves)

    return parser


def main(argv=None) -> int:
    """Run one command; only here is ``--out`` created and written, once the
    command has returned, and only here does an error become an exit status."""
    args = build_parser().parse_args(argv)
    try:
        files, manifest = args.func(args)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for name, content in files.items():
            if callable(content):
                content(out / name)
                continue
            header, rows = content
            with open(out / name, "w", newline="") as fh:
                csv.writer(fh).writerows([header, *rows])
        (out / "manifest.txt").write_text(manifest)
    except (OSError, ValueError, RuntimeError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2 if isinstance(err, _UsageError) else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
