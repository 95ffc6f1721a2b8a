"""Command-line entry points for reproducible experiment runs.

Every subcommand writes its artifacts plus a ``manifest.txt`` recording
the fully resolved parameters; rerunning with the same flags (or the
flags read back from a manifest) reproduces the outputs byte for byte.
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
    closeness_centrality,
    degree,
    largest_connected_component,
    parse_edge_list,
    read_label_file,
    write_covariate,
)
from .naive_bayes import parse_feature_file
from .simulation import METHODS, run_simulation
from .stacking import (
    DynamicStackModel,
    FitConfig,
    coefficient_curves,
    default_basis,
    fit_dynamic,
    fit_static,
    load_model,
    predict_dynamic,
    predict_static,
    read_level1,
    save_model,
    select_lambda,
    select_strength,
)


def _fmt_value(v) -> str:
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, (list, tuple)):
        return ",".join(str(x) for x in v)
    return str(v)


def _write_manifest(out: Path, args, **resolved) -> None:
    """Record every parsed flag but ``--out``; ``resolved`` overrides values."""
    params = {k: v for k, v in vars(args).items() if k not in ("command", "func", "out")}
    params.update(resolved)
    lines = [f"command = {args.command}"]
    lines += [f"{k} = {_fmt_value(v)}" for k, v in sorted(params.items())]
    (out / "manifest.txt").write_text("\n".join(lines) + "\n")


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _write_curves(path: Path, columns: list[str], grid, curves) -> None:
    """One row per grid point: ``u`` then every weight curve's value there."""
    rows = [[repr(float(u))] + [repr(float(v)) for v in row] for u, row in zip(grid, curves)]
    _write_csv(path, ["u"] + list(columns), rows)


def _parse_file(parse, path, *args):
    """Run a ``line N: ...`` line parser on a file; errors name the file."""
    try:
        return parse(Path(path).read_text().splitlines(), *args)
    except GraphParseError as err:
        raise GraphParseError(f"{path} {err}") from None


# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    out = _out_dir(args)
    methods = tuple(args.methods.split(",")) if args.methods else METHODS
    config = FitConfig(cv_folds=args.folds)
    report = run_simulation(
        cases=(args.case,),
        methods=methods,
        n=args.n,
        reps=args.reps,
        seed=args.seed,
        threads=args.threads,
        config=config,
    )
    _write_csv(
        out / "simulation_report.csv",
        ["case", "method", "mean_auc", "sd_auc", "n_reps"],
        [
            [c.case, c.method, repr(c.mean_auc), repr(c.sd_auc), c.n_reps]
            for c in report.cells
        ],
    )
    if args.raw:
        rows = []
        for (case, method), vals in report.raw.items():
            rows += [
                [case, method, r, repr(float(v))] for r, v in enumerate(vals)
            ]
        _write_csv(out / "simulation_raw.csv", ["case", "method", "rep", "auc"], rows)
    _write_manifest(out, args, methods=list(methods))
    return 0


def cmd_graph_experiment(args) -> int:
    out = _out_dir(args)
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

    cfg = exp.ExperimentConfig(
        covariate=args.covariate,
        test_fraction=args.test_fraction,
        reps=args.reps,
        folds=args.folds,
        seed=args.seed,
        interior_knots=args.knots,
        spline_degree=args.spline_degree,
        bins=args.bins,
        threads=args.threads,
        fit=FitConfig(cv_folds=args.folds),
    )
    try:
        report = exp.run_graph_experiment(graph, features, args.positive_label, cfg)
    except ValueError as err:
        if "connected" in str(err):
            raise SystemExit(
                f"error: {err}\nPass --lcc to reduce the graph to its largest "
                "connected component first."
            ) from err
        raise

    acc_rows = []
    for m in report.methods:
        vals = report.accuracies[m]
        ok = vals[~np.isnan(vals)]
        acc_rows.append(
            [
                m,
                repr(float(ok.mean())) if len(ok) else "",
                repr(float(ok.std(ddof=1))) if len(ok) > 1 else "",
                len(ok),
            ]
        )
    _write_csv(
        out / "accuracy_report.csv",
        ["method", "mean_accuracy", "sd_accuracy", "n_reps"],
        acc_rows,
    )
    _write_csv(
        out / "paired_comparisons.csv",
        ["method_a", "method_b", "mean_diff", "p_value"],
        [
            ["dynamic", m, repr(c.mean_diff), repr(c.p_value)]
            for m, c in report.comparisons.items()
        ],
    )
    delta_rows = []
    for m, deltas in report.bin_delta_correct.items():
        for lo, hi, cnt, d in zip(report.bin_lo, report.bin_hi, report.bin_counts, deltas):
            delta_rows.append([m, repr(float(lo)), repr(float(hi)), repr(float(cnt)), repr(float(d))])
    _write_csv(
        out / "binned_deltas.csv",
        ["method", "bin_lo", "bin_hi", "mean_count", "mean_delta_correct"],
        delta_rows,
    )
    _write_curves(out / "coefficient_curves.csv", report.curve_columns, report.curves_u, report.curves)
    _write_manifest(out, args)
    return 0


def cmd_centrality(args) -> int:
    out = _out_dir(args)
    graph = largest_connected_component(_parse_file(parse_edge_list, args.edges))
    cov = degree(graph) if args.kind == "degree" else closeness_centrality(graph)
    write_covariate(out / "covariate.csv", graph, cov)
    _write_manifest(out, args)
    return 0


def cmd_stack_fit(args) -> int:
    out = _out_dir(args)
    data = read_level1(args.level1)
    config = FitConfig(cv_folds=args.folds)
    cv_report = None
    if args.model == "dynamic":
        basis = default_basis(data.u, args.knots, args.spline_degree)
        if args.lam is None:
            lam, cv_report = select_lambda(data, config, basis, seed=args.seed)
        else:
            lam = args.lam
        model = fit_dynamic(data, lam, basis, config)
        chosen = lam
    else:
        strength = args.strength
        if args.penalty != "none" and strength is None:
            strength, cv_report = select_strength(
                data, args.model, args.penalty, config, seed=args.seed
            )
        model = fit_static(
            data, args.model, args.penalty, strength=strength, config=config,
            cv_seed=args.seed,
        )
        chosen = model.strength
    save_model(out / "model.txt", model)
    if cv_report is not None:
        _write_csv(
            out / "cv_report.csv",
            ["penalty_strength", "heldout_nll"],
            [[repr(lam_), repr(score)] for lam_, score in cv_report],
        )
    _write_manifest(
        out,
        args,
        lam="cv" if args.lam is None else args.lam,
        strength="cv" if args.strength is None else args.strength,
        chosen_strength=float(chosen),
    )
    return 0


def cmd_stack_predict(args) -> int:
    out = _out_dir(args)
    model = load_model(args.model)
    data = read_level1(args.data, require_y=False)
    if isinstance(model, DynamicStackModel):
        probs = predict_dynamic(model, data.z, data.u)
    else:
        probs = predict_static(model, data.z, data.u)
    _write_csv(
        out / "predictions.csv",
        ["row", "probability"],
        [[i, repr(float(p))] for i, p in enumerate(probs)],
    )
    _write_manifest(out, args)
    return 0


def cmd_curves(args) -> int:
    out = _out_dir(args)
    model = load_model(args.model)
    if not isinstance(model, DynamicStackModel):
        raise SystemExit("error: coefficient curves require a dynamic model file")
    grid = np.linspace(model.basis.u_lo, model.basis.u_hi, args.points)
    _write_curves(out / "curves.csv", model.columns, grid, coefficient_curves(model, grid))
    _write_manifest(out, args)
    return 0


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
            p.add_argument("--threads", type=int, default=1, help="parallel workers")

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
    p.add_argument("--bins", type=int, default=100)
    p.add_argument("--knots", type=int, default=6)
    p.add_argument("--spline-degree", type=int, default=3)
    common(p, seed=True, threads=True)
    p.set_defaults(func=cmd_graph_experiment)

    p = sub.add_parser("centrality", help="export a topology covariate of the LCC")
    p.add_argument("--edges", required=True)
    p.add_argument("--kind", choices=("degree", "closeness"), default="closeness")
    common(p)
    p.set_defaults(func=cmd_centrality)

    p = sub.add_parser("stack-fit", help="fit a level-1 generalizer from a level-1 CSV")
    p.add_argument("--level1", required=True)
    p.add_argument("--model", choices=("dynamic", "m1", "m2", "m3"), default="dynamic")
    p.add_argument("--penalty", choices=("none", "ridge", "lasso"), default="none")
    p.add_argument("--lam", type=float, default=None, help="fixed penalty; default CV")
    p.add_argument("--strength", type=float, default=None, help="fixed penalty; default CV")
    p.add_argument("--knots", type=int, default=6)
    p.add_argument("--spline-degree", type=int, default=3)
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
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SystemExit:
        raise
    except (OSError, ValueError, RuntimeError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
