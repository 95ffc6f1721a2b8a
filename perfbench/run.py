#!/usr/bin/env python3
"""Run one dynstack benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sim_case3 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: the package is imported from ``src/``.
Units run one after another in this process until ``--seconds`` have
passed (at least one unit). Every unit's output is checked against
``references.json``. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``:

* ``--trace 0``: the end-to-end metrics, measured without tracing;
* ``--trace 1``: the per-layer metrics from spans around dynstack's public
  functions. Each unit seed runs once untraced and once traced; the two
  outputs must be identical, and the difference of their medians is the
  tracing overhead.

A full record (environment, every unit, spans) is written to
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import envinfo

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 5  # fresh interpreters timed per run for setup_s
TRACED_SETUPS = 3  # in-process set-ups traced for the load-path layers
PROBE_TIMEOUT_S = 120


def limit_blas_threads() -> None:
    # must run before numpy is imported. One BLAS thread: a second one gave
    # no speed-up on a 2-core VM, doubled the CPU time by spin-waiting and
    # made the wall time depend on whether the other core was free.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=("sim_case3", "graph_closeness", "stackfit_dynamic"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full", help="input sizes; tiny is for tests")
    p.add_argument("--out", default=str(OUT_DIR), help="directory for the full run record")
    p.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _setup_probe(args) -> int:
    """Child mode: time importing dynstack plus the workload's load path."""
    t0 = time.perf_counter()
    import workloads

    plan = workloads.make_plan(args.workload, args.size, args.seed)
    workloads.WORKLOADS[args.workload].setup(plan, Path(args.setup_probe))
    print(repr(time.perf_counter() - t0))
    return 0


def _probe_setup_s(args, workdir: Path) -> list[float]:
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", "0",
        "--size", args.size,
        "--setup-probe", str(workdir),
    ]
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def _run_unit(workloads, plan, state, unit_seed, refs, tracer=None, uid=None) -> dict:
    workload = workloads.WORKLOADS[plan.workload]
    steal0 = envinfo.steal_ticks()
    if tracer is not None:
        tracer.unit = uid
        span = tracer.begin("unit", seed=unit_seed)
    c0, t0 = time.process_time(), time.perf_counter()
    output, error = None, None
    try:
        output = workload.unit(state, unit_seed)
    except Exception:  # a unit that raises is a failed operation, not a crash
        error = traceback.format_exc()
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    if tracer is not None:
        tracer.end(span)
        tracer.unit = None
    steal1 = envinfo.steal_ticks()
    probe = envinfo.host_probe_s()
    key = plan.key(unit_seed)
    if error is None:
        diffs = workloads.check_output(output, refs.get(key))
        fits_failed = workloads.failed_fits(plan.workload, output)
    else:
        diffs = [f"unit raised:\n{error}"]
        fits_failed = workload.fits_per_unit
    return {
        "key": key,
        "traced": tracer is not None,
        "wall_s": wall,
        "cpu_s": cpu,
        "steal_ticks": None if steal0 is None or steal1 is None else steal1 - steal0,
        "host_probe_s": probe,
        "fits_failed": fits_failed,
        "diffs": diffs,
        "output": output,
    }


def _measure(args, workloads, plan, workdir: Path, refs: dict) -> tuple[list[dict], object, list[str]]:
    """Set up, then run units for ``args.seconds``; returns (units, tracer, setup ids)."""
    tracer, setup_ids = None, []
    workload = workloads.WORKLOADS[args.workload]
    if args.trace:
        from tracing import Tracer

        tracer = Tracer().install()
        for k in range(TRACED_SETUPS):
            tracer.unit = f"setup-{k}"
            setup_ids.append(tracer.unit)
            state = workload.setup(plan, workdir)
        tracer.unit = None
    else:
        state = workload.setup(plan, workdir)

    units = []
    min_units = 2 if workload.warmup and tracer is None else 1
    start = time.perf_counter()
    i = 0
    while True:
        seed = plan.unit_seed(i)
        if tracer is None:
            units.append(_run_unit(workloads, plan, state, seed, refs))
            units[-1]["warmup"] = workload.warmup and i == 0
        else:
            # alternate which side runs first so warm-up favours neither
            pair = [None, None]
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                pair[traced] = _run_unit(
                    workloads, plan, state, seed, refs, tracer if traced else None, f"unit-{i}"
                )
            plain, traced_rec = pair
            same = json.dumps(plain["output"], sort_keys=True) == json.dumps(traced_rec["output"], sort_keys=True)
            if not same:
                traced_rec["diffs"].append("traced output differs from the untraced output")
            units += pair
        i += 1
        if time.perf_counter() - start >= args.seconds and i >= min_units:
            break
    return units, tracer, setup_ids


def _median(values):
    return statistics.median(values) if values else float("nan")


def _report(metrics: dict, samples: dict) -> None:
    for name, m in metrics.items():
        n = samples.get(name)
        suffix = f"  (n={n})" if n is not None else ""
        print(f"{name:45s} {m['value']:.6g} {m['unit']}{suffix}")


def main(argv=None) -> int:
    args = _parse_args(argv)
    limit_blas_threads()
    if args.setup_probe:
        return _setup_probe(args)

    load_before = envinfo.host_load()
    try:
        import workloads
    except ImportError as err:
        print(f"error: cannot load the program under test: {err}", file=sys.stderr)
        return 2

    plan = workloads.make_plan(args.workload, args.size, args.seed)
    refs = workloads.load_references()[args.size][args.workload]
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    tracer = None
    try:
        workloads.WORKLOADS[args.workload].make_inputs(plan, workdir)
        setup_times = [] if args.trace else _probe_setup_s(args, workdir)
        units, tracer, setup_ids = _measure(args, workloads, plan, workdir, refs)
    finally:
        if tracer is not None:
            tracer.restore()
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    load_after = envinfo.host_load()

    fits = workloads.WORKLOADS[args.workload].fits_per_unit
    checked = [u for u in units if u["traced"] == bool(args.trace)]
    failed_checks = sum(1 for u in units if u["diffs"])
    ops = len(checked) * (fits + 1)
    failed_ops = sum(u["fits_failed"] + bool(u["diffs"]) for u in checked)
    failed_share = failed_ops / ops

    timed = [u for u in checked if not u.get("warmup")]
    walls = [u["wall_s"] for u in timed]
    if args.trace:
        from tracing import layer_metrics

        unit_ids = sorted({s.unit for s in tracer.spans if s.name == "unit"})
        metrics = layer_metrics(tracer.spans, unit_ids, setup_ids)
        plain_walls = [u["wall_s"] for u in units if not u["traced"]]
        metrics["failed_share"] = {"value": failed_share, "unit": "ratio"}
        metrics["trace.overhead_s"] = {"value": _median(walls) - _median(plain_walls), "unit": "s"}
        samples = {"failed_share": ops, "trace.overhead_s": len(walls)}
    else:
        metrics = {
            "unit_p50_s": {"value": _median(walls), "unit": "s"},
            "unit_cpu_p50_s": {"value": _median([u["cpu_s"] for u in timed]), "unit": "s"},
            "setup_s": {"value": _median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        samples = {"unit_p50_s": len(walls), "unit_cpu_p50_s": len(walls), "setup_s": len(setup_times)}

    for u in units:
        for d in u["diffs"]:
            print(f"output check failed for {args.workload} input {u['key']}: {d}")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "plan": {"input_index": plan.input_index, "unit_seeds": list(plan.unit_seeds)},
        "environment": envinfo.environment(),
        "host_before": load_before,
        "host_after": load_after,
        "setup_s": setup_times,
        "failed_share": {"value": failed_share, "failed": failed_ops, "attempted": ops},
        "units": [{k: v for k, v in u.items() if k != "output"} for u in units],
        "metrics": metrics,
    }
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.write(out / f"{stem}.spans.jsonl")

    env = record["environment"]
    print(
        f"environment: {env['usable_cores']} cores, python {env['python']}, numpy {env['numpy']}, "
        f"scipy {env['scipy']}, blas {[(b['config'], b['threads']) for b in env['blas_runtime']]}"
    )
    print(f"host before: {load_before}  after: {load_after}")
    probes = [u["host_probe_s"] for u in units]
    print(
        f"host_probe_s median {_median(probes):.4g} over {len(probes)} units "
        f"(unit_p50_s is {_median(walls) / _median(probes):.1f} probes)"
    )
    if not args.trace:
        print(f"{'failed_share':45s} {failed_share:.6g} ratio  ({failed_ops} of {ops} fits and checks)")
    _report(metrics, samples)
    result = {
        "correct": failed_checks == 0,
        "attempted": len(units),
        "failed": failed_checks,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
