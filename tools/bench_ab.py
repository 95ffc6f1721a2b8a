#!/usr/bin/env python3
"""Compare the end-to-end metrics of a parent commit and this checkout, in pairs.

    python3 tools/bench_ab.py --pairs 10 --seed 1
    python3 tools/bench_ab.py --base HEAD~1 --workload stackfit_dynamic --seed 41

Exports the parent commit (``--base``, HEAD by default) with ``git archive``
into a temporary directory; the change is this checkout's working tree. Both
trees are byte-compiled first, so no run pays for compiling. Then, for every
workload that ``BENCHMARK.json`` lists (or ``--workload``), it runs
``perfbench/run.py --trace 0`` for the benchmark's ``run_seconds`` in
``--pairs`` pairs: pair ``i`` runs seed ``--seed + i`` on both sides, and the
side that runs first alternates. A run whose outputs fail their check is
reported. Per workload and end-to-end metric it prints each side's median
and quartiles, the parent's interquartile range (IQR) as a share of its
median, the pairs in which the change read better (ties count for neither),
and one verdict, taken in this order:

* ``gain``: the change read better in at least nine tenths of the pairs,
  and the medians differ, its way, by more than the parent's IQR;
* ``regression``: the change's median is worse than the parent's by more
  than the metric's bound, a share of the parent's median;
* ``unresolved``: the parent's IQR exceeds the bound, so a change within it
  cannot be told from noise, unless every change run read better than every
  parent run;
* ``within bound``: otherwise.

``perfbench/`` and ``BENCHMARK.json`` are read, never edited (Python's
bytecode caches aside). Git archives the parent, so an interrupted run leaves
nothing registered in the repository. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GAIN_SHARE = 0.9  # the share of pairs the change must win to claim a gain


def _better(a: float, b: float, better: str) -> bool:
    """Whether ``a`` reads strictly better than ``b`` for a metric that is ``better`` lower or higher."""
    return a < b if better == "lower" else a > b


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def verdict(parent: list[float], change: list[float], bound: float, better: str) -> dict:
    """The comparison of one metric over pairs ``(parent[i], change[i])``; see the module docstring."""
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("need at least two pairs, one value per side each")
    q1, median, q3 = _quartiles(parent)
    wins = sum(_better(c, p, better) for p, c in zip(parent, change))
    out = {"parent": (q1, median, q3), "change": _quartiles(change), "wins": wins, "pairs": len(parent)}
    change_median, iqr = out["change"][1], q3 - q1
    sign = 1.0 if better == "lower" else -1.0
    if wins >= GAIN_SHARE * len(parent) and sign * (median - change_median) > iqr:
        out["verdict"] = "gain"
    elif sign * (change_median - median) > bound * abs(median):
        out["verdict"] = "regression"
    elif iqr > bound * abs(median) and not all(
        _better(c, p, better) for c in change for p in parent
    ):
        out["verdict"] = "unresolved"
    else:
        out["verdict"] = "within bound"
    return out


def _line(workload: str, name: str, unit: str, bound: float, v: dict) -> str:
    (pq1, pm, pq3), (cq1, cm, cq3) = v["parent"], v["change"]
    spread = (pq3 - pq1) / abs(pm) if pm else float("inf")
    return (
        f"{workload:17s} {name:15s} parent {pm:.4g} [{pq1:.4g}, {pq3:.4g}]  change {cm:.4g} "
        f"[{cq1:.4g}, {cq3:.4g}] {unit}  parent IQR {spread:.1%} (bound {bound:.0%})  "
        f"won {v['wins']}/{v['pairs']}  {v['verdict']}"
    )


def _export(rev: str, dest: Path) -> None:
    """Write the files of commit ``rev`` into ``dest``."""
    archive = subprocess.Popen(["git", "archive", rev], cwd=ROOT, stdout=subprocess.PIPE)
    try:
        subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    finally:
        archive.stdout.close()
    if archive.wait():
        raise SystemExit(f"git archive {rev} failed")


def _run(tree: Path, workload: str, seed: int, seconds: float, out: str) -> dict:
    """One untraced benchmark run in ``tree``: its result line."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0", "--out", out,
    ]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--base", default="HEAD", help="the parent commit (default HEAD)")
    p.add_argument("--pairs", type=int, default=10, help="parent/change pairs per workload")
    p.add_argument("--seed", type=int, default=1, help="the first pair's benchmark seed")
    p.add_argument("--workload", action="append", help="a workload to run (default: every one)")
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs must be at least 2")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    with tempfile.TemporaryDirectory() as tmp:
        parent, out = Path(tmp) / "parent", str(Path(tmp) / "out")
        parent.mkdir()
        _export(args.base, parent)
        for tree in (parent, ROOT):
            subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"], cwd=tree, check=True)
        print(f"parent {args.base} against the working tree, {args.pairs} pairs from seed {args.seed}")
        for workload in workloads:
            runs = {parent: [], ROOT: []}
            for i in range(args.pairs):
                for tree in (parent, ROOT) if i % 2 == 0 else (ROOT, parent):
                    result = _run(tree, workload, args.seed + i, bench["run_seconds"], out)
                    side = "parent" if tree == parent else "change"
                    if not result["correct"]:
                        print(f"{workload} pair {i + 1} {side}: {result['failed']} output checks failed")
                    runs[tree].append(result["metrics"])
                print(f"{workload} pair {i + 1} of {args.pairs} done", flush=True)
            for metric in bench["end_to_end"]:
                name = metric["name"]
                v = verdict(
                    [m[name]["value"] for m in runs[parent]], [m[name]["value"] for m in runs[ROOT]],
                    metric["bound"], metric["better"],
                )
                print(_line(workload, name, metric["unit"], metric["bound"], v), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
