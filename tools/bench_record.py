#!/usr/bin/env python3
"""Record one point of the performance trajectory as ``BENCH_<pr>.json``.

    python3 tools/bench_record.py --pr 10

Runs ``perfbench/run.py`` on every workload that ``BENCHMARK.json`` lists,
once per seed in ``SEEDS`` with ``--trace 0`` and once with ``--trace 1``,
for the benchmark's ``run_seconds``, one run at a time. The file written at
the repository root holds the environment of the first run, the median and
quartiles over the seeds of each end-to-end metric, the median of each
per-layer metric, the median ``host_probe_s`` (a fixed pure-Python loop
timed after every unit) over the units of the ``--trace 0`` runs, and the
line count of each ``src/dynstack`` module with their total. It then runs
the Tier-1 tests once, with ROADMAP.md's verify command, and records their
wall time and passed and skipped counts as ``tier1``. When an earlier
``BENCH_*.json`` exists, the probe's ratio against the latest one is printed
first, so host drift is not read as code movement, then the change in the
``src/dynstack`` line count and in the Tier-1 counts, then every metric that
moved by more than 10%, Tier-1 wall time among them.
Compare files made on the same machine only.
``perfbench/`` and ``BENCHMARK.json`` are read, never written. Standard
library only.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3, 4, 5)
MOVED = 0.10
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]  # with src on PYTHONPATH


def _run(workload: str, seed: int, trace: int, seconds: float, out: str) -> tuple[dict, dict]:
    """One benchmark run: its result line and its full record."""
    cmd = [
        sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace), "--out", out,
    ]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    record = json.loads((Path(out) / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, record


def _pytest_counts(output: str) -> dict:
    """The counts on the summary line pytest prints last, such as
    ``597 passed, 1 skipped in 71.84s (0:01:11)``; passed and skipped are 0
    when absent."""
    summary = output.strip().splitlines()[-1].strip("= ").split(" in ")[0]
    counts = {word: int(n) for n, word in re.findall(r"(\d+) (\w+)", summary)}
    if not counts:
        raise ValueError(f"no pytest summary in {summary!r}")
    return {"passed": 0, "skipped": 0, **counts}


def _tier1() -> dict:
    """One Tier-1 run: its wall time in seconds and its counts."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")])))
    start = time.perf_counter()
    done = subprocess.run(TIER1, cwd=ROOT, env=env, capture_output=True, text=True)
    return {"wall_s": time.perf_counter() - start, **_pytest_counts(done.stdout)}


def _summary(results: list[dict], spread: bool) -> dict:
    """Per metric over the runs: unit and median, plus quartiles and values when ``spread``."""
    out = {}
    for name in sorted({n for r in results for n in r["metrics"]}):
        values = [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
        entry = {"unit": results[0]["metrics"][name]["unit"], "median": statistics.median(values)}
        if spread:
            q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
            entry.update(q1=q1, q3=q3, iqr=q3 - q1, values=values)
        out[name] = entry
    return out


def _moved(old: dict, new: dict) -> list[str]:
    """Metrics whose median moved by more than ``MOVED`` between two BENCH files."""
    lines = []
    for workload, cur in new["workloads"].items():
        prev = old["workloads"].get(workload, {})
        for kind in ("end_to_end", "per_layer"):
            for name, m in cur[kind].items():
                before = prev.get(kind, {}).get(name, {}).get("median")
                if before is None:
                    continue
                after = m["median"]
                if (before == 0 and after != 0) or (before != 0 and abs(after / before - 1) > MOVED):
                    change = "new" if before == 0 else f"{after / before - 1:+.0%}"
                    lines.append(f"{workload:17s} {name:45s} {before:.4g} -> {after:.4g} {m['unit']} ({change})")
    before, after = old.get("tier1", {}).get("wall_s"), new.get("tier1", {}).get("wall_s")
    if before and after and abs(after / before - 1) > MOVED:
        lines.append(f"{'tier1':17s} {'wall_s':45s} {before:.4g} -> {after:.4g} s ({after / before - 1:+.0%})")
    return lines


def _probe_ratios(old: dict, new: dict) -> list[str]:
    """Per workload: the host probe's ratio between two BENCH files, or a note
    that the older file has no probe."""
    lines = []
    for workload, cur in new["workloads"].items():
        before = old["workloads"].get(workload, {}).get("host_probe_s")
        if before is None:
            lines.append(f"{workload:17s} host_probe_s: none in the older file; host drift unknown")
        else:
            after = cur["host_probe_s"]
            lines.append(f"{workload:17s} host_probe_s {before:.4g} -> {after:.4g} s (x{after / before:.2f})")
    return lines


def _line_counts(src: Path) -> dict:
    """Newline count of each ``*.py`` module in ``src``, by file name, and their total."""
    modules = {p.name: p.read_bytes().count(b"\n") for p in sorted(src.glob("*.py"))}
    return {"modules": modules, "total": sum(modules.values())}


def _lines_moved(old: dict, new: dict) -> str:
    """The ``src/dynstack`` total of two BENCH files, or a note that the older has none."""
    before, after = old.get("src_lines", {}).get("total"), new["src_lines"]["total"]
    if before is None:
        return f"src/dynstack {after} lines; none counted in the older file"
    return f"src/dynstack {before} -> {after} lines"


def _tier1_moved(old: dict, new: dict) -> str:
    """The Tier-1 counts of two BENCH files, or a note that the older has none."""
    after = new["tier1"]
    now = f"{after['passed']} passed, {after['skipped']} skipped"
    if "tier1" not in old:
        return f"tier1 {now}; none recorded in the older file"
    return f"tier1 {old['tier1']['passed']} passed, {old['tier1']['skipped']} skipped -> {now}"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--pr", type=int, required=True, help="number in the file name BENCH_<pr>.json")
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    doc = {"pr": args.pr, "seeds": list(SEEDS), "run_seconds": bench["run_seconds"], "workloads": {}}
    doc["src_lines"] = _line_counts(ROOT / "src" / "dynstack")
    with tempfile.TemporaryDirectory() as out:
        for workload in (w["name"] for w in bench["workloads"]):
            runs, probes = {0: [], 1: []}, []
            for seed in SEEDS:
                for trace in (0, 1):
                    result, record = _run(workload, seed, trace, bench["run_seconds"], out)
                    doc.setdefault("environment", record["environment"])
                    runs[trace].append(result)
                    if trace == 0:
                        probes += [u["host_probe_s"] for u in record["units"]]
                    print(f"{workload} seed {seed} trace {trace}: failed {result['failed']}", flush=True)
            doc["workloads"][workload] = {
                "failed_checks": sum(r["failed"] for r in runs[0] + runs[1]),
                "end_to_end": _summary(runs[0], spread=True),
                "per_layer": _summary(runs[1], spread=False),
                "host_probe_s": statistics.median(probes),
            }
    doc["tier1"] = _tier1()
    print(f"tier1: {doc['tier1']}", flush=True)
    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {path.name}")

    earlier = []
    for f in ROOT.glob("BENCH_*.json"):
        m = re.fullmatch(r"BENCH_(\d+)\.json", f.name)
        if m and int(m.group(1)) < args.pr:
            earlier.append((int(m.group(1)), f))
    if earlier:
        last = max(earlier)[1]
        old = json.loads(last.read_text())
        print(f"against {last.name}:")
        print("\n".join(_probe_ratios(old, doc)))
        print(_lines_moved(old, doc))
        print(_tier1_moved(old, doc))
        moved = _moved(old, doc)
        print(f"{len(moved)} metrics moved by more than {MOVED:.0%}")
        print("\n".join(moved))
    return 0


if __name__ == "__main__":
    sys.exit(main())
