"""Tests of the benchmark itself, at tiny input sizes.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, out: Path) -> tuple[list[str], dict]:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "0", "--trace", str(trace), "--size", "tiny", "--out", str(out)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    lines = done.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace, kind, tmp_path):
    lines, result = _run(workload, trace, tmp_path)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC[kind]}
    for m in SPEC[kind]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.split()[:1] == [m["name"]] and f" {m['unit']}" in line for line in lines)
    assert any(line.startswith("failed_share") for line in lines[:-1])
    assert (tmp_path / f"{workload}-seed7-trace{trace}.json").is_file()


def _outputs(name: str, traced: bool) -> tuple[dict, list]:
    plan = workloads.make_plan(name, "tiny", 7)
    workload = workloads.WORKLOADS[name]
    workdir = Path(tempfile.mkdtemp(dir=ROOT, prefix=".perfbench-test-"))
    tracer = tracing.Tracer().install() if traced else None
    try:
        workload.make_inputs(plan, workdir)
        state = workload.setup(plan, workdir)
        output = workload.unit(state, plan.unit_seed(0))
    finally:
        if tracer is not None:
            tracer.restore()
        shutil.rmtree(workdir, ignore_errors=True)
    return output, [] if tracer is None else tracer.spans


@pytest.mark.parametrize("workload", workloads.WORKLOAD_NAMES)
def test_tracing_changes_no_output(workload):
    plain, _ = _outputs(workload, traced=False)
    traced, spans = _outputs(workload, traced=True)
    assert spans
    assert json.dumps(traced, sort_keys=True) == json.dumps(plain, sort_keys=True)


def _bindings() -> dict:
    return {(o, a): getattr(o, a) for owners, a, *_ in tracing.WRAPS for o in owners}


def test_wrapped_functions_are_restored_after_a_traced_run(tmp_path):
    originals = _bindings()
    args = ["--workload", "stackfit_dynamic", "--seed", "7", "--seconds", "0",
            "--trace", "1", "--size", "tiny", "--out", str(tmp_path)]
    assert run.main(args) == 0
    spans = (tmp_path / "stackfit_dynamic-seed7-trace1.spans.jsonl").read_text().splitlines()
    assert any(json.loads(line)["name"] == "stacking.select_lambda" for line in spans)
    for (owner, attr), fn in originals.items():
        assert getattr(owner, attr) is fn, f"{owner.__name__}.{attr} was not restored"


def test_a_raising_call_is_counted_and_propagates():
    originals = _bindings()
    tracer = tracing.Tracer().install()
    assert all(getattr(o, a) is not fn for (o, a), fn in originals.items())
    try:
        with pytest.raises(ValueError):
            workloads.simulation.generate_case(4, 10, 0)
    finally:
        tracer.restore()
    assert tracer.spans[-1].name == "simulation.generate_case"
    assert tracer.spans[-1].counts == {"failures": 1}
    assert _bindings() == originals
