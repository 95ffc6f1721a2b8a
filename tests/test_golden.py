"""The command-line outputs stay byte-identical to the committed record.

``tests/golden/`` holds one directory per run of
``tools/golden_record.py``'s ``RUNS``; re-record it with that tool only
when an output is meant to change.
"""

import difflib
import importlib.util
from pathlib import Path

import pytest

_path = Path(__file__).resolve().parent.parent / "tools" / "golden_record.py"
_spec = importlib.util.spec_from_file_location("golden_record", _path)
golden_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden_record)


@pytest.fixture(scope="module")
def rerun(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    golden_record.run_all(root)
    return root


@pytest.mark.parametrize("run", [run for run, _ in golden_record.RUNS])
def test_outputs_match_the_record(rerun, run):
    recorded = {p.name: p.read_bytes() for p in sorted((golden_record.GOLDEN / run).iterdir())}
    fresh = golden_record.outputs(rerun, run)
    assert sorted(fresh) == sorted(recorded)
    for name, data in fresh.items():
        if data != recorded[name]:
            diff = difflib.unified_diff(
                recorded[name].decode().splitlines(), data.decode().splitlines(),
                f"golden/{run}/{name}", f"rerun/{run}/{name}", lineterm="", n=0,
            )
            pytest.fail("\n".join(list(diff)[:20]))


def test_every_recorded_run_is_rerun():
    assert sorted(p.name for p in golden_record.GOLDEN.iterdir()) == sorted(
        run for run, _ in golden_record.RUNS
    )
