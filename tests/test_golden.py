"""The command-line outputs stay identical to the committed record.

``tests/golden/`` holds one directory per run of
``tools/golden_record.py``'s ``RUNS``; re-record it with that tool only
when an output is meant to change.

Another OpenBLAS kernel sums matrix products in another order, so floats
move in their last bits. Where every loaded OpenBLAS reports the config
recorded in ``tests/golden/blas.txt`` the outputs must match byte for
byte; elsewhere they are compared token by token (see ``token_mismatch``),
and manifests, which hold each chosen strength, still byte for byte.
"""

import difflib
import importlib.util
import re
from pathlib import Path

import pytest

_path = Path(__file__).resolve().parent.parent / "tools" / "golden_record.py"
_spec = importlib.util.spec_from_file_location("golden_record", _path)
golden_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden_record)

_SEPARATORS = re.compile(r"([\s,]+)")
_FLOAT = re.compile(r"-?(\d+\.\d*(e[-+]\d+)?|\d+e[-+]\d+|inf|nan)")


def _digits17(x: float) -> str:
    return format(x, ".17g")


def token_mismatch(recorded: str, fresh: str, printed=repr) -> str | None:
    """The first place where ``fresh`` departs from ``recorded`` beyond a
    change of BLAS kernel; None when it does not.

    Both split into the same tokens at commas and whitespace. A token that
    is not a float matches exactly; a float agrees within
    ``1e-9 * max(|a|, |b|) + 1e-12`` and reads ``printed(value)``: the
    shortest repr that round-trips, or a model file's 17 significant digits.
    So a printing that drops a digit still fails where it changes a token.
    """
    old, new = _SEPARATORS.split(recorded), _SEPARATORS.split(fresh)
    if len(old) != len(new):
        return f"has {(len(new) + 1) // 2} tokens where the record has {(len(old) + 1) // 2}"
    for k, (a, b) in enumerate(zip(old, new)):
        problem = _token_problem(a, b, printed)
        if problem:
            return f"line {''.join(old[:k]).count(chr(10)) + 1}: {problem}"
    return None


def _token_problem(a: str, b: str, printed) -> str | None:
    if not _FLOAT.fullmatch(b):
        return None if a == b else f"{b!r} where the record has {a!r}"
    y = float(b)
    if b != printed(y):
        return f"{b!r} where its value prints as {printed(y)!r}"
    if a == b:
        return None
    x = float(a) if _FLOAT.fullmatch(a) else None
    if x is None or not abs(x - y) <= 1e-9 * max(abs(x), abs(y)) + 1e-12:
        return f"{b!r} where the record has {a!r}"
    return None


@pytest.fixture(scope="module")
def rerun(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    golden_record.run_all(root)
    return root


@pytest.fixture(scope="module")
def mode(rerun):
    """``bytes`` where this process runs the recorded OpenBLAS kernels, else ``tokens``."""
    recorded = golden_record.BLAS.read_text().splitlines()
    running = golden_record.blas_configs()
    mode = "bytes" if running == recorded else "tokens"
    print(f"golden outputs compared by {mode}: running OpenBLAS {running}, recorded {recorded}")
    return mode


@pytest.mark.parametrize("run", [run for run, _ in golden_record.RUNS])
def test_outputs_match_the_record(rerun, mode, run):
    recorded = {p.name: p.read_bytes() for p in sorted((golden_record.GOLDEN / run).iterdir())}
    fresh = golden_record.outputs(rerun, run)
    assert sorted(fresh) == sorted(recorded)
    for name, data in fresh.items():
        if mode == "tokens" and name != "manifest.txt":
            printed = _digits17 if name == "model.txt" else repr  # save_model's _fmt, or repr
            problem = token_mismatch(recorded[name].decode(), data.decode(), printed)
            if problem:
                pytest.fail(f"compared by tokens: golden/{run}/{name} {problem}")
        elif data != recorded[name]:
            diff = difflib.unified_diff(
                recorded[name].decode().splitlines(), data.decode().splitlines(),
                f"golden/{run}/{name}", f"rerun/{run}/{name}", lineterm="", n=0,
            )
            pytest.fail("\n".join([f"compared by bytes ({mode} mode)", *list(diff)[:20]]))


def test_every_recorded_run_is_rerun():
    assert sorted(p.name for p in golden_record.GOLDEN.iterdir() if p.is_dir()) == sorted(
        run for run, _ in golden_record.RUNS
    )
