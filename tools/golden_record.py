#!/usr/bin/env python3
"""Re-record the golden command-line outputs under ``tests/golden/``.

    python3 tools/golden_record.py

Writes the inputs (a planted 300-node network and two case-3 level-1
tables, all from fixed seeds), runs every command of ``RUNS`` in order
in-process through ``dynstack.cli.main``, and replaces ``tests/golden/``
with one directory of outputs per run. Manifests name their input files
by path; every path is written relative to the run root as ``<root>/...``.
``tests/test_golden.py`` reruns the same commands and compares the bytes,
so re-record only when an output is meant to change, and show the diff.
``tests/golden/blas.txt`` records the config string of every OpenBLAS the
runs loaded; off those kernels the test compares numbers, not bytes.
The dynstack package is imported from ``src/`` of this checkout.
"""

from __future__ import annotations

import importlib.util
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
BLAS = GOLDEN / "blas.txt"  # the OpenBLAS configs the record was made on, one a line

NETWORK = (300, 5)  # planted_homophily_network(n_nodes, seed)
LEVEL1 = {"level1_1200.csv": (1200, 21), "level1_2500.csv": (2500, 22)}  # case 3 (n, seed)
_NET = [
    "--edges", "{root}/inputs/edges.txt", "--labels", "{root}/inputs/labels.csv",
    "--features", "{root}/inputs/features.txt", "--positive-label", "topic/positive",
    "--lcc", "--reps", "3", "--seed", "4",
]
_SIM = ["simulate", "--case", "3", "--n", "400", "--reps", "3", "--raw", "--seed", "7"]
_FIT = ["stack-fit", "--seed", "3", "--level1"]
_MODEL = "{root}/stackfit_dynamic_2500/model.txt"
# (run, argv); later runs read the outputs of earlier ones
RUNS = [
    ("simulate_threads1", _SIM + ["--threads", "1"]),
    ("simulate_threads2", _SIM + ["--threads", "2"]),
    ("graph_closeness", ["graph-experiment", *_NET, "--covariate", "closeness"]),
    ("graph_degree", ["graph-experiment", *_NET, "--covariate", "degree"]),
    ("centrality", ["centrality", "--edges", "{root}/inputs/edges.txt"]),
    ("stackfit_dynamic_1200", [*_FIT, "{root}/inputs/level1_1200.csv"]),
    ("stackfit_dynamic_2500", [*_FIT, "{root}/inputs/level1_2500.csv"]),
    ("stackfit_ridge_m2", [*_FIT, "{root}/inputs/level1_1200.csv", "--model", "ridge_m2"]),
    ("stackfit_lasso_m3", [*_FIT, "{root}/inputs/level1_1200.csv", "--model", "lasso_m3"]),
    ("stackfit_logistic_m1", [*_FIT, "{root}/inputs/level1_1200.csv", "--model", "logistic_m1"]),
    ("stack_predict", ["stack-predict", "--model", _MODEL, "--data", "{root}/inputs/level1_1200.csv"]),
    ("curves", ["curves", "--model", _MODEL]),
    ("stackfit_dynamic_fixed", [*_FIT, "{root}/inputs/level1_1200.csv", "--strength", "1.0"]),
    (
        "stackfit_ridge_m2_fixed",
        [*_FIT, "{root}/inputs/level1_1200.csv", "--model", "ridge_m2", "--strength", "0.5"],
    ),
    (
        "stackfit_lasso_m3_folds5",
        [*_FIT, "{root}/inputs/level1_1200.csv", "--model", "lasso_m3", "--folds", "5"],
    ),
    (
        "simulate_case2_folds5",
        ["simulate", "--case", "2", "--n", "400", "--reps", "2", "--folds", "5", "--raw"],
    ),
]


def write_inputs(root: Path) -> None:
    from dynstack.simulation import generate_case
    from dynstack.stacking import write_level1
    from dynstack.synth import planted_homophily_network

    inputs = root / "inputs"
    inputs.mkdir(parents=True)
    net = planted_homophily_network(*NETWORK)
    net.write(inputs / "edges.txt", inputs / "labels.csv", inputs / "features.txt")
    for name, (n, seed) in LEVEL1.items():
        write_level1(inputs / name, generate_case(3, n, seed).to_level1())


def run_all(root: Path) -> None:
    """Write the inputs under ``root`` and every run's outputs to ``root/<run>``."""
    from dynstack.cli import main

    write_inputs(root)
    for run, argv in RUNS:
        argv = [a.format(root=root) for a in argv] + ["--out", str(root / run)]
        if main(argv) != 0:
            raise RuntimeError(f"run {run} failed: dynstack {' '.join(argv)}")


def outputs(root: Path, run: str) -> dict[str, bytes]:
    """``{file name: bytes}`` of one run, its manifest's paths made relative to ``root``."""
    files = {p.name: p.read_bytes() for p in sorted((root / run).iterdir())}
    files["manifest.txt"] = files["manifest.txt"].replace(str(root).encode(), b"<root>")
    return files


def blas_configs() -> list[str]:
    """The sorted config strings (version, build flags, kernel) of every
    OpenBLAS loaded in this process, as ``perfbench/envinfo.py`` reads them."""
    spec = importlib.util.spec_from_file_location("envinfo", ROOT / "perfbench" / "envinfo.py")
    envinfo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(envinfo)
    return sorted({lib["config"] for lib in envinfo.blas_runtime() if lib["config"]})


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        run_all(root)
        shutil.rmtree(GOLDEN, ignore_errors=True)
        for run, _ in RUNS:
            (GOLDEN / run).mkdir(parents=True)
            for name, data in outputs(root, run).items():
                (GOLDEN / run / name).write_bytes(data)
        BLAS.write_text("".join(f"{config}\n" for config in blas_configs()))
    print(f"recorded {len(RUNS)} runs in {GOLDEN.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
