import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_demo_runs():
    # the demos are callers of the public API too; run them side by side
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert len(demos) == 4
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    # four demos and their worker processes already fill the cores
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    runs = {
        demo.name: subprocess.Popen(
            [sys.executable, str(demo)],
            cwd=ROOT,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        for demo in demos
    }
    failed = {}
    for name, proc in runs.items():
        _, err = proc.communicate(timeout=300)
        if proc.returncode != 0:
            failed[name] = err.strip().splitlines()[-1:]
    assert failed == {}
