import os
import subprocess
import sys
from pathlib import Path

import dynstack


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs most of `import dynstack`; only auc and the paired
    # t-test need it, and they import it when called
    src = str(Path(dynstack.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, dynstack; print('scipy.stats' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
