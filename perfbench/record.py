#!/usr/bin/env python3
"""Record the reference outputs every benchmark unit is checked against.

    python3 perfbench/record.py [--size full|tiny] [--workload NAME]

Runs every (input set, unit seed) pair of the chosen pools with the code
in ``src/`` and stores the outputs in ``references.json``. Record only
from a commit whose outputs are known to be right: the benchmark then
treats any difference beyond the tolerances as a failed unit.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import ROOT, limit_blas_threads


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--size", choices=("full", "tiny"), action="append")
    p.add_argument("--workload", action="append")
    args = p.parse_args(argv)
    limit_blas_threads()
    import workloads

    refs = workloads.load_references() if workloads.REFERENCES.exists() else {}
    refs["tolerance"] = workloads.TOLERANCE
    for size in args.size or list(workloads.SIZES):
        for name in args.workload or workloads.WORKLOAD_NAMES:
            workload = workloads.WORKLOADS[name]
            n_inputs, n_units = workloads.POOLS[size][name]
            recorded = {}
            for index in range(n_inputs):
                plan = workloads.Plan(name, size, index, tuple(range(n_units)))
                workdir = Path(tempfile.mkdtemp(prefix=".perfbench-record-", dir=ROOT))
                try:
                    workload.make_inputs(plan, workdir)
                    state = workload.setup(plan, workdir)
                    for seed in plan.unit_seeds:
                        recorded[plan.key(seed)] = workload.unit(state, seed)
                        print(f"{size} {name} {plan.key(seed)}", flush=True)
                finally:
                    shutil.rmtree(workdir, ignore_errors=True)
            refs.setdefault(size, {})[name] = recorded
    workloads.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
