"""Record the reference outcome of every solve, for ``solver.trace_mismatch``.

    python3 perfbench/reference.py

Runs each solver workload once for each of the seeds 0-19, untraced, and adds to
``perfbench/reference.json``: for each solve, keyed by the digest of its
problem, parameters and x0, the terminal status, iteration count and final f.
The traced run reports how many of its solves differ from this table.
Re-record only on purpose, when a change is meant to alter the iterates.
"""

from __future__ import annotations

import json
import sys

import run

SEEDS = range(20)


def main() -> int:
    sys.path[:0] = [str(run.SRC), str(run.HERE)]
    wl = run.fresh_import()
    table = wl.reference_table(run.REFERENCE)
    for workload in ("vertex", "separable", "network"):
        for seed in SEEDS:
            outs, _ = wl.run_pass(wl.build(workload, seed))
            for o in outs:
                key, status, iters, f = o.reference
                table[key] = {"workload": workload, "seed": seed, "label": o.label,
                              "status": status, "iterations": iters, "f_final": f}
                print(workload, seed, o.label, status, iters, repr(f), flush=True)
    with open(run.REFERENCE, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
