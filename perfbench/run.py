"""Seeded run benchmark for crossmodal-pde.

    python3 perfbench/run.py --workload finetune --seed 1 --seconds 16 --trace 0

Builds the workload's inputs from the seed (dataset, corpus, pretrained
checkpoints; timed as set-up), then runs the workload's (config, seed) jobs
through ``experiments.run_one`` for ``--seconds`` seconds, checking every job's
output.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs each
job once untraced and once under the outside-in tracer and prints the
per-layer metrics.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the machine block, every metric with its unit, and any job failure.
The full result (samples, machine block, failures) and, for traced runs, the
spans are written under ``.perfbench_out/<workload>/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _import_program():
    """Import the package from this checkout's ``src`` only; exit 1 without it."""
    sys.path.insert(0, SRC)
    try:
        import crossmodal_pde
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import crossmodal_pde from {SRC}: {exc}")
    if not os.path.abspath(crossmodal_pde.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: crossmodal_pde resolved outside {SRC}: {crossmodal_pde.__file__}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    import bench
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    out_dir = os.path.join(ROOT, ".perfbench_out", args.workload)
    result = bench.run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
                       out_dir)
    print("machine " + json.dumps(result["machine"], sort_keys=True))
    for line in result["notes"]:
        print(line)
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
