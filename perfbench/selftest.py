"""Self-test of the benchmark at tiny sizes (a few seconds on 2 cores):

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that a traced run leaves every patched attribute holding its original object,
that traced spans cover nearly all of each job's time, that the layer metrics
land on the workloads they belong to, and that the output checks catch bad
job outputs.  Exits 1 on the first failed check.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import sys

import run

run._import_program()

import bench  # noqa: E402
import workloads  # noqa: E402
from crossmodal_pde import bidir, experiments, tensor  # noqa: E402
from tracing import PACKAGE  # noqa: E402

TINY = dict(n_x=16, n_train=2, n_test=2, corpus_sequences=8, pretrain_steps=1, d_model=8,
            n_heads=2, n_layers=1, d_ff=16, seeds_per_kind=1, epochs=1)
# Least share of a traced job's wall time that lies inside traced functions.
# The rest is run_one's own work (model copies, the record write): about 0.5%
# of a full-size job, but 15-40% of a job at the tiny sizes above.
COVERAGE_MIN = 0.5


def check(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        sys.exit(1)


def snapshot() -> dict:
    """Every attribute of the program's modules and traced classes, by identity."""
    owners = [m for name, m in sys.modules.items()
              if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
    return {(id(o), k): v for o in owners + [tensor.Tensor, bidir.FlipPair]
            for k, v in list(vars(o).items())}


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = {False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                True: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    check({w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS),
          "BENCHMARK.json lists exactly the defined workloads")
    before = snapshot()
    for name, w in workloads.WORKLOADS.items():
        tiny = dataclasses.replace(w, **TINY, stage1_steps=2 if w.stage1_steps else 0)
        for trace in (False, True):
            out_dir = os.path.join(run.ROOT, ".perfbench_out", f"selftest-{name}")
            res = bench.run(tiny, seed=3, seconds=0.1, trace=trace, out_dir=out_dir)
            label = f"{name} trace={int(trace)}"
            check(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                  f"{label}: correct, nothing failed ({res['failures']})")
            emitted = {k: m["unit"] for k, m in res["metrics"].items()}
            check(emitted == declared[trace],
                  f"{label}: emits exactly the BENCHMARK.json metrics with their units")
            check(all(math.isfinite(m["value"]) for m in res["metrics"].values()),
                  f"{label}: every value is finite")
            check(_same(snapshot(), before),
                  f"{label}: every patched attribute is the original object again")
            if not trace:
                continue
            m = {k: v["value"] for k, v in res["metrics"].items()}
            coverage = m["bench.span_coverage_min"]
            check(coverage > COVERAGE_MIN,
                  f"{label}: traced spans cover each job's time ({coverage!r})")
            otdd = [v for k, v in m.items() if k.startswith("otdd.")]
            timed = [m[k] for k in ("otdd.otdd_distance.s", "otdd.sinkhorn.solve_s",
                                    "otdd.sinkhorn.refine_fwd_s", "otdd.sinkhorn.refine_bwd_s",
                                    "otdd.sinkhorn.solves")]
            check(all(timed) if name == "orca_align" else not any(otdd),
                  f"{label}: otdd metrics non-zero only on orca_align")
            check((m["proxy_data.build_proxy_set.calls"] > 0) == (name == "orca_align"),
                  f"{label}: proxy set built only on orca_align")
            check((m["bidir.parallel_flipping_train.s"] > 0) == (name == "bidir"),
                  f"{label}: Parallel Flipping only on bidir")
    _output_checks()
    return 0


def _same(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(a[k] is b[k] for k in a)


def _output_checks() -> None:
    """The checks behind jobs_failed reject each kind of bad output."""
    w = dataclasses.replace(workloads.WORKLOADS["finetune"], **TINY)
    out_dir = os.path.join(run.ROOT, ".perfbench_out", "selftest-checks")
    inputs = workloads.setup(w, 5, os.path.join(out_dir, "setup"))
    job = workloads.make_jobs(w, 5, inputs, os.path.join(out_dir, "records"))[0]
    runner = bench.JobRunner()
    _, _, record = runner.run(job)
    check(record is not None and not runner.failures, "a good job passes every check")
    cases = {"aborted": dataclasses.replace(record, aborted=True),
             "non-finite": dataclasses.replace(record, test_nrmse=math.nan),
             "does not reload": dataclasses.replace(record, initial_test_nrmse=-1.0)}
    for reason, bad in cases.items():
        problem = runner.check(job, bad) or ""
        check(reason in problem, f"a bad record is caught: {reason!r} ({problem})")
    tmp = os.path.join(job.config.out_dir, ".tmp-record-left")
    open(tmp, "w").close()
    problem = runner.check(job, record) or ""
    os.unlink(tmp)
    check("temporary" in problem, f"a leftover temporary record is caught ({problem})")
    # a different output for the same (config, seed) is caught
    changed = dataclasses.replace(record, spikiness={"first_half_tv": 0.0, "second_half_tv": 0.0})
    with open(experiments.record_path(job.config, job.seed), "w", encoding="utf-8") as fh:
        fh.write(changed.to_json())
    problem = runner.check(job, changed) or ""
    check("differs" in problem, f"a non-reproducible output is caught ({problem})")


if __name__ == "__main__":
    sys.exit(main())
