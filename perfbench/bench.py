"""One benchmark run of one workload: set-up, jobs, output checks, metrics."""

from __future__ import annotations

import ctypes
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
from dataclasses import asdict
from time import perf_counter, process_time

import numpy as np
import scipy

import workloads
from crossmodal_pde import experiments
from tracing import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_REPS = 3  # set-up is timed this many times per run; setup_s is the median

E2E_UNITS = {"job_s": "s", "job_cpu_s": "s", "test_nrmse": "1", "setup_s": "s",
             "peak_rss_mb": "MB"}


def _blas() -> dict:
    """BLAS name/version from numpy's build config, and the loaded library's
    own thread count (the benchmark never changes it)."""
    cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": cfg.get("name"), "version": cfg.get("version"), "threads": None,
            "library": None}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "blas" in line.lower()
                       and line.split()[-1].startswith("/")})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                info.update(library=os.path.basename(path), threads=getter())
                return info
    return info


def _git_commit(root: str) -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30, env=env)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def machine_block(root: str, seed: int) -> dict:
    model = platform.processor() or "unknown"
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": model, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__, "blas": _blas(),
            "git_commit": _git_commit(root), "workload_seed": seed}


def _comparable(record) -> dict:
    d = asdict(record)
    d.pop("wallclock_s")
    return d


class JobRunner:
    """Runs jobs, checks each output, and keeps the first output per job so
    every repeat (untraced or traced) must reproduce it exactly."""

    def __init__(self):
        self.reference: dict[str, dict] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, job: workloads.Job) -> tuple[float, float, experiments.RunRecord | None]:
        self.attempted += 1
        t0, c0 = perf_counter(), process_time()
        try:
            record = experiments.run_one(job.config, job.seed, base_model=job.base_model)
        except Exception as exc:  # a failing job is counted, not fatal
            record, problem = None, f"raised {type(exc).__name__}: {exc}"
        wall, cpu = perf_counter() - t0, process_time() - c0
        if record is not None:
            problem = self.check(job, record)
        if problem:
            self.failures.append(f"{job.key}: {problem}")
            return wall, cpu, None
        return wall, cpu, record

    def check(self, job: workloads.Job, record) -> str | None:
        if record.aborted:
            return "aborted"
        if not math.isfinite(record.test_nrmse):
            return f"non-finite test nRMSE {record.test_nrmse}"
        path = experiments.record_path(job.config, job.seed)
        with open(path, encoding="utf-8") as fh:
            if experiments.RunRecord.from_dict(json.load(fh)) != record:
                return "record file does not reload equal to the returned record"
        leftovers = [n for n in os.listdir(job.config.out_dir) if n.startswith(".tmp-record-")]
        if leftovers:
            return f"temporary record files left behind: {leftovers}"
        if self.reference.setdefault(job.key, _comparable(record)) != _comparable(record):
            return "output differs from an earlier run of the same (config, seed)"
        return None


def _setup(w, seed, out_dir, k):
    d = os.path.join(out_dir, f"setup{k}")
    inputs = workloads.setup(w, seed, d)
    jobs = workloads.make_jobs(w, seed, inputs, os.path.join(out_dir, "records"))
    return inputs, jobs


def _same_files(a: workloads.Inputs, b: workloads.Inputs) -> bool:
    for pa, pb in zip(a.files(), b.files()):
        with open(pa, "rb") as fa, open(pb, "rb") as fb:
            if fa.read() != fb.read():
                return False
    return True


def _tail_note(name: str, samples: list[float]) -> str:
    """Sample count, plus the highest tail percentile with >= 10 samples beyond it."""
    n = len(samples)
    note = f"{name}: {n} samples"
    for p in (99, 95, 90):
        if n * (100 - p) / 100 >= 10:
            return note + f", p{p} {float(np.percentile(samples, p))!r} s"
    return note + " (too few for a tail percentile)"


def _kind_median(samples: dict[str, list[float]]) -> float:
    """Mean over job kinds of each kind's median: kinds differ in cost, and a
    plain median of a two-kind mix would fall in the gap between them."""
    return float(np.mean([statistics.median(v) for v in samples.values()]))


def run(w: workloads.Workload, seed: int, seconds: float, trace: bool, out_dir: str) -> dict:
    """One run of one workload; returns the result (also written to result.json)."""
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    result = {"workload": w.name, "seed": seed, "seconds": seconds, "trace": trace,
              "machine": machine_block(ROOT, seed)}
    runner = JobRunner()
    metrics, notes, checks_ok = (_traced if trace else _untraced)(w, seed, seconds, out_dir,
                                                                   runner, result)
    failed = len(runner.failures)
    notes += [f"FAILED {f}" for f in runner.failures]
    result.update(correct=bool(checks_ok and failed == 0), attempted=runner.attempted,
                  failed=failed, failures=runner.failures, notes=notes,
                  metrics={k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()})
    with open(os.path.join(out_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    return result


def _untraced(w, seed, seconds, out_dir, runner, result):
    """Set up SETUP_REPS times, warm up, then cycle the jobs for ``seconds``
    (the first pass always completes)."""
    setup_times, setups = [], []
    for k in range(SETUP_REPS):
        t0 = perf_counter()
        setups.append(_setup(w, seed, out_dir, k))
        setup_times.append(perf_counter() - t0)
    same = all(_same_files(setups[0][0], inputs) for inputs, _ in setups[1:])
    jobs = setups[-1][1]
    runner.run(jobs[0])  # warm-up: first-job costs are not measured
    walls: dict[str, list[float]] = {}
    cpus: dict[str, list[float]] = {}
    first_pass = []
    t_start = perf_counter()
    i = 0
    while i < len(jobs) or perf_counter() - t_start < seconds:
        job = jobs[i % len(jobs)]
        wall, cpu, record = runner.run(job)
        walls.setdefault(job.config.name, []).append(wall)
        cpus.setdefault(job.config.name, []).append(cpu)
        if i < len(jobs) and record is not None:
            first_pass.append(record.test_nrmse)
        i += 1
    values = {"job_s": _kind_median(walls), "job_cpu_s": _kind_median(cpus),
              # mean over one pass of distinct jobs; fixed for a given seed
              "test_nrmse": float(np.mean(first_pass)) if first_pass else math.nan,
              "setup_s": statistics.median(setup_times),
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    result.update(job_walls=walls, job_cpus=cpus, setup_times=setup_times)
    notes = [_tail_note(f"job_s[{kind}]", samples) for kind, samples in walls.items()]
    notes.append(f"set-up repetitions wrote identical files: {same}")
    return {k: (v, E2E_UNITS[k]) for k, v in values.items()}, notes, same


def _traced(w, seed, seconds, out_dir, runner, result):
    """One traced set-up, a warm-up, then whole passes over the jobs in which
    each job runs untraced and then traced, so the overhead is measured on
    equal work and the per-job layer numbers always cover the same job mix."""
    tracer = Tracer()
    with tracer.installed(), tracer.unit_span("setup"):
        _, jobs = _setup(w, seed, out_dir, 0)
    runner.run(jobs[0])  # warm-up
    untraced: dict[str, list[float]] = {}
    traced: dict[str, list[float]] = {}
    t_start = perf_counter()
    while True:
        t_pass = perf_counter()
        for job in jobs:
            untraced.setdefault(job.config.name, []).append(runner.run(job)[0])
            with tracer.installed(), tracer.unit_span("job"):
                traced.setdefault(job.config.name, []).append(runner.run(job)[0])
        now = perf_counter()
        if now - t_start + (now - t_pass) > seconds:  # the next pass would overrun
            break
    metrics, spans, misnested = tracer.metrics()
    t_job, u_job = _kind_median(traced), _kind_median(untraced)
    metrics.update({"bench.job_s_traced": (t_job, "s"), "bench.job_s_untraced": (u_job, "s"),
                    "bench.trace_overhead_s": (t_job - u_job, "s"),
                    "bench.traced_jobs": (sum(map(len, traced.values())), "count")})
    np.savez(os.path.join(out_dir, "spans.npz"), names=np.array(tracer.names), **spans)
    result.update(job_walls_untraced=untraced, job_walls_traced=traced)
    notes = [f"spans: {len(spans['sid'])} recorded, {misnested} outside their parent"]
    notes += [f"traced function missing from the program: {name}"
              for name in sorted(tracer.missing)]
    return metrics, notes, misnested == 0 and not tracer.missing
