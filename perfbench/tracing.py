"""Outside-in tracing for the benchmark's traced run.

``Tracer.installed()`` replaces program functions with timing wrappers in
every namespace that holds them (module attributes, names imported with
``from x import y``, and two class methods), and puts every original back on
exit.  A traced function the program no longer has is listed in
``Tracer.missing``, which makes the run incorrect rather than reading 0.  A tensor-op wrapper also wraps the ``_backward`` closure of the tensor
it returns, so backward time is split by op.  Spans (name, start, end, parent,
unit) are kept in per-thread column buffers and reduced to per-layer metrics
by ``Tracer.metrics``; nothing is written while a job runs.

A unit is one traced setup or one traced job.  A span opened on a thread with
no open span (a Parallel Flipping worker) takes ``fallback_parent``, which the
``parallel_flipping_train`` wrapper sets to its own span.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import os
import sys
import threading
from array import array
from time import perf_counter, thread_time

import numpy as np

from crossmodal_pde import (
    adaptation,
    bidir,
    container,
    otdd,
    pde_data,
    proxy_data,
    tensor,
    transformer,
)

PACKAGE = "crossmodal_pde"
NAMED_OPS = ("matmul", "softmax_lastdim", "gelu", "layer_norm", "logsumexp_lastdim",
             "add", "mul", "transpose")
BYTES_OPS = ("softmax_lastdim", "gelu", "layer_norm")
_NOT_OPS = {"grad_enabled", "no_grad", "optimizer_step", "zero_grads"}

# inclusive wall time per traced job
JOB_SPANS = ("tensor.optimizer_step", "transformer.forward_hidden", "otdd.otdd_distance",
             "proxy_data.build_proxy_set", "adaptation.orca_stage1", "adaptation.finetune",
             "adaptation.evaluate_nrmse", "adaptation.run_adaptation",
             "bidir.parallel_flipping_train", "bidir.sequence_doubling_forward",
             "bidir.FlipPair.predict", "pde_data.load_dataset", "container.read_container")
# inclusive wall time per traced setup
SETUP_SPANS = ("transformer.pretrain", "proxy_data.gen_corpus", "pde_data.build_dataset",
               "container.write_container")


def tensor_ops() -> list[str]:
    """Public tape ops of the tensor module, found by inspection so that an op
    added later is traced (as ``tensor.other``) without editing this file."""
    return sorted(name for name, fn in vars(tensor).items()
                  if inspect.isfunction(fn) and fn.__module__ == tensor.__name__
                  and not name.startswith("_") and name not in _NOT_OPS)


def _data(x):
    return np.asarray(getattr(x, "data", x))


# Counter hooks: (positional args, result) -> {counter: value}.  Bytes and
# flops are computed from array sizes, not measured.
def _matmul_flops(args, out):
    return {"tensor.matmul.flops": 2 * out.data.size * _data(args[0]).shape[-1]}


def _op_bytes(op):
    return lambda args, out: {f"tensor.{op}.bytes": _data(args[0]).nbytes + out.data.nbytes}


def _file_bytes(key):
    return lambda args, out: {key: os.path.getsize(args[0])}


def _forward_tokens(args, out):
    return {"transformer.forward_hidden.tokens": out.data.shape[0]}


def _eval_calls(args, out):
    return {} if tensor.grad_enabled() else {"adaptation.predict_sequence.calls_eval": 1}


def _sinkhorn_counts(args, out):
    return {"otdd.sinkhorn.iterations": out.iterations,
            "otdd.sinkhorn.converged": int(out.converged),
            "otdd.sinkhorn.solves": 1,
            "otdd.sinkhorn.marginal_violation_max": out.marginal_violation}


def _merge(key, a, b):
    return max(a, b) if key.endswith("_max") else a + b


class _Buffer:
    """One thread's spans as parallel columns, plus its counters."""

    def __init__(self):
        self.stack: list[int] = []  # ids of open spans
        self.sinkhorn_depth = 0  # open sinkhorn spans: tape ops under them are refinement
        self.sid, self.parent = array("q"), array("q")
        self.nid, self.unit, self.tag = array("i"), array("i"), array("b")
        self.t0, self.t1 = array("d"), array("d")
        self.counts: dict[tuple[int, str], float] = {}

    def record(self, sid, nid, parent, t0, t1, unit, tag):
        self.sid.append(sid)
        self.nid.append(nid)
        self.parent.append(parent)
        self.t0.append(t0)
        self.t1.append(t1)
        self.unit.append(unit)
        self.tag.append(tag)

    def add(self, unit, counts):
        for key, value in counts.items():
            self.counts[unit, key] = _merge(key, self.counts.get((unit, key), 0), value)


class Tracer:
    def __init__(self):
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._buffers: list[_Buffer] = []
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.unit = 0
        self.unit_kinds: dict[int, str] = {}
        self.fallback_parent = 0
        self.patched: list[tuple[object, str, object]] = []
        self.missing: set[str] = set()  # traced functions the program no longer has

    # -- recording -------------------------------------------------------------

    def nid(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _buf(self) -> _Buffer:
        buf = getattr(self._tls, "buf", None)
        if buf is None:
            buf = self._tls.buf = _Buffer()
            self._buffers.append(buf)
        return buf

    @contextlib.contextmanager
    def _open(self, nid, tag=0):
        buf = self._buf()
        stack = buf.stack
        parent = stack[-1] if stack else self.fallback_parent
        sid = next(self._ids)
        stack.append(sid)
        t0 = perf_counter()
        try:
            yield buf
        finally:
            t1 = perf_counter()
            stack.pop()
            buf.record(sid, nid, parent, t0, t1, self.unit, tag)

    def _span(self, fn, name, count=None, closure_name=None):
        """Wrap ``fn`` in a span; ``count(args, out)`` adds counters, and
        ``closure_name`` makes the wrapper also time the result's backward."""
        nid = self.nid(name)
        bwd_nid = self.nid(closure_name) if closure_name else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self._open(nid) as buf:
                out = fn(*args, **kwargs)
            if bwd_nid is not None:
                self._wrap_closure(out, bwd_nid, int(buf.sinkhorn_depth > 0))
            if count is not None:
                buf.add(self.unit, count(args, out))
            return out

        return wrapper

    def _wrap_closure(self, out, nid, tag):
        inner = getattr(out, "_backward", None)
        if inner is None or getattr(inner, "traced", False):
            return

        def closure(g):
            with self._open(nid, tag):
                return inner(g)

        closure.traced = True
        out._backward = closure

    def _run_adaptation(self, fn):
        """Also counts wait: wall time minus the calling thread's CPU time."""
        traced = self._span(fn, "adaptation.run_adaptation")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0, c0 = perf_counter(), thread_time()
            out = traced(*args, **kwargs)
            wait = (perf_counter() - t0) - (thread_time() - c0)
            self._buf().add(self.unit, {"adaptation.run_adaptation.wait_s": wait})
            return out

        return wrapper

    def _parallel_flipping(self, fn):
        """Spans on the worker threads it starts take this span as parent."""
        def body(*args, **kwargs):
            saved, self.fallback_parent = self.fallback_parent, self._buf().stack[-1]
            try:
                return fn(*args, **kwargs)
            finally:
                self.fallback_parent = saved

        return functools.wraps(fn)(self._span(body, "bidir.parallel_flipping_train"))

    def _sinkhorn(self, fn):
        """Marks the tape ops the solve creates (refinement) for the closure tag."""
        def body(*args, **kwargs):
            buf = self._buf()
            buf.sinkhorn_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                buf.sinkhorn_depth -= 1

        return functools.wraps(fn)(self._span(body, "otdd.sinkhorn", count=_sinkhorn_counts))

    @contextlib.contextmanager
    def unit_span(self, kind: str):
        """Root span of one traced setup (``kind="setup"``) or job (``"job"``)."""
        unit = len(self.unit_kinds) + 1
        self.unit_kinds[unit] = kind
        self.unit = unit
        try:
            with self._open(self.nid(f"bench.{kind}")):
                yield
        finally:
            self.unit = 0

    # -- patching --------------------------------------------------------------

    def _targets(self):
        """(owner, attribute, wrapper factory) for every traced function."""
        def span(name, count=None):
            return lambda fn: self._span(fn, name, count=count)

        def op(name):
            count = _matmul_flops if name == "matmul" else (
                _op_bytes(name) if name in BYTES_OPS else None)
            return lambda fn: self._span(fn, f"tensor.{name}", count=count,
                                         closure_name=f"tensor.{name}.bwd")

        targets = [(tensor, name, op(name)) for name in tensor_ops()]
        for mod, attr, count in [
                (tensor, "optimizer_step", None), (transformer, "pretrain", None),
                (transformer, "forward_hidden", _forward_tokens),
                (otdd, "otdd_distance", None), (proxy_data, "build_proxy_set", None),
                (proxy_data, "gen_corpus", None), (adaptation, "orca_stage1", None),
                (adaptation, "finetune", None), (adaptation, "evaluate_nrmse", None),
                (adaptation, "predict_sequence", _eval_calls),
                (bidir, "sequence_doubling_forward", None), (pde_data, "build_dataset", None),
                (pde_data, "load_dataset", None),
                (container, "read_container", _file_bytes("container.read_container.bytes")),
                (container, "write_container", _file_bytes("container.write_container.bytes"))]:
            targets.append((mod, attr, span(f"{mod.__name__.rsplit('.', 1)[-1]}.{attr}", count)))
        return targets + [
            (otdd, "sinkhorn", self._sinkhorn),
            (adaptation, "run_adaptation", self._run_adaptation),
            (bidir, "parallel_flipping_train", self._parallel_flipping),
            (tensor.Tensor, "backward", span("tensor.backward")),
            (bidir.FlipPair, "predict", span("bidir.FlipPair.predict"))]

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced function in every namespace that holds it; undo on exit."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        try:
            for owner, attr, factory in self._targets():
                original = vars(owner).get(attr)
                if original is None:  # moved or renamed: its metrics would read a false 0
                    self.missing.add(f"{owner.__name__}.{attr}")
                    continue
                wrapper = factory(original)
                for ns in ([owner] if isinstance(owner, type) else modules):
                    for key, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, key, wrapper)
                            self.patched.append((ns, key, original))
            yield self
        finally:
            for ns, key, original in reversed(self.patched):
                setattr(ns, key, original)
            self.patched.clear()

    # -- reduction -------------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        cols = ("sid", "parent", "nid", "unit", "tag", "t0", "t1")
        out = {c: np.concatenate([np.asarray(getattr(b, c)) for b in self._buffers])
               for c in cols}
        out["thread"] = np.concatenate([np.full(len(b.sid), i, dtype=np.int32)
                                        for i, b in enumerate(self._buffers)])
        return out

    @staticmethod
    def self_times(sp: dict[str, np.ndarray]) -> tuple[np.ndarray, np.ndarray, int]:
        """Per-span self time, each span's parent row (-1 for roots), and the
        number of spans that do not lie inside their parent's interval and unit."""
        order = np.argsort(sp["sid"])
        prow = np.full(len(order), -1, dtype=np.int64)
        child = np.nonzero(sp["parent"] != 0)[0]
        prow[child] = order[np.searchsorted(sp["sid"], sp["parent"][child], sorter=order)]
        dur = sp["t1"] - sp["t0"]
        cover = np.zeros_like(dur)
        same = sp["thread"][child] == sp["thread"][prow[child]]
        np.add.at(cover, prow[child[same]], dur[child[same]])
        # children on other threads may overlap each other: cover their union
        cross: dict[int, list[tuple[float, float]]] = {}
        for c in child[~same]:
            cross.setdefault(int(prow[c]), []).append((sp["t0"][c], sp["t1"][c]))
        for p, intervals in cross.items():
            end = -np.inf
            for lo, hi in sorted(intervals):
                lo = max(lo, end)
                if hi > lo:
                    cover[p] += hi - lo
                    end = hi
        p = prow[child]
        bad = int(np.count_nonzero((sp["t0"][child] < sp["t0"][p])
                                   | (sp["t1"][child] > sp["t1"][p])
                                   | (sp["unit"][child] != sp["unit"][p])))
        return dur - cover, prow, bad

    def metrics(self) -> tuple[dict[str, tuple[float, str]], dict[str, np.ndarray], int]:
        """Per-layer metrics (setup-scoped spans per traced setup, the rest per
        traced job), the span columns, and the count of misnested spans."""
        sp = self.spans()
        self_t, prow, bad = self.self_times(sp)
        dur = sp["t1"] - sp["t0"]
        jobs = [u for u, k in self.unit_kinds.items() if k == "job"]
        setups = [u for u, k in self.unit_kinds.items() if k == "setup"]
        in_jobs, in_setups = np.isin(sp["unit"], jobs), np.isin(sp["unit"], setups)
        n_jobs, n_setups = max(1, len(jobs)), max(1, len(setups))
        nid = sp["nid"]

        def named(*names, where=in_jobs):
            return where & np.isin(nid, [self._name_ids.get(n, -1) for n in names])

        def merged(units):
            out: dict[str, float] = {}
            for buf in self._buffers:
                for (unit, key), value in buf.counts.items():
                    if unit in units:
                        out[key] = _merge(key, out.get(key, 0), value)
            return out

        counts, setup_counts = merged(jobs), merged(setups)

        def per_job(key):
            return counts.get(key, 0) / n_jobs

        m: dict[str, tuple[float, str]] = {}
        other = [o for o in tensor_ops() if o not in NAMED_OPS]
        for op in NAMED_OPS + ("other",):
            group = other if op == "other" else [op]
            fwd = named(*(f"tensor.{o}" for o in group))
            m[f"tensor.{op}.fwd_s"] = (self_t[fwd].sum() / n_jobs, "s")
            m[f"tensor.{op}.bwd_s"] = (
                self_t[named(*(f"tensor.{o}.bwd" for o in group))].sum() / n_jobs, "s")
            m[f"tensor.{op}.calls"] = (fwd.sum() / n_jobs, "count")
        m["tensor.matmul.flops"] = (per_job("tensor.matmul.flops"), "flop")
        for op in BYTES_OPS:
            m[f"tensor.{op}.bytes"] = (per_job(f"tensor.{op}.bytes"), "B")

        closures = named(*(n for n in self.names if n.endswith(".bwd")))
        back = named("tensor.backward")
        m["tensor.backward.s"] = (dur[back].sum() / n_jobs, "s")
        m["tensor.backward.bookkeeping_s"] = (self_t[back].sum() / n_jobs, "s")
        m["tensor.backward.nodes"] = (closures.sum() / n_jobs, "count")

        for name in JOB_SPANS:
            m[f"{name}.s"] = (dur[named(name)].sum() / n_jobs, "s")
        for name in SETUP_SPANS:
            m[f"{name}.s"] = (dur[named(name, where=in_setups)].sum() / n_setups, "s")
        m["transformer.forward_hidden.calls"] = (named("transformer.forward_hidden").sum()
                                                 / n_jobs, "count")
        m["transformer.forward_hidden.tokens"] = (per_job("transformer.forward_hidden.tokens"),
                                                  "count")

        sk = named("otdd.sinkhorn")
        solves = counts.get("otdd.sinkhorn.solves", 0)
        m["otdd.sinkhorn.solve_s"] = (self_t[sk].sum() / n_jobs, "s")
        m["otdd.sinkhorn.refine_fwd_s"] = (dur[np.isin(prow, np.nonzero(sk)[0])].sum()
                                           / n_jobs, "s")
        m["otdd.sinkhorn.refine_bwd_s"] = (self_t[closures & (sp["tag"] == 1)].sum()
                                           / n_jobs, "s")
        m["otdd.sinkhorn.iterations"] = (per_job("otdd.sinkhorn.iterations"), "count")
        m["otdd.sinkhorn.solves"] = (solves / n_jobs, "count")
        m["otdd.sinkhorn.converged_ratio"] = (
            counts.get("otdd.sinkhorn.converged", 0) / solves if solves else 0.0, "ratio")
        m["otdd.sinkhorn.marginal_violation_max"] = (
            counts.get("otdd.sinkhorn.marginal_violation_max", 0.0), "1")

        m["proxy_data.build_proxy_set.calls"] = (named("proxy_data.build_proxy_set").sum()
                                                 / n_jobs, "count")
        m["adaptation.predict_sequence.calls_eval"] = (
            per_job("adaptation.predict_sequence.calls_eval"), "count")
        wait, run_s = per_job("adaptation.run_adaptation.wait_s"), m["adaptation.run_adaptation.s"][0]
        m["adaptation.run_adaptation.wait_s"] = (wait, "s")
        m["adaptation.run_adaptation.wait_share"] = (wait / run_s if run_s else 0.0, "ratio")
        m["container.read_container.bytes"] = (per_job("container.read_container.bytes"), "B")
        m["container.write_container.bytes"] = (
            setup_counts.get("container.write_container.bytes", 0) / n_setups, "B")

        # a job's time outside every traced function is the self time of its root span
        roots = named("bench.job")
        m["bench.span_coverage_min"] = (float(np.min(1 - self_t[roots] / dur[roots]))
                                        if roots.any() else 0.0, "ratio")
        m["bench.spans_per_job"] = (in_jobs.sum() / n_jobs, "count")
        return m, sp, bad
