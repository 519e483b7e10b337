"""Dense float32 tensors with reverse-mode autodiff and the SGD/Adam/AdamW optimizers.

Storage is 32-bit.  Reductions accumulate in 64-bit before casting back: sum
and mean, the softmax and logsumexp row sums, and the layer-norm statistics
(mean and variance) with their normalisation.  Two hot elementwise kernels
work in float32 throughout:

- ``gelu`` takes its normal cdf from ``_erf32``, a rational approximation of
  ``erf`` within 3e-7 of the float64 cdf (``invariants.gelu_vs_float64_erf``);
- ``softmax_lastdim`` rounds its float64 row sum to float32 once and divides
  in float32, within one float32 ulp of the rounded float64 quotient.

The tape is built per forward pass and freed by ``backward``; there are no
higher-order gradients.  Besides elementary ops it has a node for each
residual branch of a pre-norm transformer layer: ``attention_branch``, ``x +
attention(layer_norm(x))``, and ``mlp_branch``, ``x + mlp(layer_norm(x))``.
Each runs its op chain's numpy operations in the chain's order (bitwise the
chain's result and gradients), shares its kernels with ``layer_norm`` and
``softmax_lastdim`` or ``gelu``, and keeps for backward only the arrays its
backward reads: the layer norm's normalized rows and inverse deviations;
q, k^T, v and the attention probabilities, or the GELU slope; and the
layer-norm output, merged context or GELU output only where a weight that
reads it trains.  One FPT step of the benchmark's model on 4 frames of 128
points peaks at 11.9 MiB of traced allocations for either arch, against 15.8
(encoder) and 15.5 MiB (decoder) with separate layer-norm, sub-block and add
nodes whose MLP kept the pre-activation and its cdf.  Causal attention skips,
by row blocks, the keys a query cannot see.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import threading
from dataclasses import dataclass, field

import numpy as np


def _keep_freed_memory() -> None:
    """Keep the memory a freed tape held in the process for the next forward.

    glibc serves blocks from 128 KiB up with mmap (raising that threshold only
    as it sees such blocks freed) and returns the top of the heap to the
    kernel once 128 KiB of it is free.  ``backward`` frees a whole tape at
    once, so the next forward pass page-faults the same memory back in.  With
    frozen weights off the tape nothing pins the top of the heap any more:
    on the benchmark's ``finetune`` jobs (default model, L=128, 2-core x86-64
    VM, glibc 2.36) the median minor faults per job went from 12k to 47k and
    the job got no faster.  A fixed 32 MiB mmap threshold and a 256 MiB trim
    threshold keep the memory: 0 minor faults per job and 0.82 -> 0.59 s
    against the tape that still formed frozen gradients, with a lower peak
    RSS (128 -> 99 MB).  The setting is process-wide; it is skipped where the
    C library has no ``mallopt``.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 256 << 20)  # M_TRIM_THRESHOLD


_keep_freed_memory()


@functools.cache
def _openblas():
    """numpy's OpenBLAS as a ``ctypes.CDLL``, or None where it is not loaded.

    The library behind ``matmul`` and ``np.linalg.solve`` is found among the
    mapped shared objects whose path names BLAS, by the thread-count setter
    numpy's wheel build exports (``scipy_openblas_set_num_threads64_``).  The
    same library carries LAPACK under ``scipy_``-prefixed 64-bit-integer
    names, which ``pde_data`` calls for its tridiagonal solves, so no second
    BLAS needs to be loaded.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "blas" in line.lower() and line.split()[-1].startswith("/")})
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        if hasattr(lib, "scipy_openblas_set_num_threads64_"):
            return lib
    return None


@functools.cache
def _openblas_threads():
    """numpy's OpenBLAS thread-count (getter, setter), or None where
    ``_openblas`` finds no such library.

    Any other BLAS the process maps (scipy's, once something imports
    ``scipy.linalg``) keeps its own pool and count.
    """
    lib = _openblas()
    if lib is None:
        return None
    getter = lib.scipy_openblas_get_num_threads64_
    setter = lib.scipy_openblas_set_num_threads64_
    getter.argtypes, getter.restype = (), ctypes.c_int
    setter.argtypes, setter.restype = (ctypes.c_int,), None
    return getter, setter


class blas_threads:
    """Context manager: run the block with numpy's OpenBLAS at ``n`` threads,
    then restore the previous count (also when the block raises).

    The count is process-wide, so the scope belongs to the thread that does
    the process's BLAS work.  Nothing changes where ``_openblas_threads``
    finds no setter.  The count can move results in their last bits: LAPACK's
    LU factorisation and products with a long inner dimension sum in another
    order on more threads.  It is a class, not a generator function, so that the
    benchmark's tracer, which wraps this module's public functions as tape
    ops, passes it by.
    """

    def __init__(self, n: int):
        self.n = n
        self._restore = None

    def __enter__(self) -> "blas_threads":
        api = _openblas_threads()
        if api is not None:
            getter, setter = api
            previous = getter()
            setter(self.n)
            self._restore = lambda: setter(previous)
        return self

    def __exit__(self, *exc) -> None:
        if self._restore is not None:
            self._restore()
            self._restore = None


class ShapeError(ValueError):
    """Operand shapes violate an operation's contract."""


class ContractError(ValueError):
    """An operation was called outside its contract (non-shape)."""


_tape_state = threading.local()  # tapes are thread-confined, so is this flag


def grad_enabled() -> bool:
    return getattr(_tape_state, "enabled", True)


@contextlib.contextmanager
def no_grad():
    """Disable tape construction inside the block (pure-numpy forward)."""
    prev = grad_enabled()
    _tape_state.enabled = False
    try:
        yield
    finally:
        _tape_state.enabled = prev


class Tensor:
    """A dense n-dimensional float32 array, optionally on the gradient tape."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float32)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    # -- introspection -------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a scalar, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def copy(self) -> "Tensor":
        """Leaf copy of the current values (off the tape)."""
        t = Tensor(self.data.copy(), requires_grad=self.requires_grad)
        return t

    # -- autodiff ------------------------------------------------------

    def backward(self) -> None:
        """Populate ``grad`` on every requires_grad leaf reachable from this scalar.

        Leaves are tensors without a backward closure (parameters and
        inputs); interior nodes only pass their gradient on and keep
        ``grad`` None.  Repeated calls (on fresh tapes) accumulate into
        existing ``grad`` buffers.  The tape below this node is freed: each
        node drops its closure, and so the arrays it saved, as soon as the
        closure has run, and nodes no gradient reached drop theirs at the end.
        """
        if self.data.size != 1:
            raise ContractError(f"backward() needs a scalar loss, got shape {self.shape}")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))

        # A parent's first gradient is stored as received, so it may be shared
        # (``add`` hands one array to both operands); it is copied only when a
        # second contribution must be added in place (copy-on-accumulate).
        flowing: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        owned: set[int] = set()
        for node in reversed(topo):
            g = flowing.pop(id(node), None)
            if g is None:
                continue
            if node._backward is None:
                if node.requires_grad:
                    if node.grad is None:
                        node.grad = np.zeros_like(node.data)
                    node.grad += g
            else:
                for parent, pg in node._backward(g):
                    if not parent.requires_grad:
                        continue
                    key = id(parent)
                    buf = flowing.get(key)
                    if buf is None:
                        # strided and broadcast views are made dense, as a copy would
                        dense = pg.flags.c_contiguous or pg.flags.f_contiguous
                        flowing[key] = pg.astype(np.float32, copy=not dense)
                    elif key in owned:
                        buf += pg
                    else:
                        buf = flowing[key] = buf.copy(order="K")
                        buf += pg
                        owned.add(key)
                # the node's closure has run: free the arrays it saved now
                node._parents = ()
                node._backward = None
        # free the nodes no gradient reached
        for node in topo:
            node._parents = ()
            node._backward = None


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    out = Tensor(data)
    if grad_enabled() and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcast gradient back to the original operand shape."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# -- arithmetic --------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data + b.data

    def bwd(g):
        grads = []
        if a.requires_grad:
            grads.append((a, _unbroadcast(g, a.data.shape)))
        if b.requires_grad:
            grads.append((b, _unbroadcast(g, b.data.shape)))
        return grads

    return _make(out, (a, b), bwd)


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data - b.data

    def bwd(g):
        grads = []
        if a.requires_grad:
            grads.append((a, _unbroadcast(g, a.data.shape)))
        if b.requires_grad:
            grads.append((b, _unbroadcast(-g, b.data.shape)))
        return grads

    return _make(out, (a, b), bwd)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data * b.data

    def bwd(g):
        grads = []
        if a.requires_grad:
            grads.append((a, _unbroadcast(g * b.data, a.data.shape)))
        if b.requires_grad:
            grads.append((b, _unbroadcast(g * a.data, b.data.shape)))
        return grads

    return _make(out, (a, b), bwd)


def div(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data / b.data

    def bwd(g):
        grads = []
        if a.requires_grad:
            grads.append((a, _unbroadcast(g / b.data, a.data.shape)))
        if b.requires_grad:
            grads.append((b, _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape)))
        return grads

    return _make(out, (a, b), bwd)


def neg(a) -> Tensor:
    a = _as_tensor(a)
    return _make(-a.data, (a,), lambda g: ((a, -g),))


def square(a) -> Tensor:
    a = _as_tensor(a)
    return _make(a.data * a.data, (a,), lambda g: ((a, g * 2.0 * a.data),))


def sqrt(a) -> Tensor:
    a = _as_tensor(a)
    out = np.sqrt(a.data)

    def bwd(g):
        return ((a, g * (0.5 / out)),)

    return _make(out, (a,), bwd)


_INV_SQRT2 = np.float32(0.7071067811865476)
_INV_SQRT_2PI = np.float32(0.3989422804014327)
# Eigen's float32 erf on [-4, 4]: z * P(z^2) / Q(z^2), coefficients from the
# highest power down
_ERF_P = tuple(np.float32(c) for c in (
    -2.72614225801306e-10, 2.77068142495902e-08, -2.10102402082508e-06,
    -5.69250639462346e-05, -7.34990630326855e-04, -2.95459980854025e-03,
    -1.60960333262415e-02))
_ERF_Q = tuple(np.float32(c) for c in (
    -1.45660718464996e-05, -2.13374055278905e-04, -1.68282697438203e-03,
    -7.37332916720468e-03, -1.42647390514189e-02))


def _erf32(z: np.ndarray) -> np.ndarray:
    """erf of a float32 array in float32, within 5e-7 of float64 erf.

    ``z`` is overwritten.  It is clamped to [-4, 4], where |erf| already
    rounds to 1 in float32, and the result is clamped to [-1, 1]; +-inf give
    +-1 and NaN stays NaN.
    """
    np.clip(z, np.float32(-4.0), np.float32(4.0), out=z)
    z2 = z * z
    p = z2 * _ERF_P[0]
    for c in _ERF_P[1:-1]:
        p += c
        p *= z2
    p += _ERF_P[-1]
    p *= z
    q = np.multiply(z2, _ERF_Q[0], out=z)
    for c in _ERF_Q[1:-1]:
        q += c
        q *= z2
    q += _ERF_Q[-1]
    p /= q
    return np.clip(p, np.float32(-1.0), np.float32(1.0), out=p)


def _gelu_cdf(x: np.ndarray) -> np.ndarray:
    """The standard normal cdf of float32 ``x``, 0.5 * (1 + erf(x / sqrt(2))),
    in float32 and in [0, 1]."""
    cdf = _erf32(x * _INV_SQRT2)
    cdf *= np.float32(0.5)
    cdf += np.float32(0.5)
    return cdf


def _gelu_slope(x: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    """The derivative of GELU at float32 ``x`` whose cdf is ``cdf``:
    Phi(x) + x * phi(x), in float32, formed in one new array."""
    slope = np.float32(-0.5) * x
    slope *= x
    np.exp(slope, out=slope)
    slope *= _INV_SQRT_2PI  # phi(x)
    slope *= x
    slope += cdf
    return slope


def gelu(a) -> Tensor:
    """Exact GELU, x * Phi(x), with the normal cdf Phi evaluated in float32
    by ``_erf32`` (within 3e-7 of the float64 cdf).  GELU(+inf) is +inf;
    GELU(-inf) and GELU(NaN) are NaN."""
    a = _as_tensor(a)
    cdf = _gelu_cdf(a.data)
    out = a.data * cdf

    def bwd(g):
        return ((a, g * _gelu_slope(a.data, cdf)),)

    return _make(out, (a,), bwd)


def maximum_const(a, floor: float) -> Tensor:
    """Elementwise max(a, floor); gradient passes only where a > floor."""
    a = _as_tensor(a)
    out = np.maximum(a.data, np.float32(floor))
    keep = a.data > np.float32(floor)

    def bwd(g):
        return ((a, g * keep),)

    return _make(out, (a,), bwd)


# -- linear algebra ----------------------------------------------------


def matmul(a, b) -> Tensor:
    """Matrix product; supports identical leading batch dims (no batch broadcast)."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError("matmul needs at least 2-D operands")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul inner dims disagree: {a.data.shape} x {b.data.shape}")
    if a.data.shape[:-2] != b.data.shape[:-2]:
        raise ShapeError(f"matmul batch dims disagree: {a.data.shape} x {b.data.shape}")
    out = a.data @ b.data

    def bwd(g):
        grads = []
        if a.requires_grad:
            grads.append((a, g @ np.swapaxes(b.data, -1, -2)))
        if b.requires_grad:
            grads.append((b, np.swapaxes(a.data, -1, -2) @ g))
        return grads

    return _make(out, (a, b), bwd)


def transpose(a, axes: tuple[int, ...]) -> Tensor:
    a = _as_tensor(a)
    inv = tuple(np.argsort(axes))

    def bwd(g):
        return ((a, np.ascontiguousarray(g.transpose(inv))),)

    return _make(np.ascontiguousarray(a.data.transpose(axes)), (a,), bwd)


def transpose_last2(a) -> Tensor:
    a = _as_tensor(a)
    n = a.data.ndim
    axes = tuple(range(n - 2)) + (n - 1, n - 2)
    return transpose(a, axes)


def reshape(a, shape: tuple[int, ...]) -> Tensor:
    a = _as_tensor(a)
    old = a.data.shape

    def bwd(g):
        return ((a, g.reshape(old)),)

    return _make(a.data.reshape(shape), (a,), bwd)


def _scatter_add_rows(shape: tuple[int, ...], idx: np.ndarray, g: np.ndarray) -> np.ndarray:
    """``np.add.at(np.zeros(shape), idx, g)`` bit for bit, signed zeros
    included, without ``np.add.at``: each row is the sum, started from +0.0,
    of the rows of ``g`` gathered from it, in index order.

    Strictly increasing indices cannot repeat, so their scatter is a plain
    assignment.  A tile of ``arange(L)`` (the position index of a batch)
    adds its B slices of L rows to the first L rows one slice at a time.
    Other indices are stably sorted by row, and the k-th row gathered from
    each target goes into slice k of a zero buffer whose slices are added up
    one at a time: a partial sum from +0.0 is never -0.0, so the zeros that
    pad the shorter runs change no bit.  The slices are added in a Python
    loop because a numpy reduction over them sums pairwise where each slice
    is one element.
    """
    acc = np.zeros(shape, g.dtype)
    flat = idx.ravel()
    g = g.reshape(flat.size, *shape[1:])
    if np.all(np.diff(flat) > 0):
        acc[flat] = g
        return acc
    L = int(flat[-1]) + 1
    if flat.size % L == 0 and np.array_equal(flat.reshape(-1, L), np.broadcast_to(
            np.arange(L), (flat.size // L, L))):
        for part in g.reshape(-1, L, *shape[1:]):
            acc[:L] += part
        return acc
    order = np.argsort(flat, kind="stable")
    ids = flat[order]
    first = np.empty(flat.size, bool)  # where each run of one row starts
    first[0] = True
    np.not_equal(ids[1:], ids[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    run = np.cumsum(first) - 1
    n = len(starts)
    slot = np.empty_like(order)
    slot[order] = (np.arange(flat.size) - starts[run]) * n + run
    buf = np.zeros((int(slot.max()) // n + 1, n, *shape[1:]), g.dtype)
    buf.reshape(-1, *shape[1:])[slot] = g
    sums = np.zeros_like(buf[0])
    for part in buf:
        sums += part
    acc[ids[starts]] = sums
    return acc


def take_rows(a, idx) -> Tensor:
    """Gather rows (axis 0) by integer index; backward scatter-adds, bit for
    bit as ``np.add.at`` would (``_scatter_add_rows``)."""
    a = _as_tensor(a)
    idx = np.asarray(idx, dtype=np.int64)
    out = a.data[idx]
    if idx.size and idx.min() < 0:  # the row a negative index counts back to
        idx = idx + a.data.shape[0] * (idx < 0)

    def bwd(g):
        return ((a, _scatter_add_rows(a.data.shape, idx, g)),)

    return _make(out, (a,), bwd)


def take_cols(a, idx) -> Tensor:
    """Gather columns (axis 1) of a 2-D tensor by integer index."""
    a = _as_tensor(a)
    if a.data.ndim != 2:
        raise ShapeError("take_cols expects a 2-D tensor")
    idx = np.asarray(idx, dtype=np.int64)
    out = a.data[:, idx]

    def bwd(g):
        acc = np.zeros_like(a.data)
        np.add.at(acc.T, idx, g.T)
        return ((a, acc),)

    return _make(out, (a,), bwd)


def gather_lastdim(a, idx) -> Tensor:
    """Pick one entry per row along the last dim: out[...] = a[..., idx[...]]."""
    a = _as_tensor(a)
    idx = np.asarray(idx, dtype=np.int64)
    if idx.shape != a.data.shape[:-1]:
        raise ShapeError(f"index shape {idx.shape} must match leading dims {a.data.shape[:-1]}")
    out = np.take_along_axis(a.data, idx[..., None], axis=-1)[..., 0]

    def bwd(g):
        acc = np.zeros_like(a.data)
        np.put_along_axis(acc, idx[..., None], g[..., None], axis=-1)
        return ((a, acc),)

    return _make(out, (a,), bwd)


# -- reductions (64-bit accumulation) ----------------------------------


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims, dtype=np.float64).astype(np.float32)

    def bwd(g):
        if axis is None:
            return ((a, np.broadcast_to(g, a.data.shape)),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return ((a, np.broadcast_to(gg, a.data.shape)),)

    return _make(out, (a,), bwd)


def tmean(a) -> Tensor:
    a = _as_tensor(a)
    out = a.data.mean(dtype=np.float64).astype(np.float32)
    n = a.data.size

    def bwd(g):
        return ((a, np.broadcast_to(g / n, a.data.shape)),)

    return _make(out, (a,), bwd)


def _softmax_bias(bias, shape: tuple[int, ...]) -> np.ndarray:
    """``bias`` as an array, checked to be float and to broadcast to ``shape``."""
    bias = np.asarray(bias)
    if bias.dtype.kind != "f":
        raise ContractError(f"softmax bias must be a float array, got {bias.dtype}")
    if np.broadcast_shapes(bias.shape, shape) != shape:
        raise ShapeError(f"softmax bias {bias.shape} does not broadcast to {shape}")
    return bias


def _softmax_(z: np.ndarray, scale: np.float32, bias: np.ndarray | None) -> np.ndarray:
    """Overwrite float32 ``z`` with the softmax of ``z * scale + bias`` over
    its last dim and return it (the forward kernel of ``softmax_lastdim``)."""
    z *= scale
    if bias is not None:
        z += bias
    # fmax skips NaN where max propagates it, but a NaN entry stays in z and
    # turns its row's sum, and so the whole row, into NaN all the same
    z -= np.fmax.reduce(z, axis=-1, keepdims=True)
    np.exp(z, out=z)  # exp(-inf) == 0.0 exactly
    z /= z.sum(axis=-1, keepdims=True, dtype=np.float64).astype(np.float32)
    return z


def _softmax_grad(g: np.ndarray, probs: np.ndarray, scale: np.float32,
                  out: np.ndarray | None = None) -> np.ndarray:
    """The gradient of ``z`` for the gradient ``g`` of ``probs = _softmax_(z,
    scale, bias)`` (the backward kernel of ``softmax_lastdim``), written to
    ``out`` where given; ``out=g`` overwrites ``g``."""
    dot = (g * probs).sum(axis=-1, keepdims=True, dtype=np.float64).astype(np.float32)
    dz = np.subtract(g, dot, out=out)
    dz *= probs
    dz *= scale
    return dz


def softmax_lastdim(x, bias: np.ndarray | None = None, scale: float = 1.0) -> Tensor:
    """Stable softmax of ``x * scale + bias`` over the last dim.

    ``scale`` is rounded to float32 and multiplies ``x`` in float32, as
    ``mul(x, scale)`` would.  ``bias`` is an additive float array
    broadcastable to ``x`` holding 0.0 for kept and -inf for masked entries
    (see ``transformer.causal_bias``).  A masked entry gets weight exactly
    0.0 and is left out of the normalizer, so it has bit-exact zero
    influence on the weights, provided its score is finite (inf or NaN plus
    -inf is NaN).  A row with every entry masked gives NaN.

    The exponentials are float32.  Their row sum is taken in float64 and
    rounded to float32 once, and the division is float32, so each weight is
    within one float32 ulp of the float64 quotient rounded to float32.
    ``attention_branch`` runs the same two kernels.
    """
    x = _as_tensor(x)
    if x.data.ndim < 1 or x.data.shape[-1] < 1:
        raise ShapeError("softmax needs a non-empty last dimension")
    scale = np.float32(scale)
    if bias is not None:
        bias = _softmax_bias(bias, x.data.shape)
    out = _softmax_(x.data.copy(), scale, bias)

    def bwd(g):
        return ((x, _softmax_grad(g, out, scale)),)

    return _make(out, (x,), bwd)


def logsumexp_lastdim(x) -> Tensor:
    """log(sum(exp(x))) over the last dim, kept as a size-1 dim: [..., 1]."""
    x = _as_tensor(x)
    zmax = x.data.max(axis=-1, keepdims=True)
    e = np.exp((x.data - zmax).astype(np.float64))
    s = e.sum(axis=-1, keepdims=True)
    out = (np.log(s) + zmax).astype(np.float32)
    soft = (e / s).astype(np.float32)

    def bwd(g):
        return ((x, g * soft),)

    return _make(out, (x,), bwd)


# Rows dropped from a batch.  ``dropped_rows=(batch, n)`` marks a 2-D input
# that holds only the rows from n on of each of ``batch`` equal-length
# sequences, as the last layer of a trimmed ``transformer.forward_hidden``
# computes them (``attention_branch(queries_from=n)`` returns those rows).
# Row-wise work and the layer-norm gain and bias sums (float64, adding one
# row at a time) run on those rows alone.  The weight and projection-bias
# gradients see the dropped rows again, as exact zeros, so the gradients are
# bitwise those of the full rows with a zero gradient there: OpenBLAS splits a
# long inner dimension into chunks at points set by its length, and dropping
# the zero rows would move them.  ``mlp_branch`` runs its whole backward on
# the full rows: OpenBLAS also rounds a product by a transposed weight
# differently at small row counts (3 to 18 rows against twice as many).


def _check_dropped(x: np.ndarray, dropped_rows) -> tuple[int, int] | None:
    """``dropped_rows`` checked against the rows of ``x``; None where no row
    was dropped."""
    if dropped_rows is None:
        return None
    batch, n = dropped_rows
    if x.ndim != 2 or batch < 1 or n < 0 or x.shape[0] % batch:
        raise ShapeError(f"{x.shape} input does not hold the rows from {n} on of "
                         f"{batch} sequences")
    return (batch, n) if n else None


def _pad_rows(a: np.ndarray | None, dropped: tuple[int, int] | None) -> np.ndarray | None:
    """[batch * k, c] rows of ``a`` with each sequence's ``n`` dropped rows put
    back in front as exact zeros, [batch * (n + k), c] (``dropped = (batch,
    n)``); ``a`` itself where it is None or nothing was dropped."""
    if a is None or dropped is None:
        return a
    batch, n = dropped
    k = a.shape[0] // batch
    full = np.zeros((batch, n + k, a.shape[1]), a.dtype)
    full[:, n:] = a.reshape(batch, k, -1)
    return full.reshape(batch * (n + k), -1)


def _kept_rows(a: np.ndarray, dropped: tuple[int, int] | None) -> np.ndarray:
    """The rows of ``a`` that ``_pad_rows`` did not put back."""
    if dropped is None:
        return a
    batch, n = dropped
    return a.reshape(batch, a.shape[0] // batch, -1)[:, n:].reshape(-1, a.shape[1])


def _check_gain(gain: Tensor, bias: Tensor, d: int) -> None:
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise ShapeError(f"gain/bias must have shape ({d},)")


LN_EPS = 1e-5  # added to each row's variance by every layer norm


def _layer_norm_(x: np.ndarray, gain: np.ndarray, bias: np.ndarray) -> tuple[np.ndarray, ...]:
    """Layer norm of the trailing-dim rows of ``x``: the float32 output
    ``xhat * gain + bias``, the float32 rows ``xhat`` at zero mean and unit
    variance, and the float32 inverse standard deviation of each row, [..., 1]."""
    # one float64 buffer, centred in place and then scaled; the mean of its
    # squares is the sum np.var forms, so the statistics keep their bits
    xc = x.astype(np.float64)
    xc -= xc.mean(axis=-1, keepdims=True)
    var = np.square(xc).mean(axis=-1, keepdims=True)
    inv = (1.0 / np.sqrt(var + LN_EPS)).astype(np.float32)
    xc *= inv
    xhat = xc.astype(np.float32)
    del xc  # freed before the output is allocated, which keeps the peak lower
    out = xhat * gain
    out += bias
    return out, xhat, inv


def _layer_norm_grads(g: np.ndarray, xhat: np.ndarray, inv: np.ndarray, x: Tensor,
                      gain: Tensor, bias: Tensor) -> tuple[np.ndarray | None, list]:
    """For gradient ``g`` of ``_layer_norm_``'s output: the gradient of ``x``
    (None where ``x`` takes none) and the (parameter, gradient) pairs of the
    gain and bias that train, each summed over the rows of ``g``."""
    axes = tuple(range(g.ndim - 1))
    grads = []
    if gain.requires_grad:
        dgain = (g * xhat).sum(axis=axes, dtype=np.float64)
        grads.append((gain, dgain.astype(np.float32)))
    if bias.requires_grad:
        dbias = g.sum(axis=axes, dtype=np.float64)
        grads.append((bias, dbias.astype(np.float32)))
    if not x.requires_grad:
        return None, grads
    gx = g * gain.data
    m1 = gx.mean(axis=-1, keepdims=True, dtype=np.float64).astype(np.float32)
    m2 = (gx * xhat).mean(axis=-1, keepdims=True, dtype=np.float64).astype(np.float32)
    dx = gx - m1
    dx -= xhat * m2
    dx *= inv
    return dx, grads


def layer_norm(x, gain, bias) -> Tensor:
    """Normalize each trailing-dim row to zero mean / unit variance (with
    ``LN_EPS`` added to the variance), then affine."""
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    _check_gain(gain, bias, x.data.shape[-1])
    out, xhat, inv = _layer_norm_(x.data, gain.data, bias.data)

    def bwd(g):
        dx, grads = _layer_norm_grads(g, xhat, inv, x, gain, bias)
        return grads if dx is None else grads + [(x, dx)]

    return _make(out, (x, gain, bias), bwd)


# -- the residual branches of a pre-norm layer, one tape node each ---------
#
# ``attention_branch`` is ``x + attention(layer_norm(x))`` and ``mlp_branch``
# ``x + mlp(layer_norm(x))``.  Each runs the numpy operations of its op chain
# (layer_norm; matmul, add, reshape, transpose, softmax_lastdim or gelu; the
# residual add) in the chain's order, so its output and gradients are bitwise
# the chain's, and keeps only the arrays its backward reads instead of every
# intermediate: the layer norm's normalized rows and inverse deviations, the
# sub-block's own arrays, and the layer-norm output or the last hidden
# activation only where a weight that reads it trains.  A projection is ``y =
# x @ w; y += b``.  Backward adds the residual's gradient to the layer norm's
# input gradient last, as the engine adds a tensor's two gradients.


def _weight_grads(x: np.ndarray | None, g: np.ndarray, w: Tensor, b: Tensor) -> list:
    """The (parameter, gradient) pairs of ``y = x @ w + b`` for gradient ``g``
    of ``y``, for the parameters that train; ``x`` is None where ``w`` was
    frozen when the node was built, and ``w`` then gets no gradient."""
    grads = []
    if b.requires_grad:
        grads.append((b, _unbroadcast(g, b.data.shape)))
    if w.requires_grad and x is not None:
        grads.append((w, np.swapaxes(x, -1, -2) @ g))
    return grads


_CAUSAL_BLOCK = 64  # query rows per block of causal attention


@functools.lru_cache(maxsize=64)
def _causal_bias(L: int) -> np.ndarray:
    """Read-only [L, L] float32 additive attention bias: 0 on and below the
    diagonal, -inf above it.  Built once per length and shared by every call
    (``transformer.causal_bias``)."""
    bias = np.where(np.tri(L, dtype=bool), np.float32(0.0), np.float32(-np.inf))
    bias.flags.writeable = False
    return bias


def attention_branch(x, ln_g, ln_b, wq, bq, wk, bk, wv, bv, wo, bo, batch: int, heads: int,
                     bias: np.ndarray | None = None, causal: bool = False,
                     queries_from: int = 0) -> Tensor:
    """``x + attention(layer_norm(x, ln_g, ln_b))`` over ``batch`` sequences
    of equal length L stacked as the rows of ``x`` [batch * L, d], as one
    tape node.  The attention is multi-head self-attention: the q, k and v
    projections, the split into ``heads`` heads of width dh,
    ``softmax_lastdim(q @ k^T, bias, scale=1 / sqrt(dh))``, ``probs @ v``,
    the merge of the heads and the output projection.

    ``bias`` broadcasts to the scores [batch, heads, L, L] (a key-padding
    [batch, 1, 1, L] mask, see ``softmax_lastdim``).  ``causal=True`` takes
    the causal bias ``_causal_bias(L)`` instead, by row blocks: the queries
    run in blocks of ``_CAUSAL_BLOCK`` rows, and each block is scored only
    against the keys up to its last row, with the matching slice of the
    bias.  The keys a block skips would get weight exactly 0.0 and add exact
    zeros to the row sums and products, so each weight, the output and the
    gradients are bitwise those of one [L, L] product
    (``tests/test_block_nodes.py`` pins L from 8 to 256).  Up to L =
    ``_CAUSAL_BLOCK`` + 1 the node runs that one product.

    ``queries_from=n`` computes the queries of rows n..L-1 of each sequence
    only, and the output [batch * (L - n), d] holds just those rows, the
    residual included.  Keys and values still come from every row, and
    backward sums over the dropped rows as zeros (see ``_pad_rows``).  One
    row left per sequence (n = L - 1) is multiplied as a vector, and so
    matches the full node's row only to rounding.

    On the tape the node keeps the layer norm's normalized rows and inverse
    deviations, q and k^T in head layout, v and each block's probabilities;
    it keeps the layer-norm output only if ``wq``, ``wk`` or ``wv`` trains
    and the merged context only if ``wo`` trains.  Backward runs the softmax
    gradient per block, in the buffer of the block's own ``dctx @ v^T``
    product.  It puts the blocks' probabilities, and then in their place
    their score gradients, into one [batch, heads, L, L] buffer, zero where
    a block or a dropped row skipped them, so that its dv, dq and dk^T
    products get the one product's operands.  Off the tape each block's
    scores are scratch.
    The layer-norm output's gradient sums its three paths as (q + k) + v,
    the order in which the op chain's backward adds them.
    """
    params = tuple(_as_tensor(t) for t in (x, ln_g, ln_b, wq, bq, wk, bk, wv, bv, wo, bo))
    x, ln_g, ln_b, wq, bq, wk, bk, wv, bv, wo, bo = params
    if x.data.ndim != 2:
        raise ShapeError(f"attention_branch input must be [rows, d], got {x.data.shape}")
    rows, d = x.data.shape
    if batch < 1 or heads < 1 or rows % batch or d % heads:
        raise ShapeError(f"{rows} x {d} input does not split into {batch} sequences "
                         f"of {heads} heads")
    _check_gain(ln_g, ln_b, d)
    for w, b in ((wq, bq), (wk, bk), (wv, bv), (wo, bo)):
        if w.data.shape != (d, d) or b.data.shape != (d,):
            raise ShapeError(f"projection {w.data.shape} + {b.data.shape} does not fit d={d}")
    B, H, L, dh = batch, heads, rows // batch, d // heads
    qf = queries_from
    if not 0 <= qf < L:
        raise ShapeError(f"queries_from={qf} is outside sequences of length {L}")
    if causal and bias is not None:
        raise ContractError("causal attention builds its own bias; pass bias=None")
    scale = np.float32(1.0 / np.sqrt(dh))
    if bias is not None:
        bias = _softmax_bias(bias, (B, H, L, L))
        if qf:
            bias = np.broadcast_to(bias, (B, H, L, L))[:, :, qf:]
    # (first query row, end row, keys seen, bias) of each block of queries
    if causal:
        # an edge every _CAUSAL_BLOCK rows, but none that leaves a block one
        # query row: numpy multiplies a single row as a vector, which sums its
        # products in another order than the matrix product does
        edges = [0] + [e for e in range(_CAUSAL_BLOCK, L - 1, _CAUSAL_BLOCK) if e != qf + 1]
        spans = [(max(s, qf), e) for s, e in zip(edges, edges[1:] + [L]) if e > qf]
        full = _causal_bias(L)
        blocks = [(s, e, e, full if (s, e) == (0, L) else full[s:e, :e]) for s, e in spans]
    else:
        blocks = [(qf, L, L, bias)]
    single = blocks[0][:3] == (0, L, L)  # one product over every query and key
    taped = grad_enabled() and any(p.requires_grad for p in params)

    def kept(y):  # rows qf.. of each sequence
        return y.reshape(B, L, d)[:, qf:].reshape(-1, d) if qf else y

    def heads_of(y, w, b, axes):
        y = y @ w.data
        y += b.data
        return np.ascontiguousarray(y.reshape(B, -1, H, dh).transpose(axes))

    a, xhat, inv = _layer_norm_(x.data, ln_g.data, ln_b.data)
    q = heads_of(kept(a), wq, bq, (0, 2, 1, 3))  # [B, H, L - qf, dh]
    kt = heads_of(a, wk, bk, (0, 2, 3, 1))  # [B, H, dh, L]
    v = heads_of(a, wv, bv, (0, 2, 1, 3))
    probs = []  # each block's probabilities, kept on the tape
    ctx = np.empty((B, L - qf, H, dh), np.float32)
    for s, e, n, block_bias in blocks:
        z = _softmax_(q[:, :, s - qf:e - qf] @ kt[..., :n], scale, block_bias)
        ctx[:, s - qf:e - qf] = (z @ v[:, :, :n]).transpose(0, 2, 1, 3)
        if taped:
            probs.append(z)
    ctx = ctx.reshape(-1, d)
    out = ctx @ wo.data
    out += bo.data
    out += kept(x.data)
    if not wo.requires_grad:
        ctx = None
    if not (wq.requires_grad or wk.requires_grad or wv.requires_grad):
        a = None
    dropped = (B, qf) if qf else None

    def bwd(g):
        g = _pad_rows(g, dropped)
        grads = _weight_grads(_pad_rows(ctx, dropped), g, wo, bo)
        dctx = g @ np.swapaxes(wo.data, -1, -2)
        dctx = np.ascontiguousarray(dctx.reshape(B, L, H, dh).transpose(0, 2, 1, 3))
        vt = np.swapaxes(v, -1, -2)
        if single:
            p_all, = probs
            dscores = dctx @ vt
            _softmax_grad(dscores, p_all, scale, out=dscores)
            dv = np.swapaxes(p_all, -1, -2) @ dctx
        else:
            # the blocks' score gradients overwrite their probabilities once dv
            # is taken; both are zero where the blocks skip
            dscores = np.zeros((B, H, L, L), np.float32)
            for (s, e, n, _), p in zip(blocks, probs):
                dscores[:, :, s:e, :n] = p
            dv = np.swapaxes(dscores, -1, -2) @ dctx
            for (s, e, n, _), p in zip(blocks, probs):
                ds = dctx[:, :, s:e] @ vt[..., :n]
                dscores[:, :, s:e, :n] = _softmax_grad(ds, p, scale, out=ds)
        del dctx
        q_all = q
        if qf:
            q_all = np.zeros((B, H, L, dh), np.float32)
            q_all[:, :, qf:] = q
        dq = dscores @ np.swapaxes(kt, -1, -2)
        dkt = np.swapaxes(q_all, -1, -2) @ dscores
        del dscores, q_all
        da = None
        norm_trains = x.requires_grad or ln_g.requires_grad or ln_b.requires_grad
        # each path's gradient back in [rows, d] layout, then through its projection
        for w, b, dy, axes in ((wq, bq, dq, (0, 2, 1, 3)), (wk, bk, dkt, (0, 3, 1, 2)),
                               (wv, bv, dv, (0, 2, 1, 3))):
            dy = np.ascontiguousarray(dy.transpose(axes)).reshape(rows, d)
            grads += _weight_grads(a, dy, w, b)
            if norm_trains:
                path = dy @ np.swapaxes(w.data, -1, -2)
                if da is None:
                    da = path
                else:
                    da += path
        if da is not None:
            dx, ln_grads = _layer_norm_grads(da, xhat, inv, x, ln_g, ln_b)
            grads += ln_grads if dx is None else ln_grads + [(x, np.add(dx, g, out=dx))]
        return grads

    return _make(out, params, bwd)


def mlp_branch(x, ln_g, ln_b, w1, b1, w2, b2, dropped_rows=None) -> Tensor:
    """``x + gelu(m @ w1 + b1) @ w2 + b2`` with ``m = layer_norm(x, ln_g,
    ln_b)``, as one tape node.

    On the tape the node keeps the layer norm's normalized rows and inverse
    deviations and the GELU slope at the pre-activation, formed in the
    forward pass from the pre-activation and its cdf (``gelu`` supplies
    both kernels), which are then freed.  It keeps the layer-norm output
    only if ``w1`` trains and the GELU output only if ``w2`` trains.  With
    ``dropped_rows`` backward runs its products on the full rows, the
    dropped ones as zeros (see ``_pad_rows``).
    """
    params = tuple(_as_tensor(t) for t in (x, ln_g, ln_b, w1, b1, w2, b2))
    x, ln_g, ln_b, w1, b1, w2, b2 = params
    if x.data.ndim != 2 or w2.data.ndim != 2:
        raise ShapeError("mlp_branch needs a 2-D input and 2-D weights")
    d, f = x.data.shape[1], w2.data.shape[0]
    _check_gain(ln_g, ln_b, d)
    if (w1.data.shape, b1.data.shape, w2.data.shape, b2.data.shape) != ((d, f), (f,), (f, d),
                                                                        (d,)):
        raise ShapeError(f"MLP shapes do not chain: x {x.data.shape}, w1 {w1.data.shape}, "
                         f"b1 {b1.data.shape}, w2 {w2.data.shape}, b2 {b2.data.shape}")
    dropped = _check_dropped(x.data, dropped_rows)
    taped = grad_enabled() and any(p.requires_grad for p in params)
    m, xhat, inv = _layer_norm_(x.data, ln_g.data, ln_b.data)
    pre = m @ w1.data
    pre += b1.data
    cdf = _gelu_cdf(pre)
    slope = _gelu_slope(pre, cdf) if taped else None
    act = np.multiply(pre, cdf, out=cdf)
    del pre
    out = act @ w2.data
    out += b2.data
    out += x.data
    if not w2.requires_grad:
        act = None
    if not w1.requires_grad:
        m = None

    def bwd(g):
        gp = _pad_rows(g, dropped)
        grads = _weight_grads(_pad_rows(act, dropped), gp, w2, b2)
        dpre = gp @ np.swapaxes(w2.data, -1, -2)
        dpre *= _pad_rows(slope, dropped)
        grads += _weight_grads(_pad_rows(m, dropped), dpre, w1, b1)
        if x.requires_grad or ln_g.requires_grad or ln_b.requires_grad:
            dm = _kept_rows(dpre @ np.swapaxes(w1.data, -1, -2), dropped)
            dx, ln_grads = _layer_norm_grads(dm, xhat, inv, x, ln_g, ln_b)
            grads += ln_grads if dx is None else ln_grads + [(x, np.add(dx, g, out=dx))]
        return grads

    return _make(out, params, bwd)


def transport_cost(cost, plan: np.ndarray, eps: float) -> Tensor:
    """<P, C> for the entropic transport plan ``plan`` of ``cost`` at ``eps``.

    Backward is the implicit gradient of <P*(C), C> with both marginals held
    fixed: P - W + P * (lam_i + mu_j), W = P * C / eps, where [lam; mu] solves
    K [lam; mu] = [W 1; W^T 1] with K = [[diag(P 1), P], [P^T, diag(P^T 1)]].
    K is positive semidefinite; its null space holds the shifts (lam + t,
    mu - t) on each connected block of P's support, which leave lam_i + mu_j
    unchanged where P > 0.  A ridge of 1e-10 of K's largest diagonal entry
    makes K positive definite and picks one such solution, so a single
    linear solve also covers plans whose support splits into blocks of exact
    zeros.
    """
    cost = _as_tensor(cost)
    C = cost.data.astype(np.float64)
    out = np.float32((plan * C).sum())

    def bwd(g):
        n = plan.shape[0]
        w = plan * C / eps
        K = np.block([[np.diag(plan.sum(axis=1)), plan], [plan.T, np.diag(plan.sum(axis=0))]])
        K[np.diag_indices_from(K)] += 1e-10 * K.diagonal().max()
        duals = np.linalg.solve(K, np.concatenate([w.sum(axis=1), w.sum(axis=0)]))
        grad = plan - w + plan * (duals[:n, None] + duals[None, n:])
        return ((cost, (g * grad).astype(np.float32)),)

    return _make(out, (cost,), bwd)


# -- optimizers --------------------------------------------------------

OPTIMIZER_KINDS = ("sgd", "adam", "adamw")
# Adam's moment decays and denominator floor, applied as float32
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class OptimizerState:
    """State for one optimizer bound to a fixed parameter list (by position)."""

    kind: str
    learning_rate: float
    weight_decay: float = 0.0
    step_count: int = 0
    moments: dict[int, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in OPTIMIZER_KINDS:
            raise ContractError(f"unknown optimizer kind {self.kind!r}")
        if not 0 < self.learning_rate < np.inf:
            raise ContractError(f"learning_rate {self.learning_rate} is not finite and > 0")
        if not 0 <= self.weight_decay < np.inf:
            raise ContractError(f"weight_decay {self.weight_decay} is not finite and >= 0")


def optimizer_step(state: OptimizerState, params: list[Tensor]) -> None:
    """Apply one update to every parameter; all must carry gradients.

    The moments are updated in place and each update is formed in one
    scratch buffer, with the operations of the textbook formulas in their
    order, so the result is bitwise what those formulas give.
    """
    for i, p in enumerate(params):
        if p.grad is None:
            raise ContractError(f"parameter {i} has no gradient")
    state.step_count += 1
    t = state.step_count
    lr = np.float32(state.learning_rate)
    if state.kind == "sgd":
        for p in params:
            p.data -= lr * p.grad
        return
    b1, b2 = np.float32(ADAM_BETA1), np.float32(ADAM_BETA2)
    eps = np.float32(ADAM_EPS)
    c1 = np.float32(1.0 - ADAM_BETA1**t)
    c2 = np.float32(1.0 - ADAM_BETA2**t)
    decay = lr * np.float32(state.weight_decay)
    for i, p in enumerate(params):
        if i not in state.moments:
            state.moments[i] = (np.zeros_like(p.data), np.zeros_like(p.data))
        m, v = state.moments[i]
        # m = b1 * m + (1 - b1) * g;  v = b2 * v + (1 - b2) * (g * g)
        buf = np.multiply(p.grad, np.float32(1.0) - b1, dtype=np.float32)
        m *= b1
        m += buf
        np.multiply(p.grad, p.grad, out=buf)
        buf *= np.float32(1.0) - b2
        v *= b2
        v += buf
        # update = (m / c1) / (sqrt(v / c2) + eps)
        np.divide(v, c2, out=buf)
        np.sqrt(buf, out=buf)
        buf += eps
        np.divide(m / c1, buf, out=buf)
        if state.kind == "adamw" and state.weight_decay > 0:
            p.data -= decay * p.data
        buf *= lr
        p.data -= buf


def zero_grads(params: list[Tensor]) -> None:
    for p in params:
        p.grad = None
