"""Dense float32 tensors with reverse-mode autodiff and the SGD/Adam/AdamW optimizers.

Storage is 32-bit.  Reductions accumulate in 64-bit before casting back: sum
and mean, the softmax and logsumexp row sums, and the layer-norm statistics
(mean and variance) with their normalisation.  Two hot elementwise kernels
work in float32 throughout:

- ``gelu`` takes its normal cdf from ``_erf32``, a rational approximation of
  ``erf`` within 3e-7 of the float64 cdf (``_gelu_cdf_max_error``);
- ``softmax_lastdim`` rounds its float64 row sum to float32 once and divides
  in float32, within one float32 ulp of the rounded float64 quotient.

The tape is built per forward pass and freed by ``backward``; there are no
higher-order gradients.
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
def _openblas_threads():
    """numpy's OpenBLAS thread-count (getter, setter), or None where it is not
    loaded or its setter cannot be found.

    The library behind ``matmul`` and ``np.linalg.solve`` is found among the
    mapped shared objects whose path names BLAS, by the symbols of numpy's
    wheel build; scipy's own OpenBLAS exports other names and is left alone.
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
            getter = lib.scipy_openblas_get_num_threads64_
            setter = lib.scipy_openblas_set_num_threads64_
            getter.argtypes, getter.restype = (), ctypes.c_int
            setter.argtypes, setter.restype = (ctypes.c_int,), None
            return getter, setter
    return None


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
        existing ``grad`` buffers.  The tape below this node is freed
        afterwards.
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
        # free the tape
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


def _gelu_cdf_max_error(n: int = 1 << 20) -> float:
    """Largest distance of ``_gelu_cdf`` from the float64 cdf formed with
    ``scipy.special.erf``, over ``n + 1`` evenly spaced float32 points of
    [-12, 12] and +-0, the smallest and largest subnormals and +-inf.  A cdf
    outside [0, 1] counts as infinitely far."""
    from scipy.special import erf

    tiny = np.finfo(np.float32).smallest_subnormal
    normal = np.finfo(np.float32).smallest_normal
    special = np.array([0.0, -0.0, tiny, -tiny, normal - tiny, tiny - normal,
                        np.inf, -np.inf], dtype=np.float32)
    x = np.concatenate([np.linspace(-12.0, 12.0, n + 1, dtype=np.float32), special])
    cdf = _gelu_cdf(x)
    if not np.all((cdf >= 0.0) & (cdf <= 1.0)):
        return np.inf
    want = 0.5 * (1.0 + erf(x.astype(np.float64) / np.sqrt(2.0)))
    return float(np.abs(cdf - want).max())


def gelu(a) -> Tensor:
    """Exact GELU, x * Phi(x), with the normal cdf Phi evaluated in float32
    by ``_erf32`` (within 3e-7 of the float64 cdf).  GELU(+inf) is +inf;
    GELU(-inf) and GELU(NaN) are NaN."""
    a = _as_tensor(a)
    cdf = _gelu_cdf(a.data)
    out = a.data * cdf

    def bwd(g):
        pdf = _INV_SQRT_2PI * np.exp(np.float32(-0.5) * a.data * a.data)
        return ((a, g * (cdf + a.data * pdf)),)

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


def take_rows(a, idx) -> Tensor:
    """Gather rows (axis 0) by integer index; backward scatter-adds.

    Strictly increasing indices cannot repeat, so their scatter is a plain
    assignment; other indices go through ``np.add.at``.
    """
    a = _as_tensor(a)
    idx = np.asarray(idx, dtype=np.int64)
    out = a.data[idx]

    def bwd(g):
        acc = np.zeros_like(a.data)
        if np.all(np.diff(idx.ravel()) > 0):
            acc[idx] = g
        else:
            np.add.at(acc, idx, g)
        return ((a, acc),)

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


def slice_rows(a, start: int, stop: int) -> Tensor:
    a = _as_tensor(a)
    out = a.data[start:stop].copy()

    def bwd(g):
        acc = np.zeros_like(a.data)
        acc[start:stop] = g
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
    """
    x = _as_tensor(x)
    if x.data.ndim < 1 or x.data.shape[-1] < 1:
        raise ShapeError("softmax needs a non-empty last dimension")
    scale = np.float32(scale)
    out = x.data * scale
    if bias is not None:
        bias = np.asarray(bias)
        if bias.dtype.kind != "f":
            raise ContractError(f"softmax bias must be a float array, got {bias.dtype}")
        if np.broadcast_shapes(bias.shape, x.data.shape) != x.data.shape:
            raise ShapeError(f"softmax bias {bias.shape} does not broadcast to {x.data.shape}")
        out += bias
    out -= out.max(axis=-1, keepdims=True)
    np.exp(out, out=out)  # exp(-inf) == 0.0 exactly
    out /= out.sum(axis=-1, keepdims=True, dtype=np.float64).astype(np.float32)

    def bwd(g):
        dot = (g * out).sum(axis=-1, keepdims=True, dtype=np.float64).astype(np.float32)
        dx = g - dot
        dx *= out
        dx *= scale
        return ((x, dx),)

    return _make(out, (x,), bwd)


def logsumexp_lastdim(x, keepdims: bool = False) -> Tensor:
    x = _as_tensor(x)
    zmax = x.data.max(axis=-1, keepdims=True)
    e = np.exp((x.data - zmax).astype(np.float64))
    s = e.sum(axis=-1, keepdims=True)
    out64 = np.log(s) + zmax
    soft = (e / s).astype(np.float32)
    out = out64.astype(np.float32) if keepdims else out64[..., 0].astype(np.float32)

    def bwd(g):
        gg = g if keepdims else g[..., None]
        return ((x, gg * soft),)

    return _make(out, (x,), bwd)


def layer_norm(x, gain, bias, eps: float = 1e-5) -> Tensor:
    """Normalize each trailing-dim row to zero mean / unit variance, then affine."""
    if eps <= 0:
        raise ContractError("layer_norm eps must be positive")
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    d = x.data.shape[-1]
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise ShapeError(f"gain/bias must have shape ({d},)")
    # one float64 buffer, centred in place and then scaled; the mean of its
    # squares is the sum np.var forms, so the statistics keep their bits
    xc = x.data.astype(np.float64)
    xc -= xc.mean(axis=-1, keepdims=True)
    var = np.square(xc).mean(axis=-1, keepdims=True)
    inv = (1.0 / np.sqrt(var + eps)).astype(np.float32)
    xc *= inv
    xhat = xc.astype(np.float32)
    out = xhat * gain.data
    out += bias.data

    def bwd(g):
        gx = g * gain.data
        m1 = gx.mean(axis=-1, keepdims=True, dtype=np.float64).astype(np.float32)
        m2 = (gx * xhat).mean(axis=-1, keepdims=True, dtype=np.float64).astype(np.float32)
        dx = gx - m1
        dx -= xhat * m2
        dx *= inv
        axes = tuple(range(g.ndim - 1))
        dgain = (g * xhat).sum(axis=axes, dtype=np.float64).astype(np.float32)
        dbias = g.sum(axis=axes, dtype=np.float64).astype(np.float32)
        return ((x, dx), (gain, dgain), (bias, dbias))

    return _make(out, (x, gain, bias), bwd)


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


@dataclass
class OptimizerState:
    """State for one optimizer bound to a fixed parameter list (by position)."""

    kind: str
    learning_rate: float
    weight_decay: float = 0.0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    moments: dict[int, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in OPTIMIZER_KINDS:
            raise ContractError(f"unknown optimizer kind {self.kind!r}")
        if self.learning_rate <= 0:
            raise ContractError("learning_rate must be positive")
        if self.weight_decay < 0:
            raise ContractError("weight_decay must be nonnegative")


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
    b1, b2 = np.float32(state.beta1), np.float32(state.beta2)
    eps = np.float32(state.eps)
    c1 = np.float32(1.0 - state.beta1**t)
    c2 = np.float32(1.0 - state.beta2**t)
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
