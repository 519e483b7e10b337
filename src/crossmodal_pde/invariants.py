"""The exact invariants, each a check that raises ``AssertionError`` on
failure, and their oracles.  ``crossmodal-pde doctor`` and the tier-1 tests run
``CHECKS`` at the same inputs and bounds.  scipy is imported only inside the
GELU check, so importing this module maps no second BLAS."""

from __future__ import annotations

from itertools import permutations

import numpy as np

from . import tensor as T
from .tensor import ContractError, Tensor


def _require(ok, message: str) -> None:
    if not ok:  # an assert statement would vanish under python -O
        raise AssertionError(message)


def central_differences(f, params: list[Tensor]) -> list[np.ndarray]:
    """Float64 central differences of the scalar ``f()`` in each coordinate of
    the float32 ``params``: h = 1e-3, divided by the step float32 rounding left."""
    h = 1e-3
    grads = []
    for p in params:
        flat = p.data.reshape(-1)
        g = np.zeros(flat.size, dtype=np.float64)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = np.float32(float(orig) + h)
            hi_x, hi = float(flat[i]), f()
            flat[i] = np.float32(float(orig) - h)
            lo_x, lo = float(flat[i]), f()
            flat[i] = orig
            g[i] = (hi - lo) / (hi_x - lo_x)
        grads.append(g.reshape(p.data.shape))
    return grads


def relative_error(a, b) -> np.ndarray:
    """|a - b| / max(|a|, |b|, 1), elementwise."""
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0)


def exact_transport_cost(cost: np.ndarray) -> float:
    """Brute-force optimum over permutations (uniform marginals, N == M <= 8)."""
    n, m = cost.shape
    if n != m or n > 8:
        raise ContractError("exact oracle needs square cost with N <= 8")
    return min(sum(float(cost[i, j]) for i, j in enumerate(perm)) / n
               for perm in permutations(range(n)))


def check_gradients(f, params: list[Tensor], min_pass: float = 0.95, tol: float = 1e-4) -> None:
    """The tape's gradients of the scalar ``f(params)`` against
    ``central_differences``: at least ``min_pass`` of all coordinates within
    ``tol`` relative error."""
    T.zero_grads(params)
    loss = f(params)
    _require(isinstance(loss, Tensor) and loss.data.size == 1, "the loss is not a scalar Tensor")
    loss.backward()
    fd = central_differences(lambda: f(params).item(), params)
    total, ok = 0, 0
    for i, (p, g_fd) in enumerate(zip(params, fd)):
        _require(p.grad is not None, f"parameter {i} got no gradient")
        e = relative_error(p.grad.astype(np.float64), g_fd)
        total += e.size
        ok += int((e < tol).sum())
    _require(ok / total >= min_pass, f"only {ok}/{total} coords within {tol}")


def autodiff_gradients():
    """GELU of a product, exact in every coordinate; then one attention-branch
    and one MLP-branch node at width 4 (two sequences of 3 rows, 2 causal
    heads; hidden width 6), each with the FPT split of frozen and trained
    parameters (input and layer norm) and with every parameter trained.  The
    branches' loss is the mean of the output times a fixed random array: a
    loss near 0 keeps the float32 rounding of the differenced values far
    below the tolerance."""
    rng = np.random.default_rng(0)
    w = Tensor(rng.normal(scale=0.5, size=(6, 4)).astype(np.float32), requires_grad=True)
    x = Tensor(rng.normal(size=(3, 6)).astype(np.float32))

    def loss():
        return T.tmean(T.square(T.gelu(T.matmul(x, w))))

    loss().backward()
    (fd,) = central_differences(lambda: loss().item(), [w])
    bad = np.flatnonzero(~(relative_error(w.grad.astype(np.float64), fd) <= 1e-4))[:3]
    _require(bad.size == 0, f"grad mismatch at {bad}: {w.grad.flat[bad]} vs {fd.flat[bad]}")

    for node, weights, kwargs in (
            (T.attention_branch, [(4, 4), (4,)] * 4, {"batch": 2, "heads": 2, "causal": True}),
            (T.mlp_branch, [(4, 6), (6,), (6, 4), (4,)], {})):
        shapes = [(6, 4), (4,), (4,)] + weights  # input, layer-norm gain and bias, weights
        params = [Tensor(rng.normal(scale=0.5, size=s).astype(np.float32), requires_grad=True)
                  for s in shapes]
        params[1].data += 1.0  # gains near one
        weight = rng.normal(size=(6, 4)).astype(np.float32)

        def branch_loss(_):
            return T.tmean(T.mul(node(*params, **kwargs), weight))

        for p in params[3:]:  # FPT: the sub-block's weights frozen
            p.requires_grad = False
        check_gradients(branch_loss, params[:3])
        for p in params[3:]:
            p.requires_grad = True
        check_gradients(branch_loss, params)


def causal_mask_bit_exact():
    from .transformer import DECODER_ONLY, ModelConfig, build_model, forward_hidden

    # three row blocks of causal attention, the last one of 10 rows
    L = 2 * T._CAUSAL_BLOCK + 10
    model = build_model(ModelConfig(arch=DECODER_ONLY, d_model=32, n_heads=4, n_layers=2,
                                    d_ff=64, max_positions=L, vocab_size=16, seed=1))
    for p in model.params.values():  # weights at 10x their init scale: a leak shows
        if p.data.ndim == 2:
            p.data *= 10.0
    x = np.random.default_rng(1).normal(size=(L, 32)).astype(np.float32)
    with T.no_grad():
        base = forward_hidden(model, Tensor(x), lengths=[L]).data
        # the last row, then the first row of the last block
        for row in (L - 1, 2 * T._CAUSAL_BLOCK):
            x2 = x.copy()
            x2[row] += 1.0
            pert = forward_hidden(model, Tensor(x2), lengths=[L]).data
            _require(np.array_equal(base[:row], pert[:row]), f"row {row} leaked into earlier rows")
            _require(not np.array_equal(base[row], pert[row]), f"row {row} did not change")


def advection_full_wrap():
    from .pde_data import GridSpec, advection_frames_f64

    for seed in (3, 9):  # beta * t_out = 1: one full domain wrap
        u0, ut = advection_frames_f64(GridSpec(n_x=64, t_out=2.5), beta=0.4, seed=seed)
        _require(np.abs(u0 - ut).max() < 1e-12, f"seed {seed}: the full wrap moved the frame")


def sinkhorn_vs_permutation_oracle():
    from .otdd import SinkhornParams, sinkhorn

    # at 1e-5 the slowest trial (7) converges in 1604 iterations; at 1e-6 it does not in 20000
    rng = np.random.default_rng(4)
    for trial in range(10):
        n = int(rng.integers(2, 7))
        pts_a, pts_b = rng.normal(scale=2.0, size=(2, n, 2))
        cost = ((pts_a[:, None] - pts_b[None]) ** 2).sum(-1).astype(np.float32)
        params = SinkhornParams(epsilon=0.01 * float(np.median(cost)), max_iters=20000,
                                tolerance=1e-5)
        result = sinkhorn(Tensor(cost), params)
        _require(result.converged, f"trial {trial}: marginal violation "
                 f"{result.marginal_violation:.3g} after {result.iterations} iterations")
        got, opt = result.cost.item(), exact_transport_cost(cost)
        _require(opt * 0.999 - 1e-9 <= got <= opt * 1.02 + 1e-9, f"trial {trial}: {got} vs {opt}")


def flip_and_combine_halves():
    from .bidir import combine_halves, flip

    x = np.random.default_rng(0).normal(size=(2, 16)).astype(np.float32)
    _require(np.array_equal(flip(flip(x)), x), "flip is not an involution")
    out = combine_halves(np.array([1.0, 2.0, 3.0, 4.0]), np.array([9.0, 8.0, 7.0, 6.0]))
    _require(np.array_equal(out, [6.0, 7.0, 3.0, 4.0]), "combine_halves definition drifted")


def softmax_row_sums():
    rng = np.random.default_rng(0)
    for draw in range(20):
        x = rng.uniform(-1e4, 1e4, size=(8, 16)).astype(np.float32)
        s = T.softmax_lastdim(Tensor(x)).data.sum(axis=-1, dtype=np.float64)
        _require(np.abs(s - 1.0).max() < 1e-6, f"softmax rows of draw {draw} do not sum to 1")


def masked_softmax_exact_zeros():
    from .transformer import causal_bias

    L = 16
    bias = causal_bias(L)
    _require(causal_bias(L) is bias and not bias.flags.writeable, "bias not cached read-only")
    x = np.random.default_rng(4).uniform(-50, 50, size=(2, L, L)).astype(np.float32)
    probs = T.softmax_lastdim(Tensor(x), bias=bias).data
    _require(np.all(probs[:, ~np.tri(L, dtype=bool)] == 0.0), "masked weights are not 0.0")
    _require(np.abs(probs.sum(axis=-1, dtype=np.float64) - 1.0).max() < 1e-6,
             "masked softmax rows do not sum to 1")


def gelu_vs_float64_erf():
    """``tensor._gelu_cdf`` lies in [0, 1] and within 3e-7 of the float64 cdf
    from ``scipy.special.erf``, over 2^20 + 1 evenly spaced float32 points of
    [-12, 12] and +-0, the smallest and largest subnormals and +-inf."""
    from scipy.special import erf

    tiny = np.finfo(np.float32).smallest_subnormal
    normal = np.finfo(np.float32).smallest_normal
    special = np.array([0.0, -0.0, tiny, -tiny, normal - tiny, tiny - normal,
                        np.inf, -np.inf], dtype=np.float32)
    x = np.concatenate([np.linspace(-12.0, 12.0, (1 << 20) + 1, dtype=np.float32), special])
    cdf = T._gelu_cdf(x)
    _require(np.all((cdf >= 0.0) & (cdf <= 1.0)), "GELU cdf leaves [0, 1]")
    err = float(np.abs(cdf - 0.5 * (1.0 + erf(x.astype(np.float64) / np.sqrt(2.0)))).max())
    _require(err <= 3e-7, f"GELU cdf is {err:.3g} from the float64 erf (bound 3e-7)")


CHECKS = (
    ("autodiff gradient check", autodiff_gradients),
    ("causal mask bit-exactness", causal_mask_bit_exact),
    ("advection analytic target", advection_full_wrap),
    ("sinkhorn vs permutation oracle", sinkhorn_vs_permutation_oracle),
    ("flip involution and half combine", flip_and_combine_halves),
    ("softmax row sums", softmax_row_sums),
    ("masked softmax exact zeros", masked_softmax_exact_zeros),
    ("GELU vs float64 erf", gelu_vs_float64_erf),
)
