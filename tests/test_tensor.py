import weakref

import numpy as np
import pytest

from conftest import identity_dataset, make_model
from crossmodal_pde import adaptation as ad
from crossmodal_pde import tensor as T
from crossmodal_pde import transformer as tf
from crossmodal_pde.invariants import check_gradients
from crossmodal_pde.proxy_data import gen_corpus
from crossmodal_pde.tensor import (
    ContractError,
    OptimizerState,
    ShapeError,
    Tensor,
    optimizer_step,
)


# -- matmul --------------------------------------------------------------


def test_matmul_identity():
    a = Tensor(np.eye(2, dtype=np.float32))
    b = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
    out = T.matmul(a, b)
    np.testing.assert_array_equal(out.data, b.data)


def test_matmul_projector():
    p = Tensor(np.array([[1.0, 0.0], [0.0, 0.0]]))
    b = Tensor(np.array([[5.0, 6.0], [7.0, 8.0]]))
    out = T.matmul(p, b)
    np.testing.assert_array_equal(out.data, np.array([[5.0, 6.0], [0.0, 0.0]], dtype=np.float32))


def test_matmul_against_scalar_loop_oracle():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(3, 4)).astype(np.float32)
    b = rng.normal(size=(4, 2)).astype(np.float32)
    want = np.zeros((3, 2), dtype=np.float64)
    for i in range(3):
        for j in range(2):
            for k in range(4):
                want[i, j] += float(a[i, k]) * float(b[k, j])
    got = T.matmul(Tensor(a), Tensor(b)).data
    np.testing.assert_allclose(got, want, rtol=1e-6)


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeError):
        T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


# -- softmax -------------------------------------------------------------


def test_softmax_uniform():
    out = T.softmax_lastdim(Tensor([0.0, 0.0, 0.0]))
    np.testing.assert_allclose(out.data, np.full(3, 1 / 3), atol=1e-7)


def test_softmax_large_logits_stable():
    out = T.softmax_lastdim(Tensor([1000.0, 0.0]))
    np.testing.assert_allclose(out.data, [1.0, 0.0], atol=1e-6)


def test_softmax_64bit_reference():
    x = np.array([1.0, 2.0, 3.0])
    ref = np.exp(x) / np.exp(x).sum()
    out = T.softmax_lastdim(Tensor(x))
    np.testing.assert_allclose(out.data, ref, rtol=1e-6)


def test_softmax_empty_lastdim_errors():
    with pytest.raises(ShapeError):
        T.softmax_lastdim(Tensor(np.zeros((3, 0))))


def test_softmax_bias_contract():
    x = Tensor(np.zeros((2, 3)))
    with pytest.raises(ContractError):
        T.softmax_lastdim(x, bias=np.ones((2, 3), dtype=bool))
    with pytest.raises(ShapeError):
        T.softmax_lastdim(x, bias=np.zeros((4, 2, 3), dtype=np.float32))


# -- bit pins: the kernels against their reference formulas ---------------


def _softmax_exponentials(x, mask=None):
    """Row-max-shifted float32 exponentials, masked by np.where over a bool mask."""
    z = x
    if mask is not None:
        z = np.where(np.broadcast_to(mask, z.shape), z, -np.inf)
    return np.exp(z - z.max(axis=-1, keepdims=True))


def _softmax_oracle(x, mask=None):
    """Masked softmax: float64 row sum rounded to float32 once, float32 quotient."""
    e = _softmax_exponentials(x, mask)
    return e / e.sum(axis=-1, keepdims=True, dtype=np.float64).astype(np.float32)


def _softmax_f64_quotient(x, mask=None):
    """Masked softmax as first written: float64 quotient, rounded to float32 once."""
    e = _softmax_exponentials(x, mask)
    return (e / e.sum(axis=-1, keepdims=True, dtype=np.float64)).astype(np.float32)


def _softmax_grad_oracle(out, g):
    dot = (g * out).sum(axis=-1, keepdims=True, dtype=np.float64).astype(np.float32)
    return out * (g - dot)


def _layer_norm_oracle(x, gain, bias, g, eps=1e-5):
    """Layer norm and its three gradients as first written (np.var, fresh copies)."""
    x64 = x.astype(np.float64)
    mean = x64.mean(axis=-1, keepdims=True)
    var = x64.var(axis=-1, keepdims=True)
    inv = (1.0 / np.sqrt(var + eps)).astype(np.float32)
    xhat = ((x64 - mean) * inv).astype(np.float32)
    out = xhat * gain + bias
    gx = g * gain
    m1 = gx.mean(axis=-1, keepdims=True, dtype=np.float64).astype(np.float32)
    m2 = (gx * xhat).mean(axis=-1, keepdims=True, dtype=np.float64).astype(np.float32)
    dx = inv * (gx - m1 - xhat * m2)
    dgain = (g * xhat).sum(axis=0, dtype=np.float64).astype(np.float32)
    dbias = g.sum(axis=0, dtype=np.float64).astype(np.float32)
    return out, dx, dgain, dbias


@pytest.mark.parametrize("scale", [1.0, 1.0 / np.sqrt(12)], ids=["unscaled", "scaled"])
@pytest.mark.parametrize("causal", [False, True])
@pytest.mark.parametrize("L", [7, 128, 256])
def test_softmax_bits_match_reference(L, causal, scale):
    """The folded scale matches a separate ``mul(x, scale)`` before the softmax."""
    rng = np.random.default_rng(L)
    scores = (rng.normal(size=(4, L, L)) * 10.0).astype(np.float32)
    g = rng.normal(size=(4, L, L)).astype(np.float32)
    x = Tensor(scores, requires_grad=True)
    out = T.softmax_lastdim(x, bias=tf.causal_bias(L) if causal else None, scale=scale)
    T.tsum(T.mul(out, g)).backward()
    scale32 = np.asarray(scale, dtype=np.float32)
    mask = np.tri(L, dtype=bool) if causal else None
    want = _softmax_oracle(scores * scale32, mask)
    assert np.array_equal(out.data, want)
    assert np.array_equal(x.grad, _softmax_grad_oracle(want, g) * scale32)
    f64 = _softmax_f64_quotient(scores * scale32, mask)
    ulps = np.abs(out.data.view(np.int32).astype(np.int64) - f64.view(np.int32))
    assert ulps.max() <= 1
    if causal:
        assert np.all(out.data[:, ~np.tri(L, dtype=bool)] == 0.0)


def _softmax_kernel_with_max(z, scale, bias):
    """``T._softmax_`` as it took the row max with ``ndarray.max``, which
    propagates NaN where ``np.fmax`` skips it."""
    z *= scale
    if bias is not None:
        z += bias
    z -= z.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True, dtype=np.float64).astype(np.float32)
    return z


def test_softmax_kernel_special_rows_match_max_kernel():
    """A row holding a NaN, a +inf or only -inf still comes out all-NaN, and
    every other row keeps its bits."""
    nan, inf = np.nan, np.inf
    special = np.array([
        [1.0, -2.0, 3.5, 0.0],
        [1.0, nan, 3.5, 0.0],
        [nan, -inf, -inf, -inf],
        [1.0, inf, 3.5, 0.0],
        [inf, inf, -inf, 0.0],
        [-inf, -inf, -inf, -inf],
        [-inf, 2.0, -inf, -inf],
        [nan, inf, -inf, 1.0],
    ], dtype=np.float32)
    dense = (np.random.default_rng(0).normal(size=(8, 4)) * 30.0).astype(np.float32)
    x = np.concatenate([special, dense])
    masked_last = np.where(np.arange(4) < 3, np.float32(0.0), np.float32(-np.inf))
    for bias in (None, masked_last):
        with np.errstate(invalid="ignore"):
            got = T._softmax_(x.copy(), np.float32(0.5), bias)
            want = _softmax_kernel_with_max(x.copy(), np.float32(0.5), bias)
        assert np.array_equal(np.isnan(got), np.isnan(want))
        assert np.array_equal(got[~np.isnan(got)], want[~np.isnan(want)])
        assert np.isnan(got[[1, 2, 3, 4, 5, 7]]).all()
        assert not np.isnan(got[[0, 6]]).any() and not np.isnan(got[8:]).any()


def test_gelu_special_values_match_exact_erf():
    x = np.array([np.inf, -np.inf, np.nan, 0.0, -0.0, 1e-45, -1e-45], dtype=np.float32)
    with np.errstate(invalid="ignore"):
        out = T.gelu(Tensor(x)).data
    # inf * 1, -inf * 0 and NaN, as with the float64 erf
    assert out[0] == np.inf and np.isnan(out[1]) and np.isnan(out[2])
    assert np.array_equal(np.signbit(out[3:]), np.signbit(x[3:]))
    assert np.all(out[3:] == x[3:] * np.float32(0.5))


@pytest.mark.parametrize("L", [7, 128])
def test_layer_norm_bits_match_reference(L):
    rng = np.random.default_rng(L)
    x = Tensor((rng.normal(size=(L, 64)) * 3.0 + 1.5).astype(np.float32), requires_grad=True)
    gain = Tensor(1.0 + 0.2 * rng.normal(size=64).astype(np.float32), requires_grad=True)
    bias = Tensor(0.1 * rng.normal(size=64).astype(np.float32), requires_grad=True)
    g = rng.normal(size=(L, 64)).astype(np.float32)
    out = T.layer_norm(x, gain, bias)
    T.tsum(T.mul(out, g)).backward()
    want = _layer_norm_oracle(x.data, gain.data, bias.data, g)
    for got, ref in zip((out.data, x.grad, gain.grad, bias.grad), want):
        assert np.array_equal(got, ref)


def test_causal_bias_cached_read_only_and_exact_zeros(monkeypatch):
    """The attention node's softmax kernel sees the one cached causal bias."""
    seen = []
    softmax = T._softmax_

    def recording(z, scale, bias):
        out = softmax(z, scale, bias)
        seen.append((bias, out.copy()))
        return out

    monkeypatch.setattr(T, "_softmax_", recording)
    model = tf.build_model(tf.ModelConfig(arch=tf.DECODER_ONLY, d_model=16, n_heads=2,
                                          n_layers=1, d_ff=32, max_positions=16, seed=1))
    x = Tensor(np.random.default_rng(0).normal(size=(9, 16)).astype(np.float32))
    tf.forward_hidden(model, x, lengths=[9])
    tf.forward_hidden(model, x, lengths=[9])
    (bias1, probs), (bias2, _) = seen
    assert bias1 is bias2
    assert not bias1.flags.writeable
    with pytest.raises(ValueError):
        bias1[0, 1] = 0.0
    assert np.all(probs[..., ~np.tri(9, dtype=bool)] == 0.0)


# -- layer norm ----------------------------------------------------------


def test_layer_norm_constant_rows_zero():
    x = Tensor(np.full((4, 8), 3.25, dtype=np.float32))
    gain = Tensor(np.ones(8))
    bias = Tensor(np.zeros(8))
    out = T.layer_norm(x, gain, bias)
    np.testing.assert_allclose(out.data, 0.0, atol=1e-6)


def test_layer_norm_two_point():
    out = T.layer_norm(Tensor([[1.0, 3.0]]), Tensor([1.0, 1.0]), Tensor([0.0, 0.0]))
    np.testing.assert_allclose(out.data, [[-1.0, 1.0]], atol=1e-5)


def test_layer_norm_moments():
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(size=(6, 32)).astype(np.float32) * 4.0)
    out = T.layer_norm(x, Tensor(np.ones(32)), Tensor(np.zeros(32))).data.astype(np.float64)
    assert np.abs(out.mean(axis=-1)).max() < 1e-6
    assert np.abs(out.var(axis=-1) - 1.0).max() < 1e-4


def test_layer_norm_dim_mismatch():
    with pytest.raises(ShapeError):
        T.layer_norm(Tensor(np.zeros((2, 4))), Tensor(np.ones(3)), Tensor(np.zeros(3)))


# -- backward ------------------------------------------------------------


def test_backward_sum_gives_ones():
    w = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3), requires_grad=True)
    T.tsum(w).backward()
    np.testing.assert_array_equal(w.grad, np.ones((2, 3), dtype=np.float32))


def test_backward_half_norm_sq_gives_w():
    w = Tensor(np.array([1.5, -2.0, 0.25]), requires_grad=True)
    loss = T.mul(T.tsum(T.square(w)), 0.5)
    loss.backward()
    np.testing.assert_allclose(w.grad, w.data, rtol=1e-6)


def test_backward_nonscalar_errors():
    w = Tensor(np.zeros(3), requires_grad=True)
    with pytest.raises(ContractError):
        T.square(w).backward()


def test_backward_accumulates_across_calls():
    w = Tensor(np.ones(4), requires_grad=True)
    T.tsum(w).backward()
    T.tsum(w).backward()
    np.testing.assert_array_equal(w.grad, np.full(4, 2.0, dtype=np.float32))


def test_backward_stores_grad_on_leaves_only():
    rng = np.random.default_rng(2)
    x = Tensor(rng.normal(size=(3, 4)).astype(np.float32))
    w = Tensor(rng.normal(size=(4, 2)).astype(np.float32), requires_grad=True)
    h = T.gelu(T.matmul(x, w))
    loss = T.tmean(T.square(h))
    loss.backward()
    assert w.grad is not None and w.grad.shape == (4, 2)
    assert x.grad is None
    assert h.grad is None and loss.grad is None


def test_backward_frees_each_closure_once_it_has_run():
    """On the chain x -> a -> b -> loss, the array loss's closure saved is
    gone by the time a's closure runs, and every node ends off the tape."""
    seen_alive = []

    def node(parent, saved, on_backward=None):
        def backward(g):
            if on_backward is not None:
                on_backward()
            return (g * saved,)
        return T._make(parent.data * saved, (parent,), backward)

    x = Tensor(np.ones(1), requires_grad=True)
    saved_last = np.full(1, 2.0, np.float32)
    saved_ref = weakref.ref(saved_last)
    a = node(x, np.full(1, 3.0, np.float32), lambda: seen_alive.append(saved_ref() is not None))
    b = node(a, np.full(1, 5.0, np.float32))
    loss = node(b, saved_last)
    del saved_last
    loss.backward()
    assert seen_alive == [False]
    np.testing.assert_array_equal(x.grad, np.full(1, 30.0, np.float32))
    assert all(t._backward is None and t._parents == () for t in (a, b, loss))


def test_second_backward_of_one_loss_raises():
    # the first backward freed the tape, so the second has no gradient to form
    w = Tensor(np.ones(3), requires_grad=True)
    loss = T.tsum(T.square(w))
    loss.backward()
    with pytest.raises(ContractError, match="tape node of tsum, which an earlier backward"):
        loss.backward()
    np.testing.assert_array_equal(w.grad, np.full(3, 2.0, np.float32))
    assert loss.grad is None


def test_backward_through_a_node_an_earlier_backward_freed_raises():
    # h's node lost its closure in the first backward; taking h for a leaf
    # would write h.grad and leave w.grad at the first loss's gradient
    w = Tensor(np.ones(3), requires_grad=True)
    h = T.square(w)
    T.tsum(h).backward()
    with pytest.raises(ContractError, match="tape node of square, which an earlier backward"):
        T.tmean(h).backward()
    np.testing.assert_array_equal(w.grad, np.full(3, 2.0, np.float32))
    assert h.grad is None


def test_backward_calls_a_closure_assigned_to_an_op_output():
    """The benchmark's tracer times each op's backward by reading an op
    output's ``_backward`` and assigning a wrapper in its place
    (``perfbench/tracing.py``, ``_wrap_closure``); backward must call that
    wrapper, or every per-op backward time reads 0."""
    w = Tensor(np.arange(3.0), requires_grad=True)
    h = T.square(w)
    assert T.square(Tensor(np.ones(3)))._backward is None  # off the tape: nothing to wrap
    inner, calls = h._backward, []

    def closure(g):
        calls.append(g)
        return inner(g)

    h._backward = closure
    assert h._backward is closure and len(h._parents) == 1
    T.tsum(h).backward()
    assert len(calls) == 1
    np.testing.assert_array_equal(w.grad, np.array([0.0, 2.0, 4.0], np.float32))
    assert h._backward is None and h._parents == ()


@pytest.mark.parametrize("op", [T.add, T.sub, T.mul, T.div, T.matmul, T.layer_norm,
                                T.attention_branch, T.mlp_branch])
def test_backward_closures_hold_no_tensor(op):
    """A closure captures only the arrays and flags its backward reads, so the
    tape does not keep an op's input ``Tensor`` and its data alive."""
    rng = np.random.default_rng(4)

    def leaf(*shape):
        return Tensor(rng.normal(size=shape).astype(np.float32), requires_grad=True)

    x = leaf(4, 4)
    args = {T.layer_norm: (x, leaf(4), leaf(4)),
            T.attention_branch: (x, *(leaf(*s) for s in [(4,), (4,)] + [(4, 4), (4,)] * 4)),
            T.mlp_branch: (x, *(leaf(*s) for s in [(4,), (4,), (4, 6), (6,), (6, 4), (4,)]))
            }.get(op, (x, leaf(4, 4)))
    kwargs = {"batch": 2, "heads": 2} if op is T.attention_branch else {}
    closure = op(*args, **kwargs)._backward
    cells = [c.cell_contents for c in closure.__closure__ or ()]
    assert not any(isinstance(c, Tensor) for c in cells), closure.__code__.co_freevars
    if op not in (T.mul, T.div, T.matmul):  # which read the other operand's data
        assert all(c is not x.data for c in cells)  # no backward reads its input's data


@pytest.mark.parametrize("op", [T.add, T.sub, T.mul, T.div, T.matmul])
def test_binary_backward_skips_constant_operand(op):
    rng = np.random.default_rng(3)
    w = Tensor(rng.uniform(1.0, 2.0, size=(3, 3)).astype(np.float32), requires_grad=True)
    c = Tensor(rng.uniform(1.0, 2.0, size=(3, 3)).astype(np.float32))
    g = np.ones((3, 3), dtype=np.float32)
    for out, trains in ((op(w, c), [True, False]), (op(c, w), [False, True])):
        assert [pg is not None for pg in out._backward(g)] == trains
    both = op(w, Tensor(c.data, requires_grad=True))
    assert [pg is not None for pg in both._backward(g)] == [True, True]


def test_keep_freed_memory_is_a_noop_without_mallopt(monkeypatch):
    monkeypatch.setattr(T.ctypes, "CDLL", lambda name: object())
    T._keep_freed_memory()


def _graph_mlp(params):
    x, w1, b1, w2, b2 = params
    h = T.gelu(T.add(T.matmul(x, w1), b1))
    y = T.add(T.matmul(h, w2), b2)
    return T.tmean(T.square(y))


def _graph_attention(params):
    x, wq, wk, wv = params
    q, k, v = T.matmul(x, wq), T.matmul(x, wk), T.matmul(x, wv)
    scores = T.mul(T.matmul(q, T.transpose_last2(k)), 1.0 / np.sqrt(x.data.shape[-1]))
    probs = T.softmax_lastdim(scores)
    ctx = T.matmul(probs, v)
    return T.tmean(T.square(ctx))


def _graph_norm_chain(params):
    x, w, g, b = params
    h = T.layer_norm(T.matmul(x, w), g, b)
    return T.tmean(T.mul(T.gelu(h), h))


def _graph_mixed(params):
    a, b = params
    # a tensor denominator, so both of div's gradients are checked
    out = T.add(T.div(T.gelu(b), T.add(T.square(T.mul(a, 0.3)), 1.0)),
                T.sqrt(T.add(T.square(a), 1.0)))
    return T.tmean(out)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gradients_mlp(seed):
    rng = np.random.default_rng(seed)
    params = [
        Tensor(rng.normal(scale=0.5, size=(4, 6)).astype(np.float32), requires_grad=True),
        Tensor(rng.normal(scale=0.5, size=(6, 5)).astype(np.float32), requires_grad=True),
        Tensor(rng.normal(scale=0.5, size=(5,)).astype(np.float32), requires_grad=True),
        Tensor(rng.normal(scale=0.5, size=(5, 3)).astype(np.float32), requires_grad=True),
        Tensor(rng.normal(scale=0.5, size=(3,)).astype(np.float32), requires_grad=True),
    ]
    check_gradients(_graph_mlp, params)


@pytest.mark.parametrize("seed", [3, 4])
def test_gradients_attention(seed):
    rng = np.random.default_rng(seed)
    params = [
        Tensor(rng.normal(scale=0.5, size=(5, 4)).astype(np.float32), requires_grad=True),
        Tensor(rng.normal(scale=0.5, size=(4, 4)).astype(np.float32), requires_grad=True),
        Tensor(rng.normal(scale=0.5, size=(4, 4)).astype(np.float32), requires_grad=True),
        Tensor(rng.normal(scale=0.5, size=(4, 4)).astype(np.float32), requires_grad=True),
    ]
    check_gradients(_graph_attention, params)


def _branch_params(rng, rows, d, weights):
    """Input, layer-norm gain (near one) and bias, then the sub-block's weights."""
    params = [Tensor(rng.normal(scale=0.5, size=s).astype(np.float32), requires_grad=True)
              for s in [(rows, d), (d,), (d,)] + weights]
    params[1].data += 1.0
    return params


def _branch_loss(node, rows, d, **kwargs):
    """The mean of a branch node's output times a fixed random array.  A
    squared output near 4 would round by 2.4e-4 of a unit gradient in each
    difference quotient; a loss near 0 keeps that far below the tolerance."""
    weight = np.random.default_rng(rows).normal(size=(rows, d)).astype(np.float32)
    return lambda p: T.tmean(T.mul(node(*p, **kwargs), weight))


@pytest.mark.parametrize("bias", ["none", "causal", "key_padding", "causal_blocks"])
def test_gradients_self_attention_node(bias):
    """``attention_branch``, the layer norm's gain and bias among the
    differenced parameters."""
    rng = np.random.default_rng(len(bias))
    # sequences of 3 rows; causal blocks: two row blocks, the second of 6 rows
    L = T._CAUSAL_BLOCK + 6 if bias == "causal_blocks" else 3
    mask = {"none": {}, "causal": {"bias": tf.causal_bias(3)},
            "key_padding": {"bias": np.array([0.0, 0.0, -np.inf, 0.0, 0.0, 0.0],
                                             dtype=np.float32).reshape(2, 1, 1, 3)},
            "causal_blocks": {"causal": True}}[bias]
    params = _branch_params(rng, 2 * L, 4, [(4, 4), (4,)] * 4)
    # two sequences, two heads of width 2
    check_gradients(_branch_loss(T.attention_branch, 2 * L, 4, batch=2, heads=2, **mask),
                    params)


def test_self_attention_and_trimmed_nodes_contract():
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(8, 4)).astype(np.float32))
    gain, bias = Tensor(np.ones(4)), Tensor(np.zeros(4))
    attn = [gain, bias] + [Tensor(rng.normal(size=s).astype(np.float32))
                           for s in [(4, 4), (4,)] * 4]
    with pytest.raises(ContractError):
        T.attention_branch(x, *attn, batch=2, heads=2, causal=True, bias=tf.causal_bias(4))
    for queries_from in (-1, 4):
        with pytest.raises(ShapeError):
            T.attention_branch(x, *attn, batch=2, heads=2, queries_from=queries_from)
    with pytest.raises(ShapeError):
        T.attention_branch(x, Tensor(np.ones(3)), *attn[1:], batch=2, heads=2)
    # a bias with a row per query loses the dropped rows with them, and so
    # does the residual
    full = T.attention_branch(x, *attn, batch=2, heads=2, bias=tf.causal_bias(4)).data
    kept = T.attention_branch(x, *attn, batch=2, heads=2, bias=tf.causal_bias(4),
                              queries_from=2).data
    assert np.array_equal(kept, full.reshape(2, 4, 4)[:, 2:].reshape(4, 4))
    mlp = [gain, bias] + [Tensor(rng.normal(size=s).astype(np.float32))
                          for s in [(4, 6), (6,), (6, 4), (4,)]]
    with pytest.raises(ShapeError):  # the residual needs the input's width back
        T.mlp_branch(x, *mlp[:4], Tensor(np.ones((6, 3))), Tensor(np.ones(3)))
    for dropped_rows in ((3, 2), (0, 2), (2, -1)):  # 8 rows are not 3 sequences
        with pytest.raises(ShapeError):
            T.mlp_branch(x, *mlp, dropped_rows=dropped_rows)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gradients_gelu_mlp_node(seed):
    """``mlp_branch``, the layer norm's gain and bias among the differenced
    parameters."""
    rng = np.random.default_rng(seed)
    params = _branch_params(rng, 4, 6, [(6, 5), (5,), (5, 6), (6,)])
    check_gradients(_branch_loss(T.mlp_branch, 4, 6), params)


def test_gradients_norm_chain():
    rng = np.random.default_rng(5)
    params = [
        Tensor(rng.normal(scale=0.5, size=(6, 8)).astype(np.float32), requires_grad=True),
        Tensor(rng.normal(scale=0.5, size=(8, 8)).astype(np.float32), requires_grad=True),
        Tensor(1.0 + 0.1 * rng.normal(size=8).astype(np.float32), requires_grad=True),
        Tensor(0.1 * rng.normal(size=8).astype(np.float32), requires_grad=True),
    ]
    check_gradients(_graph_norm_chain, params)


def test_gradients_mixed_elementwise():
    rng = np.random.default_rng(6)
    params = [
        Tensor(rng.normal(scale=0.5, size=(7,)).astype(np.float32), requires_grad=True),
        Tensor(rng.normal(scale=0.5, size=(7,)).astype(np.float32), requires_grad=True),
    ]
    check_gradients(_graph_mixed, params)


def test_gradients_gather_and_slice():
    rng = np.random.default_rng(8)
    emb = Tensor(rng.normal(scale=0.5, size=(5, 3)).astype(np.float32), requires_grad=True)
    idx = np.array([0, 2, 2, 4])

    def f(params):
        (e,) = params
        rows = T.take_rows(e, idx)
        return T.add(T.tmean(T.square(rows)), T.tmean(T.square(T.take_rows(e, [1, 2]))))

    check_gradients(f, [emb])


@pytest.mark.parametrize("idx", [[0, 2, 3, 4], [4], [], [0, 2, 2, 4], [3, 0, 1], [4, 1, 1, 0]],
                         ids=["unique", "one", "empty", "repeated", "unsorted", "unsorted_repeated"])
def test_take_rows_grad_equals_add_at(idx):
    rng = np.random.default_rng(len(idx))
    a = Tensor(rng.normal(size=(5, 3)).astype(np.float32), requires_grad=True)
    g = rng.normal(size=(len(idx), 3)).astype(np.float32)
    T.tsum(T.mul(T.take_rows(a, idx), g)).backward()
    want = np.zeros_like(a.data)
    np.add.at(want, np.asarray(idx, dtype=np.int64), g)
    assert np.array_equal(a.grad, want)


def _take_rows_grad_bits(rows, idx, g):
    a = Tensor(np.zeros((rows, *g.shape[1:]), np.float32), requires_grad=True)
    T.tsum(T.mul(T.take_rows(a, idx), g)).backward()
    return a.grad.view(np.uint32)


@pytest.mark.parametrize("rows,idx", [
    (5, [0, 2, 3, 4]), (5, [4, 1, 1, 0]), (5, [1, 1, 1, 1]), (5, [-1, 0, 4, -5, 3]),
    (5, np.tile(np.arange(4), 3)), (5, [0, 1, 2, 0, 1]), (256, np.tile(np.arange(29), 8)),
    (16, np.random.default_rng(3).integers(0, 16, 232))],
    ids=["increasing", "unsorted_repeated", "one_row", "negative", "tiled", "tile_cut_short",
         "position_index", "token_ids"])
def test_take_rows_grad_is_add_at_bit_for_bit(rows, idx):
    # np.add.at starts each row from +0.0, so a row gathered only as -0.0
    # gets +0.0, where a sum started from its first term would keep -0.0
    rng = np.random.default_rng(len(idx))
    g = rng.normal(size=(len(idx), 64)).astype(np.float32)
    g[:, :16] = -0.0
    g[rng.random(g.shape) < 0.2] = -0.0
    g[rng.random(g.shape) < 0.1] = 0.0
    want = np.zeros((rows, 64), np.float32)
    np.add.at(want, np.asarray(idx, dtype=np.int64), g)
    assert np.array_equal(_take_rows_grad_bits(rows, idx, g), want.view(np.uint32))
    assert not np.signbit(want[:, :16]).any()  # the case the +0.0 start decides


@pytest.mark.parametrize("row_shape", [(), (1,)], ids=["vector", "one_column"])
@pytest.mark.parametrize("idx", [np.full(400, 3), np.zeros(400, np.int64)],
                         ids=["repeated", "tile_of_one_row"])
def test_take_rows_grad_adds_one_element_rows_in_order(idx, row_shape):
    # a numpy reduction over one-element slices sums them pairwise, which
    # matches the ordered sum on some draws and not on others
    for seed in range(4):
        g = np.random.default_rng(seed).normal(size=(len(idx), *row_shape)) * 1e3
        g = g.astype(np.float32)
        want = np.zeros((5, *row_shape), np.float32)
        np.add.at(want, idx, g)
        assert np.array_equal(_take_rows_grad_bits(5, idx, g), want.view(np.uint32)), seed


# -- copy-on-accumulate ----------------------------------------------------


def _all_nodes_backward(loss):
    """Reference backward: each incoming gradient is copied before it is
    summed, and ``.grad`` lands on every leaf it reaches (same visiting order
    as ``Tensor.backward``, over the same tape nodes)."""
    root = loss._node
    topo, seen, stack = [], set(), [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
        elif node not in seen:
            seen.add(node)
            stack.append((node, True))
            stack.extend((p, False) for p in node.parents if p is not None and p not in seen)
    flowing = {root: np.ones_like(loss.data)}
    for node in reversed(topo):
        g = flowing.pop(node, None)
        if g is None:
            continue
        if node.leaf is not None:
            leaf = node.leaf()
            if leaf.grad is None:
                leaf.grad = np.zeros_like(leaf.data)
            leaf.grad += g
            continue
        for parent, pg in zip(node.parents, node.backward(g)):
            if pg is not None:
                if parent in flowing:
                    flowing[parent] += pg
                else:
                    flowing[parent] = pg.astype(np.float32, copy=True)
    for node in topo:
        node.parents = ()
        node.backward = None


def _graph_add_self(params):
    (x,) = params
    return T.tmean(T.mul(T.add(x, x), T.gelu(x)))


def _graph_shared_then_more(params, shared_first):
    """add hands one gradient array to a and b; a then receives more."""
    x1, x2, c = params
    a, b = T.gelu(x1), T.gelu(x2)
    via_add = T.mul(T.add(a, b), c)
    more = T.mul(a, T.mul(b, c))
    return T.tmean(T.add(via_add, more) if shared_first else T.add(more, via_add))


def _aliasing_cases():
    rng = np.random.default_rng(12)

    def leaf(shape):
        return Tensor(rng.normal(scale=0.7, size=shape).astype(np.float32), requires_grad=True)

    return [
        ("add_self", _graph_add_self, [leaf((4, 5))]),
        ("shared_first", lambda p: _graph_shared_then_more(p, True),
         [leaf((4, 5)), leaf((4, 5)), leaf((4, 5))]),
        ("shared_last", lambda p: _graph_shared_then_more(p, False),
         [leaf((4, 5)), leaf((4, 5)), leaf((4, 5))]),
    ]


@pytest.mark.parametrize("case", range(3), ids=[c[0] for c in _aliasing_cases()])
def test_copy_on_accumulate_matches_copy_always(case):
    _, f, params = _aliasing_cases()[case]
    T.zero_grads(params)
    _all_nodes_backward(f(params))
    want = [p.grad for p in params]
    T.zero_grads(params)
    f(params).backward()
    for p, w in zip(params, want):
        assert np.array_equal(p.grad, w)
    check_gradients(f, params)


# -- the pruned tape against the all-nodes oracle ---------------------------
#
# Fine-tuning takes the weights it does not train off the tape
# (``frozen_except``), so ``matmul`` and ``add`` skip their gradient, and
# ``backward`` stores ``.grad`` on leaves only.  Neither may move a bit of what
# a step reads.


def _fpt_loss(model, emb, pred, batch, bidir_method):
    """The mean-squared-error batch loss ``finetune`` minimises."""
    losses = []
    for x, y in zip(batch.inputs, batch.targets):
        out = ad.predict_sequence(model, emb, pred, x[None], bidir_method=bidir_method)
        losses.append(T.tmean(T.square(T.sub(out, Tensor(y[None])))))
    return T.mul(T.add(losses[0], losses[1]), 0.5)


@pytest.mark.parametrize("L", [8, 128])
@pytest.mark.parametrize("arch,bidir_method", [(tf.ENCODER_ONLY, ad.BIDIR_NONE),
                                               (tf.DECODER_ONLY, ad.BIDIR_NONE),
                                               (tf.DECODER_ONLY, ad.SEQUENCE_DOUBLING)])
def test_fpt_step_gradients_match_all_requires_grad_oracle(arch, bidir_method, L):
    model = make_model(arch=arch, max_positions=256, seed=5)
    emb, pred = ad.Embedder.create(32, seed=6), ad.Predictor.create(32, seed=7)
    batch = identity_dataset(n_train=2, n_test=1, n_x=L, seed=L).train
    trained = ad.trained_parameters(model, ad.FPT) + emb.params() + pred.params()
    frozen = [p for p in model.params.values() if not any(p is q for q in trained)]
    everything = list(model.params.values()) + emb.params() + pred.params()

    T.zero_grads(everything)
    want_loss = _fpt_loss(model, emb, pred, batch, bidir_method)
    _all_nodes_backward(want_loss)
    want = [p.grad.copy() for p in trained]
    assert model.params["layer0.mlp.w1"].grad is not None  # the oracle forms frozen grads

    T.zero_grads(everything)
    with ad.frozen_except(model, trained):
        loss = _fpt_loss(model, emb, pred, batch, bidir_method)
        loss.backward()
    assert np.array_equal(loss.data, want_loss.data)
    for i, (p, w) in enumerate(zip(trained, want)):
        assert np.array_equal(p.grad, w), f"trained parameter {i}"
    assert all(p.grad is None and p.requires_grad for p in frozen)


@pytest.mark.parametrize("arch", [tf.ENCODER_ONLY, tf.DECODER_ONLY])
def test_pretrain_matches_all_nodes_oracle(arch, monkeypatch):
    tokens = [t for t, _ in gen_corpus(seed=4, n_sequences=40).sequences]
    model, oracle = make_model(arch=arch, seed=8), make_model(arch=arch, seed=8)
    trace = tf.pretrain(model, tokens, steps=3, batch_size=4, seed=9)
    monkeypatch.setattr(Tensor, "backward", _all_nodes_backward)
    want = tf.pretrain(oracle, tokens, steps=3, batch_size=4, seed=9)
    assert trace == want
    for name, p in model.params.items():
        assert np.array_equal(p.data, oracle.params[name].data), name


# -- optimizers ----------------------------------------------------------


def test_sgd_step():
    p = Tensor(np.array([1.0]), requires_grad=True)
    p.grad = np.array([2.0], dtype=np.float32)
    optimizer_step(OptimizerState(kind="sgd", learning_rate=0.1), [p])
    np.testing.assert_allclose(p.data, [0.8], rtol=1e-6)


def test_adam_first_step():
    p = Tensor(np.array([0.0]), requires_grad=True)
    p.grad = np.array([1.0], dtype=np.float32)
    optimizer_step(OptimizerState(kind="adam", learning_rate=0.01), [p])
    np.testing.assert_allclose(p.data, [-0.01], atol=1e-7)


def test_adamw_pure_decay():
    p = Tensor(np.array([1.0]), requires_grad=True)
    p.grad = np.array([0.0], dtype=np.float32)
    optimizer_step(OptimizerState(kind="adamw", learning_rate=0.01, weight_decay=0.1), [p])
    np.testing.assert_allclose(p.data, [0.999], rtol=1e-6)


def test_zero_grad_zero_decay_is_identity():
    rng = np.random.default_rng(11)
    for kind in ("sgd", "adam", "adamw"):
        p = Tensor(rng.normal(size=(3, 2)).astype(np.float32), requires_grad=True)
        before = p.data.copy()
        p.grad = np.zeros_like(p.data)
        optimizer_step(OptimizerState(kind=kind, learning_rate=0.05), [p])
        np.testing.assert_array_equal(p.data, before)


@pytest.mark.parametrize("lr, wd", [(np.nan, 0.0), (np.inf, 0.0), (0.0, 0.0), (-0.1, 0.0),
                                    (0.1, np.nan), (0.1, np.inf), (0.1, -0.1)])
def test_optimizer_rejects_a_non_finite_or_out_of_range_rate(lr, wd):
    # NaN passes a `<= 0` check, and a NaN rate turns every weight NaN
    with pytest.raises(ContractError, match="is not finite"):
        OptimizerState(kind="adamw", learning_rate=lr, weight_decay=wd)


def test_missing_grad_errors():
    p = Tensor(np.zeros(2), requires_grad=True)
    with pytest.raises(ContractError):
        optimizer_step(OptimizerState(kind="sgd", learning_rate=0.1), [p])


def test_step_count_increments():
    p = Tensor(np.zeros(2), requires_grad=True)
    p.grad = np.zeros(2, dtype=np.float32)
    st = OptimizerState(kind="adam", learning_rate=0.01)
    optimizer_step(st, [p])
    optimizer_step(st, [p])
    assert st.step_count == 2


def _textbook_step(state, params):
    """``optimizer_step`` as it was before it updated in place: fresh m, v
    and update arrays for every parameter on every step."""
    state.step_count += 1
    t = state.step_count
    lr = np.float32(state.learning_rate)
    if state.kind == "sgd":
        for p in params:
            p.data -= lr * p.grad
        return
    b1, b2 = np.float32(0.9), np.float32(0.999)  # Kingma & Ba's defaults
    eps = np.float32(1e-8)
    c1 = np.float32(1.0 - 0.9**t)
    c2 = np.float32(1.0 - 0.999**t)
    for i, p in enumerate(params):
        m, v = state.moments.get(i, (np.zeros_like(p.data), np.zeros_like(p.data)))
        m = b1 * m + (np.float32(1.0) - b1) * p.grad
        v = b2 * v + (np.float32(1.0) - b2) * (p.grad * p.grad)
        state.moments[i] = (m, v)
        update = (m / c1) / (np.sqrt(v / c2) + eps)
        if state.kind == "adamw" and state.weight_decay > 0:
            p.data -= lr * np.float32(state.weight_decay) * p.data
        p.data -= lr * update


@pytest.mark.parametrize("kind", ["sgd", "adam", "adamw"])
def test_in_place_optimizer_step_bit_identical_to_textbook_formulas(kind):
    rng = np.random.default_rng(12)
    shapes = [(64, 64), (64,), (3, 5)]
    params = [Tensor(rng.normal(size=s).astype(np.float32), requires_grad=True) for s in shapes]
    oracle = [p.copy() for p in params]
    make = lambda: OptimizerState(kind=kind, learning_rate=3e-3, weight_decay=0.1)
    state, oracle_state = make(), make()
    for _ in range(6):
        for p, q in zip(params, oracle):
            p.grad = rng.normal(scale=rng.choice([1e-4, 1.0, 30.0]), size=p.shape).astype(np.float32)
            q.grad = p.grad.copy()
        moments = {i: (m, v) for i, (m, v) in state.moments.items()}
        optimizer_step(state, params)
        _textbook_step(oracle_state, oracle)
        for p, q in zip(params, oracle):
            assert np.array_equal(p.data, q.data)
        for i, (m, v) in state.moments.items():
            assert np.array_equal(m, oracle_state.moments[i][0])
            assert np.array_equal(v, oracle_state.moments[i][1])
            if i in moments:  # the moment buffers are updated in place
                assert m is moments[i][0] and v is moments[i][1]


# -- misc contracts -------------------------------------------------------


def test_no_grad_blocks_tape():
    w = Tensor(np.ones(3), requires_grad=True)
    with T.no_grad():
        out = T.tsum(T.square(w))
    assert out._backward is None and not out.requires_grad


def test_blas_threads_scope_restores_the_previous_count():
    if T._openblas_threads() is None:
        pytest.skip("no OpenBLAS thread setter is loaded")
    get_threads = T._openblas_threads()[0]
    with T.blas_threads(2):
        with T.blas_threads(1):
            assert get_threads() == 1
        assert get_threads() == 2
        with pytest.raises(RuntimeError, match="inside"):
            with T.blas_threads(1):
                assert get_threads() == 1
                raise RuntimeError("raised inside the scope")
        assert get_threads() == 2


def test_blas_threads_is_a_noop_without_openblas(monkeypatch):
    monkeypatch.setattr(T.ctypes, "CDLL", lambda name: object())
    T._openblas.cache_clear()
    T._openblas_threads.cache_clear()
    try:
        assert T._openblas() is None and T._openblas_threads() is None
        with T.blas_threads(1):
            product = np.ones((2, 3), np.float32) @ np.ones((3, 2), np.float32)
        np.testing.assert_array_equal(product, np.full((2, 2), 3.0, np.float32))
    finally:
        T._openblas.cache_clear()
        T._openblas_threads.cache_clear()
