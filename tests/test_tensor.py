import numpy as np
import pytest

from conftest import identity_dataset, make_model
from crossmodal_pde import adaptation as ad
from crossmodal_pde import tensor as T
from crossmodal_pde import transformer as tf
from crossmodal_pde.proxy_data import gen_corpus
from crossmodal_pde.tensor import (
    ContractError,
    OptimizerState,
    ShapeError,
    Tensor,
    optimizer_step,
)


def finite_diff_grads(f, params, h=1e-3):
    """Central differences with the realized float32 step, 64-bit accumulation."""
    grads = []
    for p in params:
        g = np.zeros(p.data.shape, dtype=np.float64).reshape(-1)
        flat = p.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = np.float32(float(orig) + h)
            hi_x = float(flat[i])
            hi = f()
            flat[i] = np.float32(float(orig) - h)
            lo_x = float(flat[i])
            lo = f()
            flat[i] = orig
            g[i] = (hi - lo) / (hi_x - lo_x)
        grads.append(g.reshape(p.data.shape))
    return grads


def rel_err(a, b):
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0)


def check_gradients(f, params, min_pass=0.95, tol=1e-4):
    T.zero_grads(params)
    loss = f_tensor_loss(f, params)
    loss.backward()
    fd = finite_diff_grads(lambda: f(params).item(), params)
    total, ok = 0, 0
    for p, g_fd in zip(params, fd):
        assert p.grad is not None
        e = rel_err(p.grad.astype(np.float64), g_fd)
        total += e.size
        ok += int((e < tol).sum())
    assert ok / total >= min_pass, f"only {ok}/{total} coords within {tol}"


def f_tensor_loss(f, params):
    out = f(params)
    assert isinstance(out, Tensor) and out.data.size == 1
    return out


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


def test_softmax_rows_sum_to_one_large_magnitude():
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.uniform(-1e4, 1e4, size=(5, 8)).astype(np.float32)
        s = T.softmax_lastdim(Tensor(x)).data.sum(axis=-1, dtype=np.float64)
        np.testing.assert_allclose(s, 1.0, atol=1e-6)


def test_softmax_empty_lastdim_errors():
    with pytest.raises(ShapeError):
        T.softmax_lastdim(Tensor(np.zeros((3, 0))))


def test_masked_softmax_exact_zeros():
    x = Tensor(np.array([[5.0, 1.0, -2.0]]))
    bias = np.array([[0.0, 0.0, -np.inf]], dtype=np.float32)
    out = T.softmax_lastdim(x, bias=bias)
    assert out.data[0, 2] == 0.0
    np.testing.assert_allclose(out.data.sum(), 1.0, atol=1e-6)


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


def test_gelu_cdf_within_bound_of_float64_erf():
    assert T._gelu_cdf_max_error() <= 3e-7


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
    seen = []
    softmax = T.softmax_lastdim

    def recording(x, bias=None, **kwargs):
        out = softmax(x, bias=bias, **kwargs)
        seen.append((bias, out.data))
        return out

    monkeypatch.setattr(T, "softmax_lastdim", recording)
    model = tf.build_model(tf.ModelConfig(arch=tf.DECODER_ONLY, d_model=16, n_heads=2,
                                          n_layers=1, d_ff=32, max_positions=16, seed=1))
    x = Tensor(np.random.default_rng(0).normal(size=(9, 16)).astype(np.float32))
    tf.forward_hidden(model, x)
    tf.forward_hidden(model, x)
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
    out = T.layer_norm(x, gain, bias, eps=1e-5)
    np.testing.assert_allclose(out.data, 0.0, atol=1e-6)


def test_layer_norm_two_point():
    out = T.layer_norm(Tensor([[1.0, 3.0]]), Tensor([1.0, 1.0]), Tensor([0.0, 0.0]), eps=1e-12)
    np.testing.assert_allclose(out.data, [[-1.0, 1.0]], atol=1e-5)


def test_layer_norm_moments():
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(size=(6, 32)).astype(np.float32) * 4.0)
    out = T.layer_norm(x, Tensor(np.ones(32)), Tensor(np.zeros(32)), eps=1e-5).data.astype(np.float64)
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


@pytest.mark.parametrize("op", [T.add, T.sub, T.mul, T.div, T.matmul])
def test_binary_backward_skips_constant_operand(op):
    rng = np.random.default_rng(3)
    w = Tensor(rng.uniform(1.0, 2.0, size=(3, 3)).astype(np.float32), requires_grad=True)
    c = Tensor(rng.uniform(1.0, 2.0, size=(3, 3)).astype(np.float32))
    g = np.ones((3, 3), dtype=np.float32)
    for out, wanted in ((op(w, c), w), (op(c, w), w)):
        assert [parent for parent, _ in out._backward(g)] == [wanted]
    both = op(w, Tensor(c.data, requires_grad=True))
    assert len(both._backward(g)) == 2


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
    h = T.layer_norm(T.matmul(x, w), g, b, eps=1e-5)
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
        return T.add(T.tmean(T.square(rows)), T.tmean(T.square(T.slice_rows(e, 1, 3))))

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


# -- copy-on-accumulate ----------------------------------------------------


def _all_nodes_backward(loss):
    """Reference backward: every requires_grad node, interior ones included,
    gets ``.grad``, and each incoming gradient is copied before it is summed
    (same visiting order as ``Tensor.backward``)."""
    topo, seen, stack = [], set(), [(loss, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((p, False) for p in node._parents if id(p) not in seen)
    flowing = {id(loss): np.ones_like(loss.data)}
    for node in reversed(topo):
        g = flowing.pop(id(node), None)
        if g is None:
            continue
        if node.requires_grad:
            if node.grad is None:
                node.grad = np.zeros_like(node.data)
            node.grad += g
        if node._backward is not None:
            for parent, pg in node._backward(g):
                if parent.requires_grad:
                    if id(parent) in flowing:
                        flowing[id(parent)] += pg
                    else:
                        flowing[id(parent)] = pg.astype(np.float32, copy=True)
    for node in topo:
        node._parents = ()
        node._backward = None


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
    b1, b2 = np.float32(state.beta1), np.float32(state.beta2)
    eps = np.float32(state.eps)
    c1 = np.float32(1.0 - state.beta1**t)
    c2 = np.float32(1.0 - state.beta2**t)
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
    T._openblas_threads.cache_clear()
    try:
        assert T._openblas_threads() is None
        with T.blas_threads(1):
            product = np.ones((2, 3), np.float32) @ np.ones((3, 2), np.float32)
        np.testing.assert_array_equal(product, np.full((2, 2), 3.0, np.float32))
    finally:
        T._openblas_threads.cache_clear()
