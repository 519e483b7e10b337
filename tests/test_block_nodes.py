"""The residual-branch tape nodes against the op chains they replace.

``forward_hidden`` runs each pre-norm residual branch, ``h + attention(LN(h))``
and ``h + MLP(LN(h))``, as one tape node (``tensor.attention_branch``,
``tensor.mlp_branch``).  The oracle below is each branch as the chain of
elementary tape ops it was built from: layer norm, the sub-block's ops and the
residual add.  Swapped in for the nodes, it must give the same output and
gradients bit for bit, while the nodes keep less of the forward pass for
backward.  Causal attention runs in
row blocks; it must match the one [L, L] product it replaces the same way, and
so must ``forward_hidden(keep_from=...)`` the full forward it trims.
"""

import contextlib
import tracemalloc

import numpy as np
import pytest

from conftest import make_model
from crossmodal_pde import adaptation as ad
from crossmodal_pde import tensor as T
from crossmodal_pde import transformer as tf
from crossmodal_pde.proxy_data import gen_corpus
from crossmodal_pde.tensor import Tensor


def _chain_attention(x, wq, bq, wk, bk, wv, bv, wo, bo, batch, heads, bias=None,
                     causal=False, queries_from=0):
    assert queries_from == 0  # these tests run untrimmed forwards
    rows, d = x.data.shape
    B, H, L, dh = batch, heads, rows // batch, d // heads
    if causal:
        bias = tf.causal_bias(L)

    def split(w, b):
        return T.transpose(T.reshape(T.add(T.matmul(x, w), b), (B, L, H, dh)), (0, 2, 1, 3))

    q, k, v = split(wq, bq), split(wk, bk), split(wv, bv)
    scores = T.matmul(q, T.transpose_last2(k))
    probs = T.softmax_lastdim(scores, bias=bias, scale=1.0 / np.sqrt(dh))
    ctx = T.reshape(T.transpose(T.matmul(probs, v), (0, 2, 1, 3)), (rows, d))
    return T.add(T.matmul(ctx, wo), bo)


def _chain_mlp(x, w1, b1, w2, b2):
    return T.add(T.matmul(T.gelu(T.add(T.matmul(x, w1), b1)), w2), b2)


def _chain_attention_branch(x, g, b, *attn, **kwargs):
    return T.add(x, _chain_attention(T.layer_norm(x, g, b), *attn, **kwargs))


def _chain_mlp_branch(x, g, b, *mlp, dropped_rows=None):
    assert dropped_rows is None or dropped_rows[1] == 0  # untrimmed forwards
    return T.add(x, _chain_mlp(T.layer_norm(x, g, b), *mlp))


@contextlib.contextmanager
def op_chain():
    """Run ``forward_hidden``'s residual branches as op chains inside the block."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(T, "attention_branch", _chain_attention_branch)
        mp.setattr(T, "mlp_branch", _chain_mlp_branch)
        yield


def _trained(model, weights):
    if weights == "all":
        return list(model.params.values())
    return ad.trained_parameters(model, weights)


def _forward_backward(model, x, G, B, trained):
    """Hidden output, input gradient and trained-parameter gradients of
    sum(forward_hidden(x) * G) with only ``trained`` on the tape."""
    x = Tensor(x, requires_grad=True)
    T.zero_grads(list(model.params.values()))
    with ad.frozen_except(model, trained):
        out = tf.forward_hidden(model, x, lengths=[len(x.data) // B] * B)
        T.tsum(T.mul(out, G)).backward()
    return [out.data, x.grad] + [p.grad for p in trained]


def _model_and_inputs(arch, B, L, out_rows=None):
    """A default-width model with nonzero biases and gains, so every term
    counts, a [B * L, 64] input and a gradient for ``out_rows`` output rows."""
    model = make_model(arch=arch, d_model=64, max_positions=256, seed=L + B)
    for p in model.params.values():
        p.data += np.random.default_rng(p.data.size).normal(0.0, 0.05, p.data.shape
                                                            ).astype(np.float32)
    rng = np.random.default_rng(B * L)
    x = rng.normal(size=(B * L, 64)).astype(np.float32)
    G = rng.normal(size=(B * L if out_rows is None else out_rows, 64)).astype(np.float32)
    return model, x, G


def _assert_bitwise(got, want):
    assert len(got) == len(want)
    for i, (a, b) in enumerate(zip(got, want)):
        assert (a is None) == (b is None), i
        assert a is None or np.array_equal(a, b), i


@pytest.mark.parametrize("weights", [ad.FPT, ad.ORCA, "all"])
@pytest.mark.parametrize("B,L", [(1, 8), (4, 8), (1, 128), (4, 128), (1, 256), (4, 256)])
@pytest.mark.parametrize("arch", [tf.ENCODER_ONLY, tf.DECODER_ONLY])
def test_nodes_match_op_chain_bitwise(arch, B, L, weights):
    model, x, G = _model_and_inputs(arch, B, L)
    trained = _trained(model, weights)
    got = _forward_backward(model, x, G, B, trained)
    with op_chain():
        want = _forward_backward(model, x, G, B, trained)
    assert len(got) == 2 + len(trained)
    _assert_bitwise(got, want)


@pytest.mark.parametrize("mode", [ad.FPT, ad.ORCA, "all", "no_grad"])
@pytest.mark.parametrize("B", [1, 4])
@pytest.mark.parametrize("L", [8, 63, 64, 65, 128, 200, 256])
def test_causal_blocks_match_one_product_bitwise(L, B, mode, monkeypatch):
    """Row blocks against one [L, L] product (a block size no length reaches),
    for the output and every trained gradient, and off the tape."""
    model, x, G = _model_and_inputs(tf.DECODER_ONLY, B, L)
    if mode == "no_grad":
        def run():
            with T.no_grad():
                return [tf.forward_hidden(model, Tensor(x), lengths=[L] * B).data]
    else:
        trained = _trained(model, mode)
        run = lambda: _forward_backward(model, x, G, B, trained)  # noqa: E731
    got = run()
    monkeypatch.setattr(T, "_CAUSAL_BLOCK", 1 << 30)
    _assert_bitwise(got, run())


def _trimmed_forward_backward(model, x, G, lengths, trained, keep_from, trim):
    """``_forward_backward`` of rows keep_from.. of each sequence, by
    ``keep_from`` or by a ``take_rows`` of the full forward's output."""
    x = Tensor(x, requires_grad=True)
    B = len(lengths)
    L = len(x.data) // B
    T.zero_grads(list(model.params.values()))
    with ad.frozen_except(model, trained):
        if trim:
            out = tf.forward_hidden(model, x, lengths=lengths, keep_from=keep_from)
        else:
            out = T.take_rows(tf.forward_hidden(model, x, lengths=lengths),
                              (L * np.arange(B)[:, None] + np.arange(keep_from, L)).ravel())
        T.tsum(T.mul(out, G)).backward()
    return [out.data, x.grad] + [p.grad for p in trained]


@pytest.mark.parametrize("weights", [ad.FPT, "all"])
@pytest.mark.parametrize("B", [1, 4])
@pytest.mark.parametrize("L,keep_from", [(16, 8), (200, 63), (256, 128)])
@pytest.mark.parametrize("arch", [tf.ENCODER_ONLY, tf.DECODER_ONLY])
def test_trimmed_last_layer_matches_full_forward_bitwise(arch, L, keep_from, B, weights):
    model, x, G = _model_and_inputs(arch, B, L, out_rows=B * (L - keep_from))
    trained = _trained(model, weights)
    got = _trimmed_forward_backward(model, x, G, [L] * B, trained, keep_from, trim=True)
    want = _trimmed_forward_backward(model, x, G, [L] * B, trained, keep_from, trim=False)
    _assert_bitwise(got, want)


def test_trimmed_padded_encoder_batch_matches_full_forward_bitwise():
    """The key-padding bias of a padded batch applies to the kept queries."""
    lengths, L, keep_from = [40, 25, 33, 21], 40, 20
    model, x, G = _model_and_inputs(tf.ENCODER_ONLY, 4, L, out_rows=4 * (L - keep_from))
    trained = _trained(model, "all")
    got = _trimmed_forward_backward(model, x, G, lengths, trained, keep_from, trim=True)
    want = _trimmed_forward_backward(model, x, G, lengths, trained, keep_from, trim=False)
    _assert_bitwise(got, want)


def test_no_grad_causal_attention_peaks_below_one_score_array():
    """Off the tape each row block's scores are scratch, so a causal forward
    at L=256 never holds a [B, 4, L, L] float32 array."""
    B, L = 4, 256
    model = tf.build_model(tf.ModelConfig(arch=tf.DECODER_ONLY))
    attn = [model.params["layer0." + n] for n in tf._ATTN_PARAMS]
    x = Tensor(np.random.default_rng(0).normal(size=(B * L, 64)).astype(np.float32))
    tracemalloc.start()
    try:
        with T.no_grad():
            T.attention_branch(x, *attn, batch=B, heads=4, causal=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < B * 4 * L * L * 4, peak / 2**20


@pytest.mark.parametrize("arch", [tf.ENCODER_ONLY, tf.DECODER_ONLY])
def test_padded_pretraining_step_matches_op_chain_bitwise(arch):
    batch = [t for t, _ in gen_corpus(seed=6, n_sequences=6).sequences]
    assert len({len(t) for t in batch}) > 1  # the batch pads, so the encoder gets a key bias
    model, oracle = make_model(arch=arch, seed=2), make_model(arch=arch, seed=2)
    loss = tf.pretrain_step(model, batch, rng=np.random.default_rng(3))
    with op_chain():
        want = tf.pretrain_step(oracle, batch, rng=np.random.default_rng(3))
    assert loss == want
    for name, p in model.params.items():
        q = oracle.params[name]
        assert (p.grad is None) == (q.grad is None), name
        assert p.grad is None or np.array_equal(p.grad, q.grad), name


def _fpt_step_peak_bytes(arch):
    """Peak traced bytes of one FPT training step of the benchmark's model
    (d_model 64, 4 heads, 4 layers, d_ff 256) on 4 frames of 128 points."""
    model = tf.build_model(tf.ModelConfig(arch=arch, n_layers=4))
    emb, pred = ad.Embedder.create(64, seed=1), ad.Predictor.create(64, seed=2)
    frames = np.random.default_rng(3).normal(size=(4, 128)).astype(np.float32)
    trained = ad.trained_parameters(model, ad.FPT)
    tracemalloc.start()
    try:
        with ad.frozen_except(model, trained):
            out = ad.predict_sequence(model, emb, pred, frames)
            T.tmean(T.square(T.sub(out, Tensor(frames)))).backward()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("arch", [tf.ENCODER_ONLY, tf.DECODER_ONLY])
def test_fpt_step_peak_memory_below_op_chain(arch):
    """The branch nodes keep no layer-norm, attention or MLP output under FPT
    and the GELU slope in place of its pre-activation and cdf: 11.9 MiB for
    either arch, against 15.8 / 15.5 MiB with six nodes per layer."""
    nodes = _fpt_step_peak_bytes(arch)
    with op_chain():
        chain = _fpt_step_peak_bytes(arch)
    assert nodes <= 0.75 * chain, (nodes / 2**20, chain / 2**20)
    assert nodes <= 12.8 * 2**20, nodes / 2**20
