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
import weakref

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
    model = tf.build_model(tf.ModelConfig(arch=tf.DECODER_ONLY, n_layers=2))
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
    and the GELU slope in place of its pre-activation and cdf: 10.4 MiB
    (encoder) and 9.5 MiB (decoder), 0.87 and 0.79 of the 11.9 MiB of six
    nodes per layer.  The ratio bounds sit just above those ratios; the
    ceilings add about 7%."""
    nodes = _fpt_step_peak_bytes(arch)
    with op_chain():
        chain = _fpt_step_peak_bytes(arch)
    ratio = {tf.ENCODER_ONLY: 0.88, tf.DECODER_ONLY: 0.80}[arch]
    assert nodes <= ratio * chain, (nodes / 2**20, chain / 2**20)
    ceiling = {tf.ENCODER_ONLY: 11.2, tf.DECODER_ONLY: 10.2}[arch]
    assert nodes <= ceiling * 2**20, nodes / 2**20


def _pretraining_step_peak_bytes(arch):
    """Peak traced bytes of one pretraining step of the benchmark's model,
    every weight training, on a batch of 8 sequences of 28-31 tokens."""
    model = tf.build_model(tf.ModelConfig(arch=arch, n_layers=4))
    batch = [t for t, _ in gen_corpus(seed=4, n_sequences=200).sequences if len(t) >= 28][:8]
    tracemalloc.start()
    try:
        tf.pretrain_step(model, batch, rng=np.random.default_rng(0))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("arch", [tf.ENCODER_ONLY, tf.DECODER_ONLY])
def test_pretraining_step_peak_memory_below_op_chain(arch):
    """5.2 MiB (encoder) and 5.3 MiB (decoder), 0.85 and 0.86 of the 6.1 and
    6.2 MiB of six nodes per layer.  The ratio bound sits just above those
    ratios; the ceilings add about 7%."""
    nodes = _pretraining_step_peak_bytes(arch)
    with op_chain():
        chain = _pretraining_step_peak_bytes(arch)
    assert nodes <= 0.86 * chain, (nodes / 2**20, chain / 2**20)
    ceiling = {tf.ENCODER_ONLY: 5.6, tf.DECODER_ONLY: 5.7}[arch]
    assert nodes <= ceiling * 2**20, nodes / 2**20


def _hidden_and_grads(model, x, G, B, trained, hold):
    """``_forward_backward``, and whether the arrays of the position rows, the
    embedding add and every branch node's output were freed by the time
    ``forward_hidden`` returned; ``hold=True`` keeps them alive instead."""
    made = []

    def recorded(op):
        def run(*args, **kwargs):
            out = op(*args, **kwargs)
            made.append(out.data if hold else weakref.ref(out.data))
            return out
        return run

    x = Tensor(x, requires_grad=True)
    T.zero_grads(list(model.params.values()))
    with ad.frozen_except(model, trained):
        with pytest.MonkeyPatch.context() as mp:
            for name in ("take_rows", "add", "attention_branch", "mlp_branch"):
                mp.setattr(T, name, recorded(getattr(T, name)))
            out = tf.forward_hidden(model, x, lengths=[len(x.data) // B] * B)
        freed = None if hold else [ref() is None for ref in made]
        T.tsum(T.mul(out, G)).backward()
    return freed, [out.data, x.grad] + [p.grad for p in trained]


@pytest.mark.parametrize("weights", [ad.FPT, "all"])
@pytest.mark.parametrize("arch", [tf.ENCODER_ONLY, tf.DECODER_ONLY])
def test_taped_forward_hidden_frees_what_no_backward_reads(arch, weights):
    """No backward reads the position rows, the embedding add or the residual
    stream, and the tape refers to nodes, not tensors: the arrays are freed
    as ``forward_hidden`` returns, and the gradients are bitwise those of a
    run that holds them."""
    B, L = 2, 16
    model, x, G = _model_and_inputs(arch, B, L)
    trained = _trained(model, weights)
    freed, got = _hidden_and_grads(model, x, G, B, trained, hold=False)
    assert freed == [True] * (2 + 2 * model.config.n_layers)
    _, want = _hidden_and_grads(model, x, G, B, trained, hold=True)
    _assert_bitwise(got, want)
