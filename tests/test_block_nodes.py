"""The attention and MLP tape nodes against the op chains they replace.

``forward_hidden`` runs each attention and each MLP sub-block as one tape node
(``tensor.self_attention``, ``tensor.gelu_mlp``).  The oracle below is each
sub-block as the chain of elementary tape ops it was built from; swapped in for
the nodes, it must give the same output and gradients bit for bit, while the
nodes keep less of the forward pass for backward.
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


def _chain_attention(x, wq, bq, wk, bk, wv, bv, wo, bo, batch, heads, bias=None):
    rows, d = x.data.shape
    B, H, L, dh = batch, heads, rows // batch, d // heads

    def split(w, b):
        return T.transpose(T.reshape(T.add(T.matmul(x, w), b), (B, L, H, dh)), (0, 2, 1, 3))

    q, k, v = split(wq, bq), split(wk, bk), split(wv, bv)
    scores = T.matmul(q, T.transpose_last2(k))
    probs = T.softmax_lastdim(scores, bias=bias, scale=1.0 / np.sqrt(dh))
    ctx = T.reshape(T.transpose(T.matmul(probs, v), (0, 2, 1, 3)), (rows, d))
    return T.add(T.matmul(ctx, wo), bo)


def _chain_mlp(x, w1, b1, w2, b2):
    return T.add(T.matmul(T.gelu(T.add(T.matmul(x, w1), b1)), w2), b2)


@contextlib.contextmanager
def op_chain():
    """Run ``forward_hidden``'s sub-blocks as op chains inside the block."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(T, "self_attention", _chain_attention)
        mp.setattr(T, "gelu_mlp", _chain_mlp)
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


@pytest.mark.parametrize("weights", [ad.FPT, ad.ORCA, "all"])
@pytest.mark.parametrize("B,L", [(1, 8), (4, 8), (1, 128), (4, 128), (1, 256), (4, 256)])
@pytest.mark.parametrize("arch", [tf.ENCODER_ONLY, tf.DECODER_ONLY])
def test_nodes_match_op_chain_bitwise(arch, B, L, weights):
    model = make_model(arch=arch, d_model=64, max_positions=256, seed=L + B)
    for p in model.params.values():  # nonzero biases and gains, so every term counts
        p.data += np.random.default_rng(p.data.size).normal(0.0, 0.05, p.data.shape
                                                            ).astype(np.float32)
    rng = np.random.default_rng(B * L)
    x = rng.normal(size=(B * L, 64)).astype(np.float32)
    G = rng.normal(size=(B * L, 64)).astype(np.float32)
    trained = _trained(model, weights)
    got = _forward_backward(model, x, G, B, trained)
    with op_chain():
        want = _forward_backward(model, x, G, B, trained)
    assert len(got) == len(want) == 2 + len(trained)
    for i, (a, b) in enumerate(zip(got, want)):
        assert (a is None) == (b is None), i
        assert a is None or np.array_equal(a, b), i


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
    nodes = _fpt_step_peak_bytes(arch)
    with op_chain():
        chain = _fpt_step_peak_bytes(arch)
    assert nodes <= 0.75 * chain, (nodes / 2**20, chain / 2**20)
