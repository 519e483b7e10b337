import contextlib

import numpy as np
import pytest

from crossmodal_pde import tensor as T
from crossmodal_pde import transformer as tf
from crossmodal_pde.tensor import ContractError, Tensor
from crossmodal_pde.transformer import (
    ALL_TRAINABLE,
    BIDIRECTIONAL,
    CAUSAL,
    DECODER_ONLY,
    ENCODER_ONLY,
    FPT_FROZEN,
    ConfigError,
    LengthError,
    ModelConfig,
    build_model,
    forward_hidden,
    parameter_census,
    pretrain,
    pretrain_step,
    trainable_parameter_census,
)


def small_config(arch=DECODER_ONLY, **kw):
    base = dict(arch=arch, d_model=32, n_heads=4, n_layers=2, d_ff=64,
                max_positions=64, vocab_size=16, seed=5)
    base.update(kw)
    return ModelConfig(**base)


def run_hidden(model, x, mask):
    with T.no_grad():
        return forward_hidden(model, Tensor(x), mask).data


def test_build_deterministic_bitwise():
    cfg = small_config()
    a, b = build_model(cfg), build_model(cfg)
    for name in a.params:
        np.testing.assert_array_equal(a.params[name].data, b.params[name].data)


def test_seed_changes_weights():
    a = build_model(small_config(seed=1))
    b = build_model(small_config(seed=2))
    assert not np.array_equal(a.params["tok_emb"].data, b.params["tok_emb"].data)


def test_parameter_census_closed_form():
    cfg = ModelConfig(arch=ENCODER_ONLY, d_model=64, n_heads=8, n_layers=2, d_ff=256,
                      max_positions=256, vocab_size=64, seed=0)
    d, f, V, P, n = 64, 256, 64, 256, 2
    per_layer = 4 * d * d + 4 * d + 4 * d + 2 * d * f + f + d
    want = V * d + P * d + n * per_layer + 2 * d + d * V
    assert parameter_census(build_model(cfg)) == want


def test_heads_must_divide_d_model():
    with pytest.raises(ConfigError):
        ModelConfig(arch=DECODER_ONLY, d_model=64, n_heads=3)


def test_causal_future_perturbation_bitwise_invisible():
    model = build_model(small_config())
    rng = np.random.default_rng(0)
    L = 12
    x = rng.normal(size=(L, 32)).astype(np.float32)
    base = run_hidden(model, x, CAUSAL)
    x2 = x.copy()
    x2[L - 1] += 1.0
    pert = run_hidden(model, x2, CAUSAL)
    np.testing.assert_array_equal(base[: L - 1], pert[: L - 1])
    assert not np.array_equal(base[L - 1], pert[L - 1])


def test_bidirectional_future_perturbation_visible():
    model = build_model(small_config(arch=ENCODER_ONLY))
    rng = np.random.default_rng(1)
    L = 12
    x = rng.normal(size=(L, 32)).astype(np.float32)
    x2 = x.copy()
    x2[L - 1] += 1.0
    assert not np.array_equal(run_hidden(model, x, BIDIRECTIONAL)[0],
                              run_hidden(model, x2, BIDIRECTIONAL)[0])


def test_single_token_masks_agree():
    model = build_model(small_config())
    x = np.random.default_rng(2).normal(size=(1, 32)).astype(np.float32)
    np.testing.assert_array_equal(run_hidden(model, x, CAUSAL),
                                  run_hidden(model, x, BIDIRECTIONAL))


def test_length_error():
    model = build_model(small_config(max_positions=8))
    x = np.zeros((9, 32), dtype=np.float32)
    with pytest.raises(LengthError):
        run_hidden(model, x, CAUSAL)


def test_no_positions_permutation_equivariance():
    # with positional embeddings zeroed, permuting bidirectional inputs permutes outputs
    model = build_model(small_config(arch=ENCODER_ONLY))
    model.params["pos_emb"].data[:] = 0.0
    rng = np.random.default_rng(3)
    L = 10
    x = rng.normal(size=(L, 32)).astype(np.float32)
    perm = rng.permutation(L)
    base = run_hidden(model, x, BIDIRECTIONAL)
    permuted = run_hidden(model, x[perm], BIDIRECTIONAL)
    np.testing.assert_allclose(permuted, base[perm], atol=2e-5)


def test_init_loss_near_log_vocab():
    vocab = 64
    rng = np.random.default_rng(4)
    seqs = [rng.integers(2, vocab, size=16) for _ in range(4)]
    for arch, objective in ((DECODER_ONLY, tf.NEXT_TOKEN), (ENCODER_ONLY, tf.MLM)):
        model = build_model(small_config(arch=arch, vocab_size=vocab))
        T.zero_grads(model.parameters())
        loss = pretrain_step(model, seqs, objective, rng=np.random.default_rng(0))
        assert abs(loss - np.log(vocab)) < 0.1 * np.log(vocab)


def test_mlm_zero_mask_rate_gives_zero_loss():
    model = build_model(small_config(arch=ENCODER_ONLY))
    seqs = [np.arange(2, 10)]
    loss = pretrain_step(model, seqs, tf.MLM, rng=np.random.default_rng(0), mask_rate=0.0)
    assert loss == 0.0


def test_objective_arch_mismatch():
    model = build_model(small_config(arch=DECODER_ONLY))
    with pytest.raises(ContractError):
        pretrain_step(model, [np.arange(4)], tf.MLM)
    model = build_model(small_config(arch=ENCODER_ONLY))
    with pytest.raises(ContractError):
        pretrain_step(model, [np.arange(4)], tf.NEXT_TOKEN)


def test_next_token_learns_repeating_cycle():
    # period-4 cycle is fully predictable from one token of context
    cfg = small_config(arch=DECODER_ONLY, vocab_size=8, max_positions=32)
    model = build_model(cfg)
    cycle = np.array([2, 5, 3, 7])
    seqs = [np.tile(cycle, 4)[i: i + 12] for i in range(4)]
    trace = pretrain(model, seqs, steps=2000, learning_rate=3e-3, batch_size=4, seed=0)
    assert trace[-1] < 0.05, f"final next-token loss {trace[-1]:.4f}"


@pytest.mark.parametrize("arch", [ENCODER_ONLY, DECODER_ONLY])
def test_pretraining_reduces_loss(arch):
    cfg = ModelConfig(arch=arch, d_model=64, n_heads=4, n_layers=2, d_ff=128,
                      max_positions=64, vocab_size=32, seed=9)
    model = build_model(cfg)
    rng = np.random.default_rng(5)
    # structured corpus: token i depends on token i-1 (learnable bigram ramp)
    seqs = []
    for _ in range(64):
        start = rng.integers(2, 30)
        seqs.append((start + np.arange(20)) % 30 + 2)
    trace = pretrain(model, seqs, steps=200, learning_rate=1e-3, batch_size=8, seed=1)
    early = float(np.mean(trace[:10]))
    late = float(np.mean(trace[-10:]))
    assert late <= 0.8 * early, f"loss went {early:.3f} -> {late:.3f}"


def test_census_policies():
    cfg = small_config(d_model=64, n_heads=4)
    model = build_model(cfg)
    total = parameter_census(model)
    assert trainable_parameter_census(model, ALL_TRAINABLE) == total
    ln_count = sum(p.data.size for n, p in model.params.items()
                   if ".ln1." in n or ".ln2." in n or n.startswith("final_ln."))
    assert trainable_parameter_census(model, FPT_FROZEN) == ln_count
    # frozen set is tiny relative to the full model at d_model >= 64
    emb = [Tensor(np.zeros((1, 64))), Tensor(np.zeros(64))]
    pred = [Tensor(np.zeros((64, 1))), Tensor(np.zeros(1))]
    frozen_total = trainable_parameter_census(model, FPT_FROZEN, emb + pred)
    assert frozen_total < 0.1 * total


def test_checkpoint_round_trip(tmp_path):
    model = build_model(small_config(seed=21))
    model.pretrained = True
    path = tmp_path / "model.ckpt"
    tf.save_checkpoint(model, path)
    loaded = tf.load_checkpoint(path)
    assert loaded.config == model.config
    assert loaded.pretrained
    for name in model.params:
        np.testing.assert_array_equal(loaded.params[name].data, model.params[name].data)


def test_checkpoint_header_is_json_line(tmp_path):
    import json

    model = build_model(small_config())
    path = tmp_path / "model.ckpt"
    tf.save_checkpoint(model, path)
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode("utf-8"))
    assert header["kind"] == "model_checkpoint"
    names = {b["name"] for b in header["blocks"]}
    assert "tok_emb" in names and "lm_head" in names


def bigram_corpus(n=32, length=24):
    rng = np.random.default_rng(5)
    return [(rng.integers(2, 30) + np.arange(length)) % 30 + 2 for _ in range(n)]


@pytest.mark.parametrize("arch", [ENCODER_ONLY, DECODER_ONLY])
def test_pretrain_trace_is_bit_identical_at_one_and_two_blas_threads(arch, monkeypatch):
    if T._openblas_threads() is None:
        pytest.skip("no OpenBLAS thread setter is loaded")
    # let the outer scope decide the pool width for the d_model-64 model
    set_threads = T.blas_threads
    monkeypatch.setattr(T, "blas_threads", lambda n: contextlib.nullcontext())
    cfg = ModelConfig(arch=arch, d_model=64, n_heads=4, n_layers=2, d_ff=256,
                      max_positions=64, vocab_size=32, seed=9)
    runs = []
    for n in (1, 2):
        model = build_model(cfg)
        with set_threads(n):
            trace = pretrain(model, bigram_corpus(), steps=4, batch_size=8, seed=1)
        runs.append((trace, {k: p.data for k, p in model.params.items()}))
    (trace1, weights1), (trace2, weights2) = runs
    assert trace1 == trace2
    for name in weights1:
        np.testing.assert_array_equal(weights1[name], weights2[name])


@pytest.mark.parametrize("d_model", [64, 256])
def test_pretrain_runs_on_one_blas_thread_at_any_width(d_model, monkeypatch):
    if T._openblas_threads() is None:
        pytest.skip("no OpenBLAS thread setter is loaded")
    get_threads = T._openblas_threads()[0]
    seen = []
    monkeypatch.setattr(tf, "pretrain_step", lambda *a, **k: seen.append(get_threads()) or 0.0)
    model = build_model(small_config(d_model=d_model, d_ff=d_model, vocab_size=32))
    with T.blas_threads(2):
        pretrain(model, bigram_corpus(4), steps=2, batch_size=2)
        assert get_threads() == 2
    assert seen == [1, 1]
