import contextlib
from fractions import Fraction

import numpy as np
import pytest

from crossmodal_pde import adaptation as ad
from crossmodal_pde import tensor as T
from crossmodal_pde import transformer as tf
from crossmodal_pde.proxy_data import gen_corpus
from crossmodal_pde.tensor import ContractError, Tensor
from crossmodal_pde.transformer import (
    DECODER_ONLY,
    ENCODER_ONLY,
    ConfigError,
    LengthError,
    ModelConfig,
    build_model,
    forward_hidden,
    pretrain,
    pretrain_step,
)


def small_config(arch=DECODER_ONLY, **kw):
    base = dict(arch=arch, d_model=32, n_heads=4, n_layers=2, d_ff=64,
                max_positions=64, vocab_size=16, seed=5)
    base.update(kw)
    return ModelConfig(**base)


def run_hidden(model, x):
    with T.no_grad():
        return forward_hidden(model, Tensor(x), lengths=[len(x)]).data


def parameter_census(model):
    return sum(p.data.size for p in model.params.values())


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


@pytest.mark.parametrize("seed", [1.0, "1", True, None], ids=["float", "string", "bool", "none"])
def test_seed_must_be_an_integer(seed):
    # a header's 1.0 compares equal to 1, and a bool is an int
    with pytest.raises(ConfigError, match="seed must be an integer"):
        ModelConfig(arch=DECODER_ONLY, seed=seed)


def test_bidirectional_future_perturbation_visible():
    model = build_model(small_config(arch=ENCODER_ONLY))
    rng = np.random.default_rng(1)
    L = 12
    x = rng.normal(size=(L, 32)).astype(np.float32)
    x2 = x.copy()
    x2[L - 1] += 1.0
    assert not np.array_equal(run_hidden(model, x)[0], run_hidden(model, x2)[0])


def test_single_token_masks_agree():
    # build_model draws the same weights for either arch from one seed
    decoder = build_model(small_config())
    encoder = build_model(small_config(arch=ENCODER_ONLY))
    for name, p in decoder.params.items():
        np.testing.assert_array_equal(p.data, encoder.params[name].data)
    x = np.random.default_rng(2).normal(size=(1, 32)).astype(np.float32)
    np.testing.assert_array_equal(run_hidden(decoder, x), run_hidden(encoder, x))


def test_length_error():
    model = build_model(small_config(max_positions=8))
    x = np.zeros((9, 32), dtype=np.float32)
    with pytest.raises(LengthError):
        run_hidden(model, x)


def test_no_positions_permutation_equivariance():
    # with positional embeddings zeroed, permuting bidirectional inputs permutes outputs
    model = build_model(small_config(arch=ENCODER_ONLY))
    model.params["pos_emb"].data[:] = 0.0
    rng = np.random.default_rng(3)
    L = 10
    x = rng.normal(size=(L, 32)).astype(np.float32)
    perm = rng.permutation(L)
    base = run_hidden(model, x)
    permuted = run_hidden(model, x[perm])
    np.testing.assert_allclose(permuted, base[perm], atol=2e-5)


def test_init_loss_near_log_vocab():
    vocab = 64
    rng = np.random.default_rng(4)
    seqs = [rng.integers(2, vocab, size=16) for _ in range(4)]
    for arch in (DECODER_ONLY, ENCODER_ONLY):  # next-token and MLM
        model = build_model(small_config(arch=arch, vocab_size=vocab))
        T.zero_grads(list(model.params.values()))
        loss = pretrain_step(model, seqs, rng=np.random.default_rng(0))
        assert abs(loss - np.log(vocab)) < 0.1 * np.log(vocab)


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

    def census(method):
        return sum(p.data.size for p in ad.trained_parameters(model, method))

    # ORCA trains the whole body, but not the language-side token embedding
    # and lm head, which the task embedder and predictor replace
    io = model.params["tok_emb"].data.size + model.params["lm_head"].data.size
    assert census(ad.ORCA) == total - io
    ln_count = sum(p.data.size for n, p in model.params.items()
                   if ".ln1." in n or ".ln2." in n or n.startswith("final_ln."))
    assert census(ad.FPT) == ln_count
    # the FPT set, with the task embedder and predictor, is tiny relative to
    # the full model at d_model >= 64
    task = ad.Pipeline.create(model, seed=0)
    extra = sum(p.data.size for p in task.embedder.params() + task.predictor.params())
    assert census(ad.FPT) + extra < 0.1 * total
    with pytest.raises(ContractError, match="sideways"):
        ad.trained_parameters(model, "sideways")


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


@pytest.mark.parametrize("pretrained", [False, True])
def test_checkpoint_loads_without_drawing_an_init(tmp_path, monkeypatch, pretrained):
    model = build_model(small_config(seed=21))
    model.pretrained = pretrained
    path = tmp_path / "model.ckpt"
    tf.save_checkpoint(model, path)

    def no_init(config):
        raise AssertionError("load_checkpoint drew a random init")

    monkeypatch.setattr(tf, "build_model", no_init)
    loaded = tf.load_checkpoint(path)
    assert loaded.config == model.config and loaded.pretrained is pretrained
    assert list(loaded.params) == list(model.params)
    for name, p in model.params.items():
        q = loaded.params[name]
        assert q.requires_grad and q.data.dtype == np.float32
        assert q.data.tobytes() == p.data.tobytes()


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


def test_pretrain_rejects_empty_batches_and_negative_steps():
    model = build_model(small_config())
    for kw in (dict(batch_size=0), dict(batch_size=-1), dict(steps=-1)):
        with pytest.raises(ContractError, match="batch_size"):
            pretrain(model, bigram_corpus(4), **{"steps": 2, **kw})
    assert not model.pretrained


def test_pretrain_rejects_an_empty_corpus():
    # a step over no sequence would leave every weight as it was and still
    # flag the model pretrained
    model = build_model(small_config())
    with pytest.raises(ContractError, match="at least one sequence"):
        pretrain(model, [], steps=2)
    assert not model.pretrained
    assert pretrain(model, [], steps=0) == [] and not model.pretrained


def test_pretrain_stops_at_the_first_non_finite_loss():
    # at a learning rate of 1e30 the first step's loss is finite and the
    # second's is NaN; before, the trace read [4.17, nan, nan]
    model = build_model(small_config(vocab_size=32))
    with pytest.raises(tf.NonFiniteLossError, match="at step 2 of 3"), \
            np.errstate(over="ignore", invalid="ignore"):
        pretrain(model, bigram_corpus(4), steps=3, learning_rate=1e30, batch_size=2)
    assert not model.pretrained


# -- one padded tape per pretraining step ------------------------------------


def _per_sequence_step(model, batch, rng):
    """``pretrain_step`` as it was before batching, the oracle of the tests
    below: one tape per sequence, the per-sequence losses summed on the tape."""
    losses, n_targets = [], 0
    for ids in batch:
        ids = np.asarray(ids, dtype=np.int64)
        if model.config.arch == DECODER_ONLY:  # next-token; else MLM
            if len(ids) < 2:
                continue
            pos, inputs, targets = np.arange(len(ids) - 1), ids, ids[1:]
        else:
            n_mask = int(round(tf.MLM_MASK_RATE * len(ids)))
            if n_mask == 0:
                continue
            pos = rng.choice(len(ids), size=n_mask, replace=False)
            pos.sort()
            inputs = ids.copy()
            inputs[pos] = tf.MASK_TOKEN
            targets = ids[pos]
        hidden = forward_hidden(model, tf.embed_tokens(model, inputs), lengths=[len(inputs)])
        logits = tf.lm_logits(model, T.take_rows(hidden, pos))
        logp = T.sub(logits, T.logsumexp_lastdim(logits))
        losses.append(T.neg(T.tsum(T.gather_lastdim(logp, targets))))
        n_targets += len(pos)
    if n_targets == 0:
        return 0.0
    total = losses[0]
    for loss in losses[1:]:
        total = T.add(total, loss)
    mean_loss = T.div(total, float(n_targets))
    mean_loss.backward()
    return mean_loss.item()


# each arch with the objective it pretrains on, named as in the test ids
ARCH_OBJECTIVES = pytest.mark.parametrize("arch", [ENCODER_ONLY, DECODER_ONLY],
                                          ids=["encoder_only-mlm", "decoder_only-next_token"])


def corpus_tokens(n=40, seed=4):
    """Token sequences of lengths 8..31.  At 40 sequences every pretraining bucket
    of a batch of 8 spans several lengths, so its batches are padded."""
    return [t for t, _ in gen_corpus(seed=seed, n_sequences=n, vocab_size=16).sequences]


def sharp_model(arch, n_heads=4):
    """A model whose attention is far from uniform (init weights times 10)."""
    model = build_model(small_config(arch=arch, n_heads=n_heads, max_positions=160))
    for p in model.params.values():
        if p.data.ndim == 2:
            p.data *= 10.0
    return model


def padded_forward(model, seqs, pad):
    """Forward the [L_b, d] inputs ``seqs`` as one batch padded with ``pad(n)``."""
    lengths = [len(x) for x in seqs]
    L = max(lengths)
    rows = np.concatenate([np.concatenate([x, pad(L - len(x))]) for x in seqs])
    with T.no_grad():
        out = forward_hidden(model, Tensor(rows), lengths=np.array(lengths)).data
    return [out[b * L: b * L + n] for b, n in enumerate(lengths)]


@pytest.mark.parametrize("arch", [ENCODER_ONLY, DECODER_ONLY])
def test_padded_rows_equal_standalone_forward(arch):
    # Head width 16, as in the default model: OpenBLAS's sgemm sums the zero
    # terms the padding adds to ``probs @ v`` in order there, so rows are
    # bitwise equal; at width 8 its narrow-column kernels regroup the sum.
    model = sharp_model(arch, n_heads=2)
    rng = np.random.default_rng(6)
    batches = [[2, 128], [128, 3, 40, 127, 9, 64, 2, 31], [17], [20, 20, 20]]
    for lengths in batches:
        seqs = [rng.normal(size=(n, 32)).astype(np.float32) for n in lengths]
        got = padded_forward(model, seqs, lambda n: np.zeros((n, 32), np.float32))
        for x, rows in zip(seqs, got):
            assert np.array_equal(rows, run_hidden(model, x)), \
                f"length {len(x)} in batch {lengths}"


@pytest.mark.parametrize("arch", [ENCODER_ONLY, DECODER_ONLY])
def test_real_rows_do_not_depend_on_padding(arch):
    model = sharp_model(arch)
    rng = np.random.default_rng(7)
    seqs = [rng.normal(size=(n, 32)).astype(np.float32) for n in (5, 30, 12, 29)]
    zeros = padded_forward(model, seqs, lambda n: np.zeros((n, 32), np.float32))
    noise = padded_forward(model, seqs, lambda n: rng.normal(size=(n, 32)).astype(np.float32))
    large = padded_forward(model, seqs, lambda n: np.full((n, 32), 1e4, np.float32))
    for a, b, c in zip(zeros, noise, large):
        assert np.array_equal(a, b) and np.array_equal(a, c)


def test_padded_forward_lengths_contract():
    model = build_model(small_config())
    x = Tensor(np.zeros((12, 32), np.float32))
    for lengths in ([5, 4, 3, 1, 1], [], [4, 0, 4], [7, 2]):
        with pytest.raises(T.ShapeError):
            forward_hidden(model, x, lengths=np.array(lengths, dtype=np.int64))


@ARCH_OBJECTIVES
def test_pretrain_step_is_one_forward_and_one_backward(arch, monkeypatch):
    calls = {"forward_hidden": 0, "backward": 0}
    forward, backward = tf.forward_hidden, Tensor.backward

    def counted_forward(*args, **kwargs):
        calls["forward_hidden"] += 1
        return forward(*args, **kwargs)

    def counted_backward(self):
        calls["backward"] += 1
        return backward(self)

    monkeypatch.setattr(tf, "forward_hidden", counted_forward)
    monkeypatch.setattr(Tensor, "backward", counted_backward)
    model = build_model(small_config(arch=arch))
    pretrain_step(model, corpus_tokens(8), rng=np.random.default_rng(0))
    assert calls == {"forward_hidden": 1, "backward": 1}


@ARCH_OBJECTIVES
def test_pretrain_step_gradients_match_per_sequence_oracle(arch):
    # The sums over rows of the weight gradients now run over the whole padded
    # batch at once, so they may move in their last bits; nothing else does.
    model = build_model(small_config(arch=arch))
    tokens = corpus_tokens()
    pretrain(model, tokens, steps=10, seed=2)  # weights away from their init
    params = list(model.params.values())
    for step in range(3):
        batch = tokens[8 * step: 8 * step + 8]
        rng, oracle_rng = np.random.default_rng(step), np.random.default_rng(step)
        T.zero_grads(params)
        loss = pretrain_step(model, batch, rng=rng)
        grads = {name: p.grad for name, p in model.params.items()}
        T.zero_grads(params)
        want = _per_sequence_step(model, batch, rng=oracle_rng)
        assert rng.bit_generator.state == oracle_rng.bit_generator.state
        assert abs(loss - want) <= 1e-6 * abs(want)
        for name, p in model.params.items():
            # attn.bk's exact gradient is zero (adding one vector to every key
            # shifts each score row by a constant, which softmax ignores), so
            # its measured values (~1e-11) are rounding noise, which Adam
            # would turn into full-rate steps
            if name.endswith("attn.bk"):
                continue
            scale = np.abs(p.grad).max()
            assert np.abs(grads[name] - p.grad).max() <= 1e-5 * scale, (step, name)


@pytest.mark.parametrize("arch", [ENCODER_ONLY, DECODER_ONLY])
def test_pretrain_trace_matches_per_sequence_oracle(arch, monkeypatch):
    tokens = corpus_tokens()
    buckets = tf.length_buckets([len(t) for t in tokens], 8)
    assert all(len({len(tokens[i]) for i in b}) > 1 for b in buckets)  # padded batches
    trace = pretrain(build_model(small_config(arch=arch)), tokens, steps=20, seed=3)
    monkeypatch.setattr(tf, "pretrain_step", _per_sequence_step)
    want = pretrain(build_model(small_config(arch=arch)), tokens, steps=20, seed=3)
    np.testing.assert_allclose(trace, want, rtol=1e-6, atol=0)


@ARCH_OBJECTIVES
def test_pretrain_step_skips_a_sequence_without_targets(arch):
    # a decoder predicts no next token of a 1-token sequence, and an encoder
    # masks round(0.15 * 3) == 0 tokens of a 3-token one: the step skips it
    # and draws no mask for it, so the batch steps as if it were not there
    short = np.array([5]) if arch == DECODER_ONLY else np.array([5, 6, 7])
    assert arch == DECODER_ONLY or round(tf.MLM_MASK_RATE * len(short)) == 0
    tokens = corpus_tokens(4)

    def step(batch):
        model = build_model(small_config(arch=arch))
        loss = pretrain_step(model, batch, rng=np.random.default_rng(1))
        return loss, {name: p.grad for name, p in model.params.items()}

    loss, grads = step([tokens[0], short, tokens[1], short])
    want_loss, want_grads = step(tokens[:2])
    assert loss == want_loss
    for name, want in want_grads.items():
        assert (grads[name] is None) == (want is None), name
        assert want is None or np.array_equal(grads[name], want), name
    # a batch of such sequences alone has an empty target set
    loss, grads = step([short, short])
    assert loss == 0.0 and all(g is None for g in grads.values())


def test_zero_pretraining_steps_leave_the_pretrained_flag(tmp_path):
    model = build_model(small_config())
    assert pretrain(model, corpus_tokens(8), steps=0) == []
    assert not model.pretrained
    path = tmp_path / "m.ckpt"
    tf.save_checkpoint(model, path)
    assert not tf.load_checkpoint(path).pretrained
    pretrain(model, corpus_tokens(8), steps=1)
    assert model.pretrained
    pretrain(model, corpus_tokens(8), steps=0)  # a pretrained model stays pretrained
    assert model.pretrained


# -- length-bucketed pretraining batches -------------------------------------


def recorded_batches(monkeypatch, sequences, steps, batch_size, seed=0):
    """The corpus indices of the batch of each step ``pretrain`` takes."""
    where = {id(s): i for i, s in enumerate(sequences)}
    batches = []
    monkeypatch.setattr(tf, "pretrain_step", lambda model, batch, rng: batches.append(
        [where[id(s)] for s in batch]) or 0.0)
    pretrain(build_model(small_config()), sequences, steps=steps, batch_size=batch_size,
             seed=seed)
    return batches


def padded_share(sequences, batches):
    rows = padding = 0
    for batch in batches:
        lengths = [len(sequences[i]) for i in batch]
        rows += len(lengths) * max(lengths)
        padding += sum(max(lengths) - n for n in lengths)
    return padding / rows


@pytest.mark.parametrize("n_sequences", [250, 2000])
def test_pretrain_batches_lie_in_one_bucket_and_barely_pad(n_sequences, monkeypatch):
    # drawn from the whole corpus, a third of a batch's rows were padding
    tokens = corpus_tokens(n_sequences)
    batches = recorded_batches(monkeypatch, tokens, steps=200, batch_size=8)
    bucket_of = {i: k for k, bucket in enumerate(tf.length_buckets(
        [len(t) for t in tokens], 8)) for i in bucket}
    for batch in batches:
        assert len(batch) == len(set(batch)) == 8
        assert len({bucket_of[i] for i in batch}) == 1, batch
    assert padded_share(tokens, batches) <= 0.01


CORPUS_LENGTHS = {
    "gen_corpus_250": [len(t) for t in corpus_tokens(250)],
    "short_tail": [3] * 9 + [4] * 9 + [5] * 2,
    "each_length_short": [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11],
    "one_length": [6] * 20,
    "below_a_batch": [9, 3, 3, 12, 5],
}


@pytest.mark.parametrize("lengths", CORPUS_LENGTHS.values(), ids=CORPUS_LENGTHS.keys())
@pytest.mark.parametrize("batch_size", [1, 4, 8])
def test_length_buckets_hold_a_batch_each(lengths, batch_size):
    buckets = tf.length_buckets(lengths, batch_size)
    lengths = np.array(lengths)
    assert np.array_equal(np.sort(np.concatenate(buckets)), np.arange(len(lengths)))
    for bucket in buckets:
        assert np.all(np.diff(bucket) > 0)  # corpus order
        assert len(bucket) >= batch_size or (len(buckets) == 1 and len(bucket) == len(lengths))
    for lo, hi in zip(buckets, buckets[1:]):  # consecutive runs of lengths
        assert lengths[lo].max() < lengths[hi].min()
    if len(buckets) > 1:  # a run closes as soon as it holds a batch, a tail aside
        assert all(np.sum(lengths[b] < lengths[b].max()) < batch_size for b in buckets[:-1])
    # each sequence enters a step with probability batch_size / N, exactly: a
    # step draws bucket k with probability n_k / N, then min(batch_size, n_k)
    # of its n_k sequences
    N = len(lengths)
    for bucket in buckets:
        n_k = len(bucket)
        p = Fraction(n_k, N) * Fraction(min(batch_size, n_k), n_k)
        assert p == min(Fraction(batch_size, N), 1)


def test_a_corpus_below_a_batch_steps_on_all_of_it_as_before(monkeypatch):
    # one bucket takes no bucket draw, so the batches are those of a draw
    # from the whole corpus, stream for stream
    tokens = corpus_tokens(5)
    assert len({len(t) for t in tokens}) > 1
    batches = recorded_batches(monkeypatch, tokens, steps=6, batch_size=8, seed=3)
    rng = np.random.default_rng(3)
    assert batches == [rng.choice(5, size=5, replace=False).tolist() for _ in range(6)]


@ARCH_OBJECTIVES
def test_pretrain_steps_over_a_bucket_without_targets(arch, monkeypatch):
    # a decoder has no target in a 1-token sequence, an encoder none in one of
    # up to 3 tokens; such sequences fill a bucket of their own, whose steps
    # pretrain_step skips with a loss over no targets
    short = [np.array([5])] * 8 if arch == DECODER_ONLY else [np.array([5, 6, 7][:n])
                                                              for n in (1, 2, 3) * 3]
    sequences = short + corpus_tokens(16)
    steps = []
    step = tf.pretrain_step
    monkeypatch.setattr(tf, "pretrain_step", lambda model, batch, rng: steps.append(
        (batch, step(model, batch, rng=rng))) or steps[-1][1])
    trace = pretrain(build_model(small_config(arch=arch)), sequences, steps=12, batch_size=8,
                     seed=1)
    assert trace == [loss for _, loss in steps]
    without_targets = [all(len(s) <= len(short[-1]) for s in batch) for batch, _ in steps]
    assert any(without_targets) and not all(without_targets)
    for skipped, loss in zip(without_targets, trace):
        assert (loss == 0.0) if skipped else (loss > 0.0)
