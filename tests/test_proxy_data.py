import dataclasses

import numpy as np
import pytest

from crossmodal_pde import proxy_data as px
from crossmodal_pde.container import DataFileError, read_container, write_container
from crossmodal_pde.proxy_data import (
    MAX_SEQ_LEN,
    PAD_TOKEN,
    build_proxy_set,
    gen_corpus,
    load_corpus,
    save_corpus,
)
from crossmodal_pde import tensor as T
from crossmodal_pde.transformer import (
    DECODER_ONLY,
    ENCODER_ONLY,
    MASK_TOKEN,
    LengthError,
    ModelConfig,
    build_model,
    embed_tokens,
    forward_hidden,
    pretrain,
)


def tiny_model(arch=DECODER_ONLY, seed=3):
    return build_model(ModelConfig(arch=arch, d_model=32, n_heads=4, n_layers=2,
                                   d_ff=64, max_positions=64, vocab_size=64, seed=seed))


def test_corpus_deterministic():
    a = gen_corpus(seed=10, n_sequences=20)
    b = gen_corpus(seed=10, n_sequences=20)
    for (ta, ga), (tb, gb) in zip(a.sequences, b.sequences):
        np.testing.assert_array_equal(ta, tb)
        np.testing.assert_array_equal(ga, gb)


def _gen_corpus_with_choice(seed, n_sequences, vocab_size=64, tag_count=9):
    """The sampler gen_corpus replaced: one rng.choice(n, p=row) per draw."""
    rng = np.random.default_rng(seed)
    transition, emission, token_dist = px._grammar_tables(rng, vocab_size, tag_count)
    sequences = []
    for _ in range(n_sequences):
        length = int(rng.integers(px.MIN_SEQ_LEN, MAX_SEQ_LEN + 1))
        state = int(rng.integers(px.N_STATES))
        tokens = np.empty(length, dtype=np.int64)
        tags = np.empty(length, dtype=np.int64)
        for i in range(length):
            state = int(rng.choice(px.N_STATES, p=transition[state]))
            tag = int(rng.choice(tag_count, p=emission[state]))
            tags[i] = tag
            tokens[i] = int(rng.choice(vocab_size, p=token_dist[tag]))
        sequences.append((tokens, tags))
    return sequences


@pytest.mark.parametrize("seed, vocab_size, tag_count",
                         [(0, 64, 9), (6, 64, 9), (41, 100, 12)])
def test_corpus_equals_rng_choice_sampler(seed, vocab_size, tag_count):
    want = _gen_corpus_with_choice(seed, 40, vocab_size, tag_count)
    got = gen_corpus(seed, 40, vocab_size=vocab_size, tag_count=tag_count)
    assert len(got.sequences) == len(want)
    for (tg, gg), (tw, gw) in zip(got.sequences, want):
        np.testing.assert_array_equal(tg, tw)
        np.testing.assert_array_equal(gg, gw)


@pytest.mark.parametrize("tag_count", [0, 1, 2])
def test_corpus_needs_a_tag_per_grammar_state(tag_count):
    with pytest.raises(ValueError, match=f"tag_count must be >= 3, got {tag_count}"):
        gen_corpus(seed=0, n_sequences=4, tag_count=tag_count)


def test_corpus_lengths_below_32():
    corpus = gen_corpus(seed=1, n_sequences=200)
    lengths = [len(t) for t, _ in corpus.sequences]
    assert max(lengths) <= MAX_SEQ_LEN
    assert min(lengths) >= 8


def test_corpus_tokens_avoid_reserved_ids():
    corpus = gen_corpus(seed=2, n_sequences=50)
    for tokens, tags in corpus.sequences:
        assert tokens.min() >= px.RESERVED_TOKENS
        assert tags.min() >= 0 and tags.max() < corpus.tag_count


def test_empirical_tag_distribution_matches_stationary():
    corpus = gen_corpus(seed=5, n_sequences=2000)
    # the grammar tables are gen_corpus's first draws from its rng
    transition, emission, _ = px._grammar_tables(np.random.default_rng(5), 64, 9)
    vals, vecs = np.linalg.eig(transition.T)
    pi = np.real(vecs[:, int(np.argmin(np.abs(vals - 1.0)))])
    want = (pi / pi.sum()) @ emission
    tags = np.concatenate([g for _, g in corpus.sequences])
    got = np.bincount(tags, minlength=corpus.tag_count) / len(tags)
    assert np.abs(got - want).max() < 0.05


def test_proxy_feature_count_equals_token_count():
    corpus = gen_corpus(seed=7, n_sequences=40)
    model = tiny_model()
    proxy = build_proxy_set(model, corpus)
    n_tokens = sum(len(t) for t, _ in corpus.sequences)
    assert proxy.points.shape == (n_tokens, 32) and proxy.points.data.dtype == np.float32
    assert proxy.labels.shape == (n_tokens,) and proxy.labels.dtype == np.int64
    np.testing.assert_array_equal(proxy.labels, np.concatenate([g for _, g in corpus.sequences]))
    assert proxy.class_count == corpus.tag_count


def test_proxy_pad_positions_excluded():
    # features of a sequence must not change when another sequence is longer:
    # each row comes only from its own sequence's non-pad span
    corpus = gen_corpus(seed=8, n_sequences=3)
    model = tiny_model()
    proxy = build_proxy_set(model, corpus)
    tokens0, tags0 = corpus.sequences[0]
    solo = px.SyntheticCorpus(vocab_size=corpus.vocab_size, tag_count=corpus.tag_count,
                              seed=corpus.seed, sequences=[(tokens0, tags0)])
    proxy_solo = build_proxy_set(model, solo)
    np.testing.assert_array_equal(proxy.points.data[: len(tokens0)], proxy_solo.points.data)


def test_proxy_deterministic(monkeypatch):
    corpus = gen_corpus(seed=9, n_sequences=10)
    model = tiny_model()
    a = build_proxy_set(model, corpus)
    monkeypatch.setattr(px, "_last_proxy", {})  # two real builds, not one cached set
    b = build_proxy_set(model, corpus)
    assert a.points.data is not b.points.data
    np.testing.assert_array_equal(a.points.data, b.points.data)
    np.testing.assert_array_equal(a.labels, b.labels)


def test_per_class_means_distinct():
    corpus = gen_corpus(seed=11, n_sequences=300)
    model = tiny_model(arch=ENCODER_ONLY)
    proxy = build_proxy_set(model, corpus)
    means = []
    for k in range(proxy.class_count):
        rows = proxy.points.data[proxy.labels == k]
        if len(rows) >= 2:
            means.append(rows.mean(axis=0))
    means = np.stack(means)
    for i in range(len(means)):
        for j in range(i + 1, len(means)):
            assert np.linalg.norm(means[i] - means[j]) > 0.0


def test_unpretrained_source_recorded_not_error():
    # the random-init ablation embeds the corpus with its untrained model
    corpus = gen_corpus(seed=12, n_sequences=5)
    model = tiny_model()
    assert not model.pretrained
    proxy = build_proxy_set(model, corpus)
    assert len(proxy) == sum(len(t) for t, _ in corpus.sequences)
    assert np.isfinite(proxy.points.data).all()


def test_corpus_round_trip(tmp_path):
    corpus = gen_corpus(seed=13, n_sequences=15)
    path = tmp_path / "corpus.bin"
    save_corpus(corpus, path)
    back = load_corpus(path)
    assert back.vocab_size == corpus.vocab_size
    assert back.tag_count == corpus.tag_count
    for (ta, ga), (tb, gb) in zip(corpus.sequences, back.sequences):
        np.testing.assert_array_equal(ta, tb)
        np.testing.assert_array_equal(ga, gb)
    # the file holds the corpus alone, as wide as its longest sequence
    _, blocks = read_container(path)
    assert sorted(blocks) == ["lengths", "tags", "tokens"]
    assert blocks["tokens"].shape == (15, max(len(t) for t, _ in corpus.sequences))


def with_long_sequence(corpus, length=48):
    """``corpus`` with one more sequence of ``length`` tokens, longer than
    the grammar draws."""
    tokens, tags = corpus.sequences[0]
    long = (np.resize(tokens, length), np.resize(tags, length))
    return dataclasses.replace(corpus, sequences=[*corpus.sequences, long])


def test_long_corpus_saves_loads_and_embeds_within_max_positions(tmp_path, proxy_forwards):
    corpus = with_long_sequence(gen_corpus(seed=14, n_sequences=5))
    path = tmp_path / "long.bin"
    save_corpus(corpus, path)
    back = load_corpus(path)
    for (ta, ga), (tb, gb) in zip(corpus.sequences, back.sequences, strict=True):
        np.testing.assert_array_equal(ta, tb)
        np.testing.assert_array_equal(ga, gb)
    assert read_container(path)[1]["tokens"].shape == (6, 48)
    proxy = build_proxy_set(tiny_model(), back)  # max_positions=64
    assert len(proxy) == sum(len(t) for t, _ in corpus.sequences)
    short = build_model(ModelConfig(arch=DECODER_ONLY, d_model=32, n_heads=4, n_layers=2,
                                    d_ff=64, max_positions=32, vocab_size=64, seed=3))
    with pytest.raises(LengthError, match="sequence length 48 exceeds max_positions=32"):
        build_proxy_set(short, back)


def test_corpus_file_of_the_old_layout_loads(tmp_path):
    # the grammar's two tables beside the corpus, every block 32 wide, tags padded with -1
    corpus = gen_corpus(seed=18, n_sequences=6)
    n = len(corpus.sequences)
    tokens = np.full((n, 32), PAD_TOKEN, dtype=np.int32)
    tags = np.full((n, 32), -1, dtype=np.int32)
    for i, (tok, tag) in enumerate(corpus.sequences):
        tokens[i, : len(tok)], tags[i, : len(tag)] = tok, tag
    path = tmp_path / "old.bin"
    write_container(path, {"kind": "tagged_corpus", "vocab_size": 64, "tag_count": 9,
                           "seed": 18}, [
        ("lengths", np.array([len(t) for t, _ in corpus.sequences], dtype=np.int32)),
        ("tokens", tokens), ("tags", tags),
        ("transition", np.full((3, 3), 1 / 3, dtype=np.float32)),
        ("state_tag_emission", np.full((3, 9), 1 / 9, dtype=np.float32))])
    back = load_corpus(path)
    assert (back.vocab_size, back.tag_count, back.seed) == (64, 9, 18)
    for (ta, ga), (tb, gb) in zip(corpus.sequences, back.sequences, strict=True):
        np.testing.assert_array_equal(ta, tb)
        np.testing.assert_array_equal(ga, gb)


def test_empty_corpus_is_a_data_file_error(tmp_path):
    path = tmp_path / "empty.bin"
    save_corpus(dataclasses.replace(gen_corpus(seed=13, n_sequences=2), sequences=[]), path)
    with pytest.raises(DataFileError, match="empty.bin holds no sequences"):
        load_corpus(path)


def test_pad_token_reserved():
    # the grammar's tokens start after the pad and MLM mask ids
    assert PAD_TOKEN == 0 and MASK_TOKEN == 1 and px.RESERVED_TOKENS == 2


# -- the content-keyed proxy set ----------------------------------------------


def forwards_per_build(corpus):
    """``forward_hidden`` calls of one build: one per chunk of sequences."""
    return -(-len(corpus.sequences) // px.PROXY_CHUNK)


def test_proxy_cache_hit_equals_fresh_build(proxy_forwards, monkeypatch):
    corpus = gen_corpus(seed=15, n_sequences=2 * px.PROXY_CHUNK + 3)
    model = tiny_model()
    fresh = build_proxy_set(model, corpus)
    hit = build_proxy_set(model.clone(), corpus)
    assert len(proxy_forwards) == forwards_per_build(corpus) == 3  # the clone's came from the slot
    monkeypatch.setattr(px, "_last_proxy", {})
    again = build_proxy_set(model, corpus)
    assert len(proxy_forwards) == 2 * forwards_per_build(corpus)
    assert hit is fresh and again is not fresh
    assert again.points.data.tobytes() == fresh.points.data.tobytes()
    assert again.labels.tobytes() == fresh.labels.tobytes()
    assert again.points.data.dtype == fresh.points.data.dtype
    assert again.labels.dtype == fresh.labels.dtype and again.class_count == fresh.class_count


def _change(change, model, corpus):
    if change == "param_in_place":
        model.params["layer0.mlp.w1"].data[0, 0] += 1.0
    elif change == "corpus":
        corpus = gen_corpus(seed=17, n_sequences=len(corpus.sequences))
    elif change == "pretrained":
        model = model.clone()
        model.pretrained = not model.pretrained
    elif change == "config_seed":  # same weights, different config
        model = model.clone()
        model.config = dataclasses.replace(model.config, seed=model.config.seed + 1)
    return model, corpus


@pytest.mark.parametrize("change", ["param_in_place", "corpus", "pretrained", "config_seed"])
def test_proxy_cache_misses_on_any_change(proxy_forwards, change):
    corpus = gen_corpus(seed=16, n_sequences=6)
    model = tiny_model()
    first = build_proxy_set(model, corpus)
    n = len(proxy_forwards)
    model, corpus = _change(change, model, corpus)
    second = build_proxy_set(model, corpus)
    assert len(proxy_forwards) == n + forwards_per_build(corpus)
    assert second.points.data is not first.points.data


def test_proxy_arrays_read_only(proxy_forwards):
    corpus = gen_corpus(seed=19, n_sequences=4)
    model = tiny_model()
    for proxy in (build_proxy_set(model, corpus), build_proxy_set(model, corpus)):
        with pytest.raises(ValueError):
            proxy.points.data[0, 0] = 1.0
        with pytest.raises(ValueError):
            proxy.labels[0] = 1


def test_proxy_too_long_for_max_positions_fails_in_forward(proxy_forwards):
    corpus = gen_corpus(seed=20, n_sequences=3)  # lengths 13, 9 and 19
    short = build_model(ModelConfig(arch=DECODER_ONLY, d_model=32, n_heads=4, n_layers=1,
                                    d_ff=64, max_positions=16, vocab_size=64, seed=0))
    for attempt in range(1, 3):
        with pytest.raises(LengthError, match="sequence length 19 exceeds max_positions=16"):
            build_proxy_set(short, corpus)
        assert len(proxy_forwards) == attempt  # nothing cached: each call forwards again
    assert px._last_proxy == {}


# -- padded batches with masked pad keys ------------------------------------------


def head16_model(arch, corpus):
    """Default width (4 heads of 16), pretrained 30 steps on ``corpus``."""
    model = build_model(ModelConfig(arch=arch, d_model=64, n_heads=4, n_layers=4, d_ff=256,
                                    max_positions=64, vocab_size=64, seed=2))
    pretrain(model, [t for t, _ in corpus.sequences], steps=30, batch_size=8, seed=2)
    return model


def solo_forward(model, tokens, pad_to=None):
    """One sequence's own forward, unpadded or padded to ``pad_to`` with
    ``PAD_TOKEN`` and no key mask (the build before padded batches)."""
    ids = np.full(pad_to or len(tokens), PAD_TOKEN, dtype=np.int64)
    ids[: len(tokens)] = tokens
    with T.no_grad():
        hidden = forward_hidden(model, embed_tokens(model, ids), lengths=[len(ids)])
    return hidden.data[: len(tokens)]


def test_encoder_proxy_rows_equal_unpadded_forward(proxy_forwards):
    corpus = gen_corpus(seed=21, n_sequences=px.PROXY_CHUNK + 5)
    model = head16_model(ENCODER_ONLY, corpus)
    proxy = build_proxy_set(model, corpus)
    offset, moved = 0, 0.0
    for tokens, _ in corpus.sequences:
        rows = proxy.points.data[offset: offset + len(tokens)]
        assert np.array_equal(rows, solo_forward(model, tokens))
        moved = max(moved, np.abs(rows - solo_forward(model, tokens, pad_to=32)).max())
        offset += len(tokens)
    assert moved > 0.05  # without the key mask, the encoder's rows saw the pads


def test_decoder_proxy_set_unchanged_by_padded_batches(proxy_forwards):
    corpus = gen_corpus(seed=22, n_sequences=px.PROXY_CHUNK + 5)
    model = head16_model(DECODER_ONLY, corpus)
    proxy = build_proxy_set(model, corpus)
    want = np.concatenate([solo_forward(model, t, pad_to=32) for t, _ in corpus.sequences])
    assert proxy.points.data.tobytes() == want.tobytes()
    assert len(proxy_forwards) == 2
