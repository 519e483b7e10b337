import threading

import numpy as np
import pytest

from conftest import identity_dataset, make_model
from crossmodal_pde import bidir
from crossmodal_pde import tensor as T
from crossmodal_pde.adaptation import (
    AdaptationConfig,
    Embedder,
    Pipeline,
    Predictor,
    evaluate_nrmse,
    frozen_except,
    predict_sequence,
    run_adaptation,
    trained_parameters,
)
from crossmodal_pde.bidir import (
    FlipPair,
    combine_halves,
    flip,
    flip_dataset,
    parallel_flipping_train,
    sequence_doubling_forward,
)
from crossmodal_pde.pde_data import GridSpec, build_dataset
from crossmodal_pde.tensor import Tensor
from crossmodal_pde.transformer import DECODER_ONLY, ENCODER_ONLY, LengthError, forward_hidden


def test_flip_involution():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2, 16)).astype(np.float32)
    np.testing.assert_array_equal(flip(flip(x)), x)


def test_flip_example():
    np.testing.assert_array_equal(flip(np.array([1, 2, 3, 4])), np.array([4, 3, 2, 1]))


def test_flip_palindrome():
    x = np.array([1.0, 2.0, 2.0, 1.0])
    np.testing.assert_array_equal(flip(x), x)


def test_combine_halves_example():
    out = combine_halves(np.array([1.0, 2.0, 3.0, 4.0]), np.array([9.0, 8.0, 7.0, 6.0]))
    np.testing.assert_array_equal(out, np.array([6.0, 7.0, 3.0, 4.0]))


def test_combine_halves_second_half_bitwise():
    rng = np.random.default_rng(1)
    for _ in range(100):
        L = 2 * int(rng.integers(2, 40))
        p_f = rng.normal(size=(3, L)).astype(np.float32)
        p_r = rng.normal(size=(3, L)).astype(np.float32)
        out = combine_halves(p_f, p_r)
        np.testing.assert_array_equal(out[:, L // 2:], p_f[:, L // 2:])
        np.testing.assert_array_equal(out[:, : L // 2], p_r[:, ::-1][:, : L // 2])


def test_combine_halves_odd_length_rejected():
    with pytest.raises(LengthError):
        combine_halves(np.zeros(5), np.zeros(5))


def test_flip_pair_second_half_matches_forward():
    fwd = Pipeline.create(make_model(seed=1), seed=2)
    rev = Pipeline.create(make_model(seed=3), seed=4)
    pair = FlipPair(fwd, rev)
    x = np.random.default_rng(5).normal(size=(1, 32)).astype(np.float32)
    combined = pair.predict(x)
    with T.no_grad():
        p_f = predict_sequence(fwd.model, fwd.embedder, fwd.predictor, x, bidir_method="none").data
    np.testing.assert_array_equal(combined[:, 16:], p_f[:, 16:])


def test_flip_pair_batch_rows_equal_single_frames():
    # At head width 16 a batch row is bitwise its frame's own forward, so each
    # row of a batch prediction is the prediction of that frame alone; the
    # flip reverses the positions of each frame, not the order of the frames.
    pair = FlipPair(Pipeline.create(make_model(d_model=64, seed=1), seed=2),
                    Pipeline.create(make_model(d_model=64, seed=3), seed=4))
    x = np.random.default_rng(5).normal(size=(4, 16)).astype(np.float32)
    got = pair.predict(x)
    assert got.shape == (4, 16)
    for b in range(4):
        assert np.array_equal(got[b], pair.predict(x[b: b + 1])[0]), b


@pytest.mark.parametrize("shape", [(32,), (2, 32, 1), (1, 2, 32), ()])
def test_prediction_paths_take_only_frame_batches(shape):
    pair = FlipPair(Pipeline.create(make_model(seed=1), seed=2),
                    Pipeline.create(make_model(seed=3), seed=4))
    fwd = pair.forward_pipeline
    x = np.zeros(shape, dtype=np.float32)
    with pytest.raises(T.ShapeError, match=r"\[B, L\]"):
        pair.predict(x)
    for method in ("none", "sequence_doubling"):
        with pytest.raises(T.ShapeError, match=r"\[B, L\]"):
            predict_sequence(fwd.model, fwd.embedder, fwd.predictor, x, bidir_method=method)
    with pytest.raises(T.ShapeError, match=r"\[B, L\]"):
        sequence_doubling_forward(fwd.model, fwd.embedder, fwd.predictor, x)


# -- sequence doubling -----------------------------------------------------------


def test_doubling_output_shape():
    model = make_model(max_positions=128)
    emb = Embedder.create(32, seed=0)
    pred = Predictor.create(32, seed=1)
    out = sequence_doubling_forward(model, emb, pred, np.zeros((1, 48), dtype=np.float32))
    assert out.data.shape == (1, 48)


def test_doubling_length_guard():
    model = make_model(max_positions=64)
    emb = Embedder.create(32, seed=0)
    pred = Predictor.create(32, seed=1)
    with pytest.raises(LengthError):
        sequence_doubling_forward(model, emb, pred, np.zeros((1, 48), dtype=np.float32))


@pytest.mark.parametrize("trained", ["fpt", "orca", "all"])
@pytest.mark.parametrize("B", [1, 4])
def test_doubling_trims_last_layer_bitwise(B, trained):
    """The forward that computes only the second halves in its last layer
    equals the full 2L forward followed by a ``take_rows`` of those rows, for
    the predictions and every trained gradient."""
    model = make_model(arch=DECODER_ONLY, d_model=64, max_positions=256, seed=B)
    for p in model.params.values():  # nonzero biases and gains, so every term counts
        p.data += np.random.default_rng(p.data.size).normal(0.0, 0.05, p.data.shape
                                                            ).astype(np.float32)
    emb, pred = Embedder.create(64, seed=1), Predictor.create(64, seed=2)
    rng = np.random.default_rng(B)
    L = 128
    frames = rng.normal(size=(B, L)).astype(np.float32)
    G = rng.normal(size=(B, L)).astype(np.float32)
    body = (list(model.params.values()) if trained == "all"
            else trained_parameters(model, trained))
    params = body + emb.params() + pred.params()

    def untrimmed(model, emb, pred, x):
        hidden = forward_hidden(model, emb(np.concatenate([x, x], axis=1)),
                                lengths=[2 * L] * B)
        return pred(T.take_rows(hidden, (2 * L * np.arange(B)[:, None]
                                         + np.arange(L, 2 * L)).ravel()), B)

    def run(forward):
        T.zero_grads(params)
        with frozen_except(model, params):
            out = forward(model, emb, pred, frames)
            T.tsum(T.mul(out, Tensor(G))).backward()
        return [out.data] + [p.grad for p in params]

    got, want = run(sequence_doubling_forward), run(untrimmed)
    for i, (a, b) in enumerate(zip(got, want)):
        assert np.array_equal(a, b), i


def test_doubling_causal_full_context():
    # with a causal model, output position 0 (token L) sees every input position
    model = make_model(arch=DECODER_ONLY, max_positions=128)
    emb = Embedder.create(32, seed=2)
    pred = Predictor.create(32, seed=3)
    rng = np.random.default_rng(6)
    L = 24
    x = rng.normal(size=(1, L)).astype(np.float32)
    with T.no_grad():
        base = sequence_doubling_forward(model, emb, pred, x).data
    for p in range(L):
        x2 = x.copy()
        x2[0, p] += 0.5
        with T.no_grad():
            out = sequence_doubling_forward(model, emb, pred, x2).data
        assert not np.array_equal(out[0, 0], base[0, 0]), f"position {p} invisible to output 0"


def test_doubling_noop_when_positions_zeroed_bidirectional():
    # zeroed positional embeddings make the two copies indistinguishable to a
    # bidirectional model: second-half hidden equals first-half hidden
    model = make_model(arch=ENCODER_ONLY, max_positions=128)
    model.params["pos_emb"].data[:] = 0.0
    emb = Embedder.create(32, seed=4)
    rng = np.random.default_rng(7)
    x = rng.normal(size=(16, 1)).astype(np.float32)
    doubled = np.concatenate([x, x], axis=0)
    with T.no_grad():
        hidden = forward_hidden(model, emb(doubled), lengths=[32]).data
    np.testing.assert_allclose(hidden[16:], hidden[:16], atol=1e-6)


def test_doubling_first_copy_matches_plain_causal_forward():
    # reduction to the original setup: the doubled sequence's first half is the
    # plain forward pass for a causal model
    model = make_model(arch=DECODER_ONLY, max_positions=128)
    emb = Embedder.create(32, seed=5)
    rng = np.random.default_rng(8)
    x = rng.normal(size=(20, 1)).astype(np.float32)
    doubled = np.concatenate([x, x], axis=0)
    with T.no_grad():
        full = forward_hidden(model, emb(doubled), lengths=[40]).data
        plain = forward_hidden(model, emb(x), lengths=[20]).data
    np.testing.assert_allclose(full[:20], plain, atol=1e-5)


# -- parallel flipping training ----------------------------------------------------


def test_parallel_flipping_trains_both_and_combines():
    dataset = identity_dataset(n_train=8, n_test=2, n_x=32)
    fwd = Pipeline.create(make_model(seed=11), seed=12)
    rev = Pipeline.create(make_model(seed=13), seed=14)
    config = AdaptationConfig(method="fpt", bidir_method="parallel_flipping",
                              epochs=5, batch_size=4, seed=0)
    pair = FlipPair(fwd, rev)
    rep_f, rep_r = parallel_flipping_train(pair, dataset, config, corpus=None)
    assert len(rep_f.train.epoch_losses) == 5 and len(rep_r.train.epoch_losses) == 5
    pred = pair.predict(dataset.test.inputs[:1])
    assert pred.shape == (1, 32)


def test_parallel_flipping_starts_no_thread(monkeypatch):
    def refuse(self):
        raise AssertionError(f"thread started: {self.name}")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    dataset = identity_dataset(n_train=4, n_test=2, n_x=32)
    fwd = Pipeline.create(make_model(seed=11), seed=12)
    rev = Pipeline.create(make_model(seed=13), seed=14)
    config = AdaptationConfig(method="fpt", epochs=1, batch_size=4, seed=0)
    rep_f, rep_r = parallel_flipping_train(FlipPair(fwd, rev), dataset, config, corpus=None)
    assert len(rep_f.train.epoch_losses) == 1 and len(rep_r.train.epoch_losses) == 1


def test_parallel_flipping_untrained_reverse_ablation():
    # second half must match the trained forward pipeline exactly; the first
    # half (from the untrained reversed pipeline) stays at untrained quality
    dataset = identity_dataset(n_train=12, n_test=4, n_x=32)
    fwd = Pipeline.create(make_model(d_model=64, seed=21), seed=22)
    rev = Pipeline.create(make_model(d_model=64, seed=23), seed=24)
    config = AdaptationConfig(method="fpt", epochs=30, batch_size=6, learning_rate=3e-3, seed=1)
    run_adaptation(fwd, dataset, config, corpus=None)  # train the forward pipeline only
    pair = FlipPair(fwd, rev)
    errs_first, errs_second = [], []
    for x, truth in zip(dataset.test.inputs, dataset.test.targets):
        combined = pair.predict(x[None])[0]
        with T.no_grad():
            p_f = predict_sequence(fwd.model, fwd.embedder, fwd.predictor, x[None],
                                   bidir_method="none").data[0]
        np.testing.assert_array_equal(combined[16:], p_f[16:])
        errs_first.append(np.linalg.norm(combined[:16] - truth[:16]))
        errs_second.append(np.linalg.norm(combined[16:] - truth[16:]))
    assert np.mean(errs_first) > 2.0 * np.mean(errs_second)


def test_flipped_advection_equivalent_to_negated_beta():
    # flipping advection data is the same task as advection with -beta:
    # a pipeline trained on flipped data should score like one trained on
    # negated-beta data (overlapping nRMSE ranges across seeds)
    from crossmodal_pde.adaptation import finetune
    from crossmodal_pde.pde_data import default_params

    grid = GridSpec(n_x=32, t_out=0.5)
    data_pos = build_dataset("advection", 24, 6, grid, seed=40)
    data_neg = build_dataset("advection", 24, 6, grid,
                             params=default_params("advection", beta=-0.4), seed=40)
    flipped = flip_dataset(data_pos)

    def score(data, seed, cfg):
        p = Pipeline.create(make_model(seed=50 + seed), seed=60 + seed)
        finetune(p.model, p.embedder, p.predictor, data, cfg)
        return evaluate_nrmse(lambda x: predict_sequence(p.model, p.embedder, p.predictor, x,
                                                         bidir_method="none").data,
                              data.test, 16)[0]

    scores_flip, scores_neg = [], []
    for seed in (0, 1, 2):
        # ORCA's fine-tune (no stage 1 runs in ``finetune``) trains the whole body
        cfg = AdaptationConfig(method="orca", epochs=40, batch_size=8, learning_rate=3e-3,
                               seed=seed)
        scores_flip.append(score(flipped, seed, cfg))
        scores_neg.append(score(data_neg, seed, cfg))
    # overlapping min-max ranges
    assert min(scores_flip) <= max(scores_neg) and min(scores_neg) <= max(scores_flip), (
        f"flipped {scores_flip} vs negated {scores_neg}")
