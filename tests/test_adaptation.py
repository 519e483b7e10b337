import dataclasses

import numpy as np
import pytest

from conftest import identity_dataset, make_model
from crossmodal_pde import adaptation as ad
from crossmodal_pde import tensor as T
from crossmodal_pde.adaptation import (
    ORCA,
    AdaptationConfig,
    Embedder,
    Pipeline,
    Predictor,
    evaluate_nrmse,
    finetune,
    orca_stage1,
    predict_sequence,
    pseudo_label_targets,
    run_adaptation,
)
from crossmodal_pde.bidir import FlipPair
from crossmodal_pde.pde_data import GridSpec, build_dataset
from crossmodal_pde.proxy_data import gen_corpus
from crossmodal_pde.tensor import ContractError, ShapeError, Tensor
from crossmodal_pde.transformer import (
    forward_hidden,
    pretrain,
    DECODER_ONLY,
    ENCODER_ONLY,
    LengthError,
)


def snapshot(params: dict) -> dict:
    return {k: v.data.copy() for k, v in params.items()}


def assert_bitwise_equal(before: dict, after: dict, names):
    for name in names:
        np.testing.assert_array_equal(before[name], after[name], err_msg=name)


def predictor_of(model, emb, pred):
    """One pipeline's ``predict_sequence`` as ``evaluate_nrmse`` takes it."""
    return lambda x: predict_sequence(model, emb, pred, x, bidir_method="none").data


# -- pseudo labels ------------------------------------------------------------


def _uniform_targets(n=40, L=64, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 1.0, size=(n, L)).astype(np.float32)


def test_pseudo_labels_uniform_deciles():
    targets = _uniform_targets(n=60, L=64)
    labels = pseudo_label_targets(targets)
    # bin k holds the targets up to its upper decile edge (k + 1) / 10
    tops = [targets[labels == k].max() for k in range(9)]
    assert np.abs(np.array(tops) - np.arange(1, 10) / 10).max() < 0.02
    counts = np.bincount(labels.reshape(-1), minlength=10)
    assert counts.min() > 0.8 * counts.mean()


def test_pseudo_labels_constant_degenerate():
    labels = pseudo_label_targets(np.full((1, 16), 2.5, dtype=np.float32))
    assert labels.shape == (1, 16) and (labels == 0).all()


def test_pseudo_labels_monotone_invariant():
    targets = _uniform_targets(n=20, L=32, seed=3)
    np.testing.assert_array_equal(pseudo_label_targets(targets),
                                  pseudo_label_targets(2.0 * targets + 1.0))


# -- predict_sequence -----------------------------------------------------------


def test_zero_predictor_gives_zeros():
    model = make_model()
    emb = Embedder.create(32, seed=0)
    pred = Predictor.create(32, seed=1)
    pred.w.data[:] = 0.0
    pred.b.data[:] = 0.0
    out = predict_sequence(model, emb, pred, np.random.default_rng(0).normal(size=(1, 32)),
                           bidir_method="none")
    np.testing.assert_array_equal(out.data, np.zeros((1, 32), dtype=np.float32))


def test_predict_shapes_all_methods():
    model = make_model(max_positions=256)
    emb = Embedder.create(32, seed=0)
    pred = Predictor.create(32, seed=1)
    x = np.random.default_rng(1).normal(size=(1, 128)).astype(np.float32)
    for method in ("none", "sequence_doubling"):
        out = predict_sequence(model, emb, pred, x, bidir_method=method)
        assert out.data.shape == (1, 128), method
    partner = Pipeline.create(make_model(seed=9, max_positions=256), seed=5)
    pair = FlipPair(Pipeline(model, emb, pred), partner)
    assert pair.predict(x).shape == (1, 128), "parallel_flipping"


def test_predict_odd_length_rejected():
    model = make_model()
    emb = Embedder.create(32, seed=0)
    pred = Predictor.create(32, seed=1)
    with pytest.raises(LengthError):
        predict_sequence(model, emb, pred, np.zeros((1, 31), dtype=np.float32), bidir_method="none")


def test_parallel_flipping_needs_partner():
    model = make_model()
    emb = Embedder.create(32, seed=0)
    pred = Predictor.create(32, seed=1)
    with pytest.raises(ContractError, match="FlipPair"):
        predict_sequence(model, emb, pred, np.zeros((1, 32), dtype=np.float32),
                         bidir_method="parallel_flipping")


def test_causal_prediction_ignores_future():
    model = make_model(arch=DECODER_ONLY)
    emb = Embedder.create(32, seed=2)
    pred = Predictor.create(32, seed=3)
    rng = np.random.default_rng(4)
    x = rng.normal(size=(1, 32)).astype(np.float32)
    x2 = x.copy()
    x2[:, 20:] += 1.0
    a = predict_sequence(model, emb, pred, x, bidir_method="none").data
    b = predict_sequence(model, emb, pred, x2, bidir_method="none").data
    np.testing.assert_array_equal(a[:, :20], b[:, :20])


# -- optimizer mapping ------------------------------------------------------------


def test_optimizer_family_mapping():
    cfg = AdaptationConfig(method="fpt", seed=0)
    assert cfg.resolve_optimizer("advection") == ("adam", 1e-3)
    assert cfg.resolve_optimizer("diffusion_reaction") == ("sgd", 1e-2)
    assert cfg.resolve_optimizer("diffusion_sorption") == ("adamw", 1e-3)
    assert cfg.resolve_optimizer("burgers_ns") == ("adamw", 1e-3)
    # a learning rate replaces the default rate, never the family's optimizer
    cfg = AdaptationConfig(method="fpt", learning_rate=0.5, seed=0)
    assert cfg.resolve_optimizer("advection") == ("adam", 0.5)


# -- ORCA stage 1 -------------------------------------------------------------------


def _stage1_fixture(steps, arch=DECODER_ONLY, seed=0, pretrain_steps=0):
    model = make_model(arch=arch, seed=seed)
    corpus = gen_corpus(seed=seed + 20, n_sequences=80)
    if pretrain_steps:
        pretrain(model, [t for t, _ in corpus.sequences], steps=pretrain_steps,
                 learning_rate=1e-3, batch_size=8, seed=seed)
    emb = Embedder.create(32, seed=seed + 10)
    dataset = build_dataset("advection", 8, 2, GridSpec(n_x=32, t_out=0.5), seed=seed + 30)
    config = AdaptationConfig(method=ORCA, stage1_steps=steps, seed=seed)
    return model, emb, corpus, dataset, config


def test_stage1_zero_steps_noop():
    model, emb, corpus, dataset, config = _stage1_fixture(steps=0)
    before_w, before_b = emb.w.data.copy(), emb.b.data.copy()
    report = orca_stage1(model, emb, corpus, dataset, config)
    np.testing.assert_array_equal(emb.w.data, before_w)
    np.testing.assert_array_equal(emb.b.data, before_b)
    assert report.trace == []


def test_stage1_reduces_otdd_and_freezes_model():
    model, emb, corpus, dataset, config = _stage1_fixture(steps=300, pretrain_steps=200)
    model.params["tok_emb"].requires_grad = False
    before = snapshot(model.params)
    # pretraining's last step left a gradient on every parameter it trained
    grads = {n: p.grad.copy() for n, p in model.params.items() if p.grad is not None}
    flags = {n: p.requires_grad for n, p in model.params.items()}
    report = orca_stage1(model, emb, corpus, dataset, config)
    assert_bitwise_equal(before, snapshot(model.params), model.params.keys())
    # no model parameter enters the stage-1 tape: no gradient is added or
    # dropped, and every requires_grad flag is as it was
    assert grads and {n for n, p in model.params.items() if p.grad is not None} == set(grads)
    assert_bitwise_equal(grads, {n: model.params[n].grad for n in grads}, grads)
    assert {n: p.requires_grad for n, p in model.params.items()} == flags
    # regression baseline on this seeded fixture: ratio 0.659
    initial = float(np.mean(report.trace[:10]))
    final = float(np.mean(report.trace[-10:]))
    assert final <= 0.7 * initial, f"OTDD went {initial:.4f} -> {final:.4f}"


def test_stage1_dimension_mismatch():
    model, emb, corpus, dataset, config = _stage1_fixture(steps=1)
    # an embedder wider than the model: its points and the model's corpus
    # embedding differ in width
    with pytest.raises(ShapeError):
        orca_stage1(model, Embedder.create(64, 0), corpus, dataset, config)


# -- finetune ---------------------------------------------------------------------


def test_finetune_zero_epochs_changes_nothing():
    model = make_model()
    emb = Embedder.create(32, seed=0)
    pred = Predictor.create(32, seed=1)
    dataset = identity_dataset()
    before = snapshot(model.params)
    before_task = [p.data.copy() for p in emb.params() + pred.params()]
    config = AdaptationConfig(method=ORCA, epochs=0, seed=0)
    report = finetune(model, emb, pred, dataset, config)
    assert_bitwise_equal(before, snapshot(model.params), model.params.keys())
    for a, p in zip(before_task, emb.params() + pred.params()):
        np.testing.assert_array_equal(a, p.data)
    assert report.epoch_losses == [] and not report.aborted


def _fpt_frozen_names(model):
    return [n for n in model.params
            if not (".ln1." in n or ".ln2." in n or n.startswith("final_ln."))]


def assert_frozen_left_clean(model):
    """Every FPT-frozen parameter holds no gradient and requires grad again."""
    for name in _fpt_frozen_names(model):
        p = model.params[name]
        assert p.grad is None, name
        assert p.requires_grad, name


def test_finetune_fpt_freeze_audit():
    model = make_model()
    emb = Embedder.create(32, seed=0)
    pred = Predictor.create(32, seed=1)
    dataset = identity_dataset(n_train=8, n_test=2)
    before = snapshot(model.params)
    stale = model.params["layer0.mlp.w1"]
    stale.grad = np.ones_like(stale.data)  # as an earlier phase would leave it
    config = AdaptationConfig(method="fpt", epochs=10, batch_size=4, seed=0)
    finetune(model, emb, pred, dataset, config)
    frozen = _fpt_frozen_names(model)
    assert_bitwise_equal(before, snapshot(model.params), frozen)
    changed = any(not np.array_equal(before[n], model.params[n].data)
                  for n in model.params if n not in frozen)
    assert changed, "layer-norm parameters should have moved"
    assert_frozen_left_clean(model)


def test_finetune_fpt_freeze_audit_on_nonfinite_abort():
    model = make_model()
    dataset = identity_dataset(n_train=4, n_test=2)
    dataset.train.inputs[2, 5] = np.nan
    config = AdaptationConfig(method="fpt", epochs=2, batch_size=4, seed=0)
    report = finetune(model, Embedder.create(32, seed=0), Predictor.create(32, seed=1),
                      dataset, config)
    assert report.aborted and report.epoch_losses == []
    assert_frozen_left_clean(model)


def test_finetune_fpt_freeze_audit_when_a_step_raises(monkeypatch):
    model = make_model()
    dataset = identity_dataset(n_train=4, n_test=2)
    config = AdaptationConfig(method="fpt", epochs=2, batch_size=4, seed=0)

    def fail(state, params):
        raise RuntimeError("optimizer failed")

    monkeypatch.setattr(ad.T, "optimizer_step", fail)
    with pytest.raises(RuntimeError, match="optimizer failed"):
        finetune(model, Embedder.create(32, seed=0), Predictor.create(32, seed=1),
                 dataset, config)
    assert_frozen_left_clean(model)


def test_finetune_identity_task_converges():
    model = make_model(d_model=64, seed=11)
    emb = Embedder.create(64, seed=12)
    pred = Predictor.create(64, seed=13)
    dataset = identity_dataset(n_train=16, n_test=4, n_x=64)
    config = AdaptationConfig(method=ORCA, epochs=50, batch_size=8, seed=1)
    report = finetune(model, emb, pred, dataset, config)
    train_nrmse, _ = evaluate_nrmse(predictor_of(model, emb, pred), dataset.train, 16)
    assert train_nrmse < 0.05, f"train nRMSE {train_nrmse:.4f}"
    assert not report.aborted


def test_run_adaptation_orca_requires_proxy(small_advection_dataset):
    pipeline = Pipeline.create(make_model(), seed=0)
    config = AdaptationConfig(method=ORCA, epochs=1, stage1_steps=1, seed=0)
    with pytest.raises(ContractError):
        run_adaptation(pipeline, small_advection_dataset, config, corpus=None)


def test_nrmse_zero_truth_rejected():
    with pytest.raises(ContractError):
        ad.instance_nrmse(np.ones(4), np.zeros(4))


# -- one tape per fine-tune step, against the per-instance oracle ---------------


def _oracle_predict(model, emb, pred, frame, bidir_method="none"):
    """One [L] frame through the model as ``predict_sequence`` ran it before
    batching: an unbatched ``forward_hidden`` and, for Sequence Doubling, a
    ``take_rows`` of the second half's rows; returns [1, L]."""
    L = frame.shape[0]
    if bidir_method == "none":
        return pred(forward_hidden(model, emb(frame), lengths=[L]), 1)
    doubled = np.concatenate([frame, frame], axis=0)
    hidden = forward_hidden(model, emb(doubled), lengths=[2 * L])
    return pred(T.take_rows(hidden, np.arange(L, 2 * L)), 1)


def _oracle_loss(model, emb, pred, frames, targets, bidir_method="none"):
    """The old fine-tune loss: one tape per instance, the per-instance MSEs
    summed on the tape and scaled by 1/B."""
    losses = []
    for x, y in zip(frames, targets):
        out = _oracle_predict(model, emb, pred, x, bidir_method)
        losses.append(T.tmean(T.square(T.sub(out, Tensor(y[None])))))
    total = losses[0]
    for loss in losses[1:]:
        total = T.add(total, loss)
    return losses[0] if len(losses) == 1 else T.mul(total, 1.0 / len(losses))


def _oracle_evaluate(model, emb, pred, split):
    with T.no_grad():
        preds = np.concatenate([_oracle_predict(model, emb, pred, x).data
                                for x in split.inputs])
    return ad.mean_nrmse(preds, split.targets), preds


def _oracle_finetune(model, emb, pred, dataset, config):
    """``finetune`` as it was before batching: per-instance tapes per step."""
    kind, lr = config.resolve_optimizer(dataset.family)
    report = ad.TrainReport(optimizer=kind, learning_rate=lr)
    params = ad.trained_parameters(model, config.method) + emb.params() + pred.params()
    wd = ad.ADAMW_WEIGHT_DECAY if kind == "adamw" else 0.0
    opt = T.OptimizerState(kind=kind, learning_rate=lr, weight_decay=wd)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(config.seed, 202)))
    n = len(dataset.train)
    with ad.frozen_except(model, params):
        for epoch in range(config.epochs):
            order = rng.permutation(n)
            epoch_loss, n_batches = 0.0, 0
            for lo in range(0, n, config.batch_size):
                batch = order[lo: lo + config.batch_size]
                T.zero_grads(params)
                loss = _oracle_loss(model, emb, pred, dataset.train.inputs[batch],
                                    dataset.train.targets[batch], config.bidir_method)
                loss.backward()
                T.optimizer_step(opt, params)
                epoch_loss += loss.item()
                n_batches += 1
            report.epoch_losses.append(epoch_loss / max(1, n_batches))
    return report


# the bidir method of every batched prediction path; the ids keep the case
# names these tests had while a second, since deleted, flag was parametrized
PATHS = pytest.mark.parametrize("bidir_method", ["none", "sequence_doubling"],
                                ids=["none-False", "sequence_doubling-False"])


def _head16_pipeline(arch, seed=0):
    """A default-width pipeline (head width 16) whose attention is far from
    uniform: model weight matrices at 10x their init scale."""
    model = make_model(arch=arch, d_model=64, max_positions=256, seed=seed)
    for p in model.params.values():
        if p.data.ndim == 2:
            p.data *= 10.0
    return model, Embedder.create(64, seed=seed + 1), Predictor.create(64, seed=seed + 2)


def _frames(n, L=64, seed=0):
    return np.random.default_rng(seed).normal(size=(n, L)).astype(np.float32)


@pytest.mark.parametrize("arch", [ENCODER_ONLY, DECODER_ONLY])
@PATHS
def test_batched_prediction_rows_equal_per_instance_forward(arch, bidir_method):
    # At head width 16 OpenBLAS sums every row in the same order at any row
    # count, so a batch row is bitwise its frame's own (old, unbatched) forward.
    model, emb, pred = _head16_pipeline(arch)
    frames = _frames(5)
    with T.no_grad():
        got = predict_sequence(model, emb, pred, frames, bidir_method=bidir_method).data
        assert got.shape == (5, 64)
        for b, x in enumerate(frames):
            want = _oracle_predict(model, emb, pred, x, bidir_method).data[0]
            assert np.array_equal(got[b], want), b
            single = predict_sequence(model, emb, pred, x[None],
                                      bidir_method=bidir_method).data[0]
            assert np.array_equal(single, want), b


@pytest.mark.parametrize("arch", [ENCODER_ONLY, DECODER_ONLY])
@PATHS
def test_batched_step_gradients_match_per_instance_oracle(arch, bidir_method):
    # The weight gradients now sum over all B*L rows at once, so they may move
    # in their last bits; the bound is the pretraining step's (1e-5 of each
    # parameter's max |grad|).
    model, emb, pred = _head16_pipeline(arch, seed=3)
    names = [n for n in model.params if n not in ("tok_emb", "lm_head")]
    params = [model.params[n] for n in names] + emb.params() + pred.params()
    names += ["embedder.w", "embedder.b", "predictor.w", "predictor.b"]
    frames, targets = _frames(4, seed=1), _frames(4, seed=2)
    T.zero_grads(params)
    loss = T.tmean(T.square(T.sub(
        predict_sequence(model, emb, pred, frames, bidir_method=bidir_method),
        Tensor(targets))))
    loss.backward()
    grads = [p.grad for p in params]
    T.zero_grads(params)
    want = _oracle_loss(model, emb, pred, frames, targets, bidir_method)
    want.backward()
    assert abs(loss.item() - want.item()) <= 1e-6 * abs(want.item())
    for name, g, p in zip(names, grads, params):
        # attn.bk's exact gradient is zero (softmax ignores a constant shift of
        # a score row), so its values are rounding noise
        if name.endswith("attn.bk"):
            continue
        assert np.abs(g - p.grad).max() <= 1e-5 * np.abs(p.grad).max(), name


def test_finetune_step_is_one_forward_and_one_backward(monkeypatch):
    calls = {"forward_hidden": 0, "backward": 0}
    forward, backward = ad.forward_hidden, Tensor.backward

    def counted_forward(*args, **kwargs):
        calls["forward_hidden"] += 1
        return forward(*args, **kwargs)

    def counted_backward(self):
        calls["backward"] += 1
        return backward(self)

    monkeypatch.setattr(ad, "forward_hidden", counted_forward)
    monkeypatch.setattr(Tensor, "backward", counted_backward)
    dataset = identity_dataset(n_train=8, n_test=3)
    config = AdaptationConfig(method="fpt", epochs=1, batch_size=8, seed=0)
    finetune(make_model(), Embedder.create(32, seed=0), Predictor.create(32, seed=1),
             dataset, config)
    # one training step and nothing else: run_one scores the test split
    assert calls == {"forward_hidden": 1, "backward": 1}


def _run_record(tmp_path, monkeypatch, oracle, **overrides):
    from crossmodal_pde import experiments

    if oracle:
        monkeypatch.setattr(ad, "finetune", _oracle_finetune)
    dataset_file = str(tmp_path / "sorption.bin")
    build_dataset("diffusion_sorption", 4, 3, GridSpec(n_x=32, t_out=0.5), seed=2,
                  out_path=dataset_file)
    config = experiments.ExperimentConfig(
        name="rec", dataset_file=dataset_file, out_dir=str(tmp_path / "records"),
        arch=DECODER_ONLY, d_model=64, n_heads=4, n_layers=2, d_ff=128, max_positions=64,
        method="fpt", epochs=2, seeds=[0], **overrides)
    record = dataclasses.asdict(experiments.run_one(config, seed=0))
    record.pop("wallclock_s")
    monkeypatch.undo()
    return record


@pytest.mark.parametrize("bidir_method", ["none", "sequence_doubling", "parallel_flipping"])
def test_batch_one_record_bit_identical_to_oracle(tmp_path, monkeypatch, bidir_method):
    got = _run_record(tmp_path, monkeypatch, oracle=False, batch_size=1,
                      bidir_method=bidir_method)
    want = _run_record(tmp_path, monkeypatch, oracle=True, batch_size=1,
                       bidir_method=bidir_method)
    assert got == want


def test_batched_record_close_to_oracle(tmp_path, monkeypatch):
    got = _run_record(tmp_path, monkeypatch, oracle=False, batch_size=4)
    want = _run_record(tmp_path, monkeypatch, oracle=True, batch_size=4)
    np.testing.assert_allclose(got["epoch_losses"]["forward"], want["epoch_losses"]["forward"],
                               rtol=1e-5)
    assert abs(got["test_nrmse"] - want["test_nrmse"]) <= 1e-5 * want["test_nrmse"]


def test_unequal_instance_lengths_raise_shape_error():
    model = make_model()
    emb, pred = Embedder.create(32, seed=0), Predictor.create(32, seed=1)
    with pytest.raises(ShapeError):
        predict_sequence(model, emb, pred, np.zeros((2, 2, 32, 1), dtype=np.float32),
                         bidir_method="none")


def test_evaluation_batches_match_one_instance_at_a_time():
    model, emb, pred = _head16_pipeline(DECODER_ONLY, seed=5)
    split = identity_dataset(n_train=1, n_test=5, n_x=64).test
    want = _oracle_evaluate(model, emb, pred, split)
    predict = predictor_of(model, emb, pred)
    for batch_size in (1, 2, 5, 16):
        got = evaluate_nrmse(predict, split, batch_size=batch_size)
        assert got[0] == want[0]
        assert all(np.array_equal(a, b) for a, b in zip(got[1], want[1]))
    with pytest.raises(ContractError, match="batch_size"):
        evaluate_nrmse(predict, split, batch_size=0)
