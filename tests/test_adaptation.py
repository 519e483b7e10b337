import dataclasses
import hashlib

import numpy as np
import pytest

from conftest import identity_dataset, make_model
from crossmodal_pde import adaptation as ad
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
from crossmodal_pde.pde_data import GridSpec, PdeInstance, build_dataset, default_params
from crossmodal_pde.proxy_data import build_proxy_set, gen_corpus
from crossmodal_pde.tensor import ContractError, Tensor
from crossmodal_pde.transformer import (
    pretrain,
    ALL_TRAINABLE,
    DECODER_ONLY,
    ENCODER_ONLY,
    FPT_FROZEN,
    LengthError,
)


def snapshot(params: dict) -> dict:
    return {k: v.data.copy() for k, v in params.items()}


def assert_bitwise_equal(before: dict, after: dict, names):
    for name in names:
        np.testing.assert_array_equal(before[name], after[name], err_msg=name)


# -- pseudo labels ------------------------------------------------------------


def _uniform_instances(n=40, L=64, seed=0):
    rng = np.random.default_rng(seed)
    grid = GridSpec(n_x=L, t_out=0.5)
    params = default_params("advection")
    out = []
    for i in range(n):
        vals = rng.uniform(0.0, 1.0, size=L).astype(np.float32)
        out.append(PdeInstance(input=Tensor(vals), target=Tensor(vals), params=params,
                               grid=grid, seed=i))
    return out


def test_pseudo_labels_uniform_deciles():
    instances = _uniform_instances(n=60, L=64)
    pl = pseudo_label_targets(instances, bins=10)
    assert not pl.degenerate
    want = np.arange(1, 10) / 10
    assert np.abs(pl.edges - want).max() < 0.02
    counts = np.bincount(pl.labels.reshape(-1), minlength=10)
    assert counts.min() > 0.8 * counts.mean()


def test_pseudo_labels_constant_degenerate():
    grid = GridSpec(n_x=16, t_out=0.5)
    params = default_params("advection")
    inst = PdeInstance(input=Tensor(np.ones(16, dtype=np.float32)),
                       target=Tensor(np.full(16, 2.5, dtype=np.float32)),
                       params=params, grid=grid, seed=0)
    pl = pseudo_label_targets([inst], bins=10)
    assert pl.degenerate
    assert (pl.labels == 0).all()


def test_pseudo_labels_monotone_invariant():
    instances = _uniform_instances(n=20, L=32, seed=3)
    pl = pseudo_label_targets(instances, bins=8)
    transformed = [
        PdeInstance(input=i.input, target=Tensor(2.0 * i.target.data + 1.0),
                    params=i.params, grid=i.grid, seed=i.seed)
        for i in instances
    ]
    pl2 = pseudo_label_targets(transformed, bins=8)
    np.testing.assert_array_equal(pl.labels, pl2.labels)


# -- predict_sequence -----------------------------------------------------------


def test_zero_predictor_gives_zeros():
    model = make_model()
    emb = Embedder.create(1, 32, seed=0)
    pred = Predictor.create(32, 1, seed=1)
    pred.w.data[:] = 0.0
    pred.b.data[:] = 0.0
    out = predict_sequence(model, emb, pred, np.random.default_rng(0).normal(size=32))
    np.testing.assert_array_equal(out.data, np.zeros((32, 1), dtype=np.float32))


def test_predict_shapes_all_methods():
    model = make_model(max_positions=256)
    emb = Embedder.create(1, 32, seed=0)
    pred = Predictor.create(32, 1, seed=1)
    x = np.random.default_rng(1).normal(size=128).astype(np.float32)
    for method in ("none", "sequence_doubling"):
        out = predict_sequence(model, emb, pred, x, bidir_method=method)
        assert out.data.shape == (128, 1), method
    partner = Pipeline.create(make_model(seed=9, max_positions=256), seed=5)
    pair = FlipPair(Pipeline(model, emb, pred), partner)
    assert pair.predict(x).shape == (128, 1), "parallel_flipping"


def test_predict_odd_length_rejected():
    model = make_model()
    emb = Embedder.create(1, 32, seed=0)
    pred = Predictor.create(32, 1, seed=1)
    with pytest.raises(LengthError):
        predict_sequence(model, emb, pred, np.zeros(31, dtype=np.float32))


def test_parallel_flipping_needs_partner():
    model = make_model()
    emb = Embedder.create(1, 32, seed=0)
    pred = Predictor.create(32, 1, seed=1)
    with pytest.raises(ContractError, match="FlipPair"):
        predict_sequence(model, emb, pred, np.zeros(32, dtype=np.float32),
                         bidir_method="parallel_flipping")


def test_causal_prediction_ignores_future():
    model = make_model(arch=DECODER_ONLY)
    emb = Embedder.create(1, 32, seed=2)
    pred = Predictor.create(32, 1, seed=3)
    rng = np.random.default_rng(4)
    x = rng.normal(size=32).astype(np.float32)
    x2 = x.copy()
    x2[20:] += 1.0
    a = predict_sequence(model, emb, pred, x).data
    b = predict_sequence(model, emb, pred, x2).data
    np.testing.assert_array_equal(a[:20], b[:20])


# -- optimizer mapping ------------------------------------------------------------


def test_optimizer_family_mapping():
    cfg = AdaptationConfig()
    assert cfg.resolve_optimizer("advection") == ("adam", 1e-3, False)
    assert cfg.resolve_optimizer("diffusion_reaction") == ("sgd", 1e-2, False)
    assert cfg.resolve_optimizer("diffusion_sorption") == ("adamw", 1e-3, False)
    assert cfg.resolve_optimizer("burgers_ns") == ("adamw", 1e-3, False)
    override = AdaptationConfig(optimizer="sgd", learning_rate=0.5)
    assert override.resolve_optimizer("advection") == ("sgd", 0.5, True)


# -- ORCA stage 1 -------------------------------------------------------------------


def _stage1_fixture(steps, arch=DECODER_ONLY, seed=0, pretrain_steps=0):
    model = make_model(arch=arch, seed=seed)
    corpus = gen_corpus(seed=seed + 20, n_sequences=80)
    if pretrain_steps:
        pretrain(model, [t for t, _ in corpus.sequences], steps=pretrain_steps,
                 learning_rate=1e-3, batch_size=8, seed=seed)
    emb = Embedder.create(1, 32, seed=seed + 10)
    proxy = build_proxy_set(model, corpus)
    dataset = build_dataset("advection", 8, 2, GridSpec(n_x=32, t_out=0.5), seed=seed + 30)
    config = AdaptationConfig(method=ORCA, stage1_steps=steps, otdd_batch=64,
                              sinkhorn_max_iters=200, stage1_lr=3e-3, seed=seed)
    return model, emb, proxy, dataset, config


def test_stage1_zero_steps_noop():
    model, emb, proxy, dataset, config = _stage1_fixture(steps=0)
    before_w, before_b = emb.w.data.copy(), emb.b.data.copy()
    report = orca_stage1(model, emb, proxy, dataset, config)
    np.testing.assert_array_equal(emb.w.data, before_w)
    np.testing.assert_array_equal(emb.b.data, before_b)
    assert report.trace == []


def test_stage1_reduces_otdd_and_freezes_model():
    model, emb, proxy, dataset, config = _stage1_fixture(steps=300, pretrain_steps=200)
    before = snapshot(model.params)
    report = orca_stage1(model, emb, proxy, dataset, config)
    assert_bitwise_equal(before, snapshot(model.params), model.params.keys())
    # regression baseline on this seeded fixture: ratio 0.683
    initial = float(np.mean(report.trace[:10]))
    final = float(np.mean(report.trace[-10:]))
    assert final <= 0.7 * initial, f"OTDD went {initial:.4f} -> {final:.4f}"


def test_stage1_through_body_keeps_body_off_the_tape():
    model, emb, proxy, dataset, config = _stage1_fixture(steps=4)
    config = dataclasses.replace(config, stage1_through_body=True)
    before = snapshot(model.params)
    report = orca_stage1(model, emb, proxy, dataset, config)
    assert_bitwise_equal(before, snapshot(model.params), model.params.keys())
    assert all(p.grad is None and p.requires_grad for p in model.params.values())
    # sha256 of the float64 trace as formed when the body was still on the tape
    digest = hashlib.sha256(np.asarray(report.trace, dtype=np.float64).tobytes()).hexdigest()
    assert digest == "64d990df2c9e710160daad156f06fda2574a002a8c6fe8c4de0ebe5450149fc3"


def test_stage1_dimension_mismatch():
    model, emb, proxy, dataset, config = _stage1_fixture(steps=1)
    other = make_model(d_model=64, seed=1)
    with pytest.raises(Exception):
        orca_stage1(other, Embedder.create(1, 64, 0), proxy, dataset, config)


# -- finetune ---------------------------------------------------------------------


def test_finetune_zero_epochs_only_initial_eval():
    model = make_model()
    emb = Embedder.create(1, 32, seed=0)
    pred = Predictor.create(32, 1, seed=1)
    dataset = identity_dataset()
    before = snapshot(model.params)
    config = AdaptationConfig(epochs=0, seed=0)
    report = finetune(model, emb, pred, dataset, ALL_TRAINABLE, config)
    assert_bitwise_equal(before, snapshot(model.params), model.params.keys())
    assert report.epoch_losses == []
    assert np.isfinite(report.initial_test_nrmse)
    assert report.final_test_nrmse == report.initial_test_nrmse


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
    emb = Embedder.create(1, 32, seed=0)
    pred = Predictor.create(32, 1, seed=1)
    dataset = identity_dataset(n_train=8, n_test=2)
    before = snapshot(model.params)
    stale = model.params["layer0.mlp.w1"]
    stale.grad = np.ones_like(stale.data)  # as an earlier phase would leave it
    config = AdaptationConfig(epochs=10, batch_size=4, optimizer="adam", seed=0)
    finetune(model, emb, pred, dataset, FPT_FROZEN, config)
    frozen = _fpt_frozen_names(model)
    assert_bitwise_equal(before, snapshot(model.params), frozen)
    changed = any(not np.array_equal(before[n], model.params[n].data)
                  for n in model.params if n not in frozen)
    assert changed, "layer-norm parameters should have moved"
    assert_frozen_left_clean(model)


def test_finetune_fpt_freeze_audit_on_nonfinite_abort():
    model = make_model()
    dataset = identity_dataset(n_train=4, n_test=2)
    dataset.train[2].input.data[5] = np.nan
    config = AdaptationConfig(epochs=2, batch_size=4, optimizer="adam", seed=0)
    report = finetune(model, Embedder.create(1, 32, seed=0), Predictor.create(32, 1, seed=1),
                      dataset, FPT_FROZEN, config)
    assert report.aborted and report.epochs_run == 0
    assert_frozen_left_clean(model)


def test_finetune_fpt_freeze_audit_when_a_step_raises(monkeypatch):
    model = make_model()
    dataset = identity_dataset(n_train=4, n_test=2)
    config = AdaptationConfig(epochs=2, batch_size=4, optimizer="adam", seed=0)

    def fail(state, params):
        raise RuntimeError("optimizer failed")

    monkeypatch.setattr(ad.T, "optimizer_step", fail)
    with pytest.raises(RuntimeError, match="optimizer failed"):
        finetune(model, Embedder.create(1, 32, seed=0), Predictor.create(32, 1, seed=1),
                 dataset, FPT_FROZEN, config)
    assert_frozen_left_clean(model)


def test_finetune_identity_task_converges():
    model = make_model(d_model=64, seed=11)
    emb = Embedder.create(1, 64, seed=12)
    pred = Predictor.create(64, 1, seed=13)
    dataset = identity_dataset(n_train=16, n_test=4, n_x=64)
    config = AdaptationConfig(epochs=50, batch_size=8, optimizer="adam", seed=1)
    report = finetune(model, emb, pred, dataset, ALL_TRAINABLE, config)
    train_nrmse, _ = evaluate_nrmse(model, emb, pred, dataset.train)
    assert train_nrmse < 0.05, f"train nRMSE {train_nrmse:.4f}"
    assert not report.aborted


def test_run_adaptation_orca_requires_proxy(small_advection_dataset):
    pipeline = Pipeline.create(make_model(), seed=0)
    config = AdaptationConfig(method=ORCA, epochs=1, stage1_steps=1)
    with pytest.raises(ContractError):
        run_adaptation(pipeline, small_advection_dataset, config, proxy=None)


def test_nrmse_zero_truth_rejected():
    with pytest.raises(ContractError):
        ad.instance_nrmse(np.ones(4), np.zeros(4))


def test_pooled_predictor_variant_trains():
    # flag-selected alternative head: mean-pooled hidden state -> whole frame
    model = make_model(d_model=32, seed=31)
    pipeline = Pipeline.create(model, seed=32, pooled_out_length=32)
    assert isinstance(pipeline.predictor, ad.PooledPredictor)
    dataset = identity_dataset(n_train=8, n_test=2, n_x=32)
    out = predict_sequence(pipeline.model, pipeline.embedder, pipeline.predictor,
                           dataset.test[0].input.data)
    assert out.data.shape == (32, 1)
    config = AdaptationConfig(epochs=3, batch_size=4, optimizer="adam", seed=2)
    report = finetune(pipeline.model, pipeline.embedder, pipeline.predictor,
                      dataset, ALL_TRAINABLE, config)
    assert report.epochs_run == 3 and not report.aborted
