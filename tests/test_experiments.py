import contextlib
import dataclasses
import functools
import json
import os
from dataclasses import dataclass

import numpy as np
import pytest

from crossmodal_pde import adaptation, experiments, pde_data, proxy_data, transformer
from crossmodal_pde import tensor as T
from crossmodal_pde.adaptation import (
    AdaptationConfig,
    instance_nrmse,
    mean_nrmse,
    predict_sequence,
)
from crossmodal_pde.bidir import FlipPair
from crossmodal_pde.container import DataFileError
from crossmodal_pde.experiments import (
    ExperimentConfig,
    RunRecord,
    aggregate,
    load_records,
    record_path,
    run_experiment,
    run_one,
    spikiness_diagnostic,
    table_to_csv,
)
from crossmodal_pde.otdd import SinkhornParams
from crossmodal_pde.pde_data import GridSpec, build_dataset, derive_seed, load_dataset
from crossmodal_pde.proxy_data import gen_corpus, load_corpus, save_corpus
from crossmodal_pde.tensor import ContractError
from crossmodal_pde.transformer import (
    ConfigError,
    LengthError,
    ModelConfig,
    build_model,
    load_checkpoint,
    pretrain,
    save_checkpoint,
)


# -- nrmse ----------------------------------------------------------------


def test_nrmse_exact_prediction():
    t = np.array([1.0, -2.0, 3.0])
    assert instance_nrmse(t, t) == 0.0


def test_nrmse_double_prediction():
    t = np.array([1.0, -2.0, 3.0])
    assert instance_nrmse(2 * t, t) == pytest.approx(1.0)


def test_nrmse_scale_independent():
    rng = np.random.default_rng(0)
    pred, truth = rng.normal(size=8), rng.normal(size=8)
    base = instance_nrmse(pred, truth)
    for a in (2.0, -0.5, 100.0):
        assert instance_nrmse(a * pred, a * truth) == pytest.approx(base, rel=1e-12)


def test_nrmse_zero_truth_rejected():
    with pytest.raises(ContractError):
        instance_nrmse(np.ones(4), np.zeros(4))


def test_nrmse_shape_mismatch_rejected():
    # a [L, 1] prediction against an [L] truth must not broadcast to [L, L]
    t = np.array([1.0, -2.0, 3.0])
    with pytest.raises(ContractError, match="shape mismatch"):
        instance_nrmse(t[:, None], t)


@pytest.mark.parametrize("n_pred, n_true", [(2, 3), (3, 2)])
def test_mean_nrmse_rejects_a_count_mismatch(n_pred, n_true):
    # a zip over the rows would score the shorter count and drop the rest
    with pytest.raises(T.ShapeError, match=f"{n_pred} predictions for {n_true} targets"):
        mean_nrmse(np.ones((n_pred, 4)), np.ones((n_true, 4)))


# -- spikiness --------------------------------------------------------------


def test_spikiness_constant():
    assert spikiness_diagnostic(np.full(8, 2.0)) == (0.0, 0.0)


def test_spikiness_hand_count():
    pred = np.array([0.0, 1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0])
    assert spikiness_diagnostic(pred) == (3.0, 0.0)


def test_spikiness_odd_length_rejected():
    with pytest.raises(ContractError):
        spikiness_diagnostic(np.zeros(7))


# -- run records ---------------------------------------------------------------


def tiny_experiment(tmp_path, name="exp", **overrides) -> ExperimentConfig:
    """A random-init FPT run on 6 + 2 advection frames; an ORCA run names the
    30-sequence corpus beside the dataset unless ``corpus_file`` is given."""
    dataset_file = str(tmp_path / "adv.bin")
    build_dataset("advection", 6, 2, GridSpec(n_x=32, t_out=0.5), seed=5,
                  out_path=dataset_file)
    corpus_file = str(tmp_path / "corpus.bin")
    save_corpus(gen_corpus(seed=3, n_sequences=30), corpus_file)
    base = dict(name=name, dataset_file=dataset_file, out_dir=str(tmp_path / "records"),
                arch="decoder_only", d_model=32, n_heads=4, n_layers=2, d_ff=64,
                max_positions=64, method="fpt", epochs=2, batch_size=4, stage1_steps=3,
                seeds=[0])
    base.update(overrides)
    if base["method"] == "orca":
        base.setdefault("corpus_file", corpus_file)
    return ExperimentConfig(**base)


@pytest.fixture
def pretrained_experiment(tmp_path):
    """``tiny_experiment`` naming the checkpoint that ``crossmodal-pde
    pretrain`` would write for its model: ``steps`` steps on its corpus."""
    def make(steps=3, **overrides):
        config = tiny_experiment(tmp_path, **overrides)
        model = build_model(config.model_config(1234))
        pretrain(model, [t for t, _ in load_corpus(tmp_path / "corpus.bin").sequences],
                 steps=steps, batch_size=8, seed=1234)
        ckpt = str(tmp_path / f"pretrained-{steps}.ckpt")
        save_checkpoint(model, ckpt)
        return dataclasses.replace(config, checkpoint_file=ckpt)
    return make


def strip_wallclock(d: dict) -> dict:
    d = dict(d)
    d.pop("wallclock_s", None)
    return d


def test_run_record_reproducible(tmp_path):
    config = tiny_experiment(tmp_path)
    rec1 = run_one(config, seed=0)
    rec2 = run_one(config, seed=0)
    a, b = strip_wallclock(json.loads(rec1.to_json())), strip_wallclock(json.loads(rec2.to_json()))
    assert a == b
    assert rec1.test_nrmse == pytest.approx(rec2.test_nrmse, abs=1e-6)


def test_run_one_checks_the_doubled_frame_length_before_reading_the_checkpoint(tmp_path):
    # the checkpoint file does not exist: reading it would raise DataFileError
    config = tiny_experiment(tmp_path, bidir_method="sequence_doubling",
                             checkpoint_file=str(tmp_path / "missing.ckpt"),
                             max_positions=63)  # one short of twice the 32 points
    with pytest.raises(LengthError, match="max_positions >= 64"):
        run_one(config, seed=0)
    assert not (tmp_path / "records").exists()


def test_run_one_checks_the_orca_corpus_length_before_reading_the_checkpoint(tmp_path):
    # the corpus's longest sequence decides the length ORCA's proxy build needs
    config = tiny_experiment(tmp_path, method="orca", max_positions=32,
                             checkpoint_file=str(tmp_path / "missing.ckpt"))
    corpus = load_corpus(config.corpus_file)
    tokens, tags = corpus.sequences[0]
    long = (np.resize(tokens, 48), np.resize(tags, 48))
    save_corpus(dataclasses.replace(corpus, sequences=[*corpus.sequences, long]),
                config.corpus_file)
    with pytest.raises(LengthError, match="ORCA's proxy corpus needs max_positions >= 48, "
                                          "got max_positions=32"):
        run_one(config, seed=0)
    assert not (tmp_path / "records").exists()


def test_run_record_persisted_and_loadable(tmp_path):
    config = tiny_experiment(tmp_path)
    rec = run_one(config, seed=0)
    path = record_path(config, 0)
    with open(path) as fh:
        loaded = json.load(fh)
    assert loaded["schema_version"] == 1
    assert loaded["test_nrmse"] == rec.test_nrmse
    assert loaded["config"]["name"] == config.name


@pytest.mark.parametrize("bidir_method", ["none", "sequence_doubling", "parallel_flipping"])
def test_record_nrmse_equals_fresh_predictions(tmp_path, monkeypatch, bidir_method):
    # the record is scored by run_one's final evaluation; predicting the test
    # split again with the trained pipelines must give the same bits
    config = tiny_experiment(tmp_path, bidir_method=bidir_method)
    made, make = [], experiments._make_pipeline

    def keep(*args, **kwargs):
        made.append(make(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(experiments, "_make_pipeline", keep)
    rec = run_one(config, seed=0)
    test = load_dataset(config.dataset_file).test
    if bidir_method == "parallel_flipping":
        pair = FlipPair(*made)
        preds = [pair.predict(x[None])[0] for x in test.inputs]
    else:
        (p,) = made
        with T.no_grad():
            preds = [predict_sequence(p.model, p.embedder, p.predictor, x[None],
                                      bidir_method=bidir_method).data[0] for x in test.inputs]
    assert rec.test_nrmse == float(np.mean([instance_nrmse(q, y)
                                            for q, y in zip(preds, test.targets)]))


@pytest.mark.parametrize("method", ["fpt", "orca"])
@pytest.mark.parametrize("bidir_method", ["none", "sequence_doubling", "parallel_flipping"])
def test_run_one_evaluates_once_after_adaptation(tmp_path, monkeypatch, method, bidir_method):
    calls, trained, evaluate = [], [], experiments.evaluate_nrmse

    def counted(*args, **kwargs):
        calls.append(len(trained))  # the reports run_adaptation returned so far
        return evaluate(*args, **kwargs)

    def adapt(run):
        def wrapped(*args, **kwargs):
            trained.append(run(*args, **kwargs))
            return trained[-1]
        return wrapped

    monkeypatch.setattr(experiments, "evaluate_nrmse", counted)
    monkeypatch.setattr(experiments, "run_adaptation", adapt(experiments.run_adaptation))
    monkeypatch.setattr(experiments, "parallel_flipping_train",
                        adapt(experiments.parallel_flipping_train))
    run_one(tiny_experiment(tmp_path, method=method, bidir_method=bidir_method), seed=0)
    assert calls == [1]


def test_record_file_holds_a_null_initial_nrmse(tmp_path):
    config = tiny_experiment(tmp_path)
    rec = run_one(config, seed=0)
    with open(record_path(config, 0)) as fh:
        loaded = json.load(fh)
    assert "initial_test_nrmse" in loaded and loaded["initial_test_nrmse"] is None
    assert RunRecord.from_dict(loaded) == rec


def test_parallel_flipping_record_is_scored_through_flip_pair(tmp_path, monkeypatch):
    # batch 1 over 2 test frames: two calls, both after adaptation
    outputs, predict = [], FlipPair.predict

    def counted(self, x):
        outputs.append(predict(self, x))
        return outputs[-1]

    monkeypatch.setattr(FlipPair, "predict", counted)
    config = tiny_experiment(tmp_path, bidir_method="parallel_flipping", batch_size=1)
    rec = run_one(config, seed=0)
    assert len(outputs) == 2
    test = load_dataset(config.dataset_file).test
    assert rec.test_nrmse == mean_nrmse(np.concatenate(outputs), test.targets)


def test_orca_seeds_of_one_base_model_embed_corpus_once(pretrained_experiment, proxy_forwards):
    config = pretrained_experiment(method="orca", seeds=[0, 1])
    base = load_checkpoint(config.checkpoint_file)
    run_one(config, seed=0, base_model=base)
    assert len(proxy_forwards) == 1  # tiny_experiment's 30 sequences are one chunk
    run_one(config, seed=1, base_model=base)
    assert len(proxy_forwards) == 1  # the second seed reuses the set


def test_orca_record_same_with_cached_proxy(pretrained_experiment, proxy_forwards):
    config = pretrained_experiment(method="orca")
    base = load_checkpoint(config.checkpoint_file)
    built = strip_wallclock(json.loads(run_one(config, seed=0, base_model=base).to_json()))
    n = len(proxy_forwards)
    cached = strip_wallclock(json.loads(run_one(config, seed=0, base_model=base).to_json()))
    assert len(proxy_forwards) == n  # the second run hit the slot
    assert cached == built


@pytest.mark.parametrize("pretrained", [False, True])
def test_parallel_flipping_orca_proxy_sets(tmp_path, monkeypatch, pretrained_experiment,
                                          pretrained):
    # each pipeline aligns to its own model's embedding of the corpus: a
    # random-init partner is a different model and embeds the corpus
    # differently; a clone of the pretrained base shares the forward cloud
    make = pretrained_experiment if pretrained else functools.partial(tiny_experiment, tmp_path)
    config = make(method="orca", bidir_method="parallel_flipping")
    clouds, build = [], adaptation.build_proxy_set

    def keep(*args, **kwargs):
        clouds.append(build(*args, **kwargs))
        return clouds[-1]

    monkeypatch.setattr(adaptation, "build_proxy_set", keep)
    monkeypatch.setattr(proxy_data, "_last_proxy", {})
    run_one(config, seed=0)
    fwd, rev = clouds  # forward pipeline first, then the reversed one
    if pretrained:
        assert rev.points.data is fwd.points.data
    else:
        assert fwd.points.shape == rev.points.shape
        assert not np.array_equal(fwd.points.data, rev.points.data)


def test_parallel_flipping_orca_records_both_pipelines_convergence(tmp_path, monkeypatch):
    fractions = iter([1.0, 0.0])  # the forward pipeline's stage 1, then the reversed one's

    def stage1(model, embedder, corpus, dataset, config):
        return adaptation.Stage1Report(trace=[0.5] * config.stage1_steps,
                                       converged_fraction=next(fractions))

    monkeypatch.setattr(adaptation, "orca_stage1", stage1)
    config = tiny_experiment(tmp_path, method="orca", bidir_method="parallel_flipping")
    rec = run_one(config, seed=0)
    assert sorted(rec.stage1_trace) == ["forward", "reversed"]
    assert rec.stage1_converged_fraction == 0.5


@pytest.mark.parametrize("bidir_method", ["none", "parallel_flipping"])
def test_orca_without_stage1_steps_embeds_no_corpus(tmp_path, proxy_forwards, bidir_method):
    # no Sinkhorn solve reads the cloud, and no step converged or failed to
    config = tiny_experiment(tmp_path, method="orca", bidir_method=bidir_method,
                             stage1_steps=0)
    rec = run_one(config, seed=0)
    assert proxy_forwards == []
    assert json.loads(rec.to_json())["stage1_converged_fraction"] is None


def test_random_init_never_reads_checkpoint(tmp_path, monkeypatch):
    # a config naming no checkpoint_file builds each pipeline's model from the seed
    def fail(path):
        raise AssertionError(f"opened checkpoint {path}")

    monkeypatch.setattr(experiments, "load_checkpoint", fail)
    made, make = [], experiments._make_pipeline

    def keep(config, base, seed, role):
        made.append(make(config, base, seed, role))
        return made[-1]

    monkeypatch.setattr(experiments, "_make_pipeline", keep)
    config = tiny_experiment(tmp_path, epochs=0)
    rec = run_one(config, seed=0)
    assert rec.config["checkpoint_file"] is None and np.isfinite(rec.test_nrmse)
    want = build_model(config.model_config(derive_seed(0, 7, 0)))
    (pipeline,) = made
    assert not pipeline.model.pretrained
    for name, p in want.params.items():
        assert np.array_equal(pipeline.model.params[name].data, p.data), name
    assert aggregate([json.loads(rec.to_json())])[0].pretrained is False


def test_base_model_must_match_config(tmp_path, pretrained_experiment):
    # a decoder-only d_model-32 checkpoint run under a config that says
    # encoder_only/64 would write a record that ``aggregate`` files under
    # the wrong arch and width
    config = pretrained_experiment()
    base = load_checkpoint(config.checkpoint_file)
    wrong = dataclasses.replace(config, arch="encoder_only", d_model=64)
    with pytest.raises(ContractError, match=r"arch 'decoder_only' \(config: 'encoder_only'\), "
                                            r"d_model 32 \(config: 64\)$"):
        run_one(wrong, seed=0)
    # a config without a checkpoint_file builds its own models: a base model
    # given beside it would run in its place
    with pytest.raises(ContractError, match="'exp' names no checkpoint_file.*no base_model"):
        run_one(dataclasses.replace(config, checkpoint_file=None), seed=0, base_model=base)
    assert not (tmp_path / "records").exists()
    # the model's own seed is not compared: a checkpoint keeps its pretraining
    # seed, which no config field names
    assert base.config.seed == 1234
    assert np.isfinite(run_one(config, seed=0).test_nrmse)


def test_zero_pretraining_steps_do_not_make_a_pretrained_record(pretrained_experiment):
    # a checkpoint of the initial weights would make a record that says
    # pretrained over a random-init run
    config = pretrained_experiment(steps=0)
    with pytest.raises(ContractError, match=r"pretrained-0\.ckpt holds a model of 0 "
                                            r"pretraining steps \(pretrained: false\)"):
        run_one(config, seed=0)
    base = load_checkpoint(config.checkpoint_file)  # nor given as the base model
    with pytest.raises(ContractError, match="0 pretraining steps"):
        run_one(config, seed=0, base_model=base)
    assert not os.path.exists(config.out_dir)


@pytest.mark.parametrize("method", ["fpt", "orca"])
@pytest.mark.parametrize("bidir_method", ["none", "parallel_flipping", "sequence_doubling"])
@pytest.mark.parametrize("pretrained", [True, False], ids=["checkpoint", "random_init"])
def test_run_one_opens_every_input_its_record_names(tmp_path, monkeypatch, pretrained_experiment,
                                                    method, bidir_method, pretrained):
    make = pretrained_experiment if pretrained else functools.partial(tiny_experiment, tmp_path)
    config = make(method=method, bidir_method=bidir_method)
    opened = []
    for module in (pde_data, proxy_data, transformer):  # each loader's own name for it
        read = module.read_container
        monkeypatch.setattr(module, "read_container",
                            lambda path, read=read: opened.append(str(path)) or read(path))
    monkeypatch.setattr(proxy_data, "_last_proxy", {})
    rec = run_one(config, seed=0)
    named = [rec.config[k] for k in ("dataset_file", "checkpoint_file", "corpus_file")]
    assert sorted(opened) == sorted(path for path in named if path is not None)
    assert len(opened) == 2 + (method == "orca") - (not pretrained)


def test_orca_requires_corpus_file(tmp_path):
    # stage 1 embeds the corpus as its proxy dataset: the config fails when it
    # loads, before a job reads the dataset
    with pytest.raises(ContractError, match="an ORCA run needs corpus_file"):
        tiny_experiment(tmp_path, method="orca", corpus_file=None)
    with pytest.raises(ContractError, match="an ORCA run needs corpus_file"):
        ExperimentConfig.from_dict({**_MINIMAL, "method": "orca"})


def test_missing_dataset_file_named(tmp_path):
    config = tiny_experiment(tmp_path)
    config.dataset_file = str(tmp_path / "nope.bin")
    with pytest.raises(DataFileError, match="nope.bin"):
        run_one(config, seed=0)


def test_a_failed_record_write_leaves_no_temp_file(tmp_path, monkeypatch):
    config = tiny_experiment(tmp_path)

    def fail(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="rename failed"):
        run_one(config, seed=0)
    assert os.listdir(config.out_dir) == []


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
def test_written_files_take_their_mode_from_the_umask(tmp_path, umask, mode):
    # containers, records and the table all go through container.write_atomic,
    # whose temp file mkstemp creates 0600
    old = os.umask(umask)
    try:
        config = tiny_experiment(tmp_path)  # writes the dataset and corpus containers
        run_one(config, seed=0)
        table_to_csv(aggregate(load_records(config.out_dir)), tmp_path / "table.csv")
    finally:
        os.umask(old)
    for path in (config.dataset_file, record_path(config, 0), tmp_path / "table.csv"):
        assert oct(os.stat(path).st_mode & 0o777) == oct(mode), path


def test_run_experiment_multi_seed_stats(tmp_path):
    config = tiny_experiment(tmp_path, seeds=[0, 1, 2])
    records = run_experiment(config, workers=1)
    assert len(records) == 3
    rows = aggregate([json.loads(r.to_json()) for r in records])
    assert len(rows) == 1
    row = rows[0]
    assert row.seed_count == 3
    assert row.nrmse_min <= row.nrmse_mean <= row.nrmse_max


def test_two_workers_match_one_worker(pretrained_experiment):
    # every worker loads the config's checkpoint and writes its record; the
    # pool writes no file of its own
    config = pretrained_experiment(seeds=[0, 1])
    serial = run_experiment(config, workers=1)
    pooled = run_experiment(config, workers=2)
    assert sorted(os.listdir(config.out_dir)) == ["exp_seed0.json", "exp_seed1.json"]
    for a, b in zip(serial, pooled):
        assert a.config == b.config == config.to_dict()
        assert strip_wallclock(dataclasses.asdict(a)) == strip_wallclock(dataclasses.asdict(b))


@pytest.mark.parametrize("workers", [0, -1])
def test_run_experiment_rejects_fewer_than_one_worker(tmp_path, workers):
    config = tiny_experiment(tmp_path)
    with pytest.raises(ContractError, match="workers"):
        run_experiment(config, workers=workers)
    assert not (tmp_path / "records").exists()


def test_run_one_record_is_bit_identical_at_one_and_two_blas_threads(monkeypatch,
                                                                     pretrained_experiment):
    if T._openblas_threads() is None:
        pytest.skip("no OpenBLAS thread setter is loaded")
    config = pretrained_experiment(d_model=64, d_ff=256)
    # let the outer scope decide the pool width for the d_model-64 model
    monkeypatch.setattr(experiments, "blas_threads", lambda n: contextlib.nullcontext())
    records = []
    for n in (1, 2):
        with T.blas_threads(n):
            assert T._openblas_threads()[0]() == n
            records.append(strip_wallclock(json.loads(run_one(config, seed=0).to_json())))
    assert records[0] == records[1]


@dataclass
class _Stub:
    threads: int


@pytest.mark.parametrize("d_model", [64, 256])
def test_jobs_run_on_one_blas_thread_at_any_width(tmp_path, monkeypatch, d_model):
    if T._openblas_threads() is None:
        pytest.skip("no OpenBLAS thread setter is loaded")
    get_threads = T._openblas_threads()[0]
    monkeypatch.setattr(experiments, "_run_one", lambda *a: _Stub(get_threads()))
    config = tiny_experiment(tmp_path, d_model=d_model)
    with T.blas_threads(2):
        assert run_one(config, seed=0).threads == 1
        assert get_threads() == 2


def test_sequence_doubling_keeps_batch_size(tmp_path):
    config = tiny_experiment(tmp_path, bidir_method="sequence_doubling", batch_size=16)
    assert config.batch_size == 16
    rec = run_one(config, seed=0)
    assert rec.config["batch_size"] == 16


def test_aggregate_means_are_exact(tmp_path):
    config = tiny_experiment(tmp_path, seeds=[0, 1])
    records = [json.loads(r.to_json()) for r in run_experiment(config, workers=1)]
    rows = aggregate(records)
    scores = np.array([r["test_nrmse"] for r in records], dtype=np.float64)
    assert rows[0].nrmse_mean == float(scores.sum() / 2)


def test_load_records_round_trip(tmp_path):
    config = tiny_experiment(tmp_path, seeds=[0, 1])
    run_experiment(config, workers=1)
    records = load_records(config.out_dir)
    assert len(records) == 2
    assert {r["seed"] for r in records} == {0, 1}


def test_records_with_the_deleted_recipe_keys_still_aggregate(tmp_path):
    # a record written while the ORCA recipe, the optimizer and in-process
    # pretraining were config fields holds them in its config snapshot, and
    # optimizer_overridden
    config = tiny_experiment(tmp_path, seeds=[0, 1])
    run_experiment(config, workers=1)
    want = aggregate(load_records(config.out_dir))
    old_keys = {"optimizer": None, "weight_decay": 0.01, "stage1_lr": 3e-3,
                "stage1_batch_instances": 8, "otdd_batch": 128, "pseudo_label_bins": 10,
                "sinkhorn_max_iters": 300, "pretrain_steps": 1500, "pretrain_lr": 1e-3,
                "pretrain_batch": 8, "pretrain_seed": 1234}
    for seed in config.seeds:
        path = record_path(config, seed)
        with open(path) as fh:
            rec = json.load(fh)
        rec["config"].update(old_keys)
        rec["optimizer_overridden"] = False
        with open(path, "w") as fh:
            json.dump(rec, fh)
    records = load_records(config.out_dir)
    assert all(r["config"]["otdd_batch"] == 128 and r["config"]["pretrain_steps"] == 1500
               and "optimizer_overridden" in r for r in records)
    assert aggregate(records) == want


_GROUPS = ('"arch": "decoder_only", "d_model": 8, "n_layers": 1, "pretrained": false, '
           '"method": "fpt", "bidir_method": "none"')


@pytest.mark.parametrize("text", [
    '{"schema_version": 1, "bogus": 1}',
    '{"schema_version": 99, "config": {}, "family": "x", "test_nrmse": 0.5}',
    '[1, 2]',
    'not json',
    b'\xff\xfe{}',
    '{"schema_version": 1, "config": {}, "family": "x", "test_nrmse": 0.5, "wallclock_s": 1}',
    '{"schema_version": 1, "config": [1], "family": "x", "test_nrmse": 0.5, "wallclock_s": 1}',
    '{"schema_version": 1, "config": {' + _GROUPS + '}, "family": "x", "test_nrmse": 0.5}',
    '{"schema_version": 1, "config": {' + _GROUPS + '}, "family": "x", "test_nrmse": 0.5, '
    '"wallclock_s": 1, "aborted": "false"}',
], ids=["missing_fields", "other_schema", "not_an_object", "not_json", "not_utf8",
        "config_lacks_group_keys", "config_not_an_object", "missing_wallclock",
        "aborted_not_a_bool"])
def test_load_records_rejects_foreign_json(tmp_path, text):
    config = tiny_experiment(tmp_path)
    run_one(config, seed=0)
    data = text if isinstance(text, bytes) else text.encode()
    (tmp_path / "records" / "zz_foreign.json").write_bytes(data)
    with pytest.raises(DataFileError, match="zz_foreign.json"):
        load_records(config.out_dir)


# -- experiment config ----------------------------------------------------------

_MINIMAL = {"name": "x", "dataset_file": "x.bin", "out_dir": "out", "method": "fpt"}


# the fields an experiment holds beside its model's and its adaptation's; a
# new experiment option has to be added here on purpose
_EXPERIMENT_ONLY = {"name", "dataset_file", "out_dir", "checkpoint_file", "corpus_file",
                    "seeds"}


def test_experiment_config_holds_every_adaptation_and_model_field():
    shared = {f.name for cls in (AdaptationConfig, ModelConfig)
              for f in dataclasses.fields(cls)} - {"seed"}
    assert not shared & _EXPERIMENT_ONLY
    assert {f.name for f in dataclasses.fields(ExperimentConfig)} == shared | _EXPERIMENT_ONLY
    assert len(dataclasses.fields(ExperimentConfig)) == 19


def test_adaptation_config_holds_one_recipe():
    # ORCA stage 1's recipe and the family's optimizer are module constants,
    # not fields: a new adaptation option has to be added here on purpose
    assert {f.name for f in dataclasses.fields(AdaptationConfig)} == {
        "method", "bidir_method", "learning_rate", "epochs", "batch_size", "stage1_steps",
        "seed"}


def test_each_shared_default_has_one_value():
    # a model or recipe default is stated once, in ModelConfig or
    # AdaptationConfig, and the experiment's field of that name takes it
    # (ModelConfig.arch has no default); every Sinkhorn caller states its
    # epsilon and iteration cap
    experiment = {f.name: f.default for f in dataclasses.fields(ExperimentConfig)}
    shared = {f.name: f.default for cls in (ModelConfig, AdaptationConfig)
              for f in dataclasses.fields(cls)
              if f.name in experiment and f.default is not dataclasses.MISSING}
    assert len(shared) == 12
    assert [k for k, v in shared.items() if experiment[k] != v] == []
    sinkhorn = {f.name: f.default for f in dataclasses.fields(SinkhornParams)}
    assert sinkhorn["epsilon"] is sinkhorn["max_iters"] is dataclasses.MISSING


def test_derived_configs_take_every_shared_field():
    config = ExperimentConfig(**_MINIMAL, learning_rate=0.25, stage1_steps=7,
                              vocab_size=32, arch="encoder_only", batch_size=7)
    for derived, seed in ((config.adaptation_config(7), 7), (config.model_config(9), 9)):
        for f in dataclasses.fields(derived):
            want = seed if f.name == "seed" else getattr(config, f.name)
            assert getattr(derived, f.name) == want, f.name


@pytest.mark.parametrize("key, value, error, match", [
    ("n_heads", 5, ConfigError, "n_heads=5"),
    ("arch", "rnn", ConfigError, "rnn"),
    ("d_ff", 0, ConfigError, "d_ff"),
    ("method", "lora", ContractError, "lora"),
    ("bidir_method", "both", ContractError, "both"),
    *((key, value, ContractError, key) for key, value in (
        # stage1_batch_instances, otdd_batch, sinkhorn_max_iters, pseudo_label_bins,
        # optimizer, stage1_lr and weight_decay are fields no more: each is an
        # unknown key now, rejected by name whatever its value
        ("epochs", -3), ("stage1_steps", -1), ("batch_size", 0), ("stage1_batch_instances", 0),
        ("otdd_batch", 0), ("sinkhorn_max_iters", 0), ("pseudo_label_bins", 1),
        ("optimizer", "foo"), ("learning_rate", 0), ("learning_rate", -1e-3),
        ("stage1_lr", 0.0), ("weight_decay", -0.01), ("weight_decay", float("nan")))),
    # two jobs of one seed would write one record file
    ("seeds", [], ContractError, "seeds"),
    ("seeds", [1, 2, 1], ContractError, "seeds"),
    # a run pretrains no model itself now: the four pretraining keys are
    # unknown keys, rejected by name whatever their value
    *((key, value, ContractError, key) for key, value in (
        ("pretrain_steps", -1), ("pretrain_batch", 0), ("pretrain_lr", 0.0),
        ("pretrain_lr", -1e-3), ("pretrain_lr", float("nan")))),
    # a job derives its model and pipeline seeds from a non-negative seed
    ("seeds", [0, -5], ContractError, "seeds"),
    # a record is written to out_dir/<name>_seed<seed>.json, and load_records
    # reads out_dir alone
    *(("name", value, ContractError, "name .* must be a non-empty file name")
      for value in ("", "grp/a", "/a")),
    # JSON's Infinity and 1e400 both load as inf
    pytest.param("learning_rate", float("inf"), ContractError, "learning_rate",
                 id="learning_rate-Infinity"),
    pytest.param("learning_rate", 1e400, ContractError, "learning_rate",
                 id="learning_rate-1e400"),
])
def test_bad_model_or_adaptation_value_fails_when_config_loads(key, value, error, match):
    with pytest.raises(error, match=match):
        ExperimentConfig.from_dict({**_MINIMAL, key: value})


def test_adaptation_config_accepts_its_floors():
    AdaptationConfig(method="fpt", epochs=0, stage1_steps=0, batch_size=1, learning_rate=1e-9,
                     seed=0)


@pytest.mark.parametrize("key, value", [
    ("epochs", "2"), ("epochs", 2.0), ("epochs", True), ("seeds", 3), ("seeds", [0, "1"]),
    ("corpus_file", 3), ("learning_rate", "1e-3"), ("method", 3), ("name", None),
    ("checkpoint_file", ["a"]),
])
def test_from_dict_rejects_mistyped_values(key, value):
    with pytest.raises(ContractError, match=f"key '{key}' must be"):
        ExperimentConfig.from_dict({**_MINIMAL, key: value})


def test_from_dict_accepts_json_values():
    config = ExperimentConfig.from_dict({**_MINIMAL, "learning_rate": 1, "corpus_file": None,
                                         "checkpoint_file": "m.ckpt", "seeds": [7]})
    assert config.learning_rate == 1 and config.seeds == [7]
    assert ExperimentConfig.from_dict(config.to_dict()) == config


@pytest.mark.parametrize("value", [True, False, 1])
def test_pretrained_key_is_rejected_by_name(value):
    # a run is pretrained exactly when its config names a checkpoint_file
    with pytest.raises(ContractError, match="unknown experiment config keys: pretrained$"):
        ExperimentConfig.from_dict({**_MINIMAL, "pretrained": value})


def test_fpt_config_naming_a_corpus_is_rejected():
    # only ORCA's stage 1 reads the corpus: a record of an FPT run naming one
    # would name a file the run never opened
    with pytest.raises(ContractError, match="corpus_file 'c.bin' is ORCA's proxy corpus, "
                                            "which a 'fpt' run never reads"):
        ExperimentConfig.from_dict({**_MINIMAL, "method": "fpt", "corpus_file": "c.bin"})
    orca = {k: v for k, v in _MINIMAL.items() if k != "method"}  # the default method
    assert ExperimentConfig.from_dict({**orca, "corpus_file": "c.bin"}).method == "orca"


@pytest.mark.parametrize("d, match", [({"name": "x"}, "missing .*dataset_file, out_dir"),
                                      ([1, 2], "JSON object")])
def test_from_dict_rejects_missing_keys_and_non_objects(d, match):
    with pytest.raises(ContractError, match=match):
        ExperimentConfig.from_dict(d)


# -- table CSV ---------------------------------------------------------------


def _old_record(family, nrmse, wallclock_s, **config):
    """A record as written before the checkpoint decided pretraining: its
    config holds the ``pretrained`` flag beside ``checkpoint_file``."""
    cfg = {"arch": "decoder_only", "d_model": 32, "n_layers": 2, "pretrained": True,
           "checkpoint_file": "dec.ckpt", "method": "fpt", "bidir_method": "none", **config}
    return {"schema_version": 1, "config": cfg, "family": family, "test_nrmse": nrmse,
            "wallclock_s": wallclock_s}


def _new_record(rec):
    return {**rec, "config": {k: v for k, v in rec["config"].items() if k != "pretrained"}}


_GOLDEN_RECORDS = [
    _old_record("advection", 0.1, 1.5),
    _old_record("advection", 0.2, 2.25),
    _old_record("advection", 0.7, 3.0, pretrained=False, checkpoint_file=None),
    _old_record("advection", 1.0 / 3.0, 0.125, arch="encoder_only", checkpoint_file="enc.ckpt"),
    _old_record("burgers_ns", 12.5, 4, bidir_method="parallel_flipping", method="orca"),
    _old_record("burgers_ns", 2e-05, 7, bidir_method="parallel_flipping", method="orca"),
    _old_record("diffusion_sorption", 0.115, 9.75, d_model=64, n_layers=4,
                bidir_method="sequence_doubling"),
]

# ``table_to_csv(aggregate(_GOLDEN_RECORDS))`` as written while the table had
# one hand-written column list and row build
_GOLDEN_CSV = (
    b"dataset,arch,d_model,n_layers,pretrained,method,bidir_method,seed_count,nrmse_mean,"
    b"nrmse_min,nrmse_max,wallclock_s\r\n"
    b"advection,decoder_only,32,2,false,fpt,none,1,0.7,0.7,0.7,3.0\r\n"
    b"advection,decoder_only,32,2,true,fpt,none,2,0.15000000000000002,0.1,0.2,1.875\r\n"
    b"advection,encoder_only,32,2,true,fpt,none,1,0.3333333333333333,0.3333333333333333,"
    b"0.3333333333333333,0.125\r\n"
    b"burgers_ns,decoder_only,32,2,true,orca,parallel_flipping,2,6.25001,2e-05,12.5,5.5\r\n"
    b"diffusion_sorption,decoder_only,64,4,true,fpt,sequence_doubling,1,0.115,0.115,0.115,"
    b"9.75\r\n"
)


@pytest.mark.parametrize("shape", [lambda r: r, _new_record], ids=["old", "new"])
def test_table_csv_matches_the_golden_bytes(tmp_path, shape):
    # records without the flag take it from whether they name a checkpoint
    path = tmp_path / "table.csv"
    table_to_csv(aggregate([shape(r) for r in _GOLDEN_RECORDS]), path)
    assert path.read_bytes() == _GOLDEN_CSV


@pytest.mark.parametrize("target", ["astuple", "replace"], ids=["row", "rename"])
def test_a_failed_table_write_leaves_the_old_csv(tmp_path, monkeypatch, target):
    # a row that fails after the header, or a failed rename, leaves the old
    # table whole and no temp file beside it
    path = tmp_path / "table.csv"
    path.write_bytes(b"old table\r\n")

    def fail(*args):
        raise OSError(f"{target} failed")

    monkeypatch.setattr(experiments if target == "astuple" else os, target, fail)
    with pytest.raises(OSError, match=f"{target} failed"):
        table_to_csv(aggregate(_GOLDEN_RECORDS), path)
    assert os.listdir(tmp_path) == ["table.csv"]
    assert path.read_bytes() == b"old table\r\n"


def test_old_and_new_records_aggregate_into_one_row_each():
    # an old in-process-pretrained record named no checkpoint, and an old
    # random-init record could name one it never read: their flag decides
    records = [_old_record("advection", 0.25, 1.0, checkpoint_file=None),
               _new_record(_old_record("advection", 0.75, 3.0)),
               _old_record("advection", 0.5, 2.0, pretrained=False),
               _new_record(_old_record("advection", 1.0, 4.0, checkpoint_file=None))]
    rows = aggregate(records)
    assert [(r.pretrained, r.seed_count, r.nrmse_mean, r.wallclock_s) for r in rows] == [
        (False, 2, 0.75, 3.0), (True, 2, 0.5, 2.0)]
