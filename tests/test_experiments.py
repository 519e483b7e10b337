import contextlib
import dataclasses
import json
import xml.etree.ElementTree as ET
from dataclasses import dataclass

import numpy as np
import pytest

from crossmodal_pde import adaptation, experiments, proxy_data
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
    ResultsTable,
    RunRecord,
    TableRow,
    aggregate,
    load_records,
    record_path,
    run_experiment,
    run_one,
    spikiness_diagnostic,
    table_from_csv,
    table_to_csv,
)
from crossmodal_pde.figures import emit_figure
from crossmodal_pde.pde_data import GridSpec, build_dataset, load_dataset
from crossmodal_pde.proxy_data import gen_corpus, save_corpus
from crossmodal_pde.tensor import ContractError
from crossmodal_pde.transformer import ConfigError, ModelConfig, save_checkpoint


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
    dataset_file = str(tmp_path / "adv.bin")
    build_dataset("advection", 6, 2, GridSpec(n_x=32, t_out=0.5), seed=5,
                  out_path=dataset_file)
    corpus_file = str(tmp_path / "corpus.bin")
    save_corpus(gen_corpus(seed=3, n_sequences=30), corpus_file)
    base = dict(name=name, dataset_file=dataset_file, out_dir=str(tmp_path / "records"),
                arch="decoder_only", d_model=32, n_heads=4, n_layers=2, d_ff=64,
                max_positions=64, pretrained=False, corpus_file=corpus_file,
                method="fpt", epochs=2, batch_size=4, stage1_steps=3, otdd_batch=32,
                sinkhorn_max_iters=100, pretrain_steps=30, seeds=[0])
    base.update(overrides)
    return ExperimentConfig(**base)


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
    # the record is scored from finetune's final evaluation; predicting the
    # test split again with the trained pipelines must give the same bits
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


@pytest.mark.parametrize("bidir_method", ["none", "sequence_doubling", "parallel_flipping"])
def test_initial_nrmse_scores_the_same_predictor_as_test_nrmse(tmp_path, bidir_method):
    # with no training step the initial and final predictors are one and the
    # same; for Parallel Flipping that is both pipelines' combined halves
    config = tiny_experiment(tmp_path, bidir_method=bidir_method, epochs=0)
    rec = run_one(config, seed=0)
    assert rec.initial_test_nrmse == rec.test_nrmse


def test_orca_seeds_of_one_base_model_embed_corpus_once(tmp_path, proxy_forwards):
    config = tiny_experiment(tmp_path, method="orca", pretrained=True, seeds=[0, 1])
    base = experiments._prepare_base_model(config)
    run_one(config, seed=0, base_model=base)
    assert len(proxy_forwards) == 1  # tiny_experiment's 30 sequences are one chunk
    run_one(config, seed=1, base_model=base)
    assert len(proxy_forwards) == 1  # the second seed reuses the set


def test_orca_record_same_with_cached_proxy(tmp_path, proxy_forwards):
    config = tiny_experiment(tmp_path, method="orca", pretrained=True)
    base = experiments._prepare_base_model(config)
    built = strip_wallclock(json.loads(run_one(config, seed=0, base_model=base).to_json()))
    n = len(proxy_forwards)
    cached = strip_wallclock(json.loads(run_one(config, seed=0, base_model=base).to_json()))
    assert len(proxy_forwards) == n  # the second run hit the slot
    assert cached == built


@pytest.mark.parametrize("pretrained", [False, True])
def test_parallel_flipping_orca_proxy_sets(tmp_path, monkeypatch, pretrained):
    # each pipeline aligns to its own model's embedding of the corpus: a
    # random-init partner is a different model and embeds the corpus
    # differently; a clone of the pretrained base shares the forward cloud
    config = tiny_experiment(tmp_path, method="orca", bidir_method="parallel_flipping",
                             pretrained=pretrained)
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


def test_random_init_never_reads_checkpoint(tmp_path):
    config = tiny_experiment(tmp_path, pretrained=False,
                             checkpoint_file=str(tmp_path / "missing.ckpt"))
    rec = run_one(config, seed=0)  # would raise if the checkpoint were opened
    assert np.isfinite(rec.test_nrmse)


def test_base_model_must_match_config(tmp_path):
    # a decoder-only d_model-32 checkpoint run under a config that says
    # encoder_only/64 would write a record that ``aggregate`` files under
    # the wrong arch and width
    config = tiny_experiment(tmp_path, pretrained=True, pretrain_steps=3)
    base = experiments._prepare_base_model(config)
    ckpt = str(tmp_path / "dec32.ckpt")
    save_checkpoint(base, ckpt)
    wrong = dataclasses.replace(config, arch="encoder_only", d_model=64, checkpoint_file=ckpt)
    with pytest.raises(ContractError, match=r"arch 'decoder_only' \(config: 'encoder_only'\), "
                                            r"d_model 32 \(config: 64\)$"):
        run_one(wrong, seed=0)
    with pytest.raises(ContractError, match=r": pretrained True \(config: False\)$"):
        run_one(dataclasses.replace(config, pretrained=False), seed=0, base_model=base)
    assert not (tmp_path / "records").exists()
    # the model's own seed is not compared: a checkpoint keeps its pretraining seed
    same = dataclasses.replace(config, checkpoint_file=ckpt, pretrain_seed=base.config.seed + 1)
    assert np.isfinite(run_one(same, seed=0).test_nrmse)


def test_zero_pretraining_steps_do_not_make_a_pretrained_record(tmp_path):
    config = tiny_experiment(tmp_path, pretrained=True, pretrain_steps=0)
    with pytest.raises(ContractError, match=r"pretrained False \(config: True\)$"):
        run_one(config, seed=0)


def test_orca_requires_corpus_file(tmp_path):
    config = tiny_experiment(tmp_path, method="orca", corpus_file=None)
    with pytest.raises(DataFileError):
        run_one(config, seed=0)


def test_missing_dataset_file_named(tmp_path):
    config = tiny_experiment(tmp_path)
    config.dataset_file = str(tmp_path / "nope.bin")
    with pytest.raises(DataFileError, match="nope.bin"):
        run_one(config, seed=0)


def test_run_experiment_multi_seed_stats(tmp_path):
    config = tiny_experiment(tmp_path, seeds=[0, 1, 2])
    records = run_experiment(config)
    assert len(records) == 3
    table = aggregate([json.loads(r.to_json()) for r in records])
    assert len(table.rows) == 1
    row = table.rows[0]
    assert row.seed_count == 3
    assert row.nrmse_min <= row.nrmse_mean <= row.nrmse_max


def test_two_workers_match_one_worker(tmp_path):
    # the materialised checkpoint reaches the workers beside the config, so
    # the records' config snapshots stay as written
    config = tiny_experiment(tmp_path, pretrained=True, pretrain_steps=3, seeds=[0, 1])
    serial = run_experiment(config, workers=1)
    pooled = run_experiment(config, workers=2)
    assert config.checkpoint_file is None
    for a, b in zip(serial, pooled):
        assert a.config == b.config == config.to_dict()
        assert a.test_nrmse == b.test_nrmse


@pytest.mark.parametrize("workers", [0, -1])
def test_run_experiment_rejects_fewer_than_one_worker(tmp_path, workers):
    config = tiny_experiment(tmp_path)
    with pytest.raises(ContractError, match="workers"):
        run_experiment(config, workers=workers)
    assert not (tmp_path / "records").exists()


def test_run_one_record_is_bit_identical_at_one_and_two_blas_threads(tmp_path, monkeypatch):
    if T._openblas_threads() is None:
        pytest.skip("no OpenBLAS thread setter is loaded")
    # let the outer scope decide the pool width for the d_model-64 model
    monkeypatch.setattr(experiments, "blas_threads", lambda n: contextlib.nullcontext())
    config = tiny_experiment(tmp_path, d_model=64, d_ff=256, pretrained=True,
                             pretrain_steps=3)
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
        assert experiments._run_job((config.to_dict(), 0, None)) == {"threads": 1}
        assert get_threads() == 2


def test_sequence_doubling_keeps_batch_size(tmp_path):
    config = tiny_experiment(tmp_path, bidir_method="sequence_doubling", batch_size=16)
    assert config.batch_size == 16
    rec = run_one(config, seed=0)
    assert rec.config["batch_size"] == 16


def test_aggregate_means_are_exact(tmp_path):
    config = tiny_experiment(tmp_path, seeds=[0, 1])
    records = [json.loads(r.to_json()) for r in run_experiment(config)]
    table = aggregate(records)
    scores = np.array([r["test_nrmse"] for r in records], dtype=np.float64)
    assert table.rows[0].nrmse_mean == float(scores.sum() / 2)


def test_load_records_round_trip(tmp_path):
    config = tiny_experiment(tmp_path, seeds=[0, 1])
    run_experiment(config)
    records = load_records(config.out_dir)
    assert len(records) == 2
    assert {r["seed"] for r in records} == {0, 1}


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
], ids=["missing_fields", "other_schema", "not_an_object", "not_json", "not_utf8",
        "config_lacks_group_keys", "config_not_an_object", "missing_wallclock"])
def test_load_records_rejects_foreign_json(tmp_path, text):
    config = tiny_experiment(tmp_path)
    run_one(config, seed=0)
    data = text if isinstance(text, bytes) else text.encode()
    (tmp_path / "records" / "zz_foreign.json").write_bytes(data)
    with pytest.raises(DataFileError, match="zz_foreign.json"):
        load_records(config.out_dir)


# -- experiment config ----------------------------------------------------------

_MINIMAL = {"name": "x", "dataset_file": "x.bin", "out_dir": "out"}


# the fields an experiment holds beside its model's and its adaptation's; a
# new experiment option has to be added here on purpose
_EXPERIMENT_ONLY = {"name", "dataset_file", "out_dir", "pretrained", "checkpoint_file",
                    "corpus_file", "pretrain_steps", "pretrain_lr", "pretrain_batch",
                    "pretrain_seed", "seeds"}


def test_experiment_config_holds_every_adaptation_and_model_field():
    shared = {f.name for cls in (AdaptationConfig, ModelConfig)
              for f in dataclasses.fields(cls)} - {"seed"}
    assert not shared & _EXPERIMENT_ONLY
    assert {f.name for f in dataclasses.fields(ExperimentConfig)} == shared | _EXPERIMENT_ONLY


def test_derived_configs_take_every_shared_field():
    config = ExperimentConfig(**_MINIMAL, stage1_lr=0.25, pseudo_label_bins=7,
                              vocab_size=32, arch="encoder_only", otdd_batch=7)
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
        ("epochs", -3), ("stage1_steps", -1), ("batch_size", 0), ("stage1_batch_instances", 0),
        ("otdd_batch", 0), ("sinkhorn_max_iters", 0), ("pseudo_label_bins", 1),
        ("optimizer", "foo"), ("learning_rate", 0), ("learning_rate", -1e-3),
        ("stage1_lr", 0.0), ("weight_decay", -0.01), ("weight_decay", float("nan")))),
    # two jobs of one seed would write one record file
    ("seeds", [], ContractError, "seeds"),
    ("seeds", [1, 2, 1], ContractError, "seeds"),
    *((key, value, ContractError, key) for key, value in (
        ("pretrain_steps", -1), ("pretrain_batch", 0), ("pretrain_lr", 0.0),
        ("pretrain_lr", -1e-3), ("pretrain_lr", float("nan")))),
])
def test_bad_model_or_adaptation_value_fails_when_config_loads(key, value, error, match):
    with pytest.raises(error, match=match):
        ExperimentConfig.from_dict({**_MINIMAL, key: value})


def test_adaptation_config_accepts_its_floors():
    AdaptationConfig(epochs=0, stage1_steps=0, batch_size=1, stage1_batch_instances=1,
                     otdd_batch=1, sinkhorn_max_iters=1, pseudo_label_bins=2,
                     optimizer="sgd", learning_rate=1e-9, stage1_lr=1e-9, weight_decay=0.0)


@pytest.mark.parametrize("key, value", [
    ("epochs", "2"), ("epochs", 2.0), ("epochs", True), ("seeds", 3), ("seeds", [0, "1"]),
    ("pretrained", 1), ("learning_rate", "1e-3"), ("optimizer", 3), ("name", None),
    ("checkpoint_file", ["a"]),
])
def test_from_dict_rejects_mistyped_values(key, value):
    with pytest.raises(ContractError, match=f"key '{key}' must be"):
        ExperimentConfig.from_dict({**_MINIMAL, key: value})


def test_from_dict_accepts_json_values():
    config = ExperimentConfig.from_dict({**_MINIMAL, "learning_rate": 1, "weight_decay": 0,
                                         "optimizer": None, "checkpoint_file": "m.ckpt",
                                         "seeds": [7]})
    assert config.learning_rate == 1 and config.seeds == [7]
    assert ExperimentConfig.from_dict(config.to_dict()) == config


@pytest.mark.parametrize("d, match", [({"name": "x"}, "missing .*dataset_file, out_dir"),
                                      ([1, 2], "JSON object")])
def test_from_dict_rejects_missing_keys_and_non_objects(d, match):
    with pytest.raises(ContractError, match=match):
        ExperimentConfig.from_dict(d)


# -- table CSV ---------------------------------------------------------------


def sample_table():
    return ResultsTable(rows=[
        TableRow(dataset="advection", arch="decoder_only", d_model=64, n_layers=4,
                 pretrained=True, method="orca", bidir_method="none", seed_count=5,
                 nrmse_mean=0.5, nrmse_min=0.4, nrmse_max=0.7, wallclock_s=12.5),
        TableRow(dataset="advection", arch="encoder_only", d_model=64, n_layers=4,
                 pretrained=True, method="orca", bidir_method="none", seed_count=5,
                 nrmse_mean=0.2, nrmse_min=0.15, nrmse_max=0.3, wallclock_s=11.0),
    ])


def test_csv_round_trip(tmp_path):
    table = sample_table()
    path = tmp_path / "table.csv"
    table_to_csv(table, path)
    back = table_from_csv(path)
    assert back == table


# -- figures --------------------------------------------------------------------


def parse_svg_bars(svg: str):
    root = ET.fromstring(svg)
    ns = "{http://www.w3.org/2000/svg}"
    bars = [el for el in root.iter(f"{ns}rect") if "data-mean" in el.attrib]
    return root, bars


def test_figure_geometry_single_bar():
    table = ResultsTable(rows=[sample_table().rows[0]])
    svg = emit_figure(table)
    root, bars = parse_svg_bars(svg)
    assert len(bars) == 1
    bar = bars[0]
    assert float(bar.attrib["data-mean"]) == 0.5
    # whisker endpoints map min/max through the same linear scale as the bar top
    ns = "{http://www.w3.org/2000/svg}"
    whiskers = [el for el in root.iter(f"{ns}line") if el.attrib.get("class") == "whisker"]
    assert len(whiskers) == 1
    y_hi = float(whiskers[0].attrib["y1"])  # max value -> smaller pixel y
    y_lo = float(whiskers[0].attrib["y2"])
    bar_top = float(bar.attrib["y"])
    assert y_hi < bar_top < y_lo
    # linearity: pixel distance ratio equals value distance ratio
    mean, vmin, vmax = 0.5, 0.4, 0.7
    ratio_px = (y_lo - bar_top) / (y_lo - y_hi)
    ratio_val = (mean - vmin) / (vmax - vmin)
    assert ratio_px == pytest.approx(ratio_val, abs=0.01)


def test_figure_deterministic():
    table = sample_table()
    assert emit_figure(table) == emit_figure(table)


def test_figure_bar_order_follows_means():
    table = sample_table()
    svg = emit_figure(table)
    _, bars = parse_svg_bars(svg)
    tops = [float(b.attrib["y"]) for b in bars]
    means = [float(b.attrib["data-mean"]) for b in bars]
    # higher mean -> taller bar -> smaller top y
    assert (means[0] > means[1]) == (tops[0] < tops[1])


def test_figure_empty_table_rejected():
    with pytest.raises(ContractError):
        emit_figure(ResultsTable(rows=[]))


def test_figure_is_valid_xml():
    ET.fromstring(emit_figure(sample_table()))
