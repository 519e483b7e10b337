import json
import warnings
import xml.etree.ElementTree as ET

import pytest

from crossmodal_pde.cli import cli_main
from crossmodal_pde.container import read_container, write_container
from crossmodal_pde.experiments import CSV_COLUMNS


def test_unknown_subcommand_usage_error(capsys):
    code = cli_main(["frobnicate"])
    assert code != 0
    assert "usage" in capsys.readouterr().err.lower()


def test_missing_config_file_named(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    code = cli_main(["run", "--config", missing])
    assert code != 0
    assert "missing.json" in capsys.readouterr().err


def test_doctor_healthy_build(capsys):
    assert cli_main(["doctor"]) == 0
    out = capsys.readouterr().out
    assert "[ok] masked softmax exact zeros" in out
    assert "[ok] GELU vs float64 erf" in out


def test_gen_writes_dataset(tmp_path, capsys):
    out = str(tmp_path / "adv.bin")
    code = cli_main(["gen", "--family", "advection", "--n-train", "4", "--n-test", "2",
                     "--out", out, "--seed", "1", "--n-x", "32"])
    assert code == 0
    from crossmodal_pde.pde_data import load_dataset

    ds = load_dataset(out)
    assert len(ds.train) == 4 and len(ds.test) == 2


def test_corpus_and_embed_with(tmp_path, capsys):
    corpus_path = str(tmp_path / "corpus.bin")
    assert cli_main(["corpus", "--out", corpus_path, "--seed", "2",
                     "--n-sequences", "20"]) == 0
    ckpt = str(tmp_path / "model.ckpt")
    assert cli_main(["pretrain", "--arch", "decoder_only", "--corpus", corpus_path,
                     "--out", ckpt, "--steps", "5", "--d-model", "32", "--n-layers", "2",
                     "--d-ff", "64", "--max-positions", "64"]) == 0
    # an ORCA job embeds the corpus itself; no command writes the embedding
    proxy_path = tmp_path / "proxy.bin"
    assert cli_main(["corpus", "--out", str(proxy_path), "--seed", "2", "--n-sequences", "20",
                     "--embed-with", ckpt]) == 2
    assert "--embed-with" in capsys.readouterr().err
    assert not proxy_path.exists()


def test_corpus_tag_count_below_state_count_is_usage_error(tmp_path, capsys):
    out = tmp_path / "corpus.bin"
    assert cli_main(["corpus", "--out", str(out), "--n-sequences", "4",
                     "--tag-count", "0"]) == 3
    err = capsys.readouterr().err
    assert "tag_count" in err and "Traceback" not in err
    assert not out.exists()


def test_full_pipeline_smoke(tmp_path):
    # gen -> corpus -> pretrain -> run -> table -> plot, from seeds alone
    data = str(tmp_path / "adv.bin")
    corpus = str(tmp_path / "corpus.bin")
    ckpt = str(tmp_path / "dec.ckpt")
    records_dir = str(tmp_path / "records")
    csv_path = str(tmp_path / "table.csv")
    svg_path = str(tmp_path / "figure.svg")

    assert cli_main(["gen", "--family", "advection", "--n-train", "6", "--n-test", "2",
                     "--out", data, "--seed", "3", "--n-x", "32"]) == 0
    assert cli_main(["corpus", "--out", corpus, "--seed", "4", "--n-sequences", "30"]) == 0
    assert cli_main(["pretrain", "--arch", "decoder_only", "--corpus", corpus,
                     "--out", ckpt, "--steps", "10", "--d-model", "32", "--n-layers", "2",
                     "--d-ff", "64", "--max-positions", "64"]) == 0

    config = {
        "name": "smoke",
        "dataset_file": data,
        "out_dir": records_dir,
        "arch": "decoder_only",
        "d_model": 32,
        "n_heads": 4,
        "n_layers": 2,
        "d_ff": 64,
        "max_positions": 64,
        "pretrained": True,
        "checkpoint_file": ckpt,
        "corpus_file": corpus,
        "method": "orca",
        "epochs": 2,
        "batch_size": 4,
        "stage1_steps": 2,
        "otdd_batch": 32,
        "sinkhorn_max_iters": 60,
        "seeds": [0, 1],
    }
    config_path = str(tmp_path / "exp.json")
    with open(config_path, "w") as fh:
        json.dump(config, fh)
    assert cli_main(["run", "--config", config_path]) == 0
    assert cli_main(["table", "--records", records_dir, "--out", csv_path]) == 0
    assert cli_main(["plot", "--table", csv_path, "--out", svg_path]) == 0

    with open(svg_path) as fh:
        root = ET.fromstring(fh.read())
    assert root.tag.endswith("svg")
    bars = [el for el in root.iter() if el.attrib.get("data-mean")]
    assert len(bars) == 1


def test_run_unknown_config_key_is_usage_error(tmp_path, capsys):
    # a typo, then three options that were deleted: none is read as its default
    config_path = str(tmp_path / "exp.json")
    for key, value in (("epoch", 3), ("stage1_through_body", True),
                       ("restart_positions", True), ("pooled_predictor", True)):
        with open(config_path, "w") as fh:
            json.dump({"name": "typo", "dataset_file": str(tmp_path / "adv.bin"),
                       "out_dir": str(tmp_path / "records"), key: value}, fh)
        assert cli_main(["run", "--config", config_path]) == 3
        err = capsys.readouterr().err
        assert f"unknown experiment config keys: {key}" in err and "Traceback" not in err


@pytest.mark.parametrize("key, value", [("epochs", "2"), ("seeds", 3)])
def test_run_mistyped_config_value_is_usage_error(tmp_path, capsys, key, value):
    # a runnable config but for the one value, which used to escape as a
    # TypeError traceback once the run reached it
    data = str(tmp_path / "adv.bin")
    assert cli_main(["gen", "--family", "advection", "--n-train", "2", "--n-test", "2",
                     "--out", data, "--n-x", "32"]) == 0
    config_path = str(tmp_path / "exp.json")
    with open(config_path, "w") as fh:
        json.dump({"name": "typed", "dataset_file": data, "out_dir": str(tmp_path / "records"),
                   "pretrained": False, "method": "fpt", "d_model": 16, "n_layers": 1,
                   "d_ff": 32, key: value}, fh)
    assert cli_main(["run", "--config", config_path]) == 3
    err = capsys.readouterr().err
    assert f"'{key}'" in err and "Traceback" not in err


@pytest.mark.parametrize("key, value", [("epochs", -3), ("batch_size", 0),
                                        ("optimizer", "foo"), ("seeds", [])])
def test_run_bad_config_value_exits_before_reading_data(tmp_path, capsys, key, value):
    # the dataset file does not exist, so a run that read it would exit 2
    config_path = tmp_path / "exp.json"
    config_path.write_text(json.dumps({"name": "bad", "dataset_file": str(tmp_path / "none.bin"),
                                       "out_dir": str(tmp_path / "records"),
                                       "pretrained": False, key: value}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # e.g. numpy's "Mean of empty slice"
        assert cli_main(["run", "--config", str(config_path)]) == 3
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err
    assert not (tmp_path / "records").exists()


@pytest.mark.parametrize("key, value", [("pretrain_steps", -5), ("pretrain_batch", 0),
                                        ("pretrain_lr", 0.0)])
def test_run_bad_pretrain_value_exits_before_reading_corpus(tmp_path, capsys, key, value):
    # neither file exists, so a run that read the dataset or the corpus would exit 2
    config_path = tmp_path / "exp.json"
    config_path.write_text(json.dumps({"name": "bad", "dataset_file": str(tmp_path / "none.bin"),
                                       "out_dir": str(tmp_path / "records"),
                                       "corpus_file": str(tmp_path / "none.corpus"),
                                       "pretrained": True, key: value}))
    assert cli_main(["run", "--config", str(config_path)]) == 3
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err
    assert not (tmp_path / "records").exists()


def test_run_malformed_checkpoint_is_data_error(tmp_path, capsys):
    ckpt = tmp_path / "bad.ckpt"
    write_container(ckpt, {"kind": "model_checkpoint", "pretrained": True}, [])
    data = str(tmp_path / "adv.bin")
    assert cli_main(["gen", "--family", "advection", "--n-train", "2", "--n-test", "2",
                     "--out", data, "--seed", "1", "--n-x", "32"]) == 0
    config_path = tmp_path / "exp.json"
    config_path.write_text(json.dumps({"name": "bad", "dataset_file": data,
                                       "out_dir": str(tmp_path / "records"),
                                       "checkpoint_file": str(ckpt), "method": "fpt"}))
    capsys.readouterr()
    assert cli_main(["run", "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert "bad.ckpt" in err and "config" in err and "Traceback" not in err
    assert not (tmp_path / "records").exists()


def _run_on_edited_dataset(tmp_path, edit):
    """Exit code of ``run`` on a 2 + 2 advection dataset rewritten by ``edit``."""
    data = str(tmp_path / "adv.bin")
    assert cli_main(["gen", "--family", "advection", "--n-train", "2", "--n-test", "2",
                     "--out", data, "--seed", "1", "--n-x", "32"]) == 0
    header, blocks = read_container(data)
    edit(header, blocks)
    write_container(data, header, list(blocks.items()))
    config_path = str(tmp_path / "exp.json")
    with open(config_path, "w") as fh:
        json.dump({"name": "bad-data", "dataset_file": data, "pretrained": False,
                   "out_dir": str(tmp_path / "records")}, fh)
    return cli_main(["run", "--config", config_path])


def test_run_on_malformed_dataset_is_data_error(tmp_path, capsys):
    # 4 frame pairs, but 2 + 0 instances declared
    assert _run_on_edited_dataset(tmp_path, lambda h, b: h.update(n_test=0)) == 2
    err = capsys.readouterr().err
    assert "adv.bin" in err and "Traceback" not in err


@pytest.mark.parametrize("edit", [
    lambda h, b: h.update(family="bogus"),
    lambda h, b: h.update(n_train="2"),
    lambda h, b: h.update(n_train=-1, n_test=5),
    lambda h, b: b["frames"].__setitem__((1, 1, 5), float("nan")),
], ids=["header_family_bogus", "n_train_string", "n_train_negative", "nan_frame"])
def test_run_on_bad_dataset_values_is_data_error(tmp_path, capsys, edit):
    assert _run_on_edited_dataset(tmp_path, edit) == 2
    err = capsys.readouterr().err
    assert "adv.bin" in err and "Traceback" not in err


@pytest.mark.parametrize("flag, value, floor", [("--batch-size", "0", 1),
                                                ("--steps", "-1", 0)])
def test_pretrain_count_below_floor_is_usage_error(tmp_path, capsys, flag, value, floor):
    corpus = str(tmp_path / "corpus.bin")
    assert cli_main(["corpus", "--out", corpus, "--n-sequences", "4"]) == 0
    out = tmp_path / "m.ckpt"
    assert cli_main(["pretrain", "--arch", "decoder_only", "--corpus", corpus,
                     "--out", str(out), flag, value]) == 2
    err = capsys.readouterr().err
    assert flag in err and f"at least {floor}" in err
    assert not out.exists()


@pytest.mark.parametrize("steps", [0, 2])
def test_pretrain_prints_a_loss_only_when_a_step_ran(tmp_path, capsys, steps):
    corpus = str(tmp_path / "corpus.bin")
    assert cli_main(["corpus", "--out", corpus, "--n-sequences", "8"]) == 0
    capsys.readouterr()
    out = tmp_path / "m.ckpt"
    assert cli_main(["pretrain", "--arch", "decoder_only", "--corpus", corpus,
                     "--out", str(out), "--steps", str(steps), "--d-model", "16",
                     "--n-layers", "1", "--d-ff", "32", "--batch-size", "4"]) == 0
    printed = capsys.readouterr().out
    assert f"for {steps} steps" in printed and str(out) in printed and out.exists()
    assert "nan" not in printed
    assert ("(loss " in printed) == (steps > 0)


def test_table_foreign_record_is_usage_error(tmp_path, capsys):
    records = tmp_path / "records"
    records.mkdir()
    (records / "foreign.json").write_text('{"schema_version": 1, "bogus": 1}')
    assert cli_main(["table", "--records", str(records), "--out", str(tmp_path / "t.csv")]) == 2
    err = capsys.readouterr().err
    assert "foreign.json" in err and "Traceback" not in err


@pytest.mark.parametrize("text", [
    "not json",
    '{"schema_version": 1, "config": {}, "family": "x", "test_nrmse": 0.5, "wallclock_s": 1}',
], ids=["not_json", "config_lacks_group_keys"])
def test_table_malformed_record_is_usage_error(tmp_path, capsys, text):
    records = tmp_path / "records"
    records.mkdir()
    (records / "b.json").write_text(text)
    assert cli_main(["table", "--records", str(records), "--out", str(tmp_path / "t.csv")]) == 2
    err = capsys.readouterr().err
    assert "b.json" in err and "Traceback" not in err


_GROUPS = {"arch": "decoder_only", "d_model": 8, "n_layers": 1, "pretrained": False,
           "method": "fpt", "bidir_method": "none"}


@pytest.mark.parametrize("key, value", [
    ("test_nrmse", None), ("test_nrmse", "0.5"), ("test_nrmse", True),
    ("wallclock_s", "1"), ("wallclock_s", None),
    ("arch", ["x"]), ("pretrained", {"a": 1}), ("family", ["advection"]),
], ids=["nrmse_null", "nrmse_string", "nrmse_bool", "wallclock_string", "wallclock_null",
        "arch_list", "pretrained_object", "family_list"])
def test_table_bad_record_value_is_data_error(tmp_path, capsys, key, value):
    rec = {"schema_version": 1, "config": dict(_GROUPS), "family": "advection",
           "test_nrmse": 0.5, "wallclock_s": 1.0}
    if key in _GROUPS:
        rec["config"][key] = value
    else:
        rec[key] = value
    records = tmp_path / "records"
    records.mkdir()
    (records / "b.json").write_text(json.dumps(rec))
    out = tmp_path / "t.csv"
    assert cli_main(["table", "--records", str(records), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "b.json" in err and key in err and "Traceback" not in err
    assert not out.exists()


HEADER = ",".join(CSV_COLUMNS) + "\n"


@pytest.mark.parametrize("text, named", [
    ("dataset,arch,nrmse_mean\nadvection,decoder_only,0.5\n", "d_model, n_layers"),
    (HEADER + "advection,decoder_only,wide,4,true,fpt,none,5,0.5,0.4,0.7,12.5\n", "'wide'"),
], ids=["missing_columns", "non_numeric_d_model"])
def test_plot_malformed_table_is_usage_error(tmp_path, capsys, text, named):
    table = tmp_path / "bad.csv"
    table.write_text(text)
    assert cli_main(["plot", "--table", str(table), "--out", str(tmp_path / "f.svg")]) == 2
    err = capsys.readouterr().err
    assert "bad.csv" in err and named in err and "Traceback" not in err
    assert not (tmp_path / "f.svg").exists()


ROW = "advection,decoder_only,8,1,true,fpt,none,2,{},0.4,{},12.5\n"


@pytest.mark.parametrize("mean, high", [("nan", "0.7"), ("0.5", "inf"), ("-inf", "0.7")],
                         ids=["mean_nan", "max_inf", "mean_minus_inf"])
def test_plot_non_finite_row_is_contract_error(tmp_path, capsys, mean, high):
    table = tmp_path / "t.csv"
    table.write_text(HEADER + ROW.format("0.5", "0.7").replace("none", "sequence_doubling")
                     + ROW.format(mean, high))
    assert cli_main(["plot", "--table", str(table), "--out", str(tmp_path / "f.svg")]) == 3
    err = capsys.readouterr().err
    assert "advection|decoder_only|fpt|none|pre|d8x1" in err and "Traceback" not in err
    assert "sequence_doubling" not in err
    assert not (tmp_path / "f.svg").exists()


@pytest.mark.parametrize("cell", ["yes", "True", ""])
def test_plot_pretrained_cell_not_true_or_false_is_data_error(tmp_path, capsys, cell):
    table = tmp_path / "bad.csv"
    table.write_text(HEADER + ROW.format("0.5", "0.7").replace("true", cell))
    assert cli_main(["plot", "--table", str(table), "--out", str(tmp_path / "f.svg")]) == 2
    err = capsys.readouterr().err
    assert "bad.csv line 2" in err and "pretrained" in err and "Traceback" not in err
    assert not (tmp_path / "f.svg").exists()


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_run_fewer_than_one_worker_is_usage_error(tmp_path, capsys, workers):
    assert cli_main(["run", "--config", str(tmp_path / "exp.json"), "--workers", workers]) == 2
    err = capsys.readouterr().err
    assert "--workers" in err and "at least 1" in err
