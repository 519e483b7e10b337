import argparse
import json
import os
import pathlib
import re
import warnings

import numpy as np
import pytest

from crossmodal_pde import experiments, transformer
from crossmodal_pde.cli import _build_parser, cli_main
from crossmodal_pde.container import read_container, write_container
from crossmodal_pde.proxy_data import load_corpus


def _pretrain_config(tmp_path, **overrides) -> str:
    """The path of an FPT experiment config whose ``checkpoint_file`` is
    ``m.ckpt``: the smoke pipeline's small decoder unless ``overrides``
    says otherwise."""
    config = {"name": "pre", "dataset_file": str(tmp_path / "adv.bin"),
              "out_dir": str(tmp_path / "records"), "method": "fpt", "arch": "decoder_only",
              "d_model": 32, "n_layers": 2, "d_ff": 64, "max_positions": 64,
              "checkpoint_file": str(tmp_path / "m.ckpt"), **overrides}
    path = tmp_path / "pre.json"
    path.write_text(json.dumps(config))
    return str(path)


def test_unknown_subcommand_usage_error(capsys):
    for command in ("frobnicate", "plot"):
        assert cli_main([command]) == 2
        err = capsys.readouterr().err
        assert "usage" in err.lower() and f"invalid choice: '{command}'" in err


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


def test_doctor_reports_a_failing_check_and_runs_the_rest(capsys, monkeypatch):
    from crossmodal_pde import invariants

    def broken():
        raise AssertionError("planted failure")

    checks = list(invariants.CHECKS)
    checks[3] = (checks[3][0], broken)  # the slow Sinkhorn check, with checks on both sides
    monkeypatch.setattr(invariants, "CHECKS", tuple(checks))
    assert cli_main(["doctor"]) == 1
    want = [f"[ok] {name}" for name, _ in checks]
    want[3] = f"[FAIL] {checks[3][0]} (AssertionError: planted failure)"
    assert capsys.readouterr().out.splitlines() == want


def test_doctor_prints_the_names_of_checks_in_order(capsys, monkeypatch):
    from crossmodal_pde import invariants

    names = [name for name, _ in invariants.CHECKS]
    # the checks themselves run in test_doctor_healthy_build
    monkeypatch.setattr(invariants, "CHECKS", tuple((n, lambda: None) for n in names))
    assert cli_main(["doctor"]) == 0
    assert capsys.readouterr().out.splitlines() == [f"[ok] {n}" for n in names]


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
    ckpt = str(tmp_path / "m.ckpt")
    assert cli_main(["pretrain", "--config", _pretrain_config(tmp_path), "--corpus", corpus_path,
                     "--steps", "5"]) == 0
    # an ORCA job embeds the corpus itself; no command writes the embedding
    proxy_path = tmp_path / "proxy.bin"
    assert cli_main(["corpus", "--out", str(proxy_path), "--seed", "2", "--n-sequences", "20",
                     "--embed-with", ckpt]) == 2
    assert "--embed-with" in capsys.readouterr().err
    assert not proxy_path.exists()


def test_corpus_prints_its_length_range(tmp_path, capsys):
    # the longest sequence is the length an ORCA run's max_positions must hold
    out = str(tmp_path / "corpus.bin")
    assert cli_main(["corpus", "--out", out, "--n-sequences", "4"]) == 0  # lengths 17, 26, 21, 21
    assert capsys.readouterr().out == f"wrote corpus (4 sequences, 17-26 tokens) to {out}\n"


def test_corpus_tag_count_below_state_count_is_usage_error(tmp_path, capsys):
    out = tmp_path / "corpus.bin"
    assert cli_main(["corpus", "--out", str(out), "--n-sequences", "4",
                     "--tag-count", "0"]) == 3
    err = capsys.readouterr().err
    assert "tag_count" in err and "Traceback" not in err
    assert not out.exists()


def test_full_pipeline_smoke(tmp_path):
    # gen -> corpus -> pretrain -> run -> table, from seeds alone
    data = str(tmp_path / "adv.bin")
    corpus = str(tmp_path / "corpus.bin")
    ckpt = str(tmp_path / "dec.ckpt")
    records_dir = str(tmp_path / "records")
    csv_path = str(tmp_path / "table.csv")

    assert cli_main(["gen", "--family", "advection", "--n-train", "6", "--n-test", "2",
                     "--out", data, "--seed", "3", "--n-x", "32"]) == 0
    assert cli_main(["corpus", "--out", corpus, "--seed", "4", "--n-sequences", "30"]) == 0

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
        "checkpoint_file": ckpt,
        "corpus_file": corpus,
        "method": "orca",
        "epochs": 2,
        "batch_size": 4,
        "stage1_steps": 2,
        "seeds": [0, 1],
    }
    config_path = str(tmp_path / "exp.json")
    with open(config_path, "w") as fh:
        json.dump(config, fh)
    assert cli_main(["pretrain", "--config", config_path, "--corpus", corpus,
                     "--steps", "10"]) == 0
    assert cli_main(["run", "--config", config_path]) == 0
    assert cli_main(["table", "--records", records_dir, "--out", csv_path]) == 0
    with open(csv_path) as fh:
        assert len(fh.read().splitlines()) == 2  # the header and the run's one group


def test_run_unknown_config_key_is_usage_error(tmp_path, capsys):
    # a typo, then the keys of deleted options, of the ORCA and optimizer
    # recipe, now module constants, of in-process pretraining, and the
    # pretrained flag, which a checkpoint_file replaces, each at its old
    # default: none is ignored
    config_path = str(tmp_path / "exp.json")
    for key, value in (("epoch", 3), ("stage1_through_body", True),
                       ("restart_positions", True), ("pooled_predictor", True),
                       ("optimizer", None), ("weight_decay", 0.01), ("stage1_lr", 3e-3),
                       ("stage1_batch_instances", 8), ("otdd_batch", 128),
                       ("pseudo_label_bins", 10), ("sinkhorn_max_iters", 300),
                       ("pretrain_steps", 1500), ("pretrain_lr", 1e-3), ("pretrain_batch", 8),
                       ("pretrain_seed", 1234), ("pretrained", True)):
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
                   "method": "fpt", "d_model": 16, "n_layers": 1, "d_ff": 32,
                   key: value}, fh)
    assert cli_main(["run", "--config", config_path]) == 3
    err = capsys.readouterr().err
    assert f"'{key}'" in err and "Traceback" not in err


# optimizer is a deleted key: unknown keys are rejected before any file is read too
@pytest.mark.parametrize("key, value", [("epochs", -3), ("batch_size", 0),
                                        ("optimizer", "foo"), ("seeds", []), ("seeds", [0, -5]),
                                        ("name", "grp/a")])
def test_run_bad_config_value_exits_before_reading_data(tmp_path, capsys, key, value):
    # the dataset file does not exist, so a run that read it would exit 2
    config_path = tmp_path / "exp.json"
    config_path.write_text(json.dumps({"name": "bad", "dataset_file": str(tmp_path / "none.bin"),
                                       "out_dir": str(tmp_path / "records"),
                                       key: value}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # e.g. numpy's "Mean of empty slice"
        assert cli_main(["run", "--config", str(config_path)]) == 3
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err
    assert not (tmp_path / "records").exists()


def test_run_pretrained_without_checkpoint_exits_before_reading_data(tmp_path, capsys):
    # a run is pretrained exactly when it names a checkpoint_file, so the old
    # flag is an unknown key; neither file exists, so a run that read the
    # dataset or the corpus would exit 2
    config_path = tmp_path / "exp.json"
    config_path.write_text(json.dumps({"name": "bad", "dataset_file": str(tmp_path / "none.bin"),
                                       "out_dir": str(tmp_path / "records"),
                                       "corpus_file": str(tmp_path / "none.corpus"),
                                       "pretrained": True}))
    assert cli_main(["run", "--config", str(config_path)]) == 3
    err = capsys.readouterr().err
    assert "unknown experiment config keys: pretrained" in err
    assert "Traceback" not in err
    assert not (tmp_path / "records").exists()


def test_run_orca_without_corpus_exits_before_reading_data(tmp_path, capsys):
    # the dataset does not exist, so a run that read it would exit 2
    config_path = tmp_path / "exp.json"
    config_path.write_text(json.dumps({"name": "bad", "dataset_file": str(tmp_path / "none.bin"),
                                       "out_dir": str(tmp_path / "records"),
                                       "method": "orca"}))
    assert cli_main(["run", "--config", str(config_path)]) == 3
    err = capsys.readouterr().err
    assert "an ORCA run needs corpus_file" in err and "Traceback" not in err
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
        json.dump({"name": "bad-data", "dataset_file": data, "method": "fpt",
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


@pytest.mark.parametrize("edit", [
    lambda h, b: h.update(tag_count="9"),
    lambda h, b: h.update(vocab_size=True),
    lambda h, b: h.update(seed=1.5),
    lambda h, b: b["tokens"].__setitem__((1, 0), 64),
    lambda h, b: b["tokens"].__setitem__((1, 0), -2),
    lambda h, b: b["tags"].__setitem__((2, 0), 9),
    lambda h, b: b["tags"].__setitem__((2, 0), -1),
    lambda h, b: b.update({k: b[k][:0] for k in ("lengths", "tokens", "tags")}),
], ids=["tag_count_string", "vocab_size_bool", "seed_float", "token_past_vocab",
        "token_negative", "tag_past_tag_count", "tag_negative", "no_sequences"])
def test_run_on_bad_corpus_values_is_data_error(tmp_path, capsys, edit):
    # the ORCA job reads the corpus before it trains, so a bad value stops it
    # there with the file's name, not inside stage 1
    data, corpus = str(tmp_path / "adv.bin"), str(tmp_path / "corpus.bin")
    assert cli_main(["gen", "--family", "advection", "--n-train", "2", "--n-test", "2",
                     "--out", data, "--n-x", "32"]) == 0
    assert cli_main(["corpus", "--out", corpus, "--n-sequences", "4"]) == 0
    header, blocks = read_container(corpus)
    edit(header, blocks)
    write_container(corpus, header, list(blocks.items()))
    config_path = str(tmp_path / "exp.json")
    with open(config_path, "w") as fh:
        json.dump({"name": "bad-corpus", "dataset_file": data, "corpus_file": corpus,
                   "method": "orca", "d_model": 16, "n_layers": 1, "d_ff": 32,
                   "out_dir": str(tmp_path / "records")}, fh)
    capsys.readouterr()
    assert cli_main(["run", "--config", config_path]) == 2
    err = capsys.readouterr().err
    assert "corpus.bin" in err and "Traceback" not in err


@pytest.mark.parametrize("flag, value, floor", [("--batch-size", "0", 1),
                                                ("--steps", "-1", 0)])
def test_pretrain_count_below_floor_is_usage_error(tmp_path, capsys, flag, value, floor):
    corpus = str(tmp_path / "corpus.bin")
    assert cli_main(["corpus", "--out", corpus, "--n-sequences", "4"]) == 0
    out = tmp_path / "m.ckpt"
    assert cli_main(["pretrain", "--config", _pretrain_config(tmp_path), "--corpus", corpus,
                     flag, value]) == 2
    err = capsys.readouterr().err
    assert flag in err and f"at least {floor}" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["gen", "corpus", "pretrain"])
def test_negative_seed_is_usage_error(tmp_path, capsys, command):
    out = tmp_path / "m.ckpt"  # pretrain's checkpoint_file
    argv = {"gen": ["gen", "--family", "advection", "--n-train", "2", "--n-test", "2",
                    "--out", str(out)],
            "corpus": ["corpus", "--n-sequences", "4", "--out", str(out)],
            "pretrain": ["pretrain", "--config", _pretrain_config(tmp_path),
                         "--corpus", "corpus.bin"]}[command]
    assert cli_main([*argv, "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert "--seed" in err and "at least 0" in err
    assert not out.exists()


def test_pretrain_on_an_empty_corpus_is_data_error(tmp_path, capsys):
    # pretraining would run its steps at loss 0.0 and flag the unchanged
    # weights pretrained
    corpus = str(tmp_path / "corpus.bin")
    assert cli_main(["corpus", "--out", corpus, "--n-sequences", "4"]) == 0
    header, blocks = read_container(corpus)
    for name in ("lengths", "tokens", "tags"):
        blocks[name] = blocks[name][:0]
    write_container(corpus, header, list(blocks.items()))
    ckpt = tmp_path / "m.ckpt"
    capsys.readouterr()
    assert cli_main(["pretrain", "--config", _pretrain_config(tmp_path), "--corpus", corpus,
                     "--steps", "2"]) == 2
    err = capsys.readouterr().err
    assert "corpus.bin holds no sequences" in err and "Traceback" not in err
    assert not ckpt.exists()


def test_pretrain_checks_the_corpus_length_before_its_first_step(tmp_path, capsys,
                                                                 monkeypatch):
    corpus = str(tmp_path / "corpus.bin")
    assert cli_main(["corpus", "--out", corpus, "--seed", "2", "--n-sequences", "20"]) == 0
    assert "-31 tokens" in capsys.readouterr().out
    monkeypatch.setattr(transformer, "pretrain_step", None)  # no step may run
    out = tmp_path / "m.ckpt"
    config = _pretrain_config(tmp_path, max_positions=16)
    assert cli_main(["pretrain", "--config", config, "--corpus", corpus]) == 3
    err = capsys.readouterr().err
    assert "corpus.bin" in err and "31 tokens" in err and f"max_positions 16 in {config}" in err
    assert not out.exists()


@pytest.mark.parametrize("overrides, message", [
    ({"checkpoint_file": None}, "names no checkpoint_file"),
    ({"vocab_size": 32}, "vocab_size 64, but {config} has vocab_size 32"),
], ids=["no_checkpoint_file", "vocab_size"])
def test_pretrain_checks_its_config_before_its_first_step(tmp_path, capsys, monkeypatch,
                                                          overrides, message):
    # a random-init config has nothing to pretrain, and a model of another
    # vocabulary than the corpus's would fail only when its first run loads it
    corpus = str(tmp_path / "corpus.bin")
    assert cli_main(["corpus", "--out", corpus, "--n-sequences", "4"]) == 0
    config = _pretrain_config(tmp_path, **overrides)
    before = sorted(os.listdir(tmp_path))
    monkeypatch.setattr(transformer, "pretrain_step", None)  # no step may run
    capsys.readouterr()
    assert cli_main(["pretrain", "--config", config, "--corpus", corpus]) == 3
    err = capsys.readouterr().err
    assert config in err and message.format(config=config) in err and "Traceback" not in err
    assert sorted(os.listdir(tmp_path)) == before


def test_pretrain_writes_the_checkpoint_of_the_python_api(tmp_path):
    # the model the config names, seeded by --seed, pretrained as the
    # deleted --arch/--d-model/... flags built it: the same file byte for byte
    corpus = str(tmp_path / "corpus.bin")
    assert cli_main(["corpus", "--out", corpus, "--seed", "4", "--n-sequences", "30"]) == 0
    assert cli_main(["pretrain", "--config", _pretrain_config(tmp_path), "--corpus", corpus,
                     "--steps", "10", "--seed", "3"]) == 0
    model = transformer.build_model(transformer.ModelConfig(
        arch="decoder_only", d_model=32, n_heads=4, n_layers=2, d_ff=64, max_positions=64,
        vocab_size=64, seed=3))
    transformer.pretrain(model, [t for t, _ in load_corpus(corpus).sequences], steps=10,
                         learning_rate=1e-3, batch_size=8, seed=3)
    transformer.save_checkpoint(model, tmp_path / "api.ckpt")
    assert (tmp_path / "m.ckpt").read_bytes() == (tmp_path / "api.ckpt").read_bytes()


def test_pretrain_takes_its_model_from_the_config_alone(capsys):
    assert cli_main(["pretrain", "-h"]) == 0
    flags = re.findall(r"^  (--[\w-]+)", capsys.readouterr().out, re.M)
    assert flags == ["--config", "--corpus", "--steps", "--seed", "--learning-rate",
                     "--batch-size"]
    for flag in ("--arch", "--d-model", "--n-heads", "--n-layers", "--d-ff",
                 "--max-positions", "--out"):
        assert cli_main(["pretrain", "--config", "c.json", "--corpus", "c.bin", flag, "1"]) == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


@pytest.mark.parametrize("lr, message", [("nan", "learning_rate nan is not finite"),
                                         ("1e30", "loss is nan at step 2 of 3")])
def test_pretrain_with_a_non_finite_loss_writes_no_checkpoint(tmp_path, capsys, lr, message):
    corpus = str(tmp_path / "corpus.bin")
    assert cli_main(["corpus", "--out", corpus, "--n-sequences", "8"]) == 0
    capsys.readouterr()
    out = tmp_path / "m.ckpt"
    config = _pretrain_config(tmp_path, d_model=16, n_layers=1, d_ff=32)
    with np.errstate(over="ignore", invalid="ignore"):  # the weights overflow at 1e30
        assert cli_main(["pretrain", "--config", config, "--corpus", corpus,
                         "--steps", "3", "--learning-rate", lr]) == 3
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("steps", [0, 2])
def test_pretrain_prints_a_loss_only_when_a_step_ran(tmp_path, capsys, steps):
    corpus = str(tmp_path / "corpus.bin")
    assert cli_main(["corpus", "--out", corpus, "--n-sequences", "8"]) == 0
    capsys.readouterr()
    out = tmp_path / "m.ckpt"
    config = _pretrain_config(tmp_path, d_model=16, n_layers=1, d_ff=32)
    assert cli_main(["pretrain", "--config", config, "--corpus", corpus,
                     "--steps", str(steps), "--batch-size", "4"]) == 0
    printed = capsys.readouterr().out
    assert f"for {steps} steps" in printed and str(out) in printed and out.exists()
    assert "nan" not in printed
    assert ("(loss " in printed) == (steps > 0)


@pytest.mark.parametrize("exists", [True, False], ids=["no_record", "missing_dir"])
def test_table_without_records_is_data_error(tmp_path, capsys, exists):
    records = tmp_path / "records"
    if exists:  # a directory that holds no *.json file
        records.mkdir()
        (records / "notes.txt").write_text("not a record")
    out = tmp_path / "t.csv"
    assert cli_main(["table", "--records", str(records), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    want = "no run records found in" if exists else "records directory not found:"
    assert f"{want} {records}" in err and "Traceback" not in err
    assert not out.exists()


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
    ("aborted", "false"), ("aborted", 0),
], ids=["nrmse_null", "nrmse_string", "nrmse_bool", "wallclock_string", "wallclock_null",
        "arch_list", "pretrained_object", "family_list", "aborted_string", "aborted_int"])
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


def test_table_refuses_aborted_and_non_finite_records(tmp_path, capsys):
    # a record without the aborted field did not abort
    good = {"schema_version": 1, "config": dict(_GROUPS), "family": "advection",
            "test_nrmse": 0.5, "wallclock_s": 1.0}
    records = tmp_path / "records"
    records.mkdir()
    (records / "good.json").write_text(json.dumps(good))
    (records / "aborted.json").write_text(json.dumps({**good, "aborted": True,
                                                      "test_nrmse": 1.4e25}))
    (records / "nan.json").write_text(json.dumps({**good, "aborted": False,
                                                  "test_nrmse": float("nan")}))
    out = tmp_path / "t.csv"
    assert cli_main(["table", "--records", str(records), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "aborted.json" in err and "nan.json" in err and "good.json" not in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["gen", "corpus", "pretrain", "run", "table"])
def test_output_path_under_a_file_is_data_error(tmp_path, capsys, monkeypatch, command):
    # each writing command exits 2 naming the file in the way, before any
    # pretraining step or fine-tune job has run
    data, corpus = str(tmp_path / "adv.bin"), str(tmp_path / "corpus.bin")
    assert cli_main(["gen", "--family", "advection", "--n-train", "2", "--n-test", "2",
                     "--out", data, "--n-x", "16"]) == 0
    assert cli_main(["corpus", "--out", corpus, "--n-sequences", "4"]) == 0
    records = tmp_path / "records"
    records.mkdir()
    (records / "r.json").write_text(json.dumps({
        "schema_version": 1, "config": dict(_GROUPS), "family": "advection",
        "test_nrmse": 0.5, "wallclock_s": 1.0}))
    blocker = tmp_path / "afile"
    blocker.write_text("")
    out = str(blocker / "x.bin")
    config_path = tmp_path / "exp.json"
    config_path.write_text(json.dumps({"name": "blocked", "dataset_file": data,
                                       "out_dir": str(blocker), "method": "fpt",
                                       "d_model": 16, "n_layers": 1, "d_ff": 32}))
    argv = {"gen": ["gen", "--family", "advection", "--n-train", "2", "--n-test", "2",
                    "--n-x", "16", "--out", out],
            "corpus": ["corpus", "--n-sequences", "4", "--out", out],
            "pretrain": ["pretrain", "--corpus", corpus,
                         "--config", _pretrain_config(tmp_path, checkpoint_file=out)],
            "run": ["run", "--config", str(config_path)],
            "table": ["table", "--records", str(records), "--out", out]}[command]
    trained = []

    def train(*args, **kwargs):
        trained.append(args)
        raise AssertionError("a job trained")

    monkeypatch.setattr(transformer, "pretrain_step", train)
    monkeypatch.setattr(experiments, "run_adaptation", train)
    capsys.readouterr()
    assert cli_main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(blocker) in err and "Traceback" not in err
    assert not trained and blocker.read_text() == ""


def test_run_names_its_aborted_seeds_and_prints_no_mean(tmp_path, capsys, monkeypatch):
    data = str(tmp_path / "adv.bin")
    assert cli_main(["gen", "--family", "advection", "--n-train", "4", "--n-test", "2",
                     "--out", data, "--n-x", "16"]) == 0
    config_path = tmp_path / "exp.json"
    records = tmp_path / "records"
    config_path.write_text(json.dumps({"name": "blown", "dataset_file": data,
                                       "out_dir": str(records), "method": "fpt",
                                       "d_model": 16, "n_layers": 1, "d_ff": 32,
                                       "epochs": 1, "batch_size": 2, "seeds": [0, 1, 2]}))
    run_adaptation = experiments.run_adaptation

    def abort_seed_1(pipeline, dataset, config, corpus=None):
        # what a diverging learning rate does, without numpy's overflow warnings
        report = run_adaptation(pipeline, dataset, config, corpus=corpus)
        report.train.aborted = config.seed == 1
        return report

    monkeypatch.setattr(experiments, "run_adaptation", abort_seed_1)
    capsys.readouterr()
    assert cli_main(["run", "--config", str(config_path)]) == 3
    captured = capsys.readouterr()
    assert "seeds [1]" in captured.err and "Traceback" not in captured.err
    assert "mean" not in captured.out
    assert sorted(os.listdir(records)) == [f"blown_seed{s}.json" for s in (0, 1, 2)]
    assert [json.loads((records / f"blown_seed{s}.json").read_text())["aborted"]
            for s in (0, 1, 2)] == [False, True, False]


def _readme_cli_lines() -> list[str]:
    """The ``crossmodal-pde ...`` lines of README's CLI block, comments stripped."""
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"^## CLI\n.*?^```sh\n(.*?)^```", readme, re.S | re.M).group(1)
    return [line.split("#")[0] for line in block.splitlines()
            if line.startswith("crossmodal-pde ")]


def test_readme_cli_block_names_exactly_the_parser_commands():
    named = [line.split()[1] for line in _readme_cli_lines()]
    commands = next(a for a in _build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    assert sorted(named) == sorted(commands)


@pytest.mark.parametrize("line", _readme_cli_lines(), ids=lambda line: line.split()[1])
def test_readme_cli_block_parses(line):
    _build_parser().parse_args(line.split()[1:])  # a usage error exits


def test_readme_layout_block_names_exactly_the_package_modules():
    root = pathlib.Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text()
    block = re.search(r"^## Layout\n.*?^```\n(.*?)^```", readme, re.S | re.M).group(1)
    named = re.findall(r"^  (\w+\.py) ", block, re.M)
    modules = [p.name for p in (root / "src" / "crossmodal_pde").glob("*.py")
               if p.name != "__init__.py"]
    assert sorted(named) == sorted(modules)


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_run_fewer_than_one_worker_is_usage_error(tmp_path, capsys, workers):
    assert cli_main(["run", "--config", str(tmp_path / "exp.json"), "--workers", workers]) == 2
    err = capsys.readouterr().err
    assert "--workers" in err and "at least 1" in err


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("n_x, max_positions, method, bidir_method", [
    (64, 100, "fpt", "sequence_doubling"),  # 2 * 64 tokens
    (64, 48, "fpt", "none"),
    (16, 24, "orca", "none"),  # the corpus's longest sequence is 26 tokens
], ids=["doubled_frame", "frame", "orca_proxy"])
def test_run_frame_longer_than_max_positions_fails_before_pretraining(
        tmp_path, capsys, n_x, max_positions, method, bidir_method, workers):
    # every job checks the lengths before it reads the checkpoint, which does
    # not exist (reading it would exit 2), and before it writes a record
    data, corpus = str(tmp_path / "adv.bin"), str(tmp_path / "corpus.bin")
    assert cli_main(["gen", "--family", "advection", "--n-train", "2", "--n-test", "2",
                     "--out", data, "--seed", "1", "--n-x", str(n_x)]) == 0
    assert cli_main(["corpus", "--out", corpus, "--n-sequences", "4"]) == 0
    config_path = tmp_path / "exp.json"
    config_path.write_text(json.dumps({
        "name": "long", "dataset_file": data,
        "corpus_file": corpus if method == "orca" else None,
        "checkpoint_file": str(tmp_path / "none.ckpt"),
        "out_dir": str(tmp_path / "records"), "d_model": 16, "n_layers": 1, "d_ff": 32,
        "max_positions": max_positions, "method": method, "bidir_method": bidir_method,
        "arch": "decoder_only"}))
    capsys.readouterr()
    assert cli_main(["run", "--config", str(config_path), "--workers", workers]) == 3
    err = capsys.readouterr().err
    assert "max_positions" in err and "Traceback" not in err
    assert not (tmp_path / "records").exists()
