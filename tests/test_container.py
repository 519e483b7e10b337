import json
import os
import re

import numpy as np
import pytest

from crossmodal_pde.container import DataFileError, read_container, write_container
from crossmodal_pde.pde_data import GridSpec, build_dataset, load_dataset
from crossmodal_pde.proxy_data import gen_corpus, load_corpus, save_corpus
from crossmodal_pde.transformer import (
    DECODER_ONLY,
    ModelConfig,
    build_model,
    load_checkpoint,
    save_checkpoint,
)


def test_a_failed_write_leaves_the_old_file_and_no_temp_file(tmp_path, monkeypatch):
    path = tmp_path / "c.bin"
    write_container(path, {"kind": "x"}, _blocks())
    before = path.read_bytes()

    def fail(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="rename failed"):
        write_container(path, {"kind": "y"}, _blocks()[:1])
    assert os.listdir(tmp_path) == ["c.bin"]
    assert path.read_bytes() == before


def _blocks():
    return [
        ("a", np.arange(6, dtype=np.float32).reshape(2, 3)),
        ("b", np.array([7, -8, 9], dtype=np.int32)),
    ]


def _rewrite(path, edit_header=None, extra=b""):
    """Rewrite a container's header line as ``edit_header`` edits it in place,
    or as the bytes it returns, then append ``extra``."""
    raw = path.read_bytes()
    line, payload = raw.split(b"\n", 1)
    header = json.loads(line)
    new_line = edit_header(header) if edit_header is not None else None
    if not isinstance(new_line, bytes):
        new_line = json.dumps(header).encode()
    path.write_bytes(new_line + b"\n" + payload + extra)


@pytest.mark.parametrize("blocks", [
    [],
    _blocks(),
    [("scalar", np.array(2.5, dtype=np.float32)), ("empty", np.zeros((0, 4), dtype=np.int32)),
     ("after_empty", np.ones((1, 1), dtype=np.float32))],
    [("t", np.asfortranarray(np.arange(12, dtype=np.float32).reshape(3, 4)))],
], ids=["no_blocks", "two_blocks", "scalar_and_empty", "fortran_order"])
def test_written_containers_read_back(tmp_path, blocks):
    path = tmp_path / "c.bin"
    write_container(path, {"kind": "test"}, blocks)
    header, got = read_container(path)
    assert header["kind"] == "test"
    assert list(got) == [name for name, _ in blocks]
    for name, arr in blocks:
        assert got[name].dtype == arr.dtype and np.array_equal(got[name], arr)


def _drop(key):
    return lambda h: h["blocks"][1].pop(key)


def _set(key, value, index=1):
    return lambda h: h["blocks"][index].__setitem__(key, value)


@pytest.mark.parametrize("edit, extra, message", [
    (_drop("name"), b"", "lacks"),
    (_drop("dtype"), b"", "lacks"),
    (_drop("shape"), b"", "lacks"),
    (_drop("offset"), b"", "lacks"),
    (_set("offset", 24.0), b"", "non-negative integer"),
    (_set("offset", -4, index=0), b"", "non-negative integer"),
    (_set("shape", [1.5]), b"", "non-negative integer"),
    (_set("shape", [-3]), b"", "non-negative integer"),
    (_set("offset", 20), b"", "overlap or gap"),
    (_set("offset", 28), b"\0" * 4, "overlap or gap"),
    (None, b"junk", "4 trailing payload bytes"),
    (lambda h: b'{"blocks": [', b"", "bad container header"),
    (lambda h: h.__setitem__("blocks", {"a": 0}), b"", "no block manifest"),
    (_set("dtype", "<f8"), b"", "unknown dtype '<f8'"),
    (_set("shape", [4]), b"", "truncated payload for block 'b'"),
], ids=["missing_name", "missing_dtype", "missing_shape", "missing_offset",
        "float_offset", "negative_offset", "float_dim", "negative_dim",
        "overlap", "gap", "trailing_bytes",
        "header_not_json", "no_manifest", "unknown_dtype", "truncated_payload"])
def test_bad_manifest_rejected(tmp_path, edit, extra, message):
    path = tmp_path / "c.bin"
    write_container(path, {"kind": "test"}, _blocks())
    _rewrite(path, edit, extra)
    with pytest.raises(DataFileError, match=message):
        read_container(path)


# -- typed errors from the checkpoint, corpus and dataset loaders ---------------


def _tiny_model():
    return build_model(ModelConfig(arch=DECODER_ONLY, d_model=16, n_heads=2, n_layers=1,
                                   d_ff=32, max_positions=32, vocab_size=16))


def _tiny_corpus():
    return gen_corpus(seed=0, n_sequences=4, vocab_size=16)


LOADERS = {
    "checkpoint": (lambda path: save_checkpoint(_tiny_model(), path), load_checkpoint),
    "corpus": (lambda path: save_corpus(_tiny_corpus(), path), load_corpus),
    "dataset": (lambda path: build_dataset("advection", 2, 1, GridSpec(n_x=16, t_out=0.1),
                                           seed=0, out_path=path), load_dataset),
}


@pytest.mark.parametrize("kind, edit", [
    ("checkpoint", lambda h, b: h.update(kind="tagged_corpus")),
    ("checkpoint", lambda h, b: h.pop("config")),
    ("checkpoint", lambda h, b: h["config"].pop("d_model")),
    ("checkpoint", lambda h, b: h["config"].update(n_heads=3)),
    ("checkpoint", lambda h, b: h["config"].update(arch="rnn")),
    ("checkpoint", lambda h, b: h["config"].update(d_model="16")),
    ("checkpoint", lambda h, b: h.pop("pretrained")),
    ("checkpoint", lambda h, b: b.pop("lm_head")),
    ("checkpoint", lambda h, b: b.update(pos_emb=b["pos_emb"][:-1])),
    ("corpus", lambda h, b: h.update(kind="model_checkpoint")),
    ("corpus", lambda h, b: h.pop("vocab_size")),
    ("corpus", lambda h, b: b.pop("tags")),
    ("corpus", lambda h, b: b.update(lengths=np.append(b["lengths"], 5).astype(np.int32))),
    ("corpus", lambda h, b: b.update(tags=np.ascontiguousarray(b["tags"][:, :5]))),
    # bool("false") is True, and a float size built the model it names
    ("checkpoint", lambda h, b: h.update(pretrained="false")),
    ("checkpoint", lambda h, b: h["config"].update(d_model=16.0)),
], ids=["checkpoint_kind", "checkpoint_no_config", "config_lacks_d_model",
        "config_heads_do_not_divide", "config_arch_unknown", "config_d_model_string",
        "checkpoint_no_pretrained", "checkpoint_no_lm_head", "checkpoint_pos_emb_short",
        "corpus_kind", "corpus_no_vocab_size", "corpus_no_tags", "corpus_lengths_longer",
        "corpus_tags_narrower", "checkpoint_pretrained_string", "config_d_model_float"])
def test_malformed_file_is_data_file_error(tmp_path, kind, edit):
    save, load = LOADERS[kind]
    path = tmp_path / f"{kind}.bin"
    save(path)
    load(path)  # the file as written loads
    header, blocks = read_container(path)
    edit(header, blocks)
    write_container(path, header, list(blocks.items()))
    with pytest.raises(DataFileError, match=re.escape(str(path))):
        load(path)


@pytest.mark.parametrize("kind, name, dtype, shift", [
    ("checkpoint", "pos_emb", np.int32, 0),
    ("corpus", "tokens", np.float32, 0.7),  # would load truncated, as the tokens written
    ("dataset", "frames", np.int32, 0),
])
def test_block_of_the_wrong_dtype_is_data_file_error(tmp_path, kind, name, dtype, shift):
    # weights and frames are float32; lengths, tokens and tags int32
    save, load = LOADERS[kind]
    path = tmp_path / f"{kind}.bin"
    save(path)
    header, blocks = read_container(path)
    blocks[name] = (blocks[name] + shift).astype(dtype)
    write_container(path, header, list(blocks.items()))
    with pytest.raises(DataFileError, match=f"block '{name}' in {re.escape(str(path))} "
                                            f"holds {np.dtype(dtype)}"):
        load(path)
