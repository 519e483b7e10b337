import json

import numpy as np
import pytest

from crossmodal_pde.container import DataFileError, read_container, write_container


def _blocks():
    return [
        ("a", np.arange(6, dtype=np.float32).reshape(2, 3)),
        ("b", np.array([7, -8, 9], dtype=np.int32)),
    ]


def _rewrite(path, edit_manifest=None, extra=b""):
    """Rewrite a container's header line with an edited manifest, then append ``extra``."""
    raw = path.read_bytes()
    line, payload = raw.split(b"\n", 1)
    header = json.loads(line)
    if edit_manifest is not None:
        edit_manifest(header["blocks"])
    path.write_bytes(json.dumps(header).encode() + b"\n" + payload + extra)


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
    return lambda m: m[1].pop(key)


def _set(key, value, index=1):
    return lambda m: m[index].__setitem__(key, value)


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
], ids=["missing_name", "missing_dtype", "missing_shape", "missing_offset",
        "float_offset", "negative_offset", "float_dim", "negative_dim",
        "overlap", "gap", "trailing_bytes"])
def test_bad_manifest_rejected(tmp_path, edit, extra, message):
    path = tmp_path / "c.bin"
    write_container(path, {"kind": "test"}, _blocks())
    _rewrite(path, edit, extra)
    with pytest.raises(DataFileError, match=message):
        read_container(path)
