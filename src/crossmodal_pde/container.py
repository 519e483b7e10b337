"""Portable file container: one UTF-8 JSON header line, then raw binary blocks.

The header's ``blocks`` manifest records name/dtype/shape/offset for each
block; payload bytes are little-endian, row-major, concatenated in manifest
order.  Datasets, tagged corpora and model checkpoints all use this container.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import tempfile

import numpy as np

FORMAT_VERSION = 1

_DTYPES = {"<f4": np.dtype("<f4"), "<i4": np.dtype("<i4")}
_ENTRY_KEYS = ("name", "dtype", "shape", "offset")


class DataFileError(IOError):
    """A container file is missing, truncated, or malformed."""


@contextlib.contextmanager
def file_errors(path, what: str):
    """Re-raise a ``KeyError`` (a header key or block the file lacks) and a
    ``ValueError`` or ``TypeError`` (a value the file's own checks reject)
    from the block as ``DataFileError`` naming ``what`` and ``path``."""
    try:
        yield
    except KeyError as exc:
        raise DataFileError(f"{what} {path} lacks {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise DataFileError(f"{what} {path} holds invalid values: {exc}") from exc


def _dtype_tag(arr: np.ndarray) -> str:
    if arr.dtype == np.float32:
        return "<f4"
    if arr.dtype == np.int32:
        return "<i4"
    raise DataFileError(f"unsupported block dtype {arr.dtype}")


def write_container(path, header: dict, blocks: list[tuple[str, np.ndarray]]) -> None:
    """Write header + blocks atomically (temp file then rename)."""
    manifest = []
    offset = 0
    payloads = []
    for name, arr in blocks:
        arr = np.asarray(arr, order="C")  # keeps a 0-d block 0-d
        tag = _dtype_tag(arr)
        raw = arr.astype(_DTYPES[tag], copy=False).tobytes()
        manifest.append({"name": name, "dtype": tag, "shape": list(arr.shape), "offset": offset})
        offset += len(raw)
        payloads.append(raw)
    full_header = dict(header)
    full_header["format_version"] = FORMAT_VERSION
    full_header["blocks"] = manifest
    line = json.dumps(full_header, sort_keys=True, separators=(",", ":")) + "\n"
    out_dir = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(out_dir, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=out_dir, prefix=".tmp-container-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(line.encode("utf-8"))
            for raw in payloads:
                fh.write(raw)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _is_count(n) -> bool:
    return isinstance(n, int) and not isinstance(n, bool) and n >= 0


def read_container(path) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a container; returns (header, {block name: array}).

    The manifest must describe the payload exactly as ``write_container``
    lays it out: every entry has a name, a known dtype, a shape of
    non-negative integers and an offset equal to the end of the previous
    block, and the last block ends at the end of the file.
    """
    if not os.path.exists(path):
        raise DataFileError(f"container file not found: {path}")
    with open(path, "rb") as fh:
        line = fh.readline()
        try:
            header = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise DataFileError(f"bad container header in {path}: {exc}") from exc
        payload = fh.read()
    manifest = header.get("blocks", []) if isinstance(header, dict) else None
    if not isinstance(manifest, list):
        raise DataFileError(f"bad container header in {path}: no block manifest")
    blocks: dict[str, np.ndarray] = {}
    end = 0
    for entry in manifest:
        if not isinstance(entry, dict) or any(k not in entry for k in _ENTRY_KEYS):
            raise DataFileError(f"block entry {entry!r} in {path} lacks one of {_ENTRY_KEYS}")
        name, shape, start = entry["name"], entry["shape"], entry["offset"]
        dtype = _DTYPES.get(entry["dtype"]) if isinstance(entry["dtype"], str) else None
        if dtype is None:
            raise DataFileError(f"unknown dtype {entry['dtype']!r} in {path}")
        if not (isinstance(name, str) and isinstance(shape, list)
                and all(_is_count(n) for n in shape) and _is_count(start)):
            raise DataFileError(f"block {name!r} in {path} needs a string name and a "
                                f"non-negative integer shape and offset")
        if start != end:
            raise DataFileError(f"block {name!r} in {path} starts at byte {start}, not at "
                                f"{end} where the previous block ends (overlap or gap)")
        end = start + math.prod(shape) * dtype.itemsize
        if end > len(payload):
            raise DataFileError(f"truncated payload for block {name!r} in {path}")
        blocks[name] = np.frombuffer(payload[start:end], dtype=dtype).reshape(shape).copy()
    if end != len(payload):
        raise DataFileError(f"{len(payload) - end} trailing payload bytes in {path}")
    return header, blocks
