"""QLT tensor file format and directory checkpoints.

A QLT file is: magic b"QLT1", u32 little-endian rank, rank x u32
little-endian extents, then the row-major IEEE-754 little-endian f32
payload. A checkpoint is a directory of named QLT files plus a
manifest.json mapping {name -> {file, shape}}.
"""
from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

from .config import read_json_object

MAGIC = b"QLT1"
MAX_RANK = 32       # numpy builds arrays of up to 32 dimensions on every version


class QltError(ValueError):
    """Raised on malformed QLT files or checkpoint manifests."""


def save_qlt(path, arr: np.ndarray):
    arr = np.ascontiguousarray(arr, dtype="<f4")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", arr.ndim))
        for e in arr.shape:
            f.write(struct.pack("<I", e))
        f.write(arr.tobytes())


def load_qlt(path) -> np.ndarray:
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != MAGIC:
        raise QltError(f"{path}: bad magic {blob[:4]!r}")
    if len(blob) < 8:
        raise QltError(f"{path}: file of {len(blob)} bytes is shorter than its header")
    (rank,) = struct.unpack_from("<I", blob, 4)
    if rank > MAX_RANK:
        raise QltError(f"{path}: rank {rank} is above the maximum {MAX_RANK}")
    if len(blob) < 8 + 4 * rank:
        raise QltError(f"{path}: header of rank {rank} is longer than the "
                       f"{len(blob)}-byte file")
    shape = struct.unpack_from(f"<{rank}I", blob, 8)
    payload = blob[8 + 4 * rank:]
    n = math.prod(shape)    # exact, where an int64 product would wrap
    if len(payload) != 4 * n:
        raise QltError(f"{path}: payload is {len(payload)} bytes, "
                       f"expected {4 * n} for shape {shape}")
    # numpy refuses a shape whose nonzero extents overflow, even with a 0
    if 4 * math.prod(e for e in shape if e) > np.iinfo(np.intp).max:
        raise QltError(f"{path}: shape {shape} is too large for an array")
    return np.frombuffer(payload, dtype="<f4").reshape(shape).copy()


def save_checkpoint(directory, named_arrays: dict, extra: dict | None = None):
    """Write named arrays as QLT files plus a manifest.

    `extra` entries are copied verbatim into the manifest (e.g. the
    run config). The old manifest goes first and the new one comes last,
    through a temp file: a write that stops part way leaves none.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "manifest.json").unlink(missing_ok=True)
    manifest = {"tensors": {}}
    for name in sorted(named_arrays):
        fname = name.replace("/", "_").replace(".", "_") + ".qlt"
        save_qlt(directory / fname, named_arrays[name])
        manifest["tensors"][name] = {
            "file": fname,
            "shape": list(np.asarray(named_arrays[name]).shape),
        }
    if extra:
        manifest.update(extra)
    tmp = directory / "manifest.json.tmp"
    with open(tmp, "w") as f:
        json.dump(manifest, f, indent=1, sort_keys=True)
    tmp.replace(directory / "manifest.json")


def read_manifest(directory) -> dict:
    """Return a checkpoint's manifest, checked to carry a `tensors` object."""
    mpath = Path(directory) / "manifest.json"
    if not mpath.exists():
        raise QltError(f"no manifest.json in {directory}")
    manifest = read_json_object(mpath, QltError, "manifest")
    if not isinstance(manifest.get("tensors"), dict):
        raise QltError(f"{mpath}: 'tensors' must be an object")
    return manifest


def load_checkpoint(directory) -> tuple[dict, dict]:
    """Return ({name -> ndarray}, manifest)."""
    directory = Path(directory)
    mpath = directory / "manifest.json"
    manifest = read_manifest(directory)
    root = directory.resolve()
    arrays = {}
    for name, entry in manifest["tensors"].items():
        if not (isinstance(entry, dict) and isinstance(entry.get("file"), str)
                and isinstance(entry.get("shape"), list)):
            raise QltError(f"{mpath}: tensor {name}: entry needs a 'file' "
                           f"string and a 'shape' list")
        path = (directory / entry["file"]).resolve()
        if Path(entry["file"]).is_absolute() or root not in path.parents:
            raise QltError(f"{mpath}: tensor {name}: file {entry['file']!r} "
                           f"is outside the checkpoint directory")
        if not path.is_file():
            raise QltError(f"{mpath}: tensor {name}: no file {entry['file']!r}")
        arr = load_qlt(path)
        if list(arr.shape) != entry["shape"]:
            raise QltError(f"{mpath}: tensor {name}: file shape "
                           f"{list(arr.shape)} != manifest shape {entry['shape']}")
        arrays[name] = arr
    return arrays, manifest
