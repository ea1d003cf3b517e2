import json
import math
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from layoutedit import qlt
from layoutedit.qlt import (MAGIC, MAX_RANK, QltError, load_checkpoint, load_qlt,
                            read_manifest, save_checkpoint, save_qlt)
from layoutedit.rng import Rng


def test_roundtrip_bit_exact(tmp_path):
    arr = Rng(1).normal((3, 4, 5)).astype(np.float32)
    save_qlt(tmp_path / "a.qlt", arr)
    back = load_qlt(tmp_path / "a.qlt")
    assert back.dtype == np.float32
    np.testing.assert_array_equal(back, arr)


def test_header_layout(tmp_path):
    save_qlt(tmp_path / "a.qlt", np.zeros((2, 3), dtype=np.float32))
    blob = (tmp_path / "a.qlt").read_bytes()
    assert blob[:4] == MAGIC
    assert blob[4:8] == (2).to_bytes(4, "little")
    assert blob[8:12] == (2).to_bytes(4, "little")
    assert blob[12:16] == (3).to_bytes(4, "little")
    assert len(blob) == 16 + 4 * 6


def test_bad_magic(tmp_path):
    (tmp_path / "bad.qlt").write_bytes(b"NOPE" + b"\x00" * 8)
    with pytest.raises(QltError, match="magic"):
        load_qlt(tmp_path / "bad.qlt")


@pytest.mark.parametrize("blob", [b"QLT1", b"QLT1\x02\x00\x00\x00\x04\x00"])
def test_truncated_header_names_file(tmp_path, blob):
    (tmp_path / "h.qlt").write_bytes(blob)
    with pytest.raises(QltError, match="h.qlt.*header"):
        load_qlt(tmp_path / "h.qlt")


def test_truncated_payload(tmp_path):
    save_qlt(tmp_path / "a.qlt", np.zeros(4, dtype=np.float32))
    blob = (tmp_path / "a.qlt").read_bytes()
    (tmp_path / "a.qlt").write_bytes(blob[:-4])
    with pytest.raises(QltError, match="payload"):
        load_qlt(tmp_path / "a.qlt")


def _header(*extents):
    return MAGIC + struct.pack(f"<I{len(extents)}I", len(extents), *extents)


@pytest.mark.parametrize("extents,payload", [
    ((65536,) * 4, 0),          # the int64 product wraps to 0
    ((2**32 - 1,) * 3, 0),
    ((2**32 - 1,) * 4, 16),
])
def test_extents_whose_product_overflows_int64(tmp_path, extents, payload):
    path = tmp_path / "big.qlt"
    path.write_bytes(_header(*extents) + bytes(payload))
    with pytest.raises(QltError, match=f"big.qlt: payload is {payload} bytes, "
                                       f"expected {4 * math.prod(extents)} for"):
        load_qlt(path)


def test_rank_above_the_maximum_names_file(tmp_path):
    path = tmp_path / "deep.qlt"
    path.write_bytes(_header(*[1] * (MAX_RANK + 1)) + bytes(4))
    with pytest.raises(QltError, match=f"deep.qlt: rank {MAX_RANK + 1}"):
        load_qlt(path)


EXTENTS = st.one_of(st.integers(0, 4), st.sampled_from([65536, 2**31, 2**32 - 1]))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rank=st.integers(0, MAX_RANK + 2), data=st.data())
def test_any_header_loads_or_names_the_file(tmp_path, rank, data):
    """Every header either loads with its extents or raises QltError
    naming the file: never another exception."""
    extents = data.draw(st.lists(EXTENTS, min_size=rank, max_size=rank))
    n = math.prod(extents)
    sizes = [0, 1, 4, 24] + ([4 * n] if n < 4096 else [])
    payload = data.draw(st.sampled_from(sizes))
    blob = _header(*extents) + bytes(payload)
    blob = blob[:data.draw(st.sampled_from([len(blob), 6, 8 + 4 * rank - 1]))]
    path = tmp_path / "any.qlt"
    path.write_bytes(blob)
    try:
        arr = load_qlt(path)
    except QltError as e:
        assert str(path) in str(e)
    else:
        assert arr.shape == tuple(extents) and arr.dtype == np.float32


def test_checkpoint_roundtrip(tmp_path):
    named = {"w": Rng(2).normal((4, 4)).astype(np.float32),
             "b": np.zeros(4, dtype=np.float32)}
    save_checkpoint(tmp_path / "ckpt", named, extra={"ip_attention": {"down4": {}}})
    arrays, manifest = load_checkpoint(tmp_path / "ckpt")
    assert set(arrays) == {"w", "b"}
    np.testing.assert_array_equal(arrays["w"], named["w"])
    assert manifest["ip_attention"] == {"down4": {}}
    assert read_manifest(tmp_path / "ckpt") == manifest


def test_interrupted_save_leaves_a_checkpoint_that_does_not_load(tmp_path,
                                                                  monkeypatch):
    ckpt = tmp_path / "ckpt"
    save_checkpoint(ckpt, {"a": np.zeros(2, np.float32), "b": np.ones(2, np.float32)})
    # the manifest replaces a temp file, which leaves nothing behind
    assert sorted(p.name for p in ckpt.iterdir()) == ["a.qlt", "b.qlt",
                                                      "manifest.json"]
    written = []

    def failing_save(path, arr):
        if written:
            raise OSError("disk full")
        written.append(path)
        save_qlt(path, arr)

    monkeypatch.setattr(qlt, "save_qlt", failing_save)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(ckpt, {"a": np.full(2, 5, np.float32),
                               "b": np.full(2, 6, np.float32)})
    # the new a.qlt sits next to the old b.qlt, and no manifest claims either
    np.testing.assert_array_equal(load_qlt(ckpt / "a.qlt"), 5.0)
    with pytest.raises(QltError, match="no manifest.json"):
        load_checkpoint(ckpt)


def test_checkpoint_shape_mismatch(tmp_path):
    save_checkpoint(tmp_path / "ckpt", {"w": np.zeros((2, 2), dtype=np.float32)})
    mpath = tmp_path / "ckpt" / "manifest.json"
    manifest = json.loads(mpath.read_text())
    manifest["tensors"]["w"]["shape"] = [3, 3]
    mpath.write_text(json.dumps(manifest))
    with pytest.raises(QltError, match="w"):
        load_checkpoint(tmp_path / "ckpt")


# Checked by read_manifest; the entry cases below only by load_checkpoint.
MANIFEST_CASES = [
    ("{not json", "invalid JSON"),
    ("[1, 2]", "JSON object"),
    ("{}", "'tensors'"),
    ('{"tensors": [1]}', "'tensors'"),
]


@pytest.mark.parametrize("text,what", MANIFEST_CASES + [
    ('{"tensors": {"w": {"shape": [2]}}}', "'file'"),
    ('{"tensors": {"w": {"file": "w.qlt"}}}', "'shape'"),
    ('{"tensors": {"w": "w.qlt"}}', "'file'"),
    ('{"tensors": {"w": {"file": "../x/w.qlt", "shape": [2]}}}', "outside"),
    ('{"tensors": {"w": {"file": "", "shape": [2]}}}', "outside"),
    ('{"tensors": {"w": {"file": "v.qlt", "shape": [2]}}}', "no file"),
])
def test_bad_manifest_names_path(tmp_path, text, what):
    save_checkpoint(tmp_path / "ckpt", {"w": np.zeros(2, dtype=np.float32)})
    (tmp_path / "x").mkdir()
    save_qlt(tmp_path / "x" / "w.qlt", np.zeros(2, dtype=np.float32))
    (tmp_path / "ckpt" / "manifest.json").write_text(text)
    with pytest.raises(QltError, match="manifest.json") as info:
        load_checkpoint(tmp_path / "ckpt")
    assert what in str(info.value)


@pytest.mark.parametrize("text,what", MANIFEST_CASES + [(None, "no manifest.json")])
def test_read_manifest_names_path(tmp_path, text, what):
    save_checkpoint(tmp_path / "ckpt", {"w": np.zeros(2, dtype=np.float32)})
    mpath = tmp_path / "ckpt" / "manifest.json"
    if text is None:
        mpath.unlink()
    else:
        mpath.write_text(text)
    with pytest.raises(QltError, match="manifest.json") as info:
        read_manifest(tmp_path / "ckpt")
    assert what in str(info.value)


def test_absolute_manifest_file_rejected(tmp_path):
    save_checkpoint(tmp_path / "ckpt", {"w": np.zeros(2, dtype=np.float32)})
    target = (tmp_path / "ckpt" / "w.qlt").resolve()
    manifest = {"tensors": {"w": {"file": str(target), "shape": [2]}}}
    (tmp_path / "ckpt" / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(QltError, match="manifest.json.*outside"):
        load_checkpoint(tmp_path / "ckpt")
