import json

import numpy as np
import pytest

from layoutedit import qlt
from layoutedit.qlt import (MAGIC, QltError, load_checkpoint, load_qlt,
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
