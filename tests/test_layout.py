import json

import numpy as np
import pytest

from conftest import assert_grad_matches
from layoutedit.layout import (Box4, LayoutEmbedder, LayoutError, build_layout,
                               load_layout_json, patch_grid,
                               save_layout_json)
from layoutedit.rng import Rng
from layoutedit.tensor import Tensor


class TestBuildLayout:
    def test_empty_layout(self):
        ls = build_layout([], max_n=4)
        assert ls.valid_count == 0
        assert ls.boxes[0].as_tuple() == (0.0, 0.0, 1.0, 1.0)
        assert all(b.as_tuple() == (0.0, 0.0, 0.0, 0.0) for b in ls.boxes[1:])
        assert list(ls.mask) == [True, False, False, False, False]

    def test_full_capacity(self):
        boxes = [Box4(0, 0, 0.5, 0.5), Box4(0.5, 0.5, 1, 1)]
        ls = build_layout(boxes, max_n=2)
        assert ls.boxes[1:] == boxes
        assert ls.mask.all()

    def test_partial_mask(self):
        ls = build_layout([Box4(0, 0, 0.5, 0.5)], max_n=3)
        assert list(ls.mask) == [True, True, False, False]

    def test_overflow(self):
        with pytest.raises(LayoutError, match="capacity"):
            build_layout([Box4(0, 0, 1, 1)] * 3, max_n=2)


class TestPatchGrid:
    def test_degenerate(self):
        assert patch_grid(1, 1)[0].as_tuple() == (0.0, 0.0, 1.0, 1.0)

    def test_first_cell(self):
        assert patch_grid(2, 2)[0].as_tuple() == (0.0, 0.0, 0.5, 0.5)

    def test_last_cell(self):
        assert patch_grid(2, 2)[3].as_tuple() == (0.5, 0.5, 1.0, 1.0)

    def test_row_major_order(self):
        g = patch_grid(2, 3)
        # second entry advances the second coordinate (column v)
        assert g[1].as_tuple() == (0.0, 1 / 3, 0.5, 2 / 3)

    @pytest.mark.parametrize("h,w", [(1, 1), (2, 2), (3, 5), (4, 4)])
    def test_tiles_unit_square(self, h, w):
        boxes = patch_grid(h, w)
        assert len(boxes) == h * w
        assert sum(b.area() for b in boxes) == pytest.approx(1.0, abs=1e-12)
        for i, a in enumerate(boxes):
            for b in boxes[i + 1:]:
                ix = min(a.x1, b.x1) - max(a.x0, b.x0)
                iy = min(a.y1, b.y1) - max(a.y0, b.y0)
                assert max(0.0, ix) * max(0.0, iy) == 0.0


class TestEmbedding:
    def test_identity_weights(self):
        emb = LayoutEmbedder(4, 8, Rng(0))
        emb.w_l.tensor.data = np.eye(4)
        ls = build_layout([Box4(0.1, 0.2, 0.3, 0.4)], max_n=2)
        out = emb.embed(ls).data
        np.testing.assert_allclose(out[1], [0.1, 0.2, 0.3, 0.4])

    def test_sentinel_embeds_to_zero(self):
        emb = LayoutEmbedder(16, 8, Rng(1))
        ls = build_layout([], max_n=3)
        out = emb.embed(ls).data
        np.testing.assert_array_equal(out[1:], 0.0)

    def test_positions_shape_and_zero(self):
        emb = LayoutEmbedder(16, 8, Rng(1))
        zero = emb.project_positions(Tensor(np.zeros((5, 16))))
        assert zero.shape == (5, 8)
        np.testing.assert_array_equal(zero.data, 0.0)

    def test_grad_through_w_l_and_w_p(self):
        emb = LayoutEmbedder(6, 5, Rng(2))
        ls = build_layout([Box4(0.2, 0.3, 0.8, 0.9)], max_n=2)
        r = Rng(3).normal((3, 5))

        def scalar():
            out = emb.project_positions(emb.embed(ls))
            return (out * Tensor(r)).sum()

        for p in (emb.w_l, emb.w_p):
            p.tensor.requires_grad = True
            assert_grad_matches(scalar, p.tensor)


def test_layout_json_roundtrip(tmp_path):
    boxes = [Box4(0.1, 0.1, 0.5, 0.5), Box4(0.6, 0.6, 0.9, 0.8)]
    save_layout_json(tmp_path / "l.json", image="x.qlt", width=32, height=32,
                     category="circle", boxes=boxes)
    doc = load_layout_json(tmp_path / "l.json")
    assert doc["count"] == 2
    assert doc["boxes"] == boxes
    assert doc["category"] == "circle"


@pytest.mark.parametrize("doc,field", [
    ([], "object"),
    ({"count": 0, "category": "circle"}, "'boxes'"),
    ({"boxes": "none", "count": 0, "category": "circle"}, "'boxes'"),
    ({"boxes": [[0.1, 0.1, 0.2]], "count": 1, "category": "circle"}, "boxes[0]"),
    ({"boxes": [[0.1, 0.1, 0.2, "x"]], "count": 1, "category": "circle"}, "boxes[0]"),
    ({"boxes": [[0.1, 0.1, 0.5, 0.5], [0.5, 0.5, 0.2, 0.9]], "count": 2,
      "category": "circle"}, "boxes[1]"),
    ({"boxes": [], "category": "circle"}, "'count'"),
    ({"boxes": [], "count": 0}, "'category'"),
    ({"boxes": [], "count": 1, "category": "circle"}, "count"),
])
def test_bad_layout_json_names_file_and_field(tmp_path, doc, field):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(LayoutError, match="bad.json") as info:
        load_layout_json(path)
    assert field in str(info.value)


def test_invalid_layout_json_names_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(LayoutError, match="bad.json: invalid JSON"):
        load_layout_json(path)


def test_json_nested_deeper_than_the_parser_recurses_names_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"boxes": ' + "[" * 100000 + "]" * 100000 + "}")
    with pytest.raises(LayoutError, match="bad.json: invalid JSON"):
        load_layout_json(path)
