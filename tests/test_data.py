import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from conftest import ppm_blobs
from layoutedit.data import (BACKGROUND, DatasetError, caption_for,
                             generate_dataset, read_ppm, render_scene,
                             write_ppm)
from layoutedit.layout import load_layout_json
from layoutedit.metrics import iou
from layoutedit.qlt import load_qlt
from layoutedit.rng import Rng


class TestCaption:
    def test_singular(self):
        assert caption_for(1, "circle") == "one circle"

    def test_plural(self):
        assert caption_for(3, "square") == "three squares"

    def test_ten(self):
        assert caption_for(10, "circle") == "ten circles"

    @pytest.mark.parametrize("count", [0, 11, 1.0])
    def test_count_outside_words(self, count):
        with pytest.raises(DatasetError, match="count"):
            caption_for(count, "circle")


class TestRenderScene:
    def test_count_matches_boxes(self):
        for count in (1, 4, 10):
            _, boxes = render_scene(Rng(count), count, "circle")
            assert len(boxes) == count

    def test_boxes_are_disjoint(self):
        for seed in range(5):
            _, boxes = render_scene(Rng(seed), 8, "square")
            for i, a in enumerate(boxes):
                for b in boxes[i + 1:]:
                    assert iou(a, b) == 0.0

    def test_square_fills_its_box(self):
        img, boxes = render_scene(Rng(3), 1, "square", image_size=32)
        b = boxes[0]
        x0, y0 = int(b.x0 * 32), int(b.y0 * 32)
        x1, y1 = int(b.x1 * 32), int(b.y1 * 32)
        inside = img[:, y0:y1, x0:x1]
        assert (inside != BACKGROUND).all()
        outside = img.sum() - inside.sum()
        n_out = img[0].size - inside[0].size
        assert outside == pytest.approx(3 * BACKGROUND * n_out)

    def test_circle_inside_its_box(self):
        img, boxes = render_scene(Rng(4), 1, "circle", image_size=32)
        b = boxes[0]
        mask = (img != BACKGROUND).any(axis=0)
        ys, xs = np.nonzero(mask)
        assert xs.min() >= int(b.x0 * 32) and xs.max() < int(b.x1 * 32)
        assert ys.min() >= int(b.y0 * 32) and ys.max() < int(b.y1 * 32)

    def test_bad_count(self):
        with pytest.raises(DatasetError, match="count"):
            render_scene(Rng(0), 11, "circle")

    def test_bad_shape(self):
        with pytest.raises(DatasetError, match="shape"):
            render_scene(Rng(0), 2, "triangle")

    def test_deterministic(self):
        a_img, a_boxes = render_scene(Rng(9), 5, "circle")
        b_img, b_boxes = render_scene(Rng(9), 5, "circle")
        np.testing.assert_array_equal(a_img, b_img)
        assert a_boxes == b_boxes


class TestPpm:
    def test_roundtrip_within_quantization(self, tmp_path):
        img = Rng(5).uniform((3, 8, 8))
        write_ppm(tmp_path / "a.ppm", img)
        back = read_ppm(tmp_path / "a.ppm")
        np.testing.assert_allclose(back, img, atol=0.5 / 255 + 1e-12)

    def test_leading_whitespace_pixel_survives(self, tmp_path):
        img = np.full((3, 2, 2), 32 / 255)
        img[0, 0, 0] = 10 / 255
        write_ppm(tmp_path / "a.ppm", img)
        np.testing.assert_allclose(read_ppm(tmp_path / "a.ppm"), img, atol=1e-12)

    @pytest.mark.parametrize("header", [
        b"P6\n# made by hand\n2 2\n255\n",          # before the width
        b"P6 2 # width, then height\n 2\n255\n",     # between the fields
        b"P6\n2 2\n# maxval next\r\n# twice\n255\n",  # right before maxval
    ])
    def test_comment_lines_in_header(self, tmp_path, header):
        img = np.full((3, 2, 2), 35 / 255)     # '#' as the first pixel byte
        write_ppm(tmp_path / "a.ppm", img)
        payload = (tmp_path / "a.ppm").read_bytes()[len(b"P6\n2 2\n255\n"):]
        (tmp_path / "c.ppm").write_bytes(header + payload)
        np.testing.assert_array_equal(read_ppm(tmp_path / "c.ppm"),
                                      read_ppm(tmp_path / "a.ppm"))

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(blob=ppm_blobs())
    def test_any_file_reads_or_names_it(self, tmp_path, blob):
        """An image in [0, 1] of shape [3, h, w], or a DatasetError naming
        the file: never another exception."""
        path = tmp_path / "any.ppm"
        path.write_bytes(blob)
        try:
            image = read_ppm(path)
        except DatasetError as e:
            assert str(path) in str(e)
        else:
            assert image.ndim == 3 and image.shape[0] == 3
            assert image.dtype == np.float64
            assert ((image >= 0) & (image <= 1)).all()

    @pytest.mark.parametrize("blob,field", [
        (b"P6\n# c\n2 2\n# c\n65535\n" + bytes(24), "maxval"),
        (b"P6\n# c\n2 2\n# c\n255\n" + bytes(11), "payload"),
    ])
    def test_commented_header_still_checked(self, tmp_path, blob, field):
        (tmp_path / "c.ppm").write_bytes(blob)
        with pytest.raises(DatasetError, match=f"c.ppm.*{field}"):
            read_ppm(tmp_path / "c.ppm")

    @pytest.mark.parametrize("header,field", [
        (b"P6 16 16 " + b"0" * 5000 + b"255\n", "maxval has 5003 digits"),
        (b"P6 1" + b"0" * 9 + b" 1 255\n", "width has 10 digits"),
    ], ids=["maxval", "width"])
    def test_overlong_header_number_names_the_field(self, tmp_path, header, field):
        (tmp_path / "c.ppm").write_bytes(header + bytes(768))
        with pytest.raises(DatasetError, match=f"c.ppm: {field}"):
            read_ppm(tmp_path / "c.ppm")

    def test_bad_magic(self, tmp_path):
        (tmp_path / "x.ppm").write_bytes(b"P3\n1 1\n255\n000")
        with pytest.raises(DatasetError):
            read_ppm(tmp_path / "x.ppm")


class TestGenerateDataset:
    def test_files_and_index(self, tmp_path):
        names = generate_dataset(tmp_path, seed=4, counts=[1, 2, 3])
        assert names == ["scene_000", "scene_001", "scene_002"]
        for n in names:
            assert (tmp_path / f"{n}.qlt").exists()
            assert (tmp_path / f"{n}.ppm").exists()
            doc = load_layout_json(tmp_path / f"{n}.json")
            assert doc["count"] == int(n[-1]) + 1
        index = json.loads((tmp_path / "index.json").read_text())
        assert index["scenes"] == names

    def test_qlt_and_ppm_agree(self, tmp_path):
        generate_dataset(tmp_path, seed=6, counts=[4])
        exact = load_qlt(tmp_path / "scene_000.qlt")
        quantized = read_ppm(tmp_path / "scene_000.ppm")
        np.testing.assert_allclose(quantized, exact, atol=0.5 / 255 + 1e-12)

    def test_byte_identical_across_runs(self, tmp_path):
        generate_dataset(tmp_path / "a", seed=8, counts=[2, 5])
        generate_dataset(tmp_path / "b", seed=8, counts=[2, 5])
        for f in sorted((tmp_path / "a").iterdir()):
            assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes()

    def test_bad_count_rejected(self, tmp_path):
        with pytest.raises(DatasetError):
            generate_dataset(tmp_path, seed=0, counts=[11])

    @pytest.mark.parametrize("size", [4, 8, 10, 12, 15])
    def test_image_below_16_px_rejected(self, tmp_path, size):
        with pytest.raises(DatasetError, match=f"image_size must be at least 16 px.*"
                                               f"got {size}"):
            generate_dataset(tmp_path, seed=0, counts=[10], image_size=size)
        assert not tmp_path.joinpath("index.json").exists()
