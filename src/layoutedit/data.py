"""Synthetic colored-shape scenes with exact boxes and counts.

Scenes are 32x32 RGB float images with 1..10 non-overlapping circles or
squares placed on a 4x4 cell grid (guaranteed disjoint boxes), plus a
layout JSON and a count-word caption like "three circles".
"""
from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np

from .encoders import COUNT_WORDS, DEFAULT_VOCAB
from .layout import Box4, save_layout_json
from .qlt import save_qlt
from .rng import Rng

SHAPES = ("circle", "square")
PALETTE = np.array([
    [0.85, 0.20, 0.20],
    [0.20, 0.60, 0.85],
    [0.25, 0.75, 0.30],
    [0.90, 0.70, 0.15],
    [0.65, 0.30, 0.80],
], dtype=np.float64)
BACKGROUND = 0.92
MIN_IMAGE_SIZE = 16     # render_scene's 4x4 cell grid needs cells of 4 px


class DatasetError(ValueError):
    """Raised on invalid generation requests."""


def caption_for(count: int, shape: str) -> str:
    if not (isinstance(count, int) and 1 <= count <= len(COUNT_WORDS)):
        raise DatasetError(f"count must be an integer in "
                           f"1..{len(COUNT_WORDS)}, got {count!r}")
    noun = shape if count == 1 else f"{shape}s"
    if not isinstance(shape, str) or noun not in DEFAULT_VOCAB:
        raise DatasetError(f"category {shape!r} is not in the vocabulary")
    return f"{COUNT_WORDS[count - 1]} {noun}"


def render_scene(rng: Rng, count: int, shape: str, image_size: int = 32):
    """Return (image [3,S,S] float in [0,1], list of normalized Box4)."""
    if not 1 <= count <= 10:
        raise DatasetError(f"count must be in 1..10, got {count}")
    if shape not in SHAPES:
        raise DatasetError(f"unknown shape {shape!r}; valid: {SHAPES}")
    s = image_size
    cell = s // 4
    img = np.full((3, s, s), BACKGROUND)
    # pick `count` distinct cells of the 4x4 grid, deterministically
    cells = list(range(16))
    for i in range(count):
        j = i + rng.randint(16 - i)
        cells[i], cells[j] = cells[j], cells[i]
    boxes = []
    yy, xx = np.mgrid[0:s, 0:s]
    for i in range(count):
        cy, cx = divmod(cells[i], 4)
        size = 4 if cell <= 4 else 4 + rng.randint(cell - 4)   # 4 .. cell-1 px
        ox = cx * cell + rng.randint(cell - size + 1)
        oy = cy * cell + rng.randint(cell - size + 1)
        color = PALETTE[rng.randint(len(PALETTE))]
        if shape == "square":
            sel = (xx >= ox) & (xx < ox + size) & (yy >= oy) & (yy < oy + size)
        else:
            r = size / 2.0
            ctr_x, ctr_y = ox + r, oy + r
            sel = (xx + 0.5 - ctr_x) ** 2 + (yy + 0.5 - ctr_y) ** 2 <= r * r
        img[:, sel] = color[:, None]
        boxes.append(Box4(ox / s, oy / s, (ox + size) / s, (oy + size) / s))
    return img, boxes


def write_ppm(path, image: np.ndarray):
    """Binary P6, 8-bit, from a [3, H, W] float image in [0, 1]."""
    c, h, w = image.shape
    pix = np.clip(np.rint(image * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode())
        f.write(pix.transpose(1, 2, 0).tobytes())


# "P6", then width, height and maxval, each after whitespace and `#`
# comments that run to a line end; one whitespace byte ends the header
_PPM_HEADER = re.compile(rb"P6" + rb"(?:\s|#[^\r\n]*[\r\n])+(\d+)" * 3 + rb"\s")


def read_ppm(path) -> np.ndarray:
    """Binary P6 with maxval 255; one whitespace byte ends the header,
    and comment lines may stand between its fields."""
    with open(path, "rb") as f:
        blob = f.read()
    header = _PPM_HEADER.match(blob)
    if header is None:
        raise DatasetError(f"{path}: not a binary PPM")
    for field, digits in zip(("width", "height", "maxval"), header.groups()):
        if len(digits) > 9:     # and int() refuses more than 4300
            raise DatasetError(f"{path}: {field} has {len(digits)} digits")
    w, h, maxval = (int(g) for g in header.groups())
    if maxval != 255:
        raise DatasetError(f"{path}: maxval is {maxval}, only 255 is supported")
    payload = blob[header.end():header.end() + w * h * 3]
    if len(payload) != w * h * 3:
        raise DatasetError(f"{path}: payload is {len(payload)} bytes, "
                           f"expected {w * h * 3} for {w}x{h}")
    pix = np.frombuffer(payload, dtype=np.uint8)
    return pix.reshape(h, w, 3).transpose(2, 0, 1).astype(np.float64) / maxval


def generate_dataset(out_dir, seed: int, counts=None, image_size: int = 32) -> list:
    """Write scene_###.{qlt,ppm,json} files plus an index; returns scene names."""
    counts = list(counts) if counts is not None else list(range(1, 11))
    for c in counts:
        if not 1 <= c <= 10:
            raise DatasetError(f"count must be in 1..10, got {c}")
    if image_size < MIN_IMAGE_SIZE:
        raise DatasetError(f"image_size must be at least {MIN_IMAGE_SIZE} px "
                           f"(a 4x4 grid of cells of 4 px or more), got {image_size}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = Rng(seed).spawn("dataset")
    names = []
    for i, count in enumerate(counts):
        shape = SHAPES[rng.randint(len(SHAPES))]
        img, boxes = render_scene(rng, count, shape, image_size)
        name = f"scene_{i:03d}"
        save_qlt(out / f"{name}.qlt", img)
        write_ppm(out / f"{name}.ppm", img)
        save_layout_json(out / f"{name}.json", image=f"{name}.qlt",
                         width=image_size, height=image_size,
                         category=shape, boxes=boxes)
        names.append(name)
    with open(out / "index.json", "w") as f:
        json.dump({"scenes": names, "seed": seed, "image_size": image_size}, f,
                  indent=1)
    return names
