"""Bounding-box geometry and the shared layout embedding.

Boxes are normalized (x0, y0, x1, y1) in [0, 1]. A LayoutSet always
carries the global box (0, 0, 1, 1) in slot 0 and pads unused slots
with the (0, 0, 0, 0) sentinel, masked out of attention downstream.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .config import read_json_object
from .rng import Rng
from .tensor import Param, Tensor, linear, matmul

GLOBAL_BOX = (0.0, 0.0, 1.0, 1.0)
SENTINEL_BOX = (0.0, 0.0, 0.0, 0.0)


class LayoutError(ValueError):
    """Raised on invalid boxes or layout capacity violations."""


@dataclass(frozen=True)
class Box4:
    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self):
        if not (0.0 <= self.x0 <= self.x1 <= 1.0 and 0.0 <= self.y0 <= self.y1 <= 1.0):
            raise LayoutError(f"invalid normalized box {self.as_tuple()}")

    def as_tuple(self):
        return (self.x0, self.y0, self.x1, self.y1)

    def area(self) -> float:
        return (self.x1 - self.x0) * (self.y1 - self.y0)


@dataclass
class LayoutSet:
    """Padded box collection: slot 0 is the global box, then n real boxes."""

    boxes: list          # length max_n + 1
    valid_count: int     # n
    mask: np.ndarray     # bool per slot, True for slots 0..n

    def coords(self) -> np.ndarray:
        """[max_n+1, 4] float array in slot order."""
        return np.array([b.as_tuple() for b in self.boxes], dtype=np.float64)


def build_layout(boxes, max_n: int) -> LayoutSet:
    """Pack real boxes behind the global box, pad with sentinels."""
    boxes = [b if isinstance(b, Box4) else Box4(*b) for b in boxes]
    n = len(boxes)
    if n > max_n:
        raise LayoutError(f"{n} boxes exceed capacity max_n={max_n}")
    slots = [Box4(*GLOBAL_BOX)] + boxes + [Box4(*SENTINEL_BOX)] * (max_n - n)
    mask = np.zeros(max_n + 1, dtype=bool)
    mask[:n + 1] = True
    return LayoutSet(boxes=slots, valid_count=n, mask=mask)


def patch_grid(h: int, w: int) -> list:
    """Row-major grid boxes (u/h, v/w, (u+1)/h, (v+1)/w) tiling [0,1]^2."""
    if h < 1 or w < 1:
        raise LayoutError(f"bad grid {h}x{w}")
    return [Box4(u / h, v / w, (u + 1) / h, (v + 1) / w)
            for u in range(h) for v in range(w)]


class LayoutEmbedder:
    """Shared box embedding W_L (4 x d_L) and positional projection W_P."""

    def __init__(self, d_l: int, d_i: int, rng: Rng):
        # No bias: the sentinel box must embed to the zero vector.
        self.w_l = Param("layout.w_l", rng.spawn("layout.w_l").normal((4, d_l), std=0.5))
        self.w_p = Param("layout.w_p",
                         rng.spawn("layout.w_p").normal((d_l, d_i), std=1.0 / np.sqrt(d_l)))

    def embed(self, boxes) -> Tensor:
        """Rows of box coordinates times W_L."""
        if isinstance(boxes, LayoutSet):
            coords = boxes.coords()
        else:
            coords = np.array([b.as_tuple() for b in boxes], dtype=np.float64)
        return matmul(Tensor(coords.astype(self.w_l.data.dtype)), self.w_l.tensor)

    def project_positions(self, emb: Tensor) -> Tensor:
        """Layout embedding -> positional embedding via W_P."""
        return linear(emb, self.w_p.tensor)


def parse_box(b, where: str) -> Box4:
    """A JSON box: a list of 4 numbers forming a valid Box4. Errors
    start with `where` (file and field)."""
    if not (isinstance(b, list) and len(b) == 4 and all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in b)):
        raise LayoutError(f"{where} must be 4 numbers, got {b!r}")
    try:
        return Box4(*b)
    except LayoutError as e:
        raise LayoutError(f"{where}: {e}") from None


def load_layout_json(path) -> dict:
    """Read the layout schema: image/width/height/category/count/boxes."""
    doc = read_json_object(path, LayoutError, "layout")
    for key in ("boxes", "count", "category"):
        if key not in doc:
            raise LayoutError(f"{path}: missing '{key}'")
    if not isinstance(doc["boxes"], list):
        raise LayoutError(f"{path}: 'boxes' must be a list")
    boxes = [parse_box(b, f"{path}: boxes[{i}]")
             for i, b in enumerate(doc["boxes"])]
    if isinstance(doc["count"], bool) or not isinstance(doc["count"], int):
        raise LayoutError(f"{path}: 'count' must be an integer, "
                          f"got {doc['count']!r}")
    if doc["count"] != len(boxes):
        raise LayoutError(f"{path}: count={doc['count']} but {len(boxes)} boxes")
    doc["boxes"] = boxes
    return doc


def save_layout_json(path, image: str, width: int, height: int,
                     category: str, boxes):
    doc = {
        "image": image,
        "width": width,
        "height": height,
        "category": category,
        "count": len(boxes),
        "boxes": [list(b.as_tuple()) if isinstance(b, Box4) else list(b)
                  for b in boxes],
    }
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
