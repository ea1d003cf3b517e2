"""Count/layout evaluation: IoU, greedy matching, AP, object accuracy."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import read_json_object
from .layout import Box4, LayoutError, parse_box


@dataclass
class Detection:
    box: Box4
    score: float


@dataclass
class DetectionSet:
    detections: list = field(default_factory=list)      # of Detection
    ground_truth: list = field(default_factory=list)    # of Box4


def iou(g: Box4, g_hat: Box4) -> float:
    """Intersection area over union area; empty union counts as 0."""
    ix = max(0.0, min(g.x1, g_hat.x1) - max(g.x0, g_hat.x0))
    iy = max(0.0, min(g.y1, g_hat.y1) - max(g.y0, g_hat.y0))
    inter = ix * iy
    union = g.area() + g_hat.area() - inter
    return inter / union if union > 0 else 0.0


def match(dets: DetectionSet, iou_thresh: float = 0.5):
    """Greedy one-to-one matching in descending score order.

    Returns (tp_flags aligned with dets.detections in original order,
    fn_count). Ties in score break by earlier list index.
    """
    order = sorted(range(len(dets.detections)),
                   key=lambda i: (-dets.detections[i].score, i))
    taken = [False] * len(dets.ground_truth)
    tp = [False] * len(dets.detections)
    for i in order:
        d = dets.detections[i]
        # strict ">": the IoU must exceed the threshold
        best, best_iou = -1, iou_thresh
        for j, g in enumerate(dets.ground_truth):
            if taken[j]:
                continue
            v = iou(g, d.box)
            if v > best_iou:
                best, best_iou = j, v
        if best >= 0:
            taken[best] = True
            tp[i] = True
    fn = taken.count(False)
    return tp, fn


def object_accuracy(sets, iou_thresh: float = 0.5) -> float:
    """Fraction of sets with an exact count match and every ground-truth
    box matched above the IoU threshold."""
    if not sets:
        raise ValueError("object_accuracy needs at least one set")
    correct = 0
    for s in sets:
        if len(s.detections) != len(s.ground_truth):
            continue
        _, fn = match(s, iou_thresh)
        if fn == 0:
            correct += 1
    return correct / len(sets)


def precision_recall_points(sets, iou_thresh: float = 0.5):
    """Pooled PR points swept over descending detection score.

    Returns (recalls, precisions) arrays, one point per pooled detection.
    """
    pooled = []
    total_gt = 0
    for s in sets:
        tp, _ = match(s, iou_thresh)
        total_gt += len(s.ground_truth)
        for d, flag in zip(s.detections, tp):
            pooled.append((d.score, flag))
    if total_gt == 0:
        raise ValueError("average precision needs at least one ground-truth box")
    pooled.sort(key=lambda p: -p[0])
    tps = np.cumsum([1.0 if f else 0.0 for _, f in pooled])
    ranks = np.arange(1, len(pooled) + 1)
    recalls = tps / total_gt
    precisions = tps / ranks
    return recalls, precisions


def average_precision(sets, iou_thresh: float = 0.5) -> float:
    """Area under the PR curve, all-points method with the monotone
    (right-to-left max) precision envelope."""
    recalls, precisions = precision_recall_points(sets, iou_thresh)
    if len(recalls) == 0:
        return 0.0
    env = np.maximum.accumulate(precisions[::-1])[::-1]
    prev_r, ap = 0.0, 0.0
    for r, p in zip(recalls, env):
        ap += (r - prev_r) * p
        prev_r = r
    return float(ap)


# ----------------------------------------------------------------------
def load_detection_json(path) -> DetectionSet:
    """Schema: {"image", "detections": [{"box", "score"}...],
    "ground_truth": [[x0,y0,x1,y1]...]}."""
    doc = read_json_object(path, LayoutError, "detection file")
    for key in ("detections", "ground_truth"):
        if not isinstance(doc.get(key, []), list):
            raise LayoutError(f"{path}: '{key}' must be a list")
    detections = []
    for i, d in enumerate(doc.get("detections", [])):
        where = f"{path}: detections[{i}]"
        if not isinstance(d, dict):
            raise LayoutError(f"{where} must be an object with 'box' and 'score'")
        score = d.get("score")
        if isinstance(score, bool) or not isinstance(score, (int, float)):
            raise LayoutError(f"{where}: 'score' must be a number, got {score!r}")
        try:
            score = float(score)  # an int past the float range overflows
        except OverflowError:
            score = float("inf")
        if not np.isfinite(score):
            raise LayoutError(f"{where}: score {score} is not finite")
        detections.append(Detection(box=parse_box(d.get("box"), f"{where}: box"),
                                    score=score))
    return DetectionSet(detections=detections, ground_truth=[
        parse_box(b, f"{path}: ground_truth[{i}]")
        for i, b in enumerate(doc.get("ground_truth", []))])


def report(sets, names=None, iou_thresh: float = 0.5) -> dict:
    """Aggregate OA/AP report plus per-image TP/FP/FN breakdown."""
    per_image = []
    for i, s in enumerate(sets):
        tp, fn = match(s, iou_thresh)
        entry = {
            "image": names[i] if names else str(i),
            "tp": int(sum(tp)),
            "fp": int(len(tp) - sum(tp)),
            "fn": int(fn),
            "count_match": len(s.detections) == len(s.ground_truth),
        }
        per_image.append(entry)
    total_gt = sum(len(s.ground_truth) for s in sets)
    ap = average_precision(sets, iou_thresh) if total_gt else 0.0
    return {"OA": object_accuracy(sets, iou_thresh), "AP": ap,
            "per_image": per_image}
