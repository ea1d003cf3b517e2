import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layoutedit.layout import Box4, LayoutError
from layoutedit.metrics import (Detection, DetectionSet, average_precision,
                                iou, load_detection_json, match,
                                object_accuracy, report)
from layoutedit.rng import Rng


# ---------------------------------------------------------------- oracles
def oracle_iou(a: Box4, b: Box4) -> float:
    """Independent IoU: inclusion-exclusion on clipped interval overlaps."""
    w = min(a.x1, b.x1) - max(a.x0, b.x0)
    h = min(a.y1, b.y1) - max(a.y0, b.y0)
    inter = (w if w > 0 else 0.0) * (h if h > 0 else 0.0)
    area_a = (a.x1 - a.x0) * (a.y1 - a.y0)
    area_b = (b.x1 - b.x0) * (b.y1 - b.y0)
    union = area_a + area_b - inter
    return inter / union if union > 0 else 0.0


def oracle_greedy_tp(dets, gts, thresh):
    """Count true positives: take detections in descending score order,
    each claims the best still-free ground-truth box with IoU above the
    threshold."""
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    free = list(range(len(gts)))
    tp = 0
    for i in order:
        best, best_v = None, thresh
        for j in free:
            v = oracle_iou(gts[j], dets[i].box)
            if v > best_v:
                best, best_v = j, v
        if best is not None:
            free.remove(best)
            tp += 1
    return tp


def oracle_ap(sets, thresh=0.5):
    """Threshold enumeration: one PR point per distinct score, matching
    re-run from scratch on the retained detections each time, then the
    all-points area with interpolated precision."""
    scores = sorted({d.score for s in sets for d in s.detections},
                    reverse=True)
    total_gt = sum(len(s.ground_truth) for s in sets)
    points = []
    for tau in scores:
        tp = n_kept = 0
        for s in sets:
            kept = [d for d in s.detections if d.score >= tau]
            n_kept += len(kept)
            tp += oracle_greedy_tp(kept, s.ground_truth, thresh)
        points.append((tp / total_gt, tp / n_kept))
    ap, prev_r = 0.0, 0.0
    for r, _ in points:
        p_interp = max(p for rr, p in points if rr >= r)
        ap += (r - prev_r) * p_interp
        prev_r = r
    return ap


def random_sets(rng, n_sets):
    """DetectionSets with continuous scores (ties have probability zero)."""
    sets = []
    for _ in range(n_sets):
        gts = []
        for _ in range(1 + rng.randint(4)):
            x0, y0 = rng.uniform(()) * 0.7, rng.uniform(()) * 0.7
            gts.append(Box4(x0, y0, x0 + 0.05 + rng.uniform(()) * 0.25,
                            y0 + 0.05 + rng.uniform(()) * 0.25))
        dets = []
        for g in gts:
            if rng.uniform(()) < 0.8:
                j = (rng.uniform(()) - 0.5) * 0.1
                dets.append(Detection(
                    Box4(max(0, g.x0 + j), max(0, g.y0 + j),
                         min(1, g.x1 + j), min(1, g.y1 + j)),
                    float(rng.uniform(()))))
        for _ in range(rng.randint(4)):
            x0, y0 = rng.uniform(()) * 0.8, rng.uniform(()) * 0.8
            dets.append(Detection(Box4(x0, y0, x0 + 0.1, y0 + 0.1),
                                  float(rng.uniform(()))))
        sets.append(DetectionSet(dets, gts))
    return sets


# ------------------------------------------------------------------- IoU
class TestIou:
    def test_identical_is_one(self):
        b = Box4(0.1, 0.2, 0.6, 0.9)
        assert iou(b, b) == 1.0

    def test_disjoint_is_zero(self):
        assert iou(Box4(0, 0, 0.4, 0.4), Box4(0.5, 0.5, 1, 1)) == 0.0

    def test_half_overlap_is_half(self):
        assert iou(Box4(0, 0, 1, 1), Box4(0, 0, 0.5, 1)) == 0.5

    def test_touching_edges_zero(self):
        assert iou(Box4(0, 0, 0.5, 1), Box4(0.5, 0, 1, 1)) == 0.0

    def test_degenerate_boxes(self):
        assert iou(Box4(0.3, 0.3, 0.3, 0.3), Box4(0.3, 0.3, 0.3, 0.3)) == 0.0

    def test_matches_grid_sampling(self):
        # Monte-Carlo area oracle on a fine grid.
        rng = Rng(77)
        xs = (np.arange(400) + 0.5) / 400
        gx, gy = np.meshgrid(xs, xs)
        for _ in range(10):
            v = rng.uniform((8,))
            a = Box4(min(v[0], v[1]), min(v[2], v[3]),
                     max(v[0], v[1]) + 0.01, max(v[2], v[3]) + 0.01)
            b = Box4(min(v[4], v[5]), min(v[6], v[7]),
                     max(v[4], v[5]) + 0.01, max(v[6], v[7]) + 0.01)
            in_a = (gx >= a.x0) & (gx < a.x1) & (gy >= a.y0) & (gy < a.y1)
            in_b = (gx >= b.x0) & (gx < b.x1) & (gy >= b.y0) & (gy < b.y1)
            union = (in_a | in_b).sum()
            approx = (in_a & in_b).sum() / union if union else 0.0
            assert abs(iou(a, b) - approx) < 0.02

    @given(st.lists(st.floats(0, 1), min_size=8, max_size=8))
    def test_symmetric_and_bounded(self, v):
        a = Box4(min(v[0], v[1]), min(v[2], v[3]),
                 max(v[0], v[1]), max(v[2], v[3]))
        b = Box4(min(v[4], v[5]), min(v[6], v[7]),
                 max(v[4], v[5]), max(v[6], v[7]))
        x = iou(a, b)
        assert x == iou(b, a)
        assert 0.0 <= x <= 1.0


# --------------------------------------------------------------- matching
class TestMatch:
    def test_higher_score_claims_the_box(self):
        g = Box4(0, 0, 0.5, 0.5)
        dets = DetectionSet(
            [Detection(Box4(0, 0, 0.5, 0.5), 0.3),
             Detection(Box4(0.02, 0.02, 0.5, 0.5), 0.9)], [g])
        tp, fn = match(dets)
        assert tp == [False, True]
        assert fn == 0

    def test_strict_threshold(self):
        # IoU exactly 0.5 does not count as a match
        dets = DetectionSet([Detection(Box4(0, 0, 0.5, 1), 1.0)],
                            [Box4(0, 0, 1, 1)])
        tp, fn = match(dets, iou_thresh=0.5)
        assert tp == [False] and fn == 1

    def test_score_tie_breaks_by_index(self):
        g = Box4(0, 0, 0.5, 0.5)
        dets = DetectionSet(
            [Detection(Box4(0, 0, 0.5, 0.5), 0.5),
             Detection(Box4(0, 0, 0.5, 0.5), 0.5)], [g])
        tp, _ = match(dets)
        assert tp == [True, False]


# ----------------------------------------------------------- OA hand cases
OA_CASES = [
    # (detections as (box, score), ground truth, expected correct)
    ("exact match",
     [(Box4(0, 0, 0.5, 0.5), 0.9)], [Box4(0, 0, 0.5, 0.5)], True),
    ("count mismatch extra det",
     [(Box4(0, 0, 0.5, 0.5), 0.9), (Box4(0.6, 0.6, 0.9, 0.9), 0.8)],
     [Box4(0, 0, 0.5, 0.5)], False),
    ("count mismatch missing det",
     [(Box4(0, 0, 0.5, 0.5), 0.9)],
     [Box4(0, 0, 0.5, 0.5), Box4(0.6, 0.6, 0.9, 0.9)], False),
    ("count matches but low IoU",
     [(Box4(0.5, 0.5, 1, 1), 0.9)], [Box4(0, 0, 0.4, 0.4)], False),
    ("two boxes both matched",
     [(Box4(0, 0, 0.4, 0.4), 0.9), (Box4(0.6, 0.6, 1, 1), 0.8)],
     [Box4(0, 0, 0.4, 0.4), Box4(0.6, 0.6, 1, 1)], True),
    ("two dets pile on one gt",
     [(Box4(0, 0, 0.4, 0.4), 0.9), (Box4(0.01, 0.01, 0.4, 0.4), 0.8)],
     [Box4(0, 0, 0.4, 0.4), Box4(0.6, 0.6, 1, 1)], False),
    ("borderline IoU exactly at threshold fails",
     [(Box4(0, 0, 0.5, 1), 0.9)], [Box4(0, 0, 1, 1)], False),
]


@pytest.mark.parametrize("name,dets,gts,expected",
                         OA_CASES, ids=[c[0] for c in OA_CASES])
def test_object_accuracy_hand_cases(name, dets, gts, expected):
    s = DetectionSet([Detection(b, sc) for b, sc in dets], gts)
    assert object_accuracy([s]) == (1.0 if expected else 0.0)


def test_object_accuracy_aggregates():
    good = DetectionSet([Detection(Box4(0, 0, 0.5, 0.5), 1.0)],
                        [Box4(0, 0, 0.5, 0.5)])
    bad = DetectionSet([], [Box4(0, 0, 0.5, 0.5)])
    assert object_accuracy([good, bad]) == 0.5


def test_object_accuracy_empty_input():
    with pytest.raises(ValueError):
        object_accuracy([])


# ---------------------------------------------------------------------- AP
def test_ap_perfect_detector():
    sets = [DetectionSet([Detection(Box4(0, 0, 0.5, 0.5), 0.9)],
                         [Box4(0, 0, 0.5, 0.5)])]
    assert average_precision(sets) == 1.0


def test_ap_all_misses():
    sets = [DetectionSet([Detection(Box4(0.6, 0.6, 1, 1), 0.9)],
                         [Box4(0, 0, 0.3, 0.3)])]
    assert average_precision(sets) == 0.0


def test_ap_requires_ground_truth():
    with pytest.raises(ValueError):
        average_precision([DetectionSet([], [])])


def test_ap_matches_bruteforce_oracle_50_sets():
    rng = Rng(123)
    for trial in range(50):
        sets = random_sets(rng.spawn(f"trial{trial}"), n_sets=3)
        if not any(s.detections for s in sets):
            continue
        got = average_precision(sets)
        want = oracle_ap(sets)
        assert abs(got - want) < 1e-9, f"trial {trial}: {got} vs {want}"


# ------------------------------------------------------------------ report
def test_report_fields():
    sets = [DetectionSet([Detection(Box4(0, 0, 0.5, 0.5), 0.9)],
                         [Box4(0, 0, 0.5, 0.5)]),
            DetectionSet([Detection(Box4(0.6, 0.6, 1, 1), 0.5)],
                         [Box4(0, 0, 0.3, 0.3)])]
    out = report(sets, names=["a", "b"])
    assert out["OA"] == 0.5
    assert out["per_image"][0] == {"image": "a", "tp": 1, "fp": 0, "fn": 0,
                                   "count_match": True}
    assert out["per_image"][1]["fp"] == 1


def test_detection_json_roundtrip(tmp_path):
    s = DetectionSet([Detection(Box4(0.1, 0.1, 0.4, 0.5), 0.75)],
                     [Box4(0.1, 0.1, 0.4, 0.5), Box4(0.5, 0.5, 0.9, 0.9)])
    (tmp_path / "d.json").write_text(json.dumps({
        "image": "img.ppm",
        "detections": [{"box": [0.1, 0.1, 0.4, 0.5], "score": 0.75}],
        "ground_truth": [[0.1, 0.1, 0.4, 0.5], [0.5, 0.5, 0.9, 0.9]]}))
    back = load_detection_json(tmp_path / "d.json")
    assert back.detections[0].box == s.detections[0].box
    assert back.detections[0].score == 0.75
    assert back.ground_truth == s.ground_truth


def test_detection_json_integer_scores_past_float_range(tmp_path):
    """An integer score is read as a float: 2**64 fits, 10**400 does not
    and is refused as not finite, naming the file."""
    path = tmp_path / "d.json"
    for score, ok in ((2 ** 64, True), (10 ** 400, False)):
        path.write_text(json.dumps({"detections": [
            {"box": [0.1, 0.1, 0.4, 0.5], "score": score}]}))
        if ok:
            assert load_detection_json(path).detections[0].score == float(score)
        else:
            with pytest.raises(LayoutError, match=re.escape(str(path)) + ".*not finite"):
                load_detection_json(path)
