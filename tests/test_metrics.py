import json
import math
import os

import pytest

from yolovehicle import metrics as mx
from yolovehicle import tensor_core as tc
from yolovehicle.detection import BBox

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "metrics_scenario.json")


def random_boxes(rng, n, n_classes=3, scored=True):
    out = []
    for _ in range(n):
        cx, cy = (float(v) for v in rng.uniform(0.2, 0.8, (2,)))
        w, h = (float(v) for v in rng.uniform(0.05, 0.4, (2,)))
        k = int(rng.integers(n_classes, 1)[0])
        score = float(rng.uniform(0.01, 0.99, (1,))[0]) if scored else 1.0
        out.append(BBox(cx, cy, w, h, class_id=k, score=score))
    return out


def one_frame(boxes):
    """map_at's (frame_id, BBox) pairs, every box in frame 0."""
    return [(0, b) for b in boxes]


class TestMatchDetections:
    def test_iou_above_threshold_is_tp(self):
        gt = BBox(0.5, 0.5, 0.4, 0.4)
        pred = BBox(0.52, 0.5, 0.4, 0.4, score=0.9)
        assert mx.iou(pred, gt) > 0.5
        assert mx.match_detections([pred], [gt], mx.MatchConfig(0.5)) == [True]

    def test_same_pair_stricter_threshold_is_fp(self):
        gt = BBox(0.5, 0.5, 0.4, 0.4)
        pred = BBox(0.6, 0.5, 0.4, 0.4, score=0.9)
        v = mx.iou(pred, gt)
        assert 0.5 < v < 0.75
        assert mx.match_detections([pred], [gt], mx.MatchConfig(0.75)) == [False]

    def test_single_match_higher_score_wins(self):
        gt = BBox(0.5, 0.5, 0.4, 0.4)
        a = BBox(0.5, 0.5, 0.4, 0.4, score=0.6)
        b = BBox(0.51, 0.5, 0.4, 0.4, score=0.9)
        flags = mx.match_detections([a, b], [gt], mx.MatchConfig(0.5))
        assert flags == [False, True]

    def test_class_mismatch_is_fp(self):
        gt = BBox(0.5, 0.5, 0.4, 0.4, class_id=1)
        pred = BBox(0.5, 0.5, 0.4, 0.4, class_id=2, score=0.9)
        assert mx.match_detections([pred], [gt], mx.MatchConfig(0.5)) == [False]

    def test_highest_iou_gt_chosen(self):
        near = BBox(0.5, 0.5, 0.4, 0.4)
        far = BBox(0.6, 0.5, 0.4, 0.4)
        pred = BBox(0.5, 0.5, 0.4, 0.4, score=0.9)
        flags = mx.match_detections([pred], [far, near], mx.MatchConfig(0.5))
        assert flags == [True]
        # the nearer gt was consumed: a second identical pred can only take far
        p2 = BBox(0.5, 0.5, 0.4, 0.4, score=0.8)
        flags = mx.match_detections([pred, p2], [far, near], mx.MatchConfig(0.5))
        assert flags == [True, True]

    def test_no_double_assignment_random(self):
        rng = tc.Rng(30)
        for _ in range(50):
            gts = random_boxes(rng, 4, scored=False)
            preds = random_boxes(rng, 8)
            flags = mx.match_detections(preds, gts, mx.MatchConfig(0.5))
            assert sum(flags) <= len(gts)

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            mx.MatchConfig(0.0)
        with pytest.raises(ValueError):
            mx.MatchConfig(1.5)


class TestAveragePrecision:
    def test_single_tp(self):
        assert mx.average_precision([True], [0.9], 1) == 1.0

    def test_single_fp(self):
        assert mx.average_precision([False], [0.9], 1) == 0.0

    def test_no_gts_with_preds_zero(self):
        assert mx.average_precision([False, False], [0.5, 0.4], 0) == 0.0

    def test_undefined_class_skipped(self):
        assert mx.average_precision([], [], 0) is None

    def test_equals_bruteforce_oracle_100_trials(self):
        rng = tc.Rng(31)
        for trial in range(100):
            n = 1 + int(rng.integers(10, 1)[0])
            gt_count = 1 + int(rng.integers(6, 1)[0])
            flags = [bool(rng.uniform(0, 1, (1,))[0] < 0.5) for _ in range(n)]
            if sum(flags) > gt_count:
                flags = [f and i < gt_count for i, f in enumerate(flags)]
            scores = [float(rng.uniform(0, 1, (1,))[0]) for _ in range(n)]
            if trial % 3 == 0:
                scores = [round(s, 1) for s in scores]  # force ties
            a = mx.average_precision(flags, scores, gt_count)
            b = mx.average_precision_bruteforce(flags, scores, gt_count)
            assert a == b, (trial, flags, scores, gt_count)

    def test_equals_bruteforce_oracle_where_pairwise_sum_differs(self):
        # a pairwise np.sum gave 0.5146103896103895 against the oracle's
        # left-to-right 0.5146103896103896
        flags = [True, False, True, True, False, False, False, True, True, False, True]
        scores = [.9, .42, .97, .85, .97, .61, .23, .86, .02, .89, .74]
        a = mx.average_precision(flags, scores, 8)
        assert a == mx.average_precision_bruteforce(flags, scores, 8)
        assert a == 0.5146103896103896

    def test_rank_invariance_under_monotone_transform(self):
        rng = tc.Rng(32)
        for _ in range(20):
            flags = [bool(rng.uniform(0, 1, (1,))[0] < 0.5) for _ in range(8)]
            scores = [float(rng.uniform(0, 1, (1,))[0]) for _ in range(8)]
            base = mx.average_precision(flags, scores, 5)
            warped = [math.exp(3 * s) + 1 for s in scores]
            assert abs(mx.average_precision(flags, warped, 5) - base) < 1e-12


class TestMapAt:
    def test_perfect_predictions(self):
        gts = random_boxes(tc.Rng(33), 5, scored=False)
        preds = [BBox(g.cx, g.cy, g.w, g.h, g.class_id, score=0.9) for g in gts]
        res = mx.map_at(one_frame(preds), one_frame(gts))
        assert res[0.5].map == 1.0
        assert res[0.75].map == 1.0

    def test_empty_predictions(self):
        gts = random_boxes(tc.Rng(34), 4, scored=False)
        res = mx.map_at([], one_frame(gts))
        assert res[0.5].map == 0.0
        for k, cnt in res[0.5].fn.items():
            assert cnt == sum(1 for g in gts if g.class_id == k)

    def test_stored_scenario_matches_recorded_oracle(self):
        with open(FIXTURE) as fh:
            data = json.load(fh)
        preds = [(f, BBox(cx, cy, w, h, class_id=k, score=s))
                 for f, cx, cy, w, h, k, s in data["preds"]]
        gts = [(f, BBox(cx, cy, w, h, class_id=k))
               for f, cx, cy, w, h, k in data["gts"]]
        res = mx.map_at(preds, gts, thresholds=(0.5, 0.75))
        for thr_key, expected in data["expected"].items():
            r = res[float(thr_key)]
            assert abs(r.map - expected["map"]) < 1e-9
            for k, v in expected["ap"].items():
                assert abs(r.ap[int(k)] - v) < 1e-9

    def test_map_monotone_in_threshold(self):
        rng = tc.Rng(35)
        for _ in range(10):
            gts = random_boxes(rng, 5, scored=False)
            preds = random_boxes(rng, 8)
            res = mx.map_at(one_frame(preds), one_frame(gts), thresholds=(0.5, 0.75))
            assert res[0.75].map <= res[0.5].map + 1e-12

    def test_tp_plus_fn_equals_gt_count(self):
        rng = tc.Rng(36)
        gts = random_boxes(rng, 6, scored=False)
        preds = random_boxes(rng, 6)
        res = mx.map_at(one_frame(preds), one_frame(gts), thresholds=(0.5,))[0.5]
        for k in res.tp:
            n_gt = sum(1 for g in gts if g.class_id == k)
            assert res.tp[k] + res.fn[k] == n_gt

    def test_bare_box_list_rejected(self):
        # a bare list once meant one frame; beside pairs it put every
        # prediction in frame 0
        gts = random_boxes(tc.Rng(38), 3, scored=False)
        with pytest.raises(TypeError):
            mx.map_at(gts, one_frame(gts))

    def test_no_true_negative_count(self):
        # detection has no enumerable set of correctly absent boxes
        rng = tc.Rng(37)
        gts = random_boxes(rng, 5, scored=False)
        preds = random_boxes(rng, 10)
        res = mx.map_at(one_frame(preds), one_frame(gts), thresholds=(0.5,))[0.5]
        assert list(vars(res)) == ["ap", "map", "tp", "fp", "fn"]

