"""Detection quality metrics: greedy matching, per-class AP and mAP.

Average precision uses all-point interpolation over the achievable operating
points (one per distinct score threshold). A deliberately naive
threshold-enumeration implementation is kept alongside as a validation
oracle; the two must agree exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .detection import BBox, iou


@dataclass
class MatchConfig:
    iou_threshold: float

    def __post_init__(self):
        if not 0.0 < self.iou_threshold <= 1.0:
            raise ValueError(f"iou_threshold must lie in (0, 1], got {self.iou_threshold}")


@dataclass
class EvalResult:
    ap: dict            # class_id -> AP (classes with no gts and no preds are skipped)
    map: float
    tp: dict            # class_id -> count
    fp: dict
    fn: dict


def match_detections(preds: list[BBox], gts: list[BBox],
                     cfg: MatchConfig) -> list[bool]:
    """True-positive flag per prediction, aligned with the input order.

    Predictions are matched greedily in descending score; each ground truth
    is consumed by at most one prediction. The best (highest-IoU) unmatched
    ground truth of the same class wins; IoU ties go to the lower gt index.
    """
    order = sorted(range(len(preds)), key=lambda i: (-preds[i].score, i))
    taken = [False] * len(gts)
    flags = [False] * len(preds)
    for i in order:
        p = preds[i]
        best_iou, best_j = 0.0, -1
        for j, g in enumerate(gts):
            if taken[j] or g.class_id != p.class_id:
                continue
            v = iou(p, g)
            if v >= cfg.iou_threshold and v > best_iou:
                best_iou, best_j = v, j
        if best_j >= 0:
            taken[best_j] = True
            flags[i] = True
    return flags


def _operating_points(flags, scores, gt_count):
    """(recall, precision) at each distinct score threshold, descending."""
    order = np.argsort(-np.asarray(scores, dtype=np.float64), kind="stable")
    s = np.asarray(scores, dtype=np.float64)[order]
    f = np.asarray(flags, dtype=np.float64)[order]
    tp = np.cumsum(f)
    fp = np.cumsum(1.0 - f)
    # operating points exist only where the threshold can actually separate:
    # groups of tied scores collapse onto their last cumulative row
    last_of_group = np.nonzero(np.append(s[1:] != s[:-1], True))[0]
    tp, fp = tp[last_of_group], fp[last_of_group]
    recall = tp / gt_count
    precision = tp / (tp + fp)
    return recall, precision


def average_precision(flags: list[bool], scores: list[float], gt_count: int):
    """All-point interpolated AP; None when the class has nothing to rank."""
    if gt_count < 0:
        raise ValueError("gt_count must be >= 0")
    if gt_count == 0:
        return 0.0 if flags else None
    if not flags:
        return 0.0
    recall, precision = _operating_points(flags, scores, gt_count)
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    prev = np.concatenate(([0.0], recall[:-1]))
    # left to right in recall order, as the oracle adds (np.sum pairs terms
    # up and can round the last bit differently)
    return float(np.cumsum((recall - prev) * envelope)[-1])


def average_precision_bruteforce(flags: list[bool], scores: list[float],
                                 gt_count: int):
    """Validation oracle: enumerate every score threshold independently."""
    if gt_count < 0:
        raise ValueError("gt_count must be >= 0")
    if gt_count == 0:
        return 0.0 if flags else None
    if not flags:
        return 0.0
    points = []
    for t in sorted(set(scores)):
        kept = [(fl, sc) for fl, sc in zip(flags, scores) if sc >= t]
        tp = sum(1 for fl, _ in kept if fl)
        fp = len(kept) - tp
        points.append((tp / gt_count, tp / (tp + fp)))
    points.sort()
    recalls = sorted({r for r, _ in points})
    ap = 0.0
    prev = 0.0
    for r in recalls:
        best = max(p for pr, p in points if pr >= r)
        ap += (r - prev) * best
        prev = r
    return ap


def _group_by_frame(items):
    frames: dict = {}
    for fid, box in items:
        frames.setdefault(fid, []).append(box)
    return frames


def map_at(preds, gts, thresholds=(0.5, 0.75)) -> dict[float, EvalResult]:
    """EvalResult per IoU threshold. Inputs are (frame_id, BBox) pairs;
    matching never crosses frame boundaries.
    """
    pred_frames = _group_by_frame(preds)
    gt_frames = _group_by_frame(gts)
    results = {}
    for thr in thresholds:
        cfg = MatchConfig(iou_threshold=thr)
        classes = ({b.class_id for f in pred_frames.values() for b in f}
                   | {b.class_id for f in gt_frames.values() for b in f})
        per_class_flags: dict = {k: ([], []) for k in classes}
        gt_counts = {k: 0 for k in classes}
        for fid in sorted(set(pred_frames) | set(gt_frames)):
            fp_boxes = pred_frames.get(fid, [])
            fg_boxes = gt_frames.get(fid, [])
            flags = match_detections(fp_boxes, fg_boxes, cfg)
            for box, fl in zip(fp_boxes, flags):
                per_class_flags[box.class_id][0].append(fl)
                per_class_flags[box.class_id][1].append(box.score)
            for box in fg_boxes:
                gt_counts[box.class_id] += 1
        ap, tp, fp, fn = {}, {}, {}, {}
        for k in sorted(classes):
            flags_k, scores_k = per_class_flags[k]
            v = average_precision(flags_k, scores_k, gt_counts[k])
            if v is not None:
                ap[k] = v
            tp[k] = sum(flags_k)
            fp[k] = len(flags_k) - tp[k]
            fn[k] = gt_counts[k] - tp[k]
        results[thr] = EvalResult(
            ap=ap, map=float(np.mean(list(ap.values()))) if ap else 0.0,
            tp=tp, fp=fp, fn=fn)
    return results

