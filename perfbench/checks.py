"""Correctness checks on what the workloads produced.

Each check returns a list of fault descriptions; an empty list means the
outputs passed. None of them compares against a stored copy of earlier
output: routing is checked against a haze score computed here in numpy
alone, cloud detections against the in-process pipeline, detections
against their defining properties, AP against the enumeration oracle and
training against loss descent.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from yolovehicle import edgecloud as ec
from yolovehicle import metrics as mx
from yolovehicle import model as md

WINDOW = 7


def dark_channel_score(image: np.ndarray) -> float:
    """Mean dark channel: per-pixel channel minimum, then a 7x7
    edge-replicated sliding-window minimum (taken as a row pass and a
    column pass, which is the same minimum), averaged in float64."""
    dark = image.min(axis=0)
    half = WINDOW // 2
    padded = np.pad(dark, half, mode="edge")
    rows = sliding_window_view(padded, WINDOW, axis=1).min(axis=-1)
    both = sliding_window_view(rows, WINDOW, axis=0).min(axis=-1)
    return float(both.mean(dtype=np.float64))


def route_faults(outcomes, scores: list, tau: float) -> list[str]:
    """Every served frame took the route `score > tau` under the
    independent score, and edge_serve's own edge and cloud counts add up,
    with the failed frames, to the frames attempted."""
    faults = []
    edge = sum(o.counted[0] for o in outcomes)
    cloud = sum(o.counted[1] for o in outcomes)
    failed = sum(o.error is not None for o in outcomes)
    if edge + cloud + failed != len(outcomes):
        faults.append(f"edge {edge} + cloud {cloud} + failed {failed} != "
                      f"{len(outcomes)} attempted")
    for o in outcomes:
        if o.error is not None or o.degraded:
            continue  # counted as failed; a degraded route is the fallback
        want = ec.Route.CLOUD if scores[o.image] > tau else ec.Route.EDGE
        counted = ec.Route.CLOUD if o.counted == (0, 1) else ec.Route.EDGE
        if o.route is not want or counted is not want:
            faults.append(f"frame {o.op}: route {o.route.value}, "
                          f"independent score {scores[o.image]:.4f} says "
                          f"{want.value}")
    return faults


def detection_faults(dets, obj_thresh: float, nms_iou: float) -> list[str]:
    """Boxes inside [0, 1], scores at least obj_thresh and sorted, no two
    boxes of one class overlapping by more than nms_iou."""
    if not dets:
        return []
    a = np.array([(d.cx, d.cy, d.w, d.h, d.score) for d in dets], np.float64)
    cls = np.array([d.class_id for d in dets])
    x1, x2 = a[:, 0] - a[:, 2] / 2, a[:, 0] + a[:, 2] / 2
    y1, y2 = a[:, 1] - a[:, 3] / 2, a[:, 1] + a[:, 3] / 2
    faults = []
    eps = 1e-9  # rounding of corners rebuilt from centre and size
    if not (np.all(a[:, 2] > 0) and np.all(a[:, 3] > 0)
            and np.all(x1 >= -eps) and np.all(y1 >= -eps)
            and np.all(x2 <= 1 + eps) and np.all(y2 <= 1 + eps)):
        faults.append("box outside [0, 1]")
    if np.any(a[:, 4] < obj_thresh):
        faults.append(f"score below obj_thresh {obj_thresh}")
    if np.any(np.diff(a[:, 4]) > 0):
        faults.append("scores not sorted in descending order")
    iw = np.clip(np.minimum(x2[:, None], x2) - np.maximum(x1[:, None], x1), 0, None)
    ih = np.clip(np.minimum(y2[:, None], y2) - np.maximum(y1[:, None], y1), 0, None)
    inter = iw * ih
    area = a[:, 2] * a[:, 3]
    iou = inter / (area[:, None] + area - inter)
    same = cls[:, None] == cls
    np.fill_diagonal(same, False)
    if np.any(same & (iou > nms_iou)):
        faults.append(f"same-class boxes overlap by more than {nms_iou}")
    return faults


def box_key(dets):
    return [(d.cx, d.cy, d.w, d.h, d.score, d.class_id) for d in dets]


def cloud_parity_faults(cloud_dets: dict, pool, bundle, text, obj_thresh,
                        nms_iou) -> list[str]:
    """Detections that came back from the cloud, per pool image, are
    bit-identical to the in-process dehaze-then-detect pipeline on the
    image as decoded off the wire."""
    faults = []
    for image, dets in sorted(cloud_dets.items()):
        payload = ec.encode_frame_payload(
            ec.image_to_frame_payload(image, pool[image]))
        wire = ec.frame_payload_to_image(ec.decode_frame_payload(payload))
        local, _ = md.detect_frame(wire, text, bundle, dehaze_first=True,
                                   obj_thresh=obj_thresh, nms_iou=nms_iou)
        if box_key(dets) != box_key(local):
            faults.append(f"image {image}: cloud detections differ from "
                          "the local pipeline")
    return faults


# map_at's own thresholds, where AP must equal the oracle exactly. The
# benchmark's untrained weights put no box at IoU 0.5 of a ground truth,
# so AP there is 0 whatever the code does.
AP_EXACT = (0.5, 0.75)
# thresholds with matches, which give the comparison something to compare.
# Here map_at and the oracle sum in different orders and can differ in the
# last bit, so they must agree to 1e-12 relative.
AP_CLOSE = (0.1, 0.2, 0.3)


def _ap_equal(thr, a, b) -> bool:
    if thr in AP_EXACT or a is None or b is None:
        return a == b
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-15)


def ap_faults(frame_dets: list, frame_gts: list) -> list[str]:
    """map_at over the frames, then each class's AP against
    average_precision_bruteforce."""
    preds = [(i, b) for i, dets in enumerate(frame_dets) for b in dets]
    gts = [(i, g) for i, boxes in enumerate(frame_gts) for g in boxes]
    faults = []
    results = mx.map_at(preds, gts, thresholds=AP_CLOSE + AP_EXACT)
    for thr, result in results.items():
        cfg = mx.MatchConfig(iou_threshold=thr)
        flags, scores, gt_count = {}, {}, {}
        for dets, boxes in zip(frame_dets, frame_gts):
            for box, fl in zip(dets, mx.match_detections(dets, boxes, cfg)):
                flags.setdefault(box.class_id, []).append(fl)
                scores.setdefault(box.class_id, []).append(box.score)
            for g in boxes:
                gt_count[g.class_id] = gt_count.get(g.class_id, 0) + 1
        for k in sorted(set(flags) | set(gt_count)):
            oracle = mx.average_precision_bruteforce(
                flags.get(k, []), scores.get(k, []), gt_count.get(k, 0))
            if not _ap_equal(thr, result.ap.get(k), oracle):
                faults.append(f"AP@{thr} class {k}: map_at {result.ap.get(k)!r} "
                              f"!= oracle {oracle!r}")
    return faults


def loss_faults(rows) -> list[str]:
    first, last = rows[0][1], rows[-1][1]
    if not math.isfinite(last) or not last < first:
        return [f"train_toy total loss went {first} -> {last}"]
    return []
