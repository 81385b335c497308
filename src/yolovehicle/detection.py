"""Detection head, target assignment, the three-term detection loss, decoding.

The head is three 1x1 convolutions over the fused feature map: objectness,
per-side distance distributions (distribution-focal style, REG_MAX + 1 bins
per side), and class scores. Box regression distances are measured from the
cell center in cell units.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import tensor_core as tc

REG_MAX = 7  # largest box-side distance in cells; REG_MAX + 1 bins per side
OBJ_THRESH = 0.5  # default objectness threshold of every detecting caller
NMS_IOU = 0.5     # default NMS IoU threshold, likewise
MAX_CANDIDATES = 512  # top-scoring cells decode keeps before NMS
# the paper's three loss weights: of the class, box (CIoU) and distribution
# focal terms of the detection loss
LAMBDA_CLS, LAMBDA_BBOX, LAMBDA_DFL = 0.6, 7.0, 0.4


def check_threshold(name: str, value: float) -> float:
    """value, if it lies strictly inside (0, 1); ValueError naming name
    otherwise."""
    if not 0.0 < value < 1.0:
        raise ValueError(f"{name} must lie in (0, 1), got {value}")
    return value


@dataclass
class HeadParams:
    w_obj: np.ndarray  # [1, C]
    b_obj: np.ndarray  # [1]
    w_box: np.ndarray  # [4*(REG_MAX+1), C]
    b_box: np.ndarray
    w_cls: np.ndarray  # [K, C]
    b_cls: np.ndarray


@dataclass
class HeadOutput:
    obj: np.ndarray         # [1, H, W], sigmoid probabilities
    box: np.ndarray         # [4*(REG_MAX+1), H, W], raw logits
    cls: np.ndarray         # [K, H, W], per-cell scores
    obj_logits: np.ndarray
    cls_logits: np.ndarray


@dataclass
class BBox:
    cx: float
    cy: float
    w: float
    h: float
    class_id: int = 0
    score: float = 1.0

    def corners(self):
        return (self.cx - self.w / 2, self.cy - self.h / 2,
                self.cx + self.w / 2, self.cy + self.h / 2)

    @property
    def area(self) -> float:
        return self.w * self.h


def init_head(rng: tc.Rng, channels: int, n_classes: int) -> HeadParams:
    nb = REG_MAX + 1
    return HeadParams(
        w_obj=tc.init_uniform(rng, (1, channels), channels),
        b_obj=np.zeros(1, tc.DTYPE),
        w_box=tc.init_uniform(rng, (4 * nb, channels), channels),
        b_box=np.zeros(4 * nb, tc.DTYPE),
        w_cls=tc.init_uniform(rng, (n_classes, channels), channels),
        b_cls=np.zeros(n_classes, tc.DTYPE),
    )


def head_forward(feat: np.ndarray, params: HeadParams) -> HeadOutput:
    if feat.ndim != 3 or feat.shape[0] != params.w_obj.shape[1]:
        raise ValueError(f"feature shape {feat.shape} does not match head channels "
                         f"{params.w_obj.shape[1]}")
    obj_logits = np.einsum("oc,chw->ohw", params.w_obj, feat) + params.b_obj[:, None, None]
    box = np.einsum("oc,chw->ohw", params.w_box, feat) + params.b_box[:, None, None]
    cls_logits = np.einsum("oc,chw->ohw", params.w_cls, feat) + params.b_cls[:, None, None]
    cls = tc.softmax(cls_logits, axis=0)
    return HeadOutput(obj=tc.sigmoid(obj_logits), box=box, cls=cls,
                      obj_logits=obj_logits, cls_logits=cls_logits)


def head_backward(feat: np.ndarray, params: HeadParams, g_obj: np.ndarray,
                  g_box: np.ndarray, g_cls: np.ndarray):
    """Gradients wrt head params (as a HeadParams) and the input feature map
    (logit-space grads in)."""
    grads = replace(
        params,
        w_obj=np.einsum("ohw,chw->oc", g_obj, feat),
        b_obj=g_obj.sum(axis=(1, 2)),
        w_box=np.einsum("ohw,chw->oc", g_box, feat),
        b_box=g_box.sum(axis=(1, 2)),
        w_cls=np.einsum("ohw,chw->oc", g_cls, feat),
        b_cls=g_cls.sum(axis=(1, 2)),
    )
    g_feat = (np.einsum("oc,ohw->chw", params.w_obj, g_obj)
              + np.einsum("oc,ohw->chw", params.w_box, g_box)
              + np.einsum("oc,ohw->chw", params.w_cls, g_cls))
    return grads, g_feat


# ---------------------------------------------------------------------------
# box geometry


def iou(a: BBox, b: BBox) -> float:
    ax1, ay1, ax2, ay2 = a.corners()
    bx1, by1, bx2, by2 = b.corners()
    iw = float(min(ax2, bx2)) - float(max(ax1, bx1))
    ih = float(min(ay2, by2)) - float(max(ay1, by1))
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    union = float(a.area) + float(b.area) - inter
    return inter / union


def ciou_loss_with_grad(pred: np.ndarray, gt: BBox, alpha: float | None = None):
    """CIoU loss, its gradient wrt pred = [cx, cy, w, h], and the
    aspect-ratio weight alpha the loss used.

    Alpha is treated as a constant during the gradient, matching the usual
    CIoU training convention. Passing the returned alpha back in pins it in
    the forward value, which makes the loss exactly the function the
    gradient differentiates (used by the gradient-check oracle).
    """
    if gt.w <= 0 or gt.h <= 0:
        raise ValueError(f"degenerate ground-truth box w={gt.w} h={gt.h}")
    px, py, pw, ph = (float(v) for v in pred)
    # plain floats throughout: float32 scalars sneaking in from stored boxes
    # would silently downcast the arithmetic
    gcx, gcy, gw, gh = float(gt.cx), float(gt.cy), float(gt.w), float(gt.h)
    gx1, gy1 = gcx - gw / 2, gcy - gh / 2
    gx2, gy2 = gcx + gw / 2, gcy + gh / 2
    x1, y1 = px - pw / 2, py - ph / 2
    x2, y2 = px + pw / 2, py + ph / 2

    iw = min(x2, gx2) - max(x1, gx1)
    ih = min(y2, gy2) - max(y1, gy1)
    inter = max(iw, 0.0) * max(ih, 0.0)
    # areas from the same corner arithmetic so identical boxes give iou == 1 exactly
    area_p = (x2 - x1) * (y2 - y1)
    area_g = (gx2 - gx1) * (gy2 - gy1)
    union = area_p + area_g - inter
    iou_v = inter / union

    # gradients of intersection/union wrt corners (sub-gradients at ties)
    d_iw_x1 = -1.0 if x1 > gx1 else 0.0
    d_iw_x2 = 1.0 if x2 < gx2 else 0.0
    d_ih_y1 = -1.0 if y1 > gy1 else 0.0
    d_ih_y2 = 1.0 if y2 < gy2 else 0.0
    # chain corners -> (cx, cy, w, h): x1 = cx - w/2, x2 = cx + w/2
    def corner_grads(d_x1, d_x2, d_y1, d_y2):
        return np.array([
            d_x1 + d_x2,
            d_y1 + d_y2,
            -0.5 * d_x1 + 0.5 * d_x2,
            -0.5 * d_y1 + 0.5 * d_y2,
        ])

    if iw > 0 and ih > 0:
        g_inter = corner_grads(ih * d_iw_x1, ih * d_iw_x2, iw * d_ih_y1, iw * d_ih_y2)
    else:
        g_inter = np.zeros(4)
    g_area = np.array([0.0, 0.0, ph, pw])
    g_union = g_area - g_inter
    g_iou = (g_inter * union - inter * g_union) / (union * union)

    rho2 = (px - gcx) ** 2 + (py - gcy) ** 2
    cw = max(x2, gx2) - min(x1, gx1)
    ch = max(y2, gy2) - min(y1, gy1)
    c2 = cw * cw + ch * ch
    g_rho2 = np.array([2 * (px - gcx), 2 * (py - gcy), 0.0, 0.0])
    d_cw_x1 = -1.0 if x1 < gx1 else 0.0
    d_cw_x2 = 1.0 if x2 > gx2 else 0.0
    d_ch_y1 = -1.0 if y1 < gy1 else 0.0
    d_ch_y2 = 1.0 if y2 > gy2 else 0.0
    g_c2 = corner_grads(2 * cw * d_cw_x1, 2 * cw * d_cw_x2, 2 * ch * d_ch_y1, 2 * ch * d_ch_y2)
    g_dist = (g_rho2 * c2 - rho2 * g_c2) / (c2 * c2)

    k = 4.0 / (math.pi ** 2)
    delta = math.atan2(gw, gh) - math.atan2(pw, ph)
    v = k * delta * delta
    denom = pw * pw + ph * ph
    if denom > 0:
        g_v = np.array([0.0, 0.0, -2 * k * delta * ph / denom, 2 * k * delta * pw / denom])
    else:
        g_v = np.zeros(4)
    if alpha is None:
        alpha = 0.0 if (1.0 - iou_v) + v == 0 else v / ((1.0 - iou_v) + v)

    loss = 1.0 - iou_v + rho2 / c2 + alpha * v
    grad = -g_iou + g_dist + alpha * g_v
    return float(loss), grad, alpha


# math.log elementwise: numpy's vectorised log differs from the C library's in
# the last place on about 0.5% of inputs, and the losses keep the latter's
_libm_log = np.frompyfunc(math.log, 1, 1)


def dfl_loss_with_grad(probs: np.ndarray, target):
    """Distribution focal loss over the last axis's bins, from their softmax
    probabilities, with one target distance per leading index. Returns the
    loss per leading index and its gradient wrt the bin logits."""
    reg_max = probs.shape[-1] - 1
    target = np.asarray(target, dtype=np.float64)
    outside = ~((0.0 <= target) & (target <= reg_max))
    if outside.any():
        raise ValueError(f"target {target[outside][0]} outside [0, {reg_max}]")
    # each side as a row of grad, and the two bins around its target
    grad = probs.reshape(-1, reg_max + 1).copy()
    t, side = target.reshape(-1), np.arange(target.size)
    i = np.minimum(np.floor(t).astype(np.intp), reg_max - 1)
    wl, wr = (i + 1) - t, t - i
    pl, pr = grad[side, i], grad[side, i + 1]
    logs = _libm_log(np.maximum([pl, pr], 1e-300)).astype(np.float64)
    loss = -(wl * logs[0] + wr * logs[1])
    cut = np.array([pl, pr]) < 1e-300  # a floored bin's log term is flat
    wl, wr = np.where(cut, 0.0, [wl, wr])
    grad *= np.where(cut.any(axis=0), wl + wr, 1.0)[:, None]
    grad[side, i] -= wl
    grad[side, i + 1] -= wr
    return loss.reshape(target.shape), grad.reshape(probs.shape)


# ---------------------------------------------------------------------------
# target assignment


@dataclass
class Targets:
    obj: np.ndarray   # [H, W] in {0, 1}
    cls: np.ndarray   # [H, W] int, -1 where negative
    dist: np.ndarray  # [4, H, W] distances (l, t, r, b) in cell units
    boxes: dict = field(default_factory=dict)  # (row, col) -> BBox


def assign_targets(gts: list[BBox], grid: tuple[int, int]) -> Targets:
    h, w = grid
    t = Targets(obj=np.zeros((h, w), tc.DTYPE),
                cls=np.full((h, w), -1, dtype=np.int64),
                dist=np.zeros((4, h, w), tc.DTYPE))
    for gt in gts:
        col = min(int(gt.cx * w), w - 1)
        row = min(int(gt.cy * h), h - 1)
        prev = t.boxes.get((row, col))
        if prev is not None and prev.area >= gt.area:
            continue
        t.boxes[(row, col)] = gt
        t.obj[row, col] = 1.0
        t.cls[row, col] = gt.class_id
        ccx, ccy = (col + 0.5) / w, (row + 0.5) / h
        x1, y1, x2, y2 = gt.corners()
        dists = [(ccx - x1) * w, (ccy - y1) * h, (x2 - ccx) * w, (y2 - ccy) * h]
        t.dist[:, row, col] = np.clip(dists, 0.0, REG_MAX)
    return t


# ---------------------------------------------------------------------------
# composite loss


@dataclass
class DetectLoss:
    total: float
    l_cls: float
    l_bbox: float
    l_dfl: float
    # alpha values used per positive cell; pass back in as frozen_alphas to
    # re-evaluate the exact function the gradients differentiate
    alphas: dict = field(default_factory=dict, repr=False)


def _bce_with_logits(z: np.ndarray, y: np.ndarray):
    """Stable elementwise binary cross-entropy on logits; returns (loss, grad)."""
    return np.maximum(z, 0) - z * y + np.log1p(np.exp(-np.abs(z))), tc.sigmoid(z) - y


def _sum_in_order(start, values: np.ndarray):
    """start + values[0] + values[1] + ..., left to right like a loop, not pairwise."""
    return np.add.accumulate(np.concatenate(([start], values.ravel())))[-1]


def detect_loss_with_grads(out: HeadOutput, targets: Targets,
                           frozen_alphas: dict | None = None):
    """Returns (DetectLoss, (g_obj_logits, g_box_logits, g_cls_logits))."""
    h, w = targets.obj.shape
    if out.obj.shape[1:] != (h, w):
        raise ValueError(f"head grid {out.obj.shape[1:]} vs targets {(h, w)}")
    nb = REG_MAX + 1
    n_classes = out.cls_logits.shape[0]
    positives = sorted(targets.boxes.keys())
    n_pos = len(positives)
    rows, cols = np.array(positives, dtype=np.intp).reshape(n_pos, 2).T

    # classification: BCE over the objectness map plus per-class BCE at positives
    obj_terms, g_obj = _bce_with_logits(out.obj_logits[0], targets.obj)
    n_terms = h * w + n_pos * n_classes
    g_obj = (g_obj / n_terms)[None, :, :]
    g_cls = np.zeros_like(out.cls_logits)
    cls_sum = obj_terms.sum()
    g_box = np.zeros_like(out.box)
    l_bbox = l_dfl = 0.0
    alphas: dict = {}
    if n_pos:
        z = np.ascontiguousarray(out.cls_logits[:, rows, cols].T)  # [n, K]
        terms, g = _bce_with_logits(z, np.eye(n_classes)[targets.cls[rows, cols]])
        cls_sum = _sum_in_order(cls_sum, terms.sum(axis=1))
        g_cls[:, rows, cols] = (g / n_terms).T

        probs, e, mid, size = _cell_boxes(out.box, rows, cols)
        g_pred = np.empty((n_pos, 4))
        for k, cell in enumerate(positives):
            pinned = None if frozen_alphas is None else frozen_alphas[cell]
            closs, g_pred[k], alphas[cell] = ciou_loss_with_grad(
                (*mid[k], *size[k]), targets.boxes[cell], alpha=pinned)
            l_bbox += closs
        l_bbox /= n_pos
        # chain box params -> expected distances (l, t, r, b) -> bin logits
        half, side = g_pred[:, :2] / [2 * w, 2 * h], g_pred[:, 2:] / [w, h]
        g_e = np.concatenate([-half + side, half + side], axis=1) / n_pos
        dfl, g_dfl = dfl_loss_with_grad(probs, targets.dist[:, rows, cols].T)
        l_dfl = float(_sum_in_order(0.0, dfl)) / (4 * n_pos)
        g_cells = (LAMBDA_BBOX * (probs * (np.arange(nb) - e[..., None]) * g_e[..., None])
                   + LAMBDA_DFL * g_dfl / (4 * n_pos))
        g_box.reshape(4, nb, h, w)[:, :, rows, cols] = g_cells.transpose(1, 2, 0)
    l_cls = float(cls_sum / n_terms)

    total = LAMBDA_CLS * l_cls + LAMBDA_BBOX * l_bbox + LAMBDA_DFL * l_dfl
    return (DetectLoss(total, l_cls, l_bbox, l_dfl, alphas),
            (LAMBDA_CLS * g_obj, g_box, LAMBDA_CLS * g_cls))


def _cell_boxes(box: np.ndarray, rows: np.ndarray, cols: np.ndarray):
    """The float64 bin softmax [n, 4, REG_MAX+1], expected side distances
    [n, 4] (l, t, r, b, in cells), and unclipped box centres and sides
    ([n, 2] (x, y) pairs, image units) of the listed cells of the head's
    [4*(REG_MAX+1), H, W] box logits."""
    _, h, w = box.shape
    nb = REG_MAX + 1
    logits = box.reshape(4, nb, h, w)[:, :, rows, cols]
    probs = tc.softmax(logits.transpose(2, 0, 1).astype(np.float64, order="C"), axis=2)
    e = probs @ np.arange(nb, dtype=np.float64)
    grid = np.array([w, h], dtype=np.float64)
    centre = (np.stack([cols, rows], axis=1) + 0.5) / grid
    lo, hi = centre - e[:, :2] / grid, centre + e[:, 2:] / grid
    return probs, e, (lo + hi) / 2, hi - lo


# ---------------------------------------------------------------------------
# decoding


def decode_detections(out: HeadOutput, obj_thresh: float = OBJ_THRESH,
                      nms_iou: float = NMS_IOU) -> list[BBox]:
    """Detections in descending score, after greedy per-class NMS.

    Array code with the arithmetic of a per-cell loop: a cell is a candidate
    unless its objectness, in float64, lies below obj_thresh; its box is the
    `_cell_boxes` expectation clipped to the unit square; candidates rank by
    score, ties in row-major cell order, and only the first MAX_CANDIDATES
    are decoded; each kept box suppresses the later same-class candidates
    whose `iou` with it exceeds nms_iou.
    """
    check_threshold("obj_thresh", obj_thresh)
    check_threshold("nms_iou", nms_iou)
    # float64 first: numpy compares a float32 array with a Python float in
    # float32, where np.float32(0.7) < 0.7 is false
    obj64 = out.obj[0].astype(np.float64)
    rows, cols = np.nonzero(~(obj64 < obj_thresh))
    order = np.argsort(-obj64[rows, cols], kind="stable")[:MAX_CANDIDATES]
    rows, cols = rows[order], cols[order]
    scores = obj64[rows, cols]
    _, _, mid, size = _cell_boxes(out.box, rows, cols)
    # clipped as max(v, 0.0) and min(v, 1.0) do: v unless the bound wins
    lo, hi = mid - size / 2, mid + size / 2
    lo, hi = np.where(0.0 > lo, 0.0, lo), np.where(1.0 < hi, 1.0, hi)
    mid, size = (lo + hi) / 2, hi - lo
    size = np.where(1e-6 > size, 1e-6, size)
    cls_ids = np.argmax(out.cls[:, rows, cols], axis=0)

    kept = _greedy_nms(mid, size, cls_ids, nms_iou)
    return [BBox(mid[i, 0], mid[i, 1], size[i, 0], size[i, 1], k, s) for i, k, s in
            zip(kept.tolist(), cls_ids[kept].tolist(), scores[kept].tolist())]


def _greedy_nms(mid, size, cls_ids, nms_iou):
    """Indices kept by greedy per-class NMS over [n, 2] box centres and
    sides already in rank order.

    One [n, n] matrix holds whether box i suppresses box j; it is scanned
    greedily, one row operation per kept box. The decisions are `iou`'s:
    np.minimum and np.maximum may differ from min() and max() only in the
    sign of a zero or in a NaN, and neither passes `iw > 0` nor
    `> nms_iou`. The overlap is clamped at 0 in place of iou()'s early
    return, which keeps the division defined and decides the same.
    """
    if len(cls_ids) == 0:
        return np.zeros(0, dtype=np.intp)
    (cx, cy), (w, h) = mid.T, size.T
    x1, y1, x2, y2, area = cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2, w * h
    iw = np.minimum(x2[:, None], x2) - np.maximum(x1[:, None], x1)
    ih = np.minimum(y2[:, None], y2) - np.maximum(y1[:, None], y1)
    inter = np.maximum(iw, 0.0, out=iw)
    inter *= np.maximum(ih, 0.0, out=ih)
    over = inter / (area[:, None] + area - inter) > nms_iou
    spare = ~(over & (cls_ids[:, None] == cls_ids))
    alive = np.ones(len(cls_ids), dtype=bool)
    kept = []
    # i is the first live candidate: all before it are done. It leaves by
    # hand, as its IoU with itself may round below nms_iou
    while alive[i := int(alive.argmax())]:
        kept.append(i)
        alive[i] = False
        alive &= spare[i]
    return np.array(kept, dtype=np.intp)


# ---------------------------------------------------------------------------
# JSON-lines exchange format


def detections_to_jsonl(dets: list[BBox], frame_id: int, inference_ms: float) -> str:
    return "".join(json.dumps({
        "frame_id": int(frame_id),
        "class_id": int(d.class_id),
        "score": float(d.score),
        "cx": float(d.cx), "cy": float(d.cy), "w": float(d.w), "h": float(d.h),
        "inference_ms": float(inference_ms),
    }, sort_keys=True) + "\n" for d in dets)


def checked_box(cx, cy, w, h, class_id, score) -> BBox:
    """The BBox of a detection read from outside the process; ValueError
    when its class id is not a whole number or is negative, a side is not
    finite and positive, or the centre or score is not finite."""
    if isinstance(class_id, float) and not class_id.is_integer():
        raise ValueError(f"class_id must be a whole number, got {class_id!r}")
    if class_id < 0:
        raise ValueError(f"class_id must not be negative, got {class_id!r}")
    for key, v in (("w", w), ("h", h)):
        if not (math.isfinite(v) and v > 0):
            raise ValueError(f"{key} must be finite and positive, got {v!r}")
    for key, v in (("cx", cx), ("cy", cy), ("score", score)):
        if not math.isfinite(v):
            raise ValueError(f"{key} must be finite, got {v!r}")
    return BBox(cx=float(cx), cy=float(cy), w=float(w), h=float(h),
                class_id=int(class_id), score=float(score))


def _record_to_detection(rec):
    """(frame_id, BBox) from one decoded record; ValueError when it is
    not an object, lacks a key, holds a non-number or a frame id that is
    not a whole number, or fails checked_box."""
    if not isinstance(rec, dict):
        raise ValueError(f"expected a JSON object, got {rec!r}")
    rec = {"score": 1.0, **rec}
    for key in ("frame_id", "class_id", "cx", "cy", "w", "h", "score"):
        if key not in rec:
            raise ValueError(f"missing key {key!r}")
        if isinstance(rec[key], bool) or not isinstance(rec[key], (int, float)):
            raise ValueError(f"{key} is not a number: {rec[key]!r}")
    if isinstance(rec["frame_id"], float) and not rec["frame_id"].is_integer():
        raise ValueError(f"frame_id must be a whole number, got {rec['frame_id']!r}")
    box = checked_box(*(rec[key] for key in ("cx", "cy", "w", "h", "class_id", "score")))
    return int(rec["frame_id"]), box


def jsonl_to_detections(text: str):
    """Parses the JSON-lines schema; returns list of (frame_id, BBox). A bad
    line raises ValueError naming its number."""
    out = []
    for ln, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            out.append(_record_to_detection(json.loads(line)))
        # JSONDecodeError included; an integer too large for a float
        # overflows, and a too deeply nested line exhausts json's recursion
        except (ValueError, OverflowError, RecursionError) as e:
            raise ValueError(f"bad detection on line {ln}: {e}") from e
    return out
