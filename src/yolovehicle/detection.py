"""Detection head, target assignment, the three-term detection loss, decoding.

The head is three 1x1 convolutions over the fused feature map: objectness,
per-side distance distributions (distribution-focal style, reg_max+1 bins per
side), and class scores. Box regression distances are measured from the cell
center in cell units.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import tensor_core as tc


@dataclass
class HeadParams:
    w_obj: np.ndarray  # [1, C]
    b_obj: np.ndarray  # [1]
    w_box: np.ndarray  # [4*(reg_max+1), C]
    b_box: np.ndarray
    w_cls: np.ndarray  # [K, C]
    b_cls: np.ndarray
    reg_max: int = 7

    @property
    def n_bins(self) -> int:
        return self.reg_max + 1

    @property
    def n_classes(self) -> int:
        return self.w_cls.shape[0]


@dataclass
class HeadOutput:
    obj: np.ndarray         # [1, H, W], sigmoid probabilities
    box: np.ndarray         # [4*(reg_max+1), H, W], raw logits
    cls: np.ndarray         # [K, H, W], per-cell scores
    obj_logits: np.ndarray
    cls_logits: np.ndarray
    reg_max: int


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


@dataclass
class DetectLossWeights:
    lambda_cls: float = 0.6
    lambda_bbox: float = 7.0
    lambda_dfl: float = 0.4

    def __post_init__(self):
        vals = (self.lambda_cls, self.lambda_bbox, self.lambda_dfl)
        if any(v < 0 for v in vals):
            raise ValueError(f"loss weights must be non-negative: {vals}")
        if not any(v > 0 for v in vals):
            raise ValueError("at least one loss weight must be positive")


def init_head(rng: tc.Rng, channels: int, n_classes: int = 3, reg_max: int = 7) -> HeadParams:
    nb = reg_max + 1
    return HeadParams(
        w_obj=tc.init_uniform(rng, (1, channels), channels),
        b_obj=np.zeros(1, tc.DTYPE),
        w_box=tc.init_uniform(rng, (4 * nb, channels), channels),
        b_box=np.zeros(4 * nb, tc.DTYPE),
        w_cls=tc.init_uniform(rng, (n_classes, channels), channels),
        b_cls=np.zeros(n_classes, tc.DTYPE),
        reg_max=reg_max,
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
                      obj_logits=obj_logits, cls_logits=cls_logits, reg_max=params.reg_max)


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
    """CIoU loss and its gradient wrt pred = [cx, cy, w, h].

    The aspect-ratio weight alpha is treated as a constant during the
    gradient, matching the usual CIoU training convention. Passing alpha
    pins it in the forward value too, which makes the loss exactly the
    function the gradient differentiates (used by the gradient-check
    oracle).
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
    return float(loss), grad


def ciou_alpha(pred: np.ndarray, gt: BBox) -> float:
    """The aspect-ratio weight alpha at this prediction (held constant in grads)."""
    p = BBox(*(float(v) for v in pred))
    iou_v = iou(p, gt)
    delta = math.atan2(float(gt.w), float(gt.h)) - math.atan2(p.w, p.h)
    v = (4.0 / math.pi ** 2) * delta * delta
    return 0.0 if (1.0 - iou_v) + v == 0 else float(v / ((1.0 - iou_v) + v))


def dfl_loss_with_grad(dist_logits: np.ndarray, target: float):
    """Distribution focal loss over one side's bins; grad is wrt the logits."""
    reg_max = dist_logits.shape[0] - 1
    if not 0.0 <= target <= reg_max:
        raise ValueError(f"target {target} outside [0, {reg_max}]")
    i = min(int(math.floor(target)), reg_max - 1)
    wl = (i + 1) - target
    wr = target - i
    p = tc.softmax(np.asarray(dist_logits, dtype=np.float64))
    loss = -(wl * math.log(max(p[i], 1e-300)) + wr * math.log(max(p[i + 1], 1e-300)))
    y = np.zeros_like(p)
    y[i] = wl
    y[i + 1] = wr
    return float(loss), (p - y).astype(np.asarray(dist_logits).dtype)


# ---------------------------------------------------------------------------
# target assignment


@dataclass
class Targets:
    obj: np.ndarray   # [H, W] in {0, 1}
    cls: np.ndarray   # [H, W] int, -1 where negative
    dist: np.ndarray  # [4, H, W] distances (l, t, r, b) in cell units
    boxes: dict = field(default_factory=dict)  # (row, col) -> BBox


def assign_targets(gts: list[BBox], grid: tuple[int, int], reg_max: int = 7) -> Targets:
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
        t.dist[:, row, col] = np.clip(dists, 0.0, reg_max)
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
    loss = np.maximum(z, 0) - z * y + np.log1p(np.exp(-np.abs(z)))
    grad = tc.sigmoid(z) - y
    return loss, grad


def _decoded_box(dist_probs: np.ndarray, row: int, col: int, grid: tuple[int, int]):
    """Expected distances -> (box params, expected values). dist_probs: [4, nb]."""
    h, w = grid
    nb = dist_probs.shape[1]
    bins = np.arange(nb, dtype=np.float64)
    e = dist_probs @ bins  # [4] expected l, t, r, b
    ccx, ccy = (col + 0.5) / w, (row + 0.5) / h
    x1, y1 = ccx - e[0] / w, ccy - e[1] / h
    x2, y2 = ccx + e[2] / w, ccy + e[3] / h
    box = np.array([(x1 + x2) / 2, (y1 + y2) / 2, x2 - x1, y2 - y1])
    return box, e


def detect_loss_with_grads(out: HeadOutput, targets: Targets, weights: DetectLossWeights,
                           frozen_alphas: dict | None = None):
    """Returns (DetectLoss, (g_obj_logits, g_box_logits, g_cls_logits))."""
    h, w = targets.obj.shape
    if out.obj.shape[1:] != (h, w):
        raise ValueError(f"head grid {out.obj.shape[1:]} vs targets {(h, w)}")
    nb = out.reg_max + 1
    n_classes = out.cls_logits.shape[0]
    positives = sorted(targets.boxes.keys())
    n_pos = len(positives)

    # classification: BCE over the objectness map plus per-class BCE at positives
    obj_terms, g_obj = _bce_with_logits(out.obj_logits[0], targets.obj)
    n_terms = h * w + n_pos * n_classes
    g_cls = np.zeros_like(out.cls_logits)
    cls_sum = obj_terms.sum()
    for (r, c) in positives:
        y = np.zeros(n_classes)
        y[targets.cls[r, c]] = 1.0
        terms, g = _bce_with_logits(out.cls_logits[:, r, c], y)
        cls_sum += terms.sum()
        g_cls[:, r, c] = g / n_terms
    l_cls = float(cls_sum / n_terms)
    g_obj = (g_obj / n_terms)[None, :, :]

    g_box = np.zeros_like(out.box)
    l_bbox = 0.0
    l_dfl = 0.0
    alphas: dict = {}
    if n_pos:
        grid = (h, w)
        for (r, c) in positives:
            logits = out.box[:, r, c].reshape(4, nb).astype(np.float64)
            probs = tc.softmax(logits, axis=1)
            box, e = _decoded_box(probs, r, c, grid)
            gt = targets.boxes[(r, c)]
            pinned = None if frozen_alphas is None else frozen_alphas[(r, c)]
            closs, cg = ciou_loss_with_grad(box, gt, alpha=pinned)
            alphas[(r, c)] = pinned if pinned is not None else ciou_alpha(box, gt)
            l_bbox += closs
            # chain box params -> expected distances -> bin logits
            gcx, gcy, gw, gh = cg
            g_e = np.array([
                -gcx / (2 * w) + gw / w,
                -gcy / (2 * h) + gh / h,
                gcx / (2 * w) + gw / w,
                gcy / (2 * h) + gh / h,
            ]) / n_pos
            bins = np.arange(nb, dtype=np.float64)
            g_logits = probs * (bins[None, :] - e[:, None]) * g_e[:, None]
            g_cell = weights.lambda_bbox * g_logits
            for side in range(4):
                dloss, dgrad = dfl_loss_with_grad(logits[side], float(targets.dist[side, r, c]))
                l_dfl += dloss
                g_cell[side] += weights.lambda_dfl * dgrad / (4 * n_pos)
            g_box[:, r, c] = g_cell.reshape(-1)
        l_bbox /= n_pos
        l_dfl /= 4 * n_pos

    total = (weights.lambda_cls * l_cls + weights.lambda_bbox * l_bbox
             + weights.lambda_dfl * l_dfl)
    g_obj = weights.lambda_cls * g_obj
    g_cls = weights.lambda_cls * g_cls
    return DetectLoss(total, l_cls, l_bbox, l_dfl, alphas), (g_obj, g_box, g_cls)


# ---------------------------------------------------------------------------
# decoding


def decode_detections(out: HeadOutput, obj_thresh: float = 0.5,
                      nms_iou: float = 0.5) -> list[BBox]:
    if not (0 < obj_thresh < 1 and 0 < nms_iou < 1):
        raise ValueError("thresholds must lie in (0, 1)")
    _, h, w = out.obj.shape
    nb = out.reg_max + 1
    candidates = []
    for r in range(h):
        for c in range(w):
            score = float(out.obj[0, r, c])
            if score < obj_thresh:
                continue
            probs = tc.softmax(out.box[:, r, c].reshape(4, nb).astype(np.float64), axis=1)
            box, _ = _decoded_box(probs, r, c, (h, w))
            x1 = max(box[0] - box[2] / 2, 0.0)
            y1 = max(box[1] - box[3] / 2, 0.0)
            x2 = min(box[0] + box[2] / 2, 1.0)
            y2 = min(box[1] + box[3] / 2, 1.0)
            bw = max(x2 - x1, 1e-6)
            bh = max(y2 - y1, 1e-6)
            cls_id = int(np.argmax(out.cls[:, r, c]))
            candidates.append((score, r * w + c,
                               BBox((x1 + x2) / 2, (y1 + y2) / 2, bw, bh, cls_id, score)))
    candidates.sort(key=lambda t: (-t[0], t[1]))
    kept: list[BBox] = []
    for _, _, box in candidates:
        if any(k.class_id == box.class_id and iou(k, box) > nms_iou for k in kept):
            continue
        kept.append(box)
    return kept


# ---------------------------------------------------------------------------
# JSON-lines exchange format


def detections_to_jsonl(dets: list[BBox], frame_id: int, inference_ms: float) -> str:
    lines = []
    for d in dets:
        lines.append(json.dumps({
            "frame_id": int(frame_id),
            "class_id": int(d.class_id),
            "score": float(d.score),
            "cx": float(d.cx), "cy": float(d.cy), "w": float(d.w), "h": float(d.h),
            "inference_ms": float(inference_ms),
        }, sort_keys=True))
    return "".join(line + "\n" for line in lines)


def jsonl_to_detections(text: str):
    """Parses the JSON-lines schema; returns list of (frame_id, BBox)."""
    out = []
    for ln, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as e:
            raise ValueError(f"bad JSON on line {ln}: {e}") from e
        box = BBox(cx=float(rec["cx"]), cy=float(rec["cy"]), w=float(rec["w"]),
                   h=float(rec["h"]), class_id=int(rec["class_id"]),
                   score=float(rec.get("score", 1.0)))
        out.append((int(rec["frame_id"]), box))
    return out
