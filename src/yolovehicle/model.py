"""Model bundle: every trainable component under one roof, with archive
persistence, the two inference pipelines (with and without the dehazing
front-end), and the toy detection training loop.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import dehaze as dh
from . import detection as det
from . import encoders as enc
from . import fusion as fu
from . import tensor_core as tc
from .optim import Adam

FEATURE_SHAPE = (8, 8, 8)


@dataclass
class ModelBundle:
    text: enc.TextEncoderParams
    backbone: enc.BackboneParams
    fusion: fu.FusionParams
    head: det.HeadParams
    gen: dh.DehazeGenerator

    @property
    def n_classes(self) -> int:
        return self.head.n_classes


def init_bundle(seed: int, channels: int = 8, n_classes: int = 3,
                reg_max: int = 7, gen_channels: int = 8, n_blocks: int = 2,
                window: int = 4, heads: int = 2) -> ModelBundle:
    rng = tc.Rng(seed)
    return ModelBundle(
        text=enc.init_text_encoder(rng),
        backbone=enc.init_backbone(rng, channels),
        fusion=fu.init_fusion(rng, channels, output_shape=FEATURE_SHAPE),
        head=det.init_head(rng, FEATURE_SHAPE[0], n_classes, reg_max),
        gen=dh.init_generator(rng, gen_channels, n_blocks, window, heads),
    )


def save_bundle(path, bundle: ModelBundle) -> None:
    meta = np.array([bundle.backbone.channels, bundle.head.n_classes,
                     bundle.head.reg_max, bundle.gen.blocks[0].stem.w.shape[0],
                     len(bundle.gen.blocks), bundle.gen.window,
                     bundle.gen.blocks[0].wmsa.heads], dtype=np.float32)
    tensors = {"meta": meta}
    tensors.update(tc.param_items(bundle))
    tc.save_archive(path, tensors)


def load_bundle(path) -> ModelBundle:
    tensors = tc.load_archive(path)
    if "meta" not in tensors:
        raise ValueError(f"weights archive {path} has no meta record")
    channels, n_classes, reg_max, gc, nb, window, heads = (int(v) for v in tensors["meta"])
    bundle = init_bundle(0, channels=channels, n_classes=n_classes, reg_max=reg_max,
                         gen_channels=gc, n_blocks=nb, window=window, heads=heads)
    expected = dict(tc.param_items(bundle))
    stored = set(tensors) - {"meta"}
    if expected.keys() != stored:
        missing = sorted(expected.keys() - stored)[:3]
        extra = sorted(stored - expected.keys())[:3]
        raise ValueError(f"weights archive mismatch: missing {missing}, extra {extra}")
    for name, fresh in expected.items():
        if tensors[name].shape != fresh.shape:
            raise ValueError(f"weights archive tensor {name} has shape "
                             f"{tensors[name].shape}, expected {fresh.shape}")
        tc.set_param(bundle, name, tensors[name])
    return bundle


# ---------------------------------------------------------------------------
# inference pipelines


def detect_frame(image: np.ndarray, text: str, bundle: ModelBundle,
                 dehaze_first: bool = False, obj_thresh: float = 0.5,
                 nms_iou: float = 0.5):
    """Full pipeline on one frame. Returns (detections, inference_ms)."""
    start = time.perf_counter()
    if dehaze_first:
        image = dh.dehaze_forward(image, bundle.gen)
    feats = enc.backbone_extract(image, bundle.backbone)
    tf = enc.text_encode(enc.TextInput(text), bundle.text)
    fused, _ = fu.fuse_forward(feats, tf, bundle.fusion, FEATURE_SHAPE)
    out = det.head_forward(fused.output, bundle.head)
    dets = det.decode_detections(out, obj_thresh, nms_iou)
    return dets, (time.perf_counter() - start) * 1000.0


# ---------------------------------------------------------------------------
# toy detection training


def make_toy_scene(rng: tc.Rng, n_classes: int = 3, size: int = 64):
    """A flat background with 1-2 solid class-colored rectangles."""
    colors = [(0.9, 0.2, 0.2), (0.2, 0.9, 0.2), (0.2, 0.2, 0.9)]
    image = np.full((3, size, size), 0.15, tc.DTYPE)
    image += rng.uniform(-0.05, 0.05, (3, size, size))
    gts = []
    for _ in range(1 + int(rng.integers(2, 1)[0])):
        cx, cy = (float(v) for v in rng.uniform(0.25, 0.75, (2,)))
        w, h = (float(v) for v in rng.uniform(0.15, 0.4, (2,)))
        k = int(rng.integers(n_classes, 1)[0])
        x1, x2 = int((cx - w / 2) * size), int((cx + w / 2) * size)
        y1, y2 = int((cy - h / 2) * size), int((cy + h / 2) * size)
        for ch in range(3):
            image[ch, y1:y2, x1:x2] = colors[k % len(colors)][ch]
        gts.append(det.BBox(cx, cy, w, h, class_id=k))
    return np.clip(image, 0.0, 1.0), gts


def train_toy(seed: int, steps: int = 500, lr: float = 0.01,
              weights: det.DetectLossWeights | None = None,
              text: str = "car, truck, bus", n_scenes: int = 8, log=None):
    """Overfits fusion + head on a handful of synthetic scenes.

    Text encoder and backbone stay fixed, so per-scene features are computed
    once; each step runs only the fusion/head forward-backward. Returns
    (step, total, cls, bbox, dfl) rows.
    """
    if steps < 1 or steps > 1000:
        raise ValueError(f"steps must lie in [1, 1000], got {steps}")
    weights = weights or det.DetectLossWeights()
    bundle = init_bundle(seed)
    rng = tc.Rng(seed + 1)
    scenes = [make_toy_scene(rng, bundle.n_classes) for _ in range(n_scenes)]
    feats = [enc.backbone_extract(img, bundle.backbone) for img, _ in scenes]
    tf = enc.text_encode(enc.TextInput(text), bundle.text)
    grid = FEATURE_SHAPE[1:]
    targets = [det.assign_targets(gts, grid, bundle.head.reg_max)
               for _, gts in scenes]

    opt = Adam(lr=lr)
    rows = []
    for step in range(1, steps + 1):
        params = dict(tc.param_items(bundle.fusion, "fusion"))
        params.update(tc.param_items(bundle.head, "head"))
        grads = {k: np.zeros(v.shape, np.float64) for k, v in params.items()}
        totals = np.zeros(4)
        for f, t in zip(feats, targets):
            fused, cache = fu.fuse_forward(f, tf, bundle.fusion, FEATURE_SHAPE)
            out = det.head_forward(fused.output, bundle.head)
            loss, (g_obj, g_box, g_cls) = det.detect_loss_with_grads(out, t, weights)
            hgrads, g_feat = det.head_backward(fused.output, bundle.head,
                                               g_obj, g_box, g_cls)
            fgrads = fu.fuse_backward(cache, g_feat)
            for name, g in [*tc.param_items(fgrads, "fusion"),
                            *tc.param_items(hgrads, "head")]:
                grads[name] += g / n_scenes
            totals += np.array([loss.total, loss.l_cls, loss.l_bbox, loss.l_dfl])
        totals /= n_scenes
        rows.append((step, *[float(v) for v in totals]))
        if log is not None:
            log("%d,%.6f,%.6f,%.6f,%.6f" % rows[-1])
        for name, value in opt.step(params, grads).items():
            tc.set_param(bundle, name, value)
    return rows, bundle
