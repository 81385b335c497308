"""Model bundle: every trainable component under one roof, with archive
persistence, the two inference pipelines (with and without the dehazing
front-end), and the toy detection training loop.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import dehaze as dh
from . import detection as det
from . import encoders as enc
from . import fusion as fu
from . import tensor_core as tc
from .optim import Adam

@dataclass
class ModelBundle:
    text: enc.TextEncoderParams
    backbone: enc.BackboneParams
    fusion: fu.FusionParams
    head: det.HeadParams
    gen: dh.DehazeGenerator
    # (prompt, weights, fu.ProjectedText) of the last prompt detect_frame
    # projected; not a parameter, so param_items and the archive skip it
    _prompt_memo: tuple | None = field(default=None, init=False, repr=False,
                                       compare=False)


class _ZeroRng:
    """Stands in for tc.Rng where only the names and shapes of the weights
    are needed: every draw is zeros, and nothing is drawn."""

    def uniform(self, low: float, high: float, shape) -> np.ndarray:
        return np.zeros(shape, tc.DTYPE)


CHANNELS = 8      # backbone channels, and so the fusion's input channels
N_CLASSES = 3
PROMPT = "car, truck, bus"  # the default prompt, one phrase per class
GEN_CHANNELS = 8  # dehazing generator channels
LR = 0.01         # train_toy's default learning rate


def _build_bundle(rng) -> ModelBundle:
    """The one architecture: every command builds it, every archive holds it."""
    return ModelBundle(
        text=enc.init_text_encoder(rng),
        backbone=enc.init_backbone(rng, channels=CHANNELS),
        fusion=fu.init_fusion(rng, channels=CHANNELS),
        head=det.init_head(rng, fu.FEATURE_SHAPE[0], n_classes=N_CLASSES),
        gen=dh.init_generator(rng, channels=GEN_CHANNELS),
    )


# the archive's format version, then the stamp of that architecture;
# version 1 archives, from before the version entry, stamped the attention
# generator's sizes and carry its tensors
ARCHIVE_VERSION = 2
META = np.array([ARCHIVE_VERSION, CHANNELS, N_CLASSES, det.REG_MAX, GEN_CHANNELS],
                np.float32)


def init_bundle(seed: int) -> ModelBundle:
    return _build_bundle(tc.Rng(seed))


def save_bundle(path, bundle: ModelBundle) -> None:
    tensors = {"meta": META, **dict(tc.param_items(bundle))}
    tc.atomic_write(path, tc.archive_to_bytes(tensors))


class ArchiveVersionError(ValueError):
    """A weights archive of another format version than this build reads."""


def load_bundle(path) -> ModelBundle:
    """Reads a save_bundle archive. Its leading meta record is checked
    first: an archive of another format version raises ArchiveVersionError
    before any parameter tensor is read."""
    with open(path, "rb") as fh:
        entries = tc.archive_entries(fh.read())
    name, meta = next(entries, (None, None))
    if name != "meta":
        raise ValueError(f"weights archive {path} does not begin with a meta record")
    if meta.ndim != 1:
        raise ValueError(f"weights archive {path} has a meta record of shape "
                         f"{meta.shape}, expected a vector")
    # a version 1 meta is the seven sizes [8, 3, 7, 8, 2, 4, 2] with no
    # version entry, so no later version may stamp seven entries
    version = 1 if meta.size == 7 else float(meta[0]) if meta.size else None
    if version != ARCHIVE_VERSION:
        found = "none" if version is None else f"{version:g}"
        raise ArchiveVersionError(f"weights archive {path} has format version "
                                  f"{found}, this build reads version "
                                  f"{ARCHIVE_VERSION}")
    if not np.array_equal(meta, META):
        raise ValueError(f"weights archive {path} has meta "
                         f"{meta.tolist()}, expected {META.tolist()}")
    tensors = dict(entries)
    # a template that draws nothing: its names and shapes check the
    # archive, and every tensor in it is then replaced by the stored one
    bundle = _build_bundle(_ZeroRng())
    expected = dict(tc.param_items(bundle))
    if expected.keys() != tensors.keys():
        missing = sorted(expected.keys() - tensors.keys())[:3]
        extra = sorted(tensors.keys() - expected.keys())[:3]
        raise ValueError(f"weights archive mismatch: missing {missing}, extra {extra}")
    for name, fresh in expected.items():
        if tensors[name].shape != fresh.shape:
            raise ValueError(f"weights archive tensor {name} has shape "
                             f"{tensors[name].shape}, expected {fresh.shape}")
        tc.set_param(bundle, name, tensors[name])
    return bundle


# ---------------------------------------------------------------------------
# inference pipelines


def _projected_prompt(text: str, bundle: ModelBundle) -> fu.ProjectedText:
    """The prompt's projected text feature, from a one-slot memo on the bundle.

    The entry is keyed by the prompt and by every object that went into it:
    the text encoder's arrays and the fusion's text projection,
    held and compared by identity. set_param, load_bundle and training
    replace arrays rather than write into them, so none of them can meet a
    stale entry. The slot is read and replaced as one tuple, so threads
    sharing a bundle need no lock.
    """
    weights = (bundle.fusion.w_text, bundle.fusion.b_text,
               *(a for _, a in tc.param_items(bundle.text)))
    memo = bundle._prompt_memo
    if (memo is not None and memo[0] == text and len(memo[1]) == len(weights)
            and all(a is b for a, b in zip(memo[1], weights))):
        return memo[2]
    projected = fu.project_text(enc.text_encode(text, bundle.text),
                                bundle.fusion)
    bundle._prompt_memo = (text, weights, projected)
    return projected


def detect_frame(image: np.ndarray, text: str, bundle: ModelBundle,
                 dehaze_first: bool = False, obj_thresh: float = det.OBJ_THRESH,
                 nms_iou: float = det.NMS_IOU):
    """Full pipeline on one frame. Returns (detections, inference_ms).
    ValueError, before any work, unless both sides are multiples of 32."""
    start = time.perf_counter()
    h, w = image.shape[-2:]
    if h % 32 or w % 32:
        raise ValueError(f"image dims must be divisible by 32, got {h}x{w}")
    if dehaze_first:
        image = dh.dehaze_forward(image, bundle.gen)
    feats = enc.backbone_extract(image, bundle.backbone)
    fmap, _ = fu.fuse_forward(feats, _projected_prompt(text, bundle), bundle.fusion)
    out = det.head_forward(fmap, bundle.head)
    dets = det.decode_detections(out, obj_thresh, nms_iou)
    return dets, (time.perf_counter() - start) * 1000.0


# ---------------------------------------------------------------------------
# toy detection training


def make_toy_scene(rng: tc.Rng, size: int = 64):
    """A flat background with 1-2 solid class-colored rectangles."""
    colors = [(0.9, 0.2, 0.2), (0.2, 0.9, 0.2), (0.2, 0.2, 0.9)]  # one per class
    image = np.full((3, size, size), 0.15, tc.DTYPE)
    image += rng.uniform(-0.05, 0.05, (3, size, size))
    gts = []
    for _ in range(1 + int(rng.integers(2, 1)[0])):
        cx, cy = (float(v) for v in rng.uniform(0.25, 0.75, (2,)))
        w, h = (float(v) for v in rng.uniform(0.15, 0.4, (2,)))
        k = int(rng.integers(N_CLASSES, 1)[0])
        x1, x2 = int((cx - w / 2) * size), int((cx + w / 2) * size)
        y1, y2 = int((cy - h / 2) * size), int((cy + h / 2) * size)
        for ch in range(3):
            image[ch, y1:y2, x1:x2] = colors[k][ch]
        gts.append(det.BBox(cx, cy, w, h, class_id=k))
    return np.clip(image, 0.0, 1.0), gts


TOY_SCENES = 8  # the synthetic scenes train_toy overfits


def train_toy(seed: int, steps: int, lr: float = LR, text: str = PROMPT,
              log=None):
    """Overfits fusion + head on a handful of synthetic scenes.

    Text encoder and backbone stay fixed, so per-scene features are computed
    once; each step projects the prompt once and runs only the fusion/head
    forward-backward. Returns (step, total, cls, bbox, dfl) rows. A step
    whose loss is not finite raises ValueError naming it, after its row is
    logged and before the optimizer steps on it.
    """
    if steps < 1 or steps > 1000:
        raise ValueError(f"steps must lie in [1, 1000], got {steps}")
    if not 0 < lr < math.inf:
        raise ValueError(f"lr must be positive and finite, got {lr}")
    bundle = init_bundle(seed)
    rng = tc.Rng(seed + 1)
    scenes = [make_toy_scene(rng) for _ in range(TOY_SCENES)]
    feats = [enc.backbone_extract(img, bundle.backbone) for img, _ in scenes]
    tf = enc.text_encode(text, bundle.text)
    grid = fu.FEATURE_SHAPE[1:]
    targets = [det.assign_targets(gts, grid) for _, gts in scenes]

    opt = Adam(lr=lr)
    rows = []
    for step in range(1, steps + 1):
        params = dict(tc.param_items(bundle.fusion, "fusion"))
        params.update(tc.param_items(bundle.head, "head"))
        grads = {k: np.zeros(v.shape, np.float64) for k, v in params.items()}
        totals = np.zeros(4)
        projected = fu.project_text(tf, bundle.fusion)
        for f, t in zip(feats, targets):
            fmap, cache = fu.fuse_forward(f, projected, bundle.fusion)
            out = det.head_forward(fmap, bundle.head)
            loss, (g_obj, g_box, g_cls) = det.detect_loss_with_grads(out, t)
            hgrads, g_feat = det.head_backward(fmap, bundle.head,
                                               g_obj, g_box, g_cls)
            fgrads = fu.fuse_backward(cache, g_feat)
            # the scene's gradients are fresh arrays: divide them in place
            for name, g in [*tc.param_items(fgrads, "fusion"),
                            *tc.param_items(hgrads, "head")]:
                g /= TOY_SCENES
                grads[name] += g
            totals += np.array([loss.total, loss.l_cls, loss.l_bbox, loss.l_dfl])
        totals /= TOY_SCENES
        rows.append((step, *[float(v) for v in totals]))
        if log is not None:
            log("%d,%.6f,%.6f,%.6f,%.6f" % rows[-1])
        if not np.isfinite(totals).all():
            raise ValueError(f"training diverged: step {step} has a non-finite "
                             "loss; try a smaller learning rate")
        for name, value in opt.step(params, grads).items():
            tc.set_param(bundle, name, value)
    return rows, bundle
