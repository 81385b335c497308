"""Cross-modal fusion: projections and gated cross-attention.

The image pyramid is pooled and projected to 1x512, the text feature is
projected to the same space, and a sigmoid gate convexly mixes the image
vector with a cross-attention readout over the per-phrase text tokens. The
sinusoidal positional encoding of the single position is added and the
vector is laid out as the detection head's feature map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import tensor_core as tc
from .encoders import MultiScaleFeatures, TextFeature

FEATURE_SHAPE = (8, 8, 8)  # the detection head's input map
FUSED_DIM = math.prod(FEATURE_SHAPE)
# the sinusoidal encoding at position 0: sin(0) = 0 in even dims, cos(0) = 1
# in odd ones; adding 0 or 1 in float32 rounds as the float64 sum would
PE0 = np.tile(np.array([0.0, 1.0], tc.DTYPE), FUSED_DIM // 2)
HEADS = 4  # cross-attention heads, each over a 128-wide slice


@dataclass
class FusionParams:
    w_img: np.ndarray   # [512, 3C]
    b_img: np.ndarray   # [1, 512]
    w_text: np.ndarray  # [512, 512]
    b_text: np.ndarray  # [1, 512]
    w_gate: np.ndarray  # [512, 1024]
    b_gate: np.ndarray  # [1, 512]


def init_fusion(rng: tc.Rng, channels: int) -> FusionParams:
    c3 = 3 * channels
    return FusionParams(
        w_img=tc.init_uniform(rng, (FUSED_DIM, c3), c3),
        b_img=np.zeros((1, FUSED_DIM), tc.DTYPE),
        w_text=tc.init_uniform(rng, (FUSED_DIM, FUSED_DIM), FUSED_DIM),
        b_text=np.zeros((1, FUSED_DIM), tc.DTYPE),
        w_gate=tc.init_uniform(rng, (FUSED_DIM, 2 * FUSED_DIM), 2 * FUSED_DIM),
        b_gate=np.zeros((1, FUSED_DIM), tc.DTYPE),
    )


def pool_pyramid(features: MultiScaleFeatures) -> np.ndarray:
    """Global-average-pool each scale and concatenate -> [1, 3C]."""
    return np.concatenate([tc.global_avg_pool(f) for f in features.scales()], axis=1)


@dataclass
class ProjectedText:
    """A text feature with its projections into the fused space: all of the
    fusion forward that depends on the prompt and the weights alone, so it
    can be computed once and read by every frame. Nothing writes into it."""
    text: TextFeature
    tp: np.ndarray  # [1, 512], the pooled feature projected
    tk: np.ndarray  # [T, 512], one projected row per phrase


def project_text(text: TextFeature, params: FusionParams) -> ProjectedText:
    return ProjectedText(text=text,
                         tp=text.pooled @ params.w_text.T + params.b_text,
                         tk=text.tokens @ params.w_text.T + params.b_text)


def fuse_forward(features: MultiScaleFeatures, projected: ProjectedText,
                 params: FusionParams):
    """Returns (map, cache): map is (fused + PE0) laid out as FEATURE_SHAPE,
    and cache feeds fuse_backward. projected is project_text's output for
    the same params.

    a is the image projection, g the gate and att the cross-attention
    readout of the text tokens; fused = g * a + (1 - g) * att.
    """
    pooled = pool_pyramid(features)
    a = pooled @ params.w_img.T + params.b_img
    tp, tk, text = projected.tp, projected.tk, projected.text
    zcat = np.concatenate([a, tp], axis=1)
    g = tc.sigmoid(zcat @ params.w_gate.T + params.b_gate)
    att, att_cache = tc.multi_head_attention(a, tk, tk, HEADS)
    fused = g * a + (1.0 - g) * att
    shapes = [f.shape for f in features.scales()]
    cache = (params, pooled, shapes, a, tp, tk, zcat, g, att, att_cache, text)
    return (fused + PE0).reshape(FEATURE_SHAPE), cache


def fuse_backward(cache, grad_output: np.ndarray):
    """Returns (parameter grads as a FusionParams, one grad per pyramid scale):
    each scale's slice of ga @ w_img spread evenly over its map, as the pool spread it.

    The outer products of two row vectors are broadcast products rather
    than (n, 1) @ (1, m) matmuls: each entry is one correctly rounded
    product either way, and the broadcast skips the GEMM set-up.
    """
    params, pooled, shapes, a, tp, tk, zcat, g, att, att_cache, text = cache
    gfused = grad_output.reshape(1, -1)  # PE0 is an additive constant
    gg = gfused * (a - att)
    ga = gfused * g
    gatt = gfused * (1.0 - g)
    gzg = tc.sigmoid_backward(g, gg)
    gw_gate = gzg.T * zcat
    gb_gate = gzg.copy()
    gzcat = gzg @ params.w_gate
    ga = ga + gzcat[:, : a.shape[1]]
    gtp = gzcat[:, a.shape[1]:]
    gq, gk, gv = tc.multi_head_attention_backward(att_cache, gatt)
    ga = ga + gq
    gtk = gk + gv
    g_scales = [np.broadcast_to((gp / (h * w)).reshape(c, 1, 1), (c, h, w)).copy()
                for gp, (c, h, w) in zip(np.split(ga @ params.w_img, len(shapes), 1), shapes)]
    return replace(
        params,
        w_img=ga.T * pooled,
        b_img=ga.copy(),
        w_text=gtp.T * text.pooled + gtk.T @ text.tokens,
        b_text=gtp + gtk.sum(axis=0, keepdims=True),
        w_gate=gw_gate,
        b_gate=gb_gate,
    ), g_scales
