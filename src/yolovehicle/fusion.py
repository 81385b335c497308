"""Cross-modal fusion: projections, gated cross-attention, positional encoding.

The image pyramid is pooled and projected to 1x512, the text feature is
projected to the same space, and a sigmoid gate convexly mixes the image
vector with a cross-attention readout over the per-phrase text tokens. A
fixed sinusoidal vector is added before reshaping to the detection-head
feature map.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import tensor_core as tc
from .encoders import MultiScaleFeatures, TextFeature

FUSED_DIM = 512


@dataclass
class FusionParams:
    w_img: np.ndarray   # [512, 3C]
    b_img: np.ndarray   # [1, 512]
    w_text: np.ndarray  # [512, 512]
    b_text: np.ndarray  # [1, 512]
    w_gate: np.ndarray  # [512, 1024]
    b_gate: np.ndarray  # [1, 512]
    heads: int = 4
    w_out: np.ndarray | None = None  # optional [C*H*W, 512] output projection


@dataclass
class FusedFeature:
    fused: np.ndarray   # [1, 512]
    final: np.ndarray   # [1, 512], fused + PE
    output: np.ndarray  # [C, H, W]


def init_fusion(rng: tc.Rng, channels: int, heads: int = 4,
                output_shape: tuple[int, int, int] = (8, 8, 8)) -> FusionParams:
    c3 = 3 * channels
    prod = int(np.prod(output_shape))
    w_out = None if prod == FUSED_DIM else tc.init_uniform(rng, (prod, FUSED_DIM), FUSED_DIM)
    return FusionParams(
        w_img=tc.init_uniform(rng, (FUSED_DIM, c3), c3),
        b_img=np.zeros((1, FUSED_DIM), tc.DTYPE),
        w_text=tc.init_uniform(rng, (FUSED_DIM, FUSED_DIM), FUSED_DIM),
        b_text=np.zeros((1, FUSED_DIM), tc.DTYPE),
        w_gate=tc.init_uniform(rng, (FUSED_DIM, 2 * FUSED_DIM), 2 * FUSED_DIM),
        b_gate=np.zeros((1, FUSED_DIM), tc.DTYPE),
        heads=heads,
        w_out=w_out,
    )


def pool_pyramid(features: MultiScaleFeatures) -> np.ndarray:
    """Global-average-pool each scale and concatenate -> [1, 3C]."""
    return np.concatenate([tc.global_avg_pool(f) for f in features.scales()], axis=1)


def positional_encoding(length: int, dim: int = FUSED_DIM) -> np.ndarray:
    if length < 1:
        raise ValueError("length must be >= 1")
    if dim % 2:
        raise ValueError(f"dim must be even, got {dim}")
    pos = np.arange(length, dtype=np.float64)[:, None]
    i = np.arange(dim // 2, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, 2.0 * i / dim)
    pe = np.empty((length, dim), dtype=tc.DTYPE)
    pe[:, 0::2] = np.sin(angle)
    pe[:, 1::2] = np.cos(angle)
    return pe


def finalize(fused: np.ndarray, target_shape: tuple[int, int, int],
             params: FusionParams) -> FusedFeature:
    prod = int(np.prod(target_shape))
    # the sum is kept in float64 so that final - PE recovers fused bit-exactly
    # (a float32 sum would round away the low bit of fused)
    pe = positional_encoding(1, fused.shape[1]).astype(np.float64)[0]
    final = fused.astype(np.float64) + pe
    if prod == fused.shape[1]:
        output = final.astype(fused.dtype).reshape(target_shape)
    elif params.w_out is not None and params.w_out.shape == (prod, fused.shape[1]):
        output = (final @ params.w_out.T).astype(fused.dtype).reshape(target_shape)
    else:
        raise ValueError(
            f"target shape {target_shape} has {prod} values but fused dim is "
            f"{fused.shape[1]} and no output projection is configured")
    return FusedFeature(fused=fused, final=final, output=output)


# ---------------------------------------------------------------------------
# full fusion pass with parameter gradients


def fuse_forward(features: MultiScaleFeatures, text: TextFeature, params: FusionParams,
                 target_shape: tuple[int, int, int]):
    """Returns (FusedFeature, cache) where cache feeds fuse_backward.

    a is the image projection, g the gate and att the cross-attention
    readout of the text tokens; fused = g * a + (1 - g) * att.
    """
    pooled = pool_pyramid(features)
    a = pooled @ params.w_img.T + params.b_img
    tp = text.pooled @ params.w_text.T + params.b_text
    tk = text.tokens @ params.w_text.T + params.b_text
    zcat = np.concatenate([a, tp], axis=1)
    g = tc.sigmoid(zcat @ params.w_gate.T + params.b_gate)
    att, att_cache = tc.multi_head_attention(a, tk, tk, params.heads)
    fused = g * a + (1.0 - g) * att
    result = finalize(fused, target_shape, params)
    cache = (params, pooled, a, tp, tk, zcat, g, att, att_cache, text, result.final, target_shape)
    return result, cache


def fuse_backward(cache, grad_output: np.ndarray) -> FusionParams:
    """Parameter gradients as a FusionParams; w_out is None when the params
    have no output projection."""
    params, pooled, a, tp, tk, zcat, g, att, att_cache, text, final, target_shape = cache
    gflat = grad_output.reshape(1, -1)
    gw_out = None
    if int(np.prod(target_shape)) == final.shape[1]:
        gfinal = gflat
    else:
        gw_out = gflat.T @ final
        gfinal = gflat @ params.w_out
    gfused = gfinal  # PE is an additive constant
    gg = gfused * (a - att)
    ga = gfused * g
    gatt = gfused * (1.0 - g)
    gzg = tc.sigmoid_backward(g, gg)
    gw_gate = gzg.T @ zcat
    gb_gate = gzg.copy()
    gzcat = gzg @ params.w_gate
    ga = ga + gzcat[:, : a.shape[1]]
    gtp = gzcat[:, a.shape[1]:]
    gq, gk, gv = tc.multi_head_attention_backward(att_cache, gatt)
    ga = ga + gq
    gtk = gk + gv
    return replace(
        params,
        w_img=ga.T @ pooled,
        b_img=ga.copy(),
        w_text=gtp.T @ text.pooled + gtk.T @ text.tokens,
        b_text=gtp + gtk.sum(axis=0, keepdims=True),
        w_gate=gw_gate,
        b_gate=gb_gate,
        w_out=gw_out,
    )
