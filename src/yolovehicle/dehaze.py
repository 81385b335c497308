"""Dehazing by a K-estimator: three 3x3 convolutions predict a per-pixel
K, and the restored frame is AOD-Net's J = K*I - K + 1 (Li et al., ICCV
2017, arXiv:1707.06543); plus its identity objective (a clear image passes
unchanged) and the haze synthesis of toy experiments.

The paper's dehazer uses attention-conv blocks. On paired toy data this
estimator restores better (README, "Departures from the paper"), at
about a seventh of the forward time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor_core as tc

AIRLIGHT = 0.9  # the atmospheric light synthesize_haze mixes in


@dataclass
class DehazeGenerator:
    stem: tc.ConvLayer  # 3x3, 3 -> C
    mid: tc.ConvLayer   # 3x3, C -> C
    head: tc.ConvLayer  # 3x3, C -> 3, the K map


def init_generator(rng: tc.Rng, channels: int) -> DehazeGenerator:
    """Uniform weights, zero biases but the head's: K starts near 1, where
    the restoration is the identity."""
    gen = DehazeGenerator(stem=tc.init_conv(rng, 3, channels),
                          mid=tc.init_conv(rng, channels, channels),
                          head=tc.init_conv(rng, channels, 3))
    gen.head.b = np.ones(3, tc.DTYPE)
    return gen


def dehaze_forward(hazy: np.ndarray, gen: DehazeGenerator, cache: list | None = None) -> np.ndarray:
    """The restored frame. A cache gets the input, the pre-clamp frame and
    one (input, output, layer) record per conv, the head's last, for
    dehaze_backward; without one no record is kept."""
    if hazy.ndim != 3 or hazy.shape[0] != 3:
        raise ValueError(f"expected a 3xHxW image, got {hazy.shape}")
    records = None if cache is None else []
    feat = tc.conv_stack(hazy, [gen.stem, gen.mid], records)
    k = tc.conv_layer(feat, gen.head)
    # K*I - K + 1 rearranged: where K is exactly 1 this returns I exactly,
    # which the literal form does not in floating point
    pre_clamp = hazy + (k - 1) * (hazy - 1)
    if cache is not None:
        cache += [hazy, pre_clamp, [*records, (feat, k, gen.head)]]
    return tc.clamp01(pre_clamp)


def dehaze_backward(cache: list, grad: np.ndarray):
    """Returns (input grad, parameter grads as a DehazeGenerator)."""
    hazy, pre_clamp, [*records, (feat, k, head)] = cache
    g_pre = tc.clamp01_backward(pre_clamp, grad)
    g_feat, g_head = tc.conv_layer_backward(feat, head, g_pre * (hazy - 1))
    gh, (g_stem, g_mid) = tc.conv_stack_backward(records, g_feat)
    # dJ/dI = 1 + (K - 1) through the formula, plus the path through K
    return g_pre * k + gh, DehazeGenerator(stem=g_stem, mid=g_mid, head=g_head)


# ---------------------------------------------------------------------------
# identity objective


def identity_loss_with_grads(gen: DehazeGenerator, clear: np.ndarray):
    """Identity loss mean|G(clear) - clear| and its gradient wrt the
    generator's parameters. Returns (loss, grads), grads a dict keyed and
    ordered like tc.param_items(gen).
    """
    cache = []
    out = dehaze_forward(clear, gen, cache)
    diff = out.astype(np.float64) - clear.astype(np.float64)
    _, g_gen = dehaze_backward(cache, (np.sign(diff) / diff.size).astype(out.dtype))
    return float(np.mean(np.abs(diff))), dict(tc.param_items(g_gen))


# ---------------------------------------------------------------------------
# synthetic haze for toy experiments


def synthesize_haze(clear: np.ndarray, transmission: float) -> np.ndarray:
    """Atmospheric scattering composite: hazy = clear*t + AIRLIGHT*(1 - t)."""
    if not 0.0 < transmission <= 1.0:
        raise ValueError(f"transmission must lie in (0, 1], got {transmission}")
    return (clear * transmission + AIRLIGHT * (1.0 - transmission)).astype(clear.dtype)
