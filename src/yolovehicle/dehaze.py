"""Attention-based dehazing: gated channel attention plus windowed
self-attention inside each convolution block of a residual restoration
generator, and its identity objective (a clear image passes unchanged).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import tensor_core as tc

WINDOW = 4  # attention window side, in pixels
HEADS = 2   # attention heads per window
BLOCKS = 2  # attention-conv blocks in the generator


@dataclass
class CabParams:
    w1: np.ndarray  # [C//2, C], squeeze
    b1: np.ndarray
    w2: np.ndarray  # [C, C//2], excite
    b2: np.ndarray


@dataclass
class WmsaParams:
    wq: np.ndarray  # [C, C]
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    shift: bool = False


@dataclass
class DehazeBlockParams:
    stem: tc.ConvLayer  # 3x3, C -> C
    cab: CabParams
    wmsa: WmsaParams
    out: tc.ConvLayer   # 3x3, C -> C


@dataclass
class DehazeGenerator:
    stem: tc.ConvLayer               # 3x3, 3 -> C
    blocks: list[DehazeBlockParams]
    head: tc.ConvLayer               # 3x3, C -> 3


def init_block(rng: tc.Rng, channels: int, shift: bool = False) -> DehazeBlockParams:
    if channels % 2:
        raise ValueError(f"channel count must be even for the squeeze, got {channels}")
    if channels % HEADS:
        raise ValueError(f"heads {HEADS} does not divide channels {channels}")
    half = channels // 2
    return DehazeBlockParams(
        stem=tc.init_conv(rng, channels, channels),
        cab=CabParams(
            w1=tc.init_uniform(rng, (half, channels), channels),
            b1=np.zeros(half, tc.DTYPE),
            w2=tc.init_uniform(rng, (channels, half), half),
            b2=np.zeros(channels, tc.DTYPE),
        ),
        wmsa=WmsaParams(
            wq=tc.init_uniform(rng, (channels, channels), channels),
            wk=tc.init_uniform(rng, (channels, channels), channels),
            wv=tc.init_uniform(rng, (channels, channels), channels),
            wo=tc.init_uniform(rng, (channels, channels), channels),
            shift=shift,
        ),
        out=tc.init_conv(rng, channels, channels),
    )


def init_generator(rng: tc.Rng, channels: int = 8) -> DehazeGenerator:
    blocks = [init_block(rng, channels, shift=bool(i % 2))
              for i in range(BLOCKS)]
    return DehazeGenerator(stem=tc.init_conv(rng, 3, channels), blocks=blocks,
                           head=tc.init_conv(rng, channels, 3))


# ---------------------------------------------------------------------------
# channel attention branch


def cab_forward(x: np.ndarray, p: CabParams):
    """Returns (y, cache)."""
    if x.shape[0] != p.w1.shape[1]:
        raise ValueError(f"feature channels {x.shape[0]} vs squeeze weight {p.w1.shape}")
    pooled = tc.global_avg_pool(x)                 # [1, C]
    z1 = pooled @ p.w1.T + p.b1[None, :]
    a1 = tc.leaky_relu(z1)
    gate = tc.sigmoid(a1 @ p.w2.T + p.b2[None, :])  # [1, C]
    y = x * gate[0][:, None, None]
    return y, (x, pooled, z1, a1, gate)


def cab_backward(cache, p: CabParams, gy: np.ndarray):
    x, pooled, z1, a1, gate = cache
    gx = gy * gate[0][:, None, None]
    g_gate = (gy * x).sum(axis=(1, 2))[None, :]
    gz2 = tc.sigmoid_backward(gate, g_gate)
    gz1 = tc.leaky_relu_backward(z1, gz2 @ p.w2)
    gx = gx + tc.global_avg_pool_backward(x.shape, gz1 @ p.w1)
    return gx, replace(p, w1=gz1.T @ pooled, b1=gz1[0], w2=gz2.T @ a1, b2=gz2[0])


# ---------------------------------------------------------------------------
# windowed multi-head self-attention branch


def _partition(x: np.ndarray, win: int):
    """[C, H, W] -> window tokens [nW, win*win, C]."""
    c, h, w = x.shape
    nh, nw = h // win, w // win
    t = x.transpose(1, 2, 0).reshape(nh, win, nw, win, c)
    return t.transpose(0, 2, 1, 3, 4).reshape(nh * nw, win * win, c)


def _unpartition(tokens: np.ndarray, shape, win: int):
    c, h, w = shape
    nh, nw = h // win, w // win
    t = tokens.reshape(nh, nw, win, win, c).transpose(0, 2, 1, 3, 4)
    return t.reshape(h, w, c).transpose(2, 0, 1)


def wmsa_forward(x: np.ndarray, p: WmsaParams):
    """Multi-head self-attention within non-overlapping win x win windows;
    returns (y, cache).

    With p.shift the map is rolled by half a window first and rolled back
    after, as in Swin (Liu et al., arXiv 2103.14030), but without Swin's
    cross-boundary attention mask. The shift is cyclic by design: the
    windows along the bottom and right edges hold tokens from the opposite
    edges, and those tokens attend to each other.
    """
    c, h, w = x.shape
    if h % WINDOW or w % WINDOW:
        raise ValueError(f"window {WINDOW} does not divide map {h}x{w}")
    if c % HEADS:
        raise ValueError(f"heads {HEADS} does not divide channels {c}")
    s = WINDOW // 2 if p.shift else 0
    xs = np.roll(x, (-s, -s), axis=(1, 2)) if s else x
    tokens = _partition(xs, WINDOW)                # [nW, T, C]
    # one [3C, C] projection over all tokens; q, k and v are column views of it
    qkv = tokens.reshape(-1, c) @ np.concatenate((p.wq, p.wk, p.wv)).T
    q, k, v = (qkv[:, i * c:(i + 1) * c].reshape(tokens.shape) for i in range(3))
    att, mha_cache = tc.multi_head_attention(q, k, v, HEADS)
    out_tokens = (att.reshape(-1, c) @ p.wo.T).reshape(tokens.shape)
    y = _unpartition(out_tokens, x.shape, WINDOW)
    if s:
        y = np.roll(y, (s, s), axis=(1, 2))
    return y, (x.shape, s, tokens, att, mha_cache)


def wmsa_backward(cache, p: WmsaParams, gy: np.ndarray):
    shape, s, tokens, att, mha_cache = cache
    if s:
        gy = np.roll(gy, (-s, -s), axis=(1, 2))
    g_out = _partition(gy, WINDOW)
    gq, gk, gv = tc.multi_head_attention_backward(mha_cache, g_out @ p.wo)
    g_tokens = gq @ p.wq + gk @ p.wk + gv @ p.wv
    grads = replace(p, wq=np.einsum("wtd,wtc->dc", gq, tokens),
                    wk=np.einsum("wtd,wtc->dc", gk, tokens),
                    wv=np.einsum("wtd,wtc->dc", gv, tokens),
                    wo=np.einsum("wtd,wtc->dc", g_out, att))
    gx = _unpartition(g_tokens, shape, WINDOW)
    if s:
        gx = np.roll(gx, (s, s), axis=(1, 2))
    return gx, grads


# ---------------------------------------------------------------------------
# attention-conv block and generator


def block_forward(x: np.ndarray, p: DehazeBlockParams):
    """Attention-conv block: conv, then channel plus window attention, then
    conv. Returns (y, cache)."""
    pre = tc.conv_layer(x, p.stem)
    s = tc.leaky_relu(pre)
    c, cab_cache = cab_forward(s, p.cab)
    m, wmsa_cache = wmsa_forward(s, p.wmsa)
    u = c + m
    y = tc.conv_layer(u, p.out)
    return y, (x, pre, s, cab_cache, wmsa_cache, u)


def block_backward(cache, p: DehazeBlockParams, gy: np.ndarray):
    x, pre, s, cab_cache, wmsa_cache, u = cache
    gu, g_out = tc.conv_layer_backward(u, p.out, gy)
    gs_cab, g_cab = cab_backward(cab_cache, p.cab, gu)
    gs_wmsa, g_wmsa = wmsa_backward(wmsa_cache, p.wmsa, gu)
    gpre = tc.leaky_relu_backward(pre, gs_cab + gs_wmsa)
    gx, g_stem = tc.conv_layer_backward(x, p.stem, gpre)
    return gx, replace(p, stem=g_stem, cab=g_cab, wmsa=g_wmsa, out=g_out)


def dehaze_forward(hazy: np.ndarray, gen: DehazeGenerator) -> np.ndarray:
    y, _ = _gen_forward(hazy, gen)
    return y


def _gen_forward(hazy: np.ndarray, gen: DehazeGenerator):
    if hazy.ndim != 3 or hazy.shape[0] != 3:
        raise ValueError(f"expected a 3xHxW image, got {hazy.shape}")
    pre0 = tc.conv_layer(hazy, gen.stem)
    f = tc.leaky_relu(pre0)
    block_caches = []
    for block in gen.blocks:
        f, bc = block_forward(f, block)
        block_caches.append(bc)
    head = tc.conv_layer(f, gen.head)
    pre_clamp = hazy + head
    out = tc.clamp01(pre_clamp)
    return out, (hazy, pre0, f, block_caches, pre_clamp)


def _gen_backward(cache, gen: DehazeGenerator, g_out: np.ndarray):
    """Returns (input grad, parameter grads as a DehazeGenerator)."""
    hazy, pre0, f, block_caches, pre_clamp = cache
    g_pre = tc.clamp01_backward(pre_clamp, g_out)
    gf, g_head = tc.conv_layer_backward(f, gen.head, g_pre)
    g_blocks = [None] * len(gen.blocks)
    for i in reversed(range(len(gen.blocks))):
        gf, g_blocks[i] = block_backward(block_caches[i], gen.blocks[i], gf)
    gh, g_stem = tc.conv_layer_backward(hazy, gen.stem, tc.leaky_relu_backward(pre0, gf))
    return g_pre + gh, replace(gen, stem=g_stem, blocks=g_blocks, head=g_head)


# ---------------------------------------------------------------------------
# identity objective


def identity_loss_with_grads(gen: DehazeGenerator, clear: np.ndarray):
    """Identity loss mean|G(clear) - clear| and its gradient wrt the
    generator's parameters. Returns (loss, grads), grads a dict keyed and
    ordered like tc.param_items(gen).
    """
    out, cache = _gen_forward(clear, gen)
    diff = out.astype(np.float64) - clear.astype(np.float64)
    _, g_gen = _gen_backward(cache, gen, (np.sign(diff) / diff.size).astype(out.dtype))
    return float(np.mean(np.abs(diff))), dict(tc.param_items(g_gen))


# ---------------------------------------------------------------------------
# synthetic haze for toy experiments


def synthesize_haze(clear: np.ndarray, transmission: float,
                    airlight: float = 0.9) -> np.ndarray:
    """Atmospheric scattering composite: hazy = clear*t + A*(1 - t)."""
    if not 0.0 < transmission <= 1.0:
        raise ValueError(f"transmission must lie in (0, 1], got {transmission}")
    return (clear * transmission + airlight * (1.0 - transmission)).astype(clear.dtype)
