"""Attention-based dehazing: gated channel attention plus windowed
self-attention inside each convolution block, a small generator/discriminator
pair, and the four-term restoration loss (adversarial, patch contrastive,
perceptual contrast against the hazy input, identity).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import tensor_core as tc
from . import encoders


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
    window: int = 4
    heads: int = 2
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

    @property
    def window(self) -> int:
        return self.blocks[0].wmsa.window


@dataclass
class Discriminator:
    convs: list[tc.ConvLayer]  # stride-2 stack ending in a 1-channel patch map


@dataclass
class DehazeLossWeights:
    lambda_adv: float = 1.0
    lambda_patch: float = 1.0
    lambda_scp: float = 1.0
    lambda_ide: float = 1.0
    nce_temperature: float = 0.07
    patch_count: int = 16

    def __post_init__(self):
        vals = (self.lambda_adv, self.lambda_patch, self.lambda_scp, self.lambda_ide)
        if any(v < 0 for v in vals):
            raise ValueError(f"loss weights must be non-negative: {vals}")
        if not any(v > 0 for v in vals):
            raise ValueError("at least one loss weight must be positive")
        if self.nce_temperature <= 0:
            raise ValueError("nce_temperature must be positive")


@dataclass
class DehazeLossComponents:
    adv_g: float
    patch: float
    scp: float
    ide: float


def init_block(rng: tc.Rng, channels: int, window: int = 4, heads: int = 2,
               shift: bool = False) -> DehazeBlockParams:
    if channels % 2:
        raise ValueError(f"channel count must be even for the squeeze, got {channels}")
    if channels % heads:
        raise ValueError(f"heads {heads} does not divide channels {channels}")
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
            window=window, heads=heads, shift=shift,
        ),
        out=tc.init_conv(rng, channels, channels),
    )


def init_generator(rng: tc.Rng, channels: int = 8, n_blocks: int = 2,
                   window: int = 4, heads: int = 2) -> DehazeGenerator:
    blocks = [init_block(rng, channels, window, heads, shift=bool(i % 2))
              for i in range(n_blocks)]
    return DehazeGenerator(stem=tc.init_conv(rng, 3, channels), blocks=blocks,
                           head=tc.init_conv(rng, channels, 3))


def init_discriminator(rng: tc.Rng, channels: int = 8) -> Discriminator:
    return Discriminator(convs=[
        tc.init_conv(rng, 3, channels, stride=2),
        tc.init_conv(rng, channels, 2 * channels, stride=2),
        tc.init_conv(rng, 2 * channels, 1, stride=2),
    ])


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
    if h % p.window or w % p.window:
        raise ValueError(f"window {p.window} does not divide map {h}x{w}")
    if c % p.heads:
        raise ValueError(f"heads {p.heads} does not divide channels {c}")
    s = p.window // 2 if p.shift else 0
    xs = np.roll(x, (-s, -s), axis=(1, 2)) if s else x
    tokens = _partition(xs, p.window)              # [nW, T, C]
    # one [3C, C] projection over all tokens; q, k and v are column views of it
    qkv = tokens.reshape(-1, c) @ np.concatenate((p.wq, p.wk, p.wv)).T
    q, k, v = (qkv[:, i * c:(i + 1) * c].reshape(tokens.shape) for i in range(3))
    att, mha_cache = tc.multi_head_attention(q, k, v, p.heads)
    out_tokens = (att.reshape(-1, c) @ p.wo.T).reshape(tokens.shape)
    y = _unpartition(out_tokens, x.shape, p.window)
    if s:
        y = np.roll(y, (s, s), axis=(1, 2))
    return y, (x.shape, s, tokens, att, mha_cache)


def wmsa_backward(cache, p: WmsaParams, gy: np.ndarray):
    shape, s, tokens, att, mha_cache = cache
    if s:
        gy = np.roll(gy, (-s, -s), axis=(1, 2))
    g_out = _partition(gy, p.window)
    gq, gk, gv = tc.multi_head_attention_backward(mha_cache, g_out @ p.wo)
    g_tokens = gq @ p.wq + gk @ p.wk + gv @ p.wv
    grads = replace(p, wq=np.einsum("wtd,wtc->dc", gq, tokens),
                    wk=np.einsum("wtd,wtc->dc", gk, tokens),
                    wv=np.einsum("wtd,wtc->dc", gv, tokens),
                    wo=np.einsum("wtd,wtc->dc", g_out, att))
    gx = _unpartition(g_tokens, shape, p.window)
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
# discriminator


def disc_forward(img: np.ndarray, disc: Discriminator):
    """Patch probabilities in (0,1). Returns (probs, cache)."""
    x = img
    cache = []
    for i, layer in enumerate(disc.convs):
        pre = tc.conv_layer(x, layer)
        cache.append((x, pre, layer))
        x = tc.leaky_relu(pre, 0.2) if i + 1 < len(disc.convs) else tc.sigmoid(pre)
    return x, cache


def disc_backward_input(cache, probs: np.ndarray, g_probs: np.ndarray) -> np.ndarray:
    """Gradient wrt the discriminator's input image (weights treated as fixed)."""
    g = tc.sigmoid_backward(probs, g_probs)
    for i in reversed(range(len(cache))):
        x, pre, layer = cache[i]
        if i + 1 < len(cache):
            g = tc.leaky_relu_backward(pre, g, 0.2)
        g, _ = tc.conv_layer_backward(x, layer, g)
    return g


# ---------------------------------------------------------------------------
# losses


def adversarial_loss(d_real: np.ndarray, d_fake: np.ndarray):
    """Minimax GAN objectives on discriminator probabilities: (L_D, L_G)."""
    for name, p in (("d_real", d_real), ("d_fake", d_fake)):
        p = np.asarray(p)
        if np.any(p <= 0) or np.any(p >= 1):
            raise ValueError(f"{name} must lie strictly in (0, 1)")
    d_real = np.asarray(d_real, dtype=np.float64)
    d_fake = np.asarray(d_fake, dtype=np.float64)
    l_d = -float(np.mean(np.log(d_real))) - float(np.mean(np.log1p(-d_fake)))
    l_g = -float(np.mean(np.log(d_fake)))
    return l_d, l_g


def _sample_locations(h: int, w: int, count: int, seed: int) -> list[tuple[int, int]]:
    total = h * w
    if total < 2:
        raise ValueError(f"need at least 2 spatial locations, map is {h}x{w}")
    count = min(count, total)
    rng = tc.Rng(seed)
    chosen: list[int] = []
    seen = set()
    while len(chosen) < count:
        for idx in rng.integers(total, count):
            if idx not in seen:
                seen.add(idx)
                chosen.append(int(idx))
            if len(chosen) == count:
                break
    return [(i // w, i % w) for i in chosen]


def patch_nce_loss_with_grad(feat_out: np.ndarray, feat_in: np.ndarray,
                             weights: DehazeLossWeights, seed: int = 0):
    """InfoNCE over sampled locations; grad is wrt feat_out.

    The positive for each sampled location is the same location in feat_in;
    the other sampled locations act as negatives. Similarity is cosine,
    scaled by the temperature.
    """
    if feat_out.shape != feat_in.shape:
        raise ValueError(f"shape mismatch {feat_out.shape} vs {feat_in.shape}")
    c, h, w = feat_out.shape
    locs = _sample_locations(h, w, weights.patch_count, seed)
    n = len(locs)
    u = np.stack([feat_out[:, r, cc] for r, cc in locs]).astype(np.float64)  # [N, C]
    v = np.stack([feat_in[:, r, cc] for r, cc in locs]).astype(np.float64)
    un = np.maximum(np.linalg.norm(u, axis=1, keepdims=True), 1e-12)
    vn = np.maximum(np.linalg.norm(v, axis=1, keepdims=True), 1e-12)
    uh, vh = u / un, v / vn
    sims = uh @ vh.T
    logits = sims / weights.nce_temperature
    probs = tc.softmax(logits, axis=1)
    loss = float(np.mean(-np.log(np.maximum(probs[np.arange(n), np.arange(n)], 1e-300))))

    g_logits = probs.copy()
    g_logits[np.arange(n), np.arange(n)] -= 1.0
    g_sims = g_logits / (weights.nce_temperature * n)
    # d sims_ij / d u_i = (vh_j - sims_ij * uh_i) / ||u_i||
    g_u = (g_sims @ vh - (g_sims * sims).sum(axis=1, keepdims=True) * uh) / un
    grad = np.zeros(feat_out.shape, dtype=np.float64)
    for i, (r, cc) in enumerate(locs):
        grad[:, r, cc] += g_u[i]
    return loss, grad.astype(feat_out.dtype)


_SCP_BACKBONE: encoders.BackboneParams | None = None


def _scp_backbone() -> encoders.BackboneParams:
    global _SCP_BACKBONE
    if _SCP_BACKBONE is None:
        _SCP_BACKBONE = encoders.init_backbone(tc.Rng(1805))
    return _SCP_BACKBONE


SCP_EPS = 1e-7


def scp_loss_with_grad(restored: np.ndarray, clear_exemplar: np.ndarray,
                       hazy_input: np.ndarray):
    """Perceptual contrast: pull restored toward the clear exemplar and push
    it from the hazy input in a fixed feature space; grad is wrt restored.
    """
    if not (restored.shape == clear_exemplar.shape == hazy_input.shape):
        raise ValueError(f"shape mismatch: {restored.shape}, {clear_exemplar.shape}, "
                         f"{hazy_input.shape}")
    phi = _scp_backbone()
    cache: list = []
    fr = encoders.backbone_features(restored, phi, cache)
    fc = encoders.backbone_features(clear_exemplar, phi)
    fh = encoders.backbone_features(hazy_input, phi)
    loss = 0.0
    scale_grads = []
    for r, c, h in zip(fr.scales(), fc.scales(), fh.scales()):
        r = r.astype(np.float64)
        num = float(np.abs(r - c).sum())
        den = float(np.abs(r - h).sum()) + SCP_EPS
        loss += num / den
        g = np.sign(r - c) / den - (num / den ** 2) * np.sign(r - h)
        scale_grads.append(g.astype(restored.dtype))
    grad = encoders.backbone_backward_input(cache, scale_grads)
    return float(loss), grad


def identity_loss(gen: DehazeGenerator, clear: np.ndarray) -> float:
    restored = dehaze_forward(clear, gen)
    return float(np.mean(np.abs(restored.astype(np.float64) - clear.astype(np.float64))))


def dehaze_total_loss(components: DehazeLossComponents,
                      weights: DehazeLossWeights) -> float:
    return (weights.lambda_adv * components.adv_g
            + weights.lambda_patch * components.patch
            + weights.lambda_scp * components.scp
            + weights.lambda_ide * components.ide)


def dehaze_losses_with_grads(gen: DehazeGenerator, disc: Discriminator,
                             hazy: np.ndarray, clear: np.ndarray,
                             weights: DehazeLossWeights, seed: int = 0):
    """Full restoration objective and its gradient wrt generator parameters.

    The discriminator is treated as fixed (its output still shapes the
    adversarial term's gradient). Returns (components, total, grads), grads
    a dict keyed and ordered like tc.param_items(gen).
    """
    restored, gcache = _gen_forward(hazy, gen)

    d_fake, dcache = disc_forward(restored, disc)
    df = np.clip(d_fake.astype(np.float64), 1e-12, 1.0 - 1e-12)
    l_adv_g = -float(np.mean(np.log(df)))
    g_probs = (-1.0 / (df * df.size)).astype(restored.dtype)
    g_restored = weights.lambda_adv * disc_backward_input(dcache, d_fake, g_probs)

    l_patch, g_patch = patch_nce_loss_with_grad(restored, hazy, weights, seed)
    g_restored = g_restored + weights.lambda_patch * g_patch

    l_scp, g_scp = scp_loss_with_grad(restored, clear, hazy)
    g_restored = g_restored + weights.lambda_scp * g_scp

    _, g_gen = _gen_backward(gcache, gen, g_restored)

    ide_out, icache = _gen_forward(clear, gen)
    diff = ide_out.astype(np.float64) - clear.astype(np.float64)
    l_ide = float(np.mean(np.abs(diff)))
    g_ide = (weights.lambda_ide * np.sign(diff) / diff.size).astype(ide_out.dtype)
    _, g_gen_ide = _gen_backward(icache, gen, g_ide)
    grads = {name: g + g_i for (name, g), (_, g_i)
             in zip(tc.param_items(g_gen), tc.param_items(g_gen_ide))}

    components = DehazeLossComponents(adv_g=l_adv_g, patch=l_patch, scp=l_scp, ide=l_ide)
    return components, dehaze_total_loss(components, weights), grads


# ---------------------------------------------------------------------------
# synthetic haze for toy experiments


def synthesize_haze(clear: np.ndarray, transmission: float,
                    airlight: float = 0.9) -> np.ndarray:
    """Atmospheric scattering composite: hazy = clear*t + A*(1 - t)."""
    if not 0.0 < transmission <= 1.0:
        raise ValueError(f"transmission must lie in (0, 1], got {transmission}")
    return (clear * transmission + airlight * (1.0 - transmission)).astype(clear.dtype)
