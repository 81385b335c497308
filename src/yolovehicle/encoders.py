"""Toy text encoder (pooled 1x512 feature) and multi-scale image backbone.

The text side is a 2-layer, 4-head, d=64 transformer over a fixed 256-word
traffic lexicon, projected to 512 dims. The image side is a small conv
pyramid emitting feature maps at strides 8/16/32.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

import numpy as np

from . import tensor_core as tc

TEXT_DIM = 512
MODEL_DIM = 64
FF_DIM = 128
NUM_LAYERS = 2
NUM_HEADS = 4
MAX_PHRASE_TOKENS = 8
MAX_PHRASES = 16
UNK_ID = 0


def load_vocab() -> dict[str, int]:
    """Shipped lexicon: one token per line, line number = id, id 0 is UNK."""
    text = resources.files("yolovehicle").joinpath("data/vocab.txt").read_text("utf-8")
    return {w: i for i, w in enumerate(text.splitlines())}


@dataclass
class TextInput:
    raw: str

    @property
    def phrases(self) -> list[str]:
        return [p.strip() for p in self.raw.split(",") if p.strip()]

    def validate(self) -> None:
        n = len(self.phrases)
        if n == 0:
            raise ValueError("empty text input")
        if n > MAX_PHRASES:
            raise ValueError(f"too many phrases: {n} > {MAX_PHRASES}")


@dataclass
class EncoderLayerParams:
    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray


@dataclass
class TextEncoderParams:
    vocab: dict[str, int]
    embed: np.ndarray  # [V, d]
    w_out: np.ndarray  # [512, d]
    b_out: np.ndarray  # [1, 512]
    layers: list[EncoderLayerParams]
    heads: int = NUM_HEADS


@dataclass
class TextFeature:
    pooled: np.ndarray  # [1, 512]
    tokens: np.ndarray  # [T, 512], one row per phrase


def init_text_encoder(rng: tc.Rng, vocab: dict[str, int] | None = None) -> TextEncoderParams:
    vocab = vocab if vocab is not None else load_vocab()
    d, ff = MODEL_DIM, FF_DIM
    layers = []
    for _ in range(NUM_LAYERS):
        layers.append(EncoderLayerParams(
            wq=tc.init_uniform(rng, (d, d), d),
            wk=tc.init_uniform(rng, (d, d), d),
            wv=tc.init_uniform(rng, (d, d), d),
            wo=tc.init_uniform(rng, (d, d), d),
            w1=tc.init_uniform(rng, (ff, d), d),
            b1=np.zeros((1, ff), tc.DTYPE),
            w2=tc.init_uniform(rng, (d, ff), ff),
            b2=np.zeros((1, d), tc.DTYPE),
        ))
    return TextEncoderParams(
        vocab=vocab,
        embed=tc.init_uniform(rng, (len(vocab), d), d),
        layers=layers,
        w_out=tc.init_uniform(rng, (TEXT_DIM, d), d),
        b_out=np.zeros((1, TEXT_DIM), tc.DTYPE),
    )


def tokenize(text: TextInput, vocab: dict[str, int]) -> list[list[int]]:
    """Lowercase whitespace tokens per phrase, UNK for out-of-lexicon words."""
    text.validate()
    out = []
    for phrase in text.phrases:
        ids = [vocab.get(w, UNK_ID) for w in phrase.lower().split()]
        out.append(ids[:MAX_PHRASE_TOKENS])
    return out


def _encoder_layer(x: np.ndarray, lp: EncoderLayerParams, heads: int) -> np.ndarray:
    q = x @ lp.wq.T
    k = x @ lp.wk.T
    v = x @ lp.wv.T
    attn, _ = tc.multi_head_attention(q, k, v, heads)
    x = x + attn @ lp.wo.T
    hidden = tc.leaky_relu(x @ lp.w1.T + lp.b1)
    return x + hidden @ lp.w2.T + lp.b2


def text_encode(text: TextInput, params: TextEncoderParams) -> TextFeature:
    phrase_ids = tokenize(text, params.vocab)
    phrase_vecs = []
    for ids in phrase_ids:
        x = params.embed[ids] if ids else np.zeros((1, MODEL_DIM), tc.DTYPE)
        for lp in params.layers:
            x = _encoder_layer(x, lp, params.heads)
        phrase_vecs.append(x.mean(axis=0))
    rows = np.stack(phrase_vecs)  # [T, d]
    tokens = rows @ params.w_out.T + params.b_out
    pooled = rows.mean(axis=0, keepdims=True) @ params.w_out.T + params.b_out
    return TextFeature(pooled=pooled.astype(tc.DTYPE), tokens=tokens.astype(tc.DTYPE))


# ---------------------------------------------------------------------------
# image backbone


@dataclass
class ConvLayer:
    w: np.ndarray  # [O, C, kh, kw]
    b: np.ndarray  # [O]
    stride: int
    pad: int = 1


@dataclass
class BackboneParams:
    stem: list[ConvLayer]          # two stride-2 convs -> /4
    stages: list[list[ConvLayer]]  # three stages, each /2 -> strides 8/16/32
    channels: int = 8


@dataclass
class MultiScaleFeatures:
    f1: np.ndarray  # [C, H/8,  W/8]
    f2: np.ndarray  # [C, H/16, W/16]
    f3: np.ndarray  # [C, H/32, W/32]

    def scales(self) -> list[np.ndarray]:
        return [self.f1, self.f2, self.f3]


def _conv_layer(rng: tc.Rng, c_in: int, c_out: int, stride: int) -> ConvLayer:
    return ConvLayer(
        w=tc.init_uniform(rng, (c_out, c_in, 3, 3), c_in * 9),
        b=np.zeros(c_out, tc.DTYPE),
        stride=stride,
    )


def init_backbone(rng: tc.Rng, channels: int = 8) -> BackboneParams:
    stem = [_conv_layer(rng, 3, channels, 2), _conv_layer(rng, channels, channels, 2)]
    stages = [
        [_conv_layer(rng, channels, channels, 2), _conv_layer(rng, channels, channels, 1)]
        for _ in range(3)
    ]
    return BackboneParams(stem=stem, stages=stages, channels=channels)


def _run_layers(x: np.ndarray, layers: list[ConvLayer], cache: list | None = None) -> np.ndarray:
    for layer in layers:
        pre = tc.conv2d(x, layer.w, stride=layer.stride, pad=layer.pad) + layer.b[:, None, None]
        if cache is not None:
            cache.append((x, pre, layer))
        x = tc.leaky_relu(pre)
    return x


def backbone_features(image: np.ndarray, params: BackboneParams, cache: list | None = None) -> MultiScaleFeatures:
    """Pyramid features without the /32 divisibility requirement (loss internals)."""
    x = _run_layers(image, params.stem, cache)
    outs = []
    for stage in params.stages:
        x = _run_layers(x, stage, cache)
        outs.append(x)
    return MultiScaleFeatures(*outs)


def backbone_extract(image: np.ndarray, params: BackboneParams) -> MultiScaleFeatures:
    if image.ndim != 3 or image.shape[0] != 3:
        raise ValueError(f"expected 3xHxW image, got {image.shape}")
    _, h, w = image.shape
    if h % 32 or w % 32:
        raise ValueError(f"image dims must be divisible by 32, got {h}x{w}")
    return backbone_features(image, params)


def backbone_backward_input(cache: list, grads: list[np.ndarray]) -> np.ndarray:
    """Gradient wrt the input image given per-scale output grads (weights fixed).

    cache is the list filled by backbone_features; grads has one entry per
    scale, aligned with MultiScaleFeatures.scales().
    """
    # stage boundaries: stem layers first, then 2 layers per stage
    n_stem = len(cache) - sum(1 for _ in grads) * 2
    g = None
    li = len(cache) - 1
    for s in reversed(range(len(grads))):
        g_stage = grads[s] if g is None else g + grads[s]
        for _ in range(2):
            x, pre, layer = cache[li]
            li -= 1
            gpre = tc.leaky_relu_backward(pre, g_stage)
            g_stage, _ = tc.conv2d_backward(x, layer.w, gpre, stride=layer.stride, pad=layer.pad)
        g = g_stage
    for _ in range(n_stem):
        x, pre, layer = cache[li]
        li -= 1
        gpre = tc.leaky_relu_backward(pre, g)
        g, _ = tc.conv2d_backward(x, layer.w, gpre, stride=layer.stride, pad=layer.pad)
    return g
