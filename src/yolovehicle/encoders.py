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


# the shipped lexicon, read once: one token per line, line number = id,
# id 0 is UNK
VOCAB = {w: i for i, w in enumerate(
    resources.files("yolovehicle").joinpath("data/vocab.txt")
    .read_text("utf-8").splitlines())}


def phrases(text: str) -> list[str]:
    """The prompt's comma-separated phrases, stripped, empty ones dropped.
    The one check of a prompt: ValueError unless it has 1 to MAX_PHRASES."""
    out = [p.strip() for p in text.split(",") if p.strip()]
    if not out:
        raise ValueError("empty text input")
    if len(out) > MAX_PHRASES:
        raise ValueError(f"too many phrases: {len(out)} > {MAX_PHRASES}")
    return out


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
    embed: np.ndarray  # [V, d]
    w_out: np.ndarray  # [512, d]
    b_out: np.ndarray  # [1, 512]
    layers: list[EncoderLayerParams]


@dataclass
class TextFeature:
    pooled: np.ndarray  # [1, 512]
    tokens: np.ndarray  # [T, 512], one row per phrase


def init_text_encoder(rng: tc.Rng) -> TextEncoderParams:
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
        embed=tc.init_uniform(rng, (len(VOCAB), d), d),
        layers=layers,
        w_out=tc.init_uniform(rng, (TEXT_DIM, d), d),
        b_out=np.zeros((1, TEXT_DIM), tc.DTYPE),
    )


def tokenize(text: str) -> list[list[int]]:
    """Lowercase whitespace tokens per phrase, UNK for out-of-lexicon words.
    Every phrase gives at least one: phrases strips the same whitespace
    that split() splits on."""
    out = []
    for phrase in phrases(text):
        ids = [VOCAB.get(w, UNK_ID) for w in phrase.lower().split()]
        out.append(ids[:MAX_PHRASE_TOKENS])
    return out


def _encoder_layer(x: np.ndarray, lp: EncoderLayerParams) -> np.ndarray:
    q = x @ lp.wq.T
    k = x @ lp.wk.T
    v = x @ lp.wv.T
    attn, _ = tc.multi_head_attention(q, k, v, NUM_HEADS)
    x = x + attn @ lp.wo.T
    hidden = tc.leaky_relu(x @ lp.w1.T + lp.b1)
    return x + hidden @ lp.w2.T + lp.b2


def text_encode(text: str, params: TextEncoderParams) -> TextFeature:
    phrase_vecs = []
    for ids in tokenize(text):
        x = params.embed[ids]
        for lp in params.layers:
            x = _encoder_layer(x, lp)
        phrase_vecs.append(x.mean(axis=0))
    rows = np.stack(phrase_vecs)  # [T, d]
    tokens = rows @ params.w_out.T + params.b_out
    pooled = rows.mean(axis=0, keepdims=True) @ params.w_out.T + params.b_out
    return TextFeature(pooled=pooled.astype(tc.DTYPE), tokens=tokens.astype(tc.DTYPE))


# ---------------------------------------------------------------------------
# image backbone


@dataclass
class BackboneParams:
    stem: list[tc.ConvLayer]          # two stride-2 convs -> /4
    stages: list[list[tc.ConvLayer]]  # three stages, each /2 -> strides 8/16/32


@dataclass
class MultiScaleFeatures:
    f1: np.ndarray  # [C, H/8,  W/8], each side rounded up
    f2: np.ndarray  # [C, H/16, W/16]
    f3: np.ndarray  # [C, H/32, W/32]

    def scales(self) -> list[np.ndarray]:
        return [self.f1, self.f2, self.f3]


def init_backbone(rng: tc.Rng, channels: int) -> BackboneParams:
    stem = [tc.init_conv(rng, 3, channels, 2), tc.init_conv(rng, channels, channels, 2)]
    stages = [
        [tc.init_conv(rng, channels, channels, 2), tc.init_conv(rng, channels, channels)]
        for _ in range(3)
    ]
    return BackboneParams(stem=stem, stages=stages)


def backbone_extract(image: np.ndarray, params: BackboneParams, cache: list | None = None) -> MultiScaleFeatures:
    """Pyramid features of a 3xHxW image of any size, each map ceil(H/s) x
    ceil(W/s) at stride s; a cache gets one tc.conv_stack record list per
    stack, the stem's first."""
    x, outs = image, []
    for layers in [params.stem, *params.stages]:
        records = None if cache is None else []
        x = tc.conv_stack(x, layers, records)
        if cache is not None:
            cache.append(records)
        outs.append(x)
    return MultiScaleFeatures(*outs[1:])


def backbone_backward(cache: list, grads: list[np.ndarray]):
    """Returns (grad_image, parameter grads as a BackboneParams). cache is
    backbone_extract's; grads holds one output grad per scales() entry."""
    stem, *stages = cache
    g = None
    stage_grads = []
    for records, g_scale in reversed(list(zip(stages, grads))):
        g, layer_grads = tc.conv_stack_backward(records, g_scale if g is None else g + g_scale)
        stage_grads.append(layer_grads)
    g, stem_grads = tc.conv_stack_backward(stem, g)
    return g, BackboneParams(stem=stem_grads, stages=stage_grads[::-1])
