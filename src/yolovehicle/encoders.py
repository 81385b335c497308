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


@dataclass
class TextFeature:
    pooled: np.ndarray  # [1, 512]
    tokens: np.ndarray  # [T, 512], one row per phrase


def init_text_encoder(rng: tc.Rng) -> TextEncoderParams:
    vocab = load_vocab()
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


def _encoder_layer(x: np.ndarray, lp: EncoderLayerParams) -> np.ndarray:
    q = x @ lp.wq.T
    k = x @ lp.wk.T
    v = x @ lp.wv.T
    attn, _ = tc.multi_head_attention(q, k, v, NUM_HEADS)
    x = x + attn @ lp.wo.T
    hidden = tc.leaky_relu(x @ lp.w1.T + lp.b1)
    return x + hidden @ lp.w2.T + lp.b2


def text_encode(text: TextInput, params: TextEncoderParams) -> TextFeature:
    phrase_ids = tokenize(text, params.vocab)
    phrase_vecs = []
    for ids in phrase_ids:
        x = params.embed[ids] if ids else np.zeros((1, MODEL_DIM), tc.DTYPE)
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
    f1: np.ndarray  # [C, H/8,  W/8]
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


def _run_layers(x: np.ndarray, layers: list[tc.ConvLayer], cache: list | None = None) -> np.ndarray:
    """Conv + leaky ReLU per layer; a cache gets one list of
    (input, pre-activation, layer) records for the whole run."""
    records = []
    for layer in layers:
        pre = tc.conv_layer(x, layer)
        if cache is not None:
            records.append((x, pre, layer))
        x = tc.leaky_relu(pre)
    if cache is not None:
        cache.append(records)
    return x


def backbone_features(image: np.ndarray, params: BackboneParams, cache: list | None = None) -> MultiScaleFeatures:
    """Pyramid features without backbone_extract's /32 divisibility check;
    a cache gets the records backbone_backward_input needs."""
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


def _layers_backward(records: list, g: np.ndarray) -> np.ndarray:
    for x, pre, layer in reversed(records):
        g, _ = tc.conv_layer_backward(x, layer, tc.leaky_relu_backward(pre, g))
    return g


def backbone_backward_input(cache: list, grads: list[np.ndarray]) -> np.ndarray:
    """Gradient wrt the input image given per-scale output grads (weights fixed).

    cache is the list filled by backbone_features: the stem's records, then
    one list per stage; grads has one entry per scale, aligned with
    MultiScaleFeatures.scales().
    """
    stem, *stages = cache
    g = None
    for records, g_scale in reversed(list(zip(stages, grads))):
        g = _layers_backward(records, g_scale if g is None else g + g_scale)
    return _layers_backward(stem, g)
