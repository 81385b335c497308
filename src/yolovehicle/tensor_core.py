"""Minimal dense tensor kernels: activations, conv, attention, gradient
checking, and the tensor archive with the parameter registry that names
its entries.

All public entry points work on plain numpy arrays. Values created by this
package are float32 row-major; the math itself is dtype-preserving so the
finite-difference gradient checker can run the same code paths in float64.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import os
import struct
import tempfile

import numpy as np

DTYPE = np.float32

_SPLITMIX_GAMMA = np.uint64(0x9E3779B97F4A7C15)


class Rng:
    """splitmix64 stream; same seed gives the same values on every platform."""

    def __init__(self, seed: int):
        self.state = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)

    def next_u64(self) -> int:
        return int(self._raw(1)[0])

    def _raw(self, n: int) -> np.ndarray:
        idx = np.arange(1, n + 1, dtype=np.uint64)
        with np.errstate(over="ignore"):
            z = self.state + idx * _SPLITMIX_GAMMA
            self.state = z[-1]
            z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
            z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
            z = z ^ (z >> np.uint64(31))
        return z

    def uniform(self, low: float, high: float, shape) -> np.ndarray:
        """Uniform floats in [low, high), float32, deterministic per seed."""
        bits = self._raw(int(np.prod(shape)))
        u = (bits >> np.uint64(11)).astype(np.float64) * (1.0 / (1 << 53))
        return (low + (high - low) * u).astype(DTYPE).reshape(shape)

    def integers(self, n_values: int, count: int) -> np.ndarray:
        """count indices in [0, n_values), via modulo (fine for small ranges)."""
        return (self._raw(count) % np.uint64(n_values)).astype(np.int64)


def init_uniform(rng: Rng, shape, fan_in: int) -> np.ndarray:
    """Symmetric uniform(-r, r) with r = sqrt(1/fan_in)."""
    r = math.sqrt(1.0 / fan_in)
    return rng.uniform(-r, r, tuple(shape))


# ---------------------------------------------------------------------------
# core ops


def _max_keepdims(v: np.ndarray, axis: int) -> np.ndarray:
    """np.max(v, axis, keepdims=True) by a halving np.maximum tree.

    The maximum is exact in any order. A numpy reduction over a short last
    axis runs one inner loop per row; with the axis moved to the front of a
    contiguous copy, each of the log2(n) tree passes is one long loop.
    """
    m = np.ascontiguousarray(np.swapaxes(v, axis, 0))
    while m.shape[0] > 1:
        n = m.shape[0]
        h = (n + 1) // 2
        m = np.maximum(m[:h], m[n - h:])  # the halves overlap when n is odd
    return np.swapaxes(m, 0, axis)


def softmax(v: np.ndarray, axis: int = -1) -> np.ndarray:
    if axis >= v.ndim or axis < -v.ndim:
        raise ValueError(f"softmax axis {axis} out of range for rank {v.ndim}")
    e = np.exp(v - _max_keepdims(v, axis))
    e /= np.sum(e, axis=axis, keepdims=True)
    return e


def softmax_backward(y: np.ndarray, grad_out: np.ndarray, axis: int = -1) -> np.ndarray:
    """Gradient through softmax given its output y."""
    dot = np.sum(grad_out * y, axis=axis, keepdims=True)
    return y * (grad_out - dot)


def sigmoid(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v)
    e = np.exp(-np.abs(v))
    out = np.where(v >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    return out.astype(v.dtype)


def sigmoid_backward(y: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """grad_out * y * (1 - y), with subnormal results flushed to a zero of
    the same sign.

    A saturated sigmoid gives gradients below the dtype's smallest normal
    (about 1.2e-38 in float32), and every later product with them takes the
    processor's slow subnormal path. They, and the products they enter,
    lie far below half an ulp of the gradients they are summed with, so
    train_toy's losses and trained weights come out bit-identical with and
    without the flush.
    """
    g = np.asarray(grad_out * y * (1.0 - y))
    tiny = np.finfo(g.dtype).tiny
    return np.where(np.abs(g) < tiny, g * 0.0, g)


LEAKY_SLOPE = 0.01  # negative-side slope of every leaky relu in the model


def leaky_relu(v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # as 0 < LEAKY_SLOPE < 1, LEAKY_SLOPE * v < v exactly when v > 0: the
    # same choice as np.where(v > 0, v, LEAKY_SLOPE * v), signed zeros and
    # NaN included
    return np.maximum(v, LEAKY_SLOPE * v, out=out)


def leaky_relu_backward(x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    return np.where(x > 0, grad_out, LEAKY_SLOPE * grad_out).astype(grad_out.dtype)


def clamp01(v: np.ndarray) -> np.ndarray:
    return np.clip(v, 0.0, 1.0)


def clamp01_backward(x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    mask = (x >= 0.0) & (x <= 1.0)
    return np.where(mask, grad_out, 0.0).astype(grad_out.dtype)


# ---------------------------------------------------------------------------
# convolution (cross-correlation), CHW single image


def _taps(x: np.ndarray, kh: int, kw: int, stride: int, pad: int) -> np.ndarray:
    """The view taps[c, i, j, y, x] = xp[c, i + stride * y, j + stride * x]
    over x padded by pad zeros: kernel tap (i, j) of channel c at output
    position (y, x), shape [C, kh, kw, H', W']. With pad 0 and a
    C-contiguous x the view is over x itself, so writes through it land in
    x."""
    c, h, w = x.shape
    hp, wp = h + 2 * pad, w + 2 * pad
    if kh > hp or kw > wp:
        raise ValueError(f"kernel {kh}x{kw} larger than padded input {hp}x{wp}")
    if pad:
        xp = np.zeros((c, hp, wp), x.dtype)
        xp[:, pad : pad + h, pad : pad + w] = x
    else:
        xp = np.ascontiguousarray(x)
    ho, wo = (hp - kh) // stride + 1, (wp - kw) // stride + 1
    sc, sh, sw = xp.strides
    # every index stays inside the contiguous xp, so a plain ndarray over
    # its buffer can view it (cheaper per call than as_strided)
    return np.ndarray((c, kh, kw, ho, wo), xp.dtype, buffer=xp,
                      strides=(sc, sh, sw, stride * sh, stride * sw))


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int, pad: int):
    """Columns [C*kh*kw, H'*W']; row (c, i, j) holds kernel tap (i, j) of
    channel c at every output position."""
    taps = _taps(x, kh, kw, stride, pad)
    c, _, _, ho, wo = taps.shape
    # one row-order copy makes the columns C-contiguous, so the matmul sees
    # the same layout at every shape
    return taps.copy().reshape(c * kh * kw, ho * wo), ho, wo


CONV_BAND = 4096  # the most output positions conv2d multiplies in one matmul


def conv2d(x: np.ndarray, kernels: np.ndarray, stride: int = 1, pad: int = 0) -> np.ndarray:
    """Cross-correlate x [C,H,W] with kernels [O,C,kh,kw] -> [O,H',W'].

    The map is cut into bands of whole output rows, as many as fit in
    CONV_BAND positions (at least one), so a map of at most CONV_BAND
    positions is one band and one matmul. Each band's columns are built in
    one buffer, reused from band to band, and multiplied into the output.
    The column matrix of a 384x1248 map would take 138 MB for 8 channels;
    the buffer takes 1.2 MB. BLAS may round a column of a product
    differently with its position in the call (OpenBLAS does, on some
    kernel families more often than on others), so the band boundaries
    are part of the result.
    """
    if x.ndim != 3 or kernels.ndim != 4:
        raise ValueError(f"conv2d expects CHW input and OCKK kernels, got {x.shape}, {kernels.shape}")
    o, c, kh, kw = kernels.shape
    if c != x.shape[0]:
        raise ValueError(f"conv2d channel mismatch: input {x.shape} vs kernels {kernels.shape}")
    w2 = kernels.reshape(o, -1)
    k = w2.shape[1]
    taps = _taps(x, kh, kw, stride, pad)
    ho, wo = taps.shape[3:]
    rows = min(ho, max(1, CONV_BAND // wo))
    buf = np.empty(k * rows * wo, taps.dtype)
    out = np.empty((o, ho * wo), np.result_type(w2, taps))
    for y0 in range(0, ho, rows):
        y1 = min(y0 + rows, ho)
        cols = buf[: k * (y1 - y0) * wo].reshape(c, kh, kw, y1 - y0, wo)
        cols[...] = taps[:, :, :, y0:y1]
        np.matmul(w2, cols.reshape(k, -1), out=out[:, y0 * wo : y1 * wo])
    return out.reshape(o, ho, wo)


def conv2d_backward(x: np.ndarray, kernels: np.ndarray, grad_out: np.ndarray,
                    stride: int = 1, pad: int = 0):
    """Returns (grad_x, grad_kernels) for conv2d."""
    o, c, kh, kw = kernels.shape
    ho, wo = grad_out.shape[1:]
    cols, _, _ = _im2col(x, kh, kw, stride, pad)
    g = grad_out.reshape(o, -1)
    grad_k = (g @ cols.T).reshape(kernels.shape)
    # col2im for grad wrt input
    grad_cols = kernels.reshape(o, -1).T @ g  # [c*kh*kw, ho*wo]
    taps = grad_cols.reshape(c, kh, kw, ho, wo)
    h, w = x.shape[1:]
    gxp = np.zeros((c, h + 2 * pad, w + 2 * pad), dtype=grad_out.dtype)
    gtaps = _taps(gxp, kh, kw, stride, 0)  # a view that writes into gxp
    # taps are added in (i, j) order at every input element, as a per-channel
    # loop would add them, so the sums round identically
    for i in range(kh):
        for j in range(kw):
            gtaps[:, i, j] += taps[:, i, j]
    if pad:
        gxp = gxp[:, pad:-pad, pad:-pad]
    return gxp, grad_k


@dataclasses.dataclass
class ConvLayer:
    """A convolution padded "same": a k x k kernel by k // 2 on each side."""
    w: np.ndarray  # [O, C, k, k]
    b: np.ndarray  # [O]
    stride: int = 1


def init_conv(rng: Rng, c_in: int, c_out: int, stride: int = 1) -> ConvLayer:
    """A 3x3 layer: uniform weights with fan-in c_in * 9, zero bias."""
    return ConvLayer(w=init_uniform(rng, (c_out, c_in, 3, 3), c_in * 9),
                     b=np.zeros(c_out, DTYPE), stride=stride)


def conv_layer(x: np.ndarray, layer: ConvLayer) -> np.ndarray:
    pad = layer.w.shape[-1] // 2
    return conv2d(x, layer.w, stride=layer.stride, pad=pad) + layer.b[:, None, None]


def conv_layer_backward(x: np.ndarray, layer: ConvLayer, grad_out: np.ndarray):
    """Returns (grad_x, grads), grads a ConvLayer holding the weight and bias
    gradients."""
    pad = layer.w.shape[-1] // 2
    grad_x, grad_w = conv2d_backward(x, layer.w, grad_out, stride=layer.stride, pad=pad)
    return grad_x, dataclasses.replace(layer, w=grad_w, b=grad_out.sum(axis=(1, 2)))


def conv_stack(x: np.ndarray, layers: list[ConvLayer], records: list | None = None) -> np.ndarray:
    """Conv + leaky ReLU per layer; records, if given, gets one
    (input, activated output, layer) tuple per layer for conv_stack_backward."""
    for layer in layers:
        # conv_layer's output is fresh, and its columns already freed:
        # activate it in place
        y = conv_layer(x, layer)
        x_in, x = x, leaky_relu(y, out=y)
        if records is not None:
            records.append((x_in, x, layer))
    return x


def conv_stack_backward(records: list, grad_out: np.ndarray):
    """Returns (grad_x, [ConvLayer grads in layer order]) for conv_stack.

    The activated output stands in for the pre-activation: leaky ReLU keeps
    the sign, so out > 0 exactly where pre > 0.
    """
    grads = []
    for x, out, layer in reversed(records):
        grad_out, lg = conv_layer_backward(x, layer, leaky_relu_backward(out, grad_out))
        grads.append(lg)
    return grad_out, grads[::-1]


def global_avg_pool(x: np.ndarray) -> np.ndarray:
    """[C,H,W] -> [1,C] channel means."""
    if x.ndim != 3:
        raise ValueError(f"global_avg_pool expects CHW, got {x.shape}")
    return x.mean(axis=(1, 2), dtype=x.dtype).reshape(1, -1)


# ---------------------------------------------------------------------------
# scaled dot-product attention (shared by fusion and the text encoder)


def attention(q: np.ndarray, k: np.ndarray, v: np.ndarray):
    """softmax(q k^T / sqrt(d)) v over the last two axes; leading axes
    batch, and q, k and v must have the same leading shape.

    Returns (out, cache) where cache feeds attention_backward.
    """
    lead = q.shape[:-2]
    if k.shape[:-2] != lead or v.shape[:-2] != lead:
        raise ValueError(f"attention operands differ in leading shape: q {q.shape}, "
                         f"k {k.shape}, v {v.shape}")
    scale = 1.0 / math.sqrt(q.shape[-1])
    w = softmax(np.matmul(q, np.swapaxes(k, -1, -2)) * scale)
    return np.matmul(w, v), (q, k, v, w, scale)


def attention_backward(cache, grad_out: np.ndarray):
    q, k, v, w, scale = cache
    grad_v = np.matmul(np.swapaxes(w, -1, -2), grad_out)
    grad_w = np.matmul(grad_out, np.swapaxes(v, -1, -2))
    grad_logits = softmax_backward(w, grad_w, axis=-1) * scale
    grad_q = np.matmul(grad_logits, k)
    grad_k = np.matmul(np.swapaxes(grad_logits, -1, -2), q)
    return grad_q, grad_k, grad_v


def split_heads(x: np.ndarray, heads: int) -> np.ndarray:
    """[..., T, d] -> [..., heads, T, d/heads]."""
    if x.shape[-1] % heads:
        raise ValueError(f"head count {heads} does not divide dim {x.shape[-1]}")
    t, d = x.shape[-2], x.shape[-1]
    parts = x.reshape(x.shape[:-2] + (t, heads, d // heads))
    return np.swapaxes(parts, -3, -2)


def merge_heads(x: np.ndarray) -> np.ndarray:
    """Inverse of split_heads."""
    y = np.swapaxes(x, -3, -2)
    t = y.shape[-3]
    return y.reshape(y.shape[:-3] + (t, y.shape[-2] * y.shape[-1]))


def multi_head_attention(q: np.ndarray, k: np.ndarray, v: np.ndarray, heads: int):
    """Heads split along the feature dim; no projections. Returns (out, cache)."""
    qh, kh, vh = split_heads(q, heads), split_heads(k, heads), split_heads(v, heads)
    out_h, cache = attention(qh, kh, vh)
    return merge_heads(out_h), (cache, heads)


def multi_head_attention_backward(cache, grad_out: np.ndarray):
    inner, heads = cache
    g = split_heads(grad_out, heads)
    gq, gk, gv = attention_backward(inner, g)
    return merge_heads(gq), merge_heads(gk), merge_heads(gv)


# ---------------------------------------------------------------------------
# gradient checking


def grad_check(f, x: np.ndarray, eps: float = 1e-4) -> float:
    """Max relative error between analytic and central-difference gradients.

    f(x) must return (scalar_value, gradient_wrt_x). The check is run in
    float64 so the finite differences resolve the stated tolerances.
    """
    if not (1e-4 <= eps <= 1e-2):
        raise ValueError(f"eps must lie in [1e-4, 1e-2], got {eps}")
    x = np.asarray(x, dtype=np.float64)
    value, analytic = f(x)
    analytic = np.asarray(analytic, dtype=np.float64)
    if not np.isfinite(value) or not np.all(np.isfinite(analytic)):
        raise ValueError("non-finite evaluation in grad_check")
    numeric = np.zeros_like(x)
    flat = x.reshape(-1)
    nflat = numeric.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp, _ = f(x)
        flat[i] = orig - eps
        fm, _ = f(x)
        flat[i] = orig
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise ValueError("non-finite evaluation in grad_check")
        nflat[i] = (fp - fm) / (2.0 * eps)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))


# ---------------------------------------------------------------------------
# TSR tensor file format, the named-tensor archive and the parameter
# registry that names a model's tensors for it

_TSR_MAGIC = b"TSR1"


@functools.cache
def _field_names(cls) -> tuple[str, ...]:
    return tuple(f.name for f in dataclasses.fields(cls))


def param_items(tree, prefix: str = ""):
    """Yields (dotted_name, array) for every ndarray in a tree of dataclasses
    and lists, in field order and then index order ("layers.0.wq").

    Ints, bools, dicts, None and other non-array leaves are skipped. The
    names are the archive keys and the gradient and optimizer keys.
    """
    if dataclasses.is_dataclass(tree):
        children = [(name, getattr(tree, name)) for name in _field_names(type(tree))]
    elif isinstance(tree, list):
        children = [(str(i), v) for i, v in enumerate(tree)]
    else:
        return
    for key, value in children:
        name = f"{prefix}.{key}" if prefix else key
        if isinstance(value, np.ndarray):
            yield name, value
        else:
            yield from param_items(value, name)


def set_param(tree, name: str, value: np.ndarray) -> None:
    """Replaces the array that param_items(tree) yields under name."""
    *path, leaf = name.split(".")
    for key in path:
        tree = tree[int(key)] if isinstance(tree, list) else getattr(tree, key)
    setattr(tree, leaf, value)


def _unpack(fmt: str, buf: bytes, pos: int):
    try:
        return struct.unpack_from(fmt, buf, pos)
    except struct.error:
        raise ValueError(f"truncated TSR data at byte {pos} of {len(buf)}") from None


def tensor_to_bytes(arr: np.ndarray) -> bytes:
    # the rank is checked first: np.ascontiguousarray turns a 0-d array into
    # a 1-long vector
    if not 1 <= np.ndim(arr) <= 4:
        raise ValueError(f"TSR supports rank 1-4, got rank {np.ndim(arr)}")
    arr = np.ascontiguousarray(arr, dtype=DTYPE)
    head = _TSR_MAGIC + struct.pack("<B", arr.ndim)
    head += struct.pack(f"<{arr.ndim}I", *arr.shape)
    return head + arr.astype("<f4").tobytes()


def tensor_from_bytes(buf: bytes, offset: int = 0):
    """Returns (array, next_offset). Malformed or truncated input raises
    ValueError."""
    if buf[offset : offset + 4] != _TSR_MAGIC:
        raise ValueError("bad TSR magic")
    (rank,) = _unpack("<B", buf, offset + 4)
    if not 1 <= rank <= 4:
        raise ValueError(f"bad TSR rank {rank}")
    pos = offset + 5
    dims = _unpack(f"<{rank}I", buf, pos)
    pos += 4 * rank
    count = math.prod(dims)  # exact: np.prod wraps in int64 for forged dims
    end = pos + 4 * count
    if end > len(buf):
        raise ValueError("truncated TSR payload")
    # read in place: a slice of buf would copy the payload once more
    arr = np.frombuffer(buf, "<f4", count, pos).reshape(dims).astype(DTYPE)
    return arr, end


def _check_finite(name: str, arr: np.ndarray) -> None:
    if not np.isfinite(arr).all():
        raise ValueError(f"archive tensor {name!r} holds a non-finite value")


def archive_to_bytes(tensors: dict[str, np.ndarray]) -> bytes:
    """The TSR archive of tensors, in their order; ValueError naming the
    first tensor that holds a NaN or an infinity."""
    out = [struct.pack("<I", len(tensors))]
    for name, arr in tensors.items():
        _check_finite(name, arr)
        nb = name.encode("utf-8")
        out.append(struct.pack("<H", len(nb)))
        out.append(nb)
        out.append(tensor_to_bytes(arr))
    return b"".join(out)


def archive_entries(buf: bytes):
    """Yields (name, array) for each entry of an archive_to_bytes buffer,
    in stored order, reading an entry only when it is asked for. Malformed
    or truncated input, a name given twice or a tensor holding a NaN or an
    infinity raises ValueError (a name that is not UTF-8 raises its
    subclass UnicodeDecodeError)."""
    (count,) = _unpack("<I", buf, 0)
    pos = 4
    seen = set()
    for _ in range(count):
        (nlen,) = _unpack("<H", buf, pos)
        (name,) = _unpack(f"<{nlen}s", buf, pos + 2)
        pos += 2 + nlen
        arr, pos = tensor_from_bytes(buf, pos)
        name = name.decode("utf-8")
        if name in seen:
            raise ValueError(f"archive holds tensor {name!r} twice")
        seen.add(name)
        _check_finite(name, arr)
        yield name, arr


def atomic_write(path, data) -> None:
    """Writes bytes or text to path via a temp file in the same directory,
    so a failure part-way leaves an existing file at path untouched."""
    directory = os.path.dirname(os.path.abspath(path))
    mode = "wb" if isinstance(data, bytes) else "w"
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".yv-tmp-")
    try:
        with os.fdopen(fd, mode) as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
