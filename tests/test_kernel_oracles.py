"""Fast kernels against plain reference kernels, bit for bit.

The references are the straightforward forms of each kernel: a per-channel
loop im2col/col2im, a three-line softmax, attention over the whole batch at
once and a dehaze forward built from those. The fast kernels do the same
arithmetic in the same order, so every comparison is array_equal.
"""

import math

import numpy as np
import pytest

from yolovehicle import dehaze as dh
from yolovehicle import model as md
from yolovehicle import tensor_core as tc


# ---------------------------------------------------------------------------
# reference kernels


def ref_im2col(x, kh, kw, stride, pad):
    c, h, w = x.shape
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (w + 2 * pad - kw) // stride + 1
    cols = np.empty((c * kh * kw, ho * wo), dtype=x.dtype)
    idx = 0
    for ci in range(c):
        for i in range(kh):
            for j in range(kw):
                patch = xp[ci, i : i + stride * ho : stride, j : j + stride * wo : stride]
                cols[idx] = patch.reshape(-1)
                idx += 1
    return cols, ho, wo


def ref_conv2d(x, kernels, stride=1, pad=0):
    o, _, kh, kw = kernels.shape
    cols, ho, wo = ref_im2col(x, kh, kw, stride, pad)
    return (kernels.reshape(o, -1) @ cols).reshape(o, ho, wo)


def ref_conv2d_backward(x, kernels, grad_out, stride=1, pad=0):
    o, c, kh, kw = kernels.shape
    ho, wo = grad_out.shape[1:]
    cols, _, _ = ref_im2col(x, kh, kw, stride, pad)
    g = grad_out.reshape(o, -1)
    grad_k = (g @ cols.T).reshape(kernels.shape)
    grad_cols = kernels.reshape(o, -1).T @ g
    h, w = x.shape[1:]
    gxp = np.zeros((c, h + 2 * pad, w + 2 * pad), dtype=grad_out.dtype)
    idx = 0
    for ci in range(c):
        for i in range(kh):
            for j in range(kw):
                gxp[ci, i : i + stride * ho : stride, j : j + stride * wo : stride] += (
                    grad_cols[idx].reshape(ho, wo))
                idx += 1
    if pad:
        gxp = gxp[:, pad:-pad, pad:-pad]
    return gxp, grad_k


def ref_softmax(v, axis=-1):
    shifted = v - np.max(v, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def ref_attention(q, k, v):
    scale = 1.0 / math.sqrt(q.shape[-1])
    w = ref_softmax(np.matmul(q, np.swapaxes(k, -1, -2)) * scale)
    return np.matmul(w, v), w


def ref_leaky_relu(v, slope=0.01):
    return np.where(v > 0, v, slope * v).astype(v.dtype)


def ref_wmsa(x, p):
    s = p.window // 2 if p.shift else 0
    xs = np.roll(x, (-s, -s), axis=(1, 2)) if s else x
    tokens = dh._partition(xs, p.window)
    q, k, v = tokens @ p.wq.T, tokens @ p.wk.T, tokens @ p.wv.T
    heads = [tc.split_heads(a, p.heads) for a in (q, k, v)]
    att = tc.merge_heads(ref_attention(*heads)[0])
    y = dh._unpartition(att @ p.wo.T, x.shape, p.window)
    return np.roll(y, (s, s), axis=(1, 2)) if s else y


def ref_dehaze_forward(hazy, gen):
    def conv(x, layer):
        return ref_conv2d(x, layer.w, 1, 1) + layer.b[:, None, None]

    f = ref_leaky_relu(conv(hazy, gen.stem))
    for b in gen.blocks:
        s = ref_leaky_relu(conv(f, b.stem))
        z1 = tc.global_avg_pool(s) @ b.cab.w1.T + b.cab.b1[None, :]
        gate = tc.sigmoid(ref_leaky_relu(z1) @ b.cab.w2.T + b.cab.b2[None, :])
        u = s * gate[0][:, None, None] + ref_wmsa(s, b.wmsa)
        f = conv(u, b.out)
    return tc.clamp01(hazy + conv(f, gen.head))


# ---------------------------------------------------------------------------
# comparisons


CONV_CASES = [(stride, pad, k) for stride in (1, 2) for pad in (0, 1) for k in (1, 3)]


# odd H and W; the wide map gives BLAS a column count that is not a
# multiple of its kernel width
@pytest.mark.parametrize("shape", [(3, 11, 13), (8, 37, 301)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("stride,pad,k", CONV_CASES)
def test_conv2d_forward_and_backward_equal_loop_reference(stride, pad, k, dtype, shape):
    rng = tc.Rng(900 + 10 * stride + 3 * pad + k)
    x = rng.uniform(-1, 1, shape).astype(dtype)
    kernels = rng.uniform(-1, 1, (5, shape[0], k, k)).astype(dtype)
    out = tc.conv2d(x, kernels, stride, pad)
    ref = ref_conv2d(x, kernels, stride, pad)
    assert out.dtype == ref.dtype and np.array_equal(out, ref)
    g = rng.uniform(-1, 1, out.shape).astype(dtype)
    gx, gk = tc.conv2d_backward(x, kernels, g, stride, pad)
    rgx, rgk = ref_conv2d_backward(x, kernels, g, stride, pad)
    assert np.array_equal(gx, rgx) and np.array_equal(gk, rgk)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 16, 17])
def test_softmax_last_axis_equals_reference(n):
    rng = tc.Rng(920 + n)
    for dtype in (np.float32, np.float64):
        v = (rng.uniform(-6, 6, (7, 3, n))).astype(dtype)
        v[0, 0, 0] = v[0, 0, -1]  # a tied maximum
        assert np.array_equal(tc.softmax(v), ref_softmax(v))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 16, 17])
def test_softmax_axis0_equals_reference(n):
    v = tc.Rng(930 + n).uniform(-6, 6, (n, 4, 5))
    assert np.array_equal(tc.softmax(v, axis=0), ref_softmax(v, axis=0))
    assert np.array_equal(tc.softmax(v, axis=1), ref_softmax(v, axis=1))


def test_softmax_integer_input_equals_reference():
    v = np.array([[1, 2, 3], [-4, 0, 4]])
    out = tc.softmax(v)
    assert out.dtype == ref_softmax(v).dtype and np.array_equal(out, ref_softmax(v))


def test_softmax_leaves_its_input_alone():
    v = tc.Rng(940).uniform(-1, 1, (4, 16))
    before = v.copy()
    tc.softmax(v)
    assert np.array_equal(v, before)


def test_leaky_relu_equals_where_form():
    v = tc.Rng(945).uniform(-3, 3, (4, 64)).astype(np.float32)
    v[0, :4] = [0.0, -0.0, 1e-45, -1e-45]
    for slope in (0.01, 0.2):
        out = tc.leaky_relu(v, slope)
        ref = ref_leaky_relu(v, slope)
        assert out.dtype == ref.dtype and np.array_equal(out, ref)
        assert np.array_equal(np.signbit(out), np.signbit(ref))


@pytest.mark.parametrize("windows", [1, 3, 255, 256, 257, 600])
def test_attention_equals_reference_across_chunk_boundary(windows):
    # [windows, heads=2, tokens=16, d=4] float32 logits: 256 windows per
    # chunk; float64: 128
    rng = tc.Rng(950 + windows)
    for dtype in (np.float32, np.float64):
        q, k, v = (rng.uniform(-2, 2, (windows, 2, 16, 4)).astype(dtype)
                   for _ in range(3))
        out, (_, _, _, w, _) = tc.attention(q, k, v)
        ref_out, ref_w = ref_attention(q, k, v)
        assert np.array_equal(out, ref_out) and np.array_equal(w, ref_w)


def test_attention_unbatched_and_broadcast_operands():
    rng = tc.Rng(960)
    q = rng.uniform(-1, 1, (3, 8))
    kv = rng.uniform(-1, 1, (5, 8))
    out, _ = tc.attention(q, kv, kv)
    assert np.array_equal(out, ref_attention(q, kv, kv)[0])
    qb = rng.uniform(-1, 1, (300, 3, 8))
    out, (_, _, _, w, _) = tc.attention(qb, kv[None], kv)
    ref_out, ref_w = ref_attention(qb, kv[None], kv)
    assert np.array_equal(out, ref_out) and np.array_equal(w, ref_w)


@pytest.mark.parametrize("h,w", [(64, 64), (32, 96)])
def test_dehaze_forward_equals_reference_composition(h, w):
    gen = md.init_bundle(0).gen
    assert any(b.wmsa.shift for b in gen.blocks)
    hazy = dh.synthesize_haze(tc.Rng(970 + h).uniform(0, 1, (3, h, w)), 0.3)
    assert np.array_equal(dh.dehaze_forward(hazy, gen), ref_dehaze_forward(hazy, gen))
