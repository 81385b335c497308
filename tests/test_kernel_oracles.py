"""Fast kernels against plain reference kernels, bit for bit.

The references are the straightforward forms of each kernel: a per-channel
loop im2col/col2im (the loop's columns multiplied in conv2d's row bands),
the np.pad + sliding-window column build, a three-line
softmax, attention from that softmax, a dehaze forward built from the loop
convolution, the K-estimator's and the backbone's backward passes written
out layer by layer with each leaky ReLU's mask taken from its
pre-activation, the unflushed
sigmoid gradient, a fusion backward with matmul outer products, an
out-of-place Adam, a whole-window dark channel, the per-cell
decode-and-NMS loop, the per-kept-box NMS pass and the per-positive
detection-loss loop with one softmax per side. The fast kernels do the same arithmetic in the same
order, so every comparison is exact. Two exceptions: the sigmoid
gradient's flush of subnormal results to zero, which the saturated-gate
tests pin down, and a banded conv against one matmul over all its columns,
which may round differently and is held to the dot-product error bound.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from yolovehicle import dehaze as dh
from yolovehicle import detection as det
from yolovehicle import edgecloud as ec
from yolovehicle import encoders as enc
from yolovehicle import fusion as fu
from yolovehicle import model as md
from yolovehicle import tensor_core as tc
from yolovehicle.encoders import MultiScaleFeatures, TextFeature
from yolovehicle.optim import Adam


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
    """The loop-built columns multiplied in conv2d's bands: as many whole
    output rows as fit in tc.CONV_BAND positions (one band for a map that
    fits)."""
    o, _, kh, kw = kernels.shape
    cols, ho, wo = ref_im2col(x, kh, kw, stride, pad)
    w2 = kernels.reshape(o, -1)
    band = max(1, tc.CONV_BAND // wo) * wo
    parts = [w2 @ cols[:, p : p + band] for p in range(0, ho * wo, band)]
    return np.concatenate(parts, axis=1).reshape(o, ho, wo)


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


def ref_leaky_relu(v):
    return np.where(v > 0, v, 0.01 * v).astype(v.dtype)


def ref_dehaze_forward(hazy, gen):
    def conv(x, layer):
        return ref_conv2d(x, layer.w, 1, 1) + layer.b[:, None, None]

    k = conv(ref_leaky_relu(conv(ref_leaky_relu(conv(hazy, gen.stem)), gen.mid)),
             gen.head)
    return tc.clamp01(hazy + (k - 1) * (hazy - 1))


def ref_layer_records(x, layers):
    """Conv + leaky ReLU per layer, keeping (input, pre-activation, layer)."""
    records = []
    for layer in layers:
        pre = tc.conv_layer(x, layer)
        records.append((x, pre, layer))
        x = tc.leaky_relu(pre)
    return x, records


def ref_layers_backward(records, g):
    """Backward through ref_layer_records' stack with the mask taken from
    the pre-activation; returns (grad_x, per-layer grads in layer order)."""
    grads = []
    for x, pre, layer in reversed(records):
        g, lg = tc.conv_layer_backward(x, layer, tc.leaky_relu_backward(pre, g))
        grads.append(lg)
    return g, grads[::-1]


def ref_dehaze_backward(hazy, gen, g_out):
    """The K-estimator's forward and backward written out layer by layer,
    each conv's input a recomputed leaky_relu(pre)."""
    pre1 = tc.conv_layer(hazy, gen.stem)
    pre2 = tc.conv_layer(tc.leaky_relu(pre1), gen.mid)
    k = tc.conv_layer(tc.leaky_relu(pre2), gen.head)
    pre_clamp = hazy + (k - 1) * (hazy - 1)
    g_pre = tc.clamp01_backward(pre_clamp, g_out)
    g2, g_head = tc.conv_layer_backward(tc.leaky_relu(pre2), gen.head, g_pre * (hazy - 1))
    g1, g_mid = tc.conv_layer_backward(tc.leaky_relu(pre1), gen.mid,
                                       tc.leaky_relu_backward(pre2, g2))
    gh, g_stem = tc.conv_layer_backward(hazy, gen.stem, tc.leaky_relu_backward(pre1, g1))
    return g_pre * k + gh, replace(gen, stem=g_stem, mid=g_mid, head=g_head)


def ref_backbone_backward(image, params, grads):
    """Pyramid features and their backward, one stack at a time."""
    x, stem = ref_layer_records(image, params.stem)
    feats, stages = [], []
    for layers in params.stages:
        x, records = ref_layer_records(x, layers)
        feats.append(x)
        stages.append(records)
    g = None
    stage_grads = []
    for records, g_scale in reversed(list(zip(stages, grads))):
        g, layer_grads = ref_layers_backward(records, g_scale if g is None else g + g_scale)
        stage_grads.append(layer_grads)
    g, stem_grads = ref_layers_backward(stem, g)
    return feats, g, enc.BackboneParams(stem=stem_grads, stages=stage_grads[::-1])


def ref_haze_score(image):
    """Mean dark channel: every pixel's 7x7 window minimum, taken whole
    over an edge-padded channel-minimum map, then averaged in float32."""
    padded = np.pad(image.min(axis=0), 3, mode="edge")
    windows = np.lib.stride_tricks.sliding_window_view(padded, (7, 7))
    return float(np.ascontiguousarray(windows.min(axis=(-2, -1))).mean())


def ref_sigmoid_backward(y, grad_out):
    return grad_out * y * (1.0 - y)


def ref_fuse_backward(cache, grad_output, sigmoid_backward=ref_sigmoid_backward):
    """fuse_backward with (n, 1) @ (1, m) matmul outer products."""
    params, pooled, a, tp, tk, zcat, g, att, att_cache, text = cache
    gfused = grad_output.reshape(1, -1)
    gg = gfused * (a - att)
    ga = gfused * g
    gatt = gfused * (1.0 - g)
    gzg = sigmoid_backward(g, gg)
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
        w_gate=gzg.T @ zcat,
        b_gate=gzg.copy(),
    )


def ref_adam_steps(params, grad_seq, lr=0.01, beta1=0.9, beta2=0.999, eps=1e-8):
    """Textbook Adam, out of place; returns the parameters after each step
    and the final moments."""
    m = {k: np.zeros(p.shape, np.float64) for k, p in params.items()}
    v = {k: np.zeros(p.shape, np.float64) for k, p in params.items()}
    history = []
    for t, grads in enumerate(grad_seq, 1):
        bc1, bc2 = 1.0 - beta1 ** t, 1.0 - beta2 ** t
        new = {}
        for name, p in params.items():
            g = np.asarray(grads[name], dtype=np.float64)
            m[name] = beta1 * m[name] + (1.0 - beta1) * g
            v[name] = beta2 * v[name] + (1.0 - beta2) * g * g
            step = lr * (m[name] / bc1) / (np.sqrt(v[name] / bc2) + eps)
            new[name] = (p.astype(np.float64) - step).astype(p.dtype)
        params = new
        history.append(params)
    return history, m, v


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


# a map wider than CONV_BAND (one row per band), and a stride-2 map whose
# 35 output rows of 151 make bands of 27 rows and a short last band of 8
@pytest.mark.parametrize("shape,stride", [((2, 5, tc.CONV_BAND + 104), 1), ((3, 70, 301), 2)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_banded_conv2d_equals_loop_reference(shape, stride, dtype):
    rng = tc.Rng(960 + stride)
    x = rng.uniform(-1, 1, shape).astype(dtype)
    kernels = rng.uniform(-1, 1, (4, shape[0], 3, 3)).astype(dtype)
    out = tc.conv2d(x, kernels, stride, 1)
    assert out.shape[1] * out.shape[2] > tc.CONV_BAND
    assert out.dtype == dtype and np.array_equal(out, ref_conv2d(x, kernels, stride, 1))


@pytest.mark.parametrize("c,h,w,stride", [(8, 64, 64, 1), (3, 1, tc.CONV_BAND, 1),
                                          (8, 127, 127, 2), (3, 37, 41, 1)])
def test_conv2d_of_at_most_conv_band_positions_is_one_matmul(c, h, w, stride):
    rng = tc.Rng(965 + h)
    x = rng.uniform(-1, 1, (c, h, w))
    kernels = rng.uniform(-1, 1, (3, c, 3, 3))
    cols, ho, wo = tc._im2col(x, 3, 3, stride, 1)
    assert ho * wo <= tc.CONV_BAND
    single = (kernels.reshape(3, -1) @ cols).reshape(3, ho, wo)
    assert np.array_equal(tc.conv2d(x, kernels, stride, 1), single)


@pytest.mark.parametrize("c,o,h,w,stride", [(8, 3, 96, 312, 1), (8, 8, 192, 624, 2),
                                            (3, 8, 100, 77, 1)])
def test_banded_conv2d_within_dot_product_bound_of_one_matmul(c, o, h, w, stride):
    # a dot product of K terms, summed in any order, is off its exact value
    # by at most about K * eps / 2 times the sum of its terms' magnitudes,
    # so two orders differ by at most about K * eps times that sum
    rng = tc.Rng(970 + w)
    x = rng.uniform(-1, 1, (c, h, w))
    kernels = rng.uniform(-1, 1, (o, c, 3, 3))
    cols, ho, wo = tc._im2col(x, 3, 3, stride, 1)
    assert ho * wo > tc.CONV_BAND
    w2 = kernels.reshape(o, -1)
    single = w2 @ cols
    banded = tc.conv2d(x, kernels, stride, 1).reshape(o, -1)
    k = w2.shape[1]
    bound = k * np.finfo(np.float32).eps * (np.abs(w2).astype(np.float64) @ np.abs(cols))
    assert np.all(np.abs(banded.astype(np.float64) - single) <= bound)


def ref_im2col_windows(x, kh, kw, stride, pad):
    """The np.pad + sliding_window_view construction that _im2col replaced."""
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    windows = sliding_window_view(xp, (kh, kw), axis=(1, 2))[:, ::stride, ::stride]
    ho, wo = windows.shape[1:3]
    return windows.transpose(0, 3, 4, 1, 2).reshape(x.shape[0] * kh * kw, ho * wo), ho, wo


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("stride", [1, 2])
def test_im2col_equals_sliding_window_construction(stride, dtype):
    rng = np.random.default_rng(stride * 10 + np.dtype(dtype).itemsize)
    for c in range(1, 9):
        for h, w in [(1, 1), (5, 5), (7, 12), (16, 9), (13, 31)]:
            x = rng.uniform(-1, 1, (c, h, w)).astype(dtype)
            # a strided view of the same values, for the unpadded path
            view = np.swapaxes(np.ascontiguousarray(np.swapaxes(x, 1, 2)), 1, 2)
            for pad in (0, 1, 2):
                for kh, kw in [(3, 3), (1, 1), (1, 3), (3, 2), (5, 4)]:
                    if kh > h + 2 * pad or kw > w + 2 * pad:
                        continue
                    ref, ho, wo = ref_im2col_windows(x, kh, kw, stride, pad)
                    for src in (x, view):
                        cols, cho, cwo = tc._im2col(src, kh, kw, stride, pad)
                        assert (cho, cwo) == (ho, wo)
                        assert cols.dtype == ref.dtype
                        assert cols.flags.c_contiguous
                        assert np.array_equal(cols, ref)


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
    out = tc.leaky_relu(v)
    ref = ref_leaky_relu(v)
    assert out.dtype == ref.dtype and np.array_equal(out, ref)
    assert np.array_equal(np.signbit(out), np.signbit(ref))


@pytest.mark.parametrize("windows", [1, 3, 255, 256, 257, 600])
def test_attention_equals_reference_across_batch_sizes(windows):
    # [windows, heads=2, tokens=16, d=4]: from one batch entry to 600
    rng = tc.Rng(950 + windows)
    for dtype in (np.float32, np.float64):
        q, k, v = (rng.uniform(-2, 2, (windows, 2, 16, 4)).astype(dtype)
                   for _ in range(3))
        out, (_, _, _, w, _) = tc.attention(q, k, v)
        ref_out, ref_w = ref_attention(q, k, v)
        assert np.array_equal(out, ref_out) and np.array_equal(w, ref_w)


@pytest.mark.parametrize("keys", [1, 5, 8, 9, 16, 24, 33, 128, 129])
def test_attention_equals_reference_at_key_counts(keys):
    # one query against 1 to 129 keys, the last key tied with the first
    rng = tc.Rng(1010 + keys)
    for dtype in (np.float32, np.float64):
        for windows in (3, 300):
            q = rng.uniform(-3, 3, (windows, 1, 4)).astype(dtype)
            k, v = (rng.uniform(-3, 3, (windows, keys, 4)).astype(dtype) for _ in range(2))
            k[:, -1] = k[:, 0]  # tied logits
            out, (_, _, _, w, _) = tc.attention(q, k, v)
            ref_out, ref_w = ref_attention(q, k, v)
            assert np.array_equal(out, ref_out) and np.array_equal(w, ref_w)


def test_attention_unbatched_and_broadcast_operands():
    rng = tc.Rng(960)
    q = rng.uniform(-1, 1, (3, 8))
    kv = rng.uniform(-1, 1, (5, 8))
    out, _ = tc.attention(q, kv, kv)
    assert np.array_equal(out, ref_attention(q, kv, kv)[0])
    # operands that would broadcast along a leading axis are refused
    qb = rng.uniform(-1, 1, (300, 3, 8))
    with pytest.raises(ValueError, match="differ in leading shape"):
        tc.attention(qb, kv[None], kv)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("h,w", [(64, 64), (32, 96), (256, 256), (37, 301)])
def test_dehaze_forward_equals_reference_composition(h, w, dtype):
    gen = md.init_bundle(0).gen
    hazy = dh.synthesize_haze(tc.Rng(970 + h).uniform(0, 1, (3, h, w)).astype(dtype), 0.3)
    out = dh.dehaze_forward(hazy, gen)
    assert out.dtype == dtype and np.array_equal(out, ref_dehaze_forward(hazy, gen))


def random_params(tree, seed, dtype):
    """tree with every tensor redrawn and cast to dtype: weights uniform in
    +-sqrt(1/fan_in), biases in [-1, 1), so that biases are nonzero and both
    leaky ReLU branches are taken."""
    rng = tc.Rng(seed)
    for name, v in tc.param_items(tree):
        r = math.sqrt(1.0 / v[0].size) if v.ndim > 1 else 1.0
        tc.set_param(tree, name, (r * rng.uniform(-1, 1, v.shape)).astype(dtype))
    return tree


def assert_trees_equal(a, b):
    items_a, items_b = list(tc.param_items(a)), list(tc.param_items(b))
    assert [k for k, _ in items_a] == [k for k, _ in items_b]
    for (name, va), (_, vb) in zip(items_a, items_b):
        assert va.dtype == vb.dtype and np.array_equal(va, vb), name


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("h,w", [(64, 64), (37, 61)])
def test_dehaze_backward_equals_reference_composition(h, w, dtype):
    gen = random_params(dh.init_generator(tc.Rng(0), channels=8), 980 + h, dtype)
    gen.head.b = gen.head.b + dtype(1.0)  # K about 1: some pixels clamp, most do not
    rng = tc.Rng(990 + w)
    hazy = rng.uniform(0, 1, (3, h, w)).astype(dtype)
    g_out = rng.uniform(-1, 1, (3, h, w)).astype(dtype)
    cache = []
    dh.dehaze_forward(hazy, gen, cache)
    gx, grads = dh.dehaze_backward(cache, g_out)
    rgx, rgrads = ref_dehaze_backward(hazy, gen, g_out)
    assert gx.dtype == dtype and np.array_equal(gx, rgx)
    assert_trees_equal(grads, rgrads)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("h,w", [(64, 64), (37, 61)])
def test_backbone_backward_equals_reference_composition(h, w, dtype):
    params = random_params(enc.init_backbone(tc.Rng(0), channels=8), 1000 + h, dtype)
    rng = tc.Rng(1010 + w)
    image = rng.uniform(0, 1, (3, h, w)).astype(dtype)
    cache = []
    feats = enc.backbone_extract(image, params, cache).scales()
    grads = [rng.uniform(-1, 1, f.shape).astype(dtype) for f in feats]
    gx, pgrads = enc.backbone_backward(cache, grads)
    rfeats, rgx, rpgrads = ref_backbone_backward(image, params, grads)
    for f, rf in zip(feats, rfeats):
        assert f.dtype == dtype and np.array_equal(f, rf)
    assert gx.dtype == dtype and np.array_equal(gx, rgx)
    assert_trees_equal(pgrads, rpgrads)


def dark_patched(rng, h, w):
    """A bright frame with small dark patches, each in one channel, at the
    four corners and the four edge midpoints: the window minimum there
    must replicate the edge, not wrap or zero-pad."""
    image = rng.uniform(0.7, 1.0, (3, h, w))
    spots = [(0, 0), (0, w - 1), (h - 1, 0), (h - 1, w - 1),
             (0, w // 2), (h // 2, 0), (h - 1, w // 2), (h // 2, w - 1)]
    for k, (y, x) in enumerate(spots):
        image[k % 3, max(y - 1, 0):y + 2, max(x - 1, 0):x + 2] = 0.05 * k
    return image


@pytest.mark.parametrize("h, w", [(1, 1), (2, 9), (5, 3), (7, 7), (33, 31),
                                  (64, 64), (375, 1242)])
@pytest.mark.parametrize("kind", ["random", "dark_patches"])
def test_haze_score_equals_bruteforce_window_minimum(h, w, kind):
    rng = tc.Rng(h * 10007 + w)
    if kind == "random":
        image = rng.uniform(0.0, 1.0, (3, h, w))
    else:
        image = dark_patched(rng, h, w)
    assert ec.haze_score(image) == ref_haze_score(image)


def is_subnormal(x):
    return (x != 0) & (np.abs(x) < np.finfo(x.dtype).tiny)


def test_sigmoid_backward_equals_three_line_form():
    rng = tc.Rng(980)
    y64 = tc.sigmoid(rng.uniform(-30, 30, (64, 64)).astype(np.float64))
    g64 = rng.uniform(-1, 1, (64, 64)).astype(np.float64)
    assert np.array_equal(tc.sigmoid_backward(y64, g64), ref_sigmoid_backward(y64, g64))
    y32 = tc.sigmoid(rng.uniform(-12, 12, (64, 64)))
    g32 = rng.uniform(-1, 1, (64, 64))
    ref = ref_sigmoid_backward(y32, g32)
    assert ref.dtype == np.float32 and not is_subnormal(ref).any()
    out = tc.sigmoid_backward(y32, g32)
    assert out.dtype == ref.dtype and np.array_equal(out, ref)
    assert np.array_equal(np.signbit(out), np.signbit(ref))


def test_sigmoid_backward_flushes_subnormals_to_signed_zero():
    y = np.array([1e-38, 1e-38, 0.5, 1.0, 1.0, 1e-38], np.float32)
    g = np.array([0.5, -0.5, 1e-30, 1.0, -1.0, 2.0], np.float32)
    ref = ref_sigmoid_backward(y, g)
    assert is_subnormal(ref).tolist() == [True, True, False, False, False, False]
    out = tc.sigmoid_backward(y, g)
    assert out.tolist() == [0.0, 0.0, *ref[2:].tolist()]
    assert np.array_equal(np.signbit(out), np.signbit(ref))  # -0.0 stays -0.0


def fusion_case(seed, b_gate=None):
    rng = tc.Rng(seed)
    params = fu.init_fusion(rng, 8)
    if b_gate is not None:
        params.b_gate = np.full((1, fu.FUSED_DIM), b_gate, np.float32)
    feats = MultiScaleFeatures(*(rng.uniform(-1, 1, (8, s, s)) for s in (8, 4, 2)))
    text = TextFeature(pooled=rng.uniform(-1, 1, (1, 512)),
                       tokens=rng.uniform(-1, 1, (3, 512)))
    _, cache = fu.fuse_forward(feats, fu.project_text(text, params), params)
    return cache, rng.uniform(-1, 1, fu.FEATURE_SHAPE)


@pytest.mark.parametrize("seed", [990, 991, 992])
def test_fuse_backward_equals_matmul_reference(seed):
    cache, grad = fusion_case(seed)
    out = dict(tc.param_items(fu.fuse_backward(cache, grad)))
    ref = dict(tc.param_items(ref_fuse_backward(cache, grad)))
    assert out.keys() == ref.keys()
    for name in ref:
        assert out[name].dtype == ref[name].dtype, name
        assert np.array_equal(out[name], ref[name]), name


@pytest.mark.parametrize("b_gate", [-87.0, -100.0])
@pytest.mark.parametrize("seed", [993, 994, 995, 996])
def test_fuse_backward_saturated_gate_flushes_only_subnormal_gate_grads(seed, b_gate):
    cache, grad = fusion_case(seed, b_gate=b_gate)
    out = fu.fuse_backward(cache, grad)
    ref = ref_fuse_backward(cache, grad)
    # the gate gradient: subnormal entries of the reference are zeros now,
    # every other entry is unchanged
    flushed = is_subnormal(ref.b_gate)
    assert flushed.sum() > 300
    assert np.all(out.b_gate[flushed] == 0)
    assert np.array_equal(out.b_gate[~flushed], ref.b_gate[~flushed])
    # w_gate is the outer product gzg.T * zcat: a flushed row is zero, and
    # the other rows keep their bits, subnormal products included
    rows = flushed[0]
    assert np.all(out.w_gate[rows] == 0)
    assert np.array_equal(out.w_gate[~rows], ref.w_gate[~rows])
    # the flushed values vanish in the sums that carry them to the image
    # and text projections
    for name in ("w_img", "b_img", "w_text", "b_text"):
        assert np.array_equal(getattr(out, name), getattr(ref, name)), name
    # with the same flush in the reference, the broadcast outer products
    # equal the matmul ones everywhere
    flushed_ref = ref_fuse_backward(cache, grad, tc.sigmoid_backward)
    for (name, a), (_, b) in zip(tc.param_items(out), tc.param_items(flushed_ref)):
        assert np.array_equal(a, b), name


def test_adam_equals_out_of_place_reference():
    rng = tc.Rng(997)
    params = {"w": rng.uniform(-1, 1, (16, 24)), "b": np.zeros(24, np.float32),
              "d": rng.uniform(-1, 1, (5,)).astype(np.float64)}
    grad_seq = [{"w": rng.uniform(-1, 1, (16, 24)).astype(np.float64),
                 "b": rng.uniform(-1e-3, 1e-3, (24,)),  # float32, cast inside
                 "d": rng.uniform(-1, 1, (5,)).astype(np.float64)}
                for _ in range(5)]
    before = ({k: v.copy() for k, v in params.items()},
              [{k: v.copy() for k, v in g.items()} for g in grad_seq])
    history, ref_m, ref_v = ref_adam_steps(params, grad_seq)
    opt = Adam(lr=0.01)
    current = params
    for grads, ref in zip(grad_seq, history):
        current = opt.step(current, grads)
        for name in ref:
            assert current[name].dtype == ref[name].dtype, name
            assert np.array_equal(current[name], ref[name]), name
    for name in params:
        assert np.array_equal(opt.m[name], ref_m[name])
        assert np.array_equal(opt.v[name], ref_v[name])
    # the step reads its inputs and owns only its moments
    for name in params:
        assert np.array_equal(params[name], before[0][name])
        for g, g0 in zip(grad_seq, before[1]):
            assert np.array_equal(g[name], g0[name])


# ---------------------------------------------------------------------------
# decode: the per-cell loop the array code replaced


def ref_cell_box(box_logits, r, c, grid):
    """One cell's bin softmax [4, nb], expected (l, t, r, b) and unclipped
    [cx, cy, w, h], from the head's box logits."""
    h, w = grid
    nb = det.REG_MAX + 1
    probs = tc.softmax(box_logits[:, r, c].reshape(4, nb).astype(np.float64), axis=1)
    e = probs @ np.arange(nb, dtype=np.float64)
    ccx, ccy = (c + 0.5) / w, (r + 0.5) / h
    x1, y1 = ccx - e[0] / w, ccy - e[1] / h
    x2, y2 = ccx + e[2] / w, ccy + e[3] / h
    return probs, e, np.array([(x1 + x2) / 2, (y1 + y2) / 2, x2 - x1, y2 - y1])


def ref_decode_detections(out, obj_thresh=0.5, nms_iou=0.5):
    if not (0 < obj_thresh < 1 and 0 < nms_iou < 1):
        raise ValueError("thresholds must lie in (0, 1)")
    _, h, w = out.obj.shape
    candidates = []
    for r in range(h):
        for c in range(w):
            score = float(out.obj[0, r, c])
            if score < obj_thresh:
                continue
            _, _, box = ref_cell_box(out.box, r, c, (h, w))
            x1 = max(box[0] - box[2] / 2, 0.0)
            y1 = max(box[1] - box[3] / 2, 0.0)
            x2 = min(box[0] + box[2] / 2, 1.0)
            y2 = min(box[1] + box[3] / 2, 1.0)
            bw = max(x2 - x1, 1e-6)
            bh = max(y2 - y1, 1e-6)
            cls_id = int(np.argmax(out.cls[:, r, c]))
            candidates.append((score, r * w + c,
                               det.BBox((x1 + x2) / 2, (y1 + y2) / 2, bw, bh, cls_id, score)))
    candidates.sort(key=lambda t: (-t[0], t[1]))
    kept = []
    for _, _, box in candidates[:det.MAX_CANDIDATES]:
        if any(k.class_id == box.class_id and det.iou(k, box) > nms_iou for k in kept):
            continue
        kept.append(box)
    return kept


def head_output(obj, box, cls_logits):
    """A HeadOutput from objectness probabilities and raw logits."""
    return det.HeadOutput(obj=obj, box=box, cls=tc.softmax(cls_logits, axis=0),
                          obj_logits=np.zeros_like(obj), cls_logits=cls_logits)


def random_head_output(seed, dtype, grid=(8, 8), n_classes=3):
    rng = tc.Rng(seed)
    h, w = grid
    obj = tc.sigmoid(rng.uniform(-3, 3, (1, h, w))).astype(dtype)
    box = rng.uniform(-4, 4, (4 * (det.REG_MAX + 1), h, w)).astype(dtype)
    cls_logits = rng.uniform(-2, 2, (n_classes, h, w)).astype(dtype)
    return head_output(obj, box, cls_logits)


def decoded_fields(dets):
    return [(b.cx, b.cy, b.w, b.h, b.class_id, b.score) for b in dets]


DECODED_TYPES = (np.float64, np.float64, np.float64, np.float64, int, float)


def assert_decode_equals_reference(out, obj_thresh, nms_iou):
    got = det.decode_detections(out, obj_thresh, nms_iou)
    want = ref_decode_detections(out, obj_thresh, nms_iou)
    assert decoded_fields(got) == decoded_fields(want)
    for fields in decoded_fields(got):
        assert tuple(type(v) for v in fields) == DECODED_TYPES
    # the loop's box sides are np.float64 too, except a side built from
    # Python literals alone: a box clipped at both 0.0 and 1.0 (centre 0.5,
    # side 1.0) or floored at 1e-6; JSON and the wire store both as doubles
    for fields in decoded_fields(want):
        for v, t in zip(fields, DECODED_TYPES):
            assert type(v) is t or (type(v) is float and v in (0.5, 1.0, 1e-6))
    return got


THRESHOLDS = [(t, n) for t in (0.05, 0.5, 0.7, 0.9) for n in (0.1, 0.5, 0.9)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("obj_thresh, nms_iou", THRESHOLDS)
def test_decode_equals_loop_reference_on_random_heads(dtype, obj_thresh, nms_iou):
    for seed in range(20):
        grid = (8, 8) if seed % 4 else (5, 11)
        out = random_head_output(1000 + seed, dtype, grid)
        assert_decode_equals_reference(out, obj_thresh, nms_iou)


@pytest.fixture(scope="module")
def toy_scene_heads():
    bundle = md.init_bundle(0)
    rng = tc.Rng(0)
    text = enc.text_encode("car, truck, bus", bundle.text)
    heads = []
    for _ in range(64):
        image, _ = md.make_toy_scene(rng, size=64)
        fmap, _ = fu.fuse_forward(enc.backbone_extract(image, bundle.backbone),
                                  fu.project_text(text, bundle.fusion), bundle.fusion)
        heads.append(det.head_forward(fmap, bundle.head))
    return heads


@pytest.mark.parametrize("obj_thresh, nms_iou", THRESHOLDS)
def test_decode_equals_loop_reference_on_toy_scenes(toy_scene_heads, obj_thresh, nms_iou):
    for out in toy_scene_heads:
        assert_decode_equals_reference(out, obj_thresh, nms_iou)


def edge_case_head(case, dtype):
    """An 8x8 head output with random logits and one property forced."""
    out = random_head_output(77, dtype)
    obj, box, cls_logits = out.obj, out.box, out.cls_logits
    nb = det.REG_MAX + 1
    if case == "exact_thresholds":
        obj[0, ::2] = np.float32(0.7)
        obj[0, 1::2] = np.float32(0.9)
    elif case == "tied_scores":
        # same score and class, boxes overlapping: order decides which stays
        obj[0, 2:6, 2:6] = 0.8
        cls_logits[:, 2:6, 2:6] = np.array([0.0, 3.0, 0.0])[:, None, None]
    elif case == "clipped_borders":
        # every border cell reaches 7 cells outward on every side
        box[:] = -20.0
        box[[nb - 1 + s * nb for s in range(4)]] = 20.0
        obj[0] = 0.95
    elif case == "zero_size_boxes":
        # every distance saturates at bin 0: the sides floor at 1e-6
        box[:] = -100.0
        box[[s * nb for s in range(4)]] = 100.0
    elif case == "argmax_ties":
        cls_logits[:, ::2] = 0.0
        cls_logits[:, 1::2] = np.array([-1.0, 2.0, 2.0])[:, None, None]
    elif case == "iou_at_threshold":
        # saturated bins give whole-cell distances, so the two boxes have
        # IoU 0.5 exactly: (l, t, r, b) = (1, 1, 1, 1) at (2, 2), (2, 1, 0, 3) at (2, 3)
        obj[:] = 0.01
        for (r, c), dists, score in (((2, 2), (1, 1, 1, 1), 0.97),
                                     ((2, 3), (2, 1, 0, 3), 0.96)):
            obj[0, r, c] = score
            box[:, r, c] = -100.0
            box[[s * nb + d for s, d in enumerate(dists)], r, c] = 100.0
            cls_logits[:, r, c] = (0.0, 0.0, 5.0)
    elif case == "no_candidates":
        obj[:] = 0.01
    elif case == "all_candidates":
        obj[:] = np.linspace(0.95, 0.99, 64).reshape(obj.shape)
    return head_output(obj, box, cls_logits)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", ["exact_thresholds", "tied_scores", "clipped_borders",
                                  "zero_size_boxes", "argmax_ties", "iou_at_threshold",
                                  "no_candidates", "all_candidates"])
def test_decode_equals_loop_reference_on_edge_cases(case, dtype):
    for obj_thresh, nms_iou in THRESHOLDS:
        got = assert_decode_equals_reference(edge_case_head(case, dtype), obj_thresh, nms_iou)
        if case == "no_candidates":
            assert got == []
        if case == "iou_at_threshold":
            assert len(got) == (1 if nms_iou < 0.5 else 2)
        if case == "zero_size_boxes":
            assert got and all(b.w == b.h == 1e-6 for b in got)
        if case == "clipped_borders":
            assert all(0.0 <= b.cx - b.w / 2 and b.cx + b.w / 2 <= 1.0 for b in got)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("nms_iou", [0.1, 0.5, 0.9])
def test_decode_equals_capped_loop_reference_past_max_candidates(dtype, nms_iou):
    out = random_head_output(2024, dtype, grid=(24, 32))
    assert np.count_nonzero(~(out.obj.astype(np.float64) < 0.05)) > det.MAX_CANDIDATES
    assert_decode_equals_reference(out, 0.05, nms_iou)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_decode_cuts_tied_scores_in_row_major_order(dtype):
    # 768 cells of one score: the cap keeps the first 512 in row-major order
    # (NMS over all 768 would keep 375)
    out = random_head_output(2024, dtype, grid=(24, 32))
    out.obj[:] = 0.8
    got = assert_decode_equals_reference(out, 0.5, 0.5)
    assert len(got) == 263


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("obj_thresh, nms_iou", THRESHOLDS)
def test_decode_equals_capped_loop_reference_on_a_wide_head(dtype, obj_thresh, nms_iou):
    # the head grid of a 384x1248 frame at stride 8
    out = random_head_output(2024, dtype, grid=(48, 156))
    got = assert_decode_equals_reference(out, obj_thresh, nms_iou)
    assert len(got) <= det.MAX_CANDIDATES


# ---------------------------------------------------------------------------
# greedy NMS: the per-kept-box pass the suppression matrix replaced, and the
# plain loop over iou()


def ref_greedy_nms(mid, size, cls_ids, nms_iou):
    """One pass per kept box over the candidates after it."""
    lo, hi = mid - size / 2, mid + size / 2
    area = size[:, 0] * size[:, 1]
    alive = np.ones(len(cls_ids), dtype=bool)
    kept = []
    while alive.any():
        i = int(alive.argmax())
        kept.append(i)
        alive[i] = False
        rest = slice(i + 1, None)
        side = np.maximum(np.minimum(hi[rest], hi[i]) - np.maximum(lo[rest], lo[i]), 0.0)
        inter = side[:, 0] * side[:, 1]
        over = inter / (area[i] + area[rest] - inter) > nms_iou
        alive[rest] &= ~over | (cls_ids[rest] != cls_ids[i])
    return np.array(kept, dtype=np.intp)


def ref_nms_loop(mid, size, cls_ids, nms_iou):
    boxes = [det.BBox(m[0], m[1], z[0], z[1], int(k)) for m, z, k in zip(mid, size, cls_ids)]
    kept = []
    for i, b in enumerate(boxes):
        if not any(boxes[k].class_id == b.class_id and det.iou(boxes[k], b) > nms_iou
                   for k in kept):
            kept.append(i)
    return kept


def random_boxes(seed, n, side=(0.02, 0.3), n_classes=3):
    rng = tc.Rng(seed)
    m = max(n, 1)  # the generator draws at least one value
    mid = rng.uniform(0.0, 1.0, (m, 2)).astype(np.float64)
    size = rng.uniform(*side, (m, 2)).astype(np.float64)
    return mid[:n], size[:n], rng.integers(n_classes, m)[:n]


def assert_nms_equals_references(mid, size, cls_ids, nms_iou):
    got = det._greedy_nms(mid, size, cls_ids, nms_iou)
    want = ref_greedy_nms(mid, size, cls_ids, nms_iou)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert got.tolist() == ref_nms_loop(mid, size, cls_ids, nms_iou)
    return got


@pytest.mark.parametrize("n", [0, 1, det.MAX_CANDIDATES, det.MAX_CANDIDATES + 1])
@pytest.mark.parametrize("nms_iou", [0.1, 0.5, 0.9])
def test_nms_equals_references_at_cap_sized_counts(n, nms_iou):
    mid, size, cls_ids = random_boxes(3000 + n, n)
    kept = assert_nms_equals_references(mid, size, cls_ids, nms_iou)
    assert kept[:1].tolist() == [0][:n]


def threshold_pairs(n, firsts):
    """n dyadic boxes in rank order; each index in firsts starts a pair of
    one class, a square and its double, whose IoU is 0.5 exactly. The other
    boxes are tiny and apart, each of a class of its own."""
    rng = tc.Rng(n)
    mid = (rng.integers(1024, 2 * n).reshape(n, 2) + 0.5) / 1024
    size = np.full((n, 2), 1 / 4096)
    cls_ids = np.arange(3, n + 3)
    for i in firsts:
        cx, cy = (i % 8 + 0.5) / 8, (i // 8 % 8 + 0.5) / 8
        mid[i], size[i] = (cx, cy), (1 / 32, 1 / 32)
        mid[i + 1], size[i + 1] = (cx, cy + 1 / 64), (1 / 32, 1 / 16)
        cls_ids[[i, i + 1]] = i % 3
    return mid, size, cls_ids


@pytest.mark.parametrize("nms_iou", [0.5, np.nextafter(0.5, 0.0)])
def test_nms_at_exact_threshold_on_both_sides_of_the_cap(nms_iou):
    b = det.MAX_CANDIDATES
    firsts = [10, b - 1, b + 20]  # below the cap, across it, above it
    mid, size, cls_ids = threshold_pairs(2 * b, firsts)
    for i in firsts:
        box = [det.BBox(*mid[j], *size[j]) for j in (i, i + 1)]
        assert det.iou(*box) == 0.5
    kept = set(assert_nms_equals_references(mid, size, cls_ids, nms_iou).tolist())
    for i in firsts:
        assert i in kept and ((i + 1) in kept) == (nms_iou == 0.5)


def test_nms_box_whose_iou_with_itself_is_below_the_threshold():
    # its corners round so that the box's IoU with itself is 1 - 4e-16: it
    # does not suppress itself, nor its twin, at the largest nms_iou below 1
    box = [0.32973171649909216, 0.7884287034284043, 0.303194829291645, 0.4534978894806515]
    nms_iou = np.nextafter(1.0, 0.0)
    b = det.BBox(*box)
    assert not det.iou(b, b) > nms_iou
    mid, size = np.array([box[:2]] * 2), np.array([box[2:]] * 2)
    kept = assert_nms_equals_references(mid, size, np.zeros(2, np.intp), nms_iou)
    assert kept.tolist() == [0, 1]


# ---------------------------------------------------------------------------
# detection loss: the per-positive loop the array code replaced


def ref_bce_with_logits(z, y):
    return (np.maximum(z, 0) - z * y + np.log1p(np.exp(-np.abs(z))),
            tc.sigmoid(z) - y)


def ref_dfl(side_logits, target):
    """One side's distribution focal loss and its gradient wrt the logits,
    from its own softmax."""
    reg_max = side_logits.shape[0] - 1
    i = min(int(math.floor(target)), reg_max - 1)
    wl, wr = (i + 1) - target, target - i
    p = tc.softmax(side_logits)
    loss = -(wl * math.log(max(p[i], 1e-300)) + wr * math.log(max(p[i + 1], 1e-300)))
    y = np.zeros_like(p)
    y[i], y[i + 1] = wl, wr
    return float(loss), p - y


def ref_detect_loss_with_grads(out, targets, frozen_alphas=None):
    h, w = targets.obj.shape
    nb = det.REG_MAX + 1
    n_classes = out.cls_logits.shape[0]
    positives = sorted(targets.boxes.keys())
    n_pos = len(positives)

    obj_terms, g_obj = ref_bce_with_logits(out.obj_logits[0], targets.obj)
    n_terms = h * w + n_pos * n_classes
    g_cls = np.zeros_like(out.cls_logits)
    cls_sum = obj_terms.sum()
    for (r, c) in positives:
        y = np.zeros(n_classes)
        y[targets.cls[r, c]] = 1.0
        terms, g = ref_bce_with_logits(out.cls_logits[:, r, c], y)
        cls_sum += terms.sum()
        g_cls[:, r, c] = g / n_terms
    l_cls = float(cls_sum / n_terms)
    g_obj = (g_obj / n_terms)[None, :, :]

    g_box = np.zeros_like(out.box)
    l_bbox = 0.0
    l_dfl = 0.0
    alphas = {}
    bins = np.arange(nb, dtype=np.float64)
    for (r, c) in positives:
        probs, e, box = ref_cell_box(out.box, r, c, (h, w))
        pinned = None if frozen_alphas is None else frozen_alphas[(r, c)]
        closs, cg, alphas[(r, c)] = det.ciou_loss_with_grad(box, targets.boxes[(r, c)],
                                                            alpha=pinned)
        l_bbox += closs
        gcx, gcy, gw, gh = cg
        g_e = np.array([
            -gcx / (2 * w) + gw / w,
            -gcy / (2 * h) + gh / h,
            gcx / (2 * w) + gw / w,
            gcy / (2 * h) + gh / h,
        ]) / n_pos
        g_cell = det.LAMBDA_BBOX * (probs * (bins[None, :] - e[:, None]) * g_e[:, None])
        logits = out.box[:, r, c].reshape(4, nb).astype(np.float64)
        for side in range(4):
            dloss, dgrad = ref_dfl(logits[side], float(targets.dist[side, r, c]))
            l_dfl += dloss
            g_cell[side] += det.LAMBDA_DFL * dgrad / (4 * n_pos)
        g_box[:, r, c] = g_cell.reshape(-1)
    if n_pos:
        l_bbox /= n_pos
        l_dfl /= 4 * n_pos

    total = (det.LAMBDA_CLS * l_cls + det.LAMBDA_BBOX * l_bbox
             + det.LAMBDA_DFL * l_dfl)
    loss = det.DetectLoss(total, l_cls, l_bbox, l_dfl, alphas)
    return loss, (det.LAMBDA_CLS * g_obj, g_box, det.LAMBDA_CLS * g_cls)


def test_dfl_equals_per_side_reference():
    # numpy's own log differs from math.log in the last place on a few
    # inputs in a thousand; a whole-bin target at a side's likeliest bin
    # makes the loss that log exactly, so a thousand such sides show it
    rng = tc.Rng(2100)
    logits = rng.uniform(-6, 6, (500, 4, det.REG_MAX + 1)).astype(np.float64)
    targets = rng.uniform(0, det.REG_MAX, (500, 4)).astype(np.float64)
    targets[::2] = logits[::2].argmax(axis=-1)
    targets[1, :] = (0, 3, det.REG_MAX - 0.5, det.REG_MAX)
    loss, grad = det.dfl_loss_with_grad(tc.softmax(logits), targets)
    for idx in np.ndindex(targets.shape):
        want_loss, want_grad = ref_dfl(logits[idx], float(targets[idx]))
        assert np.float64(loss[idx]).tobytes() == np.float64(want_loss).tobytes(), idx
        assert grad[idx].tobytes() == want_grad.tobytes(), idx


def random_loss_case(seed, dtype, grid, n_gts, n_classes=3):
    """A random head output over grid and the targets of n_gts random boxes
    plus, when n_gts > 0, one more in the first box's cell."""
    rng = tc.Rng(seed)
    h, w = grid
    obj_logits = rng.uniform(-3, 3, (1, h, w)).astype(dtype)
    box = rng.uniform(-4, 4, (4 * (det.REG_MAX + 1), h, w)).astype(dtype)
    cls_logits = rng.uniform(-2, 2, (n_classes, h, w)).astype(dtype)
    out = det.HeadOutput(obj=tc.sigmoid(obj_logits), box=box,
                         cls=tc.softmax(cls_logits, axis=0),
                         obj_logits=obj_logits, cls_logits=cls_logits)
    n = n_gts + 1  # Rng draws at least one value
    centres, sides = rng.uniform(0.02, 0.98, (n, 2)), rng.uniform(0.02, 1.2, (n, 2))
    gts = [det.BBox(float(cx), float(cy), float(bw), float(bh), int(k))
           for (cx, cy), (bw, bh), k in zip(centres, sides, rng.integers(n_classes, n))]
    gts = gts[:n_gts]
    if gts:
        # a box past REG_MAX cells on its left and right, and in the first
        # box's cell a larger one, which replaces it
        gts[-1] = replace(gts[-1], w=16.0 / w)
        gts.append(replace(gts[0], w=gts[0].w * 1.5, class_id=(gts[0].class_id + 1) % n_classes))
    return out, det.assign_targets(gts, grid), len(gts)


def assert_loss_equals_reference(out, targets, frozen_alphas=None):
    got, got_grads = det.detect_loss_with_grads(out, targets, frozen_alphas)
    want, want_grads = ref_detect_loss_with_grads(out, targets, frozen_alphas)
    for name in ("total", "l_cls", "l_bbox", "l_dfl"):
        a, b = getattr(got, name), getattr(want, name)
        assert type(a) is type(b), name
        assert np.float64(a).tobytes() == np.float64(b).tobytes(), name
    assert got.alphas == want.alphas
    for name, a, b in zip(("obj", "box", "cls"), got_grads, want_grads):
        assert a.dtype == b.dtype == out.obj.dtype, name
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
    return got


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("grid", [(4, 6), (8, 8), (16, 12)])
def test_detect_loss_equals_loop_reference(dtype, grid):
    clipped = shared = 0
    for n_gts in range(0, 31, 3):
        out, targets, n_boxes = random_loss_case(2000 + n_gts, dtype, grid, n_gts)
        clipped += int((targets.dist == det.REG_MAX).sum())
        shared += n_boxes - len(targets.boxes)
        free = assert_loss_equals_reference(out, targets)
        assert set(free.alphas) == set(targets.boxes)
        assert_loss_equals_reference(out, targets, free.alphas)
    # the cases reach the clip at REG_MAX and put two boxes in one cell
    assert clipped and shared
