"""Fast kernels against plain reference kernels, bit for bit.

The references are the straightforward forms of each kernel: a per-channel
loop im2col/col2im, the np.pad + sliding-window column build, a three-line
softmax, np.sum itself for the key-major row sums, attention over the
whole batch at once, a dehaze forward built from those, the unflushed
sigmoid gradient, a fusion backward with matmul outer products, an
out-of-place Adam, a whole-window dark channel and the per-cell
decode-and-NMS loop. The fast kernels do the same arithmetic in the same
order, so every comparison is exact; the one exception is the sigmoid
gradient's flush of subnormal results to zero, which the saturated-gate
tests pin down.
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


def ref_leaky_relu(v):
    return np.where(v > 0, v, 0.01 * v).astype(v.dtype)


def ref_wmsa(x, p):
    s = dh.WINDOW // 2 if p.shift else 0
    xs = np.roll(x, (-s, -s), axis=(1, 2)) if s else x
    tokens = dh._partition(xs, dh.WINDOW)
    q, k, v = tokens @ p.wq.T, tokens @ p.wk.T, tokens @ p.wv.T
    heads = [tc.split_heads(a, dh.HEADS) for a in (q, k, v)]
    att = tc.merge_heads(ref_attention(*heads)[0])
    y = dh._unpartition(att @ p.wo.T, x.shape, dh.WINDOW)
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


def tied_logits(rng, rows, n, dtype):
    """Logits [rows, n] where every other row has its maximum twice."""
    x = rng.uniform(-30, 30, (rows, n)).astype(dtype)
    x[::2, -1] = x[::2].max(axis=-1)
    return x


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_softmax_key_major_sum_equals_np_sum_at_every_key_count(dtype):
    # the key-major path takes rows of 1 to _PAIRWISE_BLOCK keys
    rng = tc.Rng(1000)
    rows = 40
    for n in range(1, tc._PAIRWISE_BLOCK + 1):
        x = tied_logits(rng, rows, n, dtype)
        exps = np.exp(x - x.max(axis=-1, keepdims=True))
        signed = x * np.exp2(rng.uniform(-20, 20, (rows, n))).astype(dtype)
        for terms in (exps, signed):
            out = np.empty(rows, dtype)
            tree = np.empty((tc._tree_rows(n), rows), dtype)
            tc._pairwise_sum_keys(np.ascontiguousarray(terms.T), out, tree)
            assert np.array_equal(out, np.sum(terms, axis=-1)), n


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_softmax_key_major_equals_reference_at_every_key_count(dtype):
    rng = tc.Rng(1001)
    rows = 300
    for n in range(1, tc._PAIRWISE_BLOCK + 1):
        for d in (3, 4):
            scale = 1.0 / math.sqrt(d)
            x = tied_logits(rng, rows, n, dtype)
            y = x.copy()
            tc._softmax_key_major(y, scale, np.empty((n + tc._tree_rows(n) + 1) * rows, dtype))
            assert np.array_equal(y, ref_softmax(x * scale)), (n, d)


@pytest.mark.parametrize("keys", [1, 5, 8, 9, 16, 24, 33, 128, 129])
def test_attention_equals_reference_at_key_counts(keys):
    # 300 windows of one query each reach the key-major path for 1 to 128
    # keys, 129 keys and a 3-window batch do not
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


@pytest.mark.parametrize("h,w", [(64, 64), (32, 96), (256, 256)])
def test_dehaze_forward_equals_reference_composition(h, w):
    gen = md.init_bundle(0).gen
    assert any(b.wmsa.shift for b in gen.blocks)
    hazy = dh.synthesize_haze(tc.Rng(970 + h).uniform(0, 1, (3, h, w)), 0.3)
    assert np.array_equal(dh.dehaze_forward(hazy, gen), ref_dehaze_forward(hazy, gen))


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


def ref_decode_detections(out, obj_thresh=0.5, nms_iou=0.5):
    if not (0 < obj_thresh < 1 and 0 < nms_iou < 1):
        raise ValueError("thresholds must lie in (0, 1)")
    _, h, w = out.obj.shape
    nb = det.REG_MAX + 1
    candidates = []
    for r in range(h):
        for c in range(w):
            score = float(out.obj[0, r, c])
            if score < obj_thresh:
                continue
            probs = tc.softmax(out.box[:, r, c].reshape(4, nb).astype(np.float64), axis=1)
            box, _ = det._decoded_box(probs, r, c, (h, w))
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
    for _, _, box in candidates:
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
    text = enc.text_encode(enc.TextInput("car, truck, bus"), bundle.text)
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
