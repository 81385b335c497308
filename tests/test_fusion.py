import math

import numpy as np
import pytest

from yolovehicle import fusion as fu
from yolovehicle import tensor_core as tc
from yolovehicle.encoders import MultiScaleFeatures, TextFeature


def make_pyramid(rng, channels=8):
    return MultiScaleFeatures(
        f1=rng.uniform(-1, 1, (channels, 8, 8)),
        f2=rng.uniform(-1, 1, (channels, 4, 4)),
        f3=rng.uniform(-1, 1, (channels, 2, 2)),
    )


def make_text(rng, t=3):
    return TextFeature(pooled=rng.uniform(-1, 1, (1, 512)), tokens=rng.uniform(-1, 1, (t, 512)))


@pytest.fixture
def params():
    return fu.init_fusion(tc.Rng(50), channels=8)


def forward(feats, text, params):
    """The fused vector g * a + (1 - g) * att plus the image projection a,
    the projected text tp and tk, the gate g and the attention readout att,
    unpacked from the cache as fuse_backward unpacks it. Checks on the way
    that fuse_forward's map is that vector plus PE0, laid out row-major."""
    fmap, cache = fu.fuse_forward(feats, fu.project_text(text, params), params)
    _, _, _, a, tp, tk, _, g, att, _, _ = cache
    fused = g * a + (1.0 - g) * att
    assert np.array_equal(fmap, (fused + fu.PE0).reshape(fu.FEATURE_SHAPE))
    return fused, a, tp, tk, g, att


def bruteforce_attention(q, kv):
    """Softmax attention of the query row over the rows of kv, head by
    head: fu.HEADS slices of 512 / fu.HEADS = 128 columns, scaled by the
    square root of the slice width."""
    d = 512 // fu.HEADS
    out = []
    for h in range(fu.HEADS):
        qs, ks = q[:, h * d:(h + 1) * d], kv[:, h * d:(h + 1) * d]
        logits = (qs @ ks.T) / math.sqrt(d)
        w = np.exp(logits - logits.max())
        w /= w.sum()
        out.append(w @ ks)
    return np.concatenate(out, axis=1)


class TestProjectImage:
    def test_zero_features_zero_bias(self, params):
        feats = MultiScaleFeatures(*[np.zeros((8, s, s), np.float32) for s in (8, 4, 2)])
        _, a, _, _, _, _ = forward(feats, make_text(tc.Rng(49)), params)
        assert np.allclose(a, 0.0)

    def test_constant_map_with_zero_weight(self, params):
        p = fu.FusionParams(**{**params.__dict__})
        p.w_img = np.zeros_like(params.w_img)
        p.b_img = tc.Rng(51).uniform(-1, 1, (1, 512))
        feats = make_pyramid(tc.Rng(52))
        _, a, _, _, _, _ = forward(feats, make_text(tc.Rng(49)), p)
        assert np.array_equal(a, p.b_img)

    def test_hand_composition_c2(self):
        params = fu.init_fusion(tc.Rng(53), channels=2)
        feats = make_pyramid(tc.Rng(54), channels=2)
        pooled = np.concatenate([f.mean(axis=(1, 2)) for f in feats.scales()])[None, :]
        expected = pooled.astype(np.float32) @ params.w_img.T + params.b_img
        _, a, _, _, _, _ = forward(feats, make_text(tc.Rng(49)), params)
        assert np.allclose(a, expected, atol=1e-5)

    def test_channel_mismatch(self, params):
        feats = make_pyramid(tc.Rng(55), channels=4)
        with pytest.raises(ValueError):
            fu.fuse_forward(feats, fu.project_text(make_text(tc.Rng(49)), params), params)


class TestProjectText:
    def test_identity_weights(self, params):
        p = fu.FusionParams(**{**params.__dict__})
        p.w_text = np.eye(512, dtype=np.float32)
        p.b_text = np.zeros((1, 512), np.float32)
        text = make_text(tc.Rng(56))
        _, _, tp, tk, _, _ = forward(make_pyramid(tc.Rng(48)), text, p)
        assert np.allclose(tp, text.pooled, atol=1e-6)
        assert np.allclose(tk, text.tokens, atol=1e-6)

    def test_zero_weight_bias_everywhere(self, params):
        p = fu.FusionParams(**{**params.__dict__})
        p.w_text = np.zeros_like(params.w_text)
        p.b_text = tc.Rng(57).uniform(-1, 1, (1, 512))
        _, _, _, tk, _, _ = forward(make_pyramid(tc.Rng(48)), make_text(tc.Rng(58)), p)
        for row in tk:
            assert np.array_equal(row, p.b_text[0])

    def test_hand_matmul(self, params):
        text = make_text(tc.Rng(59), t=1)
        _, _, tp, _, _, _ = forward(make_pyramid(tc.Rng(48)), text, params)
        assert np.allclose(tp, text.pooled @ params.w_text.T + params.b_text, atol=1e-5)


class TestCrossAttention:
    def test_single_key_returns_value(self, params):
        text = make_text(tc.Rng(60), t=1)
        _, _, _, tk, _, att = forward(make_pyramid(tc.Rng(47)), text, params)
        assert np.allclose(att, tk, atol=1e-5)

    def test_identical_rows_convexity(self, params):
        rng = tc.Rng(61)
        row = rng.uniform(-1, 1, (1, 512))
        text = TextFeature(pooled=rng.uniform(-1, 1, (1, 512)),
                           tokens=np.repeat(row, 2, axis=0))
        _, _, _, tk, _, att = forward(make_pyramid(tc.Rng(47)), text, params)
        assert np.allclose(att, tk[:1], atol=1e-5)

    def test_heads_match_bruteforce(self, params):
        rng = tc.Rng(62)
        for t in (2, 3, 5, 8):
            text = make_text(rng, t=t)
            _, a, _, tk, _, att = forward(make_pyramid(rng), text, params)
            ref = bruteforce_attention(a.astype(np.float64), tk.astype(np.float64))
            assert np.allclose(att, ref, atol=1e-5)


class TestGatedFuse:
    def test_equal_paths_any_gate(self, params):
        feats = make_pyramid(tc.Rng(63))
        _, a, _, _, _, _ = forward(feats, make_text(tc.Rng(49)), params)
        p = fu.FusionParams(**{**params.__dict__})
        p.w_text = np.zeros_like(params.w_text)
        p.b_text = a.copy()
        # every text token projects to a, and T=1 attention returns its single
        # value row, so any gate gives a
        fused, a, _, _, _, _ = forward(feats, make_text(tc.Rng(46), t=1), p)
        assert np.allclose(fused, a, atol=1e-5)

    def test_saturated_gate_returns_img(self, params):
        rng = tc.Rng(64)
        p = fu.FusionParams(**{**params.__dict__})
        p.w_gate = np.zeros_like(params.w_gate)
        p.b_gate = np.full((1, 512), 100.0, np.float32)
        fused, a, _, _, g, _ = forward(make_pyramid(rng), make_text(rng), p)
        assert np.all(g == 1.0)
        assert np.allclose(fused, a, atol=1e-5)

    def test_hand_eval(self):
        # gated fusion evaluated by hand in float64: a zero image weight
        # makes the bias the image vector, an identity text weight passes
        # the text through
        rng = tc.Rng(65)
        img = rng.uniform(-1, 1, (1, 512)).astype(np.float64)
        tok = rng.uniform(-1, 1, (2, 512)).astype(np.float64)
        tpool = rng.uniform(-1, 1, (1, 512)).astype(np.float64)
        w_gate = rng.uniform(-0.05, 0.05, (512, 1024)).astype(np.float64)
        b_gate = rng.uniform(-1, 1, (1, 512)).astype(np.float64)
        params = fu.FusionParams(w_img=np.zeros((512, 3)), b_img=img,
                                 w_text=np.eye(512), b_text=np.zeros((1, 512)),
                                 w_gate=w_gate, b_gate=b_gate)
        feats = make_pyramid(rng, channels=1)
        fused, _, _, _, _, _ = forward(
            feats, TextFeature(pooled=tpool, tokens=tok), params)

        g = 1 / (1 + np.exp(-(np.concatenate([img, tpool], axis=1) @ w_gate.T + b_gate)))
        att = bruteforce_attention(img, tok)
        assert np.allclose(fused, g * img + (1 - g) * att, atol=1e-9)

    def test_convex_combination_bound(self, params):
        rng = tc.Rng(66)
        for _ in range(50):
            feats = MultiScaleFeatures(*[rng.uniform(-2, 2, (8, s, s)) for s in (8, 4, 2)])
            text = TextFeature(pooled=rng.uniform(-2, 2, (1, 512)),
                               tokens=rng.uniform(-2, 2, (4, 512)))
            fused, a, _, _, _, att = forward(feats, text, params)
            lo = np.minimum(a, att) - 1e-5
            hi = np.maximum(a, att) + 1e-5
            assert np.all(fused >= lo) and np.all(fused <= hi)


class TestPositionalEncoding:
    def test_pos_zero_alternating(self):
        assert fu.PE0.dtype == np.float32 and fu.PE0.shape == (512,)
        assert np.array_equal(fu.PE0[0::2], np.zeros(256, np.float32))
        assert np.array_equal(fu.PE0[1::2], np.ones(256, np.float32))

    def test_zero_fused_gives_pe_row(self, params):
        p = fu.FusionParams(**{**params.__dict__})
        for name in ("w_img", "b_img", "w_text", "b_text"):
            setattr(p, name, np.zeros_like(getattr(params, name)))
        fmap, _ = fu.fuse_forward(make_pyramid(tc.Rng(67)),
                                  fu.project_text(make_text(tc.Rng(68)), p), p)
        assert np.array_equal(fmap, fu.PE0.reshape(8, 8, 8))

    def test_map_is_row_major_no_data_change(self, params):
        fmap, cache = fu.fuse_forward(make_pyramid(tc.Rng(69)),
                                      fu.project_text(make_text(tc.Rng(70)), params),
                                      params)
        _, _, _, a, _, _, _, g, att, _, _ = cache
        row = g * a + (1.0 - g) * att + fu.PE0
        assert fmap.shape == fu.FEATURE_SHAPE == (8, 8, 8)
        assert fmap.dtype == np.float32
        assert np.array_equal(fmap.reshape(1, 512), row)
        assert np.array_equal(fmap[1, 2, 3], row[0, 1 * 64 + 2 * 8 + 3])

    def test_float32_add_rounds_like_the_float64_sum(self):
        # each PE0 entry is 0 or 1, so adding it in float32 gives the bits of
        # the float64 sum rounded to float32, for tiny, huge and signed-zero
        # entries alike
        rng = np.random.default_rng(71)
        for exp in range(-12, 8):
            rows = (rng.uniform(-1, 1, (8, 512)) * 10.0 ** exp).astype(np.float32)
            rows[0, :4] = [0.0, -0.0, -0.0, 0.0]
            rows[1] = 3e7 * np.sign(rows[1])
            ref = (rows.astype(np.float64) + fu.PE0).astype(np.float32)
            assert np.array_equal(rows + fu.PE0, ref)
            assert np.array_equal(np.signbit(rows + fu.PE0), np.signbit(ref))


class TestFusionGradients:
    def test_grad_check_all_params(self):
        from gradutil import coord_subset_grad_check

        rng = tc.Rng(71)
        feats = make_pyramid(rng, channels=4)
        text = make_text(rng, t=3)
        params = fu.init_fusion(tc.Rng(72), channels=4)
        w = tc.Rng(73).uniform(-1, 1, (8, 8, 8)).astype(np.float64)

        names = ["w_img", "b_img", "w_text", "b_text", "w_gate", "b_gate"]
        for seed, name in enumerate(names):
            def f(p, name=name):
                trial = fu.FusionParams(**{**params.__dict__})
                setattr(trial, name, p)
                out, cache = fu.fuse_forward(feats, fu.project_text(text, trial), trial)
                grads, _ = fu.fuse_backward(cache, w)
                return float((out * w).sum()), getattr(grads, name)

            err = coord_subset_grad_check(f, getattr(params, name), n=8, seed=seed)
            assert err < 1e-3, f"{name}: {err}"

    @pytest.mark.parametrize("scale", [0, 1, 2])
    def test_grad_check_each_pyramid_scale(self, scale):
        # the input grads fuse_backward returns beside the parameter grads,
        # in float64, on maps that are not square
        from gradutil import coord_subset_grad_check

        rng = tc.Rng(74)
        maps = [rng.uniform(-1, 1, (4, h, w)).astype(np.float64)
                for h, w in ((8, 6), (4, 3), (2, 2))]
        params = fu.init_fusion(tc.Rng(75), channels=4)
        for name, v in tc.param_items(params):
            tc.set_param(params, name, v.astype(np.float64))
        projected = fu.project_text(make_text(rng, t=3), params)
        w = tc.Rng(76).uniform(-1, 1, fu.FEATURE_SHAPE).astype(np.float64)

        def f(value):
            trial = [*maps[:scale], value, *maps[scale + 1:]]
            out, cache = fu.fuse_forward(MultiScaleFeatures(*trial), projected, params)
            _, g_scales = fu.fuse_backward(cache, w)
            assert [g.shape for g in g_scales] == [m.shape for m in trial]
            return float((out * w).sum()), g_scales[scale]

        err = coord_subset_grad_check(f, maps[scale], n=8, seed=scale)
        assert err < 1e-3, f"scale {scale}: {err}"
