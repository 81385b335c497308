import numpy as np
import pytest

from yolovehicle import dehaze as dh
from yolovehicle import tensor_core as tc


def make_image(seed, h=8, w=8, lo=0.2, hi=0.8):
    return tc.Rng(seed).uniform(lo, hi, (3, h, w))


class TestDehazeForward:
    def test_zero_head_is_clamp(self):
        # the head's bias starts at 1, so zero head weights give K = 1
        gen = dh.init_generator(tc.Rng(100), channels=4)
        gen.head.w = np.zeros_like(gen.head.w)
        hazy = tc.Rng(101).uniform(-0.5, 1.5, (3, 8, 8))
        assert np.array_equal(dh.dehaze_forward(hazy, gen), tc.clamp01(hazy))

    def test_unit_k_returns_every_float32_input_exactly(self):
        # K*I - K + 1 misses I on about a third of these; the rearranged
        # form may not miss any
        gen = dh.init_generator(tc.Rng(158), channels=4)
        gen.head.w = np.zeros_like(gen.head.w)
        hazy = tc.Rng(159).uniform(0, 1, (3, 64, 64))
        assert np.array_equal(dh.dehaze_forward(hazy, gen), hazy)

    def test_restores_by_the_aod_formula(self):
        # J = K*I - K + 1 with K the three convs' output, to rounding
        gen = dh.init_generator(tc.Rng(160), channels=4)
        gen.head.w = gen.head.w * np.float32(3.0)
        hazy = make_image(161, 12, 20, 0.0, 1.0)
        a1 = tc.leaky_relu(tc.conv_layer(hazy, gen.stem))
        k = tc.conv_layer(tc.leaky_relu(tc.conv_layer(a1, gen.mid)), gen.head)
        out = dh.dehaze_forward(hazy, gen)
        assert np.allclose(out, np.clip(k * hazy - k + 1, 0, 1), atol=1e-6)
        assert 0.0 < np.mean(out == 0.0) + np.mean(out == 1.0) < 0.9

    def test_init_starts_near_the_identity(self):
        gen = dh.init_generator(tc.Rng(162), channels=8)
        shapes = [(n, v.shape) for n, v in tc.param_items(gen)]
        assert shapes == [("stem.w", (8, 3, 3, 3)), ("stem.b", (8,)),
                          ("mid.w", (8, 8, 3, 3)), ("mid.b", (8,)),
                          ("head.w", (3, 8, 3, 3)), ("head.b", (3,))]
        assert sum(v.size for _, v in tc.param_items(gen)) == 1027
        assert gen.head.b.tolist() == [1.0, 1.0, 1.0]
        assert not gen.stem.b.any() and not gen.mid.b.any()

    def test_output_in_unit_range(self):
        gen = dh.init_generator(tc.Rng(102), channels=4)
        for seed in range(5):
            out = dh.dehaze_forward(tc.Rng(seed).uniform(-3, 3, (3, 8, 8)), gen)
            assert np.all(out >= 0.0) and np.all(out <= 1.0)

    def test_deterministic(self):
        gen = dh.init_generator(tc.Rng(103), channels=4)
        hazy = make_image(104, 16, 16)
        assert np.array_equal(dh.dehaze_forward(hazy, gen), dh.dehaze_forward(hazy, gen))

    def test_spatial_dims_preserved(self):
        # no window to divide the map: any size restores, odd ones included
        gen = dh.init_generator(tc.Rng(105), channels=4)
        for h, w in ((8, 8), (8, 16), (12, 20), (6, 6), (1, 1), (37, 301)):
            assert dh.dehaze_forward(make_image(0, h, w), gen).shape == (3, h, w)

    def test_leaves_its_input_alone(self):
        gen = dh.init_generator(tc.Rng(172), channels=4)
        hazy = make_image(173, 9, 7)
        before = hazy.copy()
        dh.dehaze_forward(hazy, gen)
        assert np.array_equal(hazy, before)

    def test_rejects_non_rgb_image(self):
        gen = dh.init_generator(tc.Rng(106), channels=4)
        with pytest.raises(ValueError, match="3xHxW"):
            dh.dehaze_forward(make_image(0, 6, 6)[:2], gen)

    @pytest.mark.parametrize("h,w", [(8, 8), (37, 301)])
    def test_cache_leaves_the_output_bit_identical(self, h, w):
        gen = dh.init_generator(tc.Rng(174), channels=8)
        hazy = make_image(175, h, w, 0.0, 1.0)
        cache = []
        cached = dh.dehaze_forward(hazy, gen, cache)
        plain = dh.dehaze_forward(hazy, gen)
        assert plain.dtype == cached.dtype and np.array_equal(plain, cached)
        # the input, the pre-clamp frame, and the stem, mid and head records
        assert cache[0] is hazy and len(cache) == 3 and len(cache[2]) == 3
        layers = [layer for _, _, layer in cache[2]]
        assert all(a is b for a, b in zip(layers, [gen.stem, gen.mid, gen.head]))


class TestComponentGradients:
    """The generator's backward pass, one tensor at a time, against central
    differences of the probe loss sum(w * forward(x)) in float64."""

    @staticmethod
    def probe(x, seed):
        w = tc.Rng(seed).uniform(-1, 1, x.shape).astype(np.float64)

        def run(v, gen):
            cache = []
            y = dh.dehaze_forward(v, gen, cache)
            return float((y * w).sum()), dh.dehaze_backward(cache, w)
        return run

    def test_input(self):
        # the input gradient adds the formula's own term, K, to the path
        # through the convs, which no parameter check reaches
        from gradutil import smooth_scene

        gen, clear = smooth_scene(148, 149)
        run = self.probe(clear, 150)

        def f(v):
            loss, (gx, _) = run(v, gen)
            return loss, gx

        assert tc.grad_check(f, clear.astype(np.float64)) < 1e-4

    @pytest.mark.parametrize("name", ["stem.w", "stem.b", "mid.w", "mid.b",
                                      "head.w", "head.b"])
    def test_params(self, name):
        from gradutil import coord_subset_grad_check, smooth_scene

        gen, clear = smooth_scene(163, 164)
        x = clear.astype(np.float64)
        run = self.probe(x, 165)
        value = dict(tc.param_items(gen))[name]

        def f(v):
            tc.set_param(gen, name, v)
            try:
                loss, (_, grads) = run(x, gen)
            finally:
                tc.set_param(gen, name, value)
            return loss, dict(tc.param_items(grads))[name]

        err = coord_subset_grad_check(f, value, n=8, seed=166)
        assert err < 1e-4, err


class TestIdentityLoss:
    def test_identity_generator_exact_zero(self):
        gen = dh.init_generator(tc.Rng(115), channels=4)
        gen.head.w = np.zeros_like(gen.head.w)
        assert dh.identity_loss_with_grads(gen, make_image(116))[0] == 0.0

    def test_nonnegative_and_deterministic(self):
        gen = dh.init_generator(tc.Rng(117), channels=4)
        img = make_image(118)
        v1 = dh.identity_loss_with_grads(gen, img)[0]
        v2 = dh.identity_loss_with_grads(gen, img)[0]
        assert v1 >= 0.0
        assert v1 == v2

    def test_equals_mean_abs_error_of_forward(self):
        gen = dh.init_generator(tc.Rng(151), channels=4)
        img = make_image(152, 8, 16)
        ref = np.mean(np.abs(dh.dehaze_forward(img, gen).astype(np.float64) - img))
        assert dh.identity_loss_with_grads(gen, img)[0] == ref

    def test_leaves_generator_and_image_alone(self):
        gen = dh.init_generator(tc.Rng(153), channels=4)
        img = make_image(154)
        before = [(n, v.copy()) for n, v in tc.param_items(gen)]
        img_before = img.copy()
        dh.identity_loss_with_grads(gen, img)
        assert np.array_equal(img, img_before)
        for (name, old), (_, new) in zip(before, tc.param_items(gen)):
            assert np.array_equal(old, new), name

    def test_rejects_non_rgb_image(self):
        gen = dh.init_generator(tc.Rng(155), channels=4)
        with pytest.raises(ValueError, match="3xHxW"):
            dh.identity_loss_with_grads(gen, make_image(156)[:1])


class TestGeneratorGradients:
    @pytest.mark.parametrize("name", ["stem.w", "stem.b", "mid.w", "mid.b",
                                      "head.w", "head.b"])
    def test_grad_check_identity_loss_wrt_generator(self, name):
        from gradutil import coord_subset_grad_check, smooth_scene

        gen, clear = smooth_scene(119, 121)
        value = dict(tc.param_items(gen))[name]

        def f(p):
            tc.set_param(gen, name, p)
            try:
                loss, grads = dh.identity_loss_with_grads(gen, clear)
            finally:
                tc.set_param(gen, name, value)
            return loss, grads[name]

        err = coord_subset_grad_check(f, value, n=4, seed=len(name))
        assert err < 2e-3, f"{name}: {err}"

    def test_clamped_pixels_pass_no_gradient(self):
        # K = 6 maps every value below 5/6, as in this scene, below 0: the
        # clamp holds them, and no gradient reaches the weights or the input
        gen, clear = dh.init_generator(tc.Rng(167), channels=4), make_image(168)
        gen.head.w = np.zeros_like(gen.head.w)
        gen.head.b = np.full_like(gen.head.b, 6.0)
        cache = []
        out = dh.dehaze_forward(clear, gen, cache)
        assert np.all(out == 0.0)
        gx, grads = dh.dehaze_backward(cache, np.ones_like(out))
        assert not gx.any()
        assert not any(g.any() for _, g in tc.param_items(grads))


class TestPairedRestoration:
    def test_adam_steps_on_paired_l1_raise_held_out_psnr(self):
        # the toy restoration study's objective in small: paired L1 on
        # hazed 16x16 scenes, scored on scenes it did not train on
        from yolovehicle import model as md
        from yolovehicle.optim import Adam

        def pairs(seed, n):
            rng = tc.Rng(seed)
            out = []
            for _ in range(n):
                clear, _ = md.make_toy_scene(rng, size=16)
                out.append((dh.synthesize_haze(clear, 0.5), clear))
            return out

        def psnr(gen, data):
            mse = [np.mean((dh.dehaze_forward(h, gen) - c).astype(np.float64) ** 2)
                   for h, c in data]
            return float(np.mean([10 * np.log10(1 / m) for m in mse]))

        train, held = pairs(169, 4), pairs(170, 4)
        gen = dh.init_generator(tc.Rng(171), channels=8)
        before = psnr(gen, held)
        opt = Adam(lr=1e-2)
        for _ in range(40):
            params = dict(tc.param_items(gen))
            grads = {k: np.zeros(v.shape, np.float64) for k, v in params.items()}
            for hazy, clear in train:
                cache = []
                out = dh.dehaze_forward(hazy, gen, cache)
                diff = out.astype(np.float64) - clear
                g_out = (np.sign(diff) / diff.size / len(train)).astype(out.dtype)
                for k, g in tc.param_items(dh.dehaze_backward(cache, g_out)[1]):
                    grads[k] += g
            for k, v in opt.step(params, grads).items():
                tc.set_param(gen, k, v)
        after = psnr(gen, held)
        assert after > before + 10.0, (before, after)  # 9.2 -> 23.6 dB


class TestSynthesizeHaze:
    def test_transmission_one_is_identity(self):
        clear = make_image(125)
        assert np.allclose(dh.synthesize_haze(clear, 1.0), clear, atol=1e-7)

    def test_airlight_mix(self):
        clear = make_image(126)
        hazy = dh.synthesize_haze(clear, 0.4)
        assert dh.AIRLIGHT == 0.9
        assert np.allclose(hazy, clear * 0.4 + 0.9 * 0.6, atol=1e-6)

    def test_invalid_transmission(self):
        with pytest.raises(ValueError):
            dh.synthesize_haze(make_image(0), 0.0)

    @pytest.mark.parametrize("t", [1.5, -0.2, float("nan")])
    def test_out_of_range_transmission_rejected(self, t):
        with pytest.raises(ValueError, match="transmission must lie in"):
            dh.synthesize_haze(make_image(0), t)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_keeps_image_dtype(self, dtype):
        clear = make_image(157).astype(dtype)
        assert dh.synthesize_haze(clear, 0.5).dtype == dtype
