from dataclasses import replace

import numpy as np
import pytest

from yolovehicle import dehaze as dh
from yolovehicle import tensor_core as tc


def make_image(seed, h=8, w=8, lo=0.2, hi=0.8):
    return tc.Rng(seed).uniform(lo, hi, (3, h, w))


class TestCab:
    def make(self, seed, channels=4):
        rng = tc.Rng(seed)
        half = channels // 2
        return dh.CabParams(
            w1=rng.uniform(-0.5, 0.5, (half, channels)),
            b1=rng.uniform(-0.5, 0.5, (half,)),
            w2=rng.uniform(-0.5, 0.5, (channels, half)),
            b2=rng.uniform(-0.5, 0.5, (channels,)),
        )

    def test_saturated_gate_passthrough(self):
        p = self.make(80)
        p.w2 = np.zeros_like(p.w2)
        p.b2 = np.full_like(p.b2, 100.0)
        x = tc.Rng(81).uniform(-1, 1, (4, 3, 3))
        assert np.allclose(dh.cab_forward(x, p)[0], x, atol=1e-5)

    def test_zero_gate_logits_halve(self):
        p = self.make(82)
        p.w2 = np.zeros_like(p.w2)
        p.b2 = np.zeros_like(p.b2)
        x = tc.Rng(83).uniform(-1, 1, (4, 3, 3))
        assert np.array_equal(dh.cab_forward(x, p)[0], x * np.float32(0.5))

    def test_hand_composition_2x2x2(self):
        p = self.make(84, channels=2)
        x = tc.Rng(85).uniform(-1, 1, (2, 2, 2))
        pooled = tc.global_avg_pool(x)
        gate = tc.sigmoid(tc.leaky_relu(pooled @ p.w1.T + p.b1) @ p.w2.T + p.b2)
        expected = x * gate[0][:, None, None]
        assert np.allclose(dh.cab_forward(x, p)[0], expected, atol=1e-6)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            dh.cab_forward(np.zeros((6, 2, 2), np.float32), self.make(86))


class TestWmsa:
    def make(self, seed, channels=4, shift=False):
        rng = tc.Rng(seed)
        return dh.WmsaParams(
            wq=rng.uniform(-0.5, 0.5, (channels, channels)),
            wk=rng.uniform(-0.5, 0.5, (channels, channels)),
            wv=rng.uniform(-0.5, 0.5, (channels, channels)),
            wo=rng.uniform(-0.5, 0.5, (channels, channels)),
            shift=shift,
        )

    def test_full_window_matches_bruteforce(self):
        p = self.make(87)
        x = tc.Rng(88).uniform(-1, 1, (4, 4, 4))
        tokens = x.reshape(4, 16).T  # pixels as rows
        q, k, v = tokens @ p.wq.T, tokens @ p.wk.T, tokens @ p.wv.T
        ref, _ = tc.multi_head_attention(q, k, v, dh.HEADS)
        ref = (ref @ p.wo.T).T.reshape(4, 4, 4)
        assert np.allclose(dh.wmsa_forward(x, p)[0], ref, atol=1e-5)

    def test_constant_input_constant_output(self):
        p = self.make(89)
        x = np.full((4, 8, 8), 0.37, np.float32)
        y = dh.wmsa_forward(x, p)[0]
        assert np.allclose(y, y[:, :1, :1], atol=1e-5)

    def test_uniform_attention_is_window_mean(self):
        # zero q/k projections give uniform weights; identity v/o reduce the
        # op to a per-window mean over pixels
        p = self.make(90)
        p.wq = np.zeros_like(p.wq)
        p.wk = np.zeros_like(p.wk)
        p.wv = np.eye(4, dtype=np.float32)
        p.wo = np.eye(4, dtype=np.float32)
        x = tc.Rng(91).uniform(-1, 1, (4, 4, 8))
        y = dh.wmsa_forward(x, p)[0]
        for wi in range(2):
            block = x[:, :, wi * 4:(wi + 1) * 4]
            mean = block.mean(axis=(1, 2))
            assert np.allclose(y[:, :, wi * 4:(wi + 1) * 4], mean[:, None, None], atol=1e-5)

    def test_shift_is_identity_for_full_window(self):
        # attention over all pixels is permutation-equivariant, so the cyclic
        # shift and its inverse cancel when the window covers the whole map
        x = tc.Rng(92).uniform(-1, 1, (4, 4, 4))
        plain = self.make(93, shift=False)
        shifted = self.make(93, shift=True)
        assert np.allclose(dh.wmsa_forward(x, plain)[0], dh.wmsa_forward(x, shifted)[0], atol=1e-5)

    def test_indivisible_window(self):
        with pytest.raises(ValueError):
            dh.wmsa_forward(np.zeros((4, 6, 8), np.float32), self.make(94))


class TestAttentionConvBlock:
    def test_shape_preserved_random_sizes(self):
        block = dh.init_block(tc.Rng(95), channels=4)
        rng = tc.Rng(96)
        for h, w in ((4, 4), (4, 8), (8, 12), (12, 4)):
            x = rng.uniform(-1, 1, (4, h, w))
            assert dh.block_forward(x, block)[0].shape == (4, h, w)

    def test_zero_input_zero_output(self):
        block = dh.init_block(tc.Rng(97), channels=4)
        y = dh.block_forward(np.zeros((4, 4, 4), np.float32), block)[0]
        assert np.allclose(y, 0.0, atol=1e-7)

    def test_branchwise_oracle_composition(self):
        block = dh.init_block(tc.Rng(98), channels=4)
        x = tc.Rng(99).uniform(-1, 1, (4, 4, 4))
        s = tc.leaky_relu(tc.conv2d(x, block.stem.w, 1, 1) + block.stem.b[:, None, None])
        u = dh.cab_forward(s, block.cab)[0] + dh.wmsa_forward(s, block.wmsa)[0]
        ref = tc.conv2d(u, block.out.w, 1, 1) + block.out.b[:, None, None]
        assert np.allclose(dh.block_forward(x, block)[0], ref, atol=1e-5)


class TestDehazeForward:
    def test_zero_head_is_clamp(self):
        gen = dh.init_generator(tc.Rng(100), channels=4)
        gen.head.w = np.zeros_like(gen.head.w)
        gen.head.b = np.zeros_like(gen.head.b)
        hazy = tc.Rng(101).uniform(-0.5, 1.5, (3, 8, 8))
        assert np.array_equal(dh.dehaze_forward(hazy, gen), tc.clamp01(hazy))

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
        gen = dh.init_generator(tc.Rng(105), channels=4)
        for h, w in ((8, 8), (8, 16), (12, 20)):
            assert dh.dehaze_forward(make_image(0, h, w), gen).shape == (3, h, w)

    def test_indivisible_dims_rejected(self):
        gen = dh.init_generator(tc.Rng(106), channels=4)
        with pytest.raises(ValueError):
            dh.dehaze_forward(make_image(0, 6, 6), gen)


class TestComponentGradients:
    """Each backward pass on its own, against central differences of the
    probe loss sum(w * forward(x)) in float64; the generator-level checks
    below only see these composed."""

    @staticmethod
    def probe(forward, backward, x, p, seed):
        w = tc.Rng(seed).uniform(-1, 1, forward(x, p)[0].shape).astype(np.float64)

        def run(v, q):
            y, cache = forward(v, q)
            return float((y * w).sum()), backward(cache, q, w)
        return run

    def input_error(self, forward, backward, x, p, seed):
        run = self.probe(forward, backward, x, p, seed)

        def f(v):
            loss, (gx, _) = run(v, p)
            return loss, gx
        return tc.grad_check(f, x)

    def param_error(self, forward, backward, x, p, name, seed):
        from gradutil import coord_subset_grad_check

        run = self.probe(forward, backward, x, p, seed)

        def f(v):
            loss, (_, grads) = run(x, replace(p, **{name: v}))
            return loss, getattr(grads, name)
        return coord_subset_grad_check(f, getattr(p, name), n=8, seed=seed)

    def test_cab_input(self):
        p = TestCab().make(130)
        x = tc.Rng(131).uniform(-1, 1, (4, 4, 4)).astype(np.float64)
        assert self.input_error(dh.cab_forward, dh.cab_backward, x, p, 132) < 1e-4

    @pytest.mark.parametrize("name", ["w1", "b1", "w2", "b2"])
    def test_cab_params(self, name):
        p = TestCab().make(133)
        x = tc.Rng(134).uniform(-1, 1, (4, 4, 4)).astype(np.float64)
        err = self.param_error(dh.cab_forward, dh.cab_backward, x, p, name, 135)
        assert err < 1e-4, err

    @pytest.mark.parametrize("shift", [False, True], ids=["plain", "shifted"])
    def test_wmsa_input(self, shift):
        p = TestWmsa().make(136, shift=shift)
        x = tc.Rng(137).uniform(-1, 1, (4, 8, 8)).astype(np.float64)
        assert self.input_error(dh.wmsa_forward, dh.wmsa_backward, x, p, 138) < 1e-4

    @pytest.mark.parametrize("name", ["wq", "wk", "wv", "wo"])
    def test_wmsa_params_shifted(self, name):
        p = TestWmsa().make(139, shift=True)
        x = tc.Rng(140).uniform(-1, 1, (4, 8, 8)).astype(np.float64)
        err = self.param_error(dh.wmsa_forward, dh.wmsa_backward, x, p, name, 141)
        assert err < 1e-4, err

    def test_block_input(self):
        block = dh.init_block(tc.Rng(142), channels=4, shift=True)
        x = tc.Rng(143).uniform(-1, 1, (4, 4, 8)).astype(np.float64)
        assert self.input_error(dh.block_forward, dh.block_backward, x, block, 144) < 1e-4

    def test_block_params(self):
        from gradutil import coord_subset_grad_check

        block = dh.init_block(tc.Rng(145), channels=4, shift=True)
        x = tc.Rng(146).uniform(-1, 1, (4, 4, 8)).astype(np.float64)
        run = self.probe(dh.block_forward, dh.block_backward, x, block, 147)
        for seed, (name, value) in enumerate(tc.param_items(block)):
            def f(v, name=name, value=value):
                tc.set_param(block, name, v)
                try:
                    loss, (_, grads) = run(x, block)
                finally:
                    tc.set_param(block, name, value)
                return loss, dict(tc.param_items(grads))[name]

            err = coord_subset_grad_check(f, value, n=4, seed=seed)
            assert err < 1e-4, f"{name}: {err}"

    def test_generator_input(self):
        # the input gradient adds the skip path to the stem's, which no
        # parameter check reaches
        from gradutil import smooth_scene

        gen, clear = smooth_scene(148, 149)
        w = tc.Rng(150).uniform(-1, 1, clear.shape).astype(np.float64)

        def f(v):
            out, cache = dh._gen_forward(v, gen)
            return float((out * w).sum()), dh._gen_backward(cache, gen, w)[0]

        assert tc.grad_check(f, clear.astype(np.float64)) < 2e-3


class TestIdentityLoss:
    def test_identity_generator_exact_zero(self):
        gen = dh.init_generator(tc.Rng(115), channels=4)
        gen.head.w = np.zeros_like(gen.head.w)
        gen.head.b = np.zeros_like(gen.head.b)
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
    def test_grad_check_identity_loss_wrt_generator(self):
        from gradutil import coord_subset_grad_check, smooth_scene

        gen, clear = smooth_scene(119, 121)

        for seed, (name, value) in enumerate(tc.param_items(gen)):
            def f(p, name=name, value=value):
                tc.set_param(gen, name, p)
                try:
                    loss, grads = dh.identity_loss_with_grads(gen, clear)
                finally:
                    tc.set_param(gen, name, value)
                return loss, grads[name]

            err = coord_subset_grad_check(f, value, n=4, seed=seed)
            assert err < 2e-3, f"{name}: {err}"


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
