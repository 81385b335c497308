import math

import numpy as np
import pytest

from yolovehicle import dehaze as dh
from yolovehicle import encoders
from yolovehicle import tensor_core as tc
from yolovehicle.optim import Adam


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
    def make(self, seed, channels=4, window=4, heads=2, shift=False):
        rng = tc.Rng(seed)
        return dh.WmsaParams(
            wq=rng.uniform(-0.5, 0.5, (channels, channels)),
            wk=rng.uniform(-0.5, 0.5, (channels, channels)),
            wv=rng.uniform(-0.5, 0.5, (channels, channels)),
            wo=rng.uniform(-0.5, 0.5, (channels, channels)),
            window=window, heads=heads, shift=shift,
        )

    def test_full_window_matches_bruteforce(self):
        p = self.make(87, window=4)
        x = tc.Rng(88).uniform(-1, 1, (4, 4, 4))
        tokens = x.reshape(4, 16).T  # pixels as rows
        q, k, v = tokens @ p.wq.T, tokens @ p.wk.T, tokens @ p.wv.T
        ref, _ = tc.multi_head_attention(q, k, v, p.heads)
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
        plain = self.make(93, window=4, shift=False)
        shifted = self.make(93, window=4, shift=True)
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


class TestAdversarialLoss:
    def test_symmetric_point(self):
        l_d, l_g = dh.adversarial_loss(np.full(4, 0.5), np.full(4, 0.5))
        assert abs(l_d - 2 * math.log(2)) < 1e-9
        assert abs(l_g - math.log(2)) < 1e-9

    def test_generator_optimum(self):
        _, l_g = dh.adversarial_loss(np.full(4, 0.5), np.full(4, 1.0 - 1e-9))
        assert l_g < 1e-8

    def test_random_scalar_oracle(self):
        rng = tc.Rng(107)
        real = rng.uniform(0.05, 0.95, (6,)).astype(np.float64)
        fake = rng.uniform(0.05, 0.95, (6,)).astype(np.float64)
        l_d, l_g = dh.adversarial_loss(real, fake)
        ref_d = -sum(math.log(r) for r in real) / 6 - sum(math.log(1 - f) for f in fake) / 6
        ref_g = -sum(math.log(f) for f in fake) / 6
        assert abs(l_d - ref_d) < 1e-12
        assert abs(l_g - ref_g) < 1e-12

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            dh.adversarial_loss(np.array([1.0]), np.array([0.5]))
        with pytest.raises(ValueError):
            dh.adversarial_loss(np.array([0.5]), np.array([0.0]))


class TestPatchNce:
    def test_orthogonal_closed_form(self):
        # 16 one-hot locations, identical across the two maps, temperature 1:
        # each row of the similarity matrix is e at the positive and 1 at the
        # 15 negatives
        n = 16
        feat = np.zeros((n, 4, 4), np.float32)
        for i in range(n):
            feat[i, i // 4, i % 4] = 1.0
        w = dh.DehazeLossWeights(nce_temperature=1.0, patch_count=n)
        expected = -math.log(math.e / (math.e + n - 1))
        assert abs(dh.patch_nce_loss_with_grad(feat, feat, w)[0] - expected) < 1e-9

    def test_identical_features_uniform(self):
        feat = np.tile(np.array([0.3, -0.7, 0.2], np.float32)[:, None, None], (1, 4, 4))
        w = dh.DehazeLossWeights(patch_count=8)
        assert abs(dh.patch_nce_loss_with_grad(feat, feat, w)[0] - math.log(8)) < 1e-9

    def test_nonnegative(self):
        rng = tc.Rng(108)
        w = dh.DehazeLossWeights()
        for _ in range(10):
            a = rng.uniform(-1, 1, (4, 4, 4))
            b = rng.uniform(-1, 1, (4, 4, 4))
            assert dh.patch_nce_loss_with_grad(a, b, w)[0] >= 0.0

    def test_seed_changes_sampling(self):
        rng = tc.Rng(109)
        a = rng.uniform(-1, 1, (4, 8, 8))
        b = rng.uniform(-1, 1, (4, 8, 8))
        w = dh.DehazeLossWeights(patch_count=4)
        vals = {round(dh.patch_nce_loss_with_grad(a, b, w, seed=s)[0], 12) for s in range(8)}
        assert len(vals) > 1

    def test_too_few_locations(self):
        with pytest.raises(ValueError):
            dh.patch_nce_loss_with_grad(np.ones((2, 1, 1)), np.ones((2, 1, 1)), dh.DehazeLossWeights())

    def test_grad_check(self):
        rng = tc.Rng(110)
        w = dh.DehazeLossWeights(patch_count=4)
        b = rng.uniform(-1, 1, (4, 2, 2)).astype(np.float64)
        for trial in range(5):
            a = rng.uniform(-1, 1, (4, 2, 2)).astype(np.float64)

            def f(x):
                return dh.patch_nce_loss_with_grad(x, b, w, seed=trial)

            assert tc.grad_check(f, a) < 1e-3


class TestScp:
    def test_restored_equals_clear_zero(self):
        clear = make_image(111)
        hazy = dh.synthesize_haze(clear, 0.5)
        assert dh.scp_loss_with_grad(clear, clear, hazy)[0] == 0.0

    def test_restored_equals_hazy_blows_up(self):
        clear = make_image(112)
        hazy = dh.synthesize_haze(clear, 0.5)
        assert dh.scp_loss_with_grad(hazy, clear, hazy)[0] > 1e3

    def test_termwise_oracle(self):
        rng = tc.Rng(113)
        r, c, h = (rng.uniform(0, 1, (3, 8, 8)) for _ in range(3))
        phi = dh._scp_backbone()
        fr = encoders.backbone_features(r, phi)
        fc = encoders.backbone_features(c, phi)
        fh = encoders.backbone_features(h, phi)
        ref = sum(
            float(np.abs(a.astype(np.float64) - b).sum())
            / (float(np.abs(a.astype(np.float64) - d).sum()) + dh.SCP_EPS)
            for a, b, d in zip(fr.scales(), fc.scales(), fh.scales()))
        assert abs(dh.scp_loss_with_grad(r, c, h)[0] - ref) < 1e-6

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            dh.scp_loss_with_grad(make_image(0), make_image(1), make_image(2, h=16))

    def test_grad_check(self):
        from gradutil import coord_subset_grad_check

        rng = tc.Rng(114)
        clear = rng.uniform(0, 1, (3, 8, 8)).astype(np.float64)
        hazy = dh.synthesize_haze(clear, 0.6)
        restored = rng.uniform(0.1, 0.9, (3, 8, 8)).astype(np.float64)

        def f(x):
            return dh.scp_loss_with_grad(x, clear, hazy)

        assert coord_subset_grad_check(f, restored, n=10, seed=3) < 1e-3


class TestIdentityLoss:
    def test_identity_generator_exact_zero(self):
        gen = dh.init_generator(tc.Rng(115), channels=4)
        gen.head.w = np.zeros_like(gen.head.w)
        gen.head.b = np.zeros_like(gen.head.b)
        assert dh.identity_loss(gen, make_image(116)) == 0.0

    def test_nonnegative_and_deterministic(self):
        gen = dh.init_generator(tc.Rng(117), channels=4)
        img = make_image(118)
        v1 = dh.identity_loss(gen, img)
        v2 = dh.identity_loss(gen, img)
        assert v1 >= 0.0
        assert v1 == v2


class TestTotalLoss:
    def test_adv_only(self):
        comps = dh.DehazeLossComponents(adv_g=0.9, patch=2.0, scp=3.0, ide=0.1)
        w = dh.DehazeLossWeights(1.0, 0.0, 0.0, 0.0)
        assert dh.dehaze_total_loss(comps, w) == 0.9

    def test_zero_components(self):
        comps = dh.DehazeLossComponents(0.0, 0.0, 0.0, 0.0)
        assert dh.dehaze_total_loss(comps, dh.DehazeLossWeights()) == 0.0

    def test_weighted_sum_oracle(self):
        comps = dh.DehazeLossComponents(adv_g=0.5, patch=1.5, scp=2.5, ide=0.25)
        w = dh.DehazeLossWeights(1.0, 2.0, 3.0, 4.0)
        assert abs(dh.dehaze_total_loss(comps, w) - (0.5 + 3.0 + 7.5 + 1.0)) < 1e-12

    def test_invalid_weights(self):
        with pytest.raises(ValueError):
            dh.DehazeLossWeights(0.0, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            dh.DehazeLossWeights(-1.0, 1.0, 1.0, 1.0)


def smooth_scene(gseed, cseed):
    """A generator/discriminator/image triple posed away from every kink.

    Finite differences are meaningless when a perturbation straddles a
    non-smooth point, so the check operates where the loss is differentiable:
    intermediate conv biases are shifted positive (leaky relus run in their
    linear region), the head bias pulls the output well away from the input
    (absolute-difference and clamp terms keep a margin), and the images are
    separated enough that the perceptual-contrast denominator stays O(1).
    """
    gen = dh.init_generator(tc.Rng(gseed), channels=4)
    gen.stem.b = np.full_like(gen.stem.b, 0.8)
    for b in gen.blocks:
        b.stem.b = np.full_like(b.stem.b, 0.8)
        b.cab.b1 = np.full_like(b.cab.b1, 0.8)
    gen.head.w = gen.head.w * np.float32(2.0)
    gen.head.b = np.full_like(gen.head.b, -0.35)
    disc = dh.init_discriminator(tc.Rng(gseed + 1), channels=4)
    for c in disc.convs[:-1]:
        c.b = np.full_like(c.b, 0.8)
    clear = tc.Rng(cseed).uniform(0.45, 0.7, (3, 8, 8))
    hazy = dh.synthesize_haze(clear, 0.5)
    return gen, disc, hazy, clear


class TestGeneratorGradients:
    def test_grad_check_total_loss_wrt_generator(self):
        from gradutil import coord_subset_grad_check

        gen, disc, hazy, clear = smooth_scene(119, 121)
        weights = dh.DehazeLossWeights(patch_count=8)

        for seed, (name, value) in enumerate(tc.param_items(gen)):
            def f(p, name=name, value=value):
                tc.set_param(gen, name, p)
                try:
                    _, total, grads = dh.dehaze_losses_with_grads(
                        gen, disc, hazy, clear, weights, seed=0)
                finally:
                    tc.set_param(gen, name, value)
                return total, grads[name]

            err = coord_subset_grad_check(f, value, n=4, seed=seed)
            assert err < 2e-3, f"{name}: {err}"


class TestToyDescent:
    def test_fifty_steps_reduce_mean_loss(self):
        gen = dh.init_generator(tc.Rng(122))
        disc = dh.init_discriminator(tc.Rng(123))
        weights = dh.DehazeLossWeights()
        rng = tc.Rng(124)
        pairs = []
        for i in range(8):
            clear = rng.uniform(0.1, 0.9, (3, 8, 8))
            t = float(rng.uniform(0.3, 0.8, (1,))[0])
            pairs.append((dh.synthesize_haze(clear, t), clear))

        opt = Adam(lr=2e-4)
        first = None
        last = None
        for step in range(50):
            params = dict(tc.param_items(gen))
            total_grads = {k: np.zeros(v.shape, np.float64) for k, v in params.items()}
            losses = []
            for i, (hazy, clear) in enumerate(pairs):
                _, total, grads = dh.dehaze_losses_with_grads(
                    gen, disc, hazy, clear, weights, seed=i)
                losses.append(total)
                for k, g in grads.items():
                    total_grads[k] += g / len(pairs)
            mean_loss = float(np.mean(losses))
            if first is None:
                first = mean_loss
            last = mean_loss
            new_params = opt.step(params, total_grads)
            for k, v in new_params.items():
                tc.set_param(gen, k, v)
        assert last <= 0.8 * first, f"mean loss {first} -> {last}"


class TestSynthesizeHaze:
    def test_transmission_one_is_identity(self):
        clear = make_image(125)
        assert np.allclose(dh.synthesize_haze(clear, 1.0), clear, atol=1e-7)

    def test_airlight_mix(self):
        clear = make_image(126)
        hazy = dh.synthesize_haze(clear, 0.4, airlight=0.9)
        assert np.allclose(hazy, clear * 0.4 + 0.9 * 0.6, atol=1e-6)

    def test_invalid_transmission(self):
        with pytest.raises(ValueError):
            dh.synthesize_haze(make_image(0), 0.0)
