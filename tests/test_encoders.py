
import numpy as np
import pytest

from yolovehicle import encoders as enc
from yolovehicle import tensor_core as tc


@pytest.fixture(scope="module")
def vocab():
    return enc.load_vocab()


@pytest.fixture(scope="module")
def text_params():
    return enc.init_text_encoder(tc.Rng(100))


class TestTokenize:
    def test_direct_lookup(self, vocab):
        ids = enc.tokenize(enc.TextInput("red sedan"), vocab)
        assert ids == [[vocab["red"], vocab["sedan"]]]

    def test_empty_input_rejected(self, vocab):
        with pytest.raises(ValueError):
            enc.tokenize(enc.TextInput(""), vocab)

    def test_unknown_maps_to_unk(self, vocab):
        ids = enc.tokenize(enc.TextInput("zzzqq truck"), vocab)
        assert ids == [[enc.UNK_ID, vocab["truck"]]]

    def test_phrase_split_and_cap(self, vocab):
        ids = enc.tokenize(enc.TextInput("red sedan, large freight truck"), vocab)
        assert len(ids) == 2
        long = " ".join(["car"] * 20)
        assert len(enc.tokenize(enc.TextInput(long), vocab)[0]) == enc.MAX_PHRASE_TOKENS

    def test_too_many_phrases(self, vocab):
        with pytest.raises(ValueError):
            enc.tokenize(enc.TextInput(", ".join(["car"] * 17)), vocab)

    def test_vocab_size_and_unk_id(self, vocab):
        assert len(vocab) == 256
        assert min(vocab.values()) == 0 and max(vocab.values()) == 255


class TestTextEncode:
    def test_output_dims(self, text_params):
        feat = enc.text_encode(enc.TextInput("red sedan, large freight truck"), text_params)
        assert feat.pooled.shape == (1, 512)
        assert feat.tokens.shape == (2, 512)
        assert np.linalg.norm(feat.pooled) > 0

    def test_single_phrase_pooled_equals_token_row(self, text_params):
        feat = enc.text_encode(enc.TextInput("red sedan"), text_params)
        assert feat.tokens.shape == (1, 512)
        assert np.allclose(feat.pooled, feat.tokens[0], atol=1e-6)

    def test_duplicate_phrases_identical_rows(self, text_params):
        feat = enc.text_encode(enc.TextInput("car, car"), text_params)
        assert np.array_equal(feat.tokens[0], feat.tokens[1])

    def test_bit_identical_across_runs(self):
        a = enc.text_encode(enc.TextInput("blue bus"), enc.init_text_encoder(tc.Rng(5)))
        b = enc.text_encode(enc.TextInput("blue bus"), enc.init_text_encoder(tc.Rng(5)))
        assert np.array_equal(a.pooled, b.pooled)
        assert np.array_equal(a.tokens, b.tokens)

    def test_dim_always_512(self, text_params):
        for raw in ("car", "white van, taxi", "large truck, bus, red car"):
            assert enc.text_encode(enc.TextInput(raw), text_params).pooled.shape == (1, 512)


class TestBackbone:
    def test_shape_contract(self):
        params = enc.init_backbone(tc.Rng(200), channels=8)
        img = tc.Rng(201).uniform(0, 1, (3, 64, 64))
        feats = enc.backbone_extract(img, params)
        assert feats.f1.shape == (8, 8, 8)
        assert feats.f2.shape == (8, 4, 4)
        assert feats.f3.shape == (8, 2, 2)

    def test_strides_for_other_sizes(self):
        params = enc.init_backbone(tc.Rng(202), channels=4)
        feats = enc.backbone_extract(np.zeros((3, 96, 64), np.float32), params)
        assert feats.f1.shape == (4, 12, 8)
        assert feats.f3.shape == (4, 3, 2)

    def test_zero_image_zero_biases_gives_zero(self):
        params = enc.init_backbone(tc.Rng(203), channels=8)
        feats = enc.backbone_extract(np.zeros((3, 64, 64), np.float32), params)
        for f in feats.scales():
            assert np.array_equal(f, np.zeros_like(f))

    def test_deterministic(self):
        img = tc.Rng(204).uniform(0, 1, (3, 64, 64))
        a = enc.backbone_extract(img, enc.init_backbone(tc.Rng(7), channels=8))
        b = enc.backbone_extract(img, enc.init_backbone(tc.Rng(7), channels=8))
        for fa, fb in zip(a.scales(), b.scales()):
            assert np.array_equal(fa, fb)

    def test_indivisible_dims_rejected(self):
        params = enc.init_backbone(tc.Rng(205), channels=8)
        with pytest.raises(ValueError):
            enc.backbone_extract(np.zeros((3, 48, 64), np.float32), params)

    def test_backward_input_grad_check(self):
        params = enc.init_backbone(tc.Rng(206), channels=4)
        img0 = tc.Rng(207).uniform(0.2, 0.8, (3, 8, 8)).astype(np.float64)
        w = [tc.Rng(208 + i).uniform(-1, 1, s).astype(np.float64)
             for i, s in enumerate([(4, 1, 1), (4, 1, 1), (4, 1, 1)])]

        def f(img):
            cache = []
            feats = enc.backbone_features(img, params, cache)
            loss = sum(float((fi * wi).sum()) for fi, wi in zip(feats.scales(), w))
            grads = [wi.copy() for wi in w]
            return loss, enc.backbone_backward_input(cache, grads)

        assert tc.grad_check(f, img0) < 1e-3
