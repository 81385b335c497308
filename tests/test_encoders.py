
import numpy as np
import pytest

from gradutil import coord_subset_grad_check
from yolovehicle import cli
from yolovehicle import config as cfgmod
from yolovehicle import edgecloud as ec
from yolovehicle import encoders as enc
from yolovehicle import model as md
from yolovehicle import tensor_core as tc


@pytest.fixture(scope="module")
def text_params():
    return enc.init_text_encoder(tc.Rng(100))


class TestTokenize:
    def test_direct_lookup(self):
        ids = enc.tokenize("red sedan")
        assert ids == [[enc.VOCAB["red"], enc.VOCAB["sedan"]]]

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            enc.tokenize("")

    def test_unknown_maps_to_unk(self):
        ids = enc.tokenize("zzzqq truck")
        assert ids == [[enc.UNK_ID, enc.VOCAB["truck"]]]

    def test_phrase_split_and_cap(self):
        ids = enc.tokenize("red sedan, large freight truck")
        assert len(ids) == 2
        long = " ".join(["car"] * 20)
        assert len(enc.tokenize(long)[0]) == enc.MAX_PHRASE_TOKENS

    def test_too_many_phrases(self):
        with pytest.raises(ValueError):
            enc.tokenize(", ".join(["car"] * 17))

    def test_vocab_size_and_unk_id(self):
        assert len(enc.VOCAB) == 256
        assert min(enc.VOCAB.values()) == 0 and max(enc.VOCAB.values()) == 255


class TestPromptCheck:
    """encoders.phrases is the one check of a prompt: every path that takes
    one refuses a bad prompt with phrases' own message."""

    @pytest.fixture(scope="class")
    def bundle(self):
        return md.init_bundle(0)

    @pytest.mark.parametrize("text, message", [
        ("", "empty text input"),
        (" , ,", "empty text input"),
        (", ".join(["car"] * 17), "too many phrases: 17 > 16"),
    ])
    def test_every_path_refuses_with_the_message_of_phrases(
            self, bundle, text, message, tmp_path, capsys):
        with pytest.raises(ValueError, match=message):
            enc.phrases(text)
        with pytest.raises(ValueError, match=message):
            cfgmod.parse_config_text(f"text={text}")
        # refused before the image is read: no such file exists
        argv = ["detect", "--image", str(tmp_path / "none.ppm"), "--seed", "3",
                f"--text={text}"]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err
        with pytest.raises(ValueError, match=message):
            ec.LoopbackTransport(bundle, text)
        with pytest.raises(ValueError, match=message):
            enc.text_encode(text, bundle.text)

    @pytest.mark.parametrize("text, words", [
        ("red\tsedan", [["red", "sedan"]]),
        ("red\u00a0sedan", [["red", "sedan"]]),
        ("red\u3000sedan, \u3000bus\t", [["red", "sedan"], ["bus"]]),
    ])
    def test_unicode_whitespace_inside_a_phrase_splits_words(self, text, words):
        # phrases strips the whitespace that split() splits on, so every
        # phrase keeps at least one token and text_encode needs no empty case
        assert enc.tokenize(text) == [[enc.VOCAB[w] for w in ws] for ws in words]


class TestTextEncode:
    def test_output_dims(self, text_params):
        feat = enc.text_encode("red sedan, large freight truck", text_params)
        assert feat.pooled.shape == (1, 512)
        assert feat.tokens.shape == (2, 512)
        assert np.linalg.norm(feat.pooled) > 0

    def test_single_phrase_pooled_equals_token_row(self, text_params):
        feat = enc.text_encode("red sedan", text_params)
        assert feat.tokens.shape == (1, 512)
        assert np.allclose(feat.pooled, feat.tokens[0], atol=1e-6)

    def test_duplicate_phrases_identical_rows(self, text_params):
        feat = enc.text_encode("car, car", text_params)
        assert np.array_equal(feat.tokens[0], feat.tokens[1])

    def test_bit_identical_across_runs(self):
        a = enc.text_encode("blue bus", enc.init_text_encoder(tc.Rng(5)))
        b = enc.text_encode("blue bus", enc.init_text_encoder(tc.Rng(5)))
        assert np.array_equal(a.pooled, b.pooled)
        assert np.array_equal(a.tokens, b.tokens)

    def test_dim_always_512(self, text_params):
        for raw in ("car", "white van, taxi", "large truck, bus, red car"):
            assert enc.text_encode(raw, text_params).pooled.shape == (1, 512)


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
            return loss, enc.backbone_backward(cache, grads)[0]

        assert tc.grad_check(f, img0) < 1e-3

    @pytest.mark.parametrize("name", [n for n, _ in tc.param_items(
        enc.init_backbone(tc.Rng(0), channels=4))])
    def test_backward_param_grad_check(self, name):
        # every tensor of the stem and the three stages, in float64, on a
        # 32x32 image: the smallest whose f3 map is not empty. At init the
        # activations shrink tenfold or more per stage, until the eps of a
        # central difference moves pre-activations across the leaky ReLU's
        # kink, where the difference means nothing; weights times 4 and
        # biases of 0.1 keep every stage's activations well above eps
        params = enc.init_backbone(tc.Rng(209), channels=4)
        for k, v in tc.param_items(params):
            tc.set_param(params, k, v.astype(np.float64) * 4.0 if k.endswith(".w")
                         else np.full(v.shape, 0.1))
        img = tc.Rng(210).uniform(0.2, 0.8, (3, 32, 32)).astype(np.float64)
        w = [tc.Rng(211 + i).uniform(-1, 1, f.shape).astype(np.float64)
             for i, f in enumerate(enc.backbone_features(img, params).scales())]

        def f(value):
            tc.set_param(params, name, value)
            cache = []
            feats = enc.backbone_features(img, params, cache)
            loss = sum(float((fi * wi).sum()) for fi, wi in zip(feats.scales(), w))
            _, grads = enc.backbone_backward(cache, w)
            return loss, dict(tc.param_items(grads))[name]

        value = dict(tc.param_items(params))[name]
        err = coord_subset_grad_check(f, value, n=4, seed=len(name))
        assert err < 1e-3, f"{name}: {err}"

    def test_backward_grads_shaped_like_params(self):
        params = enc.init_backbone(tc.Rng(212), channels=4)
        cache = []
        feats = enc.backbone_features(tc.Rng(213).uniform(0, 1, (3, 32, 32)), params, cache)
        gx, grads = enc.backbone_backward(cache, [np.ones_like(f) for f in feats.scales()])
        assert gx.shape == (3, 32, 32)
        assert [(k, v.shape, v.dtype) for k, v in tc.param_items(grads)] == \
            [(k, v.shape, v.dtype) for k, v in tc.param_items(params)]
        assert [layer.stride for layer in grads.stem] == [layer.stride for layer in params.stem]
