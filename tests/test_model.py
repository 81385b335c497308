import hashlib
import os
import re
import struct
import sys
import threading

import numpy as np
import pytest

from yolovehicle import dehaze as dh
from yolovehicle import detection as det
from yolovehicle import encoders as enc
from yolovehicle import fusion as fu
from yolovehicle import model as md
from yolovehicle import ppm
from yolovehicle import tensor_core as tc
from yolovehicle.encoders import MultiScaleFeatures, TextFeature
from yolovehicle.optim import Adam


class TestBundle:
    def test_init_is_deterministic(self):
        a = md.init_bundle(11)
        b = md.init_bundle(11)
        for (na, pa), (nb, pb) in zip(tc.param_items(a), tc.param_items(b)):
            assert na == nb
            assert np.array_equal(pa, pb), na

    def test_param_names_unique(self):
        names = [n for n, _ in tc.param_items(md.init_bundle(0))]
        assert len(names) == len(set(names))

    def test_save_load_roundtrip_exact(self, tmp_path):
        bundle = md.init_bundle(12)
        path = tmp_path / "weights.bin"
        md.save_bundle(path, bundle)
        loaded = md.load_bundle(path)
        for (na, pa), (nb, pb) in zip(tc.param_items(bundle),
                                      tc.param_items(loaded)):
            assert na == nb
            assert np.array_equal(pa, pb), na

    def test_load_rejects_archive_without_meta(self, tmp_path):
        path = tmp_path / "bad.bin"
        tc.atomic_write(path, tc.archive_to_bytes({"x": np.zeros((2, 2), np.float32)}))
        with pytest.raises(ValueError):
            md.load_bundle(path)

    def test_archive_bytes_are_pinned(self, tmp_path):
        # the registry's names, in walk order, are the archive keys; any
        # change to the names, their order or the TSR bytes changes the digest
        bundle = md.init_bundle(0)
        path = tmp_path / "init0.bin"
        md.save_bundle(path, bundle)
        names = [n for n, _ in tc.param_items(bundle)]
        buf = path.read_bytes()
        assert [n for n, _ in tc.archive_entries(buf)] == ["meta"] + names
        assert names[:4] == ["text.embed", "text.w_out", "text.b_out",
                             "text.layers.0.wq"]
        assert len(buf) == 3687678
        assert hashlib.sha256(buf).hexdigest() == \
            "8db63990a648450b2e01ed908465fdeb662159a3e45630be2af4fd2af70dd562"

    def test_meta_stamps_the_version_and_the_one_architecture(self):
        bundle = md.init_bundle(0)
        arch = [bundle.backbone.stem[0].w.shape[0], bundle.head.w_cls.shape[0],
                bundle.head.w_box.shape[0] // 4 - 1, bundle.gen.stem.w.shape[0]]
        assert md.META.tolist() == [md.ARCHIVE_VERSION] + arch == [2, 8, 3, 7, 8]
        assert md.META.dtype == np.float32

    @pytest.mark.parametrize("meta", [[2, 8, 3, 7, 16],
                                      [2, 16, 3, 7, 8],
                                      [2, 8, 3, 7],
                                      [2, 8, 3, 7, 8, 0]])
    def test_load_rejects_any_other_meta_naming_it(self, tmp_path, meta):
        # the tensors are those of the one architecture; only the stamp lies
        tensors = {"meta": np.array(meta, np.float32)}
        tensors.update(tc.param_items(md.init_bundle(13)))
        path = tmp_path / "other_meta.bin"
        tc.atomic_write(path, tc.archive_to_bytes(tensors))
        shown = str([float(v) for v in meta])
        with pytest.raises(ValueError, match=re.escape(shown)):
            md.load_bundle(path)

    @pytest.mark.parametrize("shape", [(1, 5), (2, 3), (1, 1)])
    def test_load_rejects_a_meta_that_is_not_a_vector(self, tmp_path, shape):
        # META's entries repeated to fill the shape: each leads with this
        # build's version, and (1, 5) is the whole stamp
        tensors = {"meta": np.resize(md.META, shape)}
        tensors.update(tc.param_items(md.init_bundle(13)))
        path = tmp_path / "rank2_meta.bin"
        tc.atomic_write(path, tc.archive_to_bytes(tensors))
        with pytest.raises(ValueError, match=re.escape(f"meta record of shape {shape}")):
            md.load_bundle(path)

    def test_load_rejects_wrong_shapes_naming_the_tensor(self, tmp_path):
        for name, shape in (("fusion.w_gate", (3, 3)), ("head.b_cls", (5,))):
            tensors = {"meta": md.META}
            tensors.update(tc.param_items(md.init_bundle(13)))
            tensors[name] = np.zeros(shape, np.float32)
            path = tmp_path / "bad_shape.bin"
            tc.atomic_write(path, tc.archive_to_bytes(tensors))
            with pytest.raises(ValueError, match=name):
                md.load_bundle(path)

    def test_load_rejects_truncated_archive(self, tmp_path):
        path = tmp_path / "w.bin"
        md.save_bundle(path, md.init_bundle(0))
        path.write_bytes(path.read_bytes()[:5])
        with pytest.raises(ValueError, match="truncated"):
            md.load_bundle(path)

    def test_load_rejects_missing_params(self, tmp_path):
        tensors = {"meta": md.META}
        tensors.update(tc.param_items(md.init_bundle(13)))
        del tensors["head.w_obj"]
        path = tmp_path / "short.bin"
        tc.atomic_write(path, tc.archive_to_bytes(tensors))
        with pytest.raises(ValueError, match="missing \\['head.w_obj'\\]"):
            md.load_bundle(path)

    def test_load_rejects_a_repeated_tensor(self, tmp_path):
        # a later head.b_obj of 5.0 must not overwrite the stored one
        path = tmp_path / "w.bin"
        md.save_bundle(path, md.init_bundle(13))
        buf = path.read_bytes()
        (count,) = struct.unpack_from("<I", buf)
        extra = (struct.pack("<H", 10) + b"head.b_obj"
                 + tc.tensor_to_bytes(np.full(1, 5.0, np.float32)))
        path.write_bytes(struct.pack("<I", count + 1) + buf[4:] + extra)
        with pytest.raises(ValueError, match="'head.b_obj' twice"):
            md.load_bundle(path)

    def test_load_rejects_non_finite_tensor_naming_it(self, tmp_path):
        tensors = {"meta": md.META}
        tensors.update(tc.param_items(md.init_bundle(13)))
        tensors["head.b_obj"] = np.full(1, np.nan, np.float32)
        # written entry by entry: archive_to_bytes refuses the NaN itself
        path = tmp_path / "w.bin"
        path.write_bytes(struct.pack("<I", len(tensors)) + b"".join(
            struct.pack("<H", len(name)) + name.encode() + tc.tensor_to_bytes(arr)
            for name, arr in tensors.items()))
        with pytest.raises(ValueError, match="'head.b_obj' holds a non-finite value"):
            md.load_bundle(path)

    def test_load_rejects_unknown_params(self, tmp_path):
        tensors = {"meta": md.META}
        tensors.update(tc.param_items(md.init_bundle(13)))
        tensors["head.w_extra"] = np.zeros(3, np.float32)
        path = tmp_path / "long.bin"
        tc.atomic_write(path, tc.archive_to_bytes(tensors))
        with pytest.raises(ValueError, match="extra \\['head.w_extra'\\]"):
            md.load_bundle(path)

    # the seven-entry stamp every archive carried before the version entry
    UNVERSIONED = [8, 3, 7, 8, 2, 4, 2]

    @pytest.mark.parametrize("meta, shown", [(UNVERSIONED, "1"),
                                             ([1, 8, 3, 7, 8], "1"),
                                             ([3, 8, 3, 7, 8], "3"),
                                             ([], "none")],
                             ids=["unversioned", "older", "newer", "empty"])
    def test_load_rejects_another_version_before_any_tensor(self, tmp_path,
                                                            meta, shown):
        # a truncated entry follows the meta record: the version check must
        # not read it
        path = tmp_path / "old.bin"
        tc.atomic_write(path, tc.archive_to_bytes({
            "meta": np.array(meta, np.float32), "head.b_obj": np.zeros(1, np.float32)}))
        path.write_bytes(path.read_bytes()[:-2])
        with pytest.raises(md.ArchiveVersionError,
                           match=f"format version {shown}, this build reads version 2"):
            md.load_bundle(path)
        assert issubclass(md.ArchiveVersionError, ValueError)

    def test_load_rejects_meta_that_is_not_first(self, tmp_path):
        tensors = dict(tc.param_items(md.init_bundle(13)))
        tensors["meta"] = md.META
        path = tmp_path / "late_meta.bin"
        tc.atomic_write(path, tc.archive_to_bytes(tensors))
        with pytest.raises(ValueError, match="does not begin with a meta record"):
            md.load_bundle(path)


class TestDetectFrame:
    def test_runs_and_times(self):
        bundle = md.init_bundle(14)
        image, _ = md.make_toy_scene(tc.Rng(15))
        dets, ms = md.detect_frame(image, "car, truck", bundle)
        assert ms > 0
        for d in dets:
            assert 0.0 < d.score <= 1.0
            assert 0 <= d.class_id < md.N_CLASSES

    def test_dehaze_first_changes_pipeline(self):
        bundle = md.init_bundle(14)
        image, _ = md.make_toy_scene(tc.Rng(16))
        plain, _ = md.detect_frame(image, "car", bundle, obj_thresh=0.1)
        dehazed, _ = md.detect_frame(image, "car", bundle, dehaze_first=True,
                                     obj_thresh=0.1)
        assert plain != dehazed

    def test_deterministic_given_weights(self):
        bundle = md.init_bundle(14)
        image, _ = md.make_toy_scene(tc.Rng(17))
        a, _ = md.detect_frame(image, "bus", bundle)
        b, _ = md.detect_frame(image, "bus", bundle)
        assert a == b

    @pytest.mark.parametrize("dehaze_first", [False, True])
    def test_indivisible_dims_rejected(self, dehaze_first, monkeypatch):
        # the one check of the frame size, made before any stage runs
        bundle, calls = md.init_bundle(14), []
        monkeypatch.setattr(dh, "dehaze_forward", lambda *a: calls.append(a))
        monkeypatch.setattr(enc, "backbone_extract", lambda *a: calls.append(a))
        for h, w in ((48, 64), (64, 48), (375, 1242)):
            with pytest.raises(ValueError, match=rf"^image dims must be divisible "
                                                 rf"by 32, got {h}x{w}$"):
                md.detect_frame(np.zeros((3, h, w), np.float32), "car", bundle,
                                dehaze_first=dehaze_first)
        assert calls == []


def uncached_detect(image, text, bundle):
    """detect_frame's edge route composed by hand, with no prompt memo."""
    projected = fu.project_text(enc.text_encode(text, bundle.text),
                                bundle.fusion)
    fmap, _ = fu.fuse_forward(enc.backbone_extract(image, bundle.backbone),
                              projected, bundle.fusion)
    return det.decode_detections(det.head_forward(fmap, bundle.head), 0.05, 0.5)


def detect(image, text, bundle):
    return md.detect_frame(image, text, bundle, obj_thresh=0.05)[0]


class TestPromptMemo:
    """detect_frame encodes and projects a prompt once per (prompt, weights)."""

    @pytest.fixture
    def counted_encodes(self, monkeypatch):
        calls = []
        encode = enc.text_encode

        def counting(text, params):
            calls.append(text)
            return encode(text, params)

        monkeypatch.setattr(enc, "text_encode", counting)
        return calls

    def test_cold_warm_and_uncached_are_bit_identical(self, counted_encodes):
        bundle = md.init_bundle(14)
        names = [n for n, _ in tc.param_items(bundle)]
        image, _ = md.make_toy_scene(tc.Rng(15))
        cold = detect(image, "car, truck", bundle)
        warm = detect(image, "car, truck", bundle)
        assert counted_encodes == ["car, truck"]
        assert cold and cold == warm == uncached_detect(image, "car, truck", bundle)
        # the memo is no parameter: the registry and the archive skip it
        assert [n for n, _ in tc.param_items(bundle)] == names

    def test_switching_prompts_gives_each_prompt_its_own_result(self, counted_encodes):
        bundle = md.init_bundle(14)
        image, _ = md.make_toy_scene(tc.Rng(16))
        a1 = detect(image, "car", bundle)
        b = detect(image, "bus, truck", bundle)
        a2 = detect(image, "car", bundle)
        assert counted_encodes == ["car", "bus, truck", "car"]
        assert a1 == a2 == uncached_detect(image, "car", bundle)
        assert b == uncached_detect(image, "bus, truck", bundle)
        assert a1 != b

    @pytest.mark.parametrize("name", ["text.embed", "text.layers.1.w2",
                                      "fusion.w_text", "fusion.b_text"])
    def test_set_param_reaches_the_next_frame(self, name):
        bundle = md.init_bundle(14)
        image, _ = md.make_toy_scene(tc.Rng(17))
        before = detect(image, "bus", bundle)
        old = dict(tc.param_items(bundle))[name]
        tc.set_param(bundle, name, old * 1.5 + 0.25)
        after = detect(image, "bus", bundle)
        assert after == uncached_detect(image, "bus", bundle)
        assert after != before

    def test_bundle_loaded_from_another_archive_never_sees_the_first_prompt(
            self, tmp_path):
        image, _ = md.make_toy_scene(tc.Rng(18))
        for seed in (21, 22):
            md.save_bundle(tmp_path / f"w{seed}.bin", md.init_bundle(seed))
        first = md.load_bundle(tmp_path / "w21.bin")
        seen = detect(image, "car", first)
        second = md.load_bundle(tmp_path / "w22.bin")
        assert detect(image, "car", second) == uncached_detect(image, "car", second)
        assert detect(image, "car", second) != seen
        assert detect(image, "car", first) == seen

    def test_threads_sharing_a_bundle_get_the_serial_results(self):
        images = [md.make_toy_scene(tc.Rng(30 + i))[0] for i in range(4)]
        prompts = ["car", "bus, truck", "van"]
        jobs = [(i, prompts[(i + k) % 3]) for i in range(4) for k in range(3)]
        serial = md.init_bundle(14)
        expected = [detect(images[i], p, serial) for i, p in jobs]
        shared = md.init_bundle(14)
        results = [[None] * len(jobs) for _ in range(4)]

        def worker(t):
            for j in range(len(jobs)):
                # each thread walks the jobs from its own offset, so the
                # threads keep replacing each other's memo entry
                n = (j + 3 * t) % len(jobs)
                i, p = jobs[n]
                results[t][n] = detect(images[i], p, shared)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert results == [expected] * 4


class TestToyScenes:
    def test_shapes_and_range(self):
        rng = tc.Rng(18)
        for _ in range(5):
            image, gts = md.make_toy_scene(rng)
            assert image.shape == (3, 64, 64)
            assert image.min() >= 0.0 and image.max() <= 1.0
            assert 1 <= len(gts) <= 2
            for g in gts:
                assert 0.0 < g.w < 1.0 and 0.0 < g.h < 1.0


class TestTrainToy:
    def test_deterministic_per_seed(self):
        a, _ = md.train_toy(seed=3, steps=10)
        b, _ = md.train_toy(seed=3, steps=10)
        assert a == b

    def test_rows_carry_all_components(self):
        rows, _ = md.train_toy(seed=1, steps=3)
        for step, total, l_cls, l_bbox, l_dfl in rows:
            assert total >= 0 and l_cls >= 0 and l_bbox >= 0 and l_dfl >= 0

    def test_step_cap(self):
        with pytest.raises(ValueError):
            md.train_toy(seed=0, steps=1001)
        with pytest.raises(ValueError):
            md.train_toy(seed=0, steps=0)

    def test_stops_at_the_first_non_finite_loss(self, monkeypatch):
        # lr 1e30 gives a finite loss at step 1 and NaN at step 2: the
        # optimizer steps once, on step 1's gradients only
        steps, logged = [], []
        adam_step = Adam.step

        def counted_step(self, params, grads):
            steps.append(len(logged))
            return adam_step(self, params, grads)

        monkeypatch.setattr(Adam, "step", counted_step)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="step 2 has a non-finite loss"):
                md.train_toy(seed=0, steps=3, lr=1e30, log=logged.append)
        assert steps == [1]
        assert [line.split(",")[0] for line in logged] == ["1", "2"]
        assert "nan" in logged[1]

    @pytest.mark.parametrize("lr", [0.0, -1.0, float("nan"), float("inf")])
    def test_lr_must_be_finite_and_positive(self, lr):
        with pytest.raises(ValueError, match="lr must be positive and finite"):
            md.train_toy(seed=0, steps=1, lr=lr)


def names_and_shapes(items):
    return [(name, np.shape(value)) for name, value in items]


class TestGradientTrees:
    """Every backward pass names its gradients the way tc.param_items names
    the parameters, in the same order and with the same shapes."""

    def test_head_backward(self):
        params = det.init_head(tc.Rng(60), channels=8, n_classes=3)
        feat = tc.Rng(61).uniform(-1, 1, (8, 4, 4))
        out = det.head_forward(feat, params)
        grads, _ = det.head_backward(feat, params, out.obj_logits, out.box, out.cls_logits)
        assert (names_and_shapes(tc.param_items(grads))
                == names_and_shapes(tc.param_items(params)))

    def test_fuse_backward(self):
        params = fu.init_fusion(tc.Rng(62), channels=8)
        rng = tc.Rng(63)
        feats = MultiScaleFeatures(*[rng.uniform(-1, 1, (8, s, s)) for s in (8, 4, 2)])
        text = TextFeature(pooled=rng.uniform(-1, 1, (1, 512)),
                           tokens=rng.uniform(-1, 1, (3, 512)))
        _, cache = fu.fuse_forward(feats, fu.project_text(text, params), params)
        grads = fu.fuse_backward(cache, rng.uniform(-1, 1, fu.FEATURE_SHAPE))
        assert (names_and_shapes(tc.param_items(grads))
                == names_and_shapes(tc.param_items(params)))

    def test_conv_layer_backward(self):
        layer = tc.init_conv(tc.Rng(64), 3, 4, stride=2)
        x = tc.Rng(65).uniform(-1, 1, (3, 8, 8))
        y = tc.conv_layer(x, layer)
        gx, grads = tc.conv_layer_backward(x, layer, np.ones_like(y))
        assert gx.shape == x.shape
        assert (names_and_shapes(tc.param_items(grads))
                == names_and_shapes(tc.param_items(layer)))

    def test_identity_loss_with_grads(self):
        gen = dh.init_generator(tc.Rng(66), channels=4)
        clear = tc.Rng(68).uniform(0.2, 0.8, (3, 8, 8))
        _, grads = dh.identity_loss_with_grads(gen, clear)
        assert (names_and_shapes(grads.items())
                == names_and_shapes(tc.param_items(gen)))


class TestPpm:
    def test_roundtrip_quantized(self, tmp_path):
        image = tc.Rng(19).uniform(0.0, 1.0, (3, 6, 9))
        path = tmp_path / "img.ppm"
        path.write_bytes(ppm.image_to_ppm_bytes(image))
        back = ppm.read_ppm(path)
        assert back.shape == image.shape
        assert back.dtype == np.float32
        assert np.abs(back - image).max() <= 0.5 / 255.0 + 1e-7

    def test_exact_roundtrip_of_quantized_values(self):
        image = (np.arange(3 * 4 * 4, dtype=np.float32).reshape(3, 4, 4) % 256) / 255.0
        again = ppm.image_from_ppm_bytes(ppm.image_to_ppm_bytes(image))
        assert np.array_equal(again, image)

    def test_rgb8_layout_and_inverse(self):
        # samples outside [0, 1] clip; pixels are row-major, R, G, B each
        image = tc.Rng(20).uniform(-0.2, 1.2, (3, 2, 5))
        levels = np.clip(np.rint(image * 255.0), 0, 255).astype(np.uint8)
        pixels = ppm.image_to_rgb8(image)
        assert len(pixels) == 2 * 5 * 3
        assert pixels[:3] == levels[:, 0, 0].tobytes()
        assert pixels[3 * (5 + 1):3 * (5 + 2)] == levels[:, 1, 1].tobytes()
        back = ppm.rgb8_to_image(pixels, 2, 5)
        assert back.dtype == np.float32
        assert np.array_equal(back, levels.astype(np.float32) / 255.0)

    def test_header_layout(self):
        buf = ppm.image_to_ppm_bytes(np.zeros((3, 2, 5), np.float32))
        assert buf.startswith(b"P6\n5 2\n255\n")
        assert len(buf) == len(b"P6\n5 2\n255\n") + 5 * 2 * 3

    def test_comments_in_header(self):
        buf = b"P6\n# made by hand\n2 1\n# another\n255\n" + bytes(6)
        image = ppm.image_from_ppm_bytes(buf)
        assert image.shape == (3, 1, 2)
        assert np.all(image == 0.0)

    def test_rejects_wrong_magic(self):
        with pytest.raises(ValueError):
            ppm.image_from_ppm_bytes(b"P3\n1 1\n255\n000")

    def test_rejects_wrong_maxval(self):
        with pytest.raises(ValueError):
            ppm.image_from_ppm_bytes(b"P6\n1 1\n65535\n" + bytes(6))

    def test_rejects_truncated_pixels(self):
        with pytest.raises(ValueError):
            ppm.image_from_ppm_bytes(b"P6\n2 2\n255\n" + bytes(5))

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            ppm.image_to_ppm_bytes(np.zeros((4, 4), np.float32))
