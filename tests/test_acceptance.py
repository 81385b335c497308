"""End-to-end acceptance gate: one test per shipped guarantee.

Each test prints a single PASS line naming the guarantee it verified; a
failing guarantee fails its test with the measured value.
"""

import json
import math
import os
import time

import numpy as np

from gradutil import DownTransport, coord_subset_grad_check, smooth_scene
from yolovehicle import cli
from yolovehicle import dehaze as dh
from yolovehicle import detection as det
from yolovehicle import edgecloud as ec
from yolovehicle import fusion as fu
from yolovehicle import metrics as mx
from yolovehicle import model as md
from yolovehicle import ppm
from yolovehicle import tensor_core as tc
from yolovehicle.encoders import MultiScaleFeatures, TextFeature
from yolovehicle.optim import Adam

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures",
                       "metrics_scenario.json")


def ok(message):
    print(f"PASS {message}")


def detect_scene(seed, grid=(2, 2)):
    params = det.init_head(tc.Rng(seed), channels=8, n_classes=3)
    feat = tc.Rng(seed + 1).uniform(-1, 1, (8,) + grid).astype(np.float64)
    gts = [det.BBox(0.3, 0.3, 0.25, 0.3, class_id=1),
           det.BBox(0.7, 0.6, 0.2, 0.2, class_id=0)]
    return params, feat, det.assign_targets(gts, grid)


class TestGradientSuite:
    def test_gradient_suite_accuracy_and_runtime(self):
        start = time.perf_counter()
        worst_op = 0.0

        for seed in range(20):
            rng = tc.Rng(1000 + seed)
            w = rng.uniform(-1, 1, (4, 6)).astype(np.float64)
            x = rng.uniform(0.3, 1.5, (4, 6)).astype(np.float64)  # off kinks

            def f_sigmoid(v):
                y = tc.sigmoid(v)
                return float((y * w).sum()), tc.sigmoid_backward(y, w)

            def f_softmax(v):
                y = tc.softmax(v)
                return float((y * w).sum()), tc.softmax_backward(y, w)

            def f_leaky(v):
                return float((tc.leaky_relu(v) * w).sum()), \
                    tc.leaky_relu_backward(v, w)

            for f in (f_sigmoid, f_softmax, f_leaky):
                worst_op = max(worst_op, tc.grad_check(f, x))

            kern = rng.uniform(-1, 1, (2, 3, 3, 3)).astype(np.float64)
            img = rng.uniform(-1, 1, (3, 5, 5)).astype(np.float64)
            wc = rng.uniform(-1, 1, (2, 5, 5)).astype(np.float64)

            def f_conv(v):
                y = tc.conv2d(v, kern, stride=1, pad=1)
                gx, _ = tc.conv2d_backward(v, kern, wc, stride=1, pad=1)
                return float((y * wc).sum()), gx

            worst_op = max(worst_op, tc.grad_check(f_conv, img))

            q = rng.uniform(-1, 1, (3, 8)).astype(np.float64)
            k = rng.uniform(-1, 1, (5, 8)).astype(np.float64)
            v = rng.uniform(-1, 1, (5, 8)).astype(np.float64)
            wa = rng.uniform(-1, 1, (3, 8)).astype(np.float64)

            def f_att(qq):
                out, cache = tc.multi_head_attention(qq, k, v, 2)
                gq, _, _ = tc.multi_head_attention_backward(cache, wa)
                return float((out * wa).sum()), gq

            worst_op = max(worst_op, tc.grad_check(f_att, q))
        assert worst_op < 1e-3, worst_op

        # composite detection objective, gradients wrt every head parameter
        worst_det = 0.0
        for scene_seed in (20, 24, 28, 32):
            params, feat, targets = detect_scene(scene_seed)
            out0 = det.head_forward(feat, params)
            frozen = det.detect_loss_with_grads(out0, targets)[0].alphas

            for pseed, (name, value) in enumerate(tc.param_items(params)):
                def f(p, name=name):
                    trial = det.HeadParams(**{**params.__dict__})
                    setattr(trial, name, p)
                    out = det.head_forward(feat, trial)
                    loss, gs = det.detect_loss_with_grads(
                        out, targets, frozen_alphas=frozen)
                    grads, _ = det.head_backward(feat, trial, *gs)
                    return loss.total, getattr(grads, name)

                worst_det = max(worst_det,
                                coord_subset_grad_check(f, value, n=3,
                                                        seed=pseed))
        assert worst_det < 1e-3, worst_det

        # restoration (identity) objective, gradients wrt every generator
        # parameter (6 parameter tensors)
        gen, clear = smooth_scene(119, 121)
        worst_dh = 0.0
        for pseed, (name, value) in enumerate(tc.param_items(gen)):
            def f(p, name=name, value=value):
                tc.set_param(gen, name, p)
                try:
                    loss, grads = dh.identity_loss_with_grads(gen, clear)
                finally:
                    tc.set_param(gen, name, value)
                return loss, grads[name]

            worst_dh = max(worst_dh,
                           coord_subset_grad_check(f, value, n=3, seed=pseed))
        assert worst_dh < 2e-3, worst_dh

        elapsed = time.perf_counter() - start
        assert elapsed < 120.0, elapsed
        ok(f"gradient suite: ops {worst_op:.2e}, detection {worst_det:.2e}, "
           f"restoration {worst_dh:.2e} in {elapsed:.1f}s")


class TestAttentionCorrectness:
    def test_row_sums_and_bruteforce_parity(self):
        for seed in range(20):
            rng = tc.Rng(1100 + seed)
            q = rng.uniform(-2, 2, (4, 8))
            k = rng.uniform(-2, 2, (6, 8))
            v = rng.uniform(-2, 2, (6, 8))
            _, (_, _, _, w, _) = tc.attention(q, k, v)
            assert np.all(np.abs(w.sum(axis=-1) - 1.0) <= 1e-5)
            _, (inner, _) = tc.multi_head_attention(q, k, v, 2)
            assert np.all(np.abs(inner[3].sum(axis=-1) - 1.0) <= 1e-5)

        rng = tc.Rng(1120)
        q = rng.uniform(-1, 1, (1, 512)).astype(np.float64)
        kv = rng.uniform(-1, 1, (5, 512)).astype(np.float64)
        logits = (q @ kv.T) / math.sqrt(512)
        wref = np.exp(logits - logits.max())
        wref /= wref.sum()
        att, _ = tc.multi_head_attention(q, kv, kv, 1)
        assert np.allclose(att, wref @ kv, atol=1e-5)
        ok("attention: row sums 1±1e-5, cross attention matches brute force "
           "within 1e-5")


class TestFusionContracts:
    def test_gate_bound_and_bit_exact_contracts(self):
        params = fu.init_fusion(tc.Rng(1200), channels=8)
        rng = tc.Rng(1201)
        for _ in range(1000):
            feats = MultiScaleFeatures(*[rng.uniform(-2, 2, (8, s, s))
                                         for s in (8, 4, 2)])
            text = TextFeature(pooled=rng.uniform(-2, 2, (1, 512)),
                               tokens=rng.uniform(-2, 2, (3, 512)))
            fmap, cache = fu.fuse_forward(feats, fu.project_text(text, params), params)
            _, _, _, img, _, _, _, g, att, _, _ = cache
            out = g * img + (1.0 - g) * att
            assert np.all(out >= np.minimum(img, att) - 1e-5)
            assert np.all(out <= np.maximum(img, att) + 1e-5)
            # the map is the fused vector plus the position-0 encoding, laid
            # out row-major, and the float32 sum rounds as the float64 one
            assert np.array_equal(fmap, (out + fu.PE0).reshape(8, 8, 8))
            assert np.array_equal(
                fmap.reshape(1, 512),
                (out.astype(np.float64) + fu.PE0).astype(np.float32))
        ok("fusion: gate convexity on 1000 instances, map = fused + PE0 "
           "bit-exact in float32 and float64")


class TestLossSanity:
    def test_box_and_distribution_loss_sanity(self):
        rng = tc.Rng(1300)
        for _ in range(50):
            cx, cy = (float(a) for a in rng.uniform(0.2, 0.8, (2,)))
            w, h = (float(a) for a in rng.uniform(0.05, 0.4, (2,)))
            box = det.BBox(cx, cy, w, h)
            assert det.ciou_loss_with_grad(np.array([cx, cy, w, h]), box)[0] == 0.0
            ox, oy = (float(a) for a in rng.uniform(-0.1, 0.1, (2,)))
            other = det.BBox(cx + ox, cy + oy, w * 1.1, h * 0.9)
            assert (det.ciou_loss_with_grad(np.array([cx, cy, w, h]), other)[0]
                    >= (1.0 - det.iou(box, other)) - 1e-12)

        uniform = np.zeros(8)
        assert det.dfl_loss_with_grad(tc.softmax(uniform), 3.5)[0] == math.log(8.0)

        params, feat, targets = detect_scene(36)
        out = det.head_forward(feat, params)
        loss = det.detect_loss_with_grads(out, targets)[0]
        assert abs(loss.total - (det.LAMBDA_CLS * loss.l_cls
                                 + det.LAMBDA_BBOX * loss.l_bbox
                                 + det.LAMBDA_DFL * loss.l_dfl)) < 1e-9
        ok("losses: box loss zero at identity and >= 1-IoU, uniform "
           "distribution loss = ln(bins), objective the weighted sum of "
           "its terms")


class TestMetricsOracle:
    def test_ap_oracle_fixture_and_monotonicity(self):
        rng = tc.Rng(1400)
        for trial in range(100):
            n = 1 + int(rng.integers(10, 1)[0])
            gt_count = 1 + int(rng.integers(6, 1)[0])
            flags = [bool(rng.uniform(0, 1, (1,))[0] < 0.5) for _ in range(n)]
            if sum(flags) > gt_count:
                flags = [f and i < gt_count for i, f in enumerate(flags)]
            scores = [float(rng.uniform(0, 1, (1,))[0]) for _ in range(n)]
            if trial % 3 == 0:
                scores = [round(s, 1) for s in scores]
            a = mx.average_precision(flags, scores, gt_count)
            b = mx.average_precision_bruteforce(flags, scores, gt_count)
            assert abs(a - b) < 1e-9

        with open(FIXTURE) as fh:
            data = json.load(fh)
        preds = [(f, det.BBox(cx, cy, w, h, class_id=k, score=s))
                 for f, cx, cy, w, h, k, s in data["preds"]]
        gts = [(f, det.BBox(cx, cy, w, h, class_id=k))
               for f, cx, cy, w, h, k in data["gts"]]
        res = mx.map_at(preds, gts, thresholds=(0.5, 0.75))
        for thr_key, expected in data["expected"].items():
            assert abs(res[float(thr_key)].map - expected["map"]) < 1e-9
        assert res[0.75].map <= res[0.5].map + 1e-12

        for seed in range(10):
            srng = tc.Rng(1401 + seed)
            boxes = []
            for _ in range(12):
                cx, cy = (float(a) for a in srng.uniform(0.2, 0.8, (2,)))
                w, h = (float(a) for a in srng.uniform(0.05, 0.4, (2,)))
                k = int(srng.integers(3, 1)[0])
                s = float(srng.uniform(0.01, 0.99, (1,))[0])
                boxes.append(det.BBox(cx, cy, w, h, class_id=k, score=s))
            r = mx.map_at([(0, b) for b in boxes[:6]], [(0, b) for b in boxes[6:]],
                          thresholds=(0.5, 0.75))
            assert r[0.75].map <= r[0.5].map + 1e-12
        ok("metrics: AP equals threshold-enumeration oracle (1e-9), fixture "
           "reproduced, mAP@75 <= mAP@50")


class TestToyDetectionOverfit:
    def test_overfit_deterministic_under_time_budget(self):
        start = time.perf_counter()
        rows, _ = md.train_toy(seed=0, steps=200)
        elapsed = time.perf_counter() - start
        assert rows[0][0] == 1 and rows[-1][0] == 200
        assert rows[-1][1] < 0.2 * rows[0][1], (rows[0][1], rows[-1][1])
        prefix, _ = md.train_toy(seed=0, steps=10)
        assert prefix == rows[:10]
        assert elapsed < 300.0, elapsed
        ok(f"toy detection: loss {rows[0][1]:.3f} -> {rows[-1][1]:.3f} "
           f"({rows[-1][1] / rows[0][1]:.1%}) in {elapsed:.0f}s, "
           "deterministic per seed")


class TestToyDehazeDescent:
    def test_descent_and_identity_init(self):
        gen = dh.init_generator(tc.Rng(122), channels=8)
        rng = tc.Rng(124)
        images = [rng.uniform(0.1, 0.9, (3, 8, 8)) for _ in range(8)]

        opt = Adam(lr=2e-4)
        first = last = None
        for _ in range(50):
            params = dict(tc.param_items(gen))
            grads = {k: np.zeros(v.shape, np.float64) for k, v in params.items()}
            losses = []
            for clear in images:
                loss, g = dh.identity_loss_with_grads(gen, clear)
                losses.append(loss)
                for k, gv in g.items():
                    grads[k] += gv / len(images)
            mean_loss = float(np.mean(losses))
            first = mean_loss if first is None else first
            last = mean_loss
            for k, v in opt.step(params, grads).items():
                tc.set_param(gen, k, v)
        assert last <= 0.8 * first, (first, last)

        ident = dh.init_generator(tc.Rng(125), channels=4)
        ident.head.w = np.zeros_like(ident.head.w)
        image = tc.Rng(126).uniform(0.2, 0.8, (3, 8, 8))
        assert dh.identity_loss_with_grads(ident, image)[0] == 0.0
        ok(f"toy dehazing: 50 steps reduce mean identity loss {first:.2e} -> "
           f"{last:.2e} ({last / first:.1%}); identity-initialized "
           "generator scores exactly 0")


class TestRoutingFidelity:
    def test_adaptive_fidelity_and_fallback_accounting(self):
        bundle = md.init_bundle(130)
        rng = tc.Rng(131)
        frames = []
        for i in range(20):
            clear = np.clip(np.rint(rng.uniform(0.0, 0.3, (3, 32, 32)) * 255),
                            0, 255).astype(np.float32) / 255.0
            if i < 10:
                frames.append((i, np.asarray(
                    dh.synthesize_haze(clear, 0.15), np.float32)))
            else:
                frames.append((i, clear))
        policy = ec.OffloadPolicy("adaptive", tau=0.6)
        stats, results = ec.edge_serve(frames, policy, bundle,
                                       transport=ec.LoopbackTransport(bundle))
        assert stats.cloud == 10 and stats.edge == 10
        assert stats.edge + stats.cloud == stats.frames == 20
        for (fid, image), (_, route, _, _) in zip(frames, results):
            assert route is ec.decide_route(ec.haze_score(image), policy), fid

        fstats, fresults = ec.edge_serve(frames, policy, bundle,
                                         transport=DownTransport())
        assert fstats.edge + fstats.cloud == fstats.frames == 20
        assert fstats.degraded == 10  # every offload attempt fell back
        ok("routing: adaptive policy matches independent haze scores on "
           "20 frames; edge+cloud = frames including outage fallback")


class TestProtocolRobustness:
    def test_fuzz_and_cloud_local_parity(self):
        rng = tc.Rng(140)
        types = (ec.MSG_FRAME_REQUEST, ec.MSG_DETECTION_RESPONSE,
                 ec.MSG_PING, ec.MSG_PONG, ec.MSG_ERROR)
        for i in range(10000):
            t = types[int(rng.integers(5, 1)[0])]
            n = int(rng.integers(30, 1)[0])
            payload = bytes(int(v) for v in rng.integers(256, max(n, 1))[:n])
            msg = ec.WireMessage(t, payload)
            assert ec.decode_message(ec.encode_message(msg)) == msg

        crashes = 0
        for _ in range(10000):
            n = int(rng.integers(40, 1)[0])
            raw = bytes(int(v) for v in rng.integers(256, max(n, 1))[:n])
            try:
                ec.decode_message(raw)
            except ec.WireError:
                pass
            except Exception:
                crashes += 1
        assert crashes == 0

        bundle = md.init_bundle(141)
        raw = np.clip(np.rint(tc.Rng(142).uniform(0, 1, (3, 64, 64)) * 255),
                      0, 255)
        image = raw.astype(np.float32) / 255.0
        req = ec.encode_message(ec.WireMessage(
            ec.MSG_FRAME_REQUEST,
            ec.encode_frame_payload(ec.image_to_frame_payload(1, image))))
        reply = ec.decode_message(ec.handle_request(req, bundle,
                                                    "car, truck, bus"))
        _, remote, _ = ec.decode_detection_response(reply.payload)
        local, _ = md.detect_frame(image, "car, truck, bus", bundle,
                                   dehaze_first=True)
        assert remote == local
        ok("protocol: 10k roundtrips byte-exact, 10k corrupted inputs give "
           "structured errors, cloud route bit-exact vs local")


class TestThroughputConsistency:
    def test_bench_self_consistency_and_determinism(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # no weights.bin here: --seed builds them
        indir = tmp_path / "imgs"
        indir.mkdir()
        for i in range(2):
            raw = np.clip(np.rint(tc.Rng(151 + i).uniform(0, 1, (3, 32, 32))
                                  * 255), 0, 255)
            (indir / f"{i}.ppm").write_bytes(
                ppm.image_to_ppm_bytes(raw.astype(np.float32) / 255.0))
        outputs = []
        for run in range(2):
            report_path = tmp_path / f"bench{run}.json"
            dets_path = tmp_path / f"dets{run}.jsonl"
            assert cli.main(["bench", "--input-dir", str(indir),
                             "--repetitions", "3", "--mode", "always_edge",
                             "--seed", "150", "--output", str(report_path),
                             "--detections", str(dets_path)]) == 0
            report = json.loads(report_path.read_text())
            assert abs(report["fps"] - report["frames"] / report["wall_seconds"]) \
                <= 0.05 * report["fps"]
            outputs.append(dets_path.read_bytes())
        assert outputs[0] == outputs[1]
        ok(f"throughput: reported fps self-consistent within 5% "
           f"({report['fps']:.1f} fps); seeded reruns byte-identical")
