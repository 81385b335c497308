import math

import numpy as np
import pytest

from yolovehicle import detection as det
from yolovehicle import tensor_core as tc


def ciou(pred, gt):
    return det.ciou_loss_with_grad(np.array([pred.cx, pred.cy, pred.w, pred.h]), gt)[0]


class TestHeadForward:
    def test_zero_weights_give_uniform_outputs(self):
        params = det.init_head(tc.Rng(1), channels=8, n_classes=3)
        for name, arr in tc.param_items(params):
            setattr(params, name, np.zeros_like(arr))
        feat = tc.Rng(2).uniform(-1, 1, (8, 2, 2))
        out = det.head_forward(feat, params)
        assert np.allclose(out.obj, 0.5)
        assert np.allclose(out.cls, 1 / 3)

    def test_matches_oracle_composition(self):
        params = det.init_head(tc.Rng(7), channels=8, n_classes=3)
        feat = tc.Rng(8).uniform(-1, 1, (8, 2, 2))
        out = det.head_forward(feat, params)
        # independent composition: 1x1 conv via conv2d, then sigmoid/softmax
        obj_ref = tc.sigmoid(tc.conv2d(feat, params.w_obj[:, :, None, None]) + params.b_obj[:, None, None])
        cls_ref = tc.softmax(tc.conv2d(feat, params.w_cls[:, :, None, None]) + params.b_cls[:, None, None], axis=0)
        box_ref = tc.conv2d(feat, params.w_box[:, :, None, None]) + params.b_box[:, None, None]
        assert np.allclose(out.obj, obj_ref, atol=1e-5)
        assert np.allclose(out.cls, cls_ref, atol=1e-5)
        assert np.allclose(out.box, box_ref, atol=1e-5)

    def test_shape_mismatch(self):
        params = det.init_head(tc.Rng(9), channels=8, n_classes=3)
        with pytest.raises(ValueError):
            det.head_forward(np.zeros((4, 2, 2), np.float32), params)


class TestIou:
    def test_identical(self):
        b = det.BBox(0.5, 0.5, 0.2, 0.3)
        assert det.iou(b, b) == 1.0

    def test_disjoint(self):
        assert det.iou(det.BBox(0.2, 0.2, 0.1, 0.1), det.BBox(0.8, 0.8, 0.1, 0.1)) == 0.0

    def test_half_offset_unit_squares(self):
        a = det.BBox(0.5, 0.5, 1.0, 1.0)
        b = det.BBox(1.0, 0.5, 1.0, 1.0)
        assert abs(det.iou(a, b) - 1 / 3) < 1e-9

    def test_symmetric_and_bounded(self):
        rng = tc.Rng(10)
        for _ in range(100):
            a = det.BBox(*rng.uniform(0.2, 0.8, (2,)), *rng.uniform(0.05, 0.4, (2,)))
            b = det.BBox(*rng.uniform(0.2, 0.8, (2,)), *rng.uniform(0.05, 0.4, (2,)))
            v = det.iou(a, b)
            assert 0.0 <= v <= 1.0
            assert abs(v - det.iou(b, a)) < 1e-12

    def test_monotone_under_translation_sweep(self):
        gt = det.BBox(0.5, 0.5, 0.2, 0.2)
        vals = [det.iou(det.BBox(0.5 + dx, 0.5, 0.2, 0.2), gt) for dx in np.linspace(0, 0.3, 16)]
        assert all(v1 >= v2 - 1e-12 for v1, v2 in zip(vals, vals[1:]))


class TestCiou:
    def test_identical_is_zero(self):
        b = det.BBox(0.4, 0.6, 0.25, 0.15)
        assert ciou(b, b) == 0.0

    def test_aspect_term_strictly_positive(self):
        pred = det.BBox(0.5, 0.5, 0.4, 0.1)
        gt = det.BBox(0.5, 0.5, 0.2, 0.2)
        assert ciou(pred, gt) > 1.0 - det.iou(pred, gt)

    def test_concrete_pair_stepwise_oracle(self):
        pred = det.BBox(0.45, 0.5, 0.2, 0.3)
        gt = det.BBox(0.55, 0.52, 0.25, 0.2)
        # independent step-by-step evaluation
        iou_v = det.iou(pred, gt)
        rho2 = (0.45 - 0.55) ** 2 + (0.5 - 0.52) ** 2
        px1, py1, px2, py2 = pred.corners()
        gx1, gy1, gx2, gy2 = gt.corners()
        cw = max(px2, gx2) - min(px1, gx1)
        ch = max(py2, gy2) - min(py1, gy1)
        v = (4 / math.pi ** 2) * (math.atan(0.25 / 0.2) - math.atan(0.2 / 0.3)) ** 2
        alpha = v / ((1 - iou_v) + v)
        expected = 1 - iou_v + rho2 / (cw ** 2 + ch ** 2) + alpha * v
        assert abs(ciou(pred, gt) - expected) < 1e-9

    def test_degenerate_gt_rejected(self):
        with pytest.raises(ValueError):
            ciou(det.BBox(0.5, 0.5, 0.1, 0.1), det.BBox(0.5, 0.5, 0.0, 0.1))

    def test_lower_bound_everywhere_sampled(self):
        rng = tc.Rng(11)
        for _ in range(200):
            pred = det.BBox(*rng.uniform(0.2, 0.8, (2,)), *rng.uniform(0.05, 0.4, (2,)))
            gt = det.BBox(*rng.uniform(0.2, 0.8, (2,)), *rng.uniform(0.05, 0.4, (2,)))
            assert ciou(pred, gt) >= 1.0 - det.iou(pred, gt) - 1e-12

    def test_alpha_matches_definition(self):
        pred = np.array([0.45, 0.5, 0.2, 0.3])
        gt = det.BBox(0.55, 0.52, 0.25, 0.2)
        iou_v = det.iou(det.BBox(*pred), gt)
        v = (4 / math.pi ** 2) * (math.atan(0.25 / 0.2) - math.atan(0.2 / 0.3)) ** 2
        _, _, alpha = det.ciou_loss_with_grad(pred, gt)
        assert abs(alpha - v / ((1 - iou_v) + v)) < 1e-12

    def test_pinned_alpha_changes_only_aspect_term(self):
        pred = np.array([0.45, 0.5, 0.2, 0.3])
        gt = det.BBox(0.55, 0.52, 0.25, 0.2)
        free, _, alpha = det.ciou_loss_with_grad(pred, gt)
        pinned, _, same = det.ciou_loss_with_grad(pred, gt, alpha=alpha)
        assert abs(free - pinned) < 1e-12
        assert same == alpha

    def test_returned_alpha_reproduces_the_loss_bit_for_bit(self):
        # pair 13 of this stream is one where an alpha recomputed from the
        # boxes' w * h areas, rather than the loss's own corner differences,
        # moves the loss by an ulp
        rng = np.random.default_rng(0)
        for i in range(40):
            pred = rng.uniform(0.05, 0.9, 4)
            gt = det.BBox(*rng.uniform(0.05, 0.9, 4))
            free, grad, alpha = det.ciou_loss_with_grad(pred, gt)
            pinned, pgrad, _ = det.ciou_loss_with_grad(pred, gt, alpha=alpha)
            assert pinned == free, i
            assert np.array_equal(pgrad, grad), i

    def test_grad_check(self):
        # the aspect weight is held constant during differentiation, so the
        # numeric check evaluates the loss with that weight pinned; samples
        # whose corners nearly coincide with the target's are skipped because
        # finite differences straddle the min/max kinks there
        rng = tc.Rng(12)
        checked = 0
        while checked < 20:
            gt = det.BBox(*rng.uniform(0.3, 0.7, (2,)), *rng.uniform(0.1, 0.4, (2,)))
            pred0 = np.concatenate([rng.uniform(0.3, 0.7, (2,)), rng.uniform(0.1, 0.4, (2,))])
            pc = det.BBox(*pred0).corners()
            gc = gt.corners()
            if min(abs(p - g) for p in pc for g in gc) < 5e-3:
                continue
            alpha = det.ciou_loss_with_grad(pred0, gt)[2]

            def f(p, gt=gt, alpha=alpha):
                return det.ciou_loss_with_grad(p, gt, alpha=alpha)[:2]

            assert tc.grad_check(f, pred0.astype(np.float64)) < 1e-3
            checked += 1


class TestDfl:
    def test_one_hot_saturated(self):
        logits = np.zeros(8)
        logits[3] = 100.0
        assert det.dfl_loss_with_grad(tc.softmax(logits), 3.0)[0] < 1e-6

    def test_uniform_logits_ln_bins(self):
        for t in range(8):
            assert abs(det.dfl_loss_with_grad(tc.softmax(np.zeros(8)), float(t))[0] - math.log(8)) < 1e-9

    def test_fractional_hand_eval(self):
        logits = np.array([0.1, -0.3, 0.2, 0.5, -0.1, 0.0, 0.4, -0.2])
        p = np.exp(logits - logits.max())
        p /= p.sum()
        expected = -(0.5 * math.log(p[2]) + 0.5 * math.log(p[3]))
        assert abs(det.dfl_loss_with_grad(tc.softmax(logits), 2.5)[0] - expected) < 1e-9

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            det.dfl_loss_with_grad(tc.softmax(np.zeros(8)), 7.5)

    def test_nonnegative(self):
        rng = tc.Rng(13)
        for _ in range(50):
            logits = rng.uniform(-2, 2, (8,))
            t = float(rng.uniform(0, 7, (1,))[0])
            assert det.dfl_loss_with_grad(tc.softmax(logits), t)[0] >= 0

    def test_grad_check(self):
        rng = tc.Rng(14)
        for _ in range(10):
            logits0 = rng.uniform(-1, 1, (8,)).astype(np.float64)
            t = float(rng.uniform(0, 7, (1,))[0])

            def f(lg):
                return det.dfl_loss_with_grad(tc.softmax(lg), t)

            assert tc.grad_check(f, logits0) < 1e-3

    def test_descent_reaches_two_bin_optimum(self):
        # gradient descent over logits at fixed fractional target converges to
        # the two-bin distribution matching the target's fractional position
        target = 2.3
        logits = np.zeros(8)
        for _ in range(30000):
            _, g = det.dfl_loss_with_grad(tc.softmax(logits), target)
            logits = logits - 1.0 * g
        p = np.exp(logits - logits.max())
        p /= p.sum()
        assert abs(p[2] - 0.7) < 1e-4
        assert abs(p[3] - 0.3) < 1e-4


class TestAssignTargets:
    def test_single_centered_gt(self):
        t = det.assign_targets([det.BBox(0.5, 0.5, 0.4, 0.4)], (2, 2))
        assert t.obj.sum() == 1.0
        assert t.obj[1, 1] == 1.0  # center 0.5 falls into the second cell

    def test_no_gts_all_negative(self):
        t = det.assign_targets([], (4, 4))
        assert t.obj.sum() == 0.0
        assert not t.boxes

    def test_collision_larger_area_wins(self):
        small = det.BBox(0.3, 0.3, 0.1, 0.1, class_id=0)
        large = det.BBox(0.28, 0.28, 0.3, 0.3, class_id=1)
        for order in ([small, large], [large, small]):
            t = det.assign_targets(order, (2, 2))
            assert t.boxes[(0, 0)].class_id == 1

    def test_distances_clamped(self):
        t = det.assign_targets([det.BBox(0.5, 0.5, 1.0, 1.0)], (2, 2))
        assert np.all(t.dist >= 0) and np.all(t.dist <= 7)


class TestDetectLoss:
    def make_scene(self, seed=20, grid=(2, 2), n_classes=3):
        rng = tc.Rng(seed)
        params = det.init_head(rng, channels=8, n_classes=n_classes)
        feat = tc.Rng(seed + 1).uniform(-1, 1, (8,) + grid)
        out = det.head_forward(feat, params)
        gts = [det.BBox(0.3, 0.3, 0.25, 0.3, class_id=1), det.BBox(0.7, 0.6, 0.2, 0.2, class_id=0)]
        targets = det.assign_targets(gts, grid)
        return params, feat, out, targets

    def test_no_gts_saturated_obj_vanishes(self):
        params, feat, out, _ = self.make_scene()
        out.obj_logits = np.full_like(out.obj_logits, -50.0)
        out.obj = tc.sigmoid(out.obj_logits)
        targets = det.assign_targets([], (2, 2))
        loss = det.detect_loss_with_grads(out, targets, det.DetectLossWeights())[0]
        assert loss.total < 1e-6
        assert loss.l_bbox == 0.0 and loss.l_dfl == 0.0

    def test_weight_zeroing(self):
        _, _, out, targets = self.make_scene()
        loss = det.detect_loss_with_grads(out, targets, det.DetectLossWeights(1.0, 0.0, 0.0))[0]
        assert loss.total == loss.l_cls

    def test_weighted_sum_of_independent_terms(self):
        _, _, out, targets = self.make_scene()
        w = det.DetectLossWeights()
        loss = det.detect_loss_with_grads(out, targets, w)[0]
        expected = w.lambda_cls * loss.l_cls + w.lambda_bbox * loss.l_bbox + w.lambda_dfl * loss.l_dfl
        assert abs(loss.total - expected) < 1e-9

    def test_linear_in_weights(self):
        _, _, out, targets = self.make_scene()
        a = det.detect_loss_with_grads(out, targets, det.DetectLossWeights(0.6, 7.0, 0.4))[0].total
        b = det.detect_loss_with_grads(out, targets, det.DetectLossWeights(1.2, 14.0, 0.8))[0].total
        assert abs(b - 2 * a) < 1e-9

    def test_invalid_weights(self):
        with pytest.raises(ValueError):
            det.DetectLossWeights(0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            det.DetectLossWeights(-1.0, 1.0, 1.0)
        # the error names the field
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError,
                               match="lambda_cls must be non-negative and finite"):
                det.DetectLossWeights(bad, 1.0, 1.0)
        with pytest.raises(ValueError, match="lambda_dfl must be non-negative"):
            det.DetectLossWeights(1.0, 1.0, -0.5)

    def test_frozen_alphas_reproduce_the_total_bit_for_bit(self):
        # a seeded scene whose decoded box is one of the rare pairs where an
        # alpha recomputed with other arithmetic moves the total by an ulp
        rng = np.random.default_rng(2874)
        zero, zero_cls = np.zeros((1, 8, 8)), np.zeros((3, 8, 8))
        out = det.HeadOutput(obj=zero, box=rng.uniform(-3, 3, (32, 8, 8)),
                             cls=zero_cls, obj_logits=zero,
                             cls_logits=zero_cls)
        gt = det.BBox(*rng.uniform(0.1, 0.9, 2), *rng.uniform(0.05, 0.6, 2))
        targets = det.assign_targets([gt], (8, 8))
        weights = det.DetectLossWeights()
        base, grads = det.detect_loss_with_grads(out, targets, weights)
        again, again_grads = det.detect_loss_with_grads(
            out, targets, weights, frozen_alphas=base.alphas)
        assert again.total == base.total
        assert again.l_bbox == base.l_bbox
        assert again.alphas == base.alphas
        for g, h in zip(grads, again_grads):
            assert np.array_equal(g, h)

    def test_grad_check_wrt_head_params(self):
        from gradutil import coord_subset_grad_check

        params, feat, out0, targets = self.make_scene()
        weights = det.DetectLossWeights()
        feat64 = feat.astype(np.float64)
        # the aspect weight inside the box loss is a constant as far as the
        # gradients are concerned; pin it at the base point so the numeric
        # check differentiates exactly the same function
        base, _ = det.detect_loss_with_grads(out0, targets, weights)
        frozen = base.alphas

        for seed, (name, value) in enumerate(tc.param_items(params)):
            def f(p, name=name):
                trial = det.HeadParams(**{**params.__dict__})
                setattr(trial, name, p)
                out = det.head_forward(feat64, trial)
                loss, (g_obj, g_box, g_cls) = det.detect_loss_with_grads(
                    out, targets, weights, frozen_alphas=frozen)
                grads, _ = det.head_backward(feat64, trial, g_obj, g_box, g_cls)
                return loss.total, getattr(grads, name)

            err = coord_subset_grad_check(f, value, n=6, seed=seed)
            assert err < 1e-3, f"{name}: {err}"


class TestDecode:
    def saturated_output(self, grid=(2, 2), n_classes=3):
        h, w = grid
        nb = det.REG_MAX + 1
        obj_logits = np.full((1, h, w), -50.0)
        box = np.zeros((4 * nb, h, w))
        cls_logits = np.zeros((n_classes, h, w))
        return det.HeadOutput(obj=tc.sigmoid(obj_logits), box=box,
                              cls=tc.softmax(cls_logits, axis=0),
                              obj_logits=obj_logits, cls_logits=cls_logits)

    def set_cell(self, out, r, c, dists, class_id):
        out.obj_logits[0, r, c] = 50.0
        out.obj = tc.sigmoid(out.obj_logits)
        nb = det.REG_MAX + 1
        for side, d in enumerate(dists):
            out.box[side * nb + int(d), r, c] = 100.0
        out.cls_logits[class_id, r, c] = 10.0
        out.cls = tc.softmax(out.cls_logits, axis=0)

    def test_all_below_threshold_empty(self):
        assert det.decode_detections(self.saturated_output()) == []

    def test_single_confident_cell(self):
        out = self.saturated_output(grid=(4, 4))
        self.set_cell(out, 1, 2, (1, 1, 1, 1), class_id=2)
        dets = det.decode_detections(out, 0.5, 0.5)
        assert len(dets) == 1
        assert dets[0].class_id == 2
        # cell (1,2) center (0.625, 0.375), one cell (0.25) on each side
        assert abs(dets[0].cx - 0.625) < 1e-6
        assert abs(dets[0].cy - 0.375) < 1e-6
        assert abs(dets[0].w - 0.5) < 1e-6
        assert abs(dets[0].h - 0.5) < 1e-6

    def test_nms_suppresses_duplicate(self):
        out = self.saturated_output(grid=(1, 2))
        # two cells decoding to the same large box, different scores
        for c, logit in ((0, 3.0), (1, 2.0)):
            out.obj_logits[0, 0, c] = logit
            nb = det.REG_MAX + 1
            ccx = (c + 0.5) / 2
            # aim both boxes at the full unit square via saturated distances
            for side in range(4):
                out.box[side * nb + 7, 0, c] = 100.0
        out.obj = tc.sigmoid(out.obj_logits)
        out.cls = tc.softmax(out.cls_logits, axis=0)
        dets = det.decode_detections(out, 0.5, 0.5)
        assert len(dets) == 1
        assert abs(dets[0].score - tc.sigmoid(np.array(3.0))) < 1e-6

    def test_float32_objectness_at_threshold_compared_in_float64(self):
        # np.float32(0.7) is 0.69999998..., below 0.7; numpy 2 would compare
        # a float32 array with the Python float 0.7 in float32 and call them equal
        out = self.saturated_output(grid=(2, 2))
        self.set_cell(out, 0, 1, (1, 1, 1, 1), class_id=0)
        out.obj = out.obj.astype(np.float32)
        out.obj[0, 0, 1] = np.float32(0.7)
        assert det.decode_detections(out, 0.7, 0.5) == []
        assert len(det.decode_detections(out, float(np.float32(0.7)), 0.5)) == 1

    @pytest.mark.parametrize("obj_thresh, nms_iou, name", [
        (1.5, 0.5, "obj_thresh"), (0.0, 0.5, "obj_thresh"),
        (float("nan"), 0.5, "obj_thresh"), (0.5, 1.0, "nms_iou"),
        (0.5, -0.1, "nms_iou"), (0.5, float("inf"), "nms_iou"),
    ])
    def test_threshold_outside_unit_interval_is_named(self, obj_thresh, nms_iou, name):
        with pytest.raises(ValueError, match=rf"^{name} must lie in \(0, 1\), got "):
            det.decode_detections(self.saturated_output(), obj_thresh, nms_iou)

    def test_decode_assign_roundtrip(self):
        out = self.saturated_output(grid=(4, 4))
        cells = [(0, 0, 1), (2, 3, 0), (3, 1, 2)]
        for r, c, k in cells:
            self.set_cell(out, r, c, (1, 1, 1, 1), class_id=k)
        dets = det.decode_detections(out, 0.5, 0.5)
        targets = det.assign_targets(dets, (4, 4))
        assert set(targets.boxes.keys()) == {(r, c) for r, c, _ in cells}


class TestJsonl:
    def test_roundtrip(self):
        dets = [det.BBox(0.5, 0.5, 0.2, 0.3, class_id=1, score=0.9)]
        text = det.detections_to_jsonl(dets, frame_id=7, inference_ms=3.5)
        back = det.jsonl_to_detections(text)
        assert back[0][0] == 7
        assert back[0][1].class_id == 1
        assert back[0][1].cx == 0.5

    def test_ground_truth_without_score(self):
        line = '{"frame_id": 0, "class_id": 2, "cx": 0.1, "cy": 0.2, "w": 0.3, "h": 0.4}\n'
        back = det.jsonl_to_detections(line)
        assert back[0][1].score == 1.0

    @pytest.mark.parametrize("bad, reason", [
        ('[1, 2]', "JSON object"),
        ('{"frame_id": 0, "class_id": 0, "cx": 0.5, "w": 0.1, "h": 0.1}', "'cy'"),
        ('{"frame_id": 0, "class_id": 0, "cx": "0.5", "cy": 0.5, "w": 0.1, "h": 0.1}',
         "cx is not a number"),
        ('{"frame_id": 0, "class_id": true, "cx": 0.5, "cy": 0.5, "w": 0.1, "h": 0.1}',
         "class_id is not a number"),
        ('{"frame_id": 0, "class_id": 0, "cx": 0.5, "cy": 0.5, "w": 0.1, "h": 0.1, '
         '"score": null}', "score is not a number"),
        ('{"frame_id": 0, "class_id": 0, "cx": 0.5, "cy": 0.5, "w": -1, "h": 0.1}',
         "w must be finite and positive"),
        ('{"frame_id": 0, "class_id": 0, "cx": 0.5, "cy": 0.5, "w": 0.1, "h": 0}',
         "h must be finite and positive"),
        ('{"frame_id": 0, "class_id": 0, "cx": 0.5, "cy": 0.5, "w": NaN, "h": 0.1}',
         "w must be finite and positive"),
        ('{"frame_id": 0, "class_id": 0, "cx": 0.5, "cy": 0.5, "w": 0.1, "h": Infinity}',
         "h must be finite and positive"),
        ('{"frame_id": Infinity, "class_id": 0, "cx": 0.5, "cy": 0.5, "w": 0.1, "h": 0.1}',
         "frame_id must be a whole number"),
        ('{"frame_id": 0, "class_id": 1.7, "cx": 0.5, "cy": 0.5, "w": 0.1, "h": 0.1}',
         "class_id must be a whole number"),
        ('{"frame_id": 0, "class_id": -1, "cx": 0.5, "cy": 0.5, "w": 0.1, "h": 0.1}',
         "class_id must not be negative"),
        ('{"frame_id": 0, "class_id": 0, "cx": NaN, "cy": 0.5, "w": 0.1, "h": 0.1}',
         "cx must be finite"),
        ('{"frame_id": 0, "class_id": 0, "cx": 0.5, "cy": -Infinity, "w": 0.1, "h": 0.1}',
         "cy must be finite"),
        ('{"frame_id": 0, "class_id": 0, "cx": 0.5, "cy": 0.5, "w": 0.1, "h": 0.1, '
         '"score": NaN}', "score must be finite"),
        ('{"frame_id": 0, "class_id": 0, "cx": 0.5, "cy": 0.5, "w": 0.1, "h": 0.1, '
         '"score": Infinity}', "score must be finite"),
        ('{"frame_id": 0, "class_id": 0, "cx": 1e400, "cy": 0.5, "w": 0.1, "h": 0.1}',
         "cx must be finite"),
        ('{"frame_id": 0, "class_id": 0, "cx": 1%s, "cy": 0.5, "w": 0.1, "h": 0.1}'
         % ("0" * 400), "too large"),
    ], ids=["array", "missing_key", "string_value", "bool_value", "null_score",
            "negative_w", "zero_h", "nan_w", "infinite_h", "infinite_frame_id",
            "fractional_class_id", "negative_class_id", "nan_cx", "infinite_cy", "nan_score",
            "infinite_score", "overflowing_cx", "huge_integer_cx"])
    def test_bad_record_reports_line(self, bad, reason):
        good = '{"frame_id": 0, "class_id": 0, "cx": 0.5, "cy": 0.5, "w": 0.1, "h": 0.1}'
        with pytest.raises(ValueError, match="line 2") as info:
            det.jsonl_to_detections(good + "\n" + bad + "\n")
        assert reason in str(info.value)

    def test_bad_json_reports_line(self):
        with pytest.raises(ValueError, match="line 2"):
            det.jsonl_to_detections('{"frame_id":0,"class_id":0,"cx":0,"cy":0,"w":1,"h":1}\nnot json\n')
