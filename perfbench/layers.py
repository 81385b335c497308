"""Which calls into yolovehicle are traced, and the per-layer metrics
derived from their spans.

Every wrapped attribute is one that the program looks up at call time
(module globals, `module.function` references and class methods), so the
wrapper is seen by every caller without a change to the program.
"""

from __future__ import annotations

import struct

import numpy as np

from spans import Layer, Target, Tracer

from yolovehicle import dehaze, detection, edgecloud, encoders, fusion
from yolovehicle import metrics, model, optim, tensor_core

# spans under these names are also summed as "name@scope"
SCOPES = ("dehaze.forward", "edgecloud.handle_request")

_FRAME_ID = struct.Struct("<Q")


def _conv2d_counts(args, kwargs, out):
    o, c, kh, kw = args[1].shape
    return {"mflop": 2.0 * o * c * kh * kw * out.shape[1] * out.shape[2] / 1e6}


def _decode_counts(args, kwargs, kept):
    thresh = args[1] if len(args) > 1 else kwargs.get("obj_thresh", 0.5)
    return {"candidates": int(np.count_nonzero(args[0].obj >= thresh)),
            "kept": len(kept)}


def _request_counts(args, kwargs, reply):
    return {"bytes": len(args[1])}


def _response_counts(args, kwargs, result):
    return {"inference_ms": result[2]}


def _request_frame_id(args, kwargs):
    """The frame id inside a frame request, so cloud spans share the edge
    operation's id."""
    buf = args[0]
    if len(buf) >= edgecloud.HEADER.size + _FRAME_ID.size \
            and buf[3] == edgecloud.MSG_FRAME_REQUEST:
        return _FRAME_ID.unpack_from(buf, edgecloud.HEADER.size)[0]
    return None


def make_tracer() -> Tracer:
    return Tracer([
        Target(tensor_core, "conv2d", "tensor_core.conv2d", _conv2d_counts),
        Target(tensor_core, "multi_head_attention", "tensor_core.mha"),
        Target(tensor_core, "multi_head_attention_backward",
               "tensor_core.mha_backward"),
        Target(encoders, "backbone_extract", "encoders.backbone"),
        Target(encoders, "text_encode", "encoders.text_encode"),
        Target(fusion, "fuse_forward", "fusion.fuse_forward"),
        Target(fusion, "fuse_backward", "fusion.fuse_backward"),
        Target(detection, "head_forward", "detection.head_forward"),
        Target(detection, "head_backward", "detection.head_backward"),
        Target(detection, "detect_loss_with_grads", "detection.loss_grads"),
        Target(detection, "decode_detections", "detection.decode",
               _decode_counts),
        Target(dehaze, "dehaze_forward", "dehaze.forward"),
        Target(model, "detect_frame", "model.detect_frame"),
        Target(model, "load_bundle", "model.load_bundle"),
        Target(optim.Adam, "step", "optim.adam_step"),
        Target(metrics, "map_at", "metrics.map_at"),
        Target(edgecloud, "haze_score", "edgecloud.haze_score"),
        Target(edgecloud, "image_to_frame_payload",
               "edgecloud.image_to_frame_payload"),
        Target(edgecloud, "encode_frame_payload",
               "edgecloud.encode_frame_payload"),
        Target(edgecloud, "encode_message", "edgecloud.encode_message"),
        Target(edgecloud.SocketTransport, "request", "edgecloud.request",
               _request_counts),
        Target(edgecloud, "decode_message", "edgecloud.decode_message"),
        Target(edgecloud, "decode_detection_response",
               "edgecloud.decode_response", _response_counts),
        Target(edgecloud, "handle_request", "edgecloud.handle_request",
               op=_request_frame_id),
    ])


# name -> (unit, better); the order BENCHMARK.json lists them in
PER_LAYER = {
    "detection.decode_ms": ("ms", "lower"),
    "detection.candidates_per_frame": ("count", "lower"),
    "detection.kept_per_frame": ("count", "lower"),
    "detection.head_forward_ms": ("ms", "lower"),
    "encoders.text_encode_ms": ("ms", "lower"),
    "fusion.fuse_forward_ms": ("ms", "lower"),
    "encoders.backbone_ms": ("ms", "lower"),
    "tensor_core.conv2d_ms": ("ms", "lower"),
    "tensor_core.conv2d_calls": ("count", "lower"),
    "tensor_core.conv2d_mflop": ("MFLOP", "lower"),
    "tensor_core.mha_ms": ("ms", "lower"),
    "edgecloud.haze_score_ms": ("ms", "lower"),
    "model.detect_frame_ms": ("ms", "lower"),
    "dehaze.forward_ms": ("ms", "lower"),
    "dehaze.conv2d_ms": ("ms", "lower"),
    "dehaze.attention_ms": ("ms", "lower"),
    "dehaze.other_ms": ("ms", "lower"),
    "edgecloud.cloud_compute_ms": ("ms", "lower"),
    "edgecloud.rtt_ms": ("ms", "lower"),
    "edgecloud.cloud_wait_ms": ("ms", "lower"),
    "edgecloud.request_encode_ms": ("ms", "lower"),
    "edgecloud.response_decode_ms": ("ms", "lower"),
    "edgecloud.request_bytes": ("bytes", "lower"),
    "edgecloud.uplink_bytes_per_frame": ("bytes", "lower"),
    "edgecloud.cloud_peak_rss_mb": ("MB", "lower"),
    "fusion.fuse_backward_ms": ("ms", "lower"),
    "detection.loss_grads_ms": ("ms", "lower"),
    "detection.head_backward_ms": ("ms", "lower"),
    "tensor_core.mha_backward_ms": ("ms", "lower"),
    "optim.adam_step_ms": ("ms", "lower"),
    "model.load_bundle_ms": ("ms", "lower"),
    "metrics.map_at_ms": ("ms", "lower"),
    "trace.spans_per_op": ("count", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}


def layer_metrics(summary: dict[str, Layer], ops: int, spans_in_ops: int,
                  overhead_pct: float, cloud_rss_mb: float) -> dict:
    """Per-layer metrics from a span summary of the traced blocks.

    Times and counts named per frame or per op are totals divided by the
    operations attempted in the traced blocks (a frame, or one training
    step), so a layer called several times per frame reports its whole
    cost. Request figures are means per cloud request; load_bundle and
    map_at are means per call. A layer the workload never calls reads 0.
    """
    empty = Layer()

    def get(key):
        return summary.get(key, empty)

    def per_op_ms(key):
        return get(key).total * 1e3 / ops

    def per_call(layer, value):
        return value / layer.calls if layer.calls else 0.0

    decode = get("detection.decode")
    conv = get("tensor_core.conv2d")
    requests = get("edgecloud.request")
    compute_ms = get("edgecloud.decode_response").counts.get("inference_ms", 0.0)
    encode_s = (get("edgecloud.image_to_frame_payload").total
                + get("edgecloud.encode_frame_payload").total
                + get("edgecloud.encode_message").total
                - get("edgecloud.encode_message@edgecloud.handle_request").total)
    decode_s = (get("edgecloud.decode_message").total
                - get("edgecloud.decode_message@edgecloud.handle_request").total
                + get("edgecloud.decode_response").total)
    req_bytes = requests.counts.get("bytes", 0.0)
    values = {
        "detection.decode_ms": per_op_ms("detection.decode"),
        "detection.candidates_per_frame":
            per_call(decode, decode.counts.get("candidates", 0.0)),
        "detection.kept_per_frame": per_call(decode, decode.counts.get("kept", 0.0)),
        "detection.head_forward_ms": per_op_ms("detection.head_forward"),
        "encoders.text_encode_ms": per_op_ms("encoders.text_encode"),
        "fusion.fuse_forward_ms": per_op_ms("fusion.fuse_forward"),
        "encoders.backbone_ms": per_op_ms("encoders.backbone"),
        "tensor_core.conv2d_ms": per_op_ms("tensor_core.conv2d"),
        "tensor_core.conv2d_calls": conv.calls / ops,
        "tensor_core.conv2d_mflop": conv.counts.get("mflop", 0.0) / ops,
        "tensor_core.mha_ms": per_op_ms("tensor_core.mha"),
        "edgecloud.haze_score_ms": per_op_ms("edgecloud.haze_score"),
        "model.detect_frame_ms": per_op_ms("model.detect_frame"),
        "dehaze.forward_ms": per_op_ms("dehaze.forward"),
        "dehaze.conv2d_ms": per_op_ms("tensor_core.conv2d@dehaze.forward"),
        "dehaze.attention_ms": per_op_ms("tensor_core.mha@dehaze.forward"),
        "dehaze.other_ms": get("dehaze.forward").self_time * 1e3 / ops,
        "edgecloud.cloud_compute_ms": per_call(requests, compute_ms),
        "edgecloud.rtt_ms": per_call(requests, requests.total * 1e3),
        "edgecloud.cloud_wait_ms":
            per_call(requests, requests.total * 1e3 - compute_ms),
        "edgecloud.request_encode_ms": per_call(requests, encode_s * 1e3),
        "edgecloud.response_decode_ms": per_call(requests, decode_s * 1e3),
        "edgecloud.request_bytes": per_call(requests, req_bytes),
        "edgecloud.uplink_bytes_per_frame": req_bytes / ops,
        "edgecloud.cloud_peak_rss_mb": cloud_rss_mb,
        "fusion.fuse_backward_ms": per_op_ms("fusion.fuse_backward"),
        "detection.loss_grads_ms": per_op_ms("detection.loss_grads"),
        "detection.head_backward_ms": per_op_ms("detection.head_backward"),
        "tensor_core.mha_backward_ms": per_op_ms("tensor_core.mha_backward"),
        "optim.adam_step_ms": per_op_ms("optim.adam_step"),
        "model.load_bundle_ms":
            per_call(get("model.load_bundle"), get("model.load_bundle").total * 1e3),
        "metrics.map_at_ms":
            per_call(get("metrics.map_at"), get("metrics.map_at").total * 1e3),
        "trace.spans_per_op": spans_in_ops / ops,
        "trace.overhead_pct": overhead_pct,
    }
    return {k: {"value": float(values[k]), "unit": PER_LAYER[k][0]}
            for k in PER_LAYER}
