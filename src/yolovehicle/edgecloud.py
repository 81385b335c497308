"""Edge-cloud collaborative serving: framed wire protocol, haze scoring,
the offload policy, the cloud detection server, and the edge loop.

Routing: the edge node runs the plain detection pipeline locally; frames
judged hazy are offloaded to the cloud node, which runs the heavier
dehaze-then-detect pipeline. The wire protocol is byte-exact so a frame
detected via the cloud route yields bit-identical detections to running
the same pipeline locally with the same weights.
"""

from __future__ import annotations

import os
import socket
import socketserver
import struct
import time
import zlib
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy import ndimage

from . import detection as det
from . import model as md
from .metrics import TimingRecord, throughput
from .ppm import read_ppm

MAGIC = b"\x59\x56"
VERSION = 0x01

MSG_FRAME_REQUEST = 0x01
MSG_DETECTION_RESPONSE = 0x02
MSG_PING = 0x03
MSG_PONG = 0x04
MSG_ERROR = 0x05
_KNOWN_TYPES = (MSG_FRAME_REQUEST, MSG_DETECTION_RESPONSE, MSG_PING,
                MSG_PONG, MSG_ERROR)

HEADER = struct.Struct("<2sBBI")  # magic, version, msg_type, payload_len
MAX_PAYLOAD = 64 * 1024 * 1024


class WireError(ValueError):
    """Base for all protocol decode failures; carries a stable reason code."""
    code = 0


class BadMagic(WireError):
    code = 1


class BadVersion(WireError):
    code = 2


class BadLength(WireError):
    code = 3


class BadCrc(WireError):
    code = 4


class UnknownType(WireError):
    code = 5


@dataclass
class WireMessage:
    msg_type: int
    payload: bytes = b""


def encode_message(msg: WireMessage) -> bytes:
    if msg.msg_type not in _KNOWN_TYPES:
        raise UnknownType(f"unknown message type {msg.msg_type:#04x}")
    if len(msg.payload) > MAX_PAYLOAD:
        raise BadLength(f"payload too large: {len(msg.payload)} bytes")
    header = HEADER.pack(MAGIC, VERSION, msg.msg_type, len(msg.payload))
    crc = struct.pack("<I", zlib.crc32(msg.payload) & 0xFFFFFFFF)
    return header + msg.payload + crc


def decode_message(buf: bytes) -> WireMessage:
    """Decodes exactly one frame; raises a typed WireError, never crashes."""
    if len(buf) < HEADER.size:
        raise BadLength(f"frame shorter than header: {len(buf)} bytes")
    magic, version, msg_type, payload_len = HEADER.unpack_from(buf)
    if magic != MAGIC:
        raise BadMagic(f"bad magic {magic!r}")
    if version != VERSION:
        raise BadVersion(f"unsupported version {version:#04x}")
    if payload_len > MAX_PAYLOAD:
        raise BadLength(f"declared payload too large: {payload_len} bytes")
    if len(buf) != HEADER.size + payload_len + 4:
        raise BadLength(f"frame is {len(buf)} bytes, expected "
                        f"{HEADER.size + payload_len + 4}")
    payload = buf[HEADER.size:HEADER.size + payload_len]
    (crc,) = struct.unpack_from("<I", buf, HEADER.size + payload_len)
    if crc != zlib.crc32(payload) & 0xFFFFFFFF:
        raise BadCrc("payload checksum mismatch")
    if msg_type not in _KNOWN_TYPES:
        raise UnknownType(f"unknown message type {msg_type:#04x}")
    return WireMessage(msg_type, payload)


# ---------------------------------------------------------------------------
# payloads


@dataclass
class FramePayload:
    frame_id: int
    width: int
    height: int
    channels: int
    pixels: bytes  # row-major RGB, one byte per sample

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError(f"bad dimensions {self.width}x{self.height}")
        if self.channels != 3:
            raise ValueError(f"channels must be 3, got {self.channels}")
        want = self.width * self.height * self.channels
        if len(self.pixels) != want:
            raise ValueError(f"pixel buffer is {len(self.pixels)} bytes, "
                             f"expected {want}")


_FRAME_HEAD = struct.Struct("<QHHB")


def encode_frame_payload(frame: FramePayload) -> bytes:
    return _FRAME_HEAD.pack(frame.frame_id, frame.width, frame.height,
                            frame.channels) + frame.pixels


def decode_frame_payload(buf: bytes) -> FramePayload:
    if len(buf) < _FRAME_HEAD.size:
        raise ValueError("frame payload truncated")
    frame_id, width, height, channels = _FRAME_HEAD.unpack_from(buf)
    return FramePayload(frame_id, width, height, channels,
                        buf[_FRAME_HEAD.size:])


def image_to_frame_payload(frame_id: int, image: np.ndarray) -> FramePayload:
    if image.ndim != 3 or image.shape[0] != 3:
        raise ValueError(f"expected a 3xHxW image, got {image.shape}")
    _, h, w = image.shape
    pixels = np.clip(np.rint(image * 255.0), 0, 255).astype(np.uint8)
    return FramePayload(frame_id, w, h, 3, pixels.transpose(1, 2, 0).tobytes())


def frame_payload_to_image(frame: FramePayload) -> np.ndarray:
    arr = np.frombuffer(frame.pixels, dtype=np.uint8)
    arr = arr.reshape(frame.height, frame.width, 3).transpose(2, 0, 1)
    return arr.astype(np.float32) / 255.0


_RESP_HEAD = struct.Struct("<QdI")
_RESP_DET = struct.Struct("<dddddi")


def encode_detection_response(frame_id: int, dets: list[det.BBox],
                              inference_ms: float) -> bytes:
    out = [_RESP_HEAD.pack(frame_id, inference_ms, len(dets))]
    for d in dets:
        out.append(_RESP_DET.pack(d.cx, d.cy, d.w, d.h, d.score, d.class_id))
    return b"".join(out)


def decode_detection_response(buf: bytes):
    """Returns (frame_id, detections, inference_ms); doubles on the wire so
    the cloud route reproduces local detections bit-exactly."""
    if len(buf) < _RESP_HEAD.size:
        raise ValueError("detection response truncated")
    frame_id, inference_ms, count = _RESP_HEAD.unpack_from(buf)
    if len(buf) != _RESP_HEAD.size + count * _RESP_DET.size:
        raise ValueError("detection response length mismatch")
    dets = []
    for i in range(count):
        cx, cy, w, h, score, class_id = _RESP_DET.unpack_from(
            buf, _RESP_HEAD.size + i * _RESP_DET.size)
        dets.append(det.BBox(cx, cy, w, h, class_id=class_id, score=score))
    return frame_id, dets, inference_ms


def encode_error(exc: Exception) -> bytes:
    code = exc.code if isinstance(exc, WireError) else 0
    payload = bytes([code]) + str(exc).encode("utf-8", "replace")
    return encode_message(WireMessage(MSG_ERROR, payload))


# ---------------------------------------------------------------------------
# haze scoring and routing


def haze_score(image: np.ndarray) -> float:
    """Mean of the dark channel: 7x7 minimum filter (edge-replicated) over
    the per-pixel channel minimum. High for uniformly bright, washed-out
    frames, near zero whenever dark patches survive."""
    if image.ndim != 3 or image.shape[0] != 3:
        raise ValueError(f"expected a 3xHxW image, got {image.shape}")
    dark = ndimage.minimum_filter(image.min(axis=0), size=7, mode="nearest")
    return float(dark.mean())


class Route(Enum):
    EDGE = "edge"
    CLOUD = "cloud"


@dataclass
class OffloadPolicy:
    mode: str = "adaptive"  # always_edge | always_cloud | adaptive
    tau: float = 0.6

    def __post_init__(self):
        if self.mode not in ("always_edge", "always_cloud", "adaptive"):
            raise ValueError(f"unknown policy mode {self.mode!r}")
        if not 0.0 <= self.tau <= 1.0:
            raise ValueError(f"tau must lie in [0, 1], got {self.tau}")


def decide_route(score: float, policy: OffloadPolicy) -> Route:
    if not 0.0 <= score <= 1.0:
        raise ValueError(f"haze score must lie in [0, 1], got {score}")
    if policy.mode == "always_edge":
        return Route.EDGE
    if policy.mode == "always_cloud":
        return Route.CLOUD
    return Route.CLOUD if score > policy.tau else Route.EDGE


# ---------------------------------------------------------------------------
# cloud node


def handle_request(buf: bytes, bundle: md.ModelBundle, text: str,
                   obj_thresh: float = 0.5, nms_iou: float = 0.5) -> bytes:
    """One request frame in, one response frame out; all failures are
    reported as Error frames rather than raised."""
    try:
        msg = decode_message(buf)
    except WireError as e:
        return encode_error(e)
    if msg.msg_type == MSG_PING:
        return encode_message(WireMessage(MSG_PONG, msg.payload))
    if msg.msg_type != MSG_FRAME_REQUEST:
        return encode_error(UnknownType(
            f"cannot serve message type {msg.msg_type:#04x}"))
    try:
        frame = decode_frame_payload(msg.payload)
        image = frame_payload_to_image(frame)
        dets, ms = md.detect_frame(image, text, bundle, dehaze_first=True,
                                   obj_thresh=obj_thresh, nms_iou=nms_iou)
    except Exception as e:
        return encode_error(e)
    return encode_message(WireMessage(
        MSG_DETECTION_RESPONSE,
        encode_detection_response(frame.frame_id, dets, ms)))


class LoopbackTransport:
    """In-process stand-in for the socket link; same framed contract."""

    def __init__(self, bundle: md.ModelBundle, text: str = "car, truck, bus",
                 obj_thresh: float = 0.5, nms_iou: float = 0.5,
                 fail: bool = False):
        self.bundle = bundle
        self.text = text
        self.obj_thresh = obj_thresh
        self.nms_iou = nms_iou
        self.fail = fail

    def request(self, data: bytes) -> bytes:
        if self.fail:
            raise ConnectionError("loopback transport forced offline")
        return handle_request(data, self.bundle, self.text,
                              self.obj_thresh, self.nms_iou)

    def close(self):
        pass


def _recv_exact(sock, n: int) -> bytes:
    chunks = []
    while n > 0:
        chunk = sock.recv(n)
        if not chunk:
            raise ConnectionError("connection closed mid-frame")
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def _recv_frame(sock) -> bytes:
    """One length-delimited frame off the stream. Resynchronization relies
    on the length field, so it is read before the header is validated."""
    head = _recv_exact(sock, HEADER.size)
    (payload_len,) = struct.unpack_from("<I", head, 4)
    if payload_len > MAX_PAYLOAD:
        raise BadLength(f"declared payload too large: {payload_len} bytes")
    return head + _recv_exact(sock, payload_len + 4)


class SocketTransport:
    """Persistent client connection to a cloud node; strict request/response
    order on the single stream."""

    def __init__(self, addr: str, timeout_ms: float = 1000.0):
        host, _, port = addr.rpartition(":")
        self.addr = (host or "127.0.0.1", int(port))
        self.timeout_ms = timeout_ms
        self.sock = None

    def request(self, data: bytes) -> bytes:
        if self.sock is None:
            self.sock = socket.create_connection(
                self.addr, timeout=self.timeout_ms / 1000.0)
        try:
            self.sock.sendall(data)
            return _recv_frame(self.sock)
        except Exception:
            self.close()
            raise

    def close(self):
        if self.sock is not None:
            self.sock.close()
            self.sock = None


class _CloudHandler(socketserver.BaseRequestHandler):
    def handle(self):
        server = self.server
        while True:
            try:
                buf = _recv_frame(self.request)
            except ConnectionError:
                return
            except WireError as e:
                # framing is unrecoverable without a trusted length field
                self.request.sendall(encode_error(e))
                return
            except OSError:
                return
            reply = handle_request(buf, server.bundle, server.text,
                                   server.obj_thresh, server.nms_iou)
            try:
                self.request.sendall(reply)
            except OSError:
                return


class CloudServer(socketserver.ThreadingTCPServer):
    """Threaded cloud node: concurrent connections, FIFO per connection,
    weights shared read-only."""
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, addr: str, bundle: md.ModelBundle,
                 text: str = "car, truck, bus", obj_thresh: float = 0.5,
                 nms_iou: float = 0.5):
        host, _, port = addr.rpartition(":")
        super().__init__((host or "127.0.0.1", int(port)), _CloudHandler)
        self.bundle = bundle
        self.text = text
        self.obj_thresh = obj_thresh
        self.nms_iou = nms_iou

    @property
    def addr(self) -> str:
        host, port = self.server_address[:2]
        return f"{host}:{port}"


def cloud_serve(listen_addr: str, bundle: md.ModelBundle,
                text: str = "car, truck, bus", obj_thresh: float = 0.5,
                nms_iou: float = 0.5) -> None:
    """Blocking server loop; runs until interrupted."""
    with CloudServer(listen_addr, bundle, text, obj_thresh, nms_iou) as server:
        _log(f"cloud node listening on {server.addr}")
        server.serve_forever()


# ---------------------------------------------------------------------------
# edge node


@dataclass
class NodeStats:
    frames: int = 0
    edge: int = 0
    cloud: int = 0
    degraded: int = 0
    latency_ms: list = field(default_factory=list)
    haze_scores: list = field(default_factory=list)
    # per frame answered by the cloud: its reported inference time, and the
    # rest of the request's round trip (wire, sockets, queueing)
    cloud_compute_ms: list = field(default_factory=list)
    cloud_network_ms: list = field(default_factory=list)

    def check(self):
        if self.edge + self.cloud != self.frames:
            raise AssertionError("route accounting broken: "
                                 f"{self.edge}+{self.cloud} != {self.frames}")
        return self


def _log(message: str) -> None:
    if os.environ.get("YV_LOG", "").lower() in ("1", "true", "info", "debug"):
        print(f"[yolovehicle] {message}", flush=True)


def edge_serve(frames, policy: OffloadPolicy, bundle: md.ModelBundle,
               transport=None, cloud_addr: str | None = None,
               timeout_ms: float = 1000.0, added_delay_ms: float = 0.0,
               text: str = "car, truck, bus", obj_thresh: float = 0.5,
               nms_iou: float = 0.5, emit=None, timing_in_output: bool = True):
    """Processes (frame_id, image) pairs under the offload policy.

    Edge route runs detection directly; Cloud route ships the frame to the
    cloud node for the dehaze-then-detect pipeline. A failed cloud call
    falls back to the edge route for that frame with the degraded flag.
    Returns (NodeStats, results) where results are
    (frame_id, route, detections, degraded) tuples.
    """
    if policy.mode != "always_edge" and transport is None and cloud_addr is None:
        raise ValueError(f"policy {policy.mode!r} requires a cloud address")
    owned = None
    if transport is None and cloud_addr is not None:
        transport = owned = SocketTransport(cloud_addr, timeout_ms)
    try:
        stats = NodeStats()
        results = []
        for frame_id, image in frames:
            start = time.perf_counter()
            score = haze_score(image)
            route = decide_route(score, policy)
            degraded = False
            if route is Route.CLOUD:
                try:
                    request = encode_message(WireMessage(
                        MSG_FRAME_REQUEST,
                        encode_frame_payload(image_to_frame_payload(frame_id, image))))
                    sent = time.perf_counter()
                    raw = transport.request(request)
                    rtt_ms = (time.perf_counter() - sent) * 1000.0
                    reply = decode_message(raw)
                    if reply.msg_type != MSG_DETECTION_RESPONSE:
                        raise ConnectionError(
                            f"cloud answered with type {reply.msg_type:#04x}")
                    rid, dets, compute_ms = decode_detection_response(reply.payload)
                    if rid != frame_id:
                        raise ConnectionError(
                            f"response for frame {rid}, expected {frame_id}")
                    stats.cloud_compute_ms.append(compute_ms)
                    stats.cloud_network_ms.append(rtt_ms - compute_ms)
                except Exception as e:
                    _log(f"frame {frame_id}: cloud route failed ({e}); "
                         "degraded to edge")
                    route, degraded = Route.EDGE, True
            if route is Route.EDGE:
                dets, _ = md.detect_frame(image, text, bundle,
                                          obj_thresh=obj_thresh, nms_iou=nms_iou)
            elapsed = (time.perf_counter() - start) * 1000.0 + added_delay_ms
            stats.frames += 1
            stats.edge += route is Route.EDGE
            stats.cloud += route is Route.CLOUD
            stats.degraded += degraded
            stats.latency_ms.append(elapsed)
            stats.haze_scores.append(score)
            results.append((frame_id, route, dets, degraded))
            if emit is not None:
                # zeroed timing keeps seeded reruns byte-identical on disk
                emit(det.detections_to_jsonl(
                    dets, frame_id, elapsed if timing_in_output else 0.0))
    finally:
        if owned is not None:  # a transport passed in stays open for its owner
            owned.close()
    return stats.check(), results


def _mean_or_none(values):
    return float(np.mean(values)) if values else None


def run_bench(image_paths, policy: OffloadPolicy, bundle: md.ModelBundle,
              repetitions: int = 1, **kwargs):
    """Drives edge_serve over the image set repeatedly; returns
    (NodeStats, results, report dict)."""
    paths = sorted(image_paths)
    if not paths or repetitions < 1:
        raise ValueError("need at least one image and one repetition")
    images = [read_ppm(p) for p in paths]
    frames = [(rep * len(images) + i, img)
              for rep in range(repetitions) for i, img in enumerate(images)]
    start = time.perf_counter()
    stats, results = edge_serve(frames, policy, bundle, **kwargs)
    wall = time.perf_counter() - start
    fps, mean_ms = throughput(TimingRecord(stats.latency_ms, wall))
    report = {
        "frames": stats.frames,
        "edge": stats.edge,
        "cloud": stats.cloud,
        "degraded": stats.degraded,
        "fps": fps,
        "mean_frame_ms": mean_ms,
        "wall_seconds": wall,
        "mean_haze_score": float(np.mean(stats.haze_scores)),
        # None when no frame was answered by the cloud
        "mean_cloud_compute_ms": _mean_or_none(stats.cloud_compute_ms),
        "mean_cloud_network_ms": _mean_or_none(stats.cloud_network_ms),
    }
    return stats, results, report
