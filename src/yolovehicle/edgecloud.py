"""Edge-cloud collaborative serving: framed wire protocol, haze scoring,
the offload policy, the cloud detection server, and the edge loop.

Routing: the edge node runs the plain detection pipeline locally; frames
judged hazy are offloaded to the cloud node, which runs the heavier
dehaze-then-detect pipeline. The wire protocol is byte-exact so a frame
detected via the cloud route yields bit-identical detections to running
the same pipeline locally with the same weights.
"""

from __future__ import annotations

import ctypes
import math
import os
import socket
import socketserver
import struct
import time
import zlib
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import detection as det
from . import encoders as enc
from . import model as md
from .ppm import image_to_rgb8, rgb8_to_image

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
# A cloud node's handle_request peaks near 400 B of allocation per pixel,
# so the payload cap bounds the memory one request can demand. 8 MiB still
# carries a 2048x1024 RGB frame (6.3 MB, the size of a Foggy Cityscapes
# frame) and caps a request at about 1.1 GB; 64 MiB let one demand 9 GB.
MAX_PAYLOAD = 8 * 1024 * 1024
TIMEOUT_MS = 1000.0  # SocketTransport's default time for one whole request


def check_timeout(name: str, value: float) -> float:
    """value, if it is positive and finite; ValueError naming name
    otherwise. 0 would make the socket non-blocking, not patient."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")
    return value


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


def _check_header(buf: bytes):
    """Magic, version and declared length, in that order; returns
    (msg_type, payload_len)."""
    magic, version, msg_type, payload_len = HEADER.unpack_from(buf)
    if magic != MAGIC:
        raise BadMagic(f"bad magic {magic!r}")
    if version != VERSION:
        raise BadVersion(f"unsupported version {version:#04x}")
    if payload_len > MAX_PAYLOAD:
        raise BadLength(f"declared payload too large: {payload_len} bytes")
    return msg_type, payload_len


def decode_message(buf: bytes) -> WireMessage:
    """Decodes exactly one frame; raises a typed WireError, never crashes."""
    if len(buf) < HEADER.size:
        raise BadLength(f"frame shorter than header: {len(buf)} bytes")
    msg_type, payload_len = _check_header(buf)
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
    pixels = image_to_rgb8(image)
    _, h, w = image.shape
    return FramePayload(frame_id, w, h, 3, pixels)


def frame_payload_to_image(frame: FramePayload) -> np.ndarray:
    return rgb8_to_image(frame.pixels, frame.height, frame.width)


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
    the cloud route reproduces local detections bit-exactly. ValueError
    for more than det.MAX_CANDIDATES detections, for a detection that fails
    det.checked_box, and for an inference time that is negative or not
    finite."""
    if len(buf) < _RESP_HEAD.size:
        raise ValueError("detection response truncated")
    frame_id, inference_ms, count = _RESP_HEAD.unpack_from(buf)
    if count > det.MAX_CANDIDATES:
        raise ValueError(f"response holds {count} detections, more than the "
                         f"{det.MAX_CANDIDATES} decode keeps")
    if len(buf) != _RESP_HEAD.size + count * _RESP_DET.size:
        raise ValueError("detection response length mismatch")
    if not 0 <= inference_ms < math.inf:
        raise ValueError(f"inference_ms must be non-negative and finite, got {inference_ms}")
    dets = []
    for i in range(count):
        cx, cy, w, h, score, class_id = _RESP_DET.unpack_from(
            buf, _RESP_HEAD.size + i * _RESP_DET.size)
        try:
            dets.append(det.checked_box(cx, cy, w, h, class_id, score))
        except ValueError as e:
            raise ValueError(f"detection {i} of the response: {e}") from None
    return frame_id, dets, inference_ms


def encode_error(exc: Exception) -> bytes:
    code = exc.code if isinstance(exc, WireError) else 0
    payload = bytes([code]) + str(exc).encode("utf-8", "replace")
    return encode_message(WireMessage(MSG_ERROR, payload))


# ---------------------------------------------------------------------------
# haze scoring and routing


def _min7(a: np.ndarray, axis: int) -> np.ndarray:
    """7-wide running minimum along axis 0 or 1, which shrinks by 6:
    minima over widths 2, then 4, then 7 (two width-4 windows 3 apart)."""
    head = (slice(None),) * axis
    for shift in (1, 2, 3):
        a = np.minimum(a[head + (slice(None, -shift),)],
                       a[head + (slice(shift, None),)])
    return a


def haze_score(image: np.ndarray) -> float:
    """Mean of the dark channel: 7x7 minimum filter (edge-replicated) over
    the per-pixel channel minimum. High for uniformly bright, washed-out
    frames, near zero whenever dark patches survive."""
    if image.ndim != 3 or image.shape[0] != 3:
        raise ValueError(f"expected a 3xHxW image, got {image.shape}")
    m = image.min(axis=0)
    h, w = m.shape
    # m with a 3-wide edge-replicated border
    padded = np.empty((h + 6, w + 6), m.dtype)
    padded[3:-3, 3:-3] = m
    padded[3:-3, :3] = m[:, :1]
    padded[3:-3, -3:] = m[:, -1:]
    padded[:3] = padded[3]
    padded[-3:] = padded[-4]
    dark = _min7(_min7(padded, 1), 0)  # a C-contiguous H x W map
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
            raise ValueError("mode must be always_edge, always_cloud or "
                             f"adaptive, got {self.mode!r}")
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
                   obj_thresh: float = det.OBJ_THRESH, nms_iou: float = det.NMS_IOU) -> bytes:
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
    """The cloud node: the weights and the settings it detects every frame
    with. request serves one framed request in process; CloudServer serves
    the same node over TCP. A threshold outside (0, 1), or a prompt with no
    phrase or too many, raises ValueError here rather than degrading every
    frame sent to the node."""

    def __init__(self, bundle: md.ModelBundle, text: str = md.PROMPT,
                 obj_thresh: float = det.OBJ_THRESH, nms_iou: float = det.NMS_IOU):
        enc.phrases(text)
        self.bundle = bundle
        self.text = text
        self.obj_thresh = det.check_threshold("obj_thresh", obj_thresh)
        self.nms_iou = det.check_threshold("nms_iou", nms_iou)

    def request(self, data: bytes) -> bytes:
        return handle_request(data, self.bundle, self.text,
                              self.obj_thresh, self.nms_iou)


def parse_addr(addr: str) -> tuple[str, int]:
    """(host, port) of a host:port address; an empty host is 127.0.0.1.
    Raises ValueError for a missing, non-numeric or out-of-range port, and
    for a bracketed or IPv6 host: the client and the server speak IPv4
    only."""
    host, sep, port = addr.rpartition(":")
    if not sep:
        raise ValueError(f"address {addr!r} has no port; expected host:port")
    if any(c in host for c in "[]:"):
        raise ValueError(f"address {addr!r} has a bracketed or IPv6 host {host!r}; "
                         "expected an IPv4 address or a host name")
    if not (port.isascii() and port.removeprefix("-").isdigit()):
        raise ValueError(f"address {addr!r} has a non-numeric port {port!r}")
    if not 0 <= int(port) <= 65535:
        raise ValueError(f"address {addr!r} has port {port} outside [0, 65535]")
    return host or "127.0.0.1", int(port)


def _time_left(deadline: float) -> float:
    """Seconds to deadline (time.monotonic), never 0: that makes a socket non-blocking."""
    return max(deadline - time.monotonic(), 1e-6)


def _recv_exact(sock, n: int, deadline: float | None = None) -> bytes:
    chunks = []
    while n > 0:
        if deadline is not None:
            sock.settimeout(_time_left(deadline))
        chunk = sock.recv(n)
        if not chunk:
            raise ConnectionError("connection closed mid-frame")
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def _recv_frame(sock, deadline: float | None = None) -> bytes:
    """One length-delimited frame off the stream. The declared length is
    trusted only after the magic and version check out, so a peer that
    speaks another protocol gets a typed error at once instead of a read
    that waits for bytes it will never send."""
    head = _recv_exact(sock, HEADER.size, deadline)
    _, payload_len = _check_header(head)
    return head + _recv_exact(sock, payload_len + 4, deadline)


class SocketTransport:
    """Persistent client connection to a cloud node; strict request/response
    order on the single stream. A request has timeout_ms in all, for its
    connect, its send and every read of the answer."""

    def __init__(self, addr: str, timeout_ms: float = TIMEOUT_MS):
        self.addr = parse_addr(addr)
        self.timeout_ms = check_timeout("timeout_ms", timeout_ms)
        self.sock = None

    def request(self, data: bytes) -> bytes:
        deadline = time.monotonic() + self.timeout_ms / 1000.0
        try:
            if self.sock is None:
                self.sock = socket.create_connection(
                    self.addr, timeout=self.timeout_ms / 1000.0)
            self.sock.settimeout(_time_left(deadline))
            self.sock.sendall(data)
            return _recv_frame(self.sock, deadline)
        except Exception:
            self.close()
            raise

    def close(self):
        if self.sock is not None:
            self.sock.close()
            self.sock = None


class _CloudHandler(socketserver.BaseRequestHandler):
    def handle(self):
        while True:
            try:
                buf = _recv_frame(self.request)
            except WireError as e:
                # the stream cannot be resynchronised without a trusted
                # header: answer once and close
                self.request.sendall(encode_error(e))
                return
            except OSError:  # the peer closed or reset the connection
                return
            try:
                self.request.sendall(self.server.node.request(buf))
            except OSError:
                return


class CloudServer(socketserver.ThreadingTCPServer):
    """Serves a cloud node over TCP: concurrent connections, FIFO per
    connection, the node's weights shared read-only. Only cloud_serve calls
    keep_freed_memory: without it, two handler threads take about 2,200 page
    faults per hazed 256x256 frame and serve 101 frames/s, not 144."""
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, addr: str, node: LoopbackTransport):
        self.node = node
        super().__init__(parse_addr(addr), _CloudHandler)

    @property
    def addr(self) -> str:
        host, port = self.server_address[:2]
        return f"{host}:{port}"


# glibc's mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_TOP_PAD = -2
_M_MMAP_THRESHOLD = -3


def keep_freed_memory() -> bool:
    """Makes glibc's allocator keep freed memory in this process rather than
    give it back to the kernel. Returns False where the C library has no
    mallopt or refuses a setting.

    A frame allocates and frees megabytes of feature maps in every layer of
    the dehazer and the detector. By default glibc maps each of them afresh
    or trims the heap once they are freed, so every frame faults its pages
    in again: with two handler threads, about 2,800 minor page faults per
    384x1248 frame and 2,200 per 256x256 frame, against 17-34 and 30 with
    these settings. Three settings keep that memory:
    - a 2 GiB trim threshold: freed memory at the top of a heap stays;
    - the mmap threshold fixed at glibc's 32 MiB cap: the temporaries come
      from the heap (a fixed trim threshold alone would pin the mmap
      threshold at its 128 KiB start);
    - a 64 MiB top pad, one whole heap of a thread's arena: glibc unmaps a
      thread arena's emptied heap whatever the trim threshold, unless the
      pad is that large.
    The cost is resident memory: the process keeps the high-water mark of
    its heaps.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # TypeError: CDLL(None) on Windows
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    settings = ((_M_TRIM_THRESHOLD, 2**31 - 1), (_M_MMAP_THRESHOLD, 32 << 20),
                (_M_TOP_PAD, 64 << 20))
    return all([mallopt(param, value) for param, value in settings])  # each one tried


def cloud_serve(listen_addr: str, node: LoopbackTransport) -> None:
    """Serves node until interrupted. The process keeps its freed memory
    (keep_freed_memory) for as long as it lives."""
    keep_freed_memory()
    with CloudServer(listen_addr, node) as server:
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
               transport=None, text: str = md.PROMPT,
               obj_thresh: float = det.OBJ_THRESH, nms_iou: float = det.NMS_IOU):
    """Processes (frame_id, image) pairs under the offload policy.

    Edge route runs detection directly; Cloud route ships the frame over
    transport, a link the caller opens and closes, to the cloud node for
    the dehaze-then-detect pipeline. A failed cloud call falls back to the
    edge route for that frame with the degraded flag.
    Returns (NodeStats, results) where results are
    (frame_id, route, detections, degraded) tuples.
    """
    if policy.mode != "always_edge" and transport is None:
        raise ValueError(f"policy {policy.mode!r} requires a cloud link")
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
                if compute_ms > rtt_ms:
                    raise ValueError(f"cloud reports {compute_ms} ms of compute "
                                     f"in a {rtt_ms} ms round trip")
                stats.cloud_compute_ms.append(compute_ms)
                stats.cloud_network_ms.append(rtt_ms - compute_ms)
            except Exception as e:
                _log(f"frame {frame_id}: cloud route failed ({e}); "
                     "degraded to edge")
                route, degraded = Route.EDGE, True
        if route is Route.EDGE:
            dets, _ = md.detect_frame(image, text, bundle,
                                      obj_thresh=obj_thresh, nms_iou=nms_iou)
        stats.frames += 1
        stats.edge += route is Route.EDGE
        stats.cloud += route is Route.CLOUD
        stats.degraded += degraded
        stats.latency_ms.append((time.perf_counter() - start) * 1000.0)
        stats.haze_scores.append(score)
        results.append((frame_id, route, dets, degraded))
    return stats.check(), results
