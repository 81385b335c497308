import contextlib
import ctypes
import json
import math
import os
import socket
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from gradutil import DownTransport, serving
from yolovehicle import dehaze as dh
from yolovehicle import detection as det
from yolovehicle import edgecloud as ec
from yolovehicle import model as md
from yolovehicle import ppm
from yolovehicle import tensor_core as tc
from yolovehicle.dehaze import synthesize_haze


def quantized_image(rng, size=32):
    """An image whose float values survive the 8-bit wire format exactly."""
    raw = np.clip(np.rint(rng.uniform(0.0, 1.0, (3, size, size)) * 255), 0, 255)
    return raw.astype(np.float32) / 255.0


@pytest.fixture(scope="module")
def bundle():
    return md.init_bundle(40)


class TestWireCodec:
    def test_ping_is_twelve_bytes_and_roundtrips(self):
        buf = ec.encode_message(ec.WireMessage(ec.MSG_PING))
        assert len(buf) == 12
        msg = ec.decode_message(buf)
        assert msg.msg_type == ec.MSG_PING
        assert msg.payload == b""

    def test_roundtrip_all_types_with_payload(self):
        for t in (ec.MSG_FRAME_REQUEST, ec.MSG_DETECTION_RESPONSE,
                  ec.MSG_PING, ec.MSG_PONG, ec.MSG_ERROR):
            msg = ec.WireMessage(t, bytes(range(7)))
            back = ec.decode_message(ec.encode_message(msg))
            assert back == msg

    def test_layout_is_bit_exact(self):
        buf = ec.encode_message(ec.WireMessage(ec.MSG_PONG, b"ab"))
        assert buf[:2] == b"\x59\x56"
        assert buf[2] == 0x01
        assert buf[3] == 0x04
        assert buf[4:8] == (2).to_bytes(4, "little")
        assert buf[8:10] == b"ab"
        import zlib
        assert buf[10:14] == (zlib.crc32(b"ab")).to_bytes(4, "little")

    def test_flipped_payload_bit_is_bad_crc(self):
        buf = bytearray(ec.encode_message(ec.WireMessage(ec.MSG_PONG, b"abc")))
        buf[9] ^= 0x10
        with pytest.raises(ec.BadCrc):
            ec.decode_message(bytes(buf))

    def test_truncation_is_bad_length(self):
        buf = ec.encode_message(ec.WireMessage(ec.MSG_PING))
        with pytest.raises(ec.BadLength):
            ec.decode_message(buf[:8])
        with pytest.raises(ec.BadLength):
            ec.decode_message(buf[:3])

    def test_bad_magic_and_version(self):
        buf = bytearray(ec.encode_message(ec.WireMessage(ec.MSG_PING)))
        wrong_magic = bytes(b"XX") + bytes(buf[2:])
        with pytest.raises(ec.BadMagic):
            ec.decode_message(wrong_magic)
        buf[2] = 0x02
        with pytest.raises(ec.BadVersion):
            ec.decode_message(bytes(buf))

    def test_unknown_type_rejected(self):
        buf = bytearray(ec.encode_message(ec.WireMessage(ec.MSG_PING)))
        buf[3] = 0x07
        with pytest.raises(ec.UnknownType):
            ec.decode_message(bytes(buf))
        with pytest.raises(ec.UnknownType):
            ec.encode_message(ec.WireMessage(0x07))

    def test_fuzz_never_crashes_10k(self):
        rng = tc.Rng(41)
        for _ in range(10000):
            n = int(rng.integers(40, 1)[0])
            raw = bytes(int(v) for v in rng.integers(256, max(n, 1))[:n])
            try:
                ec.decode_message(raw)
            except ec.WireError:
                pass

    def test_fuzz_corrupted_valid_frames_10k(self):
        rng = tc.Rng(42)
        base = ec.encode_message(ec.WireMessage(ec.MSG_FRAME_REQUEST, b"x" * 20))
        for _ in range(10000):
            buf = bytearray(base)
            pos = int(rng.integers(len(buf), 1)[0])
            buf[pos] ^= 1 + int(rng.integers(255, 1)[0])
            try:
                msg = ec.decode_message(bytes(buf))
                # a mutation may cancel out only if it leaves the frame valid
                assert ec.encode_message(msg) == bytes(buf)
            except ec.WireError:
                pass


class TestFramePayload:
    def test_image_roundtrip_exact_on_quantized(self):
        img = quantized_image(tc.Rng(43))
        frame = ec.image_to_frame_payload(9, img)
        assert frame.channels == 3
        back = ec.frame_payload_to_image(frame)
        assert np.array_equal(back, img)

    def test_frame_carries_the_ppm_pixels(self):
        image = tc.Rng(44).uniform(0.0, 1.0, (3, 4, 6))
        buf = ppm.image_to_ppm_bytes(image)
        frame = ec.image_to_frame_payload(0, image)
        assert buf == b"P6\n6 4\n255\n" + frame.pixels
        assert np.array_equal(ec.frame_payload_to_image(frame),
                              ppm.image_from_ppm_bytes(buf))

    def test_codec_roundtrip(self):
        frame = ec.FramePayload(77, 2, 3, 3, bytes(range(18)))
        back = ec.decode_frame_payload(ec.encode_frame_payload(frame))
        assert back == frame

    def test_foggy_cityscapes_frame_fits_under_the_cap(self):
        # a 2048x1024 RGB frame, the size of a Foggy Cityscapes image,
        # crosses the wire whole; one byte more than the cap does not
        pixels = bytes(range(256)) * (2048 * 1024 * 3 // 256)
        frame = ec.FramePayload(5, 2048, 1024, 3, pixels)
        buf = ec.encode_message(ec.WireMessage(
            ec.MSG_FRAME_REQUEST, ec.encode_frame_payload(frame)))
        assert ec.decode_frame_payload(ec.decode_message(buf).payload) == frame
        with pytest.raises(ec.BadLength, match="payload too large"):
            ec.encode_message(ec.WireMessage(ec.MSG_FRAME_REQUEST,
                                             bytes(ec.MAX_PAYLOAD + 1)))

    def test_invariants(self):
        with pytest.raises(ValueError):
            ec.FramePayload(1, 0, 3, 3, b"")
        with pytest.raises(ValueError):
            ec.FramePayload(1, 2, 2, 4, bytes(16))
        with pytest.raises(ValueError):
            ec.FramePayload(1, 2, 2, 3, bytes(11))


GOOD_BOX = dict(cx=0.5, cy=0.5, w=0.2, h=0.3, class_id=1, score=0.9)


def response_payload(frame_id=3, inference_ms=2.0, count=1, **fields):
    """A detection response with count boxes: GOOD_BOX with fields replaced."""
    return ec.encode_detection_response(
        frame_id, [det.BBox(**{**GOOD_BOX, **fields})] * count, inference_ms)


class TestDetectionResponse:
    def test_roundtrip(self):
        fid, dets, ms = ec.decode_detection_response(response_payload())
        assert (fid, ms) == (3, 2.0)
        assert dets == [det.BBox(**GOOD_BOX)]
        # as many as decode keeps still cross
        _, dets, _ = ec.decode_detection_response(
            response_payload(count=det.MAX_CANDIDATES))
        assert dets == [det.BBox(**GOOD_BOX)] * det.MAX_CANDIDATES

    @pytest.mark.parametrize("fields, reason", [
        ({"cx": math.nan}, "cx must be finite"),
        ({"cy": -math.inf}, "cy must be finite"),
        ({"w": -0.2}, "w must be finite and positive"),
        ({"h": math.inf}, "h must be finite and positive"),
        ({"h": 0.0}, "h must be finite and positive"),
        ({"score": math.nan}, "score must be finite"),
        ({"class_id": -7}, "class_id must not be negative"),
        ({"inference_ms": -1.0}, "inference_ms must be non-negative and finite"),
        ({"inference_ms": math.inf}, "inference_ms must be non-negative and finite"),
        ({"inference_ms": math.nan}, "inference_ms must be non-negative and finite"),
        ({"count": det.MAX_CANDIDATES + 1},
         f"holds {det.MAX_CANDIDATES + 1} detections, more than the {det.MAX_CANDIDATES}"),
    ], ids=["nan_cx", "infinite_cy", "negative_w", "infinite_h", "zero_h",
            "nan_score", "negative_class_id", "negative_ms", "infinite_ms", "nan_ms",
            "too_many"])
    def test_lying_fields_rejected(self, fields, reason):
        with pytest.raises(ValueError, match=reason):
            ec.decode_detection_response(response_payload(**fields))


class TestHazeScore:
    def test_black_is_zero(self):
        assert ec.haze_score(np.zeros((3, 16, 16), np.float32)) == 0.0

    def test_white_is_one(self):
        assert ec.haze_score(np.ones((3, 16, 16), np.float32)) == 1.0

    def test_synthetic_haze_on_black_scene(self):
        hazy = synthesize_haze(np.zeros((3, 16, 16), np.float32), 0.5)
        assert abs(ec.haze_score(hazy) - 0.45) < 1e-6

    def test_dark_patch_pulls_score_down(self):
        img = np.full((3, 20, 20), 0.8, np.float32)
        img[:, 8:12, 8:12] = 0.0
        assert ec.haze_score(img) < 0.8

    def test_no_module_loads_scipy(self):
        # a fresh interpreter, so that no other test's imports count
        code = ("import importlib, pkgutil, sys, yolovehicle\n"
                "names = [m.name for m in pkgutil.iter_modules(yolovehicle.__path__)]\n"
                "for name in names:\n"
                "    importlib.import_module('yolovehicle.' + name)\n"
                "print(' '.join(names))\n"
                "print('scipy' in sys.modules)\n")
        src = os.path.dirname(os.path.dirname(ec.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout.split("\n")
        assert {"cli", "edgecloud", "metrics"} <= set(out[0].split())
        assert out[1] == "False"


class TestDecideRoute:
    def test_adaptive_above_tau_goes_cloud(self):
        policy = ec.OffloadPolicy("adaptive", tau=0.6)
        assert ec.decide_route(0.8, policy) is ec.Route.CLOUD

    def test_tie_goes_edge(self):
        policy = ec.OffloadPolicy("adaptive", tau=0.6)
        assert ec.decide_route(0.6, policy) is ec.Route.EDGE

    def test_fixed_modes(self):
        for s in (0.0, 0.5, 1.0):
            assert ec.decide_route(s, ec.OffloadPolicy("always_edge")) is ec.Route.EDGE
            assert ec.decide_route(s, ec.OffloadPolicy("always_cloud")) is ec.Route.CLOUD

    def test_pure_function(self):
        policy = ec.OffloadPolicy("adaptive", tau=0.3)
        rng = tc.Rng(44)
        for _ in range(50):
            s = float(rng.uniform(0, 1, (1,))[0])
            assert ec.decide_route(s, policy) is ec.decide_route(s, policy)

    def test_validation(self):
        with pytest.raises(ValueError):
            ec.OffloadPolicy("sometimes")
        with pytest.raises(ValueError):
            ec.OffloadPolicy("adaptive", tau=1.5)
        with pytest.raises(ValueError):
            ec.decide_route(1.2, ec.OffloadPolicy())


class TestCloudHandler:
    def test_ping_pong(self, bundle):
        reply = ec.handle_request(
            ec.encode_message(ec.WireMessage(ec.MSG_PING, b"\x07" * 8)),
            bundle, "car")
        msg = ec.decode_message(reply)
        assert msg.msg_type == ec.MSG_PONG
        assert msg.payload == b"\x07" * 8

    def test_frame_correlation(self, bundle):
        img = quantized_image(tc.Rng(45))
        req = ec.encode_message(ec.WireMessage(
            ec.MSG_FRAME_REQUEST,
            ec.encode_frame_payload(ec.image_to_frame_payload(123, img))))
        msg = ec.decode_message(ec.handle_request(req, bundle, "car"))
        assert msg.msg_type == ec.MSG_DETECTION_RESPONSE
        fid, _, ms = ec.decode_detection_response(msg.payload)
        assert fid == 123
        assert ms > 0

    def test_garbage_yields_error_frame(self, bundle):
        msg = ec.decode_message(ec.handle_request(b"\x00" * 12, bundle, "car"))
        assert msg.msg_type == ec.MSG_ERROR
        assert msg.payload[0] == ec.BadMagic.code

    def test_cloud_matches_local_bit_exact(self, bundle):
        img = quantized_image(tc.Rng(46), size=64)
        req = ec.encode_message(ec.WireMessage(
            ec.MSG_FRAME_REQUEST,
            ec.encode_frame_payload(ec.image_to_frame_payload(5, img))))
        msg = ec.decode_message(ec.handle_request(req, bundle, "car, truck, bus"))
        _, remote, _ = ec.decode_detection_response(msg.payload)
        local, _ = md.detect_frame(img, "car, truck, bus", bundle,
                                   dehaze_first=True)
        assert remote == local

    def test_kitti_sized_frame_is_refused_before_dehazing(self, bundle, monkeypatch):
        calls = []
        monkeypatch.setattr(dh, "dehaze_forward", lambda *a: calls.append(a))
        img = quantized_image(tc.Rng(49), size=1)
        img = np.broadcast_to(img, (3, 375, 1242))
        req = ec.encode_message(ec.WireMessage(
            ec.MSG_FRAME_REQUEST,
            ec.encode_frame_payload(ec.image_to_frame_payload(6, img))))
        msg = ec.decode_message(ec.handle_request(req, bundle, "car"))
        assert msg.msg_type == ec.MSG_ERROR
        assert msg.payload == b"\x00image dims must be divisible by 32, got 375x1242"
        assert calls == []


# Two handler threads serve hazed 384x1248 frames, as the cloud node does,
# after one warm-up frame each; prints the minor page faults per frame.
PAGE_FAULT_SCRIPT = """
import json, resource, sys, threading
from yolovehicle import edgecloud as ec, model as md, tensor_core as tc
from yolovehicle.dehaze import synthesize_haze

if not ec.keep_freed_memory():
    sys.exit("keep_freed_memory refused")
bundle = md.init_bundle(0)
def request(i):
    image = synthesize_haze(tc.Rng(980 + i).uniform(0, 1, (3, 384, 1248)), 0.3)
    return ec.encode_message(ec.WireMessage(ec.MSG_FRAME_REQUEST,
        ec.encode_frame_payload(ec.image_to_frame_payload(i, image))))
THREADS, FRAMES = 2, 3
requests = [[request(t * 10 + i) for i in range(1 + FRAMES)] for t in range(THREADS)]
phase = threading.Barrier(THREADS + 1, timeout=120)
types = []
def serve(reqs):
    types.append(ec.decode_message(ec.handle_request(reqs[0], bundle, "car, truck, bus")).msg_type)
    phase.wait()  # warmed up
    phase.wait()  # counting
    for req in reqs[1:]:
        types.append(ec.decode_message(ec.handle_request(req, bundle, "car, truck, bus")).msg_type)
    phase.wait()
threads = [threading.Thread(target=serve, args=(r,)) for r in requests]
for t in threads:
    t.start()
phase.wait()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
phase.wait()
phase.wait()
after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for t in threads:
    t.join(60)
print(json.dumps({"faults_per_frame": (after - before) / (THREADS * FRAMES),
                  "types": types, "alive": any(t.is_alive() for t in threads)}))
"""


def _has_mallopt():
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


class TestCloudMemory:
    @pytest.mark.skipif(not _has_mallopt(), reason="the C library has no mallopt")
    def test_hazy_frames_fault_few_pages_with_freed_memory_kept(self):
        # a fresh interpreter, so that the allocator setting stays out of
        # this process; one BLAS thread, as the benchmark's cloud node runs
        src = os.path.dirname(os.path.dirname(ec.__file__))
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-c", PAGE_FAULT_SCRIPT], env=env,
                             check=True, capture_output=True, text=True, timeout=300)
        result = json.loads(out.stdout)
        assert not result["alive"]
        assert result["types"] == [ec.MSG_DETECTION_RESPONSE] * 8
        # 17-34 per frame with the setting; about 2,800 with glibc's
        # defaults, which give the freed feature maps back to the kernel
        assert result["faults_per_frame"] < 2000


class TestParseAddr:
    @pytest.mark.parametrize("addr, want", [
        ("example.org:5956", ("example.org", 5956)),
        ("127.0.0.1:0", ("127.0.0.1", 0)),
        (":65535", ("127.0.0.1", 65535)),
    ])
    def test_host_and_port(self, addr, want):
        assert ec.parse_addr(addr) == want

    @pytest.mark.parametrize("addr, reason", [
        ("localhost", "has no port"),
        ("localhost:http", "non-numeric port 'http'"),
        ("localhost:", "non-numeric port ''"),
        ("localhost: 80", "non-numeric port ' 80'"),
        (":65536", "port 65536 outside"),
        (":-1", "port -1 outside"),
        # the server binds IPv4, so these would fail only at connect or bind
        ("[::1]:5956", "bracketed or IPv6 host"),
        ("::1:5956", "bracketed or IPv6 host"),
        ("[127.0.0.1]:5956", "bracketed or IPv6 host"),
    ])
    def test_bad_port_rejected(self, addr, reason):
        with pytest.raises(ValueError, match=reason):
            ec.parse_addr(addr)
        # the client and the server take their address from the same check
        with pytest.raises(ValueError, match=reason):
            ec.SocketTransport(addr)
        with pytest.raises(ValueError, match=reason):
            ec.CloudServer(addr, None)


class TestLoopbackTransport:
    def test_bad_settings_rejected_at_construction(self, bundle):
        # either node used to build, then answer every frame with MSG_ERROR
        with pytest.raises(ValueError, match=r"^obj_thresh must lie in \(0, 1\), got 1.5"):
            ec.LoopbackTransport(bundle, "car", 1.5, 0.5)
        with pytest.raises(ValueError, match=r"^nms_iou must lie in \(0, 1\), got 0"):
            ec.LoopbackTransport(bundle, "car", 0.5, 0)
        with pytest.raises(ValueError, match="^empty text input$"):
            ec.LoopbackTransport(bundle, ",,")


@contextlib.contextmanager
def trickling_peer(reply: bytes, gap_s: float):
    """A listening peer that answers its first connection with reply, one
    byte every gap_s seconds, whatever it is sent; yields its address."""
    listener = socket.create_server(("127.0.0.1", 0))
    stop = threading.Event()

    def trickle():
        conn, _ = listener.accept()
        with conn:
            for i in range(len(reply)):
                if stop.wait(gap_s):
                    return
                try:
                    conn.sendall(reply[i:i + 1])
                except OSError:  # the client gave up and closed
                    return

    thread = threading.Thread(target=trickle, daemon=True)
    thread.start()
    try:
        yield "127.0.0.1:%d" % listener.getsockname()[1]
    finally:
        stop.set()
        thread.join(timeout=5)
        listener.close()


class TestSocketTransport:
    PONG = ec.encode_message(ec.WireMessage(ec.MSG_PONG, b"x"))
    PING = ec.encode_message(ec.WireMessage(ec.MSG_PING, b"x"))

    @pytest.mark.parametrize("timeout_ms", [0, -5, float("nan"), float("inf")])
    def test_bad_timeout_rejected_at_construction(self, timeout_ms):
        # 0 would make the socket non-blocking: every cloud frame would
        # degrade to the edge
        with pytest.raises(ValueError,
                           match=r"^timeout_ms must be positive and finite, got "):
            ec.SocketTransport("127.0.0.1:9", timeout_ms)

    def test_one_deadline_covers_the_whole_request(self):
        # the 13 bytes of a PONG at one per 0.15 s take about 2 s; no single
        # recv waits longer than 0.15 s, so only a deadline on the request
        # as a whole can end it inside its 0.5 s
        with trickling_peer(self.PONG, 0.15) as addr:
            link = ec.SocketTransport(addr, timeout_ms=500)
            start = time.monotonic()
            with pytest.raises(TimeoutError):
                link.request(self.PING)
            elapsed = time.monotonic() - start
            assert link.sock is None  # a broken stream is not reused
        assert 0.45 < elapsed < 1.0, elapsed

    def test_trickled_answer_inside_the_deadline_arrives_whole(self):
        with trickling_peer(self.PONG, 0.01) as addr:
            link = ec.SocketTransport(addr, timeout_ms=5000)
            try:
                assert link.request(self.PING) == self.PONG
            finally:
                link.close()

    def test_trickling_cloud_degrades_the_frame(self, bundle):
        img = quantized_image(tc.Rng(79))
        with trickling_peer(self.PONG, 0.15) as addr:
            link = ec.SocketTransport(addr, timeout_ms=500)
            start = time.monotonic()
            try:
                stats, results = ec.edge_serve([(0, img)], ec.OffloadPolicy("always_cloud"),
                                               bundle, transport=link)
            finally:
                link.close()
            elapsed = time.monotonic() - start
        assert stats.degraded == stats.edge == 1 and stats.cloud == 0
        assert results[0][2] == md.detect_frame(img, md.PROMPT, bundle)[0]
        assert elapsed < 1.0, elapsed


class TestSocketServer:
    def test_serves_its_node_byte_for_byte(self, bundle):
        class RecordedNode(ec.LoopbackTransport):
            def request(self, data):
                replies.append(super().request(data))
                return replies[-1]

        replies = []
        node = RecordedNode(bundle, "bus", 0.3, 0.4)
        ping = ec.encode_message(ec.WireMessage(ec.MSG_PING, b"\x01\x02"))
        frame = ec.encode_message(ec.WireMessage(
            ec.MSG_FRAME_REQUEST,
            ec.encode_frame_payload(ec.image_to_frame_payload(
                9, quantized_image(tc.Rng(48))))))
        bad = bytearray(ping)
        bad[2] = ec.VERSION + 1
        with serving(node) as server:
            link = ec.SocketTransport(server.addr, timeout_ms=5000)
            try:
                got = [link.request(req) for req in (ping, frame, bytes(bad))]
            finally:
                link.close()
        # the server answers a bad header itself, as its node would
        assert got[:2] == replies and got[2] == node.request(bytes(bad))
        assert ec.decode_message(got[2]).payload[0] == ec.BadVersion.code
        # the frame was detected with the node's prompt and thresholds; its
        # reply differs from a fresh one only in the timing field
        _, dets, _ = ec.decode_detection_response(ec.decode_message(got[1]).payload)
        local, _ = md.detect_frame(quantized_image(tc.Rng(48)), "bus", bundle,
                                   dehaze_first=True, obj_thresh=0.3, nms_iou=0.4)
        assert dets == local

    def test_ping_frames_and_garbage_over_tcp(self, bundle):
        with serving(ec.LoopbackTransport(bundle)) as server:
            t = ec.SocketTransport(server.addr, timeout_ms=5000)
            pong = ec.decode_message(t.request(
                ec.encode_message(ec.WireMessage(ec.MSG_PING, b"id"))))
            assert pong.msg_type == ec.MSG_PONG and pong.payload == b"id"
            # corrupt the magic but keep the length field honest
            bad = bytearray(ec.encode_message(ec.WireMessage(ec.MSG_PING)))
            bad[0] = 0x00
            err = ec.decode_message(t.request(bytes(bad)))
            assert err.msg_type == ec.MSG_ERROR
            assert err.payload[0] == ec.BadMagic.code
            # a header that fails its check ends the connection: the length
            # it declares is never trusted
            with pytest.raises(OSError):
                t.request(ec.encode_message(ec.WireMessage(ec.MSG_PING)))
            # the server itself goes on: a new connection is served
            pong = ec.decode_message(t.request(
                ec.encode_message(ec.WireMessage(ec.MSG_PING))))
            assert pong.msg_type == ec.MSG_PONG
            t.close()

    @pytest.mark.parametrize("head, error", [
        (bytes(ec.HEADER.size), ec.BadMagic),
        (ec.HEADER.pack(ec.MAGIC, ec.VERSION + 1, ec.MSG_PING, 0), ec.BadVersion),
        (ec.HEADER.pack(ec.MAGIC, ec.VERSION, ec.MSG_FRAME_REQUEST,
                        ec.MAX_PAYLOAD + 1), ec.BadLength),
    ], ids=["zero_bytes", "next_version", "payload_over_cap"])
    def test_bad_header_is_answered_at_once(self, bundle, head, error):
        # no payload follows the header; the server must not wait for the
        # checksum of a frame whose magic or version is wrong, nor for (or
        # buffer) a payload longer than MAX_PAYLOAD
        with serving(ec.LoopbackTransport(bundle)) as server:
            host, port = server.server_address[:2]
            start = time.monotonic()
            with socket.create_connection((host, port), timeout=2.0) as sock:
                sock.sendall(head)
                err = ec.decode_message(ec._recv_frame(sock))
            elapsed = time.monotonic() - start
            assert err.msg_type == ec.MSG_ERROR
            assert err.payload[0] == error.code
            assert elapsed < 1.0, elapsed

    def test_edge_serve_over_tcp(self, bundle):
        with serving(ec.LoopbackTransport(bundle)) as server:
            frames = [(i, quantized_image(tc.Rng(47 + i))) for i in range(3)]
            link = ec.SocketTransport(server.addr, 5000)
            try:
                stats, results = ec.edge_serve(
                    frames, ec.OffloadPolicy("always_cloud"), bundle,
                    transport=link)
            finally:
                link.close()
            assert stats.cloud == 3 and stats.edge == 0 and stats.degraded == 0
            for (fid, img), (rid, route, dets, degraded) in zip(frames, results):
                assert rid == fid and route is ec.Route.CLOUD and not degraded
                local, _ = md.detect_frame(img, "car, truck, bus", bundle,
                                           dehaze_first=True)
                assert dets == local


class TestEdgeServe:
    def test_always_edge_ten_clear_frames(self, bundle):
        frames = [(i, quantized_image(tc.Rng(50 + i))) for i in range(10)]
        stats, _ = ec.edge_serve(frames, ec.OffloadPolicy("always_edge"), bundle)
        assert stats.frames == 10 and stats.edge == 10 and stats.cloud == 0

    def test_adaptive_routing_matches_oracle_scores(self, bundle):
        rng = tc.Rng(51)
        frames = []
        for i in range(10):
            clear = np.clip(np.rint(rng.uniform(0.0, 0.3, (3, 32, 32)) * 255),
                            0, 255).astype(np.float32) / 255.0
            if i % 2:
                frames.append((i, np.asarray(
                    synthesize_haze(clear, 0.15), np.float32)))
            else:
                frames.append((i, clear))
        policy = ec.OffloadPolicy("adaptive", tau=0.6)
        transport = ec.LoopbackTransport(bundle)
        stats, results = ec.edge_serve(frames, policy, bundle,
                                       transport=transport)
        assert stats.cloud == 5 and stats.edge == 5
        for (fid, img), (rid, route, _, _) in zip(frames, results):
            expected = ec.decide_route(ec.haze_score(img), policy)
            assert route is expected, fid

    def test_cloud_down_falls_back_degraded(self, bundle):
        frames = [(i, quantized_image(tc.Rng(60 + i))) for i in range(4)]
        stats, results = ec.edge_serve(
            frames, ec.OffloadPolicy("always_cloud"), bundle,
            transport=DownTransport())
        assert stats.frames == 4
        assert stats.degraded == 4
        assert stats.edge == 4 and stats.cloud == 0
        assert all(degraded for _, _, _, degraded in results)
        assert stats.cloud_compute_ms == [] and stats.cloud_network_ms == []

    def test_cloud_time_split_into_compute_and_network(self, bundle):
        frames = [(i, quantized_image(tc.Rng(65 + i))) for i in range(3)]
        stats, _ = ec.edge_serve(frames, ec.OffloadPolicy("always_cloud"),
                                 bundle, transport=ec.LoopbackTransport(bundle))
        assert len(stats.cloud_compute_ms) == len(stats.cloud_network_ms) == 3
        for compute, network, total in zip(stats.cloud_compute_ms,
                                           stats.cloud_network_ms,
                                           stats.latency_ms):
            # the cloud's own time lies inside the round trip, which lies
            # inside the frame's latency
            assert compute > 0 and network >= 0
            assert compute + network <= total

    def test_cloud_route_bit_exact_via_loopback(self, bundle):
        img = quantized_image(tc.Rng(70), size=64)
        transport = ec.LoopbackTransport(bundle)
        _, results = ec.edge_serve([(0, img)],
                                   ec.OffloadPolicy("always_cloud"),
                                   bundle, transport=transport)
        local, _ = md.detect_frame(img, "car, truck, bus", bundle,
                                   dehaze_first=True)
        assert results[0][2] == local

    @pytest.mark.parametrize("answer", [
        dict(cx=math.nan, cy=0.5, w=-0.2, h=math.inf, class_id=-7, score=5.0,
             inference_ms=-1.0),
        dict(class_id=-1),
        dict(w=math.nan),
        dict(inference_ms=math.inf),
        # more compute than the whole round trip took
        dict(inference_ms=1e9),
        # more detections than decode keeps
        dict(count=det.MAX_CANDIDATES + 1),
    ], ids=["all_lies", "negative_class", "nan_side", "infinite_ms", "ms_over_rtt",
            "too_many"])
    def test_lying_cloud_degrades_to_edge(self, bundle, answer):
        class LyingTransport:
            def request(self, data):
                frame = ec.decode_frame_payload(ec.decode_message(data).payload)
                return ec.encode_message(ec.WireMessage(
                    ec.MSG_DETECTION_RESPONSE,
                    response_payload(frame.frame_id, **answer)))

        frames = [(i, quantized_image(tc.Rng(75 + i))) for i in range(2)]
        stats, results = ec.edge_serve(frames, ec.OffloadPolicy("always_cloud"),
                                       bundle, transport=LyingTransport())
        assert stats.degraded == stats.edge == 2 and stats.cloud == 0
        assert stats.cloud_compute_ms == [] and stats.cloud_network_ms == []
        for (fid, img), (rid, route, dets, degraded) in zip(frames, results):
            assert rid == fid and route is ec.Route.EDGE and degraded
            assert dets == md.detect_frame(img, md.PROMPT, bundle)[0]

    def test_requires_cloud_link(self, bundle):
        with pytest.raises(ValueError):
            ec.edge_serve([], ec.OffloadPolicy("always_cloud"), bundle)

