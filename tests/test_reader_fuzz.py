"""Seeded fuzzing of the PPM, TSR archive, detection-response and JSON-lines
detection readers.

Byte flips, truncations, insertions and forged headers: every input either
decodes or raises ValueError, and no other exception leaves a reader.
"""

import itertools
import math
import struct

import numpy as np
import pytest

from yolovehicle import detection as det
from yolovehicle import edgecloud as ec
from yolovehicle import ppm
from yolovehicle import tensor_core as tc

CASES = 3000  # per mutation kind


def mutants(base: bytes, seed: int):
    """CASES inputs each with 1-4 bytes overwritten, cut to a strict prefix,
    and with 1-8 random bytes inserted."""
    rng = tc.Rng(seed)
    for _ in range(CASES):
        buf = bytearray(base)
        n = 1 + int(rng.integers(4, 1)[0])
        for pos, value in zip(rng.integers(len(buf), n), rng.integers(256, n)):
            buf[pos] = value
        yield bytes(buf)
    for cut in rng.integers(len(base), CASES):
        yield base[:cut]
    for _ in range(CASES):
        pos = int(rng.integers(len(base) + 1, 1)[0])
        n = 1 + int(rng.integers(8, 1)[0])
        yield base[:pos] + bytes(int(v) for v in rng.integers(256, n)) + base[pos:]


def outcomes(read, inputs, check):
    """(decoded, rejected) counts; check(out) vets each decoded value."""
    decoded = rejected = 0
    for buf in inputs:
        try:
            out = read(buf)
        except ValueError:
            rejected += 1
            continue
        except Exception as e:
            raise AssertionError(f"{type(e).__name__} ({e}) on input {buf!r}") from e
        check(out)
        decoded += 1
    return decoded, rejected


def check_image(image):
    assert image.dtype == np.float32
    assert image.ndim == 3 and image.shape[0] == 3
    assert image.size == 0 or (image.min() >= 0.0 and image.max() <= 1.0)


def read_archive(buf):
    return dict(tc.archive_entries(buf))


def check_archive(tensors):
    for name, arr in tensors.items():
        assert isinstance(name, str)
        assert arr.dtype == np.float32 and 1 <= arr.ndim <= 4


class TestPpmFuzz:
    def test_mutated_inputs_decode_or_raise_value_error(self):
        base = ppm.image_to_ppm_bytes(tc.Rng(300).uniform(0, 1, (3, 3, 4)))
        decoded, rejected = outcomes(ppm.image_from_ppm_bytes, mutants(base, 301),
                                     check_image)
        # both outcomes occur, so the mutations reach the header and the pixels
        assert decoded > 0 and rejected > 0

    def test_forged_headers_decode_or_raise_value_error(self):
        dims = [b"0", b"-1", b"-64", b"2147483648", b"4", b"abc", b"1e3",
                b"0x10", b"\xff"]
        maxvals = [b"0", b"65535", b"-255", b"255", b"nan"]
        inputs = [b"P6\n%s %s\n%s\n" % (w, h, m) + bytes(48)
                  for w, h, m in itertools.product(dims, dims, maxvals)]
        decoded, rejected = outcomes(ppm.image_from_ppm_bytes, inputs, check_image)
        assert decoded == 1  # 4x4 at maxval 255, from the first 48 bytes
        assert rejected == len(inputs) - 1


class TestTsrFuzz:
    def test_mutated_inputs_decode_or_raise_value_error(self):
        base = tc.archive_to_bytes({
            "a": tc.Rng(310).uniform(-1, 1, (3,)),
            "b.w": tc.Rng(311).uniform(-1, 1, (2, 1, 2, 1)),
        })
        decoded, rejected = outcomes(read_archive, mutants(base, 312),
                                     check_archive)
        assert decoded > 0 and rejected > 0

    def test_forged_headers_decode_or_raise_value_error(self):
        def archive(count, nlen, rank, dims):
            return (struct.pack("<IH", count, nlen) + b"t" + b"TSR1"
                    + bytes([rank]) + struct.pack(f"<{len(dims)}I", *dims)
                    + bytes(64))

        big = (0, 1, 2**31, 2**32 - 1)
        inputs = []
        for rank in (1, 2, 3, 4):
            for dims in itertools.product(big, repeat=rank):
                inputs.append(archive(1, 1, rank, dims))
        for rank in (0, 5, 255):
            inputs.append(archive(1, 1, rank, (3,)))
        for count, nlen in itertools.product(big, (0, 1, 2, 0xFFFF)):
            inputs.append(archive(count, nlen, 1, (3,)))
        decoded, rejected = outcomes(read_archive, inputs, check_archive)
        assert decoded > 0 and rejected > 0

    def test_forged_dims_whose_product_wraps_in_int64_are_truncated(self):
        # (2^31, 2^31, 4, 1) wraps to 0 elements and (2^32-1, 2^32-1) to a
        # negative count in int64 arithmetic
        for dims in ((2**31, 2**31, 4, 1), (2**32 - 1, 2**32 - 1)):
            buf = (b"TSR1" + bytes([len(dims)]) + struct.pack(f"<{len(dims)}I", *dims)
                   + bytes(64))
            with pytest.raises(ValueError, match="truncated TSR payload"):
                tc.tensor_from_bytes(buf)


def check_response(decoded):
    _, dets, inference_ms = decoded
    assert 0 <= inference_ms < math.inf
    for b in dets:
        assert type(b.class_id) is int and b.class_id >= 0
        assert all(math.isfinite(v) for v in (b.cx, b.cy, b.score))
        assert all(math.isfinite(v) and v > 0 for v in (b.w, b.h))


class TestDetectionResponseFuzz:
    BASE = ec.encode_detection_response(
        12, [det.BBox(0.5, 0.4, 0.2, 0.3, 2, 0.9), det.BBox(0.1, 0.8, 0.05, 0.1, 0, 0.6)],
        3.5)

    def test_mutated_inputs_decode_or_raise_value_error(self):
        decoded, rejected = outcomes(ec.decode_detection_response,
                                     mutants(self.BASE, 13), check_response)
        assert decoded > 0 and rejected > 0

    def test_random_doubles_decode_or_raise_value_error(self):
        # every field of a one-box response drawn from a mix of finite,
        # negative, zero and non-finite doubles
        rng = tc.Rng(14)
        values = [0.0, -0.0, 0.5, -0.5, 1e300, -1e300, math.inf, -math.inf, math.nan]
        inputs = []
        for _ in range(CASES):
            cx, cy, w, h, score, ms = (values[int(i)] for i in rng.integers(len(values), 6))
            class_id = int(rng.integers(5, 1)[0]) - 2
            inputs.append(ec._RESP_HEAD.pack(1, ms, 1)
                          + ec._RESP_DET.pack(cx, cy, w, h, score, class_id))
        decoded, rejected = outcomes(ec.decode_detection_response, inputs, check_response)
        assert decoded > 0 and rejected > 0


def check_jsonl(rows):
    for frame_id, b in rows:
        assert type(frame_id) is int
        check_response((frame_id, [b], 0.0))


class TestJsonlFuzz:
    BASE = (det.detections_to_jsonl([det.BBox(0.5, 0.4, 0.2, 0.3, 2, 0.9),
                                     det.BBox(0.1, 0.8, 0.05, 0.1, 0, 0.6)], 3, 1.5)
            + det.detections_to_jsonl([det.BBox(0.7, 0.2, 0.1, 0.1, 1, 0.4)], 4, 2.0))

    def test_mutated_inputs_decode_or_raise_value_error(self):
        # latin-1 maps each byte to one character, so every mutant is a str
        inputs = (buf.decode("latin-1") for buf in mutants(self.BASE.encode(), 15))
        decoded, rejected = outcomes(det.jsonl_to_detections, inputs, check_jsonl)
        assert decoded > 0 and rejected > 0

    def test_too_deeply_nested_line_is_rejected_naming_it(self):
        nested = "[" * 100000 + "]" * 100000
        with pytest.raises(ValueError, match="bad detection on line 4"):
            det.jsonl_to_detections(self.BASE + nested + "\n")
