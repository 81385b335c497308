"""Binary PPM (P6, 8-bit) image reading and writing, mapped to [0,1] floats."""

from __future__ import annotations

import numpy as np


def _read_header_token(buf: bytes, pos: int):
    """Next whitespace-delimited token, skipping '#' comments."""
    n = len(buf)
    while pos < n:
        ch = buf[pos:pos + 1]
        if ch == b"#":
            while pos < n and buf[pos:pos + 1] != b"\n":
                pos += 1
        elif ch.isspace():
            pos += 1
        else:
            break
    start = pos
    while pos < n and not buf[pos:pos + 1].isspace():
        pos += 1
    if start == pos:
        raise ValueError("truncated PPM header")
    return buf[start:pos], pos


def image_to_rgb8(image: np.ndarray) -> bytes:
    """A 3xHxW image in [0, 1] as row-major 8-bit RGB: H rows of W pixels of
    3 bytes, each sample rounded to the nearest of 256 levels."""
    if image.ndim != 3 or image.shape[0] != 3:
        raise ValueError(f"expected a 3xHxW image, got {image.shape}")
    pixels = np.clip(np.rint(image * 255.0), 0, 255).astype(np.uint8)
    return pixels.transpose(1, 2, 0).tobytes()


def rgb8_to_image(pixels: bytes, height: int, width: int) -> np.ndarray:
    """The inverse of image_to_rgb8: a 3xHxW float32 image in [0, 1]."""
    arr = np.frombuffer(pixels, dtype=np.uint8).reshape(height, width, 3)
    return arr.transpose(2, 0, 1).astype(np.float32) / 255.0


def image_from_ppm_bytes(buf: bytes) -> np.ndarray:
    magic, pos = _read_header_token(buf, 0)
    if magic != b"P6":
        raise ValueError(f"not a binary PPM (P6) file, magic {magic!r}")
    fields = []
    for _ in range(3):
        tok, pos = _read_header_token(buf, pos)
        fields.append(int(tok))
    w, h, maxval = fields
    if w < 1 or h < 1:
        raise ValueError(f"bad dimensions {w}x{h}")
    if maxval != 255:
        raise ValueError(f"only 8-bit PPM supported, maxval {maxval}")
    pos += 1  # single whitespace byte after maxval
    data = buf[pos:pos + w * h * 3]
    if len(data) != w * h * 3:
        raise ValueError(f"pixel data truncated: {len(data)} of {w * h * 3} bytes")
    return rgb8_to_image(data, h, w)


def image_to_ppm_bytes(image: np.ndarray) -> bytes:
    pixels = image_to_rgb8(image)
    _, h, w = image.shape
    return b"P6\n%d %d\n255\n" % (w, h) + pixels


def read_ppm(path) -> np.ndarray:
    with open(path, "rb") as fh:
        return image_from_ppm_bytes(fh.read())
