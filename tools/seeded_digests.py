"""Prints the digest of each seeded CLI output, of the raw float32
restoration of the 256x256 frame and of the raw float32 backbone features
of the 384x1248 frame, one `name sha256[:16]` line per output.

These are the outputs a refactor must leave byte-identical. Run the script
on two commits, on the same numpy and the same BLAS kernels (the
OPENBLAS_CORETYPE family), and compare the lines. The inputs are built in a
temporary directory from model.make_toy_scene, seeded uniform noise and
dehaze.synthesize_haze; JSON-lines outputs lose their one timing field,
inference_ms, before they are hashed. A command that fails ends the script
with a non-zero status.

    PYTHONPATH=src python tools/seeded_digests.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

from yolovehicle import cli
from yolovehicle import model as md
from yolovehicle import tensor_core as tc
from yolovehicle.dehaze import dehaze_forward, synthesize_haze
from yolovehicle.encoders import backbone_extract
from yolovehicle.ppm import image_to_ppm_bytes, read_ppm


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def without_timing(path) -> bytes:
    """A JSON-lines detections file with each record's inference_ms dropped."""
    with open(path, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    for rec in records:
        rec.pop("inference_ms", None)
    return "".join(json.dumps(rec, sort_keys=True) + "\n" for rec in records).encode()


def run(*argv: str) -> bytes:
    """cli.main's stdout; a non-zero exit ends the script naming the command."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    if code != 0:
        sys.exit(f"seeded_digests: `yolovehicle {' '.join(argv)}` exited {code}")
    return out.getvalue().encode()


def write_ppm(path, image) -> None:
    with open(path, "wb") as fh:
        fh.write(image_to_ppm_bytes(image))


def write_scene(path, seed: int, size: int, transmission: float | None) -> None:
    image, _ = md.make_toy_scene(tc.Rng(seed), size)
    if transmission is not None:
        image = synthesize_haze(image, transmission)
    write_ppm(path, image)


def digests() -> list[tuple[str, str]]:
    out = []
    os.makedirs("frames")
    write_scene("hazy.ppm", 3, 256, 0.5)
    # a KITTI-wide frame: its convs run in bands of a few whole rows
    write_ppm("wide.ppm", synthesize_haze(tc.Rng(5).uniform(0, 1, (3, 384, 1248)), 0.5))
    for i in range(4):
        write_scene(os.path.join("frames", f"{i}.ppm"), 10 + i, 64,
                    0.4 if i % 2 else None)

    for name, extra in (("detect", ()),
                        ("detect_pro", ("--pro",)),
                        ("detect_text", ("--text", "red sedan, bus", "--obj-thresh", "0.05"))):
        run("detect", "--image", "hazy.ppm", "--seed", "3", "--output", f"{name}.jsonl", *extra)
        out.append((name, digest(without_timing(f"{name}.jsonl"))))

    run("dehaze", "--image", "hazy.ppm", "--seed", "3", "--output", "dehazed.ppm")
    with open("dehazed.ppm", "rb") as fh:
        out.append(("dehaze", digest(fh.read())))
    # the float values the 8-bit PPM rounds away
    restored = dehaze_forward(read_ppm("hazy.ppm"), md.init_bundle(3).gen)
    out.append(("dehaze_float32", digest(restored.astype("<f4").tobytes())))

    run("detect", "--image", "wide.ppm", "--seed", "3", "--pro", "--output", "wide.jsonl")
    out.append(("detect_pro_wide", digest(without_timing("wide.jsonl"))))
    # the untrained head barely reads its features, so the boxes above can
    # stay put while the backbone's float32 features move
    feats = backbone_extract(read_ppm("wide.ppm"), md.init_bundle(3).backbone)
    out.append(("backbone_wide_float32",
                digest(b"".join(f.astype("<f4").tobytes() for f in feats.scales()))))

    run("bench", "--input-dir", "frames", "--seed", "3", "--mode", "always_edge",
        "--detections", "bench.jsonl", "--output", "bench.json")
    out.append(("bench_detections", digest(without_timing("bench.jsonl"))))

    stdout = run("train-toy", "--steps", "20", "--seed", "0", "--save", "w.bin")
    out.append(("train_toy_stdout", digest(stdout)))
    with open("w.bin", "rb") as fh:
        out.append(("train_toy_archive", digest(fh.read())))
    run("detect", "--image", "hazy.ppm", "--weights", "w.bin", "--obj-thresh", "0.05",
        "--output", "trained.jsonl")
    out.append(("detect_trained", digest(without_timing("trained.jsonl"))))

    md.save_bundle("init0.bin", md.init_bundle(0))
    with open("init0.bin", "rb") as fh:
        out.append(("init_bundle_0", digest(fh.read())))
    return out


def main() -> int:
    # the inputs and outputs are relative paths inside the fresh directory
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, value in digests():
                print(name, value)
        finally:
            os.chdir(cwd)
    return 0


if __name__ == "__main__":
    sys.exit(main())
