"""Command-line entry point: detect, dehaze, train-toy, eval, bench,
serve-cloud.

Exit codes: 0 success, 1 runtime failure or a setting out of its
config.SCHEMA range (one-line diagnostic on stderr), 2 usage error. All
output files are written atomically (temp + rename).
A command that runs the model loads the archive named by --weights or by
weights= in the config file. With none named, a seed (--seed or seed=) gives
a freshly initialized model from that seed, and no seed loads weights.bin
from the working directory.
Passing --seed, or seed= in the config file, makes the primary output files
byte-identical across runs: weights are derived from the seed where none
are named and per-line timing fields are zeroed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import config as cfgmod
from . import detection as det
from . import edgecloud as ec
from . import metrics as mx
from . import model as md
from .dehaze import dehaze_forward
from .ppm import image_to_ppm_bytes, read_ppm
from .tensor_core import atomic_write


def _add_settings(p, *keys):
    """--config, plus one flag per config.SCHEMA key: the schema's parser,
    its help and its default; an unset flag is None and leaves the key to
    the file or the default."""
    p.add_argument("--config", help="key=value config file")
    for key in keys:
        parser, default, _, text = cfgmod.SCHEMA[key]
        p.add_argument("--" + key.replace("_", "-"), type=parser,
                       help=f"{text} (default {default!r})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="yolovehicle",
        description="Text-prompted vehicle detection with dehazing and "
                    "edge-cloud offloading.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("detect", help="detect vehicles in one PPM image")
    p.add_argument("--image", required=True, help="input image (PPM P6)")
    p.add_argument("--output", default="detections.jsonl",
                   help="JSON-lines output path (default %(default)s)")
    p.add_argument("--pro", action="store_true",
                   help="run the dehazing front-end before detection")
    _add_settings(p, "weights", "seed", "obj_thresh", "nms_iou", "text")

    p = sub.add_parser("dehaze", help="dehaze one PPM image")
    p.add_argument("--image", required=True, help="input image (PPM P6)")
    p.add_argument("--output", default="dehazed.ppm",
                   help="output image path (default %(default)s)")
    _add_settings(p, "weights", "seed")

    p = sub.add_parser("train-toy",
                       help="overfit the detector on synthetic scenes")
    p.add_argument("--steps", type=int, default=200,
                   help="gradient steps, at most 1000 (default %(default)s)")
    p.add_argument("--lr", type=float, default=md.LR,
                   help="learning rate (default %(default)s)")
    p.add_argument("--save", help="write the trained weights archive here")
    _add_settings(p, "seed")

    p = sub.add_parser("eval", help="score predictions against ground truth")
    p.add_argument("--preds", required=True, help="predictions (JSON-lines)")
    p.add_argument("--gts", required=True, help="ground truth (JSON-lines)")
    p.add_argument("--output", default="eval.json",
                   help="report path (default %(default)s)")

    p = sub.add_parser("bench", help="run the edge node over an image set "
                                     "and measure its throughput")
    p.add_argument("--input-dir", dest="input_dir", required=True,
                   help="directory of PPM images")
    p.add_argument("--repetitions", type=int, default=1,
                   help="passes over the image set (default %(default)s)")
    p.add_argument("--output", default="bench.json",
                   help="report path (default %(default)s)")
    p.add_argument("--detections", help="also write detections (JSON-lines)")
    _add_settings(p, "weights", "seed", "obj_thresh", "nms_iou", "mode", "tau",
                  "cloud", "timeout_ms")

    p = sub.add_parser("serve-cloud", help="run the cloud detection server")
    p.add_argument("--listen", default="127.0.0.1:5956",
                   help="listen address (default %(default)s)")
    _add_settings(p, "weights", "seed", "obj_thresh", "nms_iou", "text")

    return parser


def effective_config(args) -> dict:
    """Defaults, overridden by the config file, overridden by flags."""
    file_values = cfgmod.load_config(args.config) if args.config else {}
    return cfgmod.merge(file_values,
                        {k: getattr(args, k, None) for k in cfgmod.SCHEMA})


def _archive_path(cfg):
    """The weights archive named by --weights or weights=; with none named,
    None under a fixed seed, which stands for a reproducible freshly
    initialized model, and weights.bin otherwise."""
    if cfg["weights"] is not None:
        return cfg["weights"]
    return None if cfg["seed"] is not None else "weights.bin"


def _load_bundle(cfg):
    path = _archive_path(cfg)
    if path is None:
        return md.init_bundle(cfg["seed"])
    if not os.path.exists(path):
        raise FileNotFoundError(f"weights archive not found: {path}")
    return md.load_bundle(path)


def _ppm_paths(input_dir):
    if not os.path.isdir(input_dir):
        raise FileNotFoundError(f"input directory not found: {input_dir}")
    paths = sorted(os.path.join(input_dir, n) for n in os.listdir(input_dir)
                   if n.endswith(".ppm"))
    if not paths:
        raise FileNotFoundError(f"no .ppm images in {input_dir}")
    return paths


def _write_detections(path, cfg, rows):
    """JSON-lines of (frame_id, detections, ms) rows; a fixed seed zeroes
    the timing so that seeded reruns are byte-identical on disk."""
    seeded = cfg["seed"] is not None
    atomic_write(path, "".join(
        det.detections_to_jsonl(dets, fid, 0.0 if seeded else ms)
        for fid, dets, ms in rows))


def cmd_detect(args) -> int:
    cfg = effective_config(args)
    bundle = _load_bundle(cfg)
    image = read_ppm(args.image)
    dets, ms = md.detect_frame(image, cfg["text"], bundle,
                               dehaze_first=args.pro,
                               obj_thresh=cfg["obj_thresh"],
                               nms_iou=cfg["nms_iou"])
    _write_detections(args.output, cfg, [(0, dets, ms)])
    print(f"{len(dets)} detections -> {args.output}")
    return 0


def cmd_dehaze(args) -> int:
    cfg = effective_config(args)
    bundle = _load_bundle(cfg)
    restored = dehaze_forward(read_ppm(args.image), bundle.gen)
    atomic_write(args.output, image_to_ppm_bytes(restored))
    print(f"dehazed image -> {args.output}")
    return 0


def cmd_train_toy(args) -> int:
    cfg = effective_config(args)
    seed = 0 if cfg["seed"] is None else cfg["seed"]
    _, bundle = md.train_toy(seed=seed, steps=args.steps, lr=args.lr,
                             text=cfg["text"], log=print)
    if args.save:
        md.save_bundle(args.save, bundle)
        print(f"weights ({os.path.getsize(args.save)} bytes) -> {args.save}",
              file=sys.stderr)
    return 0


def cmd_eval(args) -> int:
    with open(args.preds, encoding="utf-8") as fh:
        preds = det.jsonl_to_detections(fh.read())
    with open(args.gts, encoding="utf-8") as fh:
        gts = det.jsonl_to_detections(fh.read())
    results = mx.map_at(preds, gts)
    report = {}
    for thr, r in results.items():
        report[f"map@{int(thr * 100)}"] = r.map
        report[f"ap@{int(thr * 100)}"] = {str(k): v for k, v in r.ap.items()}
        report[f"counts@{int(thr * 100)}"] = {
            str(k): {"tp": r.tp[k], "fp": r.fp[k], "fn": r.fn[k]}
            for k in sorted(r.tp)}
    atomic_write(args.output, json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"mAP@50 {report['map@50']:.4f} mAP@75 {report['map@75']:.4f} "
          f"-> {args.output}")
    return 0


def _mean_or_none(values):
    return float(np.mean(values)) if values else None


def cmd_bench(args) -> int:
    """The edge node over the directory's images, sorted by name and
    repeated; frame ids run 0..n*repetitions-1 in that order."""
    cfg = effective_config(args)
    if args.repetitions < 1:
        raise ValueError(f"--repetitions must be at least 1, got {args.repetitions}")
    policy = ec.OffloadPolicy(cfg["mode"], cfg["tau"])
    if policy.mode != "always_edge" and not cfg["cloud"]:
        raise ValueError(f"policy {policy.mode!r} requires --cloud")
    bundle = _load_bundle(cfg)
    images = [read_ppm(p) for p in _ppm_paths(args.input_dir)]
    frames = [(rep * len(images) + i, image)
              for rep in range(args.repetitions) for i, image in enumerate(images)]
    link = (None if policy.mode == "always_edge"
            else ec.SocketTransport(cfg["cloud"], cfg["timeout_ms"]))
    try:
        start = time.perf_counter()
        stats, results = ec.edge_serve(
            frames, policy, bundle, transport=link, text=cfg["text"],
            obj_thresh=cfg["obj_thresh"], nms_iou=cfg["nms_iou"])
        wall = time.perf_counter() - start
    finally:
        if link is not None:
            link.close()
    report = {
        "frames": stats.frames,
        "edge": stats.edge,
        "cloud": stats.cloud,
        "degraded": stats.degraded,
        "fps": stats.frames / wall,
        "mean_frame_ms": float(np.mean(stats.latency_ms)),
        "wall_seconds": wall,
        "haze_scores": stats.haze_scores,
        "mean_haze_score": float(np.mean(stats.haze_scores)),
        # None when no frame was answered by the cloud
        "mean_cloud_compute_ms": _mean_or_none(stats.cloud_compute_ms),
        "mean_cloud_network_ms": _mean_or_none(stats.cloud_network_ms),
    }
    path = _archive_path(cfg)
    if path is not None:
        report["model_size_bytes"] = os.path.getsize(path)
    if args.detections:
        _write_detections(args.detections, cfg, [
            (fid, dets, ms)
            for (fid, _, dets, _), ms in zip(results, stats.latency_ms)])
    atomic_write(args.output, json.dumps(report, indent=2, sort_keys=True) + "\n")
    split = ""
    if report["mean_cloud_compute_ms"] is not None:
        split = (f" (cloud frames: compute {report['mean_cloud_compute_ms']:.2f} ms"
                 f" + network {report['mean_cloud_network_ms']:.2f} ms)")
    print(f"{stats.frames} frames (edge {stats.edge}, cloud {stats.cloud}, "
          f"degraded {stats.degraded}), {report['fps']:.2f} fps, "
          f"mean {report['mean_frame_ms']:.2f} ms{split} -> {args.output}")
    return 0


def cmd_serve_cloud(args) -> int:
    cfg = effective_config(args)
    try:
        ec.parse_addr(args.listen)
    except ValueError as e:
        raise ValueError(f"--listen: {e}") from None
    ec.cloud_serve(args.listen, ec.LoopbackTransport(
        _load_bundle(cfg), cfg["text"], cfg["obj_thresh"], cfg["nms_iou"]))
    return 0


COMMANDS = {
    "detect": cmd_detect,
    "dehaze": cmd_dehaze,
    "train-toy": cmd_train_toy,
    "eval": cmd_eval,
    "bench": cmd_bench,
    "serve-cloud": cmd_serve_cloud,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except KeyboardInterrupt:
        return 1
    except Exception as e:
        print(f"yolovehicle: error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
