"""The four workloads, their inputs, and the closed loop that times them.

Every workload runs whole rounds of operations until its time is up. An
operation is one frame through `edgecloud.edge_serve` (timed around the
call), or one `model.train_toy` step for train_toy. Inputs come from the
seed alone; the model weights are `init_bundle(WEIGHTS_SEED)`, saved to an
archive and loaded back, on every workload and seed.
"""

from __future__ import annotations

import os
import queue
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

import bootstrap
import checks
import layers
import spans
from yolovehicle import dehaze as dh
from yolovehicle import edgecloud as ec
from yolovehicle import model as md
from yolovehicle import tensor_core as tc

TEXT = "car, truck, bus"
TAU = 0.6
OBJ_THRESH = 0.5
NMS_IOU = 0.5
POLICY = ec.OffloadPolicy("adaptive", TAU)
WEIGHTS_SEED = 0
# generated frames score at least this far from tau under the independent
# haze score, so that the route they should take is never in doubt
HAZE_MARGIN = 0.05
# long enough that a slow cloud answer is still an answer, not a degrade
CLOUD_TIMEOUT_MS = 30000.0
CLOUD_START_S = 60.0

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p90": "ms",
    "peak_rss_mb": "MB",
}


@dataclass
class Outcome:
    """One attempted operation. ms is None for a training step whose time
    is not separable from its round's set-up (the first of each round)."""
    op: int
    image: int
    ms: float | None
    traced: bool
    error: str | None = None
    route: ec.Route | None = None
    dets: list | None = None  # kept for the first frame of each image only
    degraded: bool = False
    counted: tuple = (0, 0)  # (edge, cloud) as edge_serve's NodeStats counted
    same: bool = True  # detections equal those of the image's first frame

    @property
    def failed(self) -> bool:
        return self.error is not None or self.degraded


def serve_one(op, image, pool, bundle, transport, tracer) -> Outcome:
    """One frame through edge_serve; a ValueError out of it is a failed
    operation (the program rejected the frame)."""
    traced = tracer is not None
    start = time.perf_counter()
    try:
        with tracer.span("bench.op", op) if traced else nullcontext():
            stats, results = ec.edge_serve(
                [(op, pool[image])], POLICY, bundle, transport=transport,
                text=TEXT, obj_thresh=OBJ_THRESH, nms_iou=NMS_IOU)
    except ValueError as e:
        ms = (time.perf_counter() - start) * 1e3
        return Outcome(op, image, ms, traced, error=str(e))
    ms = (time.perf_counter() - start) * 1e3
    _, route, dets, degraded = results[0]
    return Outcome(op, image, ms, traced, None, route, dets, degraded,
                   (stats.edge, stats.cloud))


def clear_scene(rng: np.random.Generator, h: int, w: int) -> np.ndarray:
    """make_toy_scene's recipe at any size: a flat 0.15 background with
    +-0.05 noise and solid class-coloured rectangles."""
    colors = np.array([(0.9, 0.2, 0.2), (0.2, 0.9, 0.2), (0.2, 0.2, 0.9)],
                      np.float32)
    image = (0.15 + rng.uniform(-0.05, 0.05, (3, h, w))).astype(np.float32)
    for _ in range(int(rng.integers(4, 9))):
        bh, bw = int(rng.uniform(0.1, 0.4) * h), int(rng.uniform(0.05, 0.2) * w)
        y, x = int(rng.integers(0, h - bh)), int(rng.integers(0, w - bw))
        image[:, y:y + bh, x:x + bw] = colors[int(rng.integers(3))][:, None, None]
    return image


class Workload:
    """Set-up, timed blocks and checks of one workload."""
    name = ""
    warmup: tuple = ()
    # the timed phase is split into this many blocks, each after its own
    # set-up, so that set-up is sampled across the run, not in one moment
    blocks = 5

    def __init__(self, seed: int, weights: str, tracer):
        self.seed = seed
        self.weights = weights
        self.tracer = tracer
        self.pool: list[np.ndarray] = []
        self.scores: list[float] = []
        self.next_op = 1
        self.cloud_rss_mb = 0.0
        self.setup_times: list[float] = []
        self.first: dict[int, tuple] = {}  # image -> (detections, key)
        self.round_iter = self.rounds()

    def score_pool(self, want_cloud: bool) -> None:
        self.scores = [checks.dark_channel_score(im) for im in self.pool]
        for s in self.scores:
            if (s > TAU) != want_cloud or abs(s - TAU) < HAZE_MARGIN:
                raise RuntimeError(f"{self.name}: generated frame scores "
                                   f"{s:.4f}, too close to or on the wrong "
                                   f"side of tau {TAU}")

    def setup(self) -> float:
        """Loads the weights archive and warms up; returns its seconds."""
        start = time.perf_counter()
        self.bundle = md.load_bundle(self.weights)
        self.transport = ec.LoopbackTransport(self.bundle, TEXT, OBJ_THRESH,
                                              NMS_IOU)
        for image in self.warmup:
            serve_one(0, image, self.pool, self.bundle, self.transport, None)
        return time.perf_counter() - start

    def record(self, o: Outcome) -> Outcome:
        """Keeps the detections of each image's first frame; a later frame
        of the same image keeps only whether its detections were the same,
        so memory does not grow with the frames served."""
        if o.error is None:
            key = checks.box_key(o.dets)
            ref = self.first.setdefault(o.image, (o.dets, key))
            if ref[0] is not o.dets:
                o.same, o.dets = ref[1] == key, None
        return o

    def rounds(self):
        """Endless sequence of rounds, each a list of pool indices, for
        workloads that serve frames from a pool one at a time."""
        return iter(())

    def block(self, end: float, traced: bool) -> list[Outcome]:
        tracer = self.tracer if traced else None
        out = []
        while True:
            for image in next(self.round_iter):
                out.append(self.record(serve_one(
                    self.next_op, image, self.pool, self.bundle,
                    self.transport, tracer)))
                self.next_op += 1
            if time.perf_counter() >= end:
                return out

    def set_trace(self, on: bool) -> None:
        pass

    def stop(self) -> None:
        pass

    def extra_spans(self) -> list[list]:
        return []

    def check(self, outcomes: list[Outcome]) -> list[str]:
        faults = checks.route_faults(outcomes, self.scores, TAU)
        for image, (dets, _) in sorted(self.first.items()):
            faults += [f"image {image}: {f}" for f in
                       checks.detection_faults(dets, OBJ_THRESH, NMS_IOU)]
        faults += [f"frame {o.op}: detections differ from the first frame "
                   "of the same image" for o in outcomes if not o.same]
        faults += self.unexpected_failures(outcomes)
        return faults

    def unexpected_failures(self, outcomes) -> list[str]:
        return [f"frame {o.op} failed: {o.error or 'degraded'}"
                for o in outcomes if o.failed][:5]


class EdgeSmall(Workload):
    """64x64 clear toy scenes, adaptive policy, all on the edge route."""
    name = "edge_small"
    n_frames = 64
    warmup = (0, 1, 2, 3)

    def prepare(self) -> None:
        rng = tc.Rng(self.seed)
        scenes = [md.make_toy_scene(rng, size=64) for _ in range(self.n_frames)]
        self.pool = [img for img, _ in scenes]
        self.gts = [gts for _, gts in scenes]
        self.score_pool(want_cloud=False)

    def rounds(self):
        while True:
            for i in range(self.n_frames):
                yield [i]

    def check(self, outcomes):
        images = sorted(self.first)
        return super().check(outcomes) + checks.ap_faults(
            [self.first[i][0] for i in images], [self.gts[i] for i in images])


class EdgeWide(Workload):
    """Clear 384x1248 frames; the fourth frame of every round is
    KITTI-sized, 375x1242, which the backbone rejects today."""
    name = "edge_wide"
    wide, kitti = 6, 2
    warmup = (0, 1)
    fault = "divisible by 32"

    def prepare(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.pool = ([clear_scene(rng, 384, 1248) for _ in range(self.wide)]
                     + [clear_scene(rng, 375, 1242) for _ in range(self.kitti)])
        self.score_pool(want_cloud=False)

    def rounds(self):
        k = 0
        while True:
            yield [(3 * k + j) % self.wide for j in range(3)] \
                + [self.wide + k % self.kitti]
            k += 1

    def unexpected_failures(self, outcomes):
        faults = []
        for o in outcomes:
            kitti = o.image >= self.wide
            if kitti != o.failed or (kitti and self.fault not in (o.error or "")):
                faults.append(f"frame {o.op} ({self.pool[o.image].shape}): "
                              f"failed={o.failed} {o.error or ''}")
        return faults[:5]


class CloudNode:
    """`yolovehicle serve-cloud` in its own process, started through
    cloud_node.py on a free loopback port."""

    def __init__(self, weights: str, trace: bool, spans_path: str):
        cmd = [sys.executable, str(bootstrap.ROOT / "perfbench" / "cloud_node.py"),
               "--trace", str(int(trace)), "--spans", spans_path,
               "serve-cloud", "--listen", "127.0.0.1:0", "--weights", weights,
               "--text", TEXT, "--obj-thresh", str(OBJ_THRESH),
               "--nms-iou", str(NMS_IOU)]
        env = dict(os.environ, YV_LOG="1")
        self.proc = subprocess.Popen(cmd, cwd=bootstrap.ROOT, env=env,
                                     stdin=subprocess.DEVNULL,
                                     stdout=subprocess.PIPE, text=True)
        self.lines: queue.Queue = queue.Queue()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()
        self.exited = False
        try:
            line = self.wait_line("[yolovehicle] cloud node listening on ")
            self.addr = line.rsplit(" ", 1)[1]
        except BaseException:
            self.stop()
            raise

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.lines.put(line.rstrip("\n"))
        self.lines.put(None)

    def wait_line(self, prefix: str) -> str:
        deadline = time.monotonic() + CLOUD_START_S
        while True:
            try:
                line = self.lines.get(timeout=max(deadline - time.monotonic(), 0))
            except queue.Empty:
                raise RuntimeError(f"cloud node: no {prefix!r} line") from None
            if line is None:
                raise RuntimeError("cloud node exited early")
            if line.startswith(prefix):
                return line

    def ping(self) -> None:
        link = ec.SocketTransport(self.addr, CLOUD_TIMEOUT_MS)
        try:
            reply = ec.decode_message(link.request(ec.encode_message(
                ec.WireMessage(ec.MSG_PING, b"perfbench"))))
        finally:
            link.close()
        if reply.msg_type != ec.MSG_PONG or reply.payload != b"perfbench":
            raise RuntimeError(f"cloud node answered ping with {reply}")

    def toggle_trace(self, on: bool) -> None:
        os.kill(self.proc.pid, signal.SIGUSR1)
        self.wait_line("trace on" if on else "trace off")

    def stop(self) -> float:
        """Stops the node and returns its peak RSS in MB, read from the
        exit status's resource usage."""
        if self.exited:
            return 0.0
        # os.kill, not Popen.send_signal: that polls, and a poll that reaps
        # the node would lose the resource usage wait4 reads below
        os.kill(self.proc.pid, signal.SIGTERM)
        deadline = time.monotonic() + 30.0
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                os.kill(self.proc.pid, signal.SIGKILL)
                pid, status, usage = os.wait4(self.proc.pid, 0)
                break
            time.sleep(0.01)
        self.exited = True
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.reader.join(timeout=10.0)
        self.proc.stdout.close()
        return usage.ru_maxrss / 1024.0


class CloudHazy(Workload):
    """Hazed 256x256 frames sent by two closed-loop clients over two TCP
    connections to one cloud node process."""
    name = "cloud_hazy"
    n_frames = 12
    clients = 2

    def __init__(self, seed, weights, tracer, spans_path):
        super().__init__(seed, weights, tracer)
        self.spans_path = spans_path
        self.spans_files: list[str] = []
        self.node: CloudNode | None = None
        self.links: list = []

    def prepare(self) -> None:
        rng = tc.Rng(self.seed)
        transmission = rng.uniform(0.1, 0.25, (self.n_frames,))
        self.pool = [dh.synthesize_haze(md.make_toy_scene(rng, size=256)[0],
                                        float(t)) for t in transmission]
        self.score_pool(want_cloud=True)

    def setup(self) -> float:
        self.stop()
        start = time.perf_counter()
        self.bundle = md.load_bundle(self.weights)
        self.spans_files.append(f"{self.spans_path}-cloud{len(self.spans_files)}.jsonl")
        self.node = CloudNode(self.weights, self.tracer is not None,
                              self.spans_files[-1])
        self.node.ping()
        self.links = [ec.SocketTransport(self.node.addr, CLOUD_TIMEOUT_MS)
                      for _ in range(self.clients)]
        with ThreadPoolExecutor(self.clients) as pool:
            for f in [pool.submit(serve_one, 0, ci, self.pool, self.bundle,
                                  self.links[ci], None)
                      for ci in range(self.clients)]:
                if f.result().failed:
                    raise RuntimeError("cloud warmup frame failed")
        return time.perf_counter() - start

    def _client(self, ci: int, first_op: int, end: float, traced: bool):
        tracer = self.tracer if traced else None
        out = []
        k = 0
        while True:
            op = first_op + self.clients * k + ci
            image = (self.clients * k + ci + first_op) % self.n_frames
            out.append(self.record(serve_one(op, image, self.pool, self.bundle,
                                             self.links[ci], tracer)))
            k += 1
            if time.perf_counter() >= end:
                return out

    def block(self, end, traced):
        with ThreadPoolExecutor(self.clients) as pool:
            futures = [pool.submit(self._client, ci, self.next_op, end, traced)
                       for ci in range(self.clients)]
            out = [o for f in futures for o in f.result()]
        self.next_op = max(o.op for o in out) + 1
        return out

    def set_trace(self, on: bool) -> None:
        self.node.toggle_trace(on)

    def stop(self) -> None:
        for link in self.links:
            link.close()
        self.links = []
        if self.node is not None:
            self.cloud_rss_mb = max(self.cloud_rss_mb, self.node.stop())
            self.node = None

    def extra_spans(self):
        """Spans of every cloud node this run started, one list each."""
        return [spans.read_spans(p) for p in self.spans_files] if self.tracer else []

    def check(self, outcomes):
        routes = {o.image: o.route for o in outcomes if o.dets is not None}
        cloud = {i: dets for i, (dets, _) in self.first.items()
                 if routes.get(i) is ec.Route.CLOUD}
        return super().check(outcomes) + checks.cloud_parity_faults(
            cloud, self.pool, self.bundle, TEXT, OBJ_THRESH, NMS_IOU)


class TrainToy(Workload):
    """model.train_toy rounds, each on its own seed. A round is long
    enough to pass the step (about 20-27) where the fusion gate saturates
    and its gradients turn subnormal, so the slow phase that follows is a
    steady share of every run."""
    name = "train_toy"
    steps = 35
    # every round starts with a set-up of its own, timed to its first step
    blocks = 1

    def prepare(self) -> None:
        self.losses = []
        self.round = 0

    def _train(self, steps: int):
        stamps = []
        start = time.perf_counter()
        rows, _ = md.train_toy(self.seed * 100003 + self.round, steps=steps,
                               text=TEXT,
                               log=lambda line: stamps.append(time.perf_counter()))
        self.round += 1
        return start, stamps, rows

    def setup(self) -> float:
        """Time until train_toy logs its first step."""
        start, stamps, _ = self._train(1)
        return stamps[0] - start

    def block(self, end, traced):
        out = []
        while True:
            op = self.next_op
            with self.tracer.span("bench.op", op) if traced else nullcontext():
                start, stamps, rows = self._train(self.steps)
            self.losses.append(rows)
            if not traced:
                self.setup_times.append(stamps[0] - start)
            gaps = [None] + list(np.diff(stamps) * 1e3)
            out += [Outcome(op + i, 0, gaps[i], traced)
                    for i in range(self.steps)]
            self.next_op += self.steps
            if time.perf_counter() >= end:
                return out

    def check(self, outcomes):
        faults = [f for rows in self.losses for f in checks.loss_faults(rows)]
        return faults + self.unexpected_failures(outcomes)


def make_workload(name, seed, weights, tracer, spans_path) -> Workload:
    if name == "cloud_hazy":
        return CloudHazy(seed, weights, tracer, spans_path)
    return {"edge_small": EdgeSmall, "edge_wide": EdgeWide,
            "train_toy": TrainToy}[name](seed, weights, tracer)


def run(name: str, seed: int, seconds: float, trace: bool):
    """Runs one workload; returns the result object the benchmark prints
    and the faults its checks found."""
    bootstrap.OUT.mkdir(exist_ok=True)
    tag = f"{name}-seed{seed}-{os.getpid()}"
    weights = str(bootstrap.OUT / f"weights-{tag}.bin")
    spans_path = str(bootstrap.OUT / f"spans-{tag}")
    tracer = layers.make_tracer() if trace else None
    work = make_workload(name, seed, weights, tracer, spans_path)
    md.save_bundle(weights, md.init_bundle(WEIGHTS_SEED))
    if not trace:
        plan = [(False, seconds / work.blocks)] * work.blocks
    else:
        # untraced and traced blocks alternate, so that the overhead is
        # measured under the same conditions as the layers
        pairs = 2 if work.blocks > 1 else 1
        plan = [(False, seconds / pairs / 2), (True, seconds / pairs / 2)] * pairs
    outcomes: list[Outcome] = []
    wall = {False: 0.0, True: 0.0}
    block_spans = 0
    try:
        work.prepare()
        for traced, length in plan:
            if tracer:
                tracer.install({"model.load_bundle"})
            work.setup_times.append(work.setup())
            if tracer:
                tracer.uninstall()
            if traced:
                work.set_trace(True)
                tracer.install()
                before = len(tracer.spans)
            start = time.perf_counter()
            outcomes += work.block(start + length, traced)
            wall[traced] += time.perf_counter() - start
            if traced:
                block_spans += len(tracer.spans) - before
                tracer.uninstall()
                work.set_trace(False)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        work.stop()
        if tracer:
            tracer.install({"metrics.map_at"})
        faults = work.check(outcomes)
        if tracer:
            tracer.uninstall()
    finally:
        work.stop()
        os.remove(weights)

    def done(traced):
        return [o for o in outcomes if o.traced == traced and not o.failed]

    def op_ms(traced):
        return [o.ms for o in done(traced) if o.ms is not None]

    result = {"correct": not faults, "attempted": len(outcomes),
              "failed": sum(o.failed for o in outcomes)}
    if trace:
        summary = spans.summarize(tracer.spans, layers.SCOPES)
        cloud_spans = 0
        for node_spans in work.extra_spans():
            spans.summarize(node_spans, layers.SCOPES, into=summary)
            cloud_spans += len(node_spans)
        tracer.write(spans_path + ".jsonl")
        # means, not medians: the host's speed switches between two modes,
        # and a mean shifts smoothly with the mix where a median jumps
        overhead = (np.mean(op_ms(True)) / np.mean(op_ms(False)) - 1.0) * 100.0
        result["metrics"] = layers.layer_metrics(
            summary, sum(o.traced for o in outcomes), block_spans + cloud_spans,
            overhead, work.cloud_rss_mb)
    else:
        values = {
            "setup_s": statistics.median(work.setup_times),
            "ops_per_s": len(done(False)) / wall[False],
            "op_ms_p90": float(np.percentile(op_ms(False), 90)),
            "peak_rss_mb": peak_rss_mb,
        }
        result["metrics"] = {k: {"value": float(v), "unit": END_TO_END[k]}
                             for k, v in values.items()}
    return result, faults
