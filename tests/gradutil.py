"""Shared test helpers: finite-difference checks on a random coordinate
subset, a generator and a dehazing scene posed for them, a cloud link that
is down, and a cloud node served over TCP.

Full parameter matrices are too large for per-coordinate central differences,
so each check probes a deterministic random subset of coordinates; the
analytic gradient is still produced by the full backward pass.
"""

import contextlib
import threading

import numpy as np

from yolovehicle import dehaze as dh
from yolovehicle import edgecloud as ec
from yolovehicle import tensor_core as tc


def coord_subset_grad_check(f_full, param, n=8, seed=0, eps=1e-4):
    """f_full(param) -> (loss, grad_wrt_param); returns max relative error.

    Checks the analytic gradient at n random coordinates of param.
    """
    base = np.asarray(param, dtype=np.float64)
    rng = tc.Rng(seed)
    idx = np.unique(rng.integers(base.size, min(4 * n, base.size)))[:n]

    def g(v):
        p = base.copy()
        p.reshape(-1)[idx] = v
        loss, grad = f_full(p)
        return loss, np.asarray(grad, dtype=np.float64).reshape(-1)[idx]

    return tc.grad_check(g, base.reshape(-1)[idx].copy(), eps)


def pose_generator(gen):
    """Poses a generator away from every kink, in place.

    Finite differences are meaningless when a perturbation straddles a
    non-smooth point, so the check operates where the loss is differentiable:
    the stem and middle conv biases are shifted positive (leaky relus run in
    their linear region), and the head's weights are quartered and its bias
    set to 1.5, so K lies in about [1.2, 1.8]: on an input in [0.45, 0.7]
    every output falls well below its input and stays inside (0, 1), so the
    absolute-difference and clamp terms keep a margin.
    """
    gen.stem.b = np.full_like(gen.stem.b, 0.8)
    gen.mid.b = np.full_like(gen.mid.b, 0.8)
    gen.head.w = gen.head.w * np.float32(0.25)
    gen.head.b = np.full_like(gen.head.b, 1.5)


def smooth_scene(gseed, cseed):
    """A generator and a clear image posed away from every kink (see
    pose_generator)."""
    gen = dh.init_generator(tc.Rng(gseed), channels=4)
    pose_generator(gen)
    clear = tc.Rng(cseed).uniform(0.45, 0.7, (3, 8, 8))
    return gen, clear


class DownTransport:
    """A cloud link that is down: every request fails to connect."""

    def request(self, data: bytes) -> bytes:
        raise ConnectionError("cloud unreachable")


@contextlib.contextmanager
def serving(node):
    """Serves node with a CloudServer on a free local port from a thread;
    yields the server, and shuts it down and closes it on exit. The server
    polls for shutdown every 10 ms: serve_forever's default of 0.5 s would
    make each exit wait up to half a second."""
    server = ec.CloudServer("127.0.0.1:0", node)
    thread = threading.Thread(target=server.serve_forever, args=(0.01,),
                              daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
