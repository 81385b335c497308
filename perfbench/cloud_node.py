"""Runs `yolovehicle serve-cloud` from the checkout's sources.

    python3 perfbench/cloud_node.py --trace 0|1 --spans PATH serve-cloud ...

With --trace 1, SIGUSR1 installs the span wrappers the benchmark uses and
the next SIGUSR1 removes them again; each switch prints "trace on" or
"trace off" on stdout. SIGTERM stops the server; the spans are then
written to PATH.
"""

import bootstrap

bootstrap.pin_threads()
bootstrap.import_program()

import argparse  # noqa: E402
import os  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402

import layers  # noqa: E402
from yolovehicle import cli  # noqa: E402


def _stop(signum, frame):
    raise KeyboardInterrupt


def _watch_parent() -> None:
    """Stops this node when the benchmark that started it has gone, so a
    benchmark killed mid-run leaves no server behind."""
    parent = os.getppid()
    while os.getppid() == parent:
        time.sleep(0.5)
    os.kill(os.getpid(), signal.SIGTERM)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spans", required=True)
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    tracer = layers.make_tracer()

    def toggle(signum, frame):
        if tracer.installed:
            tracer.uninstall()
            os.write(1, b"trace off\n")
        else:
            tracer.install()
            os.write(1, b"trace on\n")

    if args.trace:
        signal.signal(signal.SIGUSR1, toggle)
    signal.signal(signal.SIGTERM, _stop)
    threading.Thread(target=_watch_parent, daemon=True).start()
    try:
        cli.main(args.command)
    finally:
        tracer.uninstall()
        if args.trace:
            tracer.write(args.spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())
