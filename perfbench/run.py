"""yolovehicle benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload in this process and prints, as its last line, one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones; with --trace 1 they are the per-layer
ones, taken from spans around the program's public functions, plus the
tracing overhead. `--workload all` runs every workload, untraced and then
traced, each in a fresh process, and prints a report. See README.md.
"""

import bootstrap

bootstrap.pin_threads()

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

WORKLOADS = ("edge_small", "edge_wide", "cloud_hazy", "train_toy")


def run_one(args) -> int:
    bootstrap.import_program()
    import workloads

    result, faults = workloads.run(args.workload, args.seed, args.seconds,
                                   bool(args.trace))
    for fault in faults[:20]:
        print(f"FAULT {args.workload}: {fault}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Each workload untraced then traced, each in a fresh process."""
    report, ok = {}, True
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, __file__, "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  cwd=bootstrap.ROOT, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} trace={trace}: exit {proc.returncode}")
                ok = False
                continue
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            report.setdefault(name, {})["traced" if trace else "untraced"] = result
            print(f"{name} {'traced' if trace else 'untraced'}: "
                  f"correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}")
            for metric, v in result["metrics"].items():
                print(f"  {metric:34s} {v['value']:14.4f} {v['unit']}")
    print(json.dumps(report))
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.workload == "all":
        bootstrap.import_program()
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
