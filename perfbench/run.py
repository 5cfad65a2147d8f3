#!/usr/bin/env python3
"""Build the benchmark and the simulation server from source, then run it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the repository root. The measuring is done by the Rust program in
perfbench/src; this script builds it and the `ssdx-server` binary into
$CARGO_TARGET_DIR (default .bench_build), runs it in a process group of its
own so nothing it starts outlives it, and relays its output. The last line
of standard output is the run's JSON summary. `--workload all` runs every
workload in turn and prints every metric by name with its unit in one table.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

WORKLOADS = ["fig6-seqwrite", "gc-zipf-sweep", "service-zipf-step"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
# glibc otherwise raises its mmap threshold as large blocks are freed and
# keeps them in per-thread arenas, so the peak resident set would depend on
# thread timing. A fixed threshold returns every freed command stream to
# the system, which makes `peak_rss_mb` repeat run to run.
RUN_ENV = {"MALLOC_MMAP_THRESHOLD_": "65536"}


def build(target_dir):
    command = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join("perfbench", "Cargo.toml"),
        "-p", "perfbench", "-p", "ssdx-server",
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    # Cargo's output goes to stderr so the summary stays the last stdout line.
    done = subprocess.run(command, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return done.returncode == 0


def run_one(binary, workload, args):
    """Runs one workload; returns (exit code, its stdout)."""
    command = [
        binary, "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    child = subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True, start_new_session=True,
        env=dict(os.environ, **RUN_ENV),
    )
    try:
        out, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except BaseException:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        raise
    finally:
        # The benchmark stops its server itself; this only catches strays.
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return child.returncode, out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()

    os.chdir(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not build(target_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target_dir, "release", "perfbench")

    if args.workload != "all":
        code, out = run_one(binary, args.workload, args)
        sys.stdout.write(out)
        return code

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for workload in WORKLOADS:
        code, out = run_one(binary, workload, args)
        print(f"== {workload}", file=sys.stderr)
        sys.stderr.write(out)
        lines = out.strip().splitlines()
        if code != 0 or not lines:
            print(f"perfbench: {workload} failed (exit {code})", file=sys.stderr)
            return code or 1
        summary = json.loads(lines[-1])
        combined["correct"] &= summary["correct"]
        combined["attempted"] += summary["attempted"]
        combined["failed"] += summary["failed"]
        for name, metric in summary["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
            rows.append((workload, name, metric["value"], metric["unit"]))
        error_rate = summary["failed"] / summary["attempted"]
        rows.append((workload, "error_rate", error_rate, "ratio"))
    for workload, name, value, unit in rows:
        print(f"{workload:<20} {name:<36} {value:>20.6f} {unit}")
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
