#!/usr/bin/env python3
"""The rstp benchmark: builds rstp_perf from this checkout and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The library and the benchmark executable are
built from source with CMake into $CARGO_TARGET_DIR (default .bench_build).
With --trace 0 the last line of standard output is the end-to-end result,
with --trace 1 the per-layer result of the separate traced run:

    {"correct": true, "attempted": 1000, "failed": 0, "metrics": {...}}

setup_s is measured here: rstp_perf is started several times with
--setup-only and timed from process start until it reports its engine ready;
the median is reported. When the seed and scale are those the digests in
perfbench/digests.json were recorded at, the batch's digest must match, or
every unit counts as failed.

Extra options, for the benchmark's own tests (perfbench/selftest.py):
  --scale X       multiply every batch size by X (0 < X <= 1)
  --tamper output corrupt one checked output; the run must report failures
  --digests PATH  read recorded digests from PATH instead
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("alpha_stream", "alpha_churn", "block_grid", "adversary_search")
SETUP_SPAWNS = 15
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--tamper", choices=("output",))
    p.add_argument("--digests", default=os.path.join(HERE, "digests.json"))
    args = p.parse_args(argv)
    if not 0 < args.scale <= 1:
        p.error("--scale must be in (0, 1]")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def build():
    """Configures and builds rstp_perf; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("rstp sources (src/) not found next to perfbench/")
    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target_dir, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "rstp_perf", "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "rstp_perf")


def measure_setup(binary, args):
    """Median seconds from process start until the engine is built."""
    samples = []
    for _ in range(SETUP_SPAWNS):
        start = time.perf_counter()
        with subprocess.Popen(
                [binary, "--workload", args.workload, "--seed", str(args.seed),
                 "--seconds", "1", "--trace", "0", "--scale", repr(args.scale),
                 "--setup-only"],
                stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - start)
            proc.stdout.read()
            code = proc.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError("rstp_perf --setup-only failed")
    return statistics.median(samples)


def recorded_digest(path, workload, seed, scale):
    with open(path) as f:
        recorded = json.load(f)
    if seed != recorded["seed"]:
        return None
    return recorded["digests"].get("%s@%g" % (workload, scale))


def main(argv):
    args = parse_args(argv)
    binary = build()

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--scale", repr(args.scale)]
    if args.tamper:
        cmd += ["--tamper", args.tamper]
    setup_s = None if args.trace else measure_setup(binary, args)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError("rstp_perf exited with code %d" % proc.returncode)

    result = None
    for line in proc.stdout.splitlines():
        if line.startswith("perf-result "):
            result = json.loads(line[len("perf-result "):])
        else:
            print(line)
    if result is None:
        raise RuntimeError("rstp_perf printed no result")

    attempted = result["attempted"]
    failed = result["failed"]
    want = recorded_digest(args.digests, args.workload, args.seed, args.scale)
    if want is not None:
        ok = want == result["digest"]
        print("digest %s: %s (recorded %s)" % ("ok" if ok else "MISMATCH", result["digest"], want))
        if not ok:
            failed = attempted
    else:
        print("digest %s (no recorded digest for this seed and scale)" % result["digest"])
    print("fingerprint: " + json.dumps(result["fingerprint"], sort_keys=True))

    metrics = dict(result["metrics"])
    if setup_s is not None:
        metrics["setup_s"] = {"value": setup_s, "unit": "s"}
    print("failed_frac: %.6g (%d of %d units)" % (failed / attempted, failed, attempted))
    for name, m in metrics.items():
        print("  %-44s %14s %s" % (name, "%.6g" % m["value"] if m["value"] is not None
                                   else "n/a", m["unit"]))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except (RuntimeError, OSError, subprocess.SubprocessError, ValueError, KeyError) as e:
        log("perfbench: %s" % e)
        sys.exit(1)
