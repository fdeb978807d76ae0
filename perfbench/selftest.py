#!/usr/bin/env python3
"""The benchmark's own tests. Run from the root of a checkout:

    python3 perfbench/selftest.py

1. A tiny-size pass over all four workloads, with and without tracing: every
   run is correct, and the recorded tiny-size digests match.
2. Every printed metric name appears in BENCHMARK.json with its unit, and
   every metric BENCHMARK.json lists is printed.
3. Negative tests: a wrong output (--tamper output) and a tampered recorded
   digest are both counted as failed units.
4. A copy holding only BENCHMARK.json and perfbench/ exits non-zero without
   printing a result.
5. Unoptimized and sanitizer builds of rstp_perf refuse to record (skip with
   --skip-refused-builds; each is a full build of the library).

Scratch files go under the build directory ($CARGO_TARGET_DIR, default
.bench_build), which is ignored by git.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TINY = ["--scale", "0.01", "--seconds", "0.2"]
SCRATCH = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "selftest")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]

failures = []


def check(cond, what):
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        failures.append(what)


def run(workload, trace, *extra, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", "1", "--trace", str(trace), *TINY, *extra],
        cwd=cwd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = None
    if proc.returncode == 0 and lines:
        result = json.loads(lines[-1])
    return proc, result


def expected_metrics(trace):
    return {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}


def test_tiny_pass():
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc, result = run(workload, trace)
            label = "%s --trace %d" % (workload, trace)
            check(result is not None, label + ": exits 0 with a result line")
            if result is None:
                print(proc.stderr[-2000:])
                continue
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  label + ": result has exactly correct/attempted/failed/metrics")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                  label + ": every unit passes")
            check("digest ok" in proc.stdout, label + ": recorded tiny-size digest matches")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            want = expected_metrics(trace)
            check(got == want, label + ": printed metrics equal BENCHMARK.json names and units"
                  + ("" if got == want else " (diff %s)" % sorted(set(got.items()) ^ set(want.items()))))
            check(all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()),
                  label + ": every metric value is a number")


def test_tampered_output():
    for workload in WORKLOADS:
        _, result = run(workload, 0, "--tamper", "output")
        check(result is not None and not result["correct"]
              and result["failed"] == result["attempted"] > 0,
              workload + ": a wrong output counts every unit as failed")


def test_tampered_digest():
    os.makedirs(SCRATCH, exist_ok=True)
    with open(os.path.join(HERE, "digests.json")) as f:
        recorded = json.load(f)
    for key, digest in recorded["digests"].items():
        recorded["digests"][key] = "%016x" % (int(digest, 16) ^ 1)
    path = os.path.join(SCRATCH, "tampered_digests.json")
    with open(path, "w") as f:
        json.dump(recorded, f)
    _, result = run("alpha_churn", 0, "--digests", path)
    check(result is not None and not result["correct"]
          and result["failed"] == result["attempted"] > 0,
          "a tampered recorded digest counts every unit as failed")


def test_bare_copy_fails():
    bare = os.path.join(SCRATCH, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "alpha_stream", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "a directory without the rstp sources exits non-zero and prints no result")
    shutil.rmtree(bare, ignore_errors=True)


def refuses(name, *cmake_args):
    build = os.path.join(SCRATCH, name)
    subprocess.run(["cmake", "-S", HERE, "-B", build, *cmake_args],
                   check=True, capture_output=True)
    subprocess.run(["cmake", "--build", build, "--target", "rstp_perf", "-j",
                    str(min(4, os.cpu_count() or 1))], check=True, capture_output=True)
    proc = subprocess.run([os.path.join(build, "rstp_perf"), "--workload", "alpha_stream",
                           "--seed", "1", "--seconds", "0.1", "--trace", "0"],
                          capture_output=True, text=True, timeout=60)
    return proc.returncode == 3 and "refusing" in proc.stderr and not proc.stdout.strip()


def test_refused_builds():
    check(refuses("debug", "-DCMAKE_BUILD_TYPE=Debug"), "an unoptimized build refuses to record")
    check(refuses("ubsan", "-DCMAKE_BUILD_TYPE=Release", "-DCMAKE_CXX_FLAGS=-fsanitize=undefined"),
          "a sanitizer build refuses to record")


def main():
    test_tiny_pass()
    test_tampered_output()
    test_tampered_digest()
    test_bare_copy_fails()
    if "--skip-refused-builds" not in sys.argv:
        test_refused_builds()
    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
