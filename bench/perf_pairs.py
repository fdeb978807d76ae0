#!/usr/bin/env python3
"""Alternating parent/change pairs of the perfbench benchmark for one workload.

    python3 bench/perf_pairs.py --workload alpha_stream --seed 1 [--pairs 10]

Run from anywhere inside a checkout. The working tree is the change. The base
is its parent: HEAD while tracked files have uncommitted changes, HEAD~1 once
the change is committed. The base is exported with `git archive` into
`.bench_build/perf_pairs/` (kept and reused while the base commit stays the
same); each side builds into its own CARGO_TARGET_DIR there, so the two builds
never share objects. The script then runs `perfbench/run.py --trace 0` for
BENCHMARK.json's `run_seconds` alternately on both sides, swapping which side
goes first on every pair, and prints, for every end-to-end metric of
BENCHMARK.json:

  * each side's median and quartiles (Q1, Q3);
  * the change's win count (ties count for neither side);
  * a verdict. With fewer than 10 pairs it is "too few pairs". Otherwise
    "gain" needs the change to win at least 9/10 of the pairs and its median
    to beat the base median by more than the base's own quartile distance
    (Q3 - Q1); "worse" means the change's median is worse than the base's by
    more than the metric's bound; "unresolved" means that bound is narrower
    than the base's quartile distance; otherwise "no claim".

Both sides of every pair must print the same digest of the workload's fold:
on a held-out seed there is no recorded digest to check either side against,
so agreement with the base is the only behaviour check. A pair whose sides
disagree, or whose run reports failed units or a mismatch with a recorded
digest, is printed and makes the script exit non-zero.

With --json-out PATH the same summary is also written to PATH as one JSON
object: the base commit, workload, seed, pairs and run seconds, each pair's
digests, and per metric each side's median and quartiles, the ratio, the
wins and the verdict. These files are the trajectory kept under
bench/trajectory/. Uses the standard library only.
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build", "perf_pairs")
MIN_PAIRS = 10


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def parse_args(argv, spec):
    workloads = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pairs", type=int, default=MIN_PAIRS)
    p.add_argument("--json-out", metavar="PATH",
                   help="also write the summary to PATH as JSON")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    args.seconds = spec["run_seconds"]
    return args


def base_revision():
    """HEAD while tracked files have uncommitted changes, else HEAD~1."""
    status = subprocess.run(["git", "-C", ROOT, "status", "--porcelain", "--untracked-files=no"],
                            check=True, stdout=subprocess.PIPE, text=True).stdout
    return "HEAD" if status.strip() else "HEAD~1"


def export_base(rev, dest):
    """Writes the tree of `rev` to `dest` (replacing an older export)."""
    commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify", rev + "^{commit}"],
                            check=True, stdout=subprocess.PIPE, text=True).stdout.strip()
    stamp = os.path.join(dest, ".perf_pairs_rev")
    if os.path.isfile(stamp):
        with open(stamp) as f:
            if f.read().strip() == commit:
                return commit
    shutil.rmtree(dest, ignore_errors=True)
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", commit], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise RuntimeError("git archive %s failed" % commit)
    with open(stamp, "w") as f:
        f.write(commit + "\n")
    return commit


def run_once(checkout, target_dir, args):
    """One perfbench run; returns (metrics dict, failed units, digest line)."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    cmd = [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError("perfbench failed in %s (exit %d)" % (checkout, proc.returncode))
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    digest = next((l for l in lines if l.startswith("digest")), "digest ?")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    return values, result["failed"], digest


def digest_value(line):
    """The hex digest in run.py's digest line, or None when there is none."""
    m = re.match(r"digest (?:ok: |MISMATCH: )?([0-9a-f]+) ", line)
    return m.group(1) if m else None


def pair_problems(base, change):
    """Why one pair fails the behaviour check; empty when it passes.

    `base` and `change` are each side's (failed units, digest line)."""
    problems = []
    for side, (failed, line) in (("base", base), ("change", change)):
        if failed:
            problems.append("%s reported %d failed units" % (side, failed))
        if "MISMATCH" in line:
            problems.append("%s digest mismatches the recorded one" % side)
    want, got = digest_value(base[1]), digest_value(change[1])
    if want is None or want != got:
        problems.append("digests differ: base %s, change %s" % (want, got))
    return problems


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def verdict(metric, base, change, wins, pairs):
    if pairs < MIN_PAIRS:
        return "too few pairs"
    lower = metric["better"] == "lower"
    q1, med_b, q3 = quartiles(base)
    med_c = statistics.median(change)
    spread = q3 - q1
    gain = (med_b - med_c) if lower else (med_c - med_b)
    if wins * 10 >= 9 * pairs and gain > spread:
        return "gain"
    if -gain > metric["bound"] * med_b:
        return "worse"
    if spread > metric["bound"] * med_b:
        return "unresolved"
    return "no claim"


def summarize(spec, samples, pairs):
    """One row per end-to-end metric: each side's quartiles, ratio, wins, verdict."""
    rows = []
    for metric in spec["end_to_end"]:
        name = metric["name"]
        base = [s[name] for s in samples["base"]]
        change = [s[name] for s in samples["change"]]
        lower = metric["better"] == "lower"
        wins = sum(1 for b, c in zip(base, change) if (c < b if lower else c > b))
        bq, cq = quartiles(base), quartiles(change)
        rows.append({
            "metric": name,
            "better": metric["better"],
            "base": {"median": bq[1], "q1": bq[0], "q3": bq[2]},
            "change": {"median": cq[1], "q1": cq[0], "q3": cq[2]},
            "ratio": cq[1] / bq[1] if bq[1] else None,
            "wins": wins,
            "verdict": verdict(metric, base, change, wins, pairs),
        })
    return rows


def trajectory_record(args, commit, rows, digests, failed):
    """The --json-out document."""
    return {
        "workload": args.workload,
        "seed": args.seed,
        "pairs": args.pairs,
        "run_seconds": args.seconds,
        "base_commit": commit,
        "digests": digests,
        "failed": failed,
        "metrics": rows,
    }


def write_json(path, record):
    with open(path, "w") as f:
        json.dump(record, f, indent=2, sort_keys=True)
        f.write("\n")


def main(argv):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    args = parse_args(argv, spec)
    os.makedirs(WORK, exist_ok=True)
    base_src = os.path.join(WORK, "base_src")
    rev = base_revision()
    commit = export_base(rev, base_src)
    sides = {"base": (base_src, os.path.join(WORK, "base_target")),
             "change": (ROOT, os.path.join(WORK, "change_target"))}
    log("base %s (%s) vs the working tree: %s seed %d, %d pairs of %gs"
        % (commit[:12], rev, args.workload, args.seed, args.pairs, args.seconds))
    samples = {"base": [], "change": []}
    digests = []
    bad = False
    for i in range(args.pairs):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        checks = {}
        for side in order:
            values, failed, digest = run_once(*sides[side], args)
            samples[side].append(values)
            checks[side] = (failed, digest)
            log("pair %2d %-6s failed=%d %s %s" % (
                i + 1, side, failed, digest.split(" (")[0],
                " ".join("%s=%.6g" % kv for kv in sorted(values.items()))))
        digests.append({side: digest_value(checks[side][1]) for side in checks})
        for problem in pair_problems(checks["base"], checks["change"]):
            log("pair %2d FAILED: %s" % (i + 1, problem))
            bad = True

    print("%s seed %d, %d pairs of %gs, base %s" % (
        args.workload, args.seed, args.pairs, args.seconds, commit[:12]))
    print("%-16s %-34s %-34s %7s %6s  %s" % (
        "metric", "base median [Q1, Q3]", "change median [Q1, Q3]", "ratio", "wins",
        "verdict"))
    rows = summarize(spec, samples, args.pairs)
    fmt = "%.4g [%.4g, %.4g]"
    for row in rows:
        b, c = row["base"], row["change"]
        print("%-16s %-34s %-34s %7.3f %3d/%-2d  %s" % (
            row["metric"], fmt % (b["median"], b["q1"], b["q3"]),
            fmt % (c["median"], c["q1"], c["q3"]),
            row["ratio"] if row["ratio"] is not None else float("nan"), row["wins"],
            args.pairs, row["verdict"]))
    if args.json_out:
        write_json(args.json_out, trajectory_record(args, commit, rows, digests, bad))
    if bad:
        print("FAILED: a pair reported failed units or its digests disagree")
        return 1
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except (RuntimeError, OSError, subprocess.SubprocessError, ValueError, KeyError) as e:
        log("perf_pairs: %s" % e)
        sys.exit(1)
