#!/usr/bin/env python3
"""Build and run the lbsim host-time benchmark (see hostbench/README.md).

Run from the root of a source checkout:

    python3 hostbench/run.py --workload paper2 --seed 1 --seconds 30 --trace 0
    python3 hostbench/run.py --report [--seed 1] [--seconds 30]   # every workload, both modes
    python3 hostbench/run.py --test                                 # benchmark-owned tests

The first run configures and builds the lbsim libraries and the benchmark in
Release mode under $CARGO_TARGET_DIR (default .bench_build); later runs only
re-check the build. Build output goes to stderr. The benchmark's own output
goes to stdout, and its last line is one JSON object with the keys correct,
attempted, failed and metrics.

An end-to-end run (--trace 0) splits its seconds over PROCESSES benchmark
processes started one after another and pools their metrics: how fast a
process runs depends on where its memory happens to land, by up to about
10 % on the same seed, so pooling several processes averages that out. A
per-layer run (--trace 1) is one process.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
WORKLOADS = ("paper2", "churn256", "lossy_testbed")
RUN_TIMEOUT_S = 170
PROCESSES = 6
MIN_CALLS = 120  # timed calls a run makes at least, pooled over its processes
# How each end-to-end metric is pooled over the processes of a run.
MEAN = ("reps_per_s", "ns_per_event", "rep_ms_p50", "rep_ms_p90", "traced_reps_per_s")


def build_dir():
    return os.path.join(REPO, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "hostbench")


def build(target):
    """Configures (once) and builds `target`; returns the build directory."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", out, "--target", target, "-j", jobs], check=True,
                   stdout=sys.stderr, stderr=sys.stderr)
    return out


def git_revision():
    try:
        rev = subprocess.run(["git", "-C", REPO, "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return rev.stdout.strip() if rev.returncode == 0 and rev.stdout.strip() else "unknown"


def run_bench(binary, workload, seed, seconds, trace, min_calls=MIN_CALLS, timeout=RUN_TIMEOUT_S):
    """Runs one benchmark process; returns (exit code, stdout lines)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds),
           "--trace", str(trace), "--min-calls", str(min_calls), "--git-rev", git_revision(),
           "--spans-dir", os.path.join(build_dir(), "spans")]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        print(f"hostbench: {workload} did not finish within {timeout:.0f} s", file=sys.stderr)
        return 1, []
    sys.stderr.write(proc.stderr)
    return proc.returncode, proc.stdout.splitlines()


def totals(lines):
    """The `# totals key=value ...` line of one process, as a dict of ints."""
    for line in lines:
        if line.startswith("# totals "):
            return {k: int(v) for k, v in (f.split("=") for f in line.split()[2:])}
    return None


def run_pooled(binary, workload, seed, seconds):
    """Runs an end-to-end measurement as PROCESSES processes of seconds/PROCESSES
    each, one after another; returns (exit code, stdout lines) with the pooled
    metric lines and result line last."""
    processes = PROCESSES
    deadline = time.monotonic() + RUN_TIMEOUT_S
    out, results, counts = [], [], []
    for i in range(processes):
        code, lines = run_bench(binary, workload, seed, seconds / processes, 0,
                                math.ceil(MIN_CALLS / processes), deadline - time.monotonic())
        result = parse_result(lines)
        out.append(f"# process {i + 1}/{processes}")
        # A process's own metric lines become comments; the pooled ones follow.
        out.extend(l if l.startswith("#") else "#   " + l
                   for l in (lines[:-1] if result is not None else lines))
        if code != 0 or result is None or totals(lines) is None:
            return code or 1, out
        results.append(result)
        counts.append(totals(lines))

    def values(name):
        return [r["metrics"][name]["value"] for r in results]

    calls = sum(c["calls"] for c in counts)
    failed = sum(r["failed"] for r in results)
    pooled = {name: statistics.fmean(values(name)) for name in MEAN}
    pooled["setup_s"] = statistics.median(values("setup_s"))
    pooled["peak_rss_mb"] = max(values("peak_rss_mb"))
    error_rate = failed / (calls + processes)  # each process also runs replication 0 cold
    pooled["check_pass_rate"] = max(0.0, 1.0 - error_rate)
    of = f"{processes} processes, {calls} calls"
    notes = {
        "reps_per_s": f"mean of {of}",
        "ns_per_event": f"mean of {of}",
        "rep_ms_p50": f"mean of the {processes} processes' medians, {calls} calls",
        "rep_ms_p90": f"tail: mean of the {processes} processes' p90s, {calls} calls, "
                      f"{sum(c['beyond_p90'] for c in counts)} beyond their process's p90",
        "setup_s": f"median of {processes} processes' medians, "
                   f"{sum(c['setups'] for c in counts)} set-ups",
        "peak_rss_mb": f"largest VmHWM of {processes} processes",
        "traced_reps_per_s": f"mean of {of}",
        "check_pass_rate": f"1 - error_rate; error_rate {error_rate!r} = {failed} failed checks "
                           f"/ {calls + processes} calls",
    }
    units = results[0]["metrics"]
    out.append(f"# pooled over {processes} processes of {seconds / processes!r} s")
    for name in units:
        out.append(f"metric {name} = {pooled[name]!r} {units[name]['unit']}  [{notes[name]}]")
    result = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": {name: {"value": pooled[name], "unit": units[name]["unit"]} for name in units},
    }
    out.append(json.dumps(result))
    return 0, out


def measure(binary, workload, seed, seconds, trace):
    if trace:
        return run_bench(binary, workload, seed, float(seconds), 1)
    return run_pooled(binary, workload, seed, float(seconds))


def parse_result(lines):
    """The final JSON line, validated against the output contract, or None."""
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return None
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return None
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true",
                        help="run every workload in both modes and print all metrics")
    parser.add_argument("--test", action="store_true", help="build and run hostbench_test")
    args = parser.parse_args()

    try:
        if args.test:
            out = build("hostbench_test")
            return subprocess.run([os.path.join(out, "hostbench_test")]).returncode
        binary = os.path.join(build("hostbench"), "hostbench")
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"hostbench: build failed: {error}", file=sys.stderr)
        return 1

    if args.report:
        failed = False
        for workload in WORKLOADS:
            for trace in (0, 1):
                code, lines = measure(binary, workload, args.seed, args.seconds, trace)
                result = parse_result(lines)
                print("\n".join(line for line in lines[:-1]))
                if code != 0 or result is None or not result["correct"]:
                    print(f"# {workload} trace={trace}: FAILED (exit {code})")
                    failed = True
        return 1 if failed else 0

    if args.workload is None:
        parser.error("--workload is required (or use --report / --test)")
    code, lines = measure(binary, args.workload, args.seed, args.seconds, args.trace)
    if code != 0 or parse_result(lines) is None:
        print("\n".join(lines[:-1]), file=sys.stderr)
        print(f"hostbench: run failed (exit {code})", file=sys.stderr)
        return code or 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
