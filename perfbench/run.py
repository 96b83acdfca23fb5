#!/usr/bin/env python3
"""End-to-end sweep benchmark for the FARe simulator.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fig5_slice --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --all          # every workload, untraced + traced
    python3 perfbench/run.py --selftest     # tiny sizes, checks the benchmark itself
    python3 perfbench/run.py --write-digests  # re-record the default-seed digests

Builds the library and the fare_perfbench binary (perfbench/CMakeLists.txt)
into .bench_build/, runs it and checks that its last output line
reports exactly the metrics BENCHMARK.json names, with their units.
See perfbench/README.md for the workloads and metrics.
"""
import argparse
import json
import os
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "fare_perfbench")
SELFTEST_EPOCHS = 2
SELFTEST_SEEDS = (1, 7)  # the default seed and one other
# Workloads of fare_perfbench that BENCHMARK.json does not list. fig5_slice_x4
# runs fig5_slice's cells on a session pool after a serial reference of them,
# so one run costs about two fig5_slice runs; it is run by --selftest, --all
# and by hand.
UNLISTED_WORKLOADS = ("fig5_slice_x4",)


def child_env():
    """Environment for the build and the binary: temporary files stay in the checkout."""
    tmp = os.path.abspath(os.path.join(".bench_build", "tmp"))
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")):
        fail("run from the root of a FARe checkout (no CMakeLists.txt/src here)")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = [["cmake", "--build", BUILD_DIR, "--target", "fare_perfbench", "-j", jobs]]
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", "perfbench", "-B", BUILD_DIR])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          env=child_env()).returncode != 0:
            fail("build failed: " + " ".join(step))


def expected_metrics(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def drive(workload, seed, seconds, trace, extra=()):
    """Run the benchmark binary once; returns (exit code, stdout lines, parsed result)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=child_env())
    lines = proc.stdout.splitlines()
    result = None
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return proc.returncode, lines, result


def check_result(result, trace):
    """Problems with the result's shape: keys, counts, metric names and units."""
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        return ["result line is not {correct, attempted, failed, metrics}"]
    problems = []
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        problems.append("failed must be a whole number >= 0")
    want = expected_metrics(trace)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        problems.append(f"metrics differ from BENCHMARK.json: missing {missing}, "
                        f"unexpected {extra}, wrong unit {wrong}")
    return problems


def workload_names():
    with open("BENCHMARK.json") as f:
        return [w["name"] for w in json.load(f)["workloads"]] + list(UNLISTED_WORKLOADS)


def selftest():
    """Tiny sizes: every workload, both modes, the default and one other seed."""
    failures = 0
    for workload in workload_names():
        for seed in SELFTEST_SEEDS:
            for trace in (0, 1):
                code, lines, result = drive(workload, seed, 0, trace,
                                            ["--epochs", str(SELFTEST_EPOCHS)])
                problems = [f"exit code {code}"] if code != 0 else check_result(result, trace)
                if not problems and not result["correct"]:
                    problems.append("run reports correct=false")
                if not problems and result["failed"]:
                    problems.append(f"{result['failed']} failed cells")
                status = "ok" if not problems else "FAIL: " + "; ".join(problems)
                print(f"selftest {workload} seed={seed} trace={trace}: {status}")
                failures += bool(problems)
    print(f"selftest: {failures} failure(s)")
    return 1 if failures else 0


def write_digests():
    # fig5_slice_x4 shares fig5_slice's digest file, so one workload per file.
    for workload in ("fig5_slice", "online_tolerance", "transformer_sweep_40ep"):
        code, lines, result = drive(workload, 1, 0, 0, ["--write-digest"])
        if code != 0 or not result or not result["correct"]:
            fail(f"could not record digests for {workload}")
    return 0


def run_all(seconds):
    """Every workload untraced then traced, with a summary table."""
    rows = []
    for workload in workload_names():
        for trace in (0, 1):
            code, lines, result = drive(workload, 1, seconds, trace)
            print("\n".join(lines))
            if code != 0 or check_result(result, trace):
                fail(f"{workload} trace={trace} did not produce a valid result")
            rows.append((workload, trace, result))
    print(f"\n{'workload':24} {'metric':34} {'value':>14}  unit")
    for workload, trace, result in rows:
        for name, m in result["metrics"].items():
            print(f"{workload:24} {name:34} {m['value']:14.6g}  {m['unit']}")
        print(f"{workload:24} {'cells attempted/failed':34} "
              f"{result['attempted']:>7}/{result['failed']:<6}  correct={result['correct']}")
    return 0 if all(r["correct"] and not r["failed"] for _, _, r in rows) else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--write-digests", action="store_true")
    args = parser.parse_args()
    if not os.path.isfile("BENCHMARK.json"):
        fail("run from the repository root (BENCHMARK.json not found)")
    build()
    if args.selftest:
        return selftest()
    if args.write_digests:
        return write_digests()
    if args.all:
        return run_all(args.seconds)
    if not args.workload:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    code, lines, result = drive(args.workload, args.seed, args.seconds, args.trace)
    problems = [f"fare_perfbench exited with code {code}"] if code != 0 else check_result(result, args.trace)
    if problems:
        print("\n".join(lines), file=sys.stderr)
        fail("; ".join(problems))
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
