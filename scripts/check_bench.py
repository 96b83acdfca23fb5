#!/usr/bin/env python3
"""Enforce micro-bench regression thresholds against a committed baseline.

Compares the `_mean` (or plain) entries of a fresh Google-Benchmark JSON
against the committed baseline and fails when any shared benchmark's ns/op
regressed past the allowed factor. CI machines are noisy and heterogeneous,
so the default factor is deliberately generous — this gate catches
order-of-magnitude regressions (an accidental O(n^2), a lost overlay fast
path), not single-digit percent drift; trajectory analysis stays with the
uploaded artifacts (docs/performance.md).

Each verdict block starts with the host of both runs (Google Benchmark's
`context.num_cpus` and `context.mhz_per_cpu`) and flags a mismatch: the
committed baselines come from both 1-CPU and 4-CPU hosts, and a ratio
across hosts measures the host as much as the code. A mismatch is
reported, never failed.

Usage: scripts/check_bench.py BASELINE.json FRESH.json [factor]
"""
import json
import sys


def load(path):
    """(ns/op by benchmark name, (num_cpus, mhz_per_cpu)) of one run."""
    with open(path) as f:
        doc = json.load(f)
    context = doc.get("context", {})
    host = (context.get("num_cpus"), context.get("mhz_per_cpu"))
    out = {}
    for bench in doc.get("benchmarks", []):
        name = bench.get("name", "")
        # Spread aggregates, and the complexity fit (_BigO / _RMS) that
        # carries coefficients instead of a time.
        if name.endswith(("_median", "_stddev", "_cv", "_min", "_max",
                          "_BigO", "_RMS")):
            continue
        base = name[: -len("_mean")] if name.endswith("_mean") else name
        out[base] = float(bench["real_time"])
    return out, host


def describe(host):
    cpus, mhz = host
    if cpus is None and mhz is None:
        return "unknown host"
    return f"{cpus} CPU(s) @ {mhz} MHz"


def main(argv):
    if len(argv) not in (3, 4):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    (baseline, base_host), (fresh, fresh_host) = load(argv[1]), load(argv[2])
    factor = float(argv[3]) if len(argv) == 4 else 3.0
    shared = sorted(set(baseline) & set(fresh))
    if not shared:
        print(f"check_bench: no shared benchmark names between {argv[1]} "
              f"and {argv[2]}", file=sys.stderr)
        return 2
    mismatch = base_host != fresh_host
    print(f"  host: baseline {describe(base_host)}, fresh {describe(fresh_host)}"
          + (" -- MISMATCH: ratios compare different hosts" if mismatch else ""))
    failed = 0
    for name in shared:
        old, new = baseline[name], fresh[name]
        ratio = new / old if old > 0 else float("inf")
        verdict = "FAIL" if ratio > factor else "ok"
        failed += verdict == "FAIL"
        print(f"  {verdict:4} {name}: {old:12.1f} -> {new:12.1f} ns "
              f"({ratio:5.2f}x, limit {factor:.1f}x)")
    if failed:
        print(f"check_bench: {failed}/{len(shared)} benchmark(s) regressed "
              f"past {factor:.1f}x the baseline", file=sys.stderr)
        return 1
    print(f"check_bench: {len(shared)} benchmark(s) within {factor:.1f}x "
          f"of the baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
