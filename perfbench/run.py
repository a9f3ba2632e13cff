"""Benchmark for qortho: one seeded workload per run, each in a fresh process.

Usage:
    python3 perfbench/run.py --workload {suite,gram-sweep,points} --seed N \
        --seconds T --trace {0,1}

With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
wraps the package's public functions and reports per-layer calls and self
times instead. Human-readable lines go to stdout; the last stdout line is
one JSON object {"correct", "attempted", "failed", "metrics"}. Results are
also written to perfbench/results/. perfbench/NOTES.md says what each
workload and metric is for.

Every end-to-end time is rescaled to one nominal CPU speed (see
reference.py); the raw figures are printed and stored beside them.
"""
from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUP_PROBES = 11
WORKER_TIMEOUT_S = 150
PROBE_TIMEOUT_S = 30

sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402
from reference import NOMINAL_S  # noqa: E402


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank p-th percentile: the smallest value with p % of values at or below it."""
    ranked = sorted(values)
    return ranked[max(0, math.ceil(p / 100 * len(ranked)) - 1)]


def ranked_times(records) -> list[float]:
    """Op times with every failed op ranked above every finite time."""
    return [math.inf if failure else seconds for seconds, failure in records]


def rescaled(records, refs) -> list[list]:
    """Op times at the nominal CPU speed.

    refs holds [op index, reference seconds] timed before that op (and one
    after the last op). Each op is scaled by NOMINAL_S over the median of the
    five reference timings around it.
    """
    starts = [index for index, _ in refs]
    out = []
    for i, (seconds, failure) in enumerate(records):
        k = bisect.bisect_right(starts, i) - 1
        local = statistics.median(r for _, r in refs[max(0, k - 2):k + 3])
        out.append([seconds * NOMINAL_S / local, failure])
    return out


def ops_per_s(records) -> float:
    """Ops that succeeded per second of timed calls."""
    return sum(1 for _, failure in records if failure is None) / sum(t for t, _ in records)


def end_to_end(records, setup_samples: list[float], peak_rss_kib: int) -> dict[str, tuple[float, str]]:
    """The bounded end-to-end metrics of one untraced run, as name -> (value, unit).

    Percentiles are over the ops that succeeded: at the seed about one suite
    op in ten fails, so ranking failures above every time (see
    `ranked_times`) would put p90 on a failed op in some seeds. Failures are
    bounded through ok_ratio instead.
    """
    ok = [seconds for seconds, failure in records if failure is None]
    return {
        "op_p50_s": (percentile(ok, 50), "s"),
        "op_p90_s": (percentile(ok, 90), "s"),
        "ops_per_s": (ops_per_s(records), "1/s"),
        "ok_ratio": (len(ok) / len(records), "ratio"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (peak_rss_kib / 1024, "MiB"),
    }


def commit_of(root: Path) -> str:
    """HEAD's commit id read from .git without running git; 'unknown' outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_setup_probes() -> tuple[list[float], list[float]]:
    """(raw, rescaled) set-up seconds from SETUP_PROBES fresh processes."""
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py")], cwd=ROOT,
                              capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError("setup probe failed:\n" + proc.stderr)
        seconds, ref = map(float, proc.stdout.split())
        raw.append(seconds)
        scaled.append(seconds * NOMINAL_S / ref)
    return raw, scaled


def run_worker(args) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", str(RESULTS / ("spans-%s.tsv.gz" % args.workload))]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError("workload process failed (exit %d):\n%s" % (proc.returncode, proc.stderr))
    return json.loads(proc.stdout.splitlines()[-1])


def print_layers(layers: dict[str, float], busy: float) -> None:
    print("%-48s %10s %12s %8s" % ("layer metric", "calls", "self_s", "share"))
    for name in sorted(n[:-len(".calls")] for n in layers if n.endswith(".calls")):
        self_s = layers[name + ".self_s"]
        print("%-48s %10d %12.6f %7.1f%%" % (name, layers[name + ".calls"], self_s, 100 * self_s / busy))
    for name in tracing.DERIVED:
        print("%-48s %10s" % (name, "%.6g" % layers[name]))


def main() -> int:
    parser = argparse.ArgumentParser(description="qortho benchmark (one workload per run)")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (ROOT / "src" / "qortho" / "__init__.py").is_file():
        print("error: no qortho package under %s" % (ROOT / "src"), file=sys.stderr)
        return 2

    RESULTS.mkdir(exist_ok=True)
    try:
        setup_raw, setup = ([], []) if args.trace else run_setup_probes()
        summary = run_worker(args)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1

    problems = summary["problems"]
    raw_records = summary["records"]
    records = rescaled(raw_records, summary["refs"])
    attempted = len(records)
    ok = sum(1 for _, failure in records if failure is None)
    if ok == 0:
        print("error: no op succeeded: %s" % summary["examples"], file=sys.stderr)
        return 1
    failures = Counter(failure for _, failure in records if failure)
    speed = [NOMINAL_S / r for _, r in summary["refs"]]
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "ops": attempted, "rounds": summary["rounds"],
        "ops_digest": summary["ops_digest"], "python": summary["python"],
        "mpmath": summary["mpmath"], "mpmath_backend": summary["backend"],
        "nproc": len(os.sched_getaffinity(0)), "commit": commit_of(ROOT),
    }

    print("qortho benchmark  " + "  ".join("%s=%s" % kv for kv in meta.items()))
    print("output digest    sha256:%s" % summary["digest"])
    print("ops              %d attempted, %d ok, %d failed (failed_ratio %.6f)"
          % (attempted, ok, attempted - ok, (attempted - ok) / attempted))
    for name, count in sorted(failures.items()):
        print("  failed %-24s %5d   e.g. %s" % (name, count, summary["examples"][name][:160]))
    ranked = ranked_times(records)
    print("all ops, failed ranked above every time: op_p50 %.6g s, op_p90 %.6g s (n=%d)"
          % (percentile(ranked, 50), percentile(ranked, 90), attempted))
    print("CPU speed        %.3f .. %.3f of nominal (median %.3f) over %d reference timings"
          % (min(speed), max(speed), statistics.median(speed), len(speed)))

    result = {"meta": meta, "digest": summary["digest"], "failures": dict(failures),
              "examples": summary["examples"], "problems": problems}
    if args.trace:
        layers = summary["layers"]
        print("traced spans     %d (self times are raw seconds)" % summary["spans"])
        print_layers(layers, sum(t for t, _ in raw_records))
        untraced = RESULTS / ("%s-seed%d-trace0.json" % (args.workload, args.seed))
        if untraced.exists():
            base = json.loads(untraced.read_text())
            if base["meta"]["ops_digest"] == meta["ops_digest"]:
                plain = base["metrics"]["ops_per_s"]["value"]
                traced = ops_per_s(records)
                print("tracing overhead %.1f%% of untraced ops_per_s (%.4g -> %.4g)"
                      % (100 * (plain - traced) / plain, plain, traced))
                if base["digest"] != summary["digest"]:
                    problems.append("traced output digest differs from the untraced run")
        metrics = {name: {"value": value, "unit": tracing.unit(name)}
                   for name, value in layers.items()}
    else:
        e2e = end_to_end(records, setup, summary["peak_rss_kib"])
        raw = end_to_end(raw_records, setup_raw, summary["peak_rss_kib"])
        print("%-16s %14s %14s" % ("metric", "at nominal", "raw"))
        for name, (value, unit) in e2e.items():
            print("%-16s %14.6g %14.6g %s" % (name, value, raw[name][0], unit))
        print("%-16s %d ok ops of %d" % ("percentile n", ok, attempted))
        result["records"] = records
        result["raw"] = {name: value for name, (value, _) in raw.items()}
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in e2e.items()}

    for problem in problems[:10]:
        print("PROBLEM  " + problem)
    result["metrics"] = metrics
    stem = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    (RESULTS / stem).write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": attempted - ok, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
