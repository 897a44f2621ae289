#!/usr/bin/env python3
"""walkcover benchmark: two CLI workloads, each repetition in a fresh
interpreter.

    python3 perfbench/run.py --workload sampling --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout; walkcover is imported from its
``src/``.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: end-to-end
metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.  The
line before it records the run facts and every sample.  ``--workload
all`` prints the end-to-end metrics and error rate of every workload.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from workloads import SCALES, WORKLOADS  # noqa: E402

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "rng.calls": "count", "rng.s": "s", "rng.steps_per_s": "1/s",
    "rng.share": "ratio", "rng.philox_words_per_s": "1/s",
    "montecarlo.s": "s", "montecarlo.self_s": "s", "montecarlo.walk_steps": "count",
    "montecarlo.walk_steps_per_s": "1/s", "montecarlo.live_fraction": "ratio",
    "montecarlo.thread_busy_ratio": "ratio", "walks_per_s": "1/s",
    "green.value.calls": "count", "green.evals": "count",
    "green.cache_hit_ratio": "ratio", "green.stepsum.simple.s": "s",
    "green.stepsum.diagonal_difference.s": "s", "green.stepsum.calls": "count",
    "green.fourier.s": "s", "green.fourier.calls": "count",
    "green.bound_over_tol": "ratio",
    "hitting.first_entry.calls": "count", "hitting.first_entry.s": "s",
    "hitting.self_s": "s",
    "exact.cover.calls": "count", "exact.cover.s": "s",
    "exact.sweep.cases": "count", "exact.sweep.cases_per_s": "1/s",
    "exact.staircase.paths": "count", "exact.staircase.s": "s",
    "comb.check.calls": "count", "comb.check.s": "s",
    "reflect.reduce.calls": "count", "reflect.reduce.s": "s",
    "cli.overhead_s": "s", "trace.overhead_ratio": "ratio",
}

SETUP_PROBES = 5       # setup-only interpreters per run, besides the repetitions
MIN_REPS = 3           # untraced repetitions per run, at least
MIN_TRACED = 2         # traced and untraced repetitions per traced run, at least
TIME_LIMIT = 170        # seconds a run may take, whatever --seconds asks
RUN_DIR = ROOT / ".perfbench_run"


def _child(workload, seed, threads, scale, deadline, trace=0, setup_only=False,
           spans_out=None):
    """Run one repetition in a fresh interpreter, stopping it at
    ``deadline``; returns its result with ``setup_s`` filled in, or None
    when it failed."""
    cmd = [sys.executable, str(HERE / "child.py"), "--root", str(ROOT),
           "--workload", workload, "--seed", str(seed), "--threads", str(threads),
           "--scale", scale, "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    if spans_out:
        cmd += ["--spans-out", str(spans_out)]
    env = {k: v for k, v in os.environ.items() if k != "WALKCOVER_THREADS"}
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        print(f"{workload}: repetition timed out", file=sys.stderr)
        return None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{workload}: repetition exited {proc.returncode}", file=sys.stderr)
        return None
    res = json.loads(lines[-1])
    res["setup_s"] = res["ready"] - t0
    return res


def _facts(seed, threads, versions) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                capture_output=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, **versions, "git_commit": commit,
            "seed": seed, "threads": threads}


def run_workload(name, seed, seconds, trace, threads, scale) -> tuple[dict, dict]:
    """Measure one workload for about ``seconds``; returns the result
    line and the detail record."""
    start = time.monotonic()
    deadline = start + TIME_LIMIT
    RUN_DIR.mkdir(exist_ok=True)
    setups = [_child(name, seed, threads, scale, deadline, setup_only=True)
              for _ in range(SETUP_PROBES)]
    plain, traced = [], []
    failed_reps = setups.count(None)
    while True:
        # untraced, traced, traced, untraced, ...: drift over the run
        # weighs on both sides of the tracing-overhead ratio alike
        use_trace = bool(trace) and (len(plain) + len(traced)) % 4 in (1, 2)
        spans_out = RUN_DIR / f"spans-{name}-{seed}-{len(traced)}.json" if use_trace else None
        t = time.monotonic()
        res = _child(name, seed, threads, scale, deadline, trace=int(use_trace),
                     spans_out=spans_out)
        rep_s = time.monotonic() - t
        if res is None:
            failed_reps += 1
        else:
            (traced if use_trace else plain).append(res)
        enough = len(plain) >= (MIN_TRACED if trace else MIN_REPS) and (
            not trace or len(traced) >= MIN_TRACED)
        elapsed = time.monotonic() - start
        if ((enough and elapsed + rep_s > seconds) or failed_reps > 2
                or elapsed + rep_s > TIME_LIMIT):
            break

    reps = plain + traced
    checks = [c for r in reps for c in r["checks"]]
    # the same seed must reproduce the same results, traced or not
    checks.append(("repeat.identical", len({r["results_sha256"] for r in reps}) <= 1))
    failed_checks = [n for n, ok in checks if not ok]
    attempted = len(checks) + failed_reps
    failed = len(failed_checks) + failed_reps

    med = lambda key, rs: statistics.median(r[key] for r in rs) if rs else 0.0
    setup_samples = [r["setup_s"] for r in setups + reps if r is not None]
    if trace:
        metrics = {k: statistics.median(r["layers"][k] for r in traced)
                   for k in PER_LAYER if traced and k in traced[0]["layers"]}
        metrics["walks_per_s"] = med("walks_per_s", plain)
        metrics["trace.overhead_ratio"] = (med("wall_s", traced) / med("wall_s", plain)
                                           if plain and traced else 0.0)
        units = PER_LAYER
    else:
        metrics = {"setup_s": statistics.median(setup_samples) if setup_samples else 0.0,
                   "wall_s": med("wall_s", plain),
                   "peak_rss_mb": med("peak_rss_mb", plain)}
        units = END_TO_END
    result = {"correct": failed == 0 and len(metrics) == len(units),
              "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": metrics.get(k, 0.0), "unit": u}
                          for k, u in units.items()}}
    detail = {
        "workload": name, "scale": scale, "trace": trace,
        "facts": _facts(seed, threads, reps[0]["versions"] if reps else {}),
        "samples": {"setup_s": setup_samples,
                    "wall_s": [r["wall_s"] for r in plain],
                    "traced_wall_s": [r["wall_s"] for r in traced],
                    "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
                    "walks_per_s": [r["walks_per_s"] for r in plain],
                    "command_s": [r["command_s"] for r in plain]},
        "failed_checks": failed_checks, "failed_repetitions": failed_reps,
    }
    return result, detail


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=55)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=list(SCALES), default="full")
    args = ap.parse_args()
    if not (ROOT / "src" / "walkcover" / "cli.py").is_file():
        print(f"no walkcover source under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    # Monte Carlo threads of the counterexample command: two, or one
    # where the process may use a single CPU only
    threads = min(2, len(os.sched_getaffinity(0)))
    if args.workload != "all":
        result, detail = run_workload(args.workload, args.seed, args.seconds,
                                      args.trace, threads, args.scale)
        print(json.dumps(detail))
        print(json.dumps(result))
        return 0 if result["correct"] else 1

    ok = True
    for name in WORKLOADS:
        result, detail = run_workload(name, args.seed, args.seconds, 0,
                                      threads, args.scale)
        ok &= result["correct"]
        parts = [f"{k}={m['value']:.4g} {m['unit']}" for k, m in result["metrics"].items()]
        walks = detail["samples"]["walks_per_s"]
        if walks and walks[0]:
            parts.append(f"walks_per_s={statistics.median(walks):.4g} 1/s")
        parts.append(f"error_rate={result['failed'] / result['attempted']:.4g} "
                     f"({result['failed']}/{result['attempted']})")
        print(f"{name:>14}: " + "  ".join(parts), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
