"""One cold repetition of a workload, run in a fresh interpreter.

Imports walkcover from the checkout's ``src/``, writes the workload's
input files, runs its commands through ``walkcover.cli.run`` and checks
their outputs.  The last line of standard output is a JSON object with
the time the repetition became ready (after imports and input
generation), the wall time of the commands, peak RSS, the check results
and, when traced, the per-layer metrics.  ``run.py`` starts this script;
it is not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback


def _philox_words_per_s(seed: int) -> float:
    """Raw Philox throughput at the Monte Carlo batch shape."""
    import numpy as np
    from walkcover import montecarlo, rng

    ids = np.arange(montecarlo.DEFAULT_BATCH, dtype=np.uint64)
    nblocks = montecarlo.DEFAULT_CHUNK // 4
    times = []
    for _ in range(5):
        t = time.perf_counter()
        rng.walk_words(seed, ids, 0, nblocks)
        times.append(time.perf_counter() - t)
    return ids.size * 4 * nblocks / statistics.median(times)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--threads", type=int, required=True)
    ap.add_argument("--scale", required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spans-out")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    src = os.path.join(args.root, "src")
    sys.path.insert(0, src)
    import numpy
    import scipy
    import walkcover
    from walkcover import cli, green, montecarlo

    if not os.path.abspath(walkcover.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"walkcover imported from {walkcover.__file__}, not {src}", file=sys.stderr)
        return 2
    from workloads import SCALES, WORKLOADS

    run_dir = os.path.join(args.root, ".perfbench_run")
    os.makedirs(run_dir, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=run_dir)
    try:
        cmds, check = WORKLOADS[args.workload](args.seed, SCALES[args.scale], tmp,
                                               args.threads)
        # keep each mc_compare result: the joint-count check needs it and
        # the CLI envelope does not carry it
        captured: dict = {}
        running = {"label": None}
        mc_compare = montecarlo.mc_compare

        @functools.wraps(mc_compare)
        def capture(*a, **kw):
            captured[running["label"]] = res = mc_compare(*a, **kw)
            return res

        montecarlo.mc_compare = capture
        tracer = None
        if args.trace:
            from spans import Tracer, install
            tracer = Tracer(f"{args.workload}-{args.seed}-{os.getpid()}")
            install(tracer)
        ready = time.monotonic()
        if args.setup_only:
            print(json.dumps({"ready": ready}))
            return 0

        out, times = {}, {}
        for label, argv in cmds:
            running["label"] = label
            buf = io.StringIO()
            t = time.monotonic()
            try:
                with contextlib.redirect_stdout(buf):
                    code = cli.run(argv)
            except (Exception, SystemExit) as exc:  # report, keep measuring
                traceback.print_exc()
                code = f"raised {type(exc).__name__}"
            times[label] = time.monotonic() - t
            text = buf.getvalue()
            out[label] = (code, json.loads(text) if text.strip() else None)
        wall = time.monotonic() - ready
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        try:
            checks = check(out, captured)
        except (KeyError, TypeError, IndexError, ValueError):
            traceback.print_exc()
            checks = [("outputs_well_formed", False)]
        mc_labels = [lab for lab, (_, env) in out.items()
                     if env and env["command"] in ("mc", "compare", "counterexample")]
        mc_walks = sum(out[lab][1]["parameters"]["walks"] for lab in mc_labels)
        mc_time = sum(times[lab] for lab in mc_labels)
        digest = hashlib.sha256(json.dumps(
            {lab: env and env["results"] for lab, (_, env) in out.items()},
            sort_keys=True).encode()).hexdigest()
        result = {
            "ready": ready, "wall_s": wall, "peak_rss_mb": rss_mb,
            "command_s": times, "checks": checks, "results_sha256": digest,
            "walks_per_s": mc_walks / mc_time if mc_time else 0.0,
            "versions": {"python": platform.python_version(),
                         "numpy": numpy.__version__, "scipy": scipy.__version__,
                         "walkcover": walkcover.__version__},
        }
        if tracer is not None:
            from spans import layer_metrics
            info = green._green_cached.cache_info()
            result["layers"] = layer_metrics(tracer.spans, (info.hits, info.misses))
            result["layers"]["rng.philox_words_per_s"] = _philox_words_per_s(args.seed)
            if args.spans_out:
                tracer.dump(args.spans_out)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
