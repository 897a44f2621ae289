"""Span tracing around the calls into walkcover's layers.

Wrappers are installed on the module attributes that callers look up at
call time (``montecarlo.walk_directions``, ``hitting.green_value``,
``cli.run`` ...), so nothing under ``src/`` is edited.  Each call records
a span (name, start, end, parent, thread id, run id, plus a few counts
read from its arguments or result).  Spans stay in memory until the
repetition ends; :func:`layer_metrics` then derives the per-layer
numbers, self time included, from them.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else getattr(self._local, "inherited", None)

    def call(self, name: str, fn, args, kwargs, note=None):
        """Run ``fn`` inside a span; ``note(args, kwargs, result)`` adds
        counts to the span when the call returns."""
        parent = self.current()
        sid = next(self._ids)
        stack = self._stack()
        stack.append(sid)
        start = time.perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            span = {"id": sid, "name": name, "start": start, "end": end,
                    "parent": parent, "thread": threading.get_ident(),
                    "run": self.run_id}
            if note is not None and result is not None:
                span.update(note(args, kwargs, result))
            self.spans.append(span)

    def wrap(self, module, attr: str, name: str, note=None) -> None:
        fn = getattr(module, attr)
        bound_note = None
        if note is not None:
            sig = inspect.signature(fn)

            def bound_note(args, kwargs, result):
                ba = sig.bind(*args, **kwargs)
                ba.apply_defaults()
                return note(ba.arguments, result)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, bound_note)

        setattr(module, attr, traced)

    def pool_class(self):
        """A ThreadPoolExecutor whose mapped tasks run as worker spans
        parented to the span that submitted them."""
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def map(self, fn, *iterables, **kwargs):
                parent = tracer.current()

                def task(*a):
                    tracer._local.inherited = parent
                    return tracer.call("montecarlo.worker", fn, a, {})

                return super().map(task, *iterables, **kwargs)

        return TracedPool

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run": self.run_id, "spans": self.spans}, fh)


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every measured layer."""
    from walkcover import cli, comb, exact, green, hitting, montecarlo, reflect

    tracer.wrap(cli, "run", "cli.run")
    mc_note = lambda a, r: {"walks": a["cfg"].n_walks, "L": a["cfg"].L,
                            "threads": max(1, a["cfg"].threads)}
    tracer.wrap(montecarlo, "mc_compare", "montecarlo.run", mc_note)
    tracer.wrap(montecarlo, "mc_cover_probability", "montecarlo.run", mc_note)
    tracer.wrap(montecarlo, "walk_directions", "rng.walk_directions",
                lambda a, r: {"steps": int(r.size)})
    montecarlo.ThreadPoolExecutor = tracer.pool_class()
    value_note = lambda a, r: {"bound_over_tol": r.abs_error_bound / a["tol"]}
    tracer.wrap(green, "green_value", "green.value", value_note)
    tracer.wrap(hitting, "green_value", "green.value", value_note)
    tracer.wrap(green, "stepsum_green", "green.stepsum",
                lambda a, r: {"kind": a["spec"].kind})
    tracer.wrap(green, "fourier_green", "green.fourier")
    tracer.wrap(hitting, "first_entry_distribution", "hitting.first_entry")
    tracer.wrap(hitting, "counterexample_probabilities", "hitting.counterexample")
    tracer.wrap(hitting, "truncation_bias_estimate", "hitting.truncation_bias")
    tracer.wrap(exact, "exact_cover_probability", "exact.cover")
    tracer.wrap(exact, "reflection_monotonicity_sweep", "exact.sweep",
                lambda a, r: {"cases": r.cases})
    tracer.wrap(exact, "verify_staircase_max", "exact.staircase",
                lambda a, r: {"paths": len(r.rows)})
    tracer.wrap(comb, "check_cover_inequality", "comb.check")
    tracer.wrap(reflect, "reduce_path", "reflect.reduce")


def _union(intervals) -> float:
    total, hi = 0.0, float("-inf")
    for s, e in sorted(intervals):
        if e <= hi:
            continue
        total += e - max(s, hi)
        hi = e
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(spans: list[dict], green_cache: tuple[int, int]) -> dict:
    """Per-layer numbers from one repetition's spans.

    ``green_cache`` is ``(hits, misses)`` of the Green LRU cache, which
    starts empty in each fresh interpreter.
    """
    children = defaultdict(list)
    for s in spans:
        children[s["parent"]].append(s)
    dur = lambda s: s["end"] - s["start"]
    named = lambda name: [s for s in spans if s["name"] == name]
    self_time = lambda s: dur(s) - _union((c["start"], c["end"])
                                          for c in children[s["id"]])
    total = lambda ss: sum(dur(s) for s in ss)

    rng = named("rng.walk_directions")
    rng_s = total(rng)
    steps = sum(s["steps"] for s in rng)
    mc = named("montecarlo.run")
    # busy thread-seconds: the caller's own time outside the pool plus
    # every worker's time inside it
    mc_busy = mc_capacity = 0.0
    for s in mc:
        workers = [c for c in children[s["id"]] if c["name"] == "montecarlo.worker"]
        busy = dur(s) - _union((w["start"], w["end"]) for w in workers) + total(workers)
        mc_busy += busy
        mc_capacity += (s["threads"] if workers else 1) * dur(s)

    value = named("green.value")
    stepsum = named("green.stepsum")
    fourier = named("green.fourier")
    hits, misses = green_cache

    first_entry = named("hitting.first_entry")
    fe_ids = {s["id"] for s in first_entry}
    hitting_spans = [s for s in spans if s["name"].startswith("hitting.")]

    sweep = named("exact.sweep")
    staircase = named("exact.staircase")
    cover = named("exact.cover")
    check = named("comb.check")
    reduce = named("reflect.reduce")

    return {
        "rng.calls": len(rng),
        "rng.s": rng_s,
        "rng.steps_per_s": _ratio(steps, rng_s),
        "rng.share": _ratio(rng_s, mc_busy),
        "montecarlo.s": mc_busy,
        "montecarlo.self_s": mc_busy - rng_s if mc else 0.0,
        "montecarlo.walk_steps": steps,
        "montecarlo.walk_steps_per_s": _ratio(steps, mc_busy),
        "montecarlo.live_fraction": _ratio(steps, sum(s["walks"] * s["L"] for s in mc)),
        "montecarlo.thread_busy_ratio": _ratio(mc_busy, mc_capacity),
        "green.value.calls": len(value),
        "green.evals": misses,
        "green.cache_hit_ratio": _ratio(hits, hits + misses),
        "green.stepsum.simple.s": total(s for s in stepsum if s["kind"] == "simple"),
        "green.stepsum.diagonal_difference.s":
            total(s for s in stepsum if s["kind"] == "diagonal_difference"),
        "green.stepsum.calls": len(stepsum),
        "green.fourier.s": total(fourier),
        "green.fourier.calls": len(fourier),
        "green.bound_over_tol": max((s["bound_over_tol"] for s in value), default=0.0),
        "hitting.first_entry.calls": len(first_entry),
        "hitting.first_entry.s": total(s for s in first_entry if s["parent"] not in fe_ids),
        "hitting.self_s": sum(self_time(s) for s in hitting_spans),
        "exact.cover.calls": len(cover),
        "exact.cover.s": total(cover),
        "exact.sweep.cases": sum(s["cases"] for s in sweep),
        "exact.sweep.cases_per_s": _ratio(sum(s["cases"] for s in sweep), total(sweep)),
        "exact.staircase.paths": sum(s["paths"] for s in staircase),
        "exact.staircase.s": total(staircase),
        "comb.check.calls": len(check),
        "comb.check.s": total(check),
        "reflect.reduce.calls": len(reduce),
        "reflect.reduce.s": total(reduce),
        "cli.overhead_s": sum(self_time(s) for s in named("cli.run")),
    }
