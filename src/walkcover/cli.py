"""Command-line front end.

Every command emits a JSON envelope (schema shipped as
``output.schema.json``) as one compact line; the commands with a results
table (sweep, compare, verify-thm41) can emit that table as CSV instead.
A run is reproducible from the echoed parameters and seed: exact and
Monte Carlo results bit-identically, Green values within their stated
error bounds.

Options can also come from an argument file: ``walkcover <command> @FILE``
reads one argument per line from FILE, and a flag after ``@FILE`` wins.

Exit codes: 0 success; 1 a theorem-shaped check found a violation (a bug
signal, not a usage problem); 2 usage, input or numerical error (an
arithmetic overflow, a non-finite Green value or exhausted memory among
them).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import datetime
import functools
import io
import json
import os
import sys
from fractions import Fraction
from typing import Any

from . import __version__, comb, exact, green, hitting, lattice, montecarlo, reflect
from .rng import STREAM_VERSION, fresh_seed


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _read_path_file(path: str) -> lattice.Path:
    with open(path, "r", encoding="utf-8") as fh:
        return lattice.path_from_json(fh.read())


def _target_from_args(args) -> lattice.CoverTarget:
    p = _read_path_file(args.target)
    return lattice.CoverTarget.of_path(p, args.mode)


def _csv_text(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def _probability_fields(p: Fraction) -> dict:
    """An exact probability as numerator and denominator strings, plus its float."""
    return {"probability_num": str(p.numerator), "probability_den": str(p.denominator),
            "probability": float(p)}


# ---------------------------------------------------------------------------
# command implementations: each returns (results, notes, exit_code)
# ---------------------------------------------------------------------------

def _cmd_exact(args):
    res = exact.exact_cover_probability(_target_from_args(args), args.d, args.L,
                                        args.budget)
    return {"favorable": str(res.favorable), "total": str(res.total),
            **_probability_fields(res.probability)}, [], 0


def _cmd_mc(args):
    cfg = montecarlo.SimConfig(d=args.d, L=args.L, n_walks=args.walks, seed=args.seed,
                               threads=args.threads)
    est = montecarlo.mc_cover_probability(_target_from_args(args), cfg)
    notes = ["L-step truncation estimates a lower bound on the infinite-horizon "
             "covering probability"]
    return dataclasses.asdict(est), notes, 0


def _cmd_compare(args):
    with open(args.targets, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, list):
        raise ValueError(f"{args.targets} must hold a JSON array of paths")
    paths = [lattice.validate_path(lattice.parse_points(p)) for p in data]
    targets = [lattice.CoverTarget.of_path(p, args.mode) for p in paths]
    cfg = montecarlo.SimConfig(d=args.d, L=args.L, n_walks=args.walks, seed=args.seed,
                               threads=args.threads)
    cmp_res = montecarlo.mc_compare(targets, cfg)
    rows = []
    for k, (p, est) in enumerate(zip(paths, cmp_res.estimates)):
        rows.append({"index": k, "path": lattice.path_to_json(p),
                     "successes": est.successes, "n": est.n,
                     "p_hat": est.p_hat, "stderr": est.stderr})
    diffs = []
    for a in range(len(targets)):
        for b in range(a + 1, len(targets)):
            delta, se = cmp_res.paired_diff(a, b)
            diffs.append({"i": a, "j": b, "diff": delta, "paired_stderr": se})
    return {"estimates": rows, "paired_differences": diffs}, [], 0


def _cmd_green(args):
    spec = (green.simple_walk(args.d) if args.walk == "simple"
            else green.diagonal_difference_walk(args.d))
    x = tuple(int(v) for v in args.x.split(","))
    gv = green.green_value(spec, x, tol=args.tol, method=args.method)
    results = {"walk": args.walk, "d": args.d, "x": list(x), "value": gv.value,
               "abs_error_bound": gv.abs_error_bound, "method": gv.method}
    return results, [], 0


def _cmd_hit(args):
    start = tuple(int(v) for v in args.start.split(","))
    targets = tuple(lattice.parse_points(json.loads(args.set)))
    dist = hitting.first_entry_distribution(start, targets, args.d, tol=args.tol)
    results = {"start": list(start),
               "distribution": [{"point": list(p), "probability": v}
                                for p, v in dist.items()],
               "hit_probability": sum(dist.values())}
    return results, [], 0


def _cmd_counterexample(args):
    ce = hitting.counterexample_probabilities(tol=args.tol)
    bias = hitting.truncation_bias_estimate(args.L, ce.p_original, tol=args.tol)
    # the Monte Carlo parameters are checked even when --skip-mc leaves them unused
    cfg = montecarlo.SimConfig(d=3, L=args.L, n_walks=args.walks, seed=args.seed,
                               threads=args.threads)
    results: dict[str, Any] = {**dataclasses.asdict(ce),
                               "original_exceeds_reflected": ce.p_original > ce.p_reflected}
    notes = ["truncating the walk at L steps can only lower these probabilities; "
             "truncation_bias_estimate sizes the deficit"]
    code = 0 if ce.p_original > ce.p_reflected else 1
    if not args.skip_mc:
        cmp_res = montecarlo.mc_compare(hitting.COUNTEREXAMPLE_TARGETS, cfg)
        results["mc"] = {
            "L": args.L, "walks": args.walks,
            "original": dataclasses.asdict(cmp_res.estimates[0]),
            "reflected": dataclasses.asdict(cmp_res.estimates[1]),
            "truncation_bias_estimate": bias,
        }
        notes.append(
            f"MC truncation bias estimate {bias:.2e} (covering completed only "
            "after step L; conditional-product form of the Green tail)")
    return results, notes, code


def _cmd_sweep(args):
    table = green.asymptotic_sweep(args.dmin, args.dmax, tol=args.tol)
    results = {"rows": [dataclasses.asdict(r) for r in table.rows],
               "trend_failures": list(table.trend_failures)}
    return results, [table.note], 1 if table.trend_failures else 0


def _cmd_staircase(args):
    p = lattice.staircase_path(args.N, args.d)
    return {"points": [list(q) for q in p.points]}, [], 0


def _cmd_reduce(args):
    path = reflect.normalize_to_positive_orthant(_read_path_file(args.target))
    chain = reflect.reduce_path(path)
    # the encoder writes the tuples of points as JSON arrays
    steps = [{"hyperplane": {"i": h.i, "j": h.j, "offset": h.offset},
              "points": p.points, "total_difference": p.total_difference}
             for h, p in chain]
    results = {"start_total_difference": path.total_difference,
               "steps": steps}
    return results, [], 0


def _cmd_comb(args):
    n, m = args.n, args.m
    witnesses = comb.inequality_witnesses(n, m)
    violations = [{"arcs": [sorted(a) for a in comb.collection_at(n, m, c).arcs],
                   "witness": sorted(comb.mask_elements(int(witnesses[c])))}
                  for c in (witnesses >= 0).nonzero()[0].tolist()]
    cases = len(witnesses)
    results = {"n": n, "m": m, "collections": cases, "subsets_each": 2 ** n,
               "violations": violations}
    note = (f"cover-count inequality: {len(violations)} violations over "
            f"{cases} collections x {2**n} subsets")
    return results, [note], 0 if not violations else 1


def _cmd_verify_thm11(args):
    report = exact.reflection_monotonicity_sweep(
        radius=args.radius, max_set_size=args.max_size, L=args.L)
    results = {"cases": report.cases, "lengths": list(range(1, args.L + 1)),
               "radius": args.radius, "max_set_size": args.max_size,
               "violations": [list(map(str, v)) for v in report.violations]}
    return results, [], 1 if report.violations else 0


def _cmd_verify_thm41(args):
    report = exact.verify_staircase_max(args.N, args.d, args.L, args.cap)
    total = (2 * args.d) ** args.L
    rows = [{"points": lattice.path_to_json(r.points), "orbit": r.orbit,
             **_probability_fields(Fraction(r.favorable, total)),
             "is_staircase": r.is_staircase} for r in report.rows]
    results = {"N": args.N, "d": args.d, "L": args.L, "cap": args.cap,
               "paths": sum(r.orbit for r in report.rows), "paths_ranked": rows,
               "staircase_is_max": report.staircase_is_max}
    notes = [f"enumeration capped at {args.cap} steps; the maximality claim "
             "ranges over connecting paths of any length"]
    return results, notes, 0 if report.staircase_is_max else 1


# the options several commands share, each stated once; a command adds the
# ones it takes with ``_add_shared``, in its own option order
_SHARED = {
    "target": dict(required=True, help="path file (JSON array of arrays)"),
    "d": dict(type=int, required=True),
    "L": dict(type=int, required=True),
    "walks": dict(type=int, required=True),
    "mode": dict(choices=lattice.MODES, default=lattice.TRACE),
}


def _add_shared(p: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        p.add_argument(f"--{name}", **_SHARED[name])


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 2 with one stderr line, like every other failure
    (``--help`` still prints the usage)."""

    def error(self, message):
        self.exit(2, f"usage error: {self.prog}: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing only reads it."""
    parser = _Parser(
        prog="walkcover", fromfile_prefix_chars="@",
        description="covering probabilities of lattice sets under simple random walk")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help, table=None, sampling=False):
        """A command: ``table`` names the results list ``--format csv``
        writes; a ``sampling`` command draws walks from a seed on threads."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=fn, table=table)
        if table:
            p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", help="write output here instead of stdout")
        p.add_argument("--record", help="also write the JSON envelope to this path")
        if sampling:
            p.add_argument("--seed", type=int)
            p.add_argument("--threads", type=int, default=1, help="worker threads")
        return p

    p = add("exact", _cmd_exact, help="exact covering probability by enumeration")
    _add_shared(p, "target", "d", "L", "mode")
    p.add_argument("--budget", type=int, default=exact.DEFAULT_BUDGET)

    p = add("mc", _cmd_mc, help="Monte Carlo covering probability", sampling=True)
    _add_shared(p, "target", "d", "L", "walks", "mode")

    p = add("compare", _cmd_compare, help="estimate several targets on shared walks",
            table="estimates", sampling=True)
    p.add_argument("--targets", required=True, help="JSON file: list of paths")
    _add_shared(p, "d", "L", "walks", "mode")

    p = add("green", _cmd_green, help="lattice Green's function value")
    p.add_argument("--walk", choices=("simple", "diagdiff"), default="simple")
    _add_shared(p, "d")
    p.add_argument("--x", required=True, help="comma-separated coordinates")
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--method", choices=green.METHODS, default="fourier")

    p = add("hit", _cmd_hit, help="first-entry distribution over a finite set")
    _add_shared(p, "d")
    p.add_argument("--start", required=True, help="comma-separated coordinates")
    p.add_argument("--set", required=True, help="JSON array of points")
    p.add_argument("--tol", type=float, default=1e-5)

    p = add("counterexample", _cmd_counterexample,
            help="covering-with-repetitions counterexample pipeline", sampling=True)
    p.add_argument("--walks", type=int, default=100_000)
    p.add_argument("--L", type=int, default=10_000)
    p.add_argument("--tol", type=float, default=1e-5)
    p.add_argument("--skip-mc", action="store_true")

    p = add("sweep", _cmd_sweep, help="return-probability asymptotics table",
            table="rows")
    p.add_argument("--dmin", type=int, default=3)
    p.add_argument("--dmax", type=int, default=10)
    p.add_argument("--tol", type=float, default=1e-3)

    p = add("staircase", _cmd_staircase, help="emit the staircase path")
    p.add_argument("--N", type=int, required=True)
    _add_shared(p, "d")

    p = add("reduce", _cmd_reduce, help="reflection chain to the diagonal region")
    _add_shared(p, "target")

    p = add("comb", _cmd_comb, help="exhaustive cover-count inequality check")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)

    p = add("verify-thm11", _cmd_verify_thm11,
            help="exhaustive reflection-monotonicity sweep (d=2)")
    p.add_argument("--radius", type=int, default=2)
    p.add_argument("--max-size", type=int, default=2)
    p.add_argument("--L", type=int, default=6)

    p = add("verify-thm41", _cmd_verify_thm41,
            help="staircase maximality ranking over short connecting paths",
            table="paths_ranked")
    p.add_argument("--N", type=int, default=2)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--L", type=int, default=6)
    p.add_argument("--cap", type=int, default=3)

    return parser


def run(argv: list[str]) -> int:
    args = build_parser().parse_args(argv)
    started = _now()
    sampling = "seed" in vars(args)
    if sampling and args.seed is None:
        args.seed = fresh_seed()
    try:
        results, notes, code = args.func(args)
        params = {k: v for k, v in vars(args).items()
                  if k not in ("func", "command", "out", "record", "format", "table", "seed")
                  and v is not None}
        if sampling:
            params["rng_stream"] = STREAM_VERSION
        envelope = json.dumps({
            "tool": "walkcover", "version": __version__, "command": args.command,
            "parameters": params, "seed": getattr(args, "seed", None),
            "started": started, "finished": _now(), "results": results,
            "notes": notes, "exit_code": code})
        text = envelope
        if args.table and args.format == "csv":
            text = _csv_text(results[args.table])
        for path, content in ((args.out, text), (args.record, envelope)):
            if path:
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(content + "\n")
        if not args.out:
            print(text, flush=True)
    except BrokenPipeError as exc:
        # the reader of stdout is gone: point stdout at the null device so
        # that the flush at interpreter exit has nothing left to report
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"memory error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except reflect.ReductionInvariantError as exc:
        print(f"violation: {exc}", file=sys.stderr)
        return 1
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
