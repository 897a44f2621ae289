"""The two benchmark workloads: inputs made from the seed, the CLI
commands that run on them, and the checks on their outputs.

Each workload is made of parts (``counterexample``, ``compare``,
``horizon``, ``theorems``), and each part returns ``(commands, check)``.  ``commands`` is a list of
``(label, argv)`` pairs for ``walkcover.cli.run``; ``check`` receives
``{label: (exit_code, envelope)}`` plus the captured ``mc_compare``
results and returns ``[(check_name, passed), ...]``.

Seeds change the inputs without changing the amount of work: the Monte
Carlo seed, a lattice symmetry (axis permutation and sign flips, under
which every covering and hitting probability is invariant) applied to
the query sets, and sign flips plus the order of a fixed set of
connecting paths given to ``reduce``.  ``reduce`` undoes the flips when
it normalizes its input, so it runs the same reflections on every seed.
"""

from __future__ import annotations

import json
import os
import random

O, Y, Z, W = (0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)

# Published first-entry values (criterion 3): (set, point) -> probability.
HIT_TABLE = {
    ((Y, Z), Y): 0.2792,
    ((Y, Z, W), W): 0.0344, ((Y, Z, W), Y): 0.2696,
    ((Y, W), Y): 0.3008, ((Y, W), W): 0.1155,
    ((O, Y), O): 0.2538, ((O, Y), Y): 0.2538,
}
HIT_SETS = ((Y, Z), (Y, Z, W), (Y, W), (O, Y))

P_ORIGINAL, P_REFLECTED = 0.0808, 0.0655

# Reflection-sweep cases per walk length at d=2, radius 2, sets of size
# <= 2 (criterion 6 counts 178 758 over lengths 1..6).
THM11_CASES_PER_LENGTH = 29_793

# Exact favorable counts of the repetitions target (o,y,w,z) in Z^3,
# pinned from the rational enumeration; they do not depend on the
# lattice symmetry applied to the path.
EXACT_FAVORABLE = {22: 5_645_798_521_100_580, 12: 69_773_160}

SCALES = {
    "full": {
        "tol": "1e-5", "cx_walks": 16_384, "cx_L": 10_000,
        "cmp_walks": 65_536, "cmp_L": 400,
        "sweep_dmax": 10,
        "thm11_L": 6, "thm41": ((3, 2, 9, 7), (3, 3, 8, 5)),
        "comb_n": 3, "comb_m": 4, "exact_L": 22,
        "reduce_paths": 40, "reduce_d": 4, "reduce_N": 20,
    },
    # a few seconds per workload; the smoke check uses it
    "tiny": {
        "tol": "1e-4", "cx_walks": 16_384, "cx_L": 500,
        "cmp_walks": 8_192, "cmp_L": 100,
        "sweep_dmax": 4,
        "thm11_L": 2, "thm41": ((2, 2, 6, 3),),
        "comb_n": 2, "comb_m": 2, "exact_L": 12,
        "reduce_paths": 3, "reduce_d": 3, "reduce_N": 4,
    },
}


def symmetry(rng: random.Random, d: int):
    """A random axis permutation with sign flips, as a point map."""
    perm = list(range(d))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(d)]
    return lambda p: tuple(signs[i] * p[perm[i]] for i in range(d))


def _write(tmp: str, name: str, data) -> str:
    path = os.path.join(tmp, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    return path


def _connecting_path(rng: random.Random, d: int, N: int) -> list[list[int]]:
    """A random nearest-neighbour path from 0 that first reaches L1 norm
    N at its last point (outward steps favoured so it ends quickly), with
    no zero coordinate at that point."""
    while True:
        pos = [0] * d
        pts = [list(pos)]
        while sum(map(abs, pos)) < N:
            axis = rng.randrange(d)
            outward = 1 if pos[axis] >= 0 else -1
            pos[axis] += outward if rng.random() < 0.7 else -outward
            pts.append(list(pos))
        if all(pos):
            return pts


def connecting_paths(seed: int, count: int, d: int, N: int) -> list[list[list[int]]]:
    """``count`` connecting paths drawn once from a fixed generator, so
    that ``reduce`` does the same work on every seed.  The seed mirrors
    each path in random axes and shuffles their order.  The endpoint has
    no zero coordinate, so sign normalization restores the drawn path."""
    fixed = random.Random(0)
    paths = [_connecting_path(fixed, d, N) for _ in range(count)]
    rng = random.Random(seed)
    rng.shuffle(paths)
    out = []
    for pts in paths:
        signs = [rng.choice((1, -1)) for _ in range(d)]
        out.append([[s * c for s, c in zip(signs, p)] for p in pts])
    return out


def _staircase_points(N: int, d: int) -> set[tuple[int, ...]]:
    """Staircase trace: the point at norm t has its first t mod d
    coordinates one above the rest."""
    pts = set()
    for t in range(N + 1):
        full, rem = divmod(t, d)
        pts.add(tuple([full + 1] * rem + [full] * (d - rem)))
    return pts


def _ok_exit(out, labels):
    return [(f"{lab}.exit0", out[lab][0] == 0) for lab in labels]


def counterexample(seed: int, sc: dict, tmp: str, threads: int):
    cmd = [("counterexample", ["counterexample", "--walks", str(sc["cx_walks"]),
                               "--L", str(sc["cx_L"]), "--seed", str(seed),
                               "--threads", str(threads), "--tol", sc["tol"]])]

    def check(out, captured):
        code, env = out["counterexample"]
        res = env["results"]
        p1, p2 = res["p_original"], res["p_reflected"]
        mc = res["mc"]
        bias = mc["truncation_bias_estimate"]
        checks = [("counterexample.exit0", code == 0),
                  ("p_original>p_reflected", p1 > p2),
                  ("p_original~0.0808", abs(p1 - P_ORIGINAL) < 5e-3),
                  ("p_reflected~0.0655", abs(p2 - P_REFLECTED) < 5e-3)]
        for key, p in (("original", p1), ("reflected", p2)):
            est = mc[key]
            # truncation only lowers the MC estimate; allow 5 stderr of
            # sampling noise either way plus the estimated bias
            checks.append((f"mc.{key}.within_bound",
                           abs(est["p_hat"] - p) <= 5 * est["stderr"] + bias))
        return checks

    return cmd, check


def compare(seed: int, sc: dict, tmp: str, threads: int):
    paths = [[O, Y, (2, 0, 0), (3, 0, 0)],
             [O, Y, (2, 0, 0), (2, 1, 0)],
             [O, Y, W, (1, 2, 0)],
             [O, Y, W, (2, 1, 0)],
             [O, Y, W, (1, 1, 1)]]
    targets = _write(tmp, "monotone.json", paths)
    straight = _write(tmp, "straight.json", paths[0])
    common = ["--d", "3", "--L", str(sc["cmp_L"]), "--walks", str(sc["cmp_walks"]),
              "--seed", str(seed), "--threads", "1", "--mode", "trace"]
    cmds = [("compare", ["compare", "--targets", targets] + common),
            ("mc", ["mc", "--target", straight] + common)]

    def check(out, captured):
        est = out["compare"][1]["results"]["estimates"]
        successes = [e["successes"] for e in est]
        joint = captured["compare"].joint
        return _ok_exit(out, ("compare", "mc")) + [
            ("mc==compare.straight",
             out["mc"][1]["results"]["successes"] == successes[0]),
            ("joint_diag==successes",
             [int(joint[i, i]) for i in range(len(successes))] == successes),
        ]

    return cmds, check


def horizon(seed: int, sc: dict, tmp: str, threads: int):
    sym = symmetry(random.Random(seed), 3)
    cmds = [("sweep", ["sweep", "--dmin", "3", "--dmax", str(sc["sweep_dmax"]),
                       "--tol", "1e-3"])]
    for k, pts in enumerate(HIT_SETS):
        cmds.append((f"hit{k}", ["hit", "--d", "3", "--start", "0,0,0",
                                 "--set", json.dumps([list(sym(p)) for p in pts]),
                                 "--tol", sc["tol"]]))

    def check(out, captured):
        sweep = out["sweep"][1]["results"]
        checks = _ok_exit(out, [lab for lab, _ in cmds]) + [
            ("sweep.trends_ok", not sweep["trend_failures"]),
            ("2d*p3~2.043", abs(sweep["rows"][0]["scaled_return"] - 2.043) < 2e-3),
        ]
        for k, pts in enumerate(HIT_SETS):
            dist = {tuple(e["point"]): e["probability"]
                    for e in out[f"hit{k}"][1]["results"]["distribution"]}
            for (s, p), ref in HIT_TABLE.items():
                if s == pts:
                    checks.append((f"hit{k}.{p}~{ref}", abs(dist[sym(p)] - ref) < 5e-3))
        return checks

    return cmds, check


def theorems(seed: int, sc: dict, tmp: str, threads: int):
    sym = symmetry(random.Random(seed), 3)
    L11 = sc["thm11_L"]
    cmds = [("thm11", ["verify-thm11", "--radius", "2", "--max-size", "2",
                       "--L", str(L11)])]
    for k, (N, d, L, cap) in enumerate(sc["thm41"]):
        cmds.append((f"thm41.{k}", ["verify-thm41", "--N", str(N), "--d", str(d),
                                    "--L", str(L), "--cap", str(cap)]))
    shapes = [(n, m) for n in range(1, sc["comb_n"] + 1)
              for m in range(1, sc["comb_m"] + 1)]
    for n, m in shapes:
        cmds.append((f"comb.{n}.{m}", ["comb", "--n", str(n), "--m", str(m)]))
    target = _write(tmp, "oywz.json", [list(sym(p)) for p in (O, Y, W, Z)])
    cmds.append(("exact", ["exact", "--target", target, "--d", "3",
                           "--L", str(sc["exact_L"]), "--mode", "repetitions",
                           "--budget", str(10**18)]))
    d, N = sc["reduce_d"], sc["reduce_N"]
    connecting = connecting_paths(seed, sc["reduce_paths"], d, N)
    for k, pts in enumerate(connecting):
        f = _write(tmp, f"connect{k}.json", pts)
        cmds.append((f"reduce{k}", ["reduce", "--target", f]))

    def check(out, captured):
        thm11 = out["thm11"][1]["results"]
        collections = sum(out[f"comb.{n}.{m}"][1]["results"]["collections"]
                          for n, m in shapes)
        comb_bad = sum(len(out[f"comb.{n}.{m}"][1]["results"]["violations"])
                       for n, m in shapes)
        ex = out["exact"][1]["results"]
        checks = _ok_exit(out, [lab for lab, _ in cmds]) + [
            ("thm11.cases", thm11["cases"] == THM11_CASES_PER_LENGTH * L11),
            ("thm11.no_violations", not thm11["violations"]),
            ("comb.collections", collections == sum(2 ** (n * m) for n, m in shapes)),
            ("comb.no_violations", comb_bad == 0),
            ("exact.favorable", int(ex["favorable"]) == EXACT_FAVORABLE[sc["exact_L"]]),
            ("exact.total", int(ex["total"]) == 6 ** sc["exact_L"]),
            ("exact<=L=inf", 0 < ex["probability"] < P_ORIGINAL),
        ]
        for k in range(len(sc["thm41"])):
            checks.append((f"thm41.{k}.staircase_is_max",
                           out[f"thm41.{k}"][1]["results"]["staircase_is_max"]))
        stair = _staircase_points(N, d)
        for k, pts in enumerate(connecting):
            steps = out[f"reduce{k}"][1]["results"]["steps"]
            # an empty chain leaves the sign-normalized input in place
            flips = [-1 if c < 0 else 1 for c in pts[-1]]
            final = ({tuple(p) for p in steps[-1]["points"]} if steps else
                     {tuple(f * c for f, c in zip(flips, p)) for p in pts})
            checks.append((f"reduce{k}.reaches_staircase",
                           stair <= final and all(max(p) - min(p) <= 1 for p in final)))
        return checks

    return cmds, check


def _combine(*parts):
    """A workload that runs the commands of ``parts`` in turn, in one
    interpreter, and every part's checks."""
    def build(seed: int, sc: dict, tmp: str, threads: int):
        built = [part(seed, sc, tmp, threads) for part in parts]

        def check(out, captured):
            return [c for _, part_check in built for c in part_check(out, captured)]

        return [cmd for cmds, _ in built for cmd in cmds], check

    return build


# sampling: the Monte Carlo commands; calculus: L = infinity calculus and
# exact enumeration, with no Monte Carlo
WORKLOADS = {"sampling": _combine(counterexample, compare),
             "calculus": _combine(horizon, theorems)}
