"""Exact covering probabilities by an integer transfer DP over walks.

Every probability here is a rational number ``favorable / (2d)^L``
computed exactly.  The favorable count comes from one forward pass over
the L steps of the walk.  Its array holds, for every requirement state
and every cell of a position box, the number of walk prefixes that sit
in that cell with that many visits still outstanding per target point:

* a requirement state is a mixed-radix index over the outstanding visits
  per target point (``lattice.outstanding_visits``: time 0 counts as a
  visit to the origin);
* a step sums the 2d shifted copies of the array, and at each target
  cell moves mass from state r to r - e_i when r_i > 0;
* mass that reaches the all-met state leaves the array for a scalar that
  is multiplied by 2d at every later step;
* the box has radius (L + max |p|_1)//2 + 1, outside which no unmet walk
  can still return to every target in time, so dropping it is exact.

Counts are int64 while (2d)^L fits, and Python integers beyond.

On top of the counter sit the theorem-shaped routines: counting a
target-set pair against its reflected twin, the exhaustive
reflection-monotonicity sweep over small set pairs (bit-parallel over
all walks, independent of the DP), and the ranked table of covering
probabilities over all short connecting paths (staircase maximality).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .lattice import (CoverTarget, Point, outstanding_visits, staircase_path,
                      unit_vector)
from .reflect import Hyperplane, reflect_point

#: DP work allowed by default: L x requirement states x box cells.
DEFAULT_BUDGET = 10**9

#: Largest walk count (2d)^L the DP holds in int64; every entry of its
#: array, and the count of walks already done, is at most (2d)^L.
INT64_MAX_WALKS = 2**63 - 1

#: Work allowed in one reflection sweep: (2d)^L * L steps build the walk
#: masks of length L, and each case costs one unit to form plus, at each
#: L, ceil((2d)^L / 64) mask words.  Criterion 6's size (radius 2, sets of
#: size 2, L <= 6) is 2.6e6 units; L <= 7 is 1.0e7.
MAX_SWEEP_WORK = 2**24


class BudgetExceededError(ValueError):
    """DP work beyond the budget, or a sweep beyond its work guard."""


class SideViolationError(ValueError):
    """Input set crosses the reflection hyperplane."""


@dataclass(frozen=True)
class ExactResult:
    """Exact count of covering walks among all (2d)^L step sequences."""

    favorable: int
    total: int

    def __post_init__(self):
        if not 0 <= self.favorable <= self.total:
            raise ValueError("favorable count outside [0, total]")

    @property
    def probability(self) -> Fraction:
        return Fraction(self.favorable, self.total)


def _box_radius(L: int, reach: int) -> int:
    return (L + reach) // 2 + 1


def _check_budget(d: int, L: int, states: int, reach: int, budget: int) -> None:
    """Raise unless the DP's work, L x states x box cells, fits `budget`;
    `reach` is the largest L1 norm among the target points.  L counts as
    at least 1, since the DP allocates states x cells even at L = 0.
    Bit lengths refuse astronomically large work before any big product
    is formed: a positive n is at least 2^(n.bit_length() - 1)."""
    steps, cells = max(L, 1), 2 * _box_radius(L, reach) + 1
    floor_bits = (steps.bit_length() + states.bit_length() - 2
                  + d * (cells.bit_length() - 1))
    if floor_bits >= budget.bit_length() or steps * states * cells**d > budget:
        raise BudgetExceededError(
            f"DP work L x states x box cells exceeds the budget of {budget}")


def _favorable_count(d: int, L: int, owed: dict[Point, int],
                     budget: int = DEFAULT_BUDGET) -> int:
    """Walks of length L from the origin that make every visit still
    ``owed`` after time 0 (see ``lattice.outstanding_visits``)."""
    points = sorted(owed)
    radices = tuple(owed[p] + 1 for p in points)
    reach = max((sum(map(abs, p)) for p in points), default=0)
    _check_budget(d, L, math.prod(radices), reach, budget)
    if reach > L:
        return 0
    sides = 2 * d
    R = _box_radius(L, reach)
    dtype = np.int64 if sides**L <= INT64_MAX_WALKS else object
    cur = np.zeros(radices + (2 * R + 1,) * d, dtype=dtype)
    nxt = np.zeros_like(cur)
    n = len(points)
    cur[tuple(k - 1 for k in radices) + (R,) * d] = 1
    met = (0,) * n
    done = int(cur[met].sum())
    cur[met] = 0
    shifts = []
    for axis in range(n, n + d):
        lo, hi = [slice(None)] * cur.ndim, [slice(None)] * cur.ndim
        lo[axis], hi[axis] = slice(None, -1), slice(1, None)
        shifts += [(tuple(hi), tuple(lo)), (tuple(lo), tuple(hi))]
    cells = [(Ellipsis,) + tuple(c + R for c in p) for p in points]
    for _ in range(L):
        nxt.fill(0)
        for dst, src in shifts:
            nxt[dst] += cur[src]
        for i, cell in enumerate(cells):
            r = np.moveaxis(nxt[cell], i, 0)
            r[0] += r[1]
            r[1:-1] = r[2:]
            r[-1] = 0
        done = done * sides + int(nxt[met].sum())
        nxt[met] = 0
        cur, nxt = nxt, cur
    return done


def exact_cover_probability(target: CoverTarget, d: int, L: int,
                            budget: int = DEFAULT_BUDGET) -> ExactResult:
    """Exact probability that the first L steps of the d-dimensional
    simple walk meet every visit requirement of the target."""
    if L < 0:
        raise ValueError("L must be >= 0")
    if target.dim != d:
        raise ValueError(f"target dimension {target.dim} != {d}")
    return ExactResult(_favorable_count(d, L, target.outstanding(), budget),
                       (2 * d) ** L)


def count_reflected_pair(A0: Iterable[Point], B0: Iterable[Point], h: Hyperplane,
                         d: int, L: int, budget: int = DEFAULT_BUDGET) -> tuple[int, int]:
    """Counts of walks covering ``A0 | B0`` versus ``A0 | reflect(B0)``.

    Both input sets must sit on the origin side of the hyperplane; with
    everything reflected away from the origin the first count can only be
    larger or equal.
    """
    A0, B0 = frozenset(A0), frozenset(B0)
    if A0 & B0:
        raise ValueError("A0 and B0 must be disjoint")
    for p in A0 | B0:
        if not h.on_origin_side(p):
            raise SideViolationError(f"{p} crosses the hyperplane")
    mirrored = frozenset(reflect_point(p, h) for p in B0)
    return tuple(_favorable_count(d, L, outstanding_visits(dict.fromkeys(s, 1)), budget)
                 for s in (A0 | B0, A0 | mirrored))


# ---------------------------------------------------------------------------
# exhaustive reflection-monotonicity sweep (bit-parallel over all walks)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReflectionSweepReport:
    d: int
    hyperplane: Hyperplane
    radius: int
    max_set_size: int
    lengths: tuple[int, ...]
    cases: int
    violations: tuple[tuple, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


def _walk_cover_masks(d: int, L: int, points: Sequence[Point]) -> np.ndarray:
    """Row k holds one bit per walk, as little-endian uint64 words: bit w
    is set iff walk number w (of the (2d)^L walks, numbered in
    lexicographic step order) visits points[k]."""
    sides, walks = 2 * d, (2 * d) ** L
    base = 2 * L + 1
    # position code: sum over axes of (x_a + L) * base^a; step 2a moves +e_a
    delta = np.array([sg * base**ax for ax in range(d) for sg in (1, -1)])
    w = np.arange(walks)
    codes = np.empty((walks, L + 1), dtype=np.int64)
    codes[:, 0] = L * sum(base**ax for ax in range(d))
    for t in range(L):
        codes[:, t + 1] = codes[:, t] + delta[w // sides ** (L - 1 - t) % sides]
    hits = np.zeros((len(points), -(-walks // 64) * 64), dtype=bool)
    for k, p in enumerate(points):
        if sum(map(abs, p)) <= L:
            code = sum((c + L) * base**ax for ax, c in enumerate(p))
            hits[k, :walks] = (codes == code).any(axis=1)
    return np.packbits(hits, axis=1, bitorder="little").view("<u8")


def _check_sweep_work(d: int, points: int, max_set_size: int,
                      lengths: Iterable[int]) -> None:
    """Raise ``BudgetExceededError`` unless the sweep over pairs of sets
    drawn from `points` origin-side points fits ``MAX_SWEEP_WORK``."""
    steps, words, cases = 0, 1, 0
    for L in lengths:
        steps += (2 * d) ** L * L
        words += -(-(2 * d) ** L // 64)
        if steps + words > MAX_SWEEP_WORK:
            break
    for a, b in itertools.product(range(min(max_set_size, points) + 1), repeat=2):
        cases += math.comb(points, a) * math.comb(points - a, b)
        if steps + cases * words > MAX_SWEEP_WORK:
            raise BudgetExceededError(
                f"sweep over at least {points} origin-side points exceeds the "
                f"enumeration guard of {MAX_SWEEP_WORK} work units")


def _sweep_cases(n: int, max_set_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Every pair of disjoint index sets A0, B0 of size <= max_set_size
    drawn from range(n), in sweep order, as two tables of mask rows:
    A0 then B0, and A0 then the mirrors n + B0, each padded with row 2n
    (the origin, which every walk visits)."""
    pad = 2 * n
    dtype = np.min_scalar_type(pad)
    combos = []
    for size in range(max_set_size + 1):
        c = np.array(list(itertools.combinations(range(n), size)), dtype=dtype)
        padded = np.full((len(c), max_set_size), pad, dtype=dtype)
        padded[:, :size] = c.reshape(len(c), size)
        combos.append(padded)
    a_rows, b_rows = [], []
    for a in np.concatenate(combos):
        for b in combos:
            b = b[~np.isin(b, a[a < n]).any(axis=1)]
            a_rows.append(np.broadcast_to(a, b.shape))
            b_rows.append(b)
    a_idx, b_idx = np.concatenate(a_rows), np.concatenate(b_rows)
    return (np.hstack([a_idx, b_idx]),
            np.hstack([a_idx, np.where(b_idx == pad, pad, b_idx + n)]))


def _covered_counts(masks: np.ndarray, cases: np.ndarray, counts: np.ndarray) -> None:
    """Walks visiting every point of each case, into `counts`: the AND of
    the mask rows that row c of `cases` names, popcounted, in blocks of
    about 2^15 words (512 cases at L = 6)."""
    block = max(1, 2**15 // masks.shape[1])
    for lo in range(0, len(cases), block):
        rows = cases[lo:lo + block]
        acc = masks[rows[:, 0]]
        for col in rows.T[1:]:
            acc &= masks[col]
        counts[lo:lo + len(rows)] = np.bitwise_count(acc).sum(axis=1)


def reflection_monotonicity_sweep(d: int = 2, h: Hyperplane = Hyperplane(0, 1, 1),
                                  radius: int = 2, max_set_size: int = 2,
                                  lengths: Sequence[int] = (1, 2, 3, 4, 5, 6),
                                  ) -> ReflectionSweepReport:
    """Exhaustively compare covering counts for every disjoint pair of
    origin-side sets (up to the given size, inside the sup-norm box)
    against the pair with the second set reflected.  Any case where the
    reflected pair is covered by strictly more walks is a violation."""
    if max_set_size < 1 or radius < 0:
        raise ValueError("need max_set_size >= 1 and radius >= 0")
    # the origin side holds at least half the box: it contains x_i <= x_j or x_i >= x_j
    _check_sweep_work(d, ((2 * radius + 1) ** d + 1) // 2, max_set_size, lengths)
    if not lengths or min(lengths) < 1:
        raise ValueError(f"need walk lengths >= 1, got {list(lengths)}")
    box = [p for p in itertools.product(range(-radius, radius + 1), repeat=d)]
    origin_side = [p for p in box if h.on_origin_side(p)]
    n = len(origin_side)
    _check_sweep_work(d, n, max_set_size, lengths)
    # mask rows: the origin-side points, their mirrors, then the origin
    rows = origin_side + [reflect_point(p, h) for p in origin_side] + [(0,) * d]
    original, reflected = _sweep_cases(n, max_set_size)
    c1, c2 = np.empty((2, len(original)), dtype=np.int64)
    violations = []
    for L in lengths:
        masks = _walk_cover_masks(d, L, rows)
        _covered_counts(masks, original, c1)
        _covered_counts(masks, reflected, c2)
        for v in np.flatnonzero(c1 < c2):
            a, b = original[v, :max_set_size], original[v, max_set_size:]
            violations.append((L, tuple(sorted(origin_side[i] for i in a if i < n)),
                               tuple(origin_side[i] for i in b if i < n),
                               int(c1[v]), int(c2[v])))
    return ReflectionSweepReport(d, h, radius, max_set_size, tuple(lengths),
                                 len(original) * len(lengths), tuple(violations))


# ---------------------------------------------------------------------------
# staircase maximality ranking
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RankedPath:
    points: tuple[Point, ...]
    probability: Fraction
    is_staircase: bool


@dataclass(frozen=True)
class StaircaseReport:
    """Ranked covering probabilities of every path from 0 to the L1
    sphere of radius N using at most ``cap`` steps.

    The underlying claim quantifies over connecting paths of *any*
    length; the cap bounds only this enumeration and is echoed here.
    """

    N: int
    d: int
    L: int
    cap: int
    rows: tuple[RankedPath, ...]
    staircase_probability: Fraction

    @property
    def staircase_is_max(self) -> bool:
        return all(self.staircase_probability >= r.probability for r in self.rows)


def enumerate_connecting_paths(N: int, d: int, cap: int):
    """All nearest-neighbor paths from 0 that first reach L1 norm N at
    their final point, using at most ``cap`` steps."""
    if cap < N:
        return
    origin = tuple([0] * d)
    steps = [unit_vector(d, ax, sg) for ax in range(d) for sg in (1, -1)]

    def extend(path: list[Point], norm: int):
        used = len(path) - 1
        if norm == N:
            yield tuple(path)
            return
        if used + (N - norm) > cap:
            return
        for s in steps:
            nxt = tuple(a + b for a, b in zip(path[-1], s))
            path.append(nxt)
            yield from extend(path, sum(abs(c) for c in nxt))
            path.pop()

    yield from extend([origin], 0)


@lru_cache(maxsize=None)
def _symmetries(d: int) -> tuple[np.ndarray, np.ndarray]:
    """The d!·2^d symmetries of the walk law: image coordinate k of p is
    ``signs[s, k] * p[perms[s, k]]``."""
    table = [(perm, flips) for perm in itertools.permutations(range(d))
             for flips in itertools.product((1, -1), repeat=d)]
    perms, signs = (np.array(column) for column in zip(*table))
    perms.setflags(write=False)
    signs.setflags(write=False)
    return perms, signs


def _canonical_keys(traces: Sequence[frozenset[Point]], d: int) -> list[tuple[int, ...]]:
    """One key per trace, equal for two traces iff a symmetry of the walk
    law maps one onto the other: the least sorted image of the trace,
    each point coded as one integer in lexicographic order."""
    perms, signs = _symmetries(d)
    sizes = np.array([len(trace) for trace in traces])
    pts = np.zeros((len(traces), sizes.max(initial=0), d), dtype=np.int64)
    for t, trace in enumerate(traces):
        pts[t, :sizes[t]] = list(trace)
    pad = np.arange(pts.shape[1]) >= sizes[:, None]
    weights = (2 * int(np.abs(pts).max(initial=0)) + 1) ** np.arange(d - 1, -1, -1)
    # code of image s of point p: p @ coder[s], increasing in lexicographic order
    coder = np.zeros((len(perms), d), dtype=np.int64)
    np.put_along_axis(coder, perms, signs * weights, axis=1)
    last = np.iinfo(np.int64).max
    keys = []
    for lo in range(0, len(traces), 256):
        codes = pts[lo:lo + 256] @ coder.T
        codes[pad[lo:lo + 256]] = last
        codes = np.sort(codes.transpose(0, 2, 1), axis=2)
        alive = np.ones(codes.shape[:2], dtype=bool)
        for col in codes.transpose(2, 0, 1):
            col = np.where(alive, col, last)
            alive &= col == col.min(axis=1, keepdims=True)
        keys += map(tuple, codes[np.arange(len(codes)), alive.argmax(axis=1)].tolist())
    return keys


def verify_staircase_max(N: int, d: int, L: int, cap: int,
                         budget: int = DEFAULT_BUDGET) -> StaircaseReport:
    """Rank every connecting path (up to ``cap`` steps) by its exact
    covering probability within L walk steps.  Covering probability
    depends on the path only through its trace, and is invariant under
    the walk symmetries, so each symmetry class is counted once."""
    if d < 1 or not 1 <= N <= min(cap, L):
        raise ValueError("need d >= 1 and 1 <= N <= min(cap, L)")
    # a trace holds at most cap points besides the origin, all of norm <= N;
    # a cap past the budget's bit length is refused alike, without forming 2^cap
    _check_budget(d, L, 1 << min(cap, budget.bit_length()), N, budget)
    paths = list(enumerate_connecting_paths(N, d, cap))
    traces = list(dict.fromkeys(frozenset(pts) for pts in paths))
    cache: dict[tuple[int, ...], Fraction] = {}
    prob_of = {}
    for trace, key in zip(traces, _canonical_keys(traces, d)):
        if key not in cache:
            cache[key] = exact_cover_probability(
                CoverTarget.from_points(trace), d, L, budget).probability
        prob_of[trace] = cache[key]
    stair_points = staircase_path(N, d).points
    rows = [RankedPath(pts, prob_of[frozenset(pts)], pts == stair_points)
            for pts in paths]
    if not any(r.is_staircase for r in rows):
        raise ValueError("cap excludes the staircase itself")
    rows.sort(key=lambda r: (-r.probability, r.points))
    stair_prob = next(r.probability for r in rows if r.is_staircase)
    return StaircaseReport(N, d, L, cap, tuple(rows), stair_prob)
