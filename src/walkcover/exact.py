"""Exact covering probabilities by exhaustive enumeration of walks.

Every probability here is a rational number ``favorable / (2d)^L``
computed with arbitrary-precision integers: the (2d)^L equally likely
step sequences of length L are explored depth-first, with two exactness-
preserving accelerations:

* early accept: once every target requirement is met, the entire subtree
  counts as ``(2d)^remaining``;
* memoization: the favorable count from a state depends only on the
  current position, steps left, and outstanding visit requirements.

On top of the counter sit the theorem-shaped routines: counting a
target-set pair against its reflected twin, the exhaustive
reflection-monotonicity sweep over small set pairs, the ranked table of
covering probabilities over all short connecting paths (staircase
maximality), and the bridge that converts one reflection equivalence
class into a sign-cover counting instance.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from . import comb
from .lattice import (CoverTarget, Path, Point, TRACE, l1_distance,
                      staircase_path, unit_vector)
from .reflect import (Hyperplane, apply_configuration, arc_decompose,
                      reflect_point)

DEFAULT_BUDGET = 10**9

#: Work allowed in one reflection sweep: (2d)^L * L steps build the walk
#: masks of length L, and each case costs one unit to form plus, at each
#: L, ceil((2d)^L / 64) mask words.  Criterion 6's size (radius 2, sets of
#: size 2, L <= 6) is 2.6e6 units; L <= 7 is 1.0e7, about a second.
MAX_SWEEP_WORK = 2**24


class BudgetExceededError(ValueError):
    """(2d)^L beyond the enumeration budget, or a sweep beyond its work guard."""


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


def _check_budget(d: int, L: int, budget: int) -> None:
    if (2 * d) ** L > budget:
        raise BudgetExceededError(f"(2d)^L = {(2*d)**L} exceeds budget {budget}")


def _favorable_count(d: int, L: int, needed: dict[Point, int]) -> int:
    """Walks of length L from the origin meeting every visit requirement;
    the time-0 position counts as a visit."""
    points = tuple(sorted(needed))
    idx_of = {p: i for i, p in enumerate(points)}
    origin = tuple([0] * d)
    start = tuple(max(needed[p] - (p == origin), 0) for p in points)
    sides = 2 * d
    steps = [unit_vector(d, ax, sg) for ax in range(d) for sg in (1, -1)]
    powers = [sides**r for r in range(L + 1)]
    memo: dict[tuple, int] = {}

    def feasible(pos: Point, r: int, rem: tuple[int, ...]) -> bool:
        for p, k in zip(points, rem):
            if k == 0:
                continue
            dist = l1_distance(pos, p)
            lb = (dist if dist else 2) + 2 * (k - 1)
            if lb > r:
                return False
        return True

    def count(pos: Point, r: int, rem: tuple[int, ...]) -> int:
        if all(k == 0 for k in rem):
            return powers[r]
        if r == 0 or not feasible(pos, r, rem):
            return 0
        key = (pos, r, rem)
        cached = memo.get(key)
        if cached is not None:
            return cached
        total = 0
        for step in steps:
            nxt = tuple(a + b for a, b in zip(pos, step))
            idx = idx_of.get(nxt)
            if idx is not None and rem[idx] > 0:
                total += count(nxt, r - 1, rem[:idx] + (rem[idx] - 1,) + rem[idx + 1:])
            else:
                total += count(nxt, r - 1, rem)
        memo[key] = total
        return total

    return count(origin, L, start)


def exact_cover_probability(target: CoverTarget, d: int, L: int,
                            budget: int = DEFAULT_BUDGET) -> ExactResult:
    """Exact probability that the first L steps of the d-dimensional
    simple walk cover the target (trace containment, or visit
    multiplicities in repetitions mode)."""
    if L < 0:
        raise ValueError("L must be >= 0")
    if target.dim != d:
        raise ValueError(f"target dimension {target.dim} != {d}")
    _check_budget(d, L, budget)
    needed = {p: target.required(p) for p in target.trace}
    return ExactResult(_favorable_count(d, L, needed), (2 * d) ** L)


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
    _check_budget(d, L, budget)
    mirrored = frozenset(reflect_point(p, h) for p in B0)

    def favorable(points: frozenset[Point]) -> int:
        if not points:
            return (2 * d) ** L
        return _favorable_count(d, L, {p: 1 for p in points})

    return favorable(A0 | B0), favorable(A0 | mirrored)


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


def _walk_cover_masks(d: int, L: int, points: Sequence[Point]) -> dict[Point, int]:
    """Bit w of masks[p] is set iff walk number w (of the (2d)^L walks)
    visits p; walks are numbered in lexicographic step order."""
    steps = [unit_vector(d, ax, sg) for ax in range(d) for sg in (1, -1)]
    masks = {p: 0 for p in points}
    origin = tuple([0] * d)
    for w, seq in enumerate(itertools.product(range(2 * d), repeat=L)):
        pos = origin
        trace = {pos}
        for s in seq:
            pos = tuple(a + b for a, b in zip(pos, steps[s]))
            trace.add(pos)
        bit = 1 << w
        for p in trace:
            if p in masks:
                masks[p] |= bit
    return masks


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


def reflection_monotonicity_sweep(d: int = 2, h: Hyperplane = Hyperplane(0, 1, 1),
                                  radius: int = 2, max_set_size: int = 2,
                                  lengths: Sequence[int] = (1, 2, 3, 4, 5, 6),
                                  ) -> ReflectionSweepReport:
    """Exhaustively compare covering counts for every disjoint pair of
    origin-side sets (up to the given size, inside the sup-norm box)
    against the pair with the second set reflected.  Any case where the
    reflected pair is covered by strictly more walks is a violation."""
    if max_set_size < 1:
        raise ValueError("need max_set_size >= 1")
    # the origin side holds at least half the box: it contains x_i <= x_j or x_i >= x_j
    _check_sweep_work(d, ((2 * radius + 1) ** d + 1) // 2, max_set_size, lengths)
    box = [p for p in itertools.product(range(-radius, radius + 1), repeat=d)]
    origin_side = [p for p in box if h.on_origin_side(p)]
    _check_sweep_work(d, len(origin_side), max_set_size, lengths)
    relevant = set(origin_side) | {reflect_point(p, h) for p in origin_side}
    violations = []
    cases = 0
    a_choices = [frozenset(c) for size in range(max_set_size + 1)
                 for c in itertools.combinations(origin_side, size)]
    for L in lengths:
        masks = _walk_cover_masks(d, L, sorted(relevant))
        all_walks = (1 << (2 * d) ** L) - 1

        def covered_count(pts: Iterable[Point]) -> int:
            m = all_walks
            for p in pts:
                m &= masks[p]
            return m.bit_count()

        for A0 in a_choices:
            rest = [p for p in origin_side if p not in A0]
            for size in range(max_set_size + 1):
                for B0 in itertools.combinations(rest, size):
                    cases += 1
                    c1 = covered_count(A0 | set(B0))
                    c2 = covered_count(A0 | {reflect_point(p, h) for p in B0})
                    if c1 < c2:
                        violations.append((L, tuple(sorted(A0)), B0, c1, c2))
    return ReflectionSweepReport(d, h, radius, max_set_size, tuple(lengths),
                                 cases, tuple(violations))


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


def _canonical_trace(points: Iterable[Point], d: int) -> tuple[Point, ...]:
    """Least image of the point set under coordinate permutations and
    per-axis sign flips (the symmetries of the walk law)."""
    pts = list(points)
    best = None
    for perm in itertools.permutations(range(d)):
        permuted = [tuple(p[a] for a in perm) for p in pts]
        for flips in itertools.product((1, -1), repeat=d):
            img = tuple(sorted(tuple(f * c for f, c in zip(flips, p)) for p in permuted))
            if best is None or img < best:
                best = img
    return best


def verify_staircase_max(N: int, d: int, L: int, cap: int,
                         budget: int = DEFAULT_BUDGET) -> StaircaseReport:
    """Rank every connecting path (up to ``cap`` steps) by its exact
    covering probability within L walk steps.  Covering probability
    depends on the path only through its trace, and is invariant under
    the walk symmetries, so probabilities are cached accordingly."""
    if L < N:
        raise ValueError("need L >= N")
    _check_budget(d, L, budget)
    cache: dict[tuple[Point, ...], Fraction] = {}
    stair = staircase_path(N, d)
    stair_points = stair.points

    def probability(trace: frozenset[Point]) -> Fraction:
        key = _canonical_trace(trace, d)
        if key not in cache:
            cache[key] = exact_cover_probability(
                CoverTarget(TRACE, trace), d, L, budget).probability
        return cache[key]

    rows = []
    for pts in enumerate_connecting_paths(N, d, cap):
        rows.append(RankedPath(pts, probability(frozenset(pts)), pts == stair_points))
    if not any(r.is_staircase for r in rows):
        raise ValueError("cap excludes the staircase itself")
    rows.sort(key=lambda r: (-r.probability, r.points))
    stair_prob = next(r.probability for r in rows if r.is_staircase)
    return StaircaseReport(N, d, L, cap, tuple(rows), stair_prob)


# ---------------------------------------------------------------------------
# bridge from a reflection class to a sign-cover counting instance
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SignCoverInstance:
    """The counting instance carried by one reflection equivalence class.

    ``omega`` lists the target points that only arcs can cover (not on
    the hyperplane, not in the shared prefix); arc i of the collection
    holds the indices of the points its trace visits.  ``a_indices`` are
    the positions of the A0 points inside ``omega``.
    """

    omega: tuple[Point, ...]
    collection: comb.ArcCollection
    a_indices: frozenset[int]
    guard_ok: bool


def sign_cover_instance(representative: Path, h: Hyperplane,
                        A0: Iterable[Point], B0: Iterable[Point]) -> SignCoverInstance | None:
    """Build the counting instance for the class of ``representative``
    (which must be canonical: every arc on the origin side).

    Returns None when no target point is left for the arcs to cover.
    When the guard fails (a target point on the hyperplane that the path
    never visits) both class-restricted counts are zero.
    """
    A0, B0 = frozenset(A0), frozenset(B0)
    targets = A0 | B0
    dec = arc_decompose(representative, h)
    on_plane_visits = {p for p in representative.trace if h.contains(p)}
    guard_ok = all(p in on_plane_visits for p in targets if h.contains(p))
    prefix_trace = set(dec.prefix)
    omega = tuple(sorted(p for p in targets
                         if not h.contains(p) and p not in prefix_trace))
    if not omega:
        return None
    index = {p: j + 1 for j, p in enumerate(omega)}
    arcs = []
    for arc in dec.arcs:
        if len(arc) < 2:
            continue  # single on-plane point: reflection acts trivially
        arc_trace = set(arc)
        arcs.append(frozenset(index[p] for p in omega if p in arc_trace))
    collection = comb.ArcCollection(len(omega), tuple(arcs))
    a_indices = frozenset(index[p] - 1 for p in omega if p in A0)
    return SignCoverInstance(omega, collection, a_indices, guard_ok)


def class_members(representative: Path, h: Hyperplane):
    """All paths in the reflection class: one per sign choice on the arcs
    that actually leave the hyperplane."""
    dec = arc_decompose(representative, h)
    significant = [k for k, arc in enumerate(dec.arcs) if len(arc) >= 2]
    for bits in itertools.product((1, -1), repeat=len(significant)):
        signs = [1] * dec.arc_count
        for k, b in zip(significant, bits):
            signs[k] = b
        yield apply_configuration(representative, h, tuple(signs))
