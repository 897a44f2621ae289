"""First-entry calculus for finite point sets under the simple walk.

For a transient walk started at x outside a finite set S, conditioning on
the first entry point splits the expected visit counts:

    G(s_i - x) = sum_j P(first entry at s_j) G(s_i - s_j),

a linear system in the Green matrix of S whose solution is the
first-entry distribution h_x^S; its mass is the probability of ever
hitting S.  Entries count from step 1, so a start x in S has its time-0
visit taken off the left side: G(s_i - x) - [s_i = x].

Chaining entries by the strong Markov property gives the probability
that the walk from the origin ever covers a finite target.  With r the
visits each point still needs and S(r) the points with r > 0,

    P(x, r) = sum_s h_x^{S(r)}(s) P(s, r - e_s),   P(x, 0) = 1.

The covering-with-repetitions counterexample is two such calls: the path
(o,y,w,z) in Z^3 beats its reflected twin (o,y,w,y), which rules out a
reflection-based monotonicity for covering with repetitions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .green import _lclt_amplitude, green_value, simple_walk
from .lattice import REPETITIONS, CoverTarget, Point, validate_path


class SingularSystemError(RuntimeError):
    """Green matrix not solvable; indicates duplicate points or a
    quadrature failure."""


@dataclass(frozen=True)
class HittingQuery:
    start: Point
    targets: tuple[Point, ...]
    d: int

    def __post_init__(self):
        if not self.targets:
            raise ValueError("target set must be nonempty")
        if len(set(self.targets)) != len(self.targets):
            raise ValueError("target points must be distinct")
        if any(len(p) != self.d for p in (self.start,) + self.targets):
            raise ValueError("dimension mismatch")


def _green(d: int, x: tuple[int, ...], tol: float) -> float:
    return green_value(simple_walk(d), x, tol).value


def first_entry_distribution(query: HittingQuery, tol: float = 1e-5) -> dict[Point, float]:
    """P(the walk's first entry into the target set, counting from step
    1, happens at s) for each target point s.  They lie in [0, 1] and
    sum to the hitting probability of the set (at most 1)."""
    sub = lambda a, b: tuple(u - v for u, v in zip(a, b))
    pts = query.targets
    M = np.array([[_green(query.d, sub(si, sj), tol) for sj in pts] for si in pts])
    b = np.array([_green(query.d, sub(si, query.start), tol) - (si == query.start)
                  for si in pts])
    try:
        h = np.linalg.solve(M, b)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(str(exc)) from exc
    slack = 100 * tol
    if (h < -slack).any() or h.sum() > 1 + slack:
        raise SingularSystemError(
            f"entry probabilities out of range: {h.tolist()} (sum {h.sum()})")
    h = np.clip(h, 0.0, 1.0)
    return {p: float(v) for p, v in zip(pts, h)}


def infinite_cover_probability(target: CoverTarget, tol: float = 1e-5) -> float:
    """P(the walk from the origin ever meets every visit requirement of
    ``target``; the time-0 position counts as a visit).  Memoised on
    (position, visits still needed), so the work grows with the number
    of requirement states, not of entry orders."""
    d = target.dim
    owed = target.outstanding()
    points = tuple(sorted(owed))

    @cache
    def cover(pos: Point, rem: tuple[int, ...]) -> float:
        pending = tuple(p for p, k in zip(points, rem) if k)
        if not pending:
            return 1.0
        h = first_entry_distribution(HittingQuery(pos, pending, d), tol)
        return sum(h[s] * cover(s, tuple(k - (p == s) for p, k in zip(points, rem)))
                   for s in pending)

    return cover((0,) * d, tuple(owed[p] for p in points))


#: The counterexample's path (o, y, w, z) in Z^3 and its reflected twin (o, y, w, y).
COUNTEREXAMPLE_PATHS = tuple(validate_path(p) for p in (
    [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)],
    [(0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 0, 0)]))


@dataclass(frozen=True)
class CounterexampleResult:
    """L = infinity probabilities of covering ``COUNTEREXAMPLE_PATHS`` with repetitions."""
    p_original: float      # (o, y, w, z): four distinct points
    p_reflected: float     # (o, y, w, y): y needed twice
    tol: float
    notes: tuple[str, ...]


def counterexample_probabilities(tol: float = 1e-5) -> CounterexampleResult:
    """The original path wins: reflecting its last arc onto y
    concentrates the required visits and lowers the probability."""
    p_original, p_reflected = (
        infinite_cover_probability(CoverTarget.of_path(p, REPETITIONS), tol)
        for p in COUNTEREXAMPLE_PATHS)
    return CounterexampleResult(p_original, p_reflected, tol, (
        "truncating the walk at L steps can only lower these probabilities; "
        "truncation_bias_estimate sizes the deficit",))


def truncation_bias_estimate(L: int, p_cover: float, tol: float = 1e-5) -> float:
    """Estimated covering-probability deficit from stopping at L steps.

    A covering of (o, y, w, z) that completes only after L requires a
    visit to y, w or z in (L, inf); the expected number of such visits is the
    Green tail, and dividing by G(0) converts expected visits into a
    visit probability.  Multiplying by the covering probability itself
    approximates the joint requirement (the factors are positively
    correlated, so this is an estimate, not a bound; the crude union
    bound is the same sum without the covering factor).
    """
    if L < 1:
        raise ValueError(f"the truncation bias estimate needs L >= 1, got {L}")
    path = COUNTEREXAMPLE_PATHS[0]
    d, origin = path.dim, path.points[0]
    tail = _lclt_amplitude(simple_walk(d)) * 2.0 / math.sqrt(L) / _green(d, origin, tol)
    return p_cover * tail * sum(math.exp(-d * sum(c * c for c in p) / 2.0 / L)
                                for p in sorted(path.trace - {origin}))
