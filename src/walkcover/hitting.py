"""First-entry calculus for finite point sets; the public entry points run the simple walk.

For a transient walk from x, conditioning on its first entry into a
finite set S, counting from step 1, splits the expected visit counts:
G(s - x) - [s = x] = sum_t H_S[t, x] G(s - t) for s in S.  Over the Green
matrix of nodes that hold S this is one solve,

    G[S,S] H_S = G[S,:] - I[S,:],

whose column H_S[:, x] is the first-entry distribution from node x, for
every node at once; its mass is the probability of ever hitting S.

Chaining entries gives the probability that the walk from the origin
ever covers a finite target.  With r the visits each point still owes
and S(r) the points with r > 0, one solve per requirement state gives
the vector over the owed points and the origin

    P(., r) = sum_{s in S(r)} H_{S(r)}[s, .] P(s, r - e_s),   P(., 0) = 1.

The covering-with-repetitions counterexample is two such calls: the path
(o,y,w,z) in Z^3 beats its reflected twin (o,y,w,y), which rules out a
reflection-based monotonicity for covering with repetitions.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cache

import numpy as np

from .green import WalkSpectrum, _lclt_amplitude, green_value, simple_walk
from .lattice import REPETITIONS, CoverTarget, Point, outstanding_visits, validate_path


class SingularSystemError(ArithmeticError):
    """Green matrix not solvable: duplicate points or a quadrature failure."""


def _green_matrix(spec: WalkSpectrum, points: tuple[Point, ...], start: Point,
                  tol: float) -> tuple[np.ndarray, int]:
    """G(a - b) for the walk over the nodes, the points and then the start
    unless it is one of them, and the start's node."""
    nodes = points if start in points else (*points, start)
    return np.array([[green_value(spec, tuple(u - v for u, v in zip(a, b)), tol).value
                      for b in nodes] for a in nodes]), nodes.index(start)


def _first_entries(G: np.ndarray, pending: Sequence[int], tol: float) -> np.ndarray:
    """H[j, x] = P(the walk from node x first enters the pending nodes at
    pending[j]), each column checked, then clipped to [0, 1].  One
    right-hand side per start: a many-column solve pages in more code."""
    B = G[pending] - np.eye(len(G))[pending]
    try:
        H = np.linalg.solve(G[np.ix_(pending, pending)], B.T[..., None])[..., 0].T
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(str(exc)) from exc
    if H.min() < -100 * tol or H.sum(axis=0).max() > 1 + 100 * tol:
        raise SingularSystemError(f"entry probabilities out of range: {H.T.tolist()}")
    return np.clip(H, 0.0, 1.0)


def first_entry_distribution(start: Point, targets: tuple[Point, ...], d: int,
                             tol: float = 1e-5) -> dict[Point, float]:
    """P(the walk's first entry into the target set, counting from step
    1, happens at s) for each target point s.  They lie in [0, 1] and
    sum to the hitting probability of the set (at most 1)."""
    if not targets:
        raise ValueError("target set must be nonempty")
    if len(set(targets)) != len(targets):
        raise ValueError("target points must be distinct")
    if any(len(p) != d for p in (start, *targets)):
        raise ValueError("dimension mismatch")
    G, x = _green_matrix(simple_walk(d), targets, start, tol)
    return dict(zip(targets, _first_entries(G, range(len(targets)), tol)[:, x].tolist()))


def infinite_cover_probability(target: CoverTarget, tol: float = 1e-5) -> float:
    """P(the walk from the origin ever meets every visit requirement of
    ``target``; the time-0 position counts as a visit).  Memoised on the
    visits still owed, each state one solve for every start at once."""
    owed = outstanding_visits(target.visits)
    points = tuple(sorted(owed))
    G, origin = _green_matrix(simple_walk(target.dim), points, (0,) * target.dim, tol)

    @cache
    def cover(rem: tuple[int, ...]) -> np.ndarray:
        pending = [j for j, k in enumerate(rem) if k]
        if not pending:
            return np.ones(len(G))
        after = [cover(rem[:j] + (rem[j] - 1,) + rem[j + 1:])[j] for j in pending]
        return (_first_entries(G, pending, tol) * np.array(after)[:, None]).sum(axis=0)

    return float(cover(tuple(owed[p] for p in points))[origin])


#: Covering the path (o, y, w, z) in Z^3 with repetitions, and its reflected twin (o, y, w, y).
COUNTEREXAMPLE_TARGETS = tuple(CoverTarget.of_path(validate_path(p), REPETITIONS) for p in (
    [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)],
    [(0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 0, 0)]))


@dataclass(frozen=True)
class CounterexampleResult:
    """L = infinity probabilities of covering ``COUNTEREXAMPLE_TARGETS``."""
    p_original: float      # (o, y, w, z): four distinct points
    p_reflected: float     # (o, y, w, y): y needed twice


def counterexample_probabilities(tol: float = 1e-5) -> CounterexampleResult:
    """The original path wins: reflecting its last arc onto y
    concentrates the required visits and lowers the probability."""
    return CounterexampleResult(*(infinite_cover_probability(t, tol)
                                  for t in COUNTEREXAMPLE_TARGETS))


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
    target = COUNTEREXAMPLE_TARGETS[0]
    d, origin, spec = target.dim, (0,) * target.dim, simple_walk(target.dim)
    tail = _lclt_amplitude(spec) * 2.0 / math.sqrt(L) / green_value(spec, origin, tol).value
    return p_cover * tail * sum(math.exp(-d * sum(c * c for c in p) / 2.0 / L)
                                for p in sorted(target.trace - {origin}))
