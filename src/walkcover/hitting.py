"""First-entry calculus for finite point sets under the simple walk.

For a transient walk started at x outside a finite set S, conditioning on
the first entry point splits the expected visit counts:

    G(s_i - x) = sum_j P(first entry at s_j) G(s_i - s_j),

a linear system whose matrix is the Green matrix of S.  Solving it gives
the full first-entry distribution; its total mass is the probability of
ever hitting S (G(y)/G(0) when S is a single point y).

When the start lies in S, hitting times count from step 1, so the walk
first takes one uniform step and the distribution is the average over
the 2d neighbors (neighbors inside S enter immediately).

``counterexample_probabilities`` assembles, from these pieces, the exact
infinite-horizon probabilities of covering the two length-3 paths
(o,y,w,z) and its reflected twin (o,y,w,y) in Z^3 up to their visit
multiplicities; the reflected twin loses, which is what rules out a
reflection-based monotonicity for covering with repetitions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .green import green_value, simple_walk
from .lattice import Point, unit_vector


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
        pts = (self.start,) + self.targets
        if any(len(p) != self.d for p in pts):
            raise ValueError("dimension mismatch")
        if self.d < 3:
            raise ValueError("first-entry calculus requires a transient walk (d >= 3)")


def _green(d: int, x: tuple[int, ...], tol: float) -> float:
    return green_value(simple_walk(d), x, tol).value


def first_entry_distribution(query: HittingQuery, tol: float = 1e-5) -> dict[Point, float]:
    """P(the walk's first entry into the target set, counting from step
    1, happens at s) for each target point s.

    Probabilities lie in [0,1] and sum to the hitting probability of the
    set (at most 1).
    """
    if query.start in query.targets:
        return _start_on_set(query, tol)
    sub = lambda a, b: tuple(u - v for u, v in zip(a, b))
    pts = query.targets
    M = np.array([[_green(query.d, sub(si, sj), tol) for sj in pts] for si in pts])
    b = np.array([_green(query.d, sub(si, query.start), tol) for si in pts])
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


def _start_on_set(query: HittingQuery, tol: float) -> dict[Point, float]:
    """One-step reduction: average the distribution over the 2d uniform
    first steps; a step landing in the set is an immediate entry."""
    d = query.d
    out = {p: 0.0 for p in query.targets}
    targets = set(query.targets)
    for axis in range(d):
        for sign in (1, -1):
            u = tuple(c + e for c, e in zip(query.start, unit_vector(d, axis, sign)))
            if u in targets:
                out[u] += 1.0 / (2 * d)
            else:
                h = first_entry_distribution(HittingQuery(u, query.targets, d), tol)
                for p in out:
                    out[p] += h[p] / (2 * d)
    return out


def hit_probability(query: HittingQuery, tol: float = 1e-5) -> float:
    """P(the walk ever enters the target set, counting from step 1)."""
    return sum(first_entry_distribution(query, tol).values())


@dataclass(frozen=True)
class CounterexampleResult:
    """Exact infinite-horizon covering probabilities (up to visit
    multiplicities) for the two test paths in Z^3."""

    p_original: float      # path (o, y, w, z): four distinct points
    p_reflected: float     # path (o, y, w, y): y needed twice
    tol: float
    components: dict[str, float]
    notes: tuple[str, ...]


def counterexample_probabilities(tol: float = 1e-5) -> CounterexampleResult:
    """Assemble the two covering probabilities from first-entry pieces.

    Both events require first entering {y, w, ...} and then completing
    the remaining visits; decomposing over the entry point and applying
    the strong Markov property at each completed visit yields products of
    first-entry and single-point hitting probabilities.  The original
    path wins: reflecting its last arc onto y concentrates the required
    visits and lowers the probability.
    """
    o, y, z, w = (0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)
    g0 = _green(3, o, tol)
    hit_y = _green(3, y, tol) / g0      # P(ever reach a unit neighbor)
    hit_w = _green(3, w, tol) / g0      # P(ever reach a diagonal neighbor)
    fe = lambda pts: first_entry_distribution(HittingQuery(o, pts, 3), tol)
    h_yzw = fe((y, z, w))
    h_yw = fe((y, w))
    h_yz = fe((y, z))
    h_oy = fe((o, y))                    # start-on-set reduction
    p_original = (2 * h_yzw[y] * (h_yw[y] + h_yw[w]) * hit_y
                  + 2 * h_yzw[w] * h_yz[y] * hit_w)
    p_reflected = (h_yw[y] * (h_oy[o] + h_oy[y]) * hit_y
                   + h_yw[w] * hit_y * hit_y)
    variant = (2 * h_yzw[y] * (h_yw[y] + h_yw[w]) * hit_y
               + 2 * h_yzw[w] * h_yz[y] * hit_y)
    components = {
        "green_origin": g0,
        "hit_unit_neighbor": hit_y,
        "hit_diagonal_neighbor": hit_w,
        "entry_y_of_yzw": h_yzw[y],
        "entry_w_of_yzw": h_yzw[w],
        "entry_y_of_yw": h_yw[y],
        "entry_w_of_yw": h_yw[w],
        "entry_y_of_yz": h_yz[y],
        "return_o_before_y": h_oy[o],
        "reach_y_before_return": h_oy[y],
        "p_original_variant_last_factor_unit": variant,
    }
    notes = (
        "second term of p_original carries the diagonal-neighbor factor "
        f"{hit_w:.4f}, per the Markov decomposition of the covering event; "
        f"with a unit-neighbor factor instead it would read {variant:.4f}",
        "truncating the walk at L steps can only lower these probabilities; "
        "see the counterexample command for the quantitative tail estimate",
    )
    return CounterexampleResult(p_original, p_reflected, tol, components, notes)


def truncation_bias_estimate(L: int, p_cover: float,
                             points: tuple[Point, ...] = ((1, 0, 0), (0, 1, 0), (1, 1, 0)),
                             tol: float = 1e-5) -> float:
    """Estimated covering-probability deficit from stopping at L steps.

    A covering that completes only after L requires a visit to some
    target point in (L, inf); the expected number of such visits is the
    Green tail, and dividing by G(0) converts expected visits into a
    visit probability.  Multiplying by the covering probability itself
    approximates the joint requirement (the factors are positively
    correlated, so this is an estimate, not a bound; the crude union
    bound is the same sum without the covering factor).
    """
    import math
    d = 3
    g0 = _green(d, (0, 0, 0), tol)
    tail_visit = 0.0
    for p in points:
        a = d * sum(c * c for c in p) / 2.0
        amp = (d / (2 * math.pi)) ** (d / 2)
        tail_visit += amp * 2.0 * L ** (-0.5) * math.exp(-a / L) / g0
    return p_cover * tail_visit
