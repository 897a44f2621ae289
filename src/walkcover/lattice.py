"""Lattice points, nearest-neighbor paths, and the scalar path functionals.

Everything downstream works over Z^d with the L1 metric.  A path is a
nonempty sequence of lattice points in which consecutive points differ by
exactly one unit step along one coordinate.  The canonical path is the
*staircase*: the monotone path that hugs the main diagonal, built from
arcs ``(0, e_1, e_1+e_2, ..., e_1+...+e_{d-1})`` translated by multiples
of ``e_1+...+e_d``.

The scalar functionals are the total difference (summed pairwise
coordinate discrepancies over the distinct trace points, the potential
that the reflection machinery decreases) and the repetition profile
(visit multiplicities of a non-simple path).
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, cycle
from operator import mul, ne, sub
from typing import Iterable, Mapping, Sequence

Point = tuple[int, ...]

#: Coordinates are kept well inside int64 so every L1 computation is
#: overflow-free.
COORD_BOUND = 2**31


class DimensionMismatchError(ValueError):
    """Points of differing dimension in one path."""


class NotNearestNeighborError(ValueError):
    """Adjacent path points are not at L1 distance 1."""

    def __init__(self, index: int, message: str | None = None):
        self.index = index
        super().__init__(message or f"points {index - 1} and {index} are not nearest neighbors")


def l1_norm(p: Point) -> int:
    return sum(map(abs, p))


@dataclass(frozen=True)
class Path:
    """A validated nearest-neighbor path.

    ``len(path)`` is the number of points (K+1 for a K-step path).  The
    trace is the set of distinct points visited.
    """

    points: tuple[Point, ...]

    def __post_init__(self):
        points = self.points
        if not points:
            raise ValueError("path must contain at least one point")
        d = len(points[0])
        if d < 1:
            raise ValueError("dimension must be >= 1")
        # each check is one pass at C speed; a failing pass then names its point
        if len(set(map(len, points))) > 1:
            i = next(i for i, p in enumerate(points) if len(p) != d)
            raise DimensionMismatchError(f"point {i} has dimension {len(points[i])}, expected {d}")
        flat = list(chain.from_iterable(points))
        if max(flat) > COORD_BOUND or min(flat) < -COORD_BOUND:
            i = next(i for i, p in enumerate(points) if max(map(abs, p)) > COORD_BOUND)
            raise ValueError(f"coordinate magnitude exceeds {COORD_BOUND} at point {i}")
        # every step moves, and the steps move L1 distance len - 1 in all:
        # then each step moves exactly 1
        if (not all(map(ne, points[1:], points))
                or sum(map(abs, map(sub, flat[d:], flat))) != len(points) - 1):
            i = next(i for i in range(1, len(points))
                     if sum(map(abs, map(sub, points[i], points[i - 1]))) != 1)
            raise NotNearestNeighborError(i)

    @property
    def dim(self) -> int:
        return len(self.points[0])

    @cached_property
    def trace(self) -> frozenset[Point]:
        return frozenset(self.points)

    @cached_property
    def total_difference(self) -> int:
        """Sum over distinct trace points of the pairwise coordinate
        discrepancies ``|p_i - p_j|`` (unordered pairs i < j).

        With a point's coordinates sorted, c_0 <= ... <= c_{d-1}, its pairs
        sum to the sum of (2k - d + 1) c_k: c_k is the larger of k pairs
        and the smaller of d - 1 - k.  Zero iff every trace point lies on
        the full diagonal; in d=2 this is the familiar sum of ``|x - y|``
        over the trace."""
        d = self.dim
        return sum(map(mul, chain.from_iterable(map(sorted, self.trace)),
                       cycle(range(1 - d, d, 2))))

    def __iter__(self):
        return iter(self.points)

    def __len__(self) -> int:
        return len(self.points)


def validate_path(points: Sequence[Sequence[int]]) -> Path:
    """Build a :class:`Path`, rejecting anything that is not a
    nearest-neighbor sequence of uniform-dimension lattice points."""
    return Path(tuple(tuple(int(c) for c in p) for p in points))


def connects_origin_to_sphere(path: Path) -> bool:
    """True iff the path starts at 0 and first attains its endpoint's L1
    norm N >= 1 at its final point."""
    if any(path.points[0]):
        return False
    *before, N = map(l1_norm, path.points)
    return N >= 1 and N not in before


def staircase_path(N: int, d: int) -> Path:
    """The monotone diagonal-hugging path of length N+1 in Z^d: point t
    has its first ``t mod d`` coordinates equal to ``t//d + 1`` and the
    rest equal to ``t//d``.  It runs through the arcs ``k(e_1+...+e_d) +
    (0, e_1, e_1+e_2, ..., e_1+...+e_{d-1})``, the last one truncated to
    the remaining ``N mod d`` steps (a single diagonal point when d
    divides N)."""
    if N < 1 or d < 1:
        raise ValueError("need N >= 1 and d >= 1")
    return Path(tuple(tuple([t // d + 1] * (t % d) + [t // d] * (d - t % d))
                      for t in range(N + 1)))


def repetition_profile(path: Path) -> dict[Point, int]:
    """Visit multiplicity of each trace point, in first-visit order; counts
    sum to ``len(path)``."""
    return dict(Counter(path.points))


TRACE = "trace"
REPETITIONS = "repetitions"
MODES = (TRACE, REPETITIONS)


@dataclass(frozen=True)
class CoverTarget:
    """A coverage requirement: the number of visits each point needs.

    A walk covers the target once its n-th visit to every point has
    occurred, n being ``visits[point]``; the walk's position at time 0
    counts as a visit.  Covering a path's trace asks one visit per
    point, covering it with repetitions asks each point's multiplicity
    on the path (see :meth:`of_path`).
    """

    visits: Mapping[Point, int]

    def __post_init__(self):
        if not self.visits:
            raise ValueError("target must be nonempty")
        if len({len(p) for p in self.visits}) != 1:
            raise DimensionMismatchError("target points have mixed dimensions")
        if any(k < 1 for k in self.visits.values()):
            raise ValueError("visit counts must be positive")

    @property
    def trace(self) -> frozenset[Point]:
        return frozenset(self.visits)

    @property
    def dim(self) -> int:
        return len(next(iter(self.visits)))

    @classmethod
    def from_points(cls, points: Iterable[Sequence[int]]) -> "CoverTarget":
        return cls(dict.fromkeys((tuple(int(c) for c in p) for p in points), 1))

    @classmethod
    def of_path(cls, path: Path, mode: str = TRACE) -> "CoverTarget":
        """Cover the trace of ``path`` (``TRACE``) or every point as often
        as the path visits it (``REPETITIONS``)."""
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        return cls(repetition_profile(path) if mode == REPETITIONS
                   else dict.fromkeys(path.trace, 1))


def outstanding_visits(required: Mapping[Point, int]) -> dict[Point, int]:
    """Visits each point still needs after the walk's time-0 position,
    the origin, has been credited; points that need none are dropped."""
    # the origin is the one point with no nonzero coordinate
    owed = {p: k - (not any(p)) for p, k in required.items()}
    return {p: k for p, k in owed.items() if k > 0}


def path_to_json(points: Iterable[Point]) -> str:
    """The path file format for a :class:`Path` or a sequence of points."""
    return json.dumps([list(p) for p in points])


def parse_points(data) -> list[Point]:
    """Points from parsed JSON, which must be an array of arrays of
    integers."""
    if not isinstance(data, list) or not all(
            isinstance(p, list) and all(type(c) is int for c in p) for p in data):
        raise ValueError("expected a JSON array of arrays of integers")
    return [tuple(p) for p in data]


def path_from_json(text: str) -> Path:
    """Parse the path file format: a JSON array of arrays of integers."""
    return validate_path(parse_points(json.loads(text)))
