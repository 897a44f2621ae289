"""Lattice points, nearest-neighbor paths, and the scalar path functionals.

Everything downstream works over Z^d with the L1 metric.  A path is a
nonempty sequence of lattice points in which consecutive points differ by
exactly one unit step along one coordinate.  The two canonical path
families are

* the *staircase*: the monotone path that hugs the main diagonal, built
  from arcs ``(0, e_1, e_1+e_2, ..., e_1+...+e_{d-1})`` translated by
  multiples of ``e_1+...+e_d``; and
* the *straight* path marching along coordinate 1.

The scalar functionals are the total difference (summed pairwise
coordinate discrepancies over the distinct trace points, the potential
that the reflection machinery decreases) and the repetition profile
(visit multiplicities of a non-simple path).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
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
    return sum(abs(c) for c in p)


def l1_distance(p: Point, q: Point) -> int:
    return sum(abs(a - b) for a, b in zip(p, q))


def unit_vector(d: int, axis: int, sign: int = 1) -> Point:
    e = [0] * d
    e[axis] = sign
    return tuple(e)


@dataclass(frozen=True)
class Path:
    """A validated nearest-neighbor path.

    ``length`` is the number of points (K+1 for a K-step path).  The
    trace is the set of distinct points visited.
    """

    points: tuple[Point, ...]

    def __post_init__(self):
        if not self.points:
            raise ValueError("path must contain at least one point")
        d = len(self.points[0])
        if d < 1:
            raise ValueError("dimension must be >= 1")
        for i, p in enumerate(self.points):
            if len(p) != d:
                raise DimensionMismatchError(f"point {i} has dimension {len(p)}, expected {d}")
            if any(abs(c) > COORD_BOUND for c in p):
                raise ValueError(f"coordinate magnitude exceeds {COORD_BOUND} at point {i}")
        for i in range(1, len(self.points)):
            if l1_distance(self.points[i - 1], self.points[i]) != 1:
                raise NotNearestNeighborError(i)

    @property
    def dim(self) -> int:
        return len(self.points[0])

    @property
    def length(self) -> int:
        return len(self.points)

    @property
    def steps(self) -> int:
        return len(self.points) - 1

    @cached_property
    def trace(self) -> frozenset[Point]:
        return frozenset(self.points)

    @property
    def is_simple(self) -> bool:
        return len(self.trace) == self.length

    def __iter__(self):
        return iter(self.points)

    def __len__(self) -> int:
        return len(self.points)

    def __getitem__(self, idx):
        return self.points[idx]


def validate_path(points: Sequence[Sequence[int]]) -> Path:
    """Build a :class:`Path`, rejecting anything that is not a
    nearest-neighbor sequence of uniform-dimension lattice points."""
    return Path(tuple(tuple(int(c) for c in p) for p in points))


def connects_origin_to_sphere(path: Path, N: int) -> bool:
    """True iff the path starts at 0 and first attains L1 norm ``N`` at its
    final point."""
    if N < 1:
        raise ValueError("N must be >= 1")
    if any(c != 0 for c in path.points[0]):
        return False
    norms = [l1_norm(p) for p in path.points]
    return norms[-1] == N and all(n != N for n in norms[:-1])


def staircase_path(N: int, d: int) -> Path:
    """The monotone diagonal-hugging path of length N+1 in Z^d.

    Built from full arcs ``(k-1)(e_1+...+e_d) + (0, e_1, e_1+e_2, ...,
    e_1+...+e_{d-1})`` for k = 1..floor(N/d), followed by the truncated
    arc holding the remaining ``N mod d`` steps.  When d divides N the
    final arc is the single diagonal point ``(N/d)(e_1+...+e_d)``.
    """
    if N < 1 or d < 1:
        raise ValueError("need N >= 1 and d >= 1")
    full, rem = divmod(N, d)
    points: list[Point] = []
    for k in range(full + 1):
        base = [k] * d
        arc_len = d if k < full else rem + 1  # last arc truncated
        for r in range(arc_len):
            p = base.copy()
            for i in range(r):
                p[i] += 1
            points.append(tuple(p))
    return Path(tuple(points))


def straight_path(N: int, d: int) -> Path:
    """N+1 points marching along coordinate 1."""
    if N < 1 or d < 1:
        raise ValueError("need N >= 1 and d >= 1")
    return Path(tuple(tuple([n] + [0] * (d - 1)) for n in range(N + 1)))


def total_difference(path: Path) -> int:
    """Sum over distinct trace points of the pairwise coordinate
    discrepancies ``|p_i - p_j|`` (unordered pairs i < j).

    Zero iff every trace point lies on the full diagonal; in d=2 this is
    the familiar sum of ``|x - y|`` over the trace.
    """
    total = 0
    d = path.dim
    for p in path.trace:
        for i in range(d):
            for j in range(i + 1, d):
                total += abs(p[i] - p[j])
    return total


def repetition_profile(path: Path) -> dict[Point, int]:
    """Visit multiplicity of each trace point; counts sum to the path
    length."""
    counts: dict[Point, int] = {}
    for p in path.points:
        counts[p] = counts.get(p, 0) + 1
    return counts


TRACE = "trace"
REPETITIONS = "repetitions"
_MODES = (TRACE, REPETITIONS)


@dataclass(frozen=True)
class CoverTarget:
    """A coverage specification: a point set, optionally with required
    visit multiplicities.

    In ``repetitions`` mode a walk covers the target once its n-th visit
    to every point has occurred, n being that point's multiplicity; the
    walk's position at time 0 counts as a visit.
    """

    mode: str
    trace: frozenset[Point]
    profile: Mapping[Point, int] | None = None
    dim: int = field(default=0)

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}")
        if not self.trace:
            raise ValueError("target must be nonempty")
        dims = {len(p) for p in self.trace}
        if len(dims) != 1:
            raise DimensionMismatchError("target points have mixed dimensions")
        object.__setattr__(self, "dim", dims.pop())
        if self.mode == REPETITIONS:
            if self.profile is None:
                raise ValueError("repetitions mode requires a profile")
            if set(self.profile) != set(self.trace):
                raise ValueError("profile keys must equal the trace")
            if any(v < 1 for v in self.profile.values()):
                raise ValueError("multiplicities must be positive")
        elif self.profile is not None:
            raise ValueError("trace mode carries no profile")

    @classmethod
    def from_points(cls, points: Iterable[Sequence[int]]) -> "CoverTarget":
        return cls(TRACE, frozenset(tuple(int(c) for c in p) for p in points))

    @classmethod
    def of_path(cls, path: Path, mode: str = TRACE) -> "CoverTarget":
        if mode == TRACE:
            return cls(TRACE, path.trace)
        return cls(REPETITIONS, path.trace, repetition_profile(path))

    def required(self, point: Point) -> int:
        if self.mode == REPETITIONS:
            return self.profile[point]  # type: ignore[index]
        return 1

    def outstanding(self) -> dict[Point, int]:
        """Visits still owed once time 0 is credited; see
        :func:`outstanding_visits`."""
        return outstanding_visits({p: self.required(p) for p in self.trace})


def outstanding_visits(required: Mapping[Point, int]) -> dict[Point, int]:
    """Visits each point still needs after the walk's time-0 position,
    the origin, has been credited; points that need none are dropped."""
    # the origin is the one point with no nonzero coordinate
    owed = {p: k - (not any(p)) for p, k in required.items()}
    return {p: k for p, k in owed.items() if k > 0}


def path_to_json(path: Path) -> str:
    return json.dumps([list(p) for p in path.points])


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
