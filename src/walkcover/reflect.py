"""Reflection hyperplanes, arc decompositions, and path reduction.

A hyperplane here is always a locus ``x[i] = x[j] + offset`` for two
coordinate axes i != j.  Reflecting across it swaps the two coordinates
(shifted by the offset) and fixes the rest; it is an involution and an L1
isometry, so it maps nearest-neighbor paths to nearest-neighbor paths.

A path decomposes at its visits to the hyperplane into a prefix (before
the first visit) and a sequence of arcs, each starting at an on-plane
point with all later points strictly on one side.  A sign vector chooses,
arc by arc, whether to keep or reflect; the orbit of a path under all
sign choices is its equivalence class, represented canonically by the
member whose arcs all lie on the origin side.

``reduce_path`` drives a connecting path into the unit-width diagonal
region by repeatedly reflecting everything beyond a plane ``x[i] = x[j] +
1`` back toward the origin (each firing strictly decreases the total
difference), then orients the result with a fixed sweep of ``x[i] =
x[j]`` reflections so that its trace contains the staircase trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .lattice import (Path, Point, connects_origin_to_sphere, l1_norm, staircase_path,
                      total_difference)

SignVector = tuple[int, ...]


class SignVectorTooShortError(ValueError):
    """Fewer signs than arcs."""


class NotConnectingError(ValueError):
    """Path does not connect 0 to the L1 sphere as required."""


class ReductionInvariantError(RuntimeError):
    """``reduce_path`` broke one of its postconditions."""


@dataclass(frozen=True)
class Hyperplane:
    """The locus ``x[i] == x[j] + offset`` (0-based coordinate axes)."""

    i: int
    j: int
    offset: int

    def __post_init__(self):
        if self.i == self.j or self.i < 0 or self.j < 0:
            raise ValueError("need two distinct nonnegative axes")

    def signed_gap(self, p: Point) -> int:
        """p[i] - p[j] - offset: zero on the plane."""
        return p[self.i] - p[self.j] - self.offset

    def contains(self, p: Point) -> bool:
        return self.signed_gap(p) == 0

    def origin_sign(self) -> int:
        """Sign of the half-space containing the origin; for offset 0 the
        convention is the side ``x[i] <= x[j]``."""
        return -1 if self.offset >= 0 else 1

    def on_origin_side(self, p: Point) -> bool:
        g = self.signed_gap(p)
        return g == 0 or (g < 0) == (self.origin_sign() < 0)


def reflect_point(p: Point, h: Hyperplane) -> Point:
    """Mirror image across ``x[i] = x[j] + offset``: coordinates i and j
    become ``x[j] + offset`` and ``x[i] - offset``; the rest are fixed."""
    if len(p) <= max(h.i, h.j):
        raise ValueError(f"point of dimension {len(p)} lacks axis {max(h.i, h.j)}")
    q = list(p)
    q[h.i], q[h.j] = p[h.j] + h.offset, p[h.i] - h.offset
    return tuple(q)


def reflect_points(points: Sequence[Point], h: Hyperplane) -> tuple[Point, ...]:
    return tuple(reflect_point(p, h) for p in points)


@dataclass(frozen=True)
class ArcDecomposition:
    """Split of a path at its visits to a hyperplane.

    ``prefix`` holds the points strictly before the first visit (empty
    when the path starts on the plane; the whole path when it never
    visits).  ``arcs[n]`` spans visit n to just before visit n+1; the
    final arc runs to the end of the path.  ``visit_times`` are the
    indices of the on-plane points, one per arc.
    """

    prefix: tuple[Point, ...]
    arcs: tuple[tuple[Point, ...], ...]
    visit_times: tuple[int, ...]

    @property
    def arc_count(self) -> int:
        return len(self.arcs)

    def reassemble(self) -> tuple[Point, ...]:
        out = list(self.prefix)
        for arc in self.arcs:
            out.extend(arc)
        return tuple(out)


def arc_decompose(path: Path, h: Hyperplane) -> ArcDecomposition:
    visits = [n for n, p in enumerate(path.points) if h.contains(p)]
    if not visits:
        return ArcDecomposition(tuple(path.points), (), ())
    arcs = []
    for k, t in enumerate(visits):
        end = visits[k + 1] if k + 1 < len(visits) else len(path.points)
        arcs.append(tuple(path.points[t:end]))
    return ArcDecomposition(tuple(path.points[: visits[0]]), tuple(arcs), tuple(visits))


def apply_configuration(path: Path, h: Hyperplane, signs: Sequence[int]) -> Path:
    """Keep (+1) or reflect (-1) each arc; the prefix is never touched.

    Applying the same sign vector twice returns the original path.  Signs
    beyond the arc count are ignored; fewer signs than arcs is an error.
    """
    dec = arc_decompose(path, h)
    if len(signs) < dec.arc_count:
        raise SignVectorTooShortError(
            f"{len(signs)} signs for {dec.arc_count} arcs")
    if any(s not in (-1, 1) for s in signs):
        raise ValueError("signs must be +/-1")
    pieces = list(dec.prefix)
    for arc, s in zip(dec.arcs, signs):
        pieces.extend(reflect_points(arc, h) if s == -1 else arc)
    return Path(tuple(pieces))


def canonical_representative(path: Path, h: Hyperplane) -> tuple[Path, SignVector]:
    """The unique class member with every arc on the origin side, plus the
    sign vector that maps it back to ``path`` via
    :func:`apply_configuration`."""
    dec = arc_decompose(path, h)
    signs = tuple(1 if all(map(h.on_origin_side, arc)) else -1 for arc in dec.arcs)
    return apply_configuration(path, h, signs), signs


def normalize_to_positive_orthant(path: Path) -> Path:
    """Flip the sign of every coordinate on which the endpoint is
    negative (a walk symmetry, so covering probabilities are unchanged)."""
    end = path.points[-1]
    flips = [-1 if c < 0 else 1 for c in end]
    return Path(tuple(tuple(f * c for f, c in zip(flips, p)) for p in path.points))


def _check_connecting(path: Path) -> int:
    N = l1_norm(path.points[-1])
    if N < 1 or not connects_origin_to_sphere(path, N):
        raise NotConnectingError(
            "path must start at the origin and first attain its endpoint norm at the endpoint")
    return N


def reduce_path(path: Path) -> list[tuple[Hyperplane, Path]]:
    """Chain of reflections carrying a connecting path into the region
    ``max_{i,j} |x_i - x_j| <= 1`` with coordinates ordered so the trace
    contains the staircase trace.

    Requires the endpoint in the closed positive orthant (see
    :func:`normalize_to_positive_orthant`).  Every recorded step replaces
    the path by the canonical representative for the fired hyperplane;
    steps that leave the path unchanged are not recorded.  Off-plane
    firings (offset 1) strictly decrease the total difference, which
    guarantees termination.
    """
    N = _check_connecting(path)
    if any(c < 0 for c in path.points[-1]):
        raise NotConnectingError("endpoint must lie in the closed positive orthant")
    d = path.dim
    chain: list[tuple[Hyperplane, Path]] = []
    current = path

    def fire(h: Hyperplane) -> None:
        nonlocal current
        new, _ = canonical_representative(current, h)
        if new.points != current.points:
            chain.append((h, new))
            current = new

    # stage 1: pull everything inside the unit-width diagonal region
    while True:
        # the first plane (i, j, 1) in row-major order with a point beyond it
        h = next((Hyperplane(i, j, 1) for i in range(d) for j in range(d)
                  if i != j and any(p[i] - p[j] >= 2 for p in current.trace)), None)
        if h is None:
            break
        before = total_difference(current)
        fire(h)
        if total_difference(current) >= before:  # else stage 1 never ends
            raise ReductionInvariantError(
                f"firing x[{h.i}] = x[{h.j}] + 1 did not lower the total difference")

    # stage 2: orient within the region, largest coordinate first
    for pivot in range(d - 1):
        for other in range(pivot + 1, d):
            fire(Hyperplane(other, pivot, 0))  # origin side: x[other] <= x[pivot]

    if (any(max(p) - min(p) > 1 for p in current.trace)
            or not current.trace >= staircase_path(N, d).trace):
        raise ReductionInvariantError("reduced path is off the staircase region")
    return chain
