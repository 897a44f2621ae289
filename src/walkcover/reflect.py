"""Reflection hyperplanes, arc decompositions, and path reduction.

A hyperplane here is always a locus ``x[i] = x[j] + offset`` for two
coordinate axes i != j.  Reflecting across it swaps the two coordinates
(shifted by the offset) and fixes the rest; it is an involution and an L1
isometry, so it maps nearest-neighbor paths to nearest-neighbor paths.

A path decomposes at its visits to the hyperplane into a prefix (before
the first visit) and a sequence of arcs, each starting at an on-plane
point with all later points strictly on one side.  Keeping or reflecting
each arc independently gives the path's equivalence class, represented
canonically by the member whose arcs all lie on the origin side.

``reduce_path`` drives a connecting path into the unit-width diagonal
region by repeatedly reflecting everything beyond a plane ``x[i] = x[j] +
1`` back toward the origin (each firing strictly decreases the total
difference), then orients the result with a fixed sweep of ``x[i] =
x[j]`` reflections so that its trace contains the staircase trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import sub

from .lattice import Path, Point, connects_origin_to_sphere, l1_norm, staircase_path


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


def canonical_representative(path: Path, h: Hyperplane) -> Path:
    """The unique member of the path's class with every arc on the origin
    side.

    The path splits at its visits to the plane into a prefix, which is
    never touched, and arcs, each running from one visit to just before
    the next.  A nearest-neighbor step moves the signed gap by at most 1,
    so an arc's later points all lie strictly on one side; the arcs on
    the far side are reflected, and the plane fixes their first point."""
    i, j, offset = h.i, h.j, h.offset
    far = -h.origin_sign()
    points = list(path.points)
    in_arc = reflected = False
    for n, p in enumerate(points):
        gap = p[i] - p[j] - offset
        if gap == 0:
            in_arc = True
        elif in_arc and gap * far > 0:
            reflected = True
            points[n] = reflect_point(p, h)
    if not reflected:  # every arc kept: the path is its own representative
        return path
    return Path(tuple(points))


def normalize_to_positive_orthant(path: Path) -> Path:
    """Flip the sign of every coordinate on which the endpoint is
    negative (a walk symmetry, so covering probabilities are unchanged)."""
    end = path.points[-1]
    flips = [-1 if c < 0 else 1 for c in end]
    return Path(tuple(tuple(f * c for f, c in zip(flips, p)) for p in path.points))


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
    if not connects_origin_to_sphere(path):
        raise NotConnectingError(
            "path must start at the origin and first attain its endpoint norm at the endpoint")
    if any(c < 0 for c in path.points[-1]):
        raise NotConnectingError("endpoint must lie in the closed positive orthant")
    d, N = path.dim, l1_norm(path.points[-1])
    chain: list[tuple[Hyperplane, Path]] = []
    current = path

    def fire(h: Hyperplane) -> None:
        nonlocal current
        new = canonical_representative(current, h)
        if new.points != current.points:
            chain.append((h, new))
            current = new

    # stage 1: pull everything inside the unit-width diagonal region
    while True:
        # the first plane (i, j, 1) in row-major order with a point beyond it
        axes = list(zip(*current.trace))
        h = next((Hyperplane(i, j, 1) for i in range(d) for j in range(d)
                  if i != j and max(map(sub, axes[i], axes[j])) >= 2), None)
        if h is None:
            break
        before = current.total_difference
        fire(h)
        if current.total_difference >= before:  # else stage 1 never ends
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
