"""Shared fixtures and independent brute-force oracles.

The oracles here re-derive expected values by direct enumeration over all
step sequences, deliberately sharing no code with the package's own
counting paths.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import pytest

from walkcover.lattice import Path, Point, validate_path
from walkcover.reflect import Hyperplane, reflect_point


def unit_vector(d: int, axis: int, sign: int = 1) -> Point:
    e = [0] * d
    e[axis] = sign
    return tuple(e)


def l1_distance(p: Point, q: Point) -> int:
    return sum(abs(a - b) for a, b in zip(p, q))


def all_step_sequences(d: int, L: int):
    """Every length-L step sequence of the d-dimensional walk, as lists
    of unit-step vectors."""
    steps = []
    for axis in range(d):
        for sign in (1, -1):
            e = [0] * d
            e[axis] = sign
            steps.append(tuple(e))
    return itertools.product(steps, repeat=L)


def walk_points(seq, d: int):
    """Points visited by a step sequence, starting at the origin."""
    pos = tuple([0] * d)
    pts = [pos]
    for s in seq:
        pos = tuple(a + b for a, b in zip(pos, s))
        pts.append(pos)
    return pts


def straight_path(N: int, d: int) -> Path:
    """N+1 points marching along coordinate 1."""
    if N < 1 or d < 1:
        raise ValueError("need N >= 1 and d >= 1")
    return Path(tuple(tuple([n] + [0] * (d - 1)) for n in range(N + 1)))


def brute_force_cover_count(d: int, L: int, needed: dict[Point, int]) -> int:
    """Walks of length L meeting every visit requirement, by trying all
    (2d)^L of them; the time-0 position counts as a visit."""
    favorable = 0
    for seq in all_step_sequences(d, L):
        counts = {p: 0 for p in needed}
        for q in walk_points(seq, d):
            if q in counts:
                counts[q] += 1
        if all(counts[p] >= k for p, k in needed.items()):
            favorable += 1
    return favorable


def random_walk_path(rng, d: int, steps: int) -> Path:
    """A random valid nearest-neighbor path (the walk itself)."""
    pos = [0] * d
    pts = [tuple(pos)]
    for _ in range(steps):
        axis = int(rng.integers(d))
        pos[axis] += 1 if rng.integers(2) else -1
        pts.append(tuple(pos))
    return validate_path(pts)


@pytest.fixture(scope="session")
def monotone_paths_d3():
    """The five symmetry classes of monotone length-3 paths from the
    origin in Z^3 (straight first, diagonal-hugging last)."""
    return [
        validate_path([(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0)]),
        validate_path([(0, 0, 0), (1, 0, 0), (2, 0, 0), (2, 1, 0)]),
        validate_path([(0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 2, 0)]),
        validate_path([(0, 0, 0), (1, 0, 0), (1, 1, 0), (2, 1, 0)]),
        validate_path([(0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1)]),
    ]


# ---------------------------------------------------------------------------
# the arc-decomposition route: the reference for reflect.canonical_representative
# ---------------------------------------------------------------------------

class SignVectorTooShortError(ValueError):
    """Fewer signs than arcs."""


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
    visits = [n for n, p in enumerate(path.points) if h.signed_gap(p) == 0]
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


def arc_representative(path: Path, h: Hyperplane) -> tuple[Path, tuple[int, ...]]:
    """The canonical representative by the arc route: each arc whose
    points are all on the origin side keeps (+1), any other reflects (-1)."""
    dec = arc_decompose(path, h)
    signs = tuple(1 if all(map(h.on_origin_side, arc)) else -1 for arc in dec.arcs)
    return apply_configuration(path, h, signs), signs
