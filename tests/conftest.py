"""Shared fixtures and independent brute-force oracles.

The oracles here re-derive expected values by direct enumeration over all
step sequences, deliberately sharing no code with the package's own
counting paths.
"""

from __future__ import annotations

import itertools

import pytest

from walkcover.lattice import Path, Point, validate_path


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
