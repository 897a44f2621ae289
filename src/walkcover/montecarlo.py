"""Monte Carlo estimation of covering probabilities.

Walks run in tiles of ``DEFAULT_BATCH``, in walk order on the calling
thread or on up to ``threads`` workers (at most one per tile and per
usable CPU).  Each walk draws from its own counter-based stream (see
:mod:`walkcover.rng`), so results depend on ``(config, seed)`` alone.
Positions are packed into int64 keys.  A walk moves one stream value, k
steps, per table lookup, about ``DEFAULT_CHUNK`` steps per window; only
values that start within L1 distance k of the targets' box, and a
partial last value, are replayed step by step to count visits.

Success accounting is per walk: every walk counts its visits to each
target point, and it covers a target once no point of that target is
owed a visit (``CoverTarget.outstanding``: time 0 counts as a visit to
the origin).  Success is absorbing, so a walk that has covered every
target retires without changing any count; walks that still owe visits
run to the step budget.  The tiles' success rows reduce to joint success
counts (per-target counts on the diagonal).
Estimates carry the binomial standard error and a Wilson 95% interval.

Truncating at L estimates a lower bound on the L = infinity covering
probability; the infinite-horizon quantities themselves are computed
exactly by the Green's-function modules, not here.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .lattice import CoverTarget, Point
from .rng import check_seed, steps_per_value, value_digits, walk_directions, walk_values

DEFAULT_BATCH = 1024
DEFAULT_CHUNK = 336


@dataclass(frozen=True)
class SimConfig:
    """Simulation parameters; identical configs (seed included) give
    identical successes."""

    d: int
    L: int
    n_walks: int
    seed: int
    threads: int = 1

    def __post_init__(self):
        if self.d < 1 or self.n_walks < 1 or self.L < 0 or self.threads < 1:
            raise ValueError("need d >= 1, n_walks >= 1, L >= 0, threads >= 1")
        check_seed(self.seed)


@dataclass(frozen=True)
class Estimate:
    """Bernoulli estimate with Wilson 95% interval."""

    successes: int
    n: int
    p_hat: float = field(init=False)
    stderr: float = field(init=False)
    ci95: tuple[float, float] = field(init=False)

    def __post_init__(self):
        p = self.successes / self.n
        object.__setattr__(self, "p_hat", p)
        object.__setattr__(self, "stderr", math.sqrt(p * (1 - p) / self.n))
        object.__setattr__(self, "ci95", _wilson(self.successes, self.n))


def _wilson(k: int, n: int, z: float = 1.959963984540054) -> tuple[float, float]:
    p = k / n
    denom = 1 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    # the interval provably contains p; min/max repair float rounding at 0, 1
    return (max(0.0, min(center - half, p)), min(1.0, max(center + half, p)))


def _pack_bits(d: int, L: int) -> int:
    """Bits per coordinate so any position reachable in L steps packs
    into a signed 64-bit key; 0 when packing is impossible."""
    need = max(2, (2 * L + 3).bit_length())
    return need if need * d <= 62 else 0


class _PackedTargets:
    """Targets, steps and k-step displacements in packed-key space."""

    def __init__(self, d: int, L: int, points: Sequence[Point]):
        bits = _pack_bits(d, L)
        if not bits:
            raise ValueError(f"d={d}, L={L} exceeds the packed-coordinate range")
        base = 1 << bits
        offset = base >> 1
        weights = [base**i for i in range(d)]
        self.origin_key = sum(offset * w for w in weights)
        # reachable keys are positive (offset > L + 1); unreachable points get negative ones
        point_keys = np.array(
            [sum((c + offset) * w for c, w in zip(p, weights))
             if sum(map(abs, p)) <= L else -1 - i for i, p in enumerate(points)],
            dtype=np.int64)
        self.step_keys = np.array([s * w for w in weights for s in (1, -1)], dtype=np.int64)
        self._order = np.argsort(point_keys)
        self._sorted = point_keys[self._order]
        self._span = np.uint64(self._sorted[-1] - self._sorted[0])
        # the box of the reachable points (any box serves when there are
        # none) as 2 * centre and width per axis, in packed coordinates
        box = np.array([p for p, key in zip(points, point_keys) if key >= 0] or [(0,) * d]).T
        self._box = (box.min(1, keepdims=True) + box.max(1, keepdims=True) + 2 * offset,
                     np.ptp(box, 1, keepdims=True))
        self._shifts, self._mask = bits * np.arange(d, dtype=np.int64)[:, None], np.int64(base - 1)
        # displacement of a k-step string, summed over parts of at most
        # 2**16 strings each; the top part's missing digits read as step 0
        self.k = steps_per_value(2 * d)
        m = max(j for j in range(1, self.k + 1) if (2 * d) ** j <= 1 << 16)
        self._parts, self._base = -(-self.k // m), (2 * d) ** m
        self._table = self.step_keys[value_digits(np.arange(self._base), 2 * d, m)].sum(1)
        self._pad = (self._parts * m - self.k) * self.step_keys[0]

    def displacement(self, q: np.ndarray) -> np.ndarray:
        """Packed displacement of each k-step string of :func:`walk_values`."""
        disp = -self._pad
        for _ in range(self._parts - 1):
            q, part = np.divmod(q, self._base)
            disp = disp + np.take(self._table, part)
        return disp + np.take(self._table, q)

    def near(self, keys: np.ndarray) -> np.ndarray:
        """Flat indices of the ``keys`` within L1 distance k of the reachable points' box."""
        # twice each coordinate's distance outside the box, in place
        outside = 2 * ((keys.ravel() >> self._shifts) & self._mask) - self._box[0]
        np.abs(outside, out=outside)
        outside -= self._box[1]
        return np.flatnonzero(np.maximum(outside, 0, out=outside).sum(axis=0) <= 2 * self.k)

    def trajectories(self, pos: np.ndarray, incr: np.ndarray) -> np.ndarray:
        """(n, C) packed positions after each of the packed increments
        ``incr`` (n, C) of walks starting at ``pos`` (n,)."""
        n, C = incr.shape
        # one cumulative sum over the whole tile keeps the operation large;
        # it may wrap modulo 2**64, but each row's offsets from the row
        # before stay exact, since every true position fits in int64
        traj = np.cumsum(incr.ravel()).reshape(n, C)
        before = np.zeros(n, dtype=np.int64)
        before[1:] = traj[:-1, -1]
        traj += (pos - before)[:, None]
        return traj

    def hits(self, traj: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(row, point) index pairs, one per position of ``traj`` that is a
        target point."""
        flat = traj.ravel()
        # a single range test leaves the few positions near the targets
        near = np.flatnonzero((flat - self._sorted[0]).view(np.uint64) <= self._span)
        keys = flat[near]
        at = np.minimum(np.searchsorted(self._sorted, keys), len(self._sorted) - 1)
        hit = self._sorted[at] == keys
        return near[hit] // traj.shape[1], self._order[at[hit]]


def _build_requirements(cfg: SimConfig, targets: Sequence[CoverTarget]
                        ) -> tuple[_PackedTargets, np.ndarray]:
    """Union the target points and tabulate the visits each (target,
    point) still needs after the walk's time-0 position is credited."""
    for t in targets:
        if t.dim != cfg.d:
            raise ValueError(f"target dimension {t.dim} != configured d={cfg.d}")
    union: list[Point] = sorted({p for t in targets for p in t.trace})
    owed = [t.outstanding() for t in targets]
    needed = np.array([[o.get(p, 0) for p in union] for o in owed], dtype=np.int64)
    return _PackedTargets(cfg.d, cfg.L, union), needed


def _tile(cfg: SimConfig, pts: _PackedTargets, needed: np.ndarray,
          lo: int, hi: int) -> np.ndarray:
    """(hi - lo, n_targets) success indicators of walks [lo, hi)."""
    ids = np.arange(lo, hi, dtype=np.uint64)
    ok = np.zeros((hi - lo, needed.shape[0]), dtype=bool)
    live = np.arange(hi - lo)  # rows of ``ok`` still walking
    pos = np.full(hi - lo, pts.origin_key, dtype=np.int64)
    visits = np.zeros((hi - lo, needed.shape[1]), dtype=np.int64)
    nsides, k = 2 * cfg.d, pts.k
    step0 = 0
    while True:
        covered = (visits[:, None, :] >= needed).all(axis=2)
        ok[live] = covered
        walking = ~covered.all(axis=1)
        live, pos, visits = live[walking], pos[walking], visits[walking]
        if step0 >= cfg.L or not len(live):
            return ok
        if cfg.L - step0 < k:  # the partial last value, step by step
            dirs = walk_directions(cfg.seed, ids[live], step0, cfg.L - step0, nsides)
            np.add.at(visits, pts.hits(pts.trajectories(pos, np.take(pts.step_keys, dirs))), 1)
            step0 = cfg.L
            continue
        W = min(max(1, DEFAULT_CHUNK // k), (cfg.L - step0) // k)
        q = walk_values(cfg.seed, ids[live], step0 // k, W, nsides)
        ends = pts.trajectories(pos, pts.displacement(q))
        starts = np.concatenate((pos[:, None], ends[:, :-1]), axis=1)
        # replay the values that start near the targets, a tile's worth at a time
        near = pts.near(starts)
        for at in np.split(near, range(DEFAULT_BATCH, len(near), DEFAULT_BATCH)):
            steps = np.take(pts.step_keys, value_digits(q.ravel()[at], nsides, k))
            hit, points = pts.hits(pts.trajectories(starts.ravel()[at], steps))
            np.add.at(visits, (at[hit] // W, points), 1)
        pos = ends[:, -1].copy()
        step0 += W * k


def _tiles(cfg: SimConfig, targets: Sequence[CoverTarget]) -> Iterator[np.ndarray]:
    """Each tile's (walks, n_targets) success rows, in walk order, on at
    most one thread per tile and per usable CPU."""
    pts, needed = _build_requirements(cfg, targets)
    tile = lambda lo: _tile(cfg, pts, needed, lo, min(lo + DEFAULT_BATCH, cfg.n_walks))
    starts = range(0, cfg.n_walks, DEFAULT_BATCH)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(cfg.threads, len(starts), cpus or 1)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            yield from pool.map(tile, starts)
    else:
        yield from map(tile, starts)


def _simulate(cfg: SimConfig, targets: Sequence[CoverTarget]) -> np.ndarray:
    """Joint success counts over all walks (one pass, shared randomness
    across targets): ``joint[i, j]`` counts walks covering both target i
    and target j."""
    joint = np.zeros((len(targets),) * 2, dtype=np.int64)
    for ok in _tiles(cfg, targets):
        counts = ok.astype(np.int64)
        joint += counts.T @ counts
    return joint


def mc_cover_probability(target: CoverTarget, cfg: SimConfig) -> Estimate:
    """Unbiased estimate of the probability that the first L steps cover
    the target."""
    joint = _simulate(cfg, [target])
    return Estimate(int(joint[0, 0]), cfg.n_walks)


@dataclass(frozen=True)
class CompareResult:
    """Per-target estimates from a common-random-numbers run, with the
    joint success counts needed for paired errors."""

    estimates: tuple[Estimate, ...]
    joint: np.ndarray  # joint[i, j] = walks succeeding on both i and j
    n: int

    def paired_diff(self, i: int, j: int) -> tuple[float, float]:
        """(p_i - p_j, standard error of the paired difference).  The
        variance is formed in integers, n^2 var = n (s_i + s_j - 2 s_ij)
        - (s_i - s_j)^2, so it is never negative and is exactly 0 when
        targets i and j succeed on the same walks."""
        n = self.n
        si, sj = self.estimates[i].successes, self.estimates[j].successes
        sij = int(self.joint[i, j])
        n2_var = n * (si + sj - 2 * sij) - (si - sj) ** 2
        return (si - sj) / n, math.sqrt(n2_var / n**3)


def mc_compare(targets: Sequence[CoverTarget], cfg: SimConfig) -> CompareResult:
    """Estimate several targets on common random numbers: every target is
    evaluated on the same walks, so differences are paired."""
    if not targets:
        raise ValueError("no targets")
    joint = _simulate(cfg, targets)
    estimates = tuple(Estimate(int(joint[k, k]), cfg.n_walks)
                      for k in range(len(targets)))
    return CompareResult(estimates, joint, cfg.n_walks)
