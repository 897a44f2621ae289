"""Exact covering probabilities by an integer transfer DP over walks.

Every probability here is a rational number ``favorable / (2d)^L``
computed exactly.  The favorable counts of many targets come from one
forward pass over the L steps of the walk (``_favorable_counts``).  Its
layer array holds, for every requirement state of every target and every
live cell, the number of walk prefixes that sit in that cell with that
many visits still outstanding per target point:

* a requirement state is a mixed-radix index over the outstanding visits
  per target point (``lattice.outstanding_visits``: time 0 counts as a
  visit to the origin); the targets' states are stacked on one row axis;
* the live cells at step t are those of L1 norm <= min(t, reach + L - t)
  whose norm has the parity of t, reach being the largest target norm:
  beyond that no unmet walk can still reach a target point in time, so
  dropping them is exact;
* a step gathers each cell's 2d neighbours from the previous layer
  through index tables of the ball, a zero ghost cell standing in for
  neighbours outside it, and at each target cell moves mass from state
  r to r - e_i when r_i > 0, for every target at once;
* mass that reaches a target's all-met state leaves the array for its
  count, which is multiplied by 2d at every later step.

Counts are int64 while (2d)^L fits, and Python integers beyond.  The
budget bounds each target's L x states x the cells of the box of radius
(L + reach)//2 + 1 around the ball, an upper bound on its work, before
the ball is built, and then the live cells of all steps x the states of
all targets, the work of the whole call.

On top of the counter sit the theorem-shaped routines: counting a
target-set pair against its reflected twin, the exhaustive
reflection-monotonicity sweep over small set pairs (bit-parallel over
all walks, independent of the DP), and the ranked table of covering
probabilities over short connecting paths (staircase maximality), one
path per orbit of the walk's symmetries, each in a normal form that the
enumeration builds directly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

from .lattice import CoverTarget, Point, outstanding_visits, staircase_path
from .reflect import Hyperplane, reflect_point

#: DP work allowed by default: L x requirement states x box cells.
DEFAULT_BUDGET = 10**9

#: Largest walk count (2d)^L the DP holds in int64; every entry of its
#: array, and the count of walks already done, is at most (2d)^L.
INT64_MAX_WALKS = 2**63 - 1

#: Elements one DP layer array may hold, (cells + 1) x (rows + 1); the
#: targets of one call are grouped under it.
_GROUP_ELEMENTS = 2**16

#: Work allowed in one reflection sweep: (2d)^L * L steps build the walk
#: masks of length L, and each case costs one unit to form plus, at each
#: L, ceil((2d)^L / 64) mask words.  Criterion 6's size (radius 2, sets of
#: size 2, L <= 6) is 2.6e6 units; L <= 7 is 1.0e7.
MAX_SWEEP_WORK = 2**24


class BudgetExceededError(ValueError):
    """DP work beyond the budget, or a sweep beyond its work guard."""


class SideViolationError(ValueError):
    """Input set crosses the reflection hyperplane."""


@dataclass(frozen=True)
class ExactResult:
    """Exact count of covering walks among all (2d)^L step sequences."""

    favorable: int
    total: int

    def __post_init__(self):
        if not 0 <= self.favorable <= self.total:
            raise ValueError("favorable count outside [0, total]")

    @property
    def probability(self) -> Fraction:
        return Fraction(self.favorable, self.total)


def _box_radius(L: int, reach: int) -> int:
    return (L + reach) // 2 + 1


def _check_budget(d: int, L: int, states: int, reach: int, budget: int) -> None:
    """Raise unless the DP's work, L x states x box cells, fits `budget`;
    `reach` is the largest L1 norm among the target points.  L counts as
    at least 1, since the DP allocates states x cells even at L = 0.
    Bit lengths refuse astronomically large work before any big product
    is formed: a positive n is at least 2^(n.bit_length() - 1)."""
    steps, cells = max(L, 1), 2 * _box_radius(L, reach) + 1
    floor_bits = (steps.bit_length() + states.bit_length() - 2
                  + d * (cells.bit_length() - 1))
    if floor_bits >= budget.bit_length() or steps * states * cells**d > budget:
        raise BudgetExceededError(
            f"DP work L x states x box cells exceeds the budget of {budget}")


def _live_sizes(d: int, L: int, reach: int) -> list[int]:
    """The live cells of each step t = 0..L: those of L1 norm
    <= min(t, reach + L - t) whose norm has the parity of t."""
    shell = [1] + [0] * ((L + reach) // 2)  # cells of each norm, axis by axis
    for _ in range(d):
        shell = [s + 2 * b for s, b in zip(shell, itertools.accumulate(shell, initial=0))]
    return [sum(shell[t % 2:min(t, reach + L - t) + 1:2]) for t in range(L + 1)]


def _check_live_work(live: int, states: int, budget: int) -> None:
    """Raise unless live cells of every step x states of every target fit."""
    if live * states > budget:
        raise BudgetExceededError(
            f"DP work, live cells x states over all targets, exceeds the budget of {budget}")


def _ball(d: int, M: int) -> tuple[list, list]:
    """The cells of the L1 ball of radius M in two classes by the parity
    of |x|_1, each ordered by norm.  Per class p: ``cells[p]`` lists them,
    and ``neighbours[p]`` is a (2d, size) int32 table of each cell's
    neighbours as indices into the other class, that class's size
    standing for a cell outside the ball.

    Neighbours are found by search: a cell's code weighs coordinate a by
    (2M + 1)^(d - 1 - a), so the codes of the cells in lexicographic order
    are sorted, and a unit step along axis a moves the code by that weight.
    The codes are Python integers once (2M + 1)^d passes int64."""
    values = np.arange(-M, M + 1)
    cells, norm = np.zeros((1, 0), dtype=np.intp), np.zeros(1, dtype=np.intp)
    for _ in range(d):  # lexicographic order
        grown = norm[:, None] + np.abs(values)
        rows, cols = np.nonzero(grown <= M)
        cells = np.column_stack([cells[rows], values[cols]])
        norm = grown[rows, cols]
    weights = np.array([(2 * M + 1) ** (d - 1 - a) for a in range(d)],
                       dtype=np.int64 if (2 * M + 1) ** d < 2**63 else object)
    codes = (cells * weights).sum(axis=1)
    # shell M + 1 is empty, so that each class has a shell even when M = 0
    shells = [np.flatnonzero(norm == r) for r in range(M + 2)]
    members = [np.concatenate(shells[parity::2]) for parity in (0, 1)]
    position = np.empty(len(cells), dtype=np.int32)
    for member in members:
        position[member] = np.arange(len(member))
    neighbours = []
    for parity, member in enumerate(members):
        table = np.full((2 * d, len(member)), len(members[1 - parity]), dtype=np.int32)
        for k, (axis, sign) in enumerate(itertools.product(range(d), (1, -1))):
            moved = cells[member]
            moved[:, axis] += sign
            inside = np.flatnonzero(np.abs(moved).sum(axis=1) <= M)
            found = np.searchsorted(codes, codes[member[inside]] + sign * weights[axis])
            table[k, inside] = position[found]
        neighbours.append(table)
    return [cells[member] for member in members], neighbours


def _group_counts(d: int, L: int, group: list, sizes: list[int], cells: list,
                  neighbours: list) -> list[int]:
    """One DP pass for a group of ``(index, points, radices)`` targets,
    whose requirement states are stacked on the row axis.

    Row ``offset + m - 1`` holds a target's state of mixed-radix index m
    (the index of its outstanding visits per point); m = 0, all met, is
    not stored, since mass that reaches it goes to ``done``.  Layer t
    holds the cells of ``sizes[t]`` in parity class t % 2, plus one zero
    ghost row for neighbours outside the layer, and one zero ghost column
    for visit moves from no state."""
    sides = 2 * d
    dtype = np.int64 if sides**L <= INT64_MAX_WALKS else object
    offsets = np.cumsum([0] + [math.prod(radices) - 1 for _, _, radices in group])
    ghost = int(offsets[-1])
    cur = np.zeros((max(sizes) + 1, ghost + 1), dtype=dtype)
    nxt, tmp = np.zeros_like(cur), np.zeros_like(cur)
    # per target cell: the targets that own it, the row of each one's state
    # with only this visit outstanding, and the rows each visit move writes
    # and the two rows it reads
    moves: dict[Point, list[tuple]] = {}
    for k, ((_, points, radices), offset) in enumerate(zip(group, offsets)):
        stride = math.prod(radices)
        m = np.arange(1, stride)
        cur[0, offset + stride - 2] = 1
        for p, q in zip(points, radices):
            stride //= q
            digit, row = m // stride % q, offset + m - 1
            moves.setdefault(p, []).append((
                [k], [offset + stride - 1], row,
                np.where(digit < q - 1, row + stride, ghost),
                np.where(digit == 0, row, ghost)))
    updates: list[list] = [[], []]
    for point, parts in moves.items():
        parity = sum(map(abs, point)) % 2
        index = np.flatnonzero((cells[parity] == point).all(axis=1))[0]
        updates[parity].append((index, *map(np.concatenate, zip(*parts))))
    done = np.zeros(len(group), dtype=dtype)
    for t in range(1, L + 1):
        n0, n1 = sizes[t - 1], sizes[t]
        index = np.minimum(neighbours[t % 2][:, :n1], n0)
        layer, out, spare = cur[:n0 + 1], nxt[:n1], tmp[:n1]
        np.take(layer, index[0], axis=0, out=out, mode="clip")
        for column in index[1:]:
            np.take(layer, column, axis=0, out=spare, mode="clip")
            out += spare
        nxt[n1] = 0
        done *= sides
        for cell, owners, met, dst, src, stay in updates[t % 2]:
            if cell < n1:
                x = nxt[cell]
                done[owners] += x[met]
                x[dst] = x[src] + x[stay]
        cur, nxt = nxt, cur
    return done.tolist()


def _favorable_counts(d: int, L: int, required_list: Sequence[dict[Point, int]],
                      budget: int = DEFAULT_BUDGET) -> list[int]:
    """For each mapping in ``required_list``, of points of Z^d to the
    visits each needs, the walks of length L from the origin that make
    them all; time 0 counts as a visit to the origin (see
    ``lattice.outstanding_visits``).  L < 0 and points of another
    dimension are refused.

    Walks reach norm <= t by step t, and an unmet walk at norm beyond
    reach + L - t can no longer reach a target point in time, so step t
    tracks only the cells of norm <= min(t, reach + L - t) whose norm has
    the parity of t, reach being the largest over the targets.  Targets
    are grouped in order so that one layer array holds at most
    ``_GROUP_ELEMENTS`` elements, and each group runs one pass."""
    if L < 0:
        raise ValueError("L must be >= 0")
    sides = 2 * d
    counts, targets, reach = [], [], 0
    for k, required in enumerate(required_list):
        for p in required:
            if len(p) != d:
                raise ValueError(f"point {p} has dimension {len(p)}, not d = {d}")
        owed = outstanding_visits(required)
        points = sorted(owed)
        radices = [owed[p] + 1 for p in points]
        norm = max((sum(map(abs, p)) for p in points), default=0)
        _check_budget(d, L, math.prod(radices), norm, budget)
        counts.append(0 if norm > L else sides**L)
        if points and norm <= L:
            targets.append((k, points, radices))
            reach = max(reach, norm)
    if not targets:
        return counts
    sizes = _live_sizes(d, L, reach)
    _check_live_work(sum(sizes[1:]), sum(math.prod(radices) - 1 for _, _, radices in targets),
                     budget)
    cells, neighbours = _ball(d, (L + reach) // 2)
    width, groups, rows = max(sizes) + 1, [], 0
    for target in targets:
        states = math.prod(target[2]) - 1
        if groups and width * (rows + states + 1) <= _GROUP_ELEMENTS:
            groups[-1].append(target)
            rows += states
        else:
            groups.append([target])
            rows = states
    for group in groups:
        for (k, _, _), n in zip(group, _group_counts(d, L, group, sizes, cells, neighbours)):
            counts[k] = n
    return counts


def exact_cover_probability(target: CoverTarget, d: int, L: int,
                            budget: int = DEFAULT_BUDGET) -> ExactResult:
    """Exact probability that the first L steps of the d-dimensional
    simple walk meet every visit requirement of the target."""
    return ExactResult(_favorable_counts(d, L, [target.visits], budget)[0], (2 * d) ** L)


def _check_plane(h: Hyperplane, d: int) -> None:
    """Refuse a hyperplane that names an axis outside the d axes."""
    if max(h.i, h.j) >= d:
        raise ValueError(f"hyperplane axis {max(h.i, h.j)} >= d = {d}")


def count_reflected_pair(A0: Iterable[Point], B0: Iterable[Point], h: Hyperplane,
                         d: int, L: int) -> tuple[int, int]:
    """Counts of walks covering ``A0 | B0`` versus ``A0 | reflect(B0)``.

    Both input sets must sit on the origin side of the hyperplane; with
    everything reflected away from the origin the first count can only be
    larger or equal.
    """
    A0, B0 = frozenset(A0), frozenset(B0)
    if A0 & B0:
        raise ValueError("A0 and B0 must be disjoint")
    _check_plane(h, d)
    for p in A0 | B0:
        if not h.on_origin_side(p):
            raise SideViolationError(f"{p} crosses the hyperplane")
    mirrored = frozenset(reflect_point(p, h) for p in B0)
    return tuple(_favorable_counts(d, L, [dict.fromkeys(s, 1) for s in (A0 | B0, A0 | mirrored)]))


# ---------------------------------------------------------------------------
# exhaustive reflection-monotonicity sweep (bit-parallel over all walks)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReflectionSweepReport:
    cases: int
    violations: tuple[tuple, ...]


def _walk_cover_masks(d: int, L: int, points: Sequence[Point]) -> np.ndarray:
    """Row k holds one bit per walk, as little-endian uint64 words: bit w
    is set iff walk number w (of the (2d)^L walks, numbered in
    lexicographic step order) visits points[k]."""
    sides, walks = 2 * d, (2 * d) ** L
    base = 2 * L + 1
    # position code: sum over axes of (x_a + L) * base^a; step 2a moves +e_a
    delta = np.array([sg * base**ax for ax in range(d) for sg in (1, -1)])
    w = np.arange(walks)
    codes = np.empty((walks, L + 1), dtype=np.int64)
    codes[:, 0] = L * sum(base**ax for ax in range(d))
    for t in range(L):
        codes[:, t + 1] = codes[:, t] + delta[w // sides ** (L - 1 - t) % sides]
    hits = np.zeros((len(points), -(-walks // 64) * 64), dtype=bool)
    for k, p in enumerate(points):
        if sum(map(abs, p)) <= L:
            code = sum((c + L) * base**ax for ax, c in enumerate(p))
            hits[k, :walks] = (codes == code).any(axis=1)
    return np.packbits(hits, axis=1, bitorder="little").view("<u8")


def _check_sweep_work(d: int, points: int, max_set_size: int, L: int) -> None:
    """Raise ``BudgetExceededError`` unless the sweep over pairs of sets
    drawn from `points` origin-side points, at the walk lengths 1..L, fits
    ``MAX_SWEEP_WORK``."""
    steps, words, cases = 0, 1, 0
    for length in range(1, L + 1):
        steps += (2 * d) ** length * length
        words += -(-(2 * d) ** length // 64)
        if steps + words > MAX_SWEEP_WORK:
            break
    for a, b in itertools.product(range(min(max_set_size, points) + 1), repeat=2):
        cases += math.comb(points, a) * math.comb(points - a, b)
        if steps + cases * words > MAX_SWEEP_WORK:
            raise BudgetExceededError(
                f"sweep over at least {points} origin-side points exceeds the "
                f"enumeration guard of {MAX_SWEEP_WORK} work units")


def _sweep_cases(n: int, max_set_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Every pair of disjoint index sets A0, B0 of size <= max_set_size
    drawn from range(n), in sweep order, as two tables of mask rows:
    A0 then B0, and A0 then the mirrors n + B0, each padded with row 2n
    (the origin, which every walk visits)."""
    pad = 2 * n
    dtype = np.min_scalar_type(pad)
    combos = []
    for size in range(max_set_size + 1):
        c = np.array(list(itertools.combinations(range(n), size)), dtype=dtype)
        padded = np.full((len(c), max_set_size), pad, dtype=dtype)
        padded[:, :size] = c.reshape(len(c), size)
        combos.append(padded)
    a_rows, b_rows = [], []
    for a in np.concatenate(combos):
        for b in combos:
            b = b[~np.isin(b, a[a < n]).any(axis=1)]
            a_rows.append(np.broadcast_to(a, b.shape))
            b_rows.append(b)
    a_idx, b_idx = np.concatenate(a_rows), np.concatenate(b_rows)
    return (np.hstack([a_idx, b_idx]),
            np.hstack([a_idx, np.where(b_idx == pad, pad, b_idx + n)]))


def _covered_counts(masks: np.ndarray, cases: np.ndarray, counts: np.ndarray) -> None:
    """Walks visiting every point of each case, into `counts`: the AND of
    the mask rows that row c of `cases` names, popcounted, in blocks of
    about 2^15 words (512 cases at L = 6)."""
    block = max(1, 2**15 // masks.shape[1])
    for lo in range(0, len(cases), block):
        rows = cases[lo:lo + block]
        acc = masks[rows[:, 0]]
        for col in rows.T[1:]:
            acc &= masks[col]
        counts[lo:lo + len(rows)] = np.bitwise_count(acc).sum(axis=1)


def reflection_monotonicity_sweep(h: Hyperplane = Hyperplane(0, 1, 1), radius: int = 2,
                                  max_set_size: int = 2, L: int = 6) -> ReflectionSweepReport:
    """Exhaustively compare covering counts, at d = 2 and every walk length
    1..L, for every disjoint pair of origin-side sets (up to the given size,
    inside the sup-norm box) against the pair with the second set
    reflected.  Any case where the reflected pair is covered by strictly
    more walks is a violation."""
    d = 2
    if max_set_size < 1 or radius < 0:
        raise ValueError("need max_set_size >= 1 and radius >= 0")
    _check_plane(h, d)
    # the origin side holds at least half the box: it contains x_i <= x_j or x_i >= x_j
    _check_sweep_work(d, ((2 * radius + 1) ** d + 1) // 2, max_set_size, L)
    if L < 1:
        raise ValueError(f"need walk lengths >= 1, got L = {L}")
    box = [p for p in itertools.product(range(-radius, radius + 1), repeat=d)]
    origin_side = [p for p in box if h.on_origin_side(p)]
    n = len(origin_side)
    _check_sweep_work(d, n, max_set_size, L)
    # mask rows: the origin-side points, their mirrors, then the origin
    rows = origin_side + [reflect_point(p, h) for p in origin_side] + [(0,) * d]
    original, reflected = _sweep_cases(n, max_set_size)
    c1, c2 = np.empty((2, len(original)), dtype=np.int64)
    violations = []
    for length in range(1, L + 1):
        masks = _walk_cover_masks(d, length, rows)
        _covered_counts(masks, original, c1)
        _covered_counts(masks, reflected, c2)
        for v in np.flatnonzero(c1 < c2):
            a, b = original[v, :max_set_size], original[v, max_set_size:]
            violations.append((length, tuple(sorted(origin_side[i] for i in a if i < n)),
                               tuple(origin_side[i] for i in b if i < n),
                               int(c1[v]), int(c2[v])))
    return ReflectionSweepReport(len(original) * L, tuple(violations))


# ---------------------------------------------------------------------------
# staircase maximality ranking
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RankedPath:
    """A connecting path in normal form, its orbit's size under the walk's
    symmetries, and how many of the (2d)^L walks cover its trace."""

    points: tuple[Point, ...]
    orbit: int
    favorable: int
    is_staircase: bool


@dataclass(frozen=True)
class StaircaseReport:
    """Ranked covering probabilities of the paths from 0 to the L1 sphere
    of radius N using at most ``cap`` steps, one row per orbit of the
    walk's symmetries, the most probable first; the orbits' sizes sum to
    the number of paths.  ``staircase_is_max`` says whether the
    staircase's count is the largest.

    The underlying claim quantifies over connecting paths of *any*
    length; the cap bounds only this enumeration.
    """

    rows: tuple[RankedPath, ...]
    staircase_is_max: bool


def connecting_path_orbits(N: int, d: int, cap: int) -> Iterator[tuple[tuple[Point, ...], int]]:
    """The nearest-neighbour paths from 0 that first reach L1 norm N at
    their final point, using at most ``cap`` steps, one per orbit of the
    walk's d!·2^d symmetries, in depth-first order, each with its orbit
    size.

    The member given is the normal form: axes are first used in the order
    0, 1, 2, ..., and each first moves in the + direction.  A path using k
    axes has d!/(d - k)!·2^k distinct images."""
    path = [(0,) * d]

    def extend(norm: int, k: int):
        if norm == N:
            yield tuple(path), math.perm(d, k) * 2**k
            return
        if len(path) + N - norm > cap + 1:
            return
        last = path[-1]
        # the k axes in use move both ways; the next one, if any, moves +
        for ax, sg in [(ax, sg) for ax in range(k) for sg in (1, -1)] + [(k, 1)] * (k < d):
            nxt = list(last)
            c = nxt[ax]
            nxt[ax] = c + sg
            path.append(tuple(nxt))
            # the norm falls by 1 on a step toward 0
            yield from extend(norm + 1 if c * sg >= 0 else norm - 1, max(k, ax + 1))
            path.pop()

    if cap >= N:
        yield from extend(0, 0)


def verify_staircase_max(N: int, d: int, L: int, cap: int,
                         budget: int = DEFAULT_BUDGET) -> StaircaseReport:
    """Rank every connecting path (up to ``cap`` steps) by its exact
    covering probability within L walk steps.  Covering probability
    depends on the path only through its trace, and is invariant under
    the walk symmetries, so one path per orbit is ranked, and each
    distinct trace among them is counted once."""
    if d < 1 or not 1 <= N <= min(cap, L):
        raise ValueError("need d >= 1 and 1 <= N <= min(cap, L)")
    # a trace holds at most cap points besides the origin, all of norm <= N;
    # a cap past the budget's bit length is refused alike, without forming 2^cap
    _check_budget(d, L, 1 << min(cap, budget.bit_length()), N, budget)
    # every trace reaches norm N, so the live cells are known before the enumeration
    live, states, paths, required = sum(_live_sizes(d, L, N)[1:]), 0, [], {}
    for points, orbit in connecting_path_orbits(N, d, cap):
        paths.append((points, orbit))
        trace = frozenset(points)
        if trace not in required:
            required[trace] = dict.fromkeys(trace, 1)
            states += 2 ** len(outstanding_visits(required[trace])) - 1
            _check_live_work(live, states, budget)
    count_of = dict(zip(required, _favorable_counts(d, L, list(required.values()), budget)))
    # every count shares the denominator (2d)^L, so the counts rank the rows:
    # by count, most first, then by points
    ranked = sorted((-count_of[frozenset(points)], points, orbit) for points, orbit in paths)
    stair_points = staircase_path(N, d).points
    stair_count = count_of[frozenset(stair_points)]
    rows = tuple(RankedPath(points, orbit, -n, points == stair_points)
                 for n, points, orbit in ranked)
    return StaircaseReport(rows, stair_count == rows[0].favorable)
