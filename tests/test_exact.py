import functools
import itertools
import time
import tracemalloc
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np
import pytest

from conftest import (all_step_sequences, apply_configuration, arc_decompose,
                      brute_force_cover_count, random_walk_path, walk_points)
import walkcover.exact as ex
from walkcover.comb import ArcCollection, cover_count
from walkcover.exact import (BudgetExceededError, SideViolationError,
                             connecting_path_orbits, count_reflected_pair,
                             exact_cover_probability,
                             reflection_monotonicity_sweep, verify_staircase_max)
from walkcover.lattice import CoverTarget, Path, Point, staircase_path, validate_path
from walkcover.reflect import Hyperplane, canonical_representative, reflect_point

H21 = Hyperplane(0, 1, 1)
OYWZ = validate_path([(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)])
OYWZ_FAVORABLE_22 = 5_645_798_521_100_580


# Reference implementations kept from the Python-loop versions that the
# vectorised sweep masks and the normal-form path enumeration replaced.

def _reference_walk_cover_masks(d, L, points):
    """Bit w of masks[p] is set iff walk number w (of the (2d)^L walks)
    visits p; walks are numbered in lexicographic step order."""
    masks = {p: 0 for p in points}
    for w, seq in enumerate(all_step_sequences(d, L)):
        bit = 1 << w
        for p in set(walk_points(seq, d)):
            if p in masks:
                masks[p] |= bit
    return masks


def enumerate_connecting_paths(N, d, cap):
    """All nearest-neighbor paths from 0 that first reach L1 norm N at
    their final point, using at most ``cap`` steps, in depth-first order."""
    found = []
    path = [(0,) * d]
    moves = [(ax, sg) for ax in range(d) for sg in (1, -1)]

    def extend(norm):
        if norm == N:
            found.append(tuple(path))
            return
        if len(path) + N - norm > cap + 1:
            return
        last = path[-1]
        for ax, sg in moves:
            nxt = list(last)
            c = nxt[ax]
            nxt[ax] = c + sg
            path.append(tuple(nxt))
            extend(norm + 1 if c * sg >= 0 else norm - 1)  # -1: a step toward 0
            path.pop()

    if cap >= N:
        extend(0)
    return found


def _symmetry_images(points, d):
    """The images of a path under all d!·2^d coordinate permutations and
    per-axis sign flips."""
    return {tuple(tuple(f * p[a] for f, a in zip(flips, perm)) for p in points)
            for perm in itertools.permutations(range(d))
            for flips in itertools.product((1, -1), repeat=d)}


def _reference_sweep_violations(d, h, radius, max_set_size, lengths):
    """The sweep's violation tuples by one set-at-a-time loop over
    Python-integer masks."""
    box = list(itertools.product(range(-radius, radius + 1), repeat=d))
    origin_side = [p for p in box if h.on_origin_side(p)]
    relevant = set(origin_side) | {reflect_point(p, h) for p in origin_side}
    a_choices = [frozenset(c) for size in range(max_set_size + 1)
                 for c in itertools.combinations(origin_side, size)]
    violations = []
    for L in lengths:
        masks = _reference_walk_cover_masks(d, L, sorted(relevant))

        def covered(pts):
            m = (1 << (2 * d) ** L) - 1
            for p in pts:
                m &= masks[p]
            return m.bit_count()

        for A0 in a_choices:
            rest = [p for p in origin_side if p not in A0]
            for size in range(max_set_size + 1):
                for B0 in itertools.combinations(rest, size):
                    c1 = covered(A0 | set(B0))
                    c2 = covered(A0 | {reflect_point(p, h) for p in B0})
                    if c1 < c2:
                        violations.append((L, tuple(sorted(A0)), B0, c1, c2))
    return violations


class FarSide(Hyperplane):
    """A hyperplane whose "origin side" is the far side, so that the
    sweep reflects sets toward the origin and finds violations."""

    def on_origin_side(self, p):
        return self.signed_gap(p) == 0 or not super().on_origin_side(p)


class TestExactCoverProbability:
    def test_single_neighbor_one_step(self):
        r = exact_cover_probability(CoverTarget.from_points([(1, 0)]), 2, 1)
        assert r.probability == Fraction(1, 4)

    def test_origin_zero_steps(self):
        for d in (1, 2, 3):
            t = CoverTarget.from_points([tuple([0] * d)])
            assert exact_cover_probability(t, d, 0).probability == 1

    def test_origin_only_target_of_wrong_dimension(self):
        """The time-0 credit drops the origin from what is owed, so the
        dimension is checked before it."""
        with pytest.raises(ValueError, match="dimension 2, not d = 3"):
            exact_cover_probability(CoverTarget.from_points([(0, 0)]), 3, 2)

    def test_impossible_pair_d1(self):
        r = exact_cover_probability(CoverTarget.from_points([(1,), (-1,)]), 1, 2)
        assert r.favorable == 0 and r.total == 4

    def test_budget_guard(self):
        """The guard counts DP work (L x states x box cells) before the
        DP allocates anything."""
        t0 = time.monotonic()
        with pytest.raises(BudgetExceededError):
            exact_cover_probability(CoverTarget.from_points([(1, 0, 0)]), 3, 2000)
        assert time.monotonic() - t0 < 0.1

    def test_budget_guard_in_staircase_ranking(self):
        with pytest.raises(BudgetExceededError):
            verify_staircase_max(3, 3, 8, 5, budget=10**5)

    def test_budget_bounds_the_whole_ranking(self):
        """The budget bounds the live work of all targets together (about
        1.2e6 here), though each target's box work is under 10^6."""
        with pytest.raises(BudgetExceededError, match="all targets"):
            verify_staircase_max(3, 2, 9, 7, budget=10**6)
        assert verify_staircase_max(3, 2, 9, 7, budget=2 * 10**6).staircase_is_max

    def test_budget_refuses_during_the_enumeration(self, monkeypatch):
        """Each new trace adds its states to the live work, so the ranking
        is refused before the last of its 325 paths is drawn."""
        drawn = []
        orbits = ex.connecting_path_orbits

        def counted(*args):
            for item in orbits(*args):
                drawn.append(item)
                yield item

        monkeypatch.setattr(ex, "connecting_path_orbits", counted)
        with pytest.raises(BudgetExceededError, match="all targets"):
            verify_staircase_max(3, 2, 9, 7, budget=10**6)
        assert 0 < len(drawn) < 325

    def test_budget_guard_on_astronomical_work(self):
        """Work far past 4,300 decimal digits is refused as budget
        excess, without forming the product."""
        t0 = time.monotonic()
        with pytest.raises(BudgetExceededError, match="budget"):
            ex._check_budget(3, 10, 2**20000, 3, ex.DEFAULT_BUDGET)
        with pytest.raises(BudgetExceededError, match="budget"):
            ex._check_budget(3_000_000, 6, 1, 2, ex.DEFAULT_BUDGET)
        assert time.monotonic() - t0 < 0.1
        work = 10 * 2**4 * (2 * ex._box_radius(10, 3) + 1) ** 3
        ex._check_budget(3, 10, 2**4, 3, work)
        with pytest.raises(BudgetExceededError):
            ex._check_budget(3, 10, 2**4, 3, work - 1)

    @pytest.mark.parametrize("mode", ["trace", "repetitions"])
    def test_dp_matches_brute_force_d3(self, mode):
        rng = np.random.default_rng(400)
        revisits = [validate_path([(0, 0, 0), (1, 0, 0), (0, 0, 0), (1, 0, 0)]),
                    validate_path([(0, 0, 0), (0, 0, 1), (0, 0, 0), (0, -1, 0),
                                   (0, 0, 0)])]
        for L in range(5):
            paths = revisits + [random_walk_path(rng, 3, int(rng.integers(1, 5)))
                                for _ in range(4)]
            for p in paths:
                t = CoverTarget.of_path(p, mode)
                needed = {q: t.visits[q] for q in t.trace}
                expect = brute_force_cover_count(3, L, needed)
                assert exact_cover_probability(t, 3, L).favorable == expect, (p, L)

    def test_pinned_repetitions_count_l22(self):
        t = CoverTarget.of_path(OYWZ, "repetitions")
        assert exact_cover_probability(t, 3, 22).favorable == OYWZ_FAVORABLE_22

    def test_python_integer_fallback(self, monkeypatch):
        """With the int64 threshold lowered, the object-dtype path gives the
        same counts as the int64 path."""
        twice = CoverTarget.of_path(validate_path(
            [(0, 0, 0), (1, 0, 0), (0, 0, 0), (0, 1, 0), (0, 0, 0)]), "repetitions")
        oywz = CoverTarget.of_path(OYWZ, "repetitions")
        int64 = exact_cover_probability(twice, 3, 10).favorable
        monkeypatch.setattr(ex, "INT64_MAX_WALKS", 0)
        assert exact_cover_probability(twice, 3, 10).favorable == int64
        res = exact_cover_probability(oywz, 3, 22)
        assert type(res.favorable) is int and res.favorable == OYWZ_FAVORABLE_22

    def _dp_peak(self, L):
        tracemalloc.start()
        try:
            exact_cover_probability(CoverTarget.of_path(OYWZ, "repetitions"), 3, L)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_dp_memory(self):
        """The DP holds layers of the live L1 ball, not the box."""
        assert self._dp_peak(22) <= 2**20

    def test_dp_memory_python_integers(self):
        """(2d)^L passes 2^63 at L = 25, so L = 30 runs on object dtype."""
        assert self._dp_peak(30) <= 4 * 2**20

    @pytest.mark.parametrize("d,L", [(1, 5), (2, 4), (2, 5)])
    def test_trace_mode_matches_brute_force(self, d, L):
        rng = np.random.default_rng(100 + d + L)
        for _ in range(12):
            size = int(rng.integers(1, 4))
            pts = {tuple(int(v) for v in rng.integers(-2, 3, size=d))
                   for _ in range(size)}
            t = CoverTarget.from_points(pts)
            expect = brute_force_cover_count(d, L, {p: 1 for p in pts})
            assert exact_cover_probability(t, d, L).favorable == expect

    @pytest.mark.parametrize("d,L", [(1, 6), (2, 5)])
    def test_repetitions_mode_matches_brute_force(self, d, L):
        rng = np.random.default_rng(200 + d + L)
        for _ in range(10):
            p = random_walk_path(rng, d, int(rng.integers(1, 4)))
            t = CoverTarget.of_path(p, "repetitions")
            needed = {q: t.visits[q] for q in t.trace}
            expect = brute_force_cover_count(d, L, needed)
            assert exact_cover_probability(t, d, L).favorable == expect

    def test_monotone_in_horizon(self):
        t = CoverTarget.from_points([(1, 1), (2, 0)])
        probs = [exact_cover_probability(t, 2, L).probability for L in range(9)]
        assert all(a <= b for a, b in zip(probs, probs[1:]))

    def test_repetitions_at_most_trace(self):
        rng = np.random.default_rng(300)
        for _ in range(10):
            p = random_walk_path(rng, 2, int(rng.integers(2, 5)))
            L = 6
            tr = exact_cover_probability(CoverTarget.of_path(p, "trace"), 2, L)
            rep = exact_cover_probability(CoverTarget.of_path(p, "repetitions"), 2, L)
            assert rep.favorable <= tr.favorable


def _engine_targets(d, L, mode):
    """Random path targets, one point beyond reach (count 0) and the
    origin alone ((2d)^L)."""
    rng = np.random.default_rng(10 * d + L + (mode == "repetitions"))
    paths = [random_walk_path(rng, d, int(rng.integers(1, L))) for _ in range(5)]
    far = (L + 1,) + (0,) * (d - 1)
    return ([CoverTarget.of_path(p, mode) for p in paths]
            + [CoverTarget.from_points([(1,) + (0,) * (d - 1), far]),
               CoverTarget.from_points([(0,) * d])])


def _l1_ball(d, M):
    """The points of Z^d with L1 norm <= M, built axis by axis."""
    if d == 0:
        return [()]
    return [(v,) + rest for v in range(-M, M + 1) for rest in _l1_ball(d - 1, M - abs(v))]


@functools.lru_cache(maxsize=None)
def _brute_counts(d, L, mode):
    return [brute_force_cover_count(d, L, dict(t.visits))
            for t in _engine_targets(d, L, mode)]


class TestFavorableCounts:
    """One DP pass for many targets equals brute force and one-target
    passes, on both dtypes and however the targets are grouped."""

    @pytest.mark.parametrize("grouping", ["one", "many"])
    @pytest.mark.parametrize("dtype", ["int64", "object"])
    @pytest.mark.parametrize("mode", ["trace", "repetitions"])
    @pytest.mark.parametrize("d,L", [(1, 9), (2, 6), (3, 5), (4, 4)])
    def test_matches_brute_force(self, monkeypatch, d, L, mode, dtype, grouping):
        required = [t.visits for t in _engine_targets(d, L, mode)]
        if dtype == "object":
            monkeypatch.setattr(ex, "INT64_MAX_WALKS", 0)
        if grouping == "one":
            monkeypatch.setattr(ex, "_GROUP_ELEMENTS", 1)
        sizes = []
        run = ex._group_counts

        def spy(d, L, group, *tables):
            sizes.append(len(group))
            return run(d, L, group, *tables)

        monkeypatch.setattr(ex, "_group_counts", spy)
        counts = ex._favorable_counts(d, L, required)
        assert all(type(n) is int for n in counts)
        assert counts == _brute_counts(d, L, mode)
        assert counts[-2:] == [0, (2 * d) ** L]
        assert max(sizes) == 1 if grouping == "one" else max(sizes) > 1
        assert counts == [ex._favorable_counts(d, L, [r])[0] for r in required]

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 39, 40])
    def test_ball_tables(self, d):
        """Each class lists its parity's cells by norm, and the neighbour
        tables point at the neighbour in the other class, or past it; the
        live sizes count the ball's cells of each layer.  3^39 < 2^63 <=
        3^40: at M = 1, d = 39 finds neighbours by int64 codes and d = 40
        by Python-integer codes."""
        for M in range(4 if d <= 6 else 2):
            cells, neighbours = ex._ball(d, M)
            ball = _l1_ball(d, M)
            ball_norms = [sum(map(abs, p)) for p in ball]
            # reach M; at L = M + 1 the last layer is the other parity's norms <= M
            for L in (M, M + 1):
                assert ex._live_sizes(d, L, M) == [
                    sum(n % 2 == t % 2 and n <= min(t, M + L - t) for n in ball_norms)
                    for t in range(L + 1)]
            for parity in (0, 1):
                mine = [tuple(c) for c in cells[parity].tolist()]
                norms = [sum(map(abs, p)) for p in mine]
                assert sorted(mine) == sorted(p for p in ball if sum(map(abs, p)) % 2 == parity)
                assert norms == sorted(norms)
                other = {tuple(c): i for i, c in enumerate(cells[1 - parity].tolist())}
                for k, row in enumerate(neighbours[parity]):
                    step = np.zeros(d, dtype=int)
                    step[k // 2] = 1 - 2 * (k % 2)
                    expect = [other.get(tuple(np.add(p, step).tolist()), len(other))
                              for p in mine]
                    assert row.tolist() == expect, (M, parity, k)

    @pytest.mark.parametrize("d,L,point,count", [
        (40, 2, (1,), lambda d: 2 * d),
        (28, 4, (1, 1), lambda d: 8 * d**2 + 20 * d - 24)], ids=["d40-L2", "d28-L4"])
    def test_counts_on_python_integer_codes(self, d, L, point, count):
        """Walks that visit e_1 within 2 steps, or e_1 + e_2 within 4, in a
        ball whose codes pass int64; the closed forms hold by brute force
        at d = 2, 3 (e_1 + e_2: 8d^2 at step 2, 20d - 24 first at step 4)."""
        target = point + (0,) * (d - len(point))
        for small in (2, 3):
            assert brute_force_cover_count(small, L, {target[:small]: 1}) == count(small)
        assert (2 * ((L + len(point)) // 2) + 1) ** d >= 2**63
        assert ex._favorable_counts(d, L, [{target: 1}], budget=10**30) == [count(d)]

    def test_mixed_reach_in_one_group(self):
        """Targets of different reach share a pass under the largest."""
        owed = [{(1, 0): 1}, {(2, 1): 1, (0, 1): 1}, {(0, -3): 1}]
        assert ex._favorable_counts(2, 5, owed) == [
            brute_force_cover_count(2, 5, o) for o in owed]

    def test_budget_checked_for_every_target(self):
        budget = 10 * 2 * 13**3  # L x states x box cells of the first target
        assert ex._favorable_counts(3, 10, [{(1, 0, 0): 1}], budget) == [
            exact_cover_probability(CoverTarget.from_points([(1, 0, 0)]), 3, 10).favorable]
        with pytest.raises(BudgetExceededError):
            ex._favorable_counts(3, 10, [{(1, 0, 0): 1}, {(3, 0, 0): 3}], budget)


class TestCountReflectedPair:
    def test_empty_mirror_set_ties(self):
        c1, c2 = count_reflected_pair([(0, 0), (0, 1)], [], H21, 2, 4)
        assert c1 == c2

    def test_small_case_matches_brute_force(self):
        A0, B0 = [], [(0, 1)]
        c1, c2 = count_reflected_pair(A0, B0, H21, 2, 2)
        assert c1 == brute_force_cover_count(2, 2, {(0, 1): 1})
        assert c2 == brute_force_cover_count(2, 2, {reflect_point((0, 1), H21): 1})
        assert c1 >= c2

    def test_two_point_case(self):
        c1, c2 = count_reflected_pair([(1, 1)], [(0, 1)], H21, 2, 4)
        assert c1 == brute_force_cover_count(2, 4, {(1, 1): 1, (0, 1): 1})
        mirrored = reflect_point((0, 1), H21)
        assert c2 == brute_force_cover_count(2, 4, {(1, 1): 1, mirrored: 1})
        assert c1 >= c2

    def test_side_violation(self):
        with pytest.raises(SideViolationError):
            count_reflected_pair([(3, 0)], [], H21, 2, 3)

    @pytest.mark.parametrize("A0, h, L, message", [
        ([], H21, -1, "L must be >= 0"),
        ([(1, 1, 0)], H21, 3, "dimension 3, not d = 2"),
        ([(0, 1)], Hyperplane(0, 3, 1), 3, "axis 3")], ids=["L", "point", "hyperplane"])
    def test_input_refused(self, A0, h, L, message):
        with pytest.raises(ValueError, match=message):
            count_reflected_pair(A0, [], h, 2, L)


class TestReflectionSweep:
    def test_tiny_sweep_no_violations(self):
        report = reflection_monotonicity_sweep(radius=1, max_set_size=1, L=3)
        assert not report.violations and report.cases > 0

    @pytest.mark.parametrize("L", [0, -3])
    def test_needs_a_positive_length(self, L):
        """No length, or a length < 1, would make a vacuous pass."""
        with pytest.raises(ValueError, match="lengths >= 1"):
            reflection_monotonicity_sweep(radius=1, max_set_size=1, L=L)

    @pytest.mark.parametrize("L", range(6))
    def test_masks_match_reference(self, L):
        points = list(itertools.product(range(-2, 3), repeat=2)) + [(3, 3), (6, 0)]
        masks = ex._walk_cover_masks(2, L, points)
        ref = _reference_walk_cover_masks(2, L, points)
        for p, row in zip(points, masks):
            assert int.from_bytes(row.tobytes(), "little") == ref[p], (L, p)

    def test_violations_match_reference(self):
        """Reflecting toward the origin does help; the recovered violation
        tuples, and their order, equal the set-at-a-time loop's."""
        h = FarSide(0, 1, 1)
        report = reflection_monotonicity_sweep(radius=1, max_set_size=2, L=3, h=h)
        expect = _reference_sweep_violations(2, h, 1, 2, (1, 2, 3))
        assert len(expect) > 10 and list(report.violations) == expect

    def test_sweep_memory(self):
        """Criterion 6's sweep holds its cases as compact index tables."""
        tracemalloc.start()
        try:
            report = reflection_monotonicity_sweep(radius=2, max_set_size=2, L=6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.cases == 178_758 and peak <= 2 * 2**20

    def test_bitmask_counts_match_dfs(self):
        """The sweep's bit-parallel counts agree with the general counter,
        on both tables, in every case at radius 1, sets of size <= 2, L = 3."""
        report = reflection_monotonicity_sweep(radius=1, max_set_size=2, L=3)
        assert not report.violations
        for A0, B0 in [((), ((0, 1),)), (((1, 1),), ((0, 1),)),
                       (((0, 0),), ((1, 0), (0, 1)))]:
            c1, c2 = count_reflected_pair(A0, B0, H21, 2, 3)
            brute1 = brute_force_cover_count(2, 3, {p: 1 for p in set(A0) | set(B0)} or {(0, 0): 1})
            assert c1 == brute1
        side = [p for p in itertools.product(range(-1, 2), repeat=2) if H21.on_origin_side(p)]
        n = len(side)
        masks = ex._walk_cover_masks(2, 3, side + [reflect_point(p, H21) for p in side]
                                     + [(0, 0)])
        original, reflected = ex._sweep_cases(n, 2)
        counts = np.empty((2, len(original)), dtype=np.int64)
        ex._covered_counts(masks, original, counts[0])
        ex._covered_counts(masks, reflected, counts[1])
        assert len(original) == 885 and report.cases == 3 * 885
        for row, c1, c2 in zip(original, *counts):
            A0, B0 = ([side[i] for i in half if i < n] for half in (row[:2], row[2:]))
            assert (c1, c2) == count_reflected_pair(A0, B0, H21, 2, 3), (A0, B0)

    def test_negative_radius_rejected(self):
        """An empty box would make a vacuous pass."""
        with pytest.raises(ValueError, match="radius >= 0"):
            reflection_monotonicity_sweep(radius=-1)


class TestStaircaseRanking:
    def test_single_step_ties(self):
        report = verify_staircase_max(1, 2, 4, 1)
        assert report.staircase_is_max
        assert len({r.favorable for r in report.rows}) == 1

    def test_n2_d2(self):
        report = verify_staircase_max(2, 2, 6, 3)
        assert report.staircase_is_max
        assert any(r.is_staircase for r in report.rows)
        # straight two-step paths rank strictly below the corner paths
        straight = next(r for r in report.rows if r.points == ((0, 0), (1, 0), (2, 0)))
        stair = next(r for r in report.rows if r.is_staircase)
        assert Fraction(straight.favorable, 4**6) < Fraction(stair.favorable, 4**6)

    def test_monotone_d3_classes(self, monotone_paths_d3):
        report = verify_staircase_max(3, 3, 6, 3)
        probs = {}
        for p in monotone_paths_d3:
            row = next(r for r in report.rows if r.points == p.points)
            probs[p.points] = row.favorable
        # the diagonal-hugging class is maximal, the straight one minimal
        values = list(probs.values())
        assert probs[monotone_paths_d3[4].points] == max(values)
        assert probs[monotone_paths_d3[0].points] == min(values)
        assert report.staircase_is_max

    @pytest.mark.parametrize("N,d,cap", [(3, 2, 7), (3, 3, 5), (2, 5, 2), (3, 4, 5),
                                         (4, 3, 6), (2, 6, 2)])
    def test_orbits_partition_the_paths(self, N, d, cap):
        """The images of each normal-form path number its orbit size, meet
        no other normal-form path's images, and together make every
        connecting path."""
        seen = set()
        for points, orbit in connecting_path_orbits(N, d, cap):
            images = _symmetry_images(points, d)
            assert len(images) == orbit and not images & seen
            seen |= images
        assert seen == set(enumerate_connecting_paths(N, d, cap))

    @pytest.mark.parametrize("N,d,L,cap", [(3, 2, 9, 7), (3, 3, 8, 5), (2, 2, 6, 3),
                                           (3, 2, 7, 5)])
    def test_orbit_counts_match_per_path_ranking(self, N, d, L, cap):
        """Each row's count, weighed by its orbit, gives the counts of the
        ranking of every path, and the same verdict."""
        paths = enumerate_connecting_paths(N, d, cap)
        traces = list({frozenset(p) for p in paths})
        count_of = dict(zip(traces, ex._favorable_counts(
            d, L, [dict.fromkeys(t, 1) for t in traces], 10**12)))
        reference = Counter(count_of[frozenset(p)] for p in paths)
        report = verify_staircase_max(N, d, L, cap)
        weighed = Counter()
        for row in report.rows:
            weighed[row.favorable] += row.orbit
        assert weighed == reference
        stair = count_of[staircase_path(N, d).trace]
        assert report.staircase_is_max == (stair == max(reference))
        row = next(r for r in report.rows if r.is_staircase)
        assert Fraction(row.favorable, (2 * d) ** L) == Fraction(stair, (2 * d) ** L)

    def test_ranking_at_d7(self):
        """One path per orbit: the d = 7 ranking needs none of the
        645,120 symmetries' images."""
        tracemalloc.start()
        try:
            report = verify_staircase_max(2, 7, 10, 2, budget=10**12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(r.orbit for r in report.rows) == 182 and report.staircase_is_max
        assert peak < 16 * 2**20

    def test_enumeration_counts_against_direct_filter(self):
        """Path enumeration agrees with filtering all step sequences."""
        N, d, cap = 2, 2, 4
        expect = set()
        for L in range(1, cap + 1):
            for seq in all_step_sequences(d, L):
                pts = walk_points(seq, d)
                norms = [sum(map(abs, q)) for q in pts]
                if norms[-1] == N and all(v != N for v in norms[:-1]):
                    expect.add(tuple(pts))
        got = set(enumerate_connecting_paths(N, d, cap))
        assert got == expect


# The proof's bridge from one reflection equivalence class to a sign-cover
# counting instance, checked below against the class's own members.

@dataclass(frozen=True)
class SignCoverInstance:
    """The counting instance carried by one reflection equivalence class.

    ``omega`` lists the target points that only arcs can cover (not on
    the hyperplane, not in the shared prefix); arc i of the collection
    holds the indices of the points its trace visits.  ``a_indices`` are
    the positions of the A0 points inside ``omega``.
    """

    omega: tuple[Point, ...]
    collection: ArcCollection
    a_indices: frozenset[int]
    guard_ok: bool


def sign_cover_instance(representative: Path, h: Hyperplane,
                        A0: Iterable[Point], B0: Iterable[Point]) -> SignCoverInstance | None:
    """Build the counting instance for the class of ``representative``
    (which must be canonical: every arc on the origin side).

    Returns None when no target point is left for the arcs to cover.
    When the guard fails (a target point on the hyperplane that the path
    never visits) both class-restricted counts are zero.
    """
    A0, B0 = frozenset(A0), frozenset(B0)
    targets = A0 | B0
    dec = arc_decompose(representative, h)
    on_plane_visits = {p for p in representative.trace if h.signed_gap(p) == 0}
    guard_ok = all(p in on_plane_visits for p in targets if h.signed_gap(p) == 0)
    prefix_trace = set(dec.prefix)
    omega = tuple(sorted(p for p in targets
                         if h.signed_gap(p) != 0 and p not in prefix_trace))
    if not omega:
        return None
    index = {p: j + 1 for j, p in enumerate(omega)}
    arcs = []
    for arc in dec.arcs:
        if len(arc) < 2:
            continue  # single on-plane point: reflection acts trivially
        arc_trace = set(arc)
        arcs.append(frozenset(index[p] for p in omega if p in arc_trace))
    collection = ArcCollection(len(omega), tuple(arcs))
    a_indices = frozenset(index[p] - 1 for p in omega if p in A0)
    return SignCoverInstance(omega, collection, a_indices, guard_ok)


def class_members(representative: Path, h: Hyperplane):
    """All paths in the reflection class: one per sign choice on the arcs
    that actually leave the hyperplane."""
    dec = arc_decompose(representative, h)
    significant = [k for k, arc in enumerate(dec.arcs) if len(arc) >= 2]
    for bits in itertools.product((1, -1), repeat=len(significant)):
        signs = [1] * dec.arc_count
        for k, b in zip(significant, bits):
            signs[k] = b
        yield apply_configuration(representative, h, tuple(signs))


class TestSignCoverBridge:
    """Within one reflection class, covering counts are sign-cover counts."""

    def _direct_class_counts(self, rep, h, A0, B0):
        want1 = set(A0) | set(B0)
        want2 = set(A0) | {reflect_point(p, h) for p in B0}
        n1 = n2 = 0
        for member in class_members(rep, h):
            n1 += want1 <= member.trace
            n2 += want2 <= member.trace
        return n1, n2

    def test_class_counts_match_cover_counts(self):
        rng = np.random.default_rng(77)
        h = H21
        checked = 0
        for _ in range(200):
            p = random_walk_path(rng, 2, int(rng.integers(3, 8)))
            rep = canonical_representative(p, h)
            pool = [q for q in itertools.product(range(-2, 3), repeat=2)
                    if h.on_origin_side(q)]
            idx = rng.choice(len(pool), size=3, replace=False)
            A0 = {pool[idx[0]]}
            B0 = {pool[idx[1]], pool[idx[2]]}
            inst = sign_cover_instance(rep, h, A0, B0)
            if inst is None:
                continue
            n1, n2 = self._direct_class_counts(rep, h, A0, B0)
            if not inst.guard_ok:
                assert n1 == 0 and n2 == 0
                continue
            checked += 1
            omega_all = set(range(1, len(inst.omega) + 1))
            a_set = {i + 1 for i in inst.a_indices}
            assert n1 == cover_count(inst.collection, omega_all)
            assert n2 <= cover_count(inst.collection, a_set)
            assert cover_count(inst.collection, a_set) <= cover_count(inst.collection, omega_all)
        assert checked > 30


@pytest.mark.parametrize("call, message", [
    (lambda: count_reflected_pair([(0, 1)], [(0, 1)], H21, 2, 3), "A0 and B0 must be disjoint"),
    (lambda: ex.ExactResult(5, 4), r"favorable count outside \[0, total\]"),
    (lambda: reflection_monotonicity_sweep(Hyperplane(0, 2, 1), radius=1, max_set_size=1, L=1),
     "hyperplane axis 2 >= d = 2")],
    ids=["overlapping-pair", "favorable-above-total", "sweep-hyperplane-axis"])
def test_refusals(call, message):
    with pytest.raises(ValueError, match=message):
        call()
