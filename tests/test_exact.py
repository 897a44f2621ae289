import itertools
import time
import tracemalloc
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np
import pytest

from conftest import (all_step_sequences, brute_force_cover_count,
                      random_walk_path, walk_points)
import walkcover.exact as ex
from walkcover.comb import ArcCollection, cover_count
from walkcover.exact import (BudgetExceededError, SideViolationError,
                             count_reflected_pair, enumerate_connecting_paths,
                             exact_cover_probability,
                             reflection_monotonicity_sweep, verify_staircase_max)
from walkcover.lattice import CoverTarget, Path, Point, staircase_path, validate_path
from walkcover.reflect import (Hyperplane, apply_configuration, arc_decompose,
                               canonical_representative, reflect_point)

H21 = Hyperplane(0, 1, 1)
OYWZ = validate_path([(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)])
OYWZ_FAVORABLE_22 = 5_645_798_521_100_580


# Reference implementations kept from the Python-loop versions that the
# vectorised sweep masks and canonical keys replaced.

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


def _reference_canonical_trace(points, d):
    """Least image of the point set under coordinate permutations and
    per-axis sign flips."""
    pts = list(points)
    best = None
    for perm in itertools.permutations(range(d)):
        permuted = [tuple(p[a] for a in perm) for p in pts]
        for flips in itertools.product((1, -1), repeat=d):
            img = tuple(sorted(tuple(f * c for f, c in zip(flips, p)) for p in permuted))
            if best is None or img < best:
                best = img
    return best


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
        return self.contains(p) or not super().on_origin_side(p)


class TestExactCoverProbability:
    def test_single_neighbor_one_step(self):
        r = exact_cover_probability(CoverTarget.from_points([(1, 0)]), 2, 1)
        assert r.probability == Fraction(1, 4)

    def test_origin_zero_steps(self):
        for d in (1, 2, 3):
            t = CoverTarget.from_points([tuple([0] * d)])
            assert exact_cover_probability(t, d, 0).probability == 1

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
                needed = {q: t.required(q) for q in t.trace}
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

    def test_dp_memory(self):
        tracemalloc.start()
        try:
            exact_cover_probability(CoverTarget.of_path(OYWZ, "repetitions"), 3, 22)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20

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
            needed = {q: t.required(q) for q in t.trace}
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


class TestReflectionSweep:
    def test_tiny_sweep_no_violations(self):
        report = reflection_monotonicity_sweep(radius=1, max_set_size=1,
                                               lengths=(1, 2, 3))
        assert report.passed and report.cases > 0

    @pytest.mark.parametrize("lengths", [(), range(1, 1), (0, 1), (2, -3)])
    def test_needs_a_positive_length(self, lengths):
        """No length, or a length < 1, would make a vacuous pass."""
        with pytest.raises(ValueError, match="lengths >= 1"):
            reflection_monotonicity_sweep(radius=1, max_set_size=1, lengths=lengths)

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
        report = reflection_monotonicity_sweep(radius=1, max_set_size=2,
                                               lengths=(1, 2, 3), h=h)
        expect = _reference_sweep_violations(2, h, 1, 2, (1, 2, 3))
        assert len(expect) > 10 and list(report.violations) == expect

    def test_sweep_memory(self):
        """Criterion 6's sweep holds its cases as compact index tables."""
        tracemalloc.start()
        try:
            report = reflection_monotonicity_sweep(radius=2, max_set_size=2,
                                                   lengths=(1, 2, 3, 4, 5, 6))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.cases == 178_758 and peak <= 2 * 2**20

    def test_bitmask_counts_match_dfs(self):
        """The sweep's bit-parallel counts agree with the general counter,
        on both tables, in every case at radius 1, sets of size <= 2, L = 3."""
        report = reflection_monotonicity_sweep(radius=1, max_set_size=2,
                                               lengths=(3,))
        assert report.passed
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
        assert len(original) == report.cases == 885
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
        assert len({r.probability for r in report.rows}) == 1

    def test_n2_d2(self):
        report = verify_staircase_max(2, 2, 6, 3)
        assert report.staircase_is_max
        assert any(r.is_staircase for r in report.rows)
        # straight two-step paths rank strictly below the corner paths
        straight = next(r for r in report.rows if r.points == ((0, 0), (1, 0), (2, 0)))
        assert straight.probability < report.staircase_probability

    def test_monotone_d3_classes(self, monotone_paths_d3):
        report = verify_staircase_max(3, 3, 6, 3)
        probs = {}
        for p in monotone_paths_d3:
            row = next(r for r in report.rows if r.points == p.points)
            probs[p.points] = row.probability
        # the diagonal-hugging class is maximal, the straight one minimal
        values = list(probs.values())
        assert probs[monotone_paths_d3[4].points] == max(values)
        assert probs[monotone_paths_d3[0].points] == min(values)
        assert report.staircase_is_max

    @pytest.mark.parametrize("N,d,cap", [(3, 2, 7), (3, 3, 5)])
    def test_canonical_keys_match_reference_classes(self, N, d, cap):
        """The two benchmark rankings' traces fall into the same classes
        under the vectorised keys as under the reference."""
        traces = list({frozenset(p) for p in enumerate_connecting_paths(N, d, cap)})
        keys = ex._canonical_keys(traces, d)
        ref = [_reference_canonical_trace(t, d) for t in traces]
        classes = lambda labels: {frozenset(i for i, x in enumerate(labels) if x == lab)
                                  for lab in set(labels)}
        assert classes(keys) == classes(ref)
        assert len(set(keys)) == {(3, 2, 7): 105, (3, 3, 5): 47}[(N, d, cap)]

    def test_canonical_keys_of_mixed_sizes(self):
        traces = [frozenset({(1, 0), (0, 1)}), frozenset({(0, 0), (1, 0), (0, 1)}),
                  frozenset({(0, -1), (-1, 0)}), frozenset({(0, 0)})]
        keys = ex._canonical_keys(traces, 2)
        assert keys[0] == keys[2] and len(set(keys)) == 3

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
    on_plane_visits = {p for p in representative.trace if h.contains(p)}
    guard_ok = all(p in on_plane_visits for p in targets if h.contains(p))
    prefix_trace = set(dec.prefix)
    omega = tuple(sorted(p for p in targets
                         if not h.contains(p) and p not in prefix_trace))
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
            rep, _ = canonical_representative(p, h)
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
