import json
import math
from functools import cache

import numpy as np
import pytest

from conftest import unit_vector
from walkcover.cli import run
from walkcover.exact import exact_cover_probability
from walkcover.green import (RecurrentWalkError, green_value, return_probability,
                             simple_walk)
import walkcover.hitting as hitting
from walkcover.hitting import (COUNTEREXAMPLE_TARGETS, counterexample_probabilities,
                               first_entry_distribution,
                               infinite_cover_probability,
                               truncation_bias_estimate)
from walkcover.lattice import (TRACE, CoverTarget, outstanding_visits,
                               staircase_path)
from walkcover.montecarlo import SimConfig, mc_cover_probability
from walkcover.rng import walk_directions

O, Y, Z, W, Y2 = (0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (2, 0, 0)

# frozen from the high-resolution stepsum oracle; the source table's
# rounded figures sit within 5e-3 of each
ORACLE = {
    "y_of_yz": 0.279500,
    "w_of_yzw": 0.034608,
    "y_of_yzw": 0.269827,
    "y_of_yw": 0.301087,
    "w_of_yw": 0.115849,
    "o_of_oy": 0.254031,
    "y_of_oy": 0.254031,
}
PUBLISHED = {
    "y_of_yz": 0.2792,
    "w_of_yzw": 0.0344,
    "y_of_yzw": 0.2696,
    "y_of_yw": 0.3008,
    "w_of_yw": 0.1155,
    "o_of_oy": 0.2538,
    "y_of_oy": 0.2538,
}


def _one_step_reduction(start, targets, d, tol):
    """Test-side reference for a start on the set: average the
    first-entry distribution over the 2d uniform first steps, a step that
    lands in the set being an immediate entry."""
    out = dict.fromkeys(targets, 0.0)
    for axis in range(d):
        for sign in (1, -1):
            u = tuple(c + e for c, e in zip(start, unit_vector(d, axis, sign)))
            h = ({u: 1.0} if u in out
                 else first_entry_distribution(u, targets, d, tol))
            for p, v in h.items():
                out[p] += v / (2 * d)
    return out


@pytest.fixture(scope="module")
def entry():
    fe = lambda pts: first_entry_distribution(O, pts, 3, tol=1e-5)
    return {
        "y_of_yz": fe((Y, Z))[Y],
        "w_of_yzw": fe((Y, Z, W))[W],
        "y_of_yzw": fe((Y, Z, W))[Y],
        "y_of_yw": fe((Y, W))[Y],
        "w_of_yw": fe((Y, W))[W],
        "o_of_oy": fe((O, Y))[O],
        "y_of_oy": fe((O, Y))[Y],
    }


class TestFirstEntryValues:
    @pytest.mark.parametrize("key", sorted(ORACLE))
    def test_against_oracle_and_published(self, entry, key):
        assert abs(entry[key] - ORACLE[key]) < 5e-4
        assert abs(entry[key] - PUBLISHED[key]) < 5e-3

    def test_start_on_set_symmetry(self, entry):
        # returning to the start before y and reaching y before returning
        # are equal for a unit separation
        assert abs(entry["o_of_oy"] - entry["y_of_oy"]) < 1e-6


class TestFirstEntryStructure:
    def test_single_point_reduces_to_green_ratio(self):
        g = lambda x: green_value(simple_walk(3), x, tol=1e-5).value
        for p in (Y, W, Y2):
            h = first_entry_distribution(O, (p,), 3, tol=1e-5)
            assert abs(h[p] - g(p) / g(O)) < 1e-4

    def test_distribution_sums_to_hit_probability(self, capsys):
        """The ``hit`` envelope's hit_probability is the distribution's mass."""
        code = run(["hit", "--d", "3", "--start", "0,0,0", "--set", json.dumps([Y, Z, W]),
                    "--tol", "1e-5"])
        res = json.loads(capsys.readouterr().out)["results"]
        dist = [e["probability"] for e in res["distribution"]]
        assert code == 0 and len(dist) == 3 and all(0 <= v <= 1 for v in dist)
        assert res["hit_probability"] == sum(dist)
        assert 0 < res["hit_probability"] <= 1

    def test_tolerance_1e6_reachable(self):
        dist = first_entry_distribution(O, (Y, W), 3, tol=1e-6)
        assert abs(dist[Y] - ORACLE["y_of_yw"]) < 1e-6
        assert abs(dist[W] - ORACLE["w_of_yw"]) < 1e-6

    def test_symmetric_pair_splits_evenly(self):
        dist = first_entry_distribution(O, (Y, Z), 3, tol=1e-5)
        assert abs(dist[Y] - dist[Z]) < 1e-9

    @pytest.mark.parametrize("d", [3, 4])
    @pytest.mark.parametrize("case", ["o", "oy", "oyw at o", "oyw at y"])
    def test_start_on_set_matches_one_step_reduction(self, d, case):
        o, y = (0,) * d, unit_vector(d, 0)
        w = tuple(a + b for a, b in zip(y, unit_vector(d, 1)))
        pts, start = {"o": ((o,), o), "oy": ((o, y), o),
                      "oyw at o": ((o, y, w), o), "oyw at y": ((o, y, w), y)}[case]
        got = first_entry_distribution(start, pts, d, tol=1e-5)
        expect = _one_step_reduction(start, pts, d, tol=1e-5)
        assert all(abs(got[p] - expect[p]) < 1e-12 for p in pts), (got, expect)

    def test_validation(self):
        with pytest.raises(ValueError, match="nonempty"):
            first_entry_distribution(O, (), 3)
        with pytest.raises(ValueError, match="distinct"):
            first_entry_distribution(O, (Y, Y), 3)
        with pytest.raises(ValueError, match="dimension mismatch"):
            first_entry_distribution(O, ((1, 0),), 3)
        with pytest.raises(RecurrentWalkError):
            first_entry_distribution((0, 0), ((1, 0),), 2)

    def test_far_point_is_green_ratio(self, capsys):
        """Past |x| ~ 150 at d = 3 the Green integrand peaks beyond twelve
        panels; the hit probability of one far point is still G(x)/G(0),
        with G(x) from the independent stepsum route."""
        x = (300, 0, 0)
        code = run(["hit", "--d", "3", "--start", "0,0,0", "--set", json.dumps([x]),
                    "--tol", "1e-4"])
        hit = json.loads(capsys.readouterr().out)["results"]["hit_probability"]
        gx = green_value(simple_walk(3), x, tol=1e-5, method="stepsum")
        g0 = green_value(simple_walk(3), O, tol=1e-4)
        assert code == 0
        assert abs(hit - gx.value / g0.value) <= (gx.abs_error_bound
                                                  + g0.abs_error_bound) / g0.value


class TestInfiniteCover:
    def test_one_point_trace_is_green_ratio(self):
        g = lambda x: green_value(simple_walk(3), x, tol=1e-5).value
        p = infinite_cover_probability(CoverTarget.from_points([Y]), tol=1e-5)
        assert abs(p - g(Y) / g(O)) < 1e-12

    def test_origin_twice_is_return_probability(self):
        target = CoverTarget({O: 2})
        p = infinite_cover_probability(target, tol=1e-5)
        assert abs(p - return_probability(simple_walk(3), tol=1e-5)) < 1e-12

    def test_recurrent_dimension_rejected(self):
        with pytest.raises(ValueError):
            infinite_cover_probability(CoverTarget.from_points([(0, 0), (1, 0)]))


def _per_state_cover(target, tol=1e-5):
    """Test-side reference: the recursion memoised on (position, visits
    owed), one first-entry solve per state for its one start."""
    d = target.dim
    owed = outstanding_visits(target.visits)
    points = tuple(sorted(owed))

    @cache
    def cover(pos, rem):
        pending = tuple(p for p, k in zip(points, rem) if k)
        if not pending:
            return 1.0
        h = first_entry_distribution(pos, pending, d, tol)
        return sum(h[s] * cover(s, tuple(k - (p == s) for p, k in zip(points, rem)))
                   for s in pending)

    return cover((0,) * d, tuple(owed[p] for p in points))


class TestVectorRecursion:
    """One Green matrix per target and one solve per requirement state
    give the per-state recursion's values."""

    @pytest.mark.parametrize("d,N", [(3, n) for n in range(1, 9)]
                             + [(4, n) for n in range(1, 10)]
                             + [(5, n) for n in range(1, 7)])
    def test_staircase_matches_per_state_recursion(self, d, N):
        target = CoverTarget.of_path(staircase_path(N, d), TRACE)
        expect = _per_state_cover(target)
        assert abs(infinite_cover_probability(target) - expect) <= 1e-13 * expect

    @pytest.mark.parametrize("target", [
        *COUNTEREXAMPLE_TARGETS,
        CoverTarget({O: 2}),
        CoverTarget({O: 1}),
    ], ids=["original", "reflected", "origin twice", "origin once"])
    def test_small_targets_match_per_state_recursion(self, target):
        expect = _per_state_cover(target)
        assert abs(infinite_cover_probability(target) - expect) <= 1e-13 * expect

    def test_one_green_lookup_per_matrix_entry(self, monkeypatch):
        calls, green = [], hitting.green_value
        monkeypatch.setattr(hitting, "green_value", lambda *a: calls.append(a) or green(*a))
        infinite_cover_probability(CoverTarget.of_path(staircase_path(9, 4), TRACE))
        assert len(calls) <= 100

    def test_one_right_hand_side_per_start(self, monkeypatch):
        """A many-column solve pages in numpy code no command otherwise
        runs, which shows in peak RSS; every solve takes a stack of
        single-column right-hand sides."""
        target = CoverTarget.of_path(staircase_path(5, 3), TRACE)
        run_both = lambda: (infinite_cover_probability(target),
                            first_entry_distribution(O, (Y, Z, W), 3))
        run_both()  # fills the Green cache, so only hitting's solves run below
        shapes, solve = [], np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve",
                            lambda a, b: shapes.append(b.shape) or solve(a, b))
        run_both()
        assert shapes and all(len(s) == 3 and s[-1] == 1 for s in shapes), shapes


class TestCounterexample:
    def test_values_and_ordering(self):
        ce = counterexample_probabilities(tol=1e-5)
        assert abs(ce.p_original - 0.080846) < 5e-4
        assert abs(ce.p_reflected - 0.065527) < 5e-4
        assert abs(ce.p_original - 0.0805) < 5e-3
        assert abs(ce.p_reflected - 0.0653) < 5e-3
        assert ce.p_original > ce.p_reflected

    def test_engine_matches_diagonal_factor_assembly(self, entry):
        """The hand decomposition over entry orders, kept here as a
        reference: its last factor for the w-first branch is the
        diagonal-neighbor hitting probability, not the unit one."""
        g = lambda x: green_value(simple_walk(3), x, tol=1e-5).value
        hit_y, hit_w = g(Y) / g(O), g(W) / g(O)
        head = 2 * entry["y_of_yzw"] * (entry["y_of_yw"] + entry["w_of_yw"]) * hit_y
        p_original = head + 2 * entry["w_of_yzw"] * entry["y_of_yz"] * hit_w
        unit_variant = head + 2 * entry["w_of_yzw"] * entry["y_of_yz"] * hit_y
        p_reflected = (entry["y_of_yw"] * (entry["o_of_oy"] + entry["y_of_oy"]) * hit_y
                       + entry["w_of_yw"] * hit_y * hit_y)
        ce = counterexample_probabilities(tol=1e-5)
        assert abs(ce.p_original - p_original) < 1e-12
        assert abs(ce.p_reflected - p_reflected) < 1e-12
        assert abs(unit_variant - ce.p_original) > 1e-3

    def test_recombination_of_published_constants(self):
        """Plugging the source table's own rounded constants into the
        assembly reproduces its headline values."""
        p1 = 2 * 0.2696 * (0.3008 + 0.1155) * 0.3401 + 2 * 0.0344 * 0.2792 * 0.2178
        p2 = 0.3008 * (2 * 0.2538) * 0.3401 + 0.1155 * 0.3401 * 0.3401
        assert abs(p1 - 0.0805) < 1e-4
        assert abs(p2 - 0.0653) < 1e-4

    def test_exact_finite_horizon_value_lies_below(self):
        target = COUNTEREXAMPLE_TARGETS[0]
        res = exact_cover_probability(target, 3, 12, budget=6**12)
        assert res.favorable == 69_773_160 and res.total == 6**12
        assert res.probability < infinite_cover_probability(target, tol=1e-5)

    def test_truncation_bias_small_at_desk_scale(self):
        ce = counterexample_probabilities(tol=1e-5)
        bias = truncation_bias_estimate(10_000, ce.p_original)
        assert 0 < bias < 2e-3

    @pytest.mark.parametrize("L,p_cover", [(1, 1.0), (10_000, 0.08084), (4000, 0.5)])
    def test_truncation_bias_closed_form(self, L, p_cover):
        """The three non-origin points of (o, y, w, z) in the local-CLT tail."""
        tail = (3 / (2 * math.pi)) ** 1.5 * 2.0 / math.sqrt(L) / green_value(
            simple_walk(3), O, 1e-5).value
        expect = p_cover * tail * sum(math.exp(-3 * sum(c * c for c in p) / 2.0 / L)
                                      for p in ((1, 0, 0), (0, 1, 0), (1, 1, 0)))
        assert truncation_bias_estimate(L, p_cover) == expect

    @pytest.mark.parametrize("L", [0, -3])
    def test_truncation_bias_needs_a_step(self, L):
        with pytest.raises(ValueError, match="L >= 1"):
            truncation_bias_estimate(L, 0.5)


def _mc_first_entry(seed, n_walks, L, targets):
    """Minimal vectorized first-entry frequencies (test-side oracle).

    Each walk's position is one int64 key x0 B^2 + x1 B + x2, exact while
    every |coordinate| < B/2; a chunk of steps is one cumulative sum of
    step keys, and a walk leaves the batch once it enters the targets."""
    B = 1 << 20
    assert L < B // 2
    step_keys = np.array([B * B, -B * B, B, -B, 1, -1], dtype=np.int64)
    target_keys = np.array([(x0 * B + x1) * B + x2 for x0, x1, x2 in targets],
                           dtype=np.int64)
    wins = np.zeros(len(targets), dtype=np.int64)
    for lo in range(0, n_walks, 4096):
        ids = np.arange(lo, min(lo + 4096, n_walks), dtype=np.uint64)
        pos = np.zeros(len(ids), dtype=np.int64)
        t0 = 0
        while t0 < L and len(ids):
            C = min(512, L - t0)
            keys = np.cumsum(step_keys[walk_directions(7_777_777 + seed, ids, t0, C, 6)],
                             axis=1)
            keys += pos[:, None]
            inside = np.isin(keys, target_keys)
            entered = inside.any(axis=1)
            first = keys[entered, inside[entered].argmax(axis=1)]
            wins += (first[:, None] == target_keys).sum(axis=0)
            ids, pos = ids[~entered], keys[~entered, -1]
            t0 += C
    return wins / n_walks


@pytest.mark.slow
def test_first_entry_matches_monte_carlo():
    """Truncated MC first-entry frequencies agree with the linear-system
    distribution within 4 sigma plus the truncation allowance."""
    targets = (Y, Z, W)
    n, L = 100_000, 4000
    freq = _mc_first_entry(3, n, L, targets)
    dist = first_entry_distribution(O, targets, 3, tol=1e-5)
    # chance the first entry happens only after L steps, per target bound
    trunc = truncation_bias_estimate(L, 1.0) / 3
    for k, p in enumerate(targets):
        sigma = max((dist[p] * (1 - dist[p]) / n) ** 0.5, 1e-9)
        assert abs(freq[k] - dist[p]) < 4 * sigma + trunc, (p, freq[k], dist[p])
