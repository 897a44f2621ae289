import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_walk_path
from walkcover.lattice import (CoverTarget, DimensionMismatchError,
                               NotNearestNeighborError, Path,
                               connects_origin_to_sphere, l1_norm,
                               outstanding_visits, path_from_json, path_to_json,
                               parse_points, repetition_profile,
                               staircase_path, straight_path, total_difference,
                               validate_path)


class TestValidatePath:
    def test_simple_corner(self):
        p = validate_path([(0, 0), (1, 0), (1, 1)])
        assert p.length == 3 and p.steps == 2
        assert p.trace == {(0, 0), (1, 0), (1, 1)}

    def test_diagonal_jump_rejected(self):
        with pytest.raises(NotNearestNeighborError) as exc:
            validate_path([(0, 0), (1, 1)])
        assert exc.value.index == 1

    def test_counterexample_path(self):
        p = validate_path([(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)])
        assert p.length == 4 and p.is_simple

    def test_mixed_dimension_rejected(self):
        with pytest.raises(DimensionMismatchError):
            validate_path([(0, 0), (1, 0, 0)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            validate_path([])

    def test_fuzz_mutated_paths_rejected(self):
        rng = np.random.default_rng(2024)
        rejected = 0
        for _ in range(1000):
            d = int(rng.integers(1, 4))
            pts = [list(q) for q in random_walk_path(rng, d, int(rng.integers(1, 12))).points]
            i = int(rng.integers(len(pts)))
            # odd shift >= 3 always breaks an incident edge
            pts[i][int(rng.integers(d))] += int(rng.choice([-5, -3, 3, 5]))
            try:
                validate_path(pts)
            except NotNearestNeighborError:
                rejected += 1
        assert rejected == 1000


class TestConnects:
    def test_corner_reaches_two(self):
        assert connects_origin_to_sphere(validate_path([(0, 0), (1, 0), (1, 1)]), 2)

    def test_backtrack_fails(self):
        assert not connects_origin_to_sphere(validate_path([(0, 0), (1, 0), (0, 0)]), 1)

    def test_norm_sequence(self):
        p = validate_path([(0, 0), (0, 1), (1, 1), (1, 2), (2, 2)])
        assert [l1_norm(q) for q in p.points] == [0, 1, 2, 3, 4]
        assert connects_origin_to_sphere(p, 4)

    def test_not_from_origin(self):
        assert not connects_origin_to_sphere(validate_path([(1, 0), (1, 1)]), 2)


class TestStaircase:
    def test_d3_n3(self):
        assert staircase_path(3, 3).points == ((0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1))

    def test_d2_n4(self):
        assert staircase_path(4, 2).points == ((0, 0), (1, 0), (1, 1), (2, 1), (2, 2))

    def test_minimal(self):
        assert staircase_path(1, 2).points == ((0, 0), (1, 0))

    @pytest.mark.parametrize("d", range(1, 7))
    def test_connects_and_hugs_diagonal(self, d):
        for N in range(1, 31):
            p = staircase_path(N, d)
            assert p.length == N + 1
            assert connects_origin_to_sphere(p, N)
            assert all(max(q) - min(q) <= 1 for q in p.points)
            # monotone nondecreasing in every coordinate
            for a, b in zip(p.points, p.points[1:]):
                assert all(x <= y for x, y in zip(a, b))


class TestStraight:
    def test_examples(self):
        assert straight_path(2, 2).points == ((0, 0), (1, 0), (2, 0))
        assert straight_path(1, 3).points == ((0, 0, 0), (1, 0, 0))
        assert straight_path(3, 2).points == ((0, 0), (1, 0), (2, 0), (3, 0))


class TestTotalDifference:
    def test_hand_values(self):
        assert total_difference(validate_path([(0, 0), (1, 0), (2, 0)])) == 3
        assert total_difference(validate_path([(0, 0), (1, 0), (1, 1)])) == 1
        assert total_difference(validate_path([(0, 0, 0), (1, 0, 0), (1, 1, 0)])) == 4

    def test_counts_trace_not_steps(self):
        # revisiting a point must not double its contribution
        assert total_difference(validate_path([(0, 0), (1, 0), (0, 0)])) == 1

    @pytest.mark.parametrize("d", range(2, 6))
    def test_staircase_value_matches_direct_formula(self, d):
        for N in range(1, 25):
            p = staircase_path(N, d)
            direct = sum(abs(q[i] - q[j]) for q in p.trace
                         for i in range(d) for j in range(i + 1, d))
            assert total_difference(p) == direct
            if d == 2:
                odd = sum(1 for q in p.trace if l1_norm(q) % 2 == 1)
                assert total_difference(p) == odd


class TestRepetitionProfile:
    def test_repeated_point(self):
        p = validate_path([(0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 0, 0)])
        assert repetition_profile(p) == {(0, 0, 0): 1, (1, 0, 0): 2, (1, 1, 0): 1}

    def test_simple_all_ones(self):
        p = staircase_path(5, 3)
        assert set(repetition_profile(p).values()) == {1}

    def test_d2_revisit(self):
        assert repetition_profile(validate_path([(0, 0), (1, 0), (0, 0)])) == {
            (0, 0): 2, (1, 0): 1}

    def test_counts_sum_to_length_random(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            p = random_walk_path(rng, int(rng.integers(1, 4)), int(rng.integers(1, 20)))
            assert sum(repetition_profile(p).values()) == p.length


class TestCoverTarget:
    def test_repetitions_requires_matching_profile(self):
        with pytest.raises(ValueError):
            CoverTarget("repetitions", frozenset({(0, 0)}), {(1, 0): 1})

    def test_of_path(self):
        p = validate_path([(0, 0), (1, 0), (0, 0)])
        t = CoverTarget.of_path(p, "repetitions")
        assert t.required((0, 0)) == 2 and t.required((1, 0)) == 1

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            CoverTarget("bogus", frozenset({(0, 0)}))

    def test_outstanding_credits_the_origin_once(self):
        o, y = (0, 0, 0), (1, 0, 0)
        assert outstanding_visits({o: 2, y: 1}) == {o: 1, y: 1}
        assert outstanding_visits({o: 1, y: 2}) == {y: 2}
        assert outstanding_visits({(0,): 3}) == {(0,): 2}
        assert CoverTarget.from_points([o, y]).outstanding() == {y: 1}
        rep = CoverTarget.of_path(validate_path([o, y, o]), "repetitions")
        assert rep.outstanding() == {o: 1, y: 1}

    def test_outstanding_of_empty_mapping(self):
        assert outstanding_visits({}) == {}


class TestJson:
    def test_round_trip(self):
        p = validate_path([(0, 0), (1, 0), (1, 1)])
        assert path_from_json(path_to_json(p)) == p

    def test_rejects_invalid(self):
        with pytest.raises(NotNearestNeighborError):
            path_from_json(json.dumps([[0, 0], [2, 0]]))
        with pytest.raises(ValueError):
            path_from_json(json.dumps({"not": "a path"}))

    @pytest.mark.parametrize("text", ["[1, 2]", "5", "[[0, null]]", "[[0, 1.0]]",
                                      "[[true, 0]]", '[["1", 0]]', "[[[0], 0]]"])
    def test_points_must_be_integer_arrays(self, text):
        with pytest.raises(ValueError):
            parse_points(json.loads(text))
        with pytest.raises(ValueError):
            path_from_json(text)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from([(1, 0), (-1, 0), (0, 1), (0, -1)]),
                min_size=0, max_size=30))
def test_walk_is_always_valid_path(steps):
    pos = (0, 0)
    pts = [pos]
    for s in steps:
        pos = (pos[0] + s[0], pos[1] + s[1])
        pts.append(pos)
    p = validate_path(pts)
    assert p.length == len(steps) + 1
    assert sum(repetition_profile(p).values()) == p.length
