import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import l1_distance, random_walk_path, straight_path
from walkcover.lattice import (COORD_BOUND, CoverTarget, DimensionMismatchError,
                               NotNearestNeighborError, Path,
                               connects_origin_to_sphere, l1_norm,
                               outstanding_visits, path_from_json, path_to_json,
                               parse_points, repetition_profile,
                               staircase_path, validate_path)


class TestValidatePath:
    def test_simple_corner(self):
        p = validate_path([(0, 0), (1, 0), (1, 1)])
        assert len(p) == 3
        assert p.trace == {(0, 0), (1, 0), (1, 1)}

    def test_diagonal_jump_rejected(self):
        with pytest.raises(NotNearestNeighborError) as exc:
            validate_path([(0, 0), (1, 1)])
        assert exc.value.index == 1

    def test_counterexample_path(self):
        p = validate_path([(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)])
        assert len(p) == 4 and len(p.trace) == len(p)

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


def _staircase_points(length: int, d: int) -> list[list[int]]:
    return [list(q) for q in staircase_path(length - 1, d).points]


class TestValidationErrors:
    """Each check names where it failed, wherever in the path that is."""

    @pytest.mark.parametrize("index", [1, 2, 17, 38, 39])
    @pytest.mark.parametrize("kind", ["repeat", "jump", "diagonal"])
    def test_not_nearest_neighbor_carries_the_index(self, index, kind):
        pts = _staircase_points(40, 3)
        prev = pts[index - 1]
        pts[index] = {"repeat": list(prev),
                      "jump": [prev[0] + 2] + prev[1:],
                      "diagonal": [prev[0] + 1, prev[1] + 1] + prev[2:]}[kind]
        with pytest.raises(NotNearestNeighborError) as exc:
            validate_path(pts)
        assert exc.value.index == index
        assert f"points {index - 1} and {index}" in str(exc.value)

    @pytest.mark.parametrize("copy", [4, 6])
    def test_steps_of_0_and_2_that_keep_the_total_distance(self, copy):
        """Point 5 repeated from point 4 (a step of 0, then 2) or from
        point 6 (2, then 0): the path's total distance is unchanged, and
        the error names step 5."""
        pts = _staircase_points(30, 2)
        pts[5] = list(pts[copy])
        with pytest.raises(NotNearestNeighborError) as exc:
            validate_path(pts)
        assert exc.value.index == 5

    @pytest.mark.parametrize("index", [0, 1, 13, 29])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_coord_bound_names_the_point(self, index, sign):
        pts = _staircase_points(30, 3)
        pts[index][1] = sign * (COORD_BOUND + 1)
        with pytest.raises(ValueError, match=f"exceeds {COORD_BOUND} at point {index}$"):
            validate_path(pts)

    def test_coord_bound_itself_is_allowed(self):
        p = validate_path([(COORD_BOUND, -COORD_BOUND), (COORD_BOUND - 1, -COORD_BOUND)])
        assert len(p) == 2

    @pytest.mark.parametrize("index", [1, 9, 29])
    @pytest.mark.parametrize("dim", [2, 4])
    def test_dimension_mismatch_names_the_point(self, index, dim):
        pts = _staircase_points(30, 3)
        pts[index] = pts[index][:2] + [0] * (dim - 2)
        with pytest.raises(DimensionMismatchError,
                           match=f"^point {index} has dimension {dim}, expected 3$"):
            validate_path(pts)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(lambda d: st.lists(
    st.lists(st.integers(-1, 1), min_size=d, max_size=d), min_size=0, max_size=25)))
def test_validation_matches_pairwise_l1_distance(steps):
    """A path is accepted iff every pair of consecutive points is at L1
    distance 1, the first bad pair naming the error's index."""
    d = len(steps[0]) if steps else 2
    pts = [(0,) * d]
    for s in steps:
        pts.append(tuple(a + b for a, b in zip(pts[-1], s)))
    bad = [i for i in range(1, len(pts)) if l1_distance(pts[i - 1], pts[i]) != 1]
    if bad:
        with pytest.raises(NotNearestNeighborError) as exc:
            validate_path(pts)
        assert exc.value.index == bad[0]
    else:
        assert validate_path(pts).points == tuple(pts)


class TestConnects:
    def test_corner_reaches_two(self):
        assert connects_origin_to_sphere(validate_path([(0, 0), (1, 0), (1, 1)]))

    def test_backtrack_fails(self):
        assert not connects_origin_to_sphere(validate_path([(0, 0), (1, 0), (0, 0)]))

    def test_norm_sequence(self):
        p = validate_path([(0, 0), (0, 1), (1, 1), (1, 2), (2, 2)])
        assert [l1_norm(q) for q in p.points] == [0, 1, 2, 3, 4]
        assert connects_origin_to_sphere(p)

    def test_not_from_origin(self):
        assert not connects_origin_to_sphere(validate_path([(1, 0), (1, 1)]))


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
            assert len(p) == N + 1
            assert connects_origin_to_sphere(p) and l1_norm(p.points[-1]) == N
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
        assert validate_path([(0, 0), (1, 0), (2, 0)]).total_difference == 3
        assert validate_path([(0, 0), (1, 0), (1, 1)]).total_difference == 1
        assert validate_path([(0, 0, 0), (1, 0, 0), (1, 1, 0)]).total_difference == 4

    def test_cached_on_the_path(self):
        p = validate_path([(0, 0, 0), (1, 0, 0), (1, 1, 0)])
        assert p.total_difference == 4
        assert "total_difference" in vars(p)

    def test_counts_trace_not_steps(self):
        # revisiting a point must not double its contribution
        assert validate_path([(0, 0), (1, 0), (0, 0)]).total_difference == 1

    @pytest.mark.parametrize("d", range(2, 6))
    def test_staircase_value_matches_direct_formula(self, d):
        for N in range(1, 25):
            p = staircase_path(N, d)
            direct = sum(abs(q[i] - q[j]) for q in p.trace
                         for i in range(d) for j in range(i + 1, d))
            assert p.total_difference == direct
            if d == 2:
                odd = sum(1 for q in p.trace if l1_norm(q) % 2 == 1)
                assert p.total_difference == odd


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
            assert sum(repetition_profile(p).values()) == len(p)


class TestCoverTarget:
    def test_of_path(self):
        p = validate_path([(0, 0), (1, 0), (0, 0)])
        assert CoverTarget.of_path(p, "repetitions").visits == {(0, 0): 2, (1, 0): 1}
        assert CoverTarget.of_path(p, "trace").visits == {(0, 0): 1, (1, 0): 1}
        assert CoverTarget.of_path(p) == CoverTarget.of_path(p, "trace")
        t = CoverTarget.of_path(p, "repetitions")
        assert t.visits[(0, 0)] == 2 and t.visits[(1, 0)] == 1
        assert t.trace == p.trace and t.dim == 2

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            CoverTarget.of_path(validate_path([(0, 0)]), "bogus")

    def test_all_ones_visits_equal_from_points(self):
        pts = [(0, 0, 0), (1, 0, 0), (1, 1, 0)]
        assert CoverTarget(dict.fromkeys(pts, 1)) == CoverTarget.from_points(pts)

    def test_visits_validation(self):
        with pytest.raises(ValueError):
            CoverTarget({})
        with pytest.raises(DimensionMismatchError):
            CoverTarget({(0, 0): 1, (1, 0, 0): 1})
        with pytest.raises(ValueError):
            CoverTarget({(0, 0): 1, (1, 0): 0})

    def test_outstanding_credits_the_origin_once(self):
        o, y = (0, 0, 0), (1, 0, 0)
        assert outstanding_visits({o: 2, y: 1}) == {o: 1, y: 1}
        assert outstanding_visits({o: 1, y: 2}) == {y: 2}
        assert outstanding_visits({(0,): 3}) == {(0,): 2}
        assert outstanding_visits(CoverTarget.from_points([o, y]).visits) == {y: 1}
        rep = CoverTarget.of_path(validate_path([o, y, o]), "repetitions")
        assert outstanding_visits(rep.visits) == {o: 1, y: 1}

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

    def test_paths_to_json_writes_what_json_dumps_writes(self):
        rng = np.random.default_rng(5)
        paths = [random_walk_path(rng, d, int(rng.integers(0, 9))).points
                 for d in (1, 2, 3, 5) for _ in range(20)]
        assert [path_to_json(p) for p in paths] == [json.dumps([list(q) for q in p])
                                                    for p in paths]
        assert path_to_json(Path(paths[0])) == path_to_json(paths[0])
        assert path_to_json([]) == "[]"

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
    assert len(p) == len(steps) + 1
    assert sum(repetition_profile(p).values()) == len(p)
