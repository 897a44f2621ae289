import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (SignVectorTooShortError, all_step_sequences, apply_configuration,
                      arc_decompose, arc_representative, random_walk_path, straight_path,
                      walk_points)
from walkcover.exact import exact_cover_probability
from walkcover.lattice import CoverTarget, l1_norm, staircase_path, validate_path
from walkcover.reflect import (Hyperplane, NotConnectingError, canonical_representative,
                               normalize_to_positive_orthant, reduce_path,
                               reflect_point)

H21 = Hyperplane(0, 1, 1)  # x = y + 1 in the plane
H20 = Hyperplane(0, 1, 0)  # x = y


class TestReflectPoint:
    def test_formula(self):
        assert reflect_point((3, 0), H21) == (1, 2)

    def test_fixed_point(self):
        assert reflect_point((2, 1), H21) == (2, 1)

    def test_higher_dim_untouched_axes(self):
        h = Hyperplane(0, 1, 1)
        assert reflect_point((3, 0, 5, -2), h) == (1, 2, 5, -2)

    def test_involution_random(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            d = int(rng.integers(2, 5))
            p = tuple(int(v) for v in rng.integers(-10, 11, size=d))
            i, j = rng.choice(d, size=2, replace=False)
            h = Hyperplane(int(i), int(j), int(rng.integers(-5, 6)))
            assert reflect_point(reflect_point(p, h), h) == p

    def test_l1_isometry(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            d = int(rng.integers(2, 5))
            p = tuple(int(v) for v in rng.integers(-6, 7, size=d))
            q = tuple(int(v) for v in rng.integers(-6, 7, size=d))
            i, j = rng.choice(d, size=2, replace=False)
            h = Hyperplane(int(i), int(j), int(rng.integers(-4, 5)))
            dist = sum(abs(a - b) for a, b in zip(p, q))
            rp, rq = reflect_point(p, h), reflect_point(q, h)
            assert sum(abs(a - b) for a, b in zip(rp, rq)) == dist


class TestArcDecompose:
    def test_first_visit_splits(self):
        p = validate_path([(0, 0), (1, 0), (2, 0)])
        dec = arc_decompose(p, H21)
        assert dec.prefix == ((0, 0),)
        assert dec.arcs == (((1, 0), (2, 0)),)
        assert dec.visit_times == (1,)

    def test_never_visiting(self):
        p = validate_path([(0, 0), (0, 1)])
        dec = arc_decompose(p, H21)
        assert dec.prefix == p.points and dec.arcs == ()

    def test_start_on_plane_empty_prefix(self):
        p = staircase_path(4, 2)
        dec = arc_decompose(p, H20)
        assert dec.prefix == ()
        # visits to x = y along the staircase are the diagonal points
        expected = tuple(n for n, q in enumerate(p.points) if q[0] == q[1])
        assert dec.visit_times == expected

    def test_reassemble_and_side_invariants(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            p = random_walk_path(rng, 2, int(rng.integers(1, 15)))
            dec = arc_decompose(p, H21)
            assert dec.reassemble() == p.points
            for arc in dec.arcs:
                assert arc[0][0] == arc[0][1] + 1  # arcs start on the plane
                gaps = {np.sign(q[0] - q[1] - 1) for q in arc[1:]} - {0}
                assert len(gaps) <= 1  # interior strictly one side


class TestApplyConfiguration:
    def test_all_plus_is_identity(self):
        p = validate_path([(0, 0), (1, 0), (2, 0), (2, 1)])
        dec = arc_decompose(p, H21)
        assert apply_configuration(p, H21, (1,) * dec.arc_count) == p

    def test_single_arc_fully_reflected(self):
        p = validate_path([(0, 0), (1, 0), (2, 0)])
        out = apply_configuration(p, H21, (-1,))
        assert out.points == ((0, 0),) + tuple(reflect_point(q, H21)
                                               for q in ((1, 0), (2, 0)))

    def test_too_short(self):
        p = validate_path([(0, 0), (1, 0), (2, 0)])
        with pytest.raises(SignVectorTooShortError):
            apply_configuration(p, H21, ())

    def test_involution_random(self):
        rng = np.random.default_rng(31)
        for _ in range(1000):
            p = random_walk_path(rng, 2, int(rng.integers(1, 14)))
            dec = arc_decompose(p, H21)
            signs = tuple(int(s) for s in rng.choice([-1, 1], size=dec.arc_count))
            assert apply_configuration(apply_configuration(p, H21, signs), H21, signs) == p


class TestCanonicalRepresentative:
    def test_already_canonical(self):
        p = validate_path([(0, 0), (0, 1), (1, 1)])
        assert canonical_representative(p, H21) == p

    def test_mirrored_arc(self):
        p = validate_path([(0, 0), (1, 0), (2, 0), (3, 0)])  # wanders right of x=y+1
        rep = canonical_representative(p, H21)
        assert all(q[0] <= q[1] + 1 for q in rep.points)

    def test_counterexample_path_both_arcs_one_side(self):
        p = validate_path([(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)])
        h = Hyperplane(0, 1, 0)  # x1 = x2
        rep = canonical_representative(p, h)
        assert all(q[0] <= q[1] for q in rep.points)
        assert rep.points == ((0, 0, 0), (0, 1, 0), (1, 1, 0), (0, 1, 0))

    def test_class_constant(self):
        rng = np.random.default_rng(41)
        for _ in range(300):
            p = random_walk_path(rng, 2, int(rng.integers(1, 12)))
            rep = canonical_representative(p, H21)
            dec = arc_decompose(p, H21)
            signs = tuple(int(s) for s in rng.choice([-1, 1], size=dec.arc_count))
            q = apply_configuration(p, H21, signs)
            assert canonical_representative(q, H21) == rep


def _classes_by_representative(d, L, h):
    groups = {}
    for seq in all_step_sequences(d, L):
        p = validate_path(walk_points(seq, d))
        rep = canonical_representative(p, h)
        groups.setdefault(rep.points, []).append(p.points)
    return groups


@pytest.mark.parametrize("L", [3, 4, 5, 6])
def test_equivalence_classes_partition_all_paths(L):
    """Orbits under arc sign flips partition the (2d)^L paths; each class
    has size 2^(number of arcs that leave the plane)."""
    groups = _classes_by_representative(2, L, H21)
    total = 0
    for rep_points, members in groups.items():
        class_size = len(set(members))
        assert class_size == len(members)  # distinct paths, no double count
        dec = arc_decompose(validate_path(rep_points), H21)
        significant = sum(1 for arc in dec.arcs if len(arc) >= 2)
        assert class_size == 2 ** significant
        total += class_size
    assert total == 4 ** L


class TestReducePath:
    def test_staircase_already_reduced(self):
        assert reduce_path(staircase_path(4, 2)) == []
        assert reduce_path(staircase_path(6, 3)) == []

    def test_straight_path_ends_at_staircase_trace(self):
        chain = reduce_path(straight_path(3, 2))
        assert chain
        final = chain[-1][1]
        assert final.trace >= staircase_path(3, 2).trace

    def test_monotone_d3_paths_end_in_region(self, monotone_paths_d3):
        for p in monotone_paths_d3:
            chain = reduce_path(p)
            final = chain[-1][1] if chain else p
            assert all(max(q) - min(q) <= 1 for q in final.points)
            assert final.trace >= staircase_path(3, 3).trace

    def test_total_difference_monotone_and_connection_preserved(self):
        rng = np.random.default_rng(51)
        found = 0
        for _ in range(400):
            p = random_walk_path(rng, 2, int(rng.integers(2, 12)))
            norms = [l1_norm(q) for q in p.points]
            N = norms[-1]
            if N < 1 or N in norms[:-1]:
                continue
            p = normalize_to_positive_orthant(p)
            found += 1
            previous = p.total_difference
            for h, q in reduce_path(p):
                now = q.total_difference
                assert now <= previous
                if h.offset == 1:
                    assert now < previous
                previous = now
                assert q.points[0] == (0, 0)
                qnorms = [l1_norm(r) for r in q.points]
                assert qnorms[-1] == N and N not in qnorms[:-1]
        assert found > 50

    def test_rejects_non_connecting(self):
        with pytest.raises(NotConnectingError):
            reduce_path(validate_path([(0, 0), (1, 0), (0, 0)]))
        with pytest.raises(NotConnectingError):
            reduce_path(validate_path([(0, 0), (-1, 0)]))

    def test_stalled_firing_raises_instead_of_looping(self, monkeypatch):
        """The postconditions hold under python -O too: a firing that
        leaves the path unchanged stops stage 1 with a named error."""
        import walkcover.reflect as rf
        monkeypatch.setattr(rf, "canonical_representative", lambda path, h: path)
        with pytest.raises(rf.ReductionInvariantError):
            reduce_path(straight_path(3, 2))

    def test_covering_probability_never_decreases_along_chain(self):
        """Each reflection step weakly increases the exact covering
        probability (the computational content of reflection monotonicity
        and the reduction argument)."""
        cases = [
            [(0, 0), (1, 0), (2, 0), (2, 1)],
            [(0, 0), (1, 0), (2, 0), (3, 0)],
            [(0, 0), (0, 1), (0, 0), (1, 0), (1, 1)],
            [(0, 0), (1, 0), (1, -1), (1, 0), (2, 0), (2, 1)],
        ]
        L = 8
        for pts in cases:
            p = normalize_to_positive_orthant(validate_path(pts))
            prob = exact_cover_probability(CoverTarget.from_points(p.trace), 2, L).probability
            for _, q in reduce_path(p):
                nxt = exact_cover_probability(CoverTarget.from_points(q.trace), 2, L).probability
                assert nxt >= prob
                prob = nxt


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=10),
       st.integers(-2, 2))
def test_canonical_representative_idempotent(steps, offset):
    vecs = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    p = validate_path(walk_points([vecs[s] for s in steps], 2))
    h = Hyperplane(0, 1, offset)
    rep = canonical_representative(p, h)
    assert canonical_representative(rep, h) == rep
    assert set(arc_representative(rep, h)[1]) <= {1}


@st.composite
def _nearest_neighbor_paths(draw):
    """A path of at most 30 unit steps in Z^d, d = 2..5, from a start
    with coordinates in -2..2, so it may begin off the origin side."""
    d = draw(st.integers(2, 5))
    pts = [tuple(draw(st.lists(st.integers(-2, 2), min_size=d, max_size=d)))]
    for axis, sign in draw(st.lists(st.tuples(st.integers(0, d - 1), st.sampled_from((1, -1))),
                                    max_size=30)):
        q = list(pts[-1])
        q[axis] += sign
        pts.append(tuple(q))
    return validate_path(pts)


@settings(max_examples=200, deadline=None)
@given(_nearest_neighbor_paths(), st.integers(-2, 2))
def test_canonical_representative_matches_the_arc_route(p, offset):
    """The one-pass representative equals the arc decomposition's for
    every ordered axis pair; the cached total difference equals the
    pairwise sum over the trace."""
    d = p.dim
    for i, j in itertools.permutations(range(d), 2):
        h = Hyperplane(i, j, offset)
        assert canonical_representative(p, h) == arc_representative(p, h)[0]
    assert p.total_difference == sum(abs(q[a] - q[b]) for q in p.trace
                                     for a in range(d) for b in range(a + 1, d))


@pytest.mark.parametrize("call, message", [
    (lambda: Hyperplane(1, 1, 0), "need two distinct nonnegative axes"),
    (lambda: Hyperplane(-1, 0, 0), "need two distinct nonnegative axes"),
    (lambda: reflect_point((0,), Hyperplane(0, 1, 0)), "point of dimension 1 lacks axis 1")],
    ids=["equal-axes", "negative-axis", "missing-axis"])
def test_refusals(call, message):
    with pytest.raises(ValueError, match=message):
        call()
