import itertools
import tracemalloc
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import walkcover.comb as comb
from walkcover.comb import (ArcCollection, TooLargeError, all_collections,
                            check_cover_inequality, collection_at, cover_count,
                            inequality_witnesses, mask_elements)


def collection_of(n: int, *arcs: Iterable[int]) -> ArcCollection:
    return ArcCollection(n, tuple(frozenset(a) for a in arcs))


# Set-wise references for a single configuration: the definitions that
# the mask routes count.

class LengthMismatchError(ValueError):
    """Configuration length differs from arc count."""


@dataclass(frozen=True)
class SignedSet:
    """Positive and negative parts of a configuration's signed union."""

    positive: frozenset[int]
    negative: frozenset[int]


def _check_config(V: ArcCollection, signs: Sequence[int]) -> None:
    if len(signs) != len(V.arcs):
        raise LengthMismatchError(f"{len(signs)} signs for {len(V.arcs)} arcs")
    if any(s not in (-1, 1) for s in signs):
        raise ValueError("signs must be +/-1")


def inner_product(V: ArcCollection, signs: Sequence[int]) -> SignedSet:
    """Union of the signed arcs."""
    _check_config(V, signs)
    pos: frozenset[int] = frozenset()
    neg: frozenset[int] = frozenset()
    for a, s in zip(V.arcs, signs):
        if s == 1:
            pos |= a
        else:
            neg |= a
    return SignedSet(pos, neg)


def covers(V: ArcCollection, signs: Sequence[int], A: Iterable[int]) -> bool:
    """True iff A lands in the positive part and its complement in the
    negative part."""
    union = inner_product(V, signs)
    A = frozenset(A)
    comb._mask_of(A, V.n)  # raises for an element outside the ground set
    return A <= union.positive and frozenset(range(1, V.n + 1)) - A <= union.negative


class TestInnerProduct:
    def test_basic_split(self):
        V = collection_of(2, {1}, {1, 2})
        s = inner_product(V, (1, -1))
        assert s.positive == {1} and s.negative == {1, 2}

    def test_all_plus(self):
        V = collection_of(3, {1}, {2, 3})
        s = inner_product(V, (1, 1))
        assert s.positive == {1, 2, 3} and s.negative == set()

    def test_empty_arc_sign_irrelevant(self):
        V = collection_of(2, {1}, set())
        assert inner_product(V, (1, 1)) == inner_product(V, (1, -1))

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            inner_product(collection_of(2, {1}), (1, 1))


class TestCovers:
    def test_singleton(self):
        V = collection_of(1, {1}, {1})
        assert covers(V, (1, 1), {1})
        assert not covers(V, (1, 1), set())  # complement needs a negative copy

    def test_mixed(self):
        V = collection_of(2, {1, 2}, {1})
        assert covers(V, (-1, 1), {1})

    def test_counts_agree_with_mask_route(self):
        """Summed over sign vectors, the set-wise test gives cover_count."""
        V = collection_of(3, {1, 2}, {2, 3}, {1}, set(), {3})
        for A in ({1, 2, 3}, {2}, set(), {1, 3}):
            hits = sum(covers(V, s, A) for s in itertools.product((1, -1), repeat=len(V.arcs)))
            assert hits == cover_count(V, A), A

    def test_rejects_bad_input(self):
        V = collection_of(2, {1, 2}, {1})
        with pytest.raises(ValueError, match="outside ground set"):
            covers(V, (1, 1), {3})
        with pytest.raises(LengthMismatchError):
            covers(V, (1,), {1})


def brute_count(V: ArcCollection, A) -> int:
    """Oracle: try all sign vectors via the definition, set-wise."""
    A = frozenset(A)
    comp = frozenset(range(1, V.n + 1)) - A
    total = 0
    for signs in itertools.product((1, -1), repeat=len(V.arcs)):
        s = inner_product(V, signs)
        if A <= s.positive and comp <= s.negative:
            total += 1
    return total


def _signed_unions(masks: Sequence[int]) -> list[tuple[int, int]]:
    m = len(masks)
    out = []
    for bits in range(1 << m):
        pos = neg = 0
        for k in range(m):
            if bits >> k & 1:
                neg |= masks[k]
            else:
                pos |= masks[k]
        out.append((pos, neg))
    return out


def cover_count_split(V: ArcCollection, A: Iterable[int]) -> int:
    """Independent route to ``cover_count``: split on the last arc.

    Configurations either already cover using the first m-1 arcs (each
    extends both ways), or the last arc must mop up exactly the uncovered
    remainder with one specific sign.
    """
    comb.check_work(V.n, len(V.arcs))
    a_mask = comb._mask_of(A, V.n)
    full = (1 << V.n) - 1
    comp = full ^ a_mask

    def rec(masks: tuple[int, ...]) -> int:
        if not masks:
            return 1 if a_mask == 0 and comp == 0 else 0
        head, last = masks[:-1], masks[-1]
        count = 2 * rec(head)
        for pos, neg in _signed_unions(head):
            miss_pos = a_mask & ~pos
            miss_neg = comp & ~neg
            if miss_pos == 0 and miss_neg == 0:
                continue  # already counted, both extensions
            if (miss_pos & ~last) == 0 and miss_neg == 0:
                count += 1  # last arc kept positive finishes the job
            if (miss_neg & ~last) == 0 and miss_pos == 0:
                count += 1  # last arc flipped negative finishes the job
        return count

    return rec(V.masks())


def product_order_collections(n: int, m: int):
    """Every collection of m arcs over n elements in ``itertools.product``
    order of the subsets, the order ``collection_at`` indexes."""
    subsets = [mask_elements(bits) for bits in range(1 << n)]
    for combo in itertools.product(subsets, repeat=m):
        yield ArcCollection(n, combo)


class TestCoverCount:
    def test_two_copies_of_singleton(self):
        V = collection_of(1, {1}, {1})
        assert cover_count(V, {1}) == 3  # any sign vector with a +1 somewhere

    def test_nested_arcs(self):
        V = collection_of(2, {1, 2}, {1})
        assert cover_count(V, {1, 2}) == 2
        assert cover_count(V, {1}) == 1

    def test_full_arc_base_case(self):
        V = collection_of(2, {1, 2})
        assert cover_count(V, {1, 2}) == 1

    def test_empty_collection_of_empties(self):
        V = collection_of(2, set(), set())
        assert all(cover_count(V, A) == 0
                   for A in ({1, 2}, {1}, {2}, set()))

    def test_guard(self):
        V = ArcCollection(2, tuple([frozenset({1})] * 31))
        with pytest.raises(TooLargeError):
            cover_count(V, {1})

    def test_matches_brute_oracle_everywhere(self):
        for n, m in [(1, 3), (2, 2), (2, 3), (3, 2)]:
            for V in all_collections(n, m):
                for bits in range(1 << n):
                    A = {e + 1 for e in range(n) if bits >> e & 1}
                    assert cover_count(V, A) == brute_count(V, A)

    def test_split_route_agrees(self):
        for n in (1, 2, 3):
            for m in (1, 2, 3, 4):
                for V in all_collections(n, m):
                    for bits in range(1 << n):
                        A = {e + 1 for e in range(n) if bits >> e & 1}
                        assert cover_count_split(V, A) == cover_count(V, A)


class TestInvariants:
    def test_full_equals_empty_by_symmetry(self):
        for n, m in [(2, 3), (3, 3)]:
            for V in all_collections(n, m):
                assert cover_count(V, range(1, n + 1)) == cover_count(V, set())

    def test_sign_flip_equivariance(self):
        """Negating every sign swaps the roles of A and its complement."""
        for n, m in [(2, 2), (3, 2), (2, 4)]:
            for V in all_collections(n, m):
                for bits in range(1 << n):
                    A = {e + 1 for e in range(n) if bits >> e & 1}
                    comp = set(range(1, n + 1)) - A
                    assert cover_count(V, A) == cover_count(V, comp)

    def test_appending_arc_never_decreases(self):
        for n, m in [(2, 2), (3, 2)]:
            for V in all_collections(n, m):
                for extra_bits in range(1 << n):
                    extra = frozenset(e + 1 for e in range(n) if extra_bits >> e & 1)
                    W = ArcCollection(n, V.arcs + (extra,))
                    for bits in range(1 << n):
                        A = {e + 1 for e in range(n) if bits >> e & 1}
                        assert cover_count(W, A) >= cover_count(V, A)

    def test_inequality_exhaustive_small(self):
        for n in (1, 2, 3):
            for m in (1, 2, 3):
                for V in all_collections(n, m):
                    ok, witness = check_cover_inequality(V)
                    assert ok, f"violation at {V}: {witness}"


class TestBatchedKernel:
    """``inequality_witnesses`` against the per-collection references."""

    def test_counts_match_split_route(self):
        for n in (1, 2):
            for m in (0, 1, 2, 3):
                full = (1 << n) - 1
                arcs = comb._arc_masks(n, m, 0, 1 << n * m)
                pos, neg = comb._union_masks(arcs)
                subsets = np.arange(1 << n, dtype=arcs.dtype)
                counts = comb._cover_counts(pos, neg, subsets, full)
                for c, V in enumerate(product_order_collections(n, m)):
                    assert collection_at(n, m, c) == V
                    for a in range(1 << n):
                        assert counts[c, a] == cover_count_split(V, mask_elements(a))

    def test_verdicts_match_reference_on_criterion_5(self):
        """Witnesses against the split route's counts over every subset;
        ``check_cover_inequality`` reads the kernel, so it is no reference."""
        cases = 0
        for n in (1, 2, 3):
            for m in (1, 2, 3, 4):
                witnesses = inequality_witnesses(n, m)
                expected = []
                for V in all_collections(n, m):
                    counts = [cover_count_split(V, mask_elements(a)) for a in range(1 << n)]
                    expected.append(next((a for a, c in enumerate(counts) if c > counts[-1]),
                                         -1))
                assert witnesses.tolist() == expected
                assert [check_cover_inequality(V) for V in all_collections(n, m)] == [
                    (True, None) if w < 0 else (False, mask_elements(w)) for w in expected]
                cases += len(witnesses)
        assert cases == 5050

    def test_empty_collection(self):
        assert inequality_witnesses(1, 0).tolist() == [-1]

    def test_first_excess_finds_the_first_violation(self):
        """No real collection violates the inequality, so plant some: the
        last column is A = ground set."""
        counts = np.array([[2, 1, 0, 2], [1, 3, 4, 2], [0, 0, 5, 0], [0, 0, 0, 0]])
        assert comb._first_excess(counts, counts[:, -1]).tolist() == [-1, 1, 2, -1]

    def test_witness_kept_across_subset_batches(self, monkeypatch):
        """With one subset pair per batch, a planted excess at A = {1, 2}
        and A = {1, 3} reports {1, 2}, the first in mask order."""
        real = comb._cover_counts

        def planted(pos, neg, subsets, full):
            counts = real(pos, neg, subsets, full)
            counts[:, np.isin(subsets, (0b011, 0b101))] += 1 << pos.shape[1]
            return counts

        monkeypatch.setattr(comb, "_BATCH", 4)
        monkeypatch.setattr(comb, "_cover_counts", planted)
        assert inequality_witnesses(3, 1).tolist() == [0b011] * 8

    @pytest.mark.parametrize("n, m", [(24, 0), (1, 10), (3, 5), (11, 1)])
    def test_memory_flat_up_to_the_guard(self, n, m):
        tracemalloc.start()
        try:
            witnesses = inequality_witnesses(n, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(witnesses) == 2 ** (n * m) and peak <= 2 * 2**20

    def test_guard_before_allocation(self):
        with pytest.raises(TooLargeError):
            inequality_witnesses(1, 11)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.data())
def test_inequality_random_larger_instances(n, data):
    m = data.draw(st.integers(1, 6))
    arcs = tuple(frozenset(data.draw(st.sets(st.integers(1, n))))
                 for _ in range(m))
    ok, witness = check_cover_inequality(ArcCollection(n, arcs))
    assert ok, witness


@pytest.mark.parametrize("call, message", [
    (lambda: ArcCollection(0, ()), "ground set must be nonempty")],
    ids=["empty-ground-set"])
def test_refusals(call, message):
    with pytest.raises(ValueError, match=message):
        call()
