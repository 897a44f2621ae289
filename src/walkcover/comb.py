"""Sign-configuration coverage counting over a finite ground set.

The objects: a ground set {1..n}, an ordered collection of *arcs* (subsets
of the ground set, repeats and empties allowed), and a *configuration*
assigning each arc a sign.  A configuration turns the collection into a
signed set: the union of +V_k for kept arcs and -V_k for flipped ones.
A configuration *covers the reflection of* A when every element of A
appears positively and every element of the complement appears
negatively.

``cover_count`` enumerates the configurations achieving this.  The key
inequality, verified here by brute force, is that no reflection target A
admits more covering configurations than A = ground set itself.  One
batched numpy kernel counts them: ``inequality_witnesses`` runs it over
every collection of one shape, ``check_cover_inequality`` and
``cover_count`` over a single collection.  The tests hold the kernel to
an independent route, a recursion on the last arc in pure Python.
These counts are the combinatorial shadow of path-reflection classes:
arcs play the role of which target points an arc of a walk visits,
signs the role of reflecting that arc.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

#: Work allowed in one enumeration, counted as 2^m (2^n + m) per
#: instance of m arcs over n elements: the 2^m signed unions, each built
#: from m arcs and tested against 2^n subsets.  At about 0.2 us a unit
#: this is a few seconds of the tests' pure-Python split route.
MAX_ENUM_WORK = 2**24


class TooLargeError(ValueError):
    """Instance exceeds the exhaustive-enumeration guard."""


def check_work(n: int, m: int, log2_instances: int = 0) -> None:
    """Raise ``TooLargeError`` unless enumerating 2^log2_instances
    collections of m arcs over n elements fits ``MAX_ENUM_WORK``."""
    if n < 1 or m < 0:
        raise ValueError(f"need n >= 1 and m >= 0, got n={n}, m={m}")
    bits = MAX_ENUM_WORK.bit_length()
    if (n >= bits or m + log2_instances >= bits
            or 2 ** (m + log2_instances) * (2**n + m) > MAX_ENUM_WORK):
        raise TooLargeError(f"2^{log2_instances} collection(s) of {m} arcs over {n} "
                            f"elements exceed the enumeration guard of "
                            f"{MAX_ENUM_WORK} work units")


#: (collection, sign choice, subset) triples the kernel tests in one batch.
#: It bounds the temporaries of ``inequality_witnesses`` at 64 KB an array
#: for every shape inside the guard; one collection holds all 2^m unions.
_BATCH = 1 << 13


def _mask_of(elements: Iterable[int], n: int) -> int:
    m = 0
    for e in elements:
        if not 1 <= e <= n:
            raise ValueError(f"element {e} outside ground set 1..{n}")
        m |= 1 << (e - 1)
    return m


@dataclass(frozen=True)
class ArcCollection:
    """Ordered arcs over the ground set {1..n}."""

    n: int
    arcs: tuple[frozenset[int], ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("ground set must be nonempty")
        for a in self.arcs:
            _mask_of(a, self.n)

    def masks(self) -> tuple[int, ...]:
        return tuple(_mask_of(a, self.n) for a in self.arcs)


def _row(V: ArcCollection) -> np.ndarray:
    """One collection's arc masks as a kernel row, once the work guard allows them."""
    check_work(V.n, len(V.arcs))
    return np.array([V.masks()], dtype=np.int64)


def cover_count(V: ArcCollection, A: Iterable[int]) -> int:
    """Number of configurations covering the reflection of A, by
    exhaustive enumeration over all 2^m sign choices."""
    pos, neg = _union_masks(_row(V))
    a_mask = np.array([_mask_of(A, V.n)], dtype=np.int64)
    return int(_cover_counts(pos, neg, a_mask, (1 << V.n) - 1)[0, 0])


def check_cover_inequality(V: ArcCollection) -> tuple[bool, frozenset[int] | None]:
    """Verify that A = full ground set maximizes ``cover_count`` over all
    A; returns (True, None) or (False, witness) with a violating A.

    No witness should ever be produced: one is a bug detector.
    """
    witness = int(_first_witnesses(_row(V), V.n, np.full(1, -1, dtype=np.int32))[0])
    return (True, None) if witness < 0 else (False, mask_elements(witness))


def mask_elements(mask: int) -> frozenset[int]:
    """The elements of a subset mask: e for each set bit e - 1."""
    return frozenset(e + 1 for e in range(mask.bit_length()) if mask >> e & 1)


def all_collections(n: int, m: int):
    """Every arc collection with the given shape (2^(n*m) of them)."""
    for c in range(1 << n * m):
        yield collection_at(n, m, c)


def collection_at(n: int, m: int, index: int) -> ArcCollection:
    """The collection at position ``index`` of ``all_collections(n, m)``."""
    return ArcCollection(n, tuple(mask_elements(int(a))
                                  for a in _arc_masks(n, m, index, index + 1)[0]))


# ---------------------------------------------------------------------------
# the batched kernel
# ---------------------------------------------------------------------------

def _arc_masks(n: int, m: int, first: int, stop: int) -> np.ndarray:
    """Arc masks of collections first..stop-1 in ``all_collections``
    order, one row each: arc k of collection c is base-2^n digit m-1-k
    of c.

    The masks stay int64, the dtype of the package's other numpy code:
    bitwise loops on a narrower dtype would page in numpy code that
    nothing else runs, which costs more resident memory than the
    kernel's batches."""
    index = np.arange(first, stop, dtype=np.int64)[:, None]
    shifts = n * np.arange(m - 1, -1, -1, dtype=np.int64)
    return (index >> shifts) & ((1 << n) - 1)


def _union_masks(arcs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positive and negative unions of every sign choice for each row of
    arc masks; column b flips arc k negative when bit k of b is set."""
    pos = neg = np.zeros((arcs.shape[0], 1), dtype=arcs.dtype)
    for k in range(arcs.shape[1]):
        arc = arcs[:, k:k + 1]
        pos, neg = np.hstack([pos | arc, pos]), np.hstack([neg, neg | arc])
    return pos, neg


def _cover_counts(pos: np.ndarray, neg: np.ndarray, subsets: np.ndarray,
                  full: int) -> np.ndarray:
    """Covering count of each subset mask (columns) for each row of
    signed unions: the sign choices whose positive union holds A and
    whose negative union holds its complement."""
    a = subsets[None, None, :]
    ok = (a & ~pos[:, :, None]) == 0
    ok &= ((full ^ a) & ~neg[:, :, None]) == 0
    return _count(ok)


def _count(flags: np.ndarray) -> np.ndarray:
    """True flags along axis 1, summed as bytes: the uint8 reduction the
    sweep's bit counts already run, where a bool sum casts first."""
    return flags.view(np.uint8).sum(axis=1)


def _first_excess(counts: np.ndarray, top: np.ndarray) -> np.ndarray:
    """Per row, the first column whose count exceeds ``top``, or -1."""
    bad = counts > top[:, None]
    return np.where(bad.any(axis=1), bad.argmax(axis=1), -1)


def _first_witnesses(arcs: np.ndarray, n: int, found: np.ndarray) -> np.ndarray:
    """Per row of arc masks, set ``found`` (-1 on entry) to the mask of the
    first A in increasing mask order whose covering count exceeds that of
    A = ground set, in place, so a caller can pass a slice of its result.
    Subsets go in batches of at most ``_BATCH`` triples."""
    full = (1 << n) - 1
    pos, neg = _union_masks(arcs)
    top = _count(pos == full)  # A = ground set: positive part is everything
    span = min(1 << n, max(1, _BATCH // pos.size))
    for start in range(0, 1 << n, span):
        subsets = np.arange(start, min(1 << n, start + span), dtype=pos.dtype)
        hit = _first_excess(_cover_counts(pos, neg, subsets, full), top)
        new = (found < 0) & (hit >= 0)
        found[new] = start + hit[new]
    return found


def inequality_witnesses(n: int, m: int) -> np.ndarray:
    """``check_cover_inequality`` for every collection of m arcs over n
    elements.

    Entry c is for the c-th collection of ``all_collections(n, m)``: -1
    when it satisfies the inequality, else the mask (bit e-1 for element
    e) of its first violating A in increasing mask order, the witness
    ``check_cover_inequality`` returns.  A batch holds as many collections
    as fit ``_BATCH`` triples over all their subsets, at least one, so
    memory stays flat up to the guard.
    """
    check_work(n, m, log2_instances=n * m)
    total = 1 << n * m
    rows = max(1, _BATCH // (1 << m + n))
    witnesses = np.full(total, -1, dtype=np.int32)
    for first in range(0, total, rows):
        stop = min(total, first + rows)
        _first_witnesses(_arc_masks(n, m, first, stop), n, witnesses[first:stop])
    return witnesses
