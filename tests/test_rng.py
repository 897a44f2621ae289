import numpy as np
import pytest

from walkcover.rng import (STREAM_VERSION, philox4x32, steps_per_value,
                           walk_directions, walk_values, walk_words)


def _block(c, k):
    arr = lambda v: np.array([v], dtype=np.uint32)
    out = philox4x32(arr(c[0]), arr(c[1]), arr(c[2]), arr(c[3]),
                     arr(k[0]), arr(k[1]))
    return [int(w[0]) for w in out]


class TestKnownAnswers:
    """Published test vectors for the 10-round 4x32 block function."""

    def test_zero_vector(self):
        assert _block((0, 0, 0, 0), (0, 0)) == [
            0x6627E8D5, 0xE169C58D, 0xBC57AC4C, 0x9B00DBD8]

    def test_ones_vector(self):
        f = 0xFFFFFFFF
        assert _block((f, f, f, f), (f, f)) == [
            0x408F276D, 0x41C83B0E, 0xA20BC7C6, 0x6D5451FD]

    def test_pi_vector(self):
        assert _block((0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344),
                      (0xA4093822, 0x299F31D0)) == [
            0xD16CFE09, 0x94FDCCEB, 0x5001E420, 0x24126EA1]


class TestStreams:
    def test_blocks_concatenate(self):
        ids = np.arange(5, dtype=np.uint64)
        whole = walk_words(99, ids, 0, 8)
        first = walk_words(99, ids, 0, 3)
        rest = walk_words(99, ids, 3, 5)
        assert (np.concatenate([first, rest], axis=1) == whole).all()

    @pytest.mark.parametrize("draw", [
        lambda seed, ids: walk_words(seed, ids, 0, 2),
        lambda seed, ids: walk_values(seed, ids, 0, 3, 6),
        lambda seed, ids: walk_directions(seed, ids, 0, 50, 6)],
        ids=["words", "values", "directions"])
    def test_seed_holds_64_bits(self, draw):
        """A seed outside [0, 2**64) would alias another seed's streams."""
        ids = np.arange(4, dtype=np.uint64)
        for seed in (-1, 2**64, 2**65 - 1):
            with pytest.raises(ValueError, match="seed"):
                draw(seed, ids)
        assert not (draw(0, ids) == draw(2**64 - 1, ids)).all()

    def test_step_windows_consistent(self):
        ids = np.array([7, 123456], dtype=np.uint64)
        for nsides in (4, 6, 8, 20):
            k = steps_per_value(nsides)
            full = walk_directions(5, ids, 0, 64 + 4 * k, nsides)
            # windows starting and ending inside a value, across value and
            # Philox-block boundaries
            for s0, n in [(0, 10), (3, 13), (17, 40), (63, 1), (k - 1, 2),
                          (k + 1, 2 * k + 3), (63 + 4 * k, 1), (5, 0)]:
                window = walk_directions(5, ids, s0, n, nsides)
                assert window.shape == (2, n)
                assert (window == full[:, s0:s0 + n]).all(), (nsides, s0, n)

    def test_streams_differ_across_walks_and_seeds(self):
        ids = np.arange(4, dtype=np.uint64)
        a = walk_words(1, ids, 0, 4)
        assert len({tuple(row) for row in a}) == 4
        b = walk_words(2, ids, 0, 4)
        assert not (a == b).all()

    def test_directions_uniform_chi2(self):
        ids = np.arange(2000, dtype=np.uint64)
        dirs = walk_directions(31337, ids, 0, 120, 6).ravel()
        counts = np.bincount(dirs, minlength=6)
        expect = len(dirs) / 6
        chi2 = float(((counts - expect) ** 2 / expect).sum())
        assert chi2 < 30  # 5 dof; generous cutoff far beyond any sane quantile

    def test_adjacent_pairs_uniform_chi2(self):
        """Consecutive steps are independent: the 36 ordered pairs at d=3
        (within a value and across value boundaries) are uniform."""
        ids = np.arange(2000, dtype=np.uint64)
        dirs = walk_directions(4242, ids, 0, 121, 6)
        pairs = (6 * dirs[:, :-1] + dirs[:, 1:]).ravel()
        counts = np.bincount(pairs, minlength=36)
        expect = len(pairs) / 36
        chi2 = float(((counts - expect) ** 2 / expect).sum())
        assert chi2 < 80  # 35 dof; P(chi2 > 80) is about 2e-5


def _scalar_steps(seed: int, walk: int, nsides: int, nsteps: int) -> list[int]:
    """Stream v2 written out with Python integers: value v is words 2v
    (high) and 2v + 1 (low); its k steps are the base-nsides digits,
    most significant first, of floor(value * nsides**k / 2**64)."""
    k = steps_per_value(nsides)
    nvalues = -(-nsteps // k)
    words = walk_words(seed, np.array([walk], np.uint64), 0, (nvalues + 1) // 2)[0]
    steps = []
    for v in range(nvalues):
        value = (int(words[2 * v]) << 32) | int(words[2 * v + 1])
        q = value * nsides**k >> 64
        steps += [q // nsides**(k - 1 - j) % nsides for j in range(k)]
    return steps[:nsteps]


class TestStreamV2:
    """Pins stream version 2: a change to any of these steps must bump
    ``STREAM_VERSION``."""

    WALKS = np.array([0, 2**32 + 5], dtype=np.uint64)
    KNOWN = {
        4: [[1, 2, 1, 2, 0, 2, 1, 3, 3, 2, 2, 0, 3, 1, 1, 1, 2, 3, 3, 0],
            [2, 2, 3, 0, 2, 0, 1, 2, 1, 3, 3, 0, 1, 2, 2, 2, 3, 0, 3, 2]],
        6: [[2, 2, 2, 1, 0, 5, 5, 2, 5, 0, 0, 4, 4, 2, 2, 5, 2, 5, 2, 2],
            [4, 0, 1, 3, 2, 2, 4, 2, 4, 2, 1, 2, 4, 5, 0, 2, 0, 1, 5, 3]],
        20: [[7, 19, 12, 7, 8, 14, 2, 14, 14, 5, 14, 0, 18, 4, 19, 8, 17, 18, 11, 16],
             [13, 9, 11, 8, 6, 13, 19, 16, 2, 17, 2, 9, 5, 5, 11, 5, 6, 6, 4, 19]],
    }

    def test_version(self):
        assert STREAM_VERSION == 2

    @pytest.mark.parametrize("nsides", sorted(KNOWN))
    def test_known_answers_seed0(self, nsides):
        got = walk_directions(0, self.WALKS, 0, 20, nsides)
        assert got.tolist() == self.KNOWN[nsides]

    def test_steps_per_value(self):
        assert {n: steps_per_value(n) for n in (2, 4, 6, 8, 20)} == {
            2: 32, 4: 16, 6: 12, 8: 10, 20: 7}
        for bad in (1, 1 << 17):
            with pytest.raises(ValueError):
                steps_per_value(bad)

    @pytest.mark.parametrize("nsides", [2, 4, 6, 7, 20])
    def test_matches_scalar_definition(self, nsides):
        n = 3 * steps_per_value(nsides) + 5
        got = walk_directions(77, self.WALKS, 0, n, nsides)
        for row, walk in zip(got.tolist(), self.WALKS):
            assert row == _scalar_steps(77, int(walk), nsides, n)
