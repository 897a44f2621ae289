import os
from dataclasses import replace

import numpy as np
import pytest

from walkcover.exact import exact_cover_probability
from walkcover import montecarlo
from walkcover.lattice import CoverTarget, unit_vector, validate_path
from walkcover.montecarlo import (DEFAULT_BATCH, DEFAULT_CHUNK, Estimate, SimConfig,
                                  _PackedTargets, _tiles, mc_compare,
                                  mc_cover_probability)
from walkcover.rng import steps_per_value, value_digits, walk_directions, walk_values

NEIGHBOR = CoverTarget.from_points([(1, 0)])


def _per_walk_success(cfg, targets):
    """(n_walks, n_targets) success indicators, for per-walk comparisons."""
    return np.concatenate(list(_tiles(cfg, targets)))


def _replay_success(cfg, targets):
    """Test-side reference: replay every walk's steps to L with no
    retiring, count its visits to each target point from time 0, and
    test every requirement.  (n_walks, n_targets) booleans."""
    ids = np.arange(cfg.n_walks, dtype=np.uint64)
    dirs = walk_directions(cfg.seed, ids, 0, cfg.L, 2 * cfg.d)
    steps = np.zeros((cfg.n_walks, cfg.L + 1, cfg.d), dtype=np.int64)
    for axis in range(cfg.d):
        steps[:, 1:, axis] = np.where(dirs >> 1 == axis, 1 - 2 * (dirs & 1), 0)
    traj = np.cumsum(steps, axis=1)
    rows = []
    for t in targets:
        visits = {p: (traj == p).all(axis=2).sum(axis=1) for p in t.trace}
        rows.append(np.all([visits[p] >= t.required(p) for p in t.trace], axis=0))
    return np.stack(rows, axis=1)


class TestEstimate:
    def test_interval_contains_p_hat(self):
        for k, n in [(0, 10), (5, 10), (10, 10), (250, 1000)]:
            e = Estimate(k, n)
            lo, hi = e.ci95
            assert 0 <= lo <= e.p_hat <= hi <= 1


class TestAnalyticCase:
    def test_quarter_within_3_sigma(self):
        cfg = SimConfig(d=2, L=1, n_walks=10**6, seed=424242)
        est = mc_cover_probability(NEIGHBOR, cfg)
        assert abs(est.p_hat - 0.25) < 0.0013

    def test_wilson_calibration_over_seeds(self):
        """~95 of 100 seed replications should cover the true value."""
        hits = 0
        for seed in range(100):
            cfg = SimConfig(d=2, L=1, n_walks=4096, seed=seed)
            lo, hi = mc_cover_probability(NEIGHBOR, cfg).ci95
            hits += lo <= 0.25 <= hi
        assert 88 <= hits <= 99


class TestDeterminism:
    def test_threads_and_batching_invariant(self, monkeypatch):
        """Tile and window boundaries change nothing: chunk 17 and 64 give
        windows of one and five 12-step values at d=3, and L = 150 ends
        inside a value."""
        tgt = CoverTarget.from_points([(1, 0, 0), (1, 1, 0)])
        other = CoverTarget.from_points([(0, 1, 0), (-1, 1, 0), (0, 0, 1)])
        runs, pairs = [], []
        for threads, batch, chunk in [(1, 8192, 256), (8, 512, 64), (3, 1000, 17),
                                      (2, DEFAULT_BATCH, DEFAULT_CHUNK)]:
            monkeypatch.setattr(montecarlo, "DEFAULT_BATCH", batch)
            monkeypatch.setattr(montecarlo, "DEFAULT_CHUNK", chunk)
            cfg = SimConfig(d=3, L=150, n_walks=30_000, seed=90210, threads=threads)
            runs.append(mc_cover_probability(tgt, cfg).successes)
            res = mc_compare([tgt, other], cfg)
            pairs.append((res.joint.tolist(), [e.successes for e in res.estimates]))
        assert len(set(runs)) == 1
        assert all(p == pairs[0] for p in pairs)
        assert pairs[0][1][0] == runs[0]

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 10])
    @pytest.mark.parametrize("threads", [1, 3])
    def test_per_walk_rows_match_replay(self, d, threads, monkeypatch):
        """Retiring covered walks, odd tile and window sizes and the worker
        pool leave every walk's success row as a plain replay of its steps
        gives it.  k = 32, 16, 12, 9, 7 steps per value for d = 1, 2, 3, 5,
        10: an odd k, and displacement tables split in two or three parts."""
        o, e1, e2 = (0,) * d, unit_vector(d, 0), unit_vector(d, min(1, d - 1))
        e12 = tuple(a + b for a, b in zip(e1, e2))
        targets = [CoverTarget.from_points([o, e1, e12]),
                   CoverTarget({e1: 2, tuple(-c for c in e2): 1}),
                   CoverTarget({o: 2, e12: 1})]
        if d == 10:  # visits are rare there: ask fewer
            targets = [CoverTarget.from_points([o, e1]), CoverTarget({e1: 2}),
                       CoverTarget({o: 2, e1: 1})]
        monkeypatch.setattr(montecarlo, "DEFAULT_BATCH", 97)
        monkeypatch.setattr(montecarlo, "DEFAULT_CHUNK", 13)
        # at d = 10 the packed keys reach only L = 30
        cfg = SimConfig(d=d, L=60 if d < 10 else 30, n_walks=1001 if d < 5 else 4001,
                        seed=4242, threads=threads)
        expect = _replay_success(cfg, targets)
        assert (0 < expect.sum(axis=0)).all() and (expect.sum(axis=0) < cfg.n_walks).all()
        assert (_per_walk_success(cfg, targets) == expect).all()
        counts = expect.astype(np.int64)
        assert mc_compare(targets, cfg).joint.tolist() == (counts.T @ counts).tolist()

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("L", [0, 5, 61, 400])
    def test_rows_match_replay_at_any_horizon(self, d, L):
        """No step, fewer steps than one value, and a partial last value,
        against targets away from the origin: a box that excludes it, a
        point k + 3 steps out that walks first come near mid-walk, a point
        out of reach beside a reachable one, and the origin alone."""
        k = steps_per_value(2 * d)
        at = lambda *c: tuple(c) + (0,) * (d - len(c))
        targets = [CoverTarget.from_points([at(2, 1), at(3, 1)]),
                   CoverTarget.from_points([at(k + 3)]),
                   CoverTarget.from_points([at(1), at(L + 1)]),
                   CoverTarget.from_points([at(0)])]
        cfg = SimConfig(d=d, L=L, n_walks=1001, seed=777, threads=2)
        expect = _replay_success(cfg, targets)
        got = _per_walk_success(cfg, targets)
        assert (got == expect).all()
        assert got[:, 3].all() and not got[:, 2].any()
        if L == 400:
            assert got[:, :2].any(axis=0).all()

    def test_trajectories_exact_when_tile_sum_wraps(self):
        """The tile-wide cumulative sum exceeds int64 here (2/3 of 512 *
        256 steps of 2**48); every position must still be exact."""
        pts = _PackedTargets(5, 2000, [(1, 0, 0, 0, 0)])
        dirs = np.full((512, 256), 8)
        dirs[::3] = 9
        pos = np.full(512, pts.origin_key, dtype=np.int64)
        expect = pos[:, None] + np.cumsum(pts.step_keys[dirs], axis=1)
        assert (pts.trajectories(pos, pts.step_keys[dirs]) == expect).all()

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 10])
    def test_displacement_tables_sum_the_steps(self, d):
        """The table lookups give each value's summed step keys, for
        stream values and for random strings, 0 and n**k - 1 included."""
        n, k = 2 * d, steps_per_value(2 * d)
        pts = _PackedTargets(d, 30, [unit_vector(d, 0)])
        ids = np.arange(50, dtype=np.uint64)
        dirs = walk_directions(3, ids, 0, 20 * k, n).reshape(50, 20, k)
        assert (pts.displacement(walk_values(3, ids, 0, 20, n))
                == pts.step_keys[dirs].sum(axis=2)).all()
        q = np.random.default_rng(d).integers(0, n**k, 10_000, dtype=np.uint64)
        q = np.concatenate([q, [0, n**k - 1]]).astype(np.uint32)
        assert (pts.displacement(q) == pts.step_keys[value_digits(q, n, k)].sum(axis=1)).all()

    @pytest.mark.parametrize("d", [1, 3, 5])
    def test_near_is_the_l1_distance_to_the_box(self, d):
        """``near`` keeps exactly the positions within L1 distance k of
        the box of the reachable points."""
        L, k = 100, steps_per_value(2 * d)
        points = [tuple(int(c) for c in row) for row in
                  np.random.default_rng(d).integers(-3, 6, (3, d))] + [(L + 1,) * d]
        pts = _PackedTargets(d, L, points)
        lo, hi = np.min(points[:3], axis=0), np.max(points[:3], axis=0)
        coords = np.random.default_rng(7).integers(-40, 41, (20_000, d))
        dist = (np.maximum(lo - coords, 0) + np.maximum(coords - hi, 0)).sum(axis=1)
        bits = montecarlo._pack_bits(d, L)
        keys = ((coords + (1 << bits - 1)) << (bits * np.arange(d))).sum(axis=1)
        assert (pts.near(keys) == np.flatnonzero(dist <= k)).all()

    def test_workers_capped_by_tiles_and_cpus(self, monkeypatch):
        """A huge thread count starts one worker per tile at most, and
        one per usable CPU at most; a fake pool records the request and
        starts no thread."""
        requested = []

        class FakePool:
            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", FakePool)
        cfg = SimConfig(d=2, L=3, n_walks=5 * DEFAULT_BATCH, seed=1, threads=10**6)
        expect = _per_walk_success(replace(cfg, threads=1), [NEIGHBOR])
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        assert (_per_walk_success(cfg, [NEIGHBOR]) == expect).all()
        assert requested == ([min(5, cpus)] if min(5, cpus) > 1 else [])
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4096)), raising=False)
        assert (_per_walk_success(cfg, [NEIGHBOR]) == expect).all()
        assert requested[-1] == 5
        _per_walk_success(replace(cfg, n_walks=DEFAULT_BATCH), [NEIGHBOR])
        assert requested[-1] == 5  # one tile runs on the calling thread

    def test_unreachable_points_never_hit(self):
        """(8, -1) lies beyond L = 2 steps; its key must not alias a
        reachable position (it once packed onto the origin's key)."""
        far = CoverTarget.from_points([(8, -1)])
        near = CoverTarget.from_points([(1, 0)])
        mixed = CoverTarget.from_points([(8, -1), (1, 0)])
        cfg = SimConfig(d=2, L=2, n_walks=4096, seed=0)
        assert mc_cover_probability(far, cfg).successes == 0
        assert mc_cover_probability(mixed, cfg).successes == 0
        assert mc_compare([far], cfg).estimates[0].successes == 0
        res = mc_compare([far, near, mixed], cfg)
        counts = [e.successes for e in res.estimates]
        assert counts[0] == counts[2] == 0
        assert counts[1] == mc_cover_probability(near, cfg).successes > 0


class TestModeAndHorizonMonotonicity:
    def test_trace_dominates_repetitions_per_walk(self):
        p = validate_path([(0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 0, 0)])
        cfg = SimConfig(d=3, L=300, n_walks=20_000, seed=8)
        rep = _per_walk_success(cfg, [CoverTarget.of_path(p, "repetitions")])
        tr = _per_walk_success(cfg, [CoverTarget.of_path(p, "trace")])
        assert (tr[:, 0] >= rep[:, 0]).all()
        assert tr.sum() >= rep.sum()

    def test_longer_horizon_dominates_per_walk(self):
        tgt = CoverTarget.from_points([(1, 1), (0, 2)])
        short = _per_walk_success(SimConfig(2, 40, 15_000, 13), [tgt])
        long = _per_walk_success(SimConfig(2, 90, 15_000, 13), [tgt])
        assert (long[:, 0] >= short[:, 0]).all()


class TestAgreementWithExact:
    def test_twenty_random_targets_within_4_sigma(self):
        rng = np.random.default_rng(515151)
        d, L, n = 2, 8, 10**6
        for case in range(20):
            size = int(rng.integers(1, 4))
            pts = {tuple(int(v) for v in rng.integers(-2, 3, size=d))
                   for _ in range(size)}
            tgt = CoverTarget.from_points(pts)
            truth = float(exact_cover_probability(tgt, d, L).probability)
            est = mc_cover_probability(tgt, SimConfig(d, L, n, seed=1000 + case))
            sigma = max(est.stderr, 1e-9)
            assert abs(est.p_hat - truth) < 4 * sigma + 1e-9, (pts, truth, est.p_hat)


class TestCompare:
    def test_paired_stderr_matches_per_walk_differences(self):
        a = CoverTarget.from_points([(1, 0), (1, 1)])
        b = CoverTarget.from_points([(0, 1), (-1, 1)])
        cfg = SimConfig(d=2, L=40, n_walks=20_000, seed=21)
        res = mc_compare([a, b], cfg)
        per_walk = _per_walk_success(cfg, [a, b]).astype(float)
        diff = per_walk[:, 0] - per_walk[:, 1]
        got_diff, got_se = res.paired_diff(0, 1)
        assert got_diff == pytest.approx(diff.mean(), abs=1e-15)
        assert got_se == pytest.approx(diff.std() / np.sqrt(cfg.n_walks), rel=1e-12)

    def test_duplicate_targets_identical_under_common_rng(self):
        tgt = CoverTarget.from_points([(1, 0), (1, 1)])
        cfg = SimConfig(d=2, L=60, n_walks=20_000, seed=3)
        res = mc_compare([tgt, tgt], cfg)
        assert res.estimates[0].successes == res.estimates[1].successes
        diff, se = res.paired_diff(0, 1)
        assert diff == 0 and se == 0

    def test_staircase_beats_straight_d2(self):
        from walkcover.lattice import staircase_path, straight_path
        stair = CoverTarget.of_path(staircase_path(4, 2))
        straight = CoverTarget.of_path(straight_path(4, 2))
        cfg = SimConfig(d=2, L=100, n_walks=10**6, seed=99)
        res = mc_compare([stair, straight], cfg)
        diff, se = res.paired_diff(0, 1)
        assert diff > 4 * se


class TestValidation:
    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mc_cover_probability(NEIGHBOR, SimConfig(d=3, L=5, n_walks=10, seed=1))

    @pytest.mark.parametrize("threads", [0, -3])
    def test_threads_below_one(self, threads):
        with pytest.raises(ValueError, match="threads"):
            SimConfig(d=2, L=5, n_walks=10, seed=1, threads=threads)

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**65 - 1])
    def test_seed_outside_64_bits(self, seed):
        """The Philox key holds 64 bits; a wider seed would alias another."""
        with pytest.raises(ValueError, match="seed"):
            SimConfig(d=2, L=5, n_walks=10, seed=seed)
