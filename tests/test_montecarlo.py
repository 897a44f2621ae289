import numpy as np
import pytest

from walkcover.exact import exact_cover_probability
from walkcover.lattice import REPETITIONS, CoverTarget, unit_vector, validate_path
from walkcover.montecarlo import (DEFAULT_BATCH, DEFAULT_CHUNK, Estimate, SimConfig,
                                  _PackedTargets, _per_walk_success, mc_compare,
                                  mc_cover_probability)
from walkcover.rng import walk_directions

NEIGHBOR = CoverTarget.from_points([(1, 0)])


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
    def test_threads_and_batching_invariant(self):
        """Tile and step-window boundaries change nothing: chunk 17 makes
        windows that start and end inside the 12-step values at d=3."""
        tgt = CoverTarget.from_points([(1, 0, 0), (1, 1, 0)])
        other = CoverTarget.from_points([(0, 1, 0), (-1, 1, 0), (0, 0, 1)])
        runs, pairs = [], []
        for threads, batch, chunk in [(1, 8192, 256), (8, 512, 64), (3, 1000, 17),
                                      (2, DEFAULT_BATCH, DEFAULT_CHUNK)]:
            cfg = SimConfig(d=3, L=150, n_walks=30_000, seed=90210,
                            threads=threads, batch_walks=batch, chunk_steps=chunk)
            runs.append(mc_cover_probability(tgt, cfg).successes)
            res = mc_compare([tgt, other], cfg)
            pairs.append((res.joint.tolist(), [e.successes for e in res.estimates]))
        assert len(set(runs)) == 1
        assert all(p == pairs[0] for p in pairs)
        assert pairs[0][1][0] == runs[0]

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("threads", [1, 3])
    def test_per_walk_rows_match_replay(self, d, threads):
        """Retiring covered walks, odd tile and step-window sizes and the
        worker pool leave every walk's success row as a plain replay of
        its steps gives it."""
        o, e1, e2 = (0,) * d, unit_vector(d, 0), unit_vector(d, 1)
        e12 = tuple(a + b for a, b in zip(e1, e2))
        targets = [CoverTarget.from_points([o, e1, e12]),
                   CoverTarget(REPETITIONS, frozenset([e1, unit_vector(d, 1, -1)]),
                               {e1: 2, unit_vector(d, 1, -1): 1}),
                   CoverTarget(REPETITIONS, frozenset([o, e12]), {o: 2, e12: 1})]
        cfg = SimConfig(d=d, L=60, n_walks=1001, seed=4242, threads=threads,
                        batch_walks=97, chunk_steps=13)
        expect = _replay_success(cfg, targets)
        assert (0 < expect.sum(axis=0)).all() and (expect.sum(axis=0) < cfg.n_walks).all()
        assert (_per_walk_success(cfg, targets) == expect).all()
        counts = expect.astype(np.int64)
        assert mc_compare(targets, cfg).joint.tolist() == (counts.T @ counts).tolist()

    def test_trajectories_exact_when_tile_sum_wraps(self):
        """The tile-wide cumulative sum exceeds int64 here (2/3 of 512 *
        256 steps of 2**48); every position must still be exact."""
        pts = _PackedTargets(5, 2000, [(1, 0, 0, 0, 0)])
        dirs = np.full((512, 256), 8)
        dirs[::3] = 9
        pos = np.full(512, pts.origin_key, dtype=np.int64)
        expect = pos[:, None] + np.cumsum(pts.step_keys[dirs], axis=1)
        assert (pts.trajectories(pos, dirs) == expect).all()

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
        cfg = SimConfig(d=3, L=300, n_walks=20_000, seed=8, mode="repetitions")
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
        res = mc_compare([tgt, tgt], cfg, common_rng=True)
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

    def test_common_vs_independent_rng_consistent(self):
        tgt1 = CoverTarget.from_points([(1, 0, 0)])
        tgt2 = CoverTarget.from_points([(0, 1, 0)])
        cfg = SimConfig(d=3, L=30, n_walks=40_000, seed=17)
        res_c = mc_compare([tgt1, tgt2], cfg, common_rng=True)
        res_i = mc_compare([tgt1, tgt2], cfg, common_rng=False)
        for rc, ri in zip(res_c.estimates, res_i.estimates):
            assert abs(rc.p_hat - ri.p_hat) < 5 * (rc.stderr + ri.stderr)


class TestValidation:
    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mc_cover_probability(NEIGHBOR, SimConfig(d=3, L=5, n_walks=10, seed=1))

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            SimConfig(d=2, L=1, n_walks=1, seed=0, mode="sometimes")
