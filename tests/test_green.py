import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.special import ive

from walkcover.green import (DIAGONAL_DIFFERENCE, ROUNDING_FLOOR, STEPSUM_MAX_DIM,
                             GreenValue, RecurrentWalkError, ToleranceUnreachableError,
                             WalkSpectrum, asymptotic_sweep,
                             character_power_moment, diagonal_difference_walk,
                             fourier_green, green_value, return_probability,
                             simple_walk, stepsum_green)
import walkcover.green as green_mod
from walkcover.green import (_alloc_cascade, _difference_vector, _green_cached,
                             _ive_table, _lclt_tail, _occupation_density,
                             _slot_targets, _step_terms, _stepsum_n_max)

# classical values, frozen from the high-resolution stepsum oracle and
# matching the standard references to the digits shown
G0_D3 = 1.5163861
G1_D3 = 0.5163861
G2_D3 = 0.2573361
GW_D3 = 0.3311488
P3 = 0.3405373

# the source table rounds these low by about 1e-3
PUBLISHED = {(0, 0, 0): 1.5153, (1, 0, 0): 0.5153, (2, 0, 0): 0.2563, (1, 1, 0): 0.3301}

# 20-digit oracles from mpmath at 34 digits: Int_0^T of the Bessel-product
# integrand (Miller recurrence for ive) plus a tail fitted as a series in
# 1/t on [T, 8T].  T = 2000 and T = 8000 (6000 for the difference walk)
# agree to 25 digits, and G3(0) equals Watson's closed form
# sqrt(6)/(32 pi^3) Gamma(1/24) Gamma(5/24) Gamma(7/24) Gamma(11/24).
ORACLE_D3 = {(0, 0, 0): 1.5163860591519780182,
             (1, 0, 0): 0.51638605915197801816,
             (2, 0, 0): 0.25733588725419448238,
             (1, 1, 0): 0.33114860212642390210}
ORACLE_DIFF_D4 = 1.3932039296856768592  # difference walk, d = 4, y = 0


class TestCharacter:
    def test_simple_bounds_and_origin(self):
        spec = simple_walk(3)
        rng = np.random.default_rng(1)
        theta = rng.uniform(-math.pi, math.pi, size=(500, 3))
        vals = spec.character(theta)
        assert (np.abs(vals) <= 1).all()
        assert spec.character(np.zeros(3)) == 1.0

    def test_difference_walk_bounds(self):
        spec = diagonal_difference_walk(5)
        assert spec.dim == 4
        rng = np.random.default_rng(2)
        theta = rng.uniform(-math.pi, math.pi, size=(500, 4))
        assert (np.abs(spec.character(theta)) <= 1).all()
        assert spec.character(np.zeros(4)) == 1.0

    def test_recurrent_guard(self):
        with pytest.raises(RecurrentWalkError):
            green_value(simple_walk(2), (0, 0))
        with pytest.raises(RecurrentWalkError):
            return_probability(diagonal_difference_walk(3))


class TestPublishedValues:
    @pytest.mark.parametrize("x,published", sorted(PUBLISHED.items()))
    def test_within_two_milli(self, x, published):
        g = green_value(simple_walk(3), x, tol=1e-4, method="both")
        assert abs(g.value - published) < 2e-3

    def test_classical_digits(self):
        for x, ref in [((0, 0, 0), G0_D3), ((1, 0, 0), G1_D3),
                       ((2, 0, 0), G2_D3), ((1, 1, 0), GW_D3)]:
            g = green_value(simple_walk(3), x, tol=1e-5)
            assert abs(g.value - ref) < 3e-6

    def test_methods_agree_within_bounds(self):
        for x in PUBLISHED:
            s = stepsum_green(simple_walk(3), x, tol=1e-5)
            f = fourier_green(simple_walk(3), x, tol=1e-4)
            assert abs(s.value - f.value) <= s.abs_error_bound + f.abs_error_bound

    @pytest.mark.parametrize("x", sorted(ORACLE_D3))
    def test_bounds_honest_vs_oracle(self, x):
        for gv in (fourier_green(simple_walk(3), x, tol=1e-10),
                   stepsum_green(simple_walk(3), x, tol=1e-5)):
            assert abs(gv.value - ORACLE_D3[x]) <= gv.abs_error_bound

    def test_difference_walk_bounds_honest_vs_oracle(self):
        spec = diagonal_difference_walk(4)
        # stepsum at tol 1e-5 takes about 7 s on this walk, 1e-4 about 0.1 s (2-vCPU Xeon)
        for gv in (fourier_green(spec, (0, 0, 0), tol=1e-10),
                   stepsum_green(spec, (0, 0, 0), tol=1e-4)):
            assert abs(gv.value - ORACLE_DIFF_D4) <= gv.abs_error_bound

    def test_error_bounds_honest_vs_classical(self):
        for x, ref in [((0, 0, 0), G0_D3), ((1, 0, 0), G1_D3)]:
            for gv in (stepsum_green(simple_walk(3), x, tol=1e-5),
                       fourier_green(simple_walk(3), x, tol=1e-4)):
                assert abs(gv.value - ref) <= gv.abs_error_bound + 3e-7


class TestIdentities:
    def test_origin_identity(self):
        g0 = stepsum_green(simple_walk(3), (0, 0, 0), tol=1e-5)
        g1 = stepsum_green(simple_walk(3), (1, 0, 0), tol=1e-5)
        assert abs(g0.value - g1.value - 1.0) < 1e-6

    def test_harmonicity(self):
        spec = simple_walk(3)
        g = lambda x: green_value(spec, x, tol=1e-5).value
        for x in [(1, 0, 0), (1, 1, 0), (2, 0, 0)]:
            nb = []
            for axis in range(3):
                for sign in (1, -1):
                    q = list(x)
                    q[axis] += sign
                    nb.append(g(tuple(q)))
            assert abs(np.mean(nb) - g(x)) < 1e-4
        nb0 = [g(p) for p in [(1, 0, 0)] * 6]
        assert abs(np.mean(nb0) - (g((0, 0, 0)) - 1)) < 1e-4

    def test_symmetry_of_engines(self):
        """The raw engine (no canonicalization) is constant on every
        octahedral orbit inside the sup-norm-2 box."""
        orbits: dict[tuple, list] = {}
        for x in itertools.product(range(-2, 3), repeat=3):
            key = tuple(sorted(map(abs, x), reverse=True))
            orbits.setdefault(key, []).append(x)
        assert len(orbits) == 10
        for key, pts in orbits.items():
            vals = [stepsum_green(simple_walk(3), x, tol=1e-4).value for x in pts]
            assert max(vals) - min(vals) < 1e-9, key
        fvals = [fourier_green(simple_walk(3), x, tol=1e-3).value
                 for x in [(2, 1, 0), (0, 1, 2), (-2, 1, 0), (1, 0, -2)]]
        assert max(fvals) - min(fvals) < 1e-5


class TestReturnProbabilities:
    def test_p3_against_published_and_classical(self):
        p = return_probability(simple_walk(3))
        assert abs(p - 0.3401) < 2e-3       # published rounding
        assert abs(p - P3) < 1e-4           # high-resolution oracle

    def test_bounds_all_d(self):
        for d in range(3, 9):
            p = return_probability(simple_walk(d), tol=1e-3)
            assert 1 / (2 * d) < p < 1

    def test_diagonal_return_in_bounds_and_monotone(self):
        vals = [return_probability(diagonal_difference_walk(d), tol=1e-3) for d in range(4, 9)]
        for d, v in zip(range(4, 9), vals):
            assert 1 / (2 * d) < v < 1
        assert all(b <= a for a, b in zip(vals, vals[1:]))

    def test_diagonal_cross_validates_with_fourier(self):
        spec = diagonal_difference_walk(4)
        s = stepsum_green(spec, (0, 0, 0), tol=1e-4)
        f = fourier_green(spec, (0, 0, 0), tol=1e-3)
        assert abs(s.value - f.value) <= s.abs_error_bound + f.abs_error_bound
        assert abs(s.value - 1.3932055) < 5e-5

    def test_dim4_both_methods(self):
        g = green_value(simple_walk(4), (0,) * 4, tol=1e-3, method="both")
        assert abs(g.value - (1 / (1 - 0.193202))) < 1e-3


def offdiag_green(d: int, i: int, j: int, tol: float = 1e-4) -> float:
    """Green's function of the coordinate-difference walk at e_j - e_i;
    symmetric in (i, j) and a function of the cyclic index distance."""
    return green_value(diagonal_difference_walk(d), _difference_vector(d, i, j), tol).value


def offdiagonal_sum(d: int, tol: float = 1e-4) -> float:
    """sum_j Ghat(e_j - e_i) - 1 (independent of i); the high-dimension
    bound for this quantity is 28/d."""
    return sum(offdiag_green(d, 0, j, tol) for j in range(d)) - 1.0


class TestOffDiagonal:
    def test_symmetry_in_indices(self):
        spec = diagonal_difference_walk(5)
        a = stepsum_green(spec, (-1, 1, 0, 0), tol=1e-4).value  # e_2 - e_1
        b = stepsum_green(spec, (1, -1, 0, 0), tol=1e-4).value  # e_1 - e_2
        assert abs(a - b) < 1e-12
        assert offdiag_green(5, 1, 2, tol=1e-3) == offdiag_green(5, 2, 1, tol=1e-3)

    def test_depends_only_on_cyclic_distance(self):
        vals = {(i, j): offdiag_green(6, i, j, tol=1e-3)
                for i, j in [(0, 1), (1, 2), (4, 5), (0, 5), (1, 3), (0, 2)]}
        assert abs(vals[(0, 1)] - vals[(1, 2)]) < 2e-4
        assert abs(vals[(0, 1)] - vals[(4, 5)]) < 2e-4
        assert abs(vals[(0, 1)] - vals[(0, 5)]) < 2e-4   # wrap-around distance 1
        assert abs(vals[(1, 3)] - vals[(0, 2)]) < 2e-4

    def test_nearest_scale_and_decay(self):
        d = 8
        by_dist = [offdiag_green(d, 0, j, tol=1e-3) for j in range(1, 5)]
        assert 1 / (2 * d) < by_dist[0] < 2.5 / (2 * d)
        assert all(b < a for a, b in zip(by_dist, by_dist[1:]))
        assert by_dist[-1] < 0.01  # max cyclic separation is small

    def test_neighbor_sum_bound(self):
        for d in (4, 6, 8):
            assert offdiagonal_sum(d, tol=1e-3) <= 28 / d


def _grid_moment(d, i, j, k):
    """Reference for the moments: the integral of cos(theta_j - theta_i)
    phihat^k over [-pi, pi]^(d-1) as the mean over a uniform grid of
    2(k + 2) points per axis, exact for trigonometric polynomials of
    degree below that.  Its memory grows as (2k + 4)^(d-1), so keep d
    and k small."""
    dim, grid = d - 1, 2 * (k + 2)
    theta1 = 2 * math.pi * np.arange(grid) / grid - math.pi
    axes = np.meshgrid(*([theta1] * dim), indexing="ij")
    phi = diagonal_difference_walk(d).character(np.stack(axes, axis=-1))
    ti = axes[i - 1] if i >= 1 else 0.0
    tj = axes[j - 1] if j >= 1 else 0.0
    return float((np.cos(tj - ti) * phi ** k).mean() * (2 * math.pi) ** dim)


class TestCharacterMoments:
    @pytest.mark.parametrize("i,j,k", [(0, 3, 1), (0, 3, 2), (1, 4, 2), (0, 2, 1)])
    def test_unreachable_gap_vanishes(self, i, j, k):
        # all have cyclic index distance > k
        assert character_power_moment(6, i, j, k) == 0.0

    def test_wraparound_gap_does_not_vanish(self):
        """Index distance is cyclic: at d=6 the labels 0 and 4 are two
        bonds apart through the pinned boundary, so two steps suffice and
        the k=2 moment is (2pi)^5 * P(two steps land on e_4) = (2pi)^5/72."""
        val = character_power_moment(6, 0, 4, 2)
        expect = (2 * math.pi) ** 5 / 72
        assert abs(val - expect) < 1e-8 * expect

    def test_reachable_gap_control(self):
        val = character_power_moment(6, 0, 1, 1)
        expect = (2 * math.pi) ** 5 / 12
        assert abs(val - expect) < 1e-4 * expect
        assert abs(val) > 1e-2

    def test_matches_step_probability(self):
        """The moment equals (2pi)^(d-1) x the k-step probability of the
        difference walk landing at e_j - e_i."""
        d, i, j, k = 5, 0, 2, 4
        terms = _step_terms(diagonal_difference_walk(d), _difference_vector(d, i, j), k)
        expect = terms[k] * (2 * math.pi) ** (d - 1)
        assert abs(character_power_moment(d, i, j, k) - expect) < 1e-8 * max(expect, 1)

    @pytest.mark.parametrize("d,i,j,k", [(6, 0, 3, 1), (6, 0, 3, 2), (6, 0, 4, 2),
                                         (6, 0, 1, 1), (5, 0, 2, 4)])
    def test_matches_grid_integral(self, d, i, j, k):
        ref = _grid_moment(d, i, j, k)
        assert abs(character_power_moment(d, i, j, k) - ref) <= 1e-12 * (2 * math.pi) ** (d - 1)

    @pytest.mark.parametrize("d", [8, 10])
    def test_high_dimension(self, d):
        """Past the reach of a grid: gaps beyond k vanish exactly, and a
        one-step move to a neighbouring label has probability 1/(2d)."""
        half = d // 2
        for i, j, k in [(0, half, half - 1), (1, half + 1, 2), (0, 2, 1), (d - 1, 1, 1)]:
            assert character_power_moment(d, i, j, k) == 0.0, (i, j, k)
        expect = (2 * math.pi) ** (d - 1) / (2 * d)
        for i, j in [(0, 1), (3, 4), (d - 1, 0)]:
            assert abs(character_power_moment(d, i, j, 1) - expect) <= 1e-13 * expect

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            character_power_moment(6, 0, 1, -1)


def _per_level_diff_terms(d, y, n_max):
    """Reference for the batched winding levels: one cascade per level,
    +k and -k apart, until a level pair adds < 1e-16 of the total.
    Returns the terms and the last k reached."""
    partial = np.concatenate([[0], np.cumsum(y)])
    f = np.zeros(n_max + 1)
    for k in range(n_max + 1):
        term = _alloc_cascade([k - p for p in partial], n_max)
        if k > 0:
            term = term + _alloc_cascade([-k - p for p in partial], n_max)
        f += term
        if k > 1 and term.sum() < 1e-16 * max(f.sum(), 1e-300):
            break
    return f, k


class TestBatchedLevels:
    @pytest.mark.parametrize("d", [4, 5, 7, 10])
    @pytest.mark.parametrize("n_max", [40, 400])
    def test_matches_per_level_loop(self, d, n_max):
        for y in [(0,) * (d - 1), (1, -1) + (0,) * (d - 3), (2, -1) + (0,) * (d - 3)]:
            ref, k_last = _per_level_diff_terms(d, y, n_max)
            spec = diagonal_difference_walk(d)
            assert np.abs(_step_terms(spec, y, n_max) - ref).max() <= 1e-15
            levels = _slot_targets(spec, y, n_max)[:, 0]
            assert levels.min() <= -k_last and k_last <= levels.max()


class TestSweep:
    def test_diagonal_rows_cross_validate_with_fourier(self):
        table = asymptotic_sweep(3, 10, tol=1e-3)
        for row in table.rows[1:]:
            spec, zero = diagonal_difference_walk(row.d), (0,) * (row.d - 1)
            f = fourier_green(spec, zero, tol=1e-3)
            assert row.p_diagonal == 1.0 - 1.0 / f.value
            s = green_value(spec, zero, tol=1e-3, method="stepsum")
            assert abs(s.value - f.value) <= s.abs_error_bound + f.abs_error_bound

    def test_trends(self):
        table = asymptotic_sweep(3, 8, tol=1e-3)
        assert not table.trend_failures, table.trend_failures
        first = table.rows[0]
        assert first.d == 3 and abs(first.scaled_return - 2.0432) < 2e-3
        assert "desk scale" in table.note

    def test_diag_column_starts_at_4(self):
        table = asymptotic_sweep(3, 5, tol=1e-3)
        assert table.rows[0].p_diagonal is None
        assert table.rows[1].p_diagonal is not None

    @pytest.mark.parametrize("g0, p_diag, failures", [
        ({}, {}, ()),
        ({5: 1.19}, {}, ("2d*p_d not decreasing at d=5",)),
        ({}, {5: 0.25}, ("2d*P_d not decreasing at d=5",)),
        ({}, {5: 0.31}, ("2d*P_d not decreasing at d=5",)),
        ({5: 1.2}, {}, ("2d*p_d not decreasing at d=5", "d*E_d not decreasing at d=5")),
        ({5: 1.11}, {}, ("2d*p_d <= 1 at d=5", "p_d outside (1/2d, 1) at d=5")),
        ({}, {5: 0.09}, ("2d*P_d <= 1 at d=5",)),
        ({5: 1.09}, {}, ("2d*p_d <= 1 at d=5", "p_d outside (1/2d, 1) at d=5"))])
    def test_trend_failures_reported(self, monkeypatch, g0, p_diag, failures):
        """Made-up G_d(0) and P_d at d = 4, 5 that pass every trend check,
        with one case's change to them, report that case's failures."""
        g0 = {4: 1.24, 5: 1.16, **g0}
        p_diag = {4: 0.30, 5: 0.20, **p_diag}
        monkeypatch.setattr(green_mod, "green_value",
                            lambda spec, x, tol: GreenValue(g0[spec.d], 0.0, "fourier"))
        monkeypatch.setattr(green_mod, "return_probability", lambda spec, tol: (
            1 - 1 / g0[spec.d] if spec.kind == "simple" else p_diag[spec.d]))
        assert asymptotic_sweep(4, 5).trend_failures == failures


class TestFourierGuards:
    def test_dim5_agrees_with_stepsum(self):
        s = stepsum_green(simple_walk(5), (0,) * 5, tol=1e-5)
        f = fourier_green(simple_walk(5), (0,) * 5, tol=1e-10)
        assert abs(s.value - f.value) <= s.abs_error_bound + f.abs_error_bound

    def test_tolerance_failure_signaled(self):
        with pytest.raises(ToleranceUnreachableError):
            fourier_green(simple_walk(3), (0, 0, 0), tol=1e-14)

    def test_far_point_routes_agree(self):
        """The integrand A t^-m e^(-a/t) peaks near t = a = d|x|^2/2, past
        the twelve panels' e^12 from |x| ~ 150 at d = 3; the panels now
        reach past the peak, so the tail fit sees only its decay."""
        green_value(simple_walk(3), (300, 0, 0), tol=1e-4, method="both")

    @pytest.mark.parametrize("d,rel", [(3, 1e-6), (4, 3e-6), (5, 3e-6)])
    def test_far_point_follows_asymptote(self, d, rel):
        """G(x) = d Gamma(d/2 - 1) / (2 pi^(d/2) |x|^(d-2)) (1 + O(|x|^-2))."""
        r = 1000
        g = fourier_green(simple_walk(d), (r,) + (0,) * (d - 1), tol=1e-8).value
        asymptote = d * math.gamma(d / 2 - 1) / (2 * math.pi ** (d / 2) * r ** (d - 2))
        assert abs(g - asymptote) <= rel * g


def _fourier_arguments():
    """Every s = t/d at which fourier_green evaluates ive for d = 3..10: both
    Gauss-Legendre orders on [0, 1] and on the 12 unit panels in log t, and
    the tail fit's T/4, T/2 and T."""
    u = np.concatenate([(leggauss(n)[0] + 1) / 2 for n in (12, 16)])
    T = math.exp(12)
    t = np.r_[u, np.exp(np.add.outer(np.arange(12), u)).ravel(), T / 4, T / 2, T]
    return np.unique(np.concatenate([t / d for d in range(3, 11)]))


def _assert_table_matches_ive(m, s):
    table = _ive_table(m, s)
    ref = ive(np.arange(m + 1)[:, None], s)
    assert table.shape == ref.shape
    assert np.abs(table - ref).max() <= 1e-15
    # near s = 0, ive itself errs by up to 1e-14 relative at n = 4, 5
    # (against mpmath); the ratio recurrence is closer there
    assert (np.abs(table[:6] - ref[:6]) <= 1e-14 * ref[:6]).all()


class TestBesselTable:
    @pytest.mark.parametrize("m", [0, 1, 2, 40, 1100])
    def test_matches_ive(self, m):
        _assert_table_matches_ive(m, _fourier_arguments())

    def test_underflowed_start(self):
        """ive(400, s) and ive(401, s) underflow to 0 at s = 1e-3, so the
        recurrence starts from r = 0, without a 0/0."""
        s = np.array([1e-3])
        assert ive(400, s) == 0.0 and ive(401, s) == 0.0
        _assert_table_matches_ive(400, s)


# asymptotic_sweep(3, 10, 1e-3) rows (d, p_return, p_diagonal, excess) and
# fourier_green values at e_1 and (1, -1, 0, ...), as computed by the
# per-order ive route before the Bessel tables came from the ratio recurrence
PINNED_SWEEP = [
    (3, 0.3405373295509989, None, 0.3497193924853109),
    (4, 0.19320167322498372, 0.28222998895386986, 0.1144671218484814),
    (5, 0.135178609820655, 0.1519423548661465, 0.056308124840230706),
    (6, 0.10471549562882176, 0.10825477791832816, 0.03363003989333817),
    (7, 0.0858449341133789, 0.08662739233153394, 0.022477744159276475),
    (8, 0.0729126499593844, 0.07308895451810271, 0.016147012016926032),
    (9, 0.06344774965272448, 0.06348776689587632, 0.012190530825848117),
    (10, 0.056197535974267576, 0.05620663800130177, 0.009543747888260776),
]
PINNED_FOURIER = [
    (simple_walk(4), (1, 0, 0, 0), 0.23946712184848168),
    (simple_walk(4), (1, -1, 0, 0), 0.1017176301674737),
    (diagonal_difference_walk(4), (1, 0, 0), 0.3932039296856768),
    (diagonal_difference_walk(4), (1, -1, 0), 0.3932039296856768),
    (simple_walk(7), (1, 0, 0, 0, 0, 0, 0), 0.09390631558784798),
    (simple_walk(7), (1, -1, 0, 0, 0, 0, 0), 0.0176236823326287),
    (diagonal_difference_walk(7), (1, 0, 0, 0, 0, 0), 0.0948434314804608),
    (diagonal_difference_walk(7), (1, -1, 0, 0, 0, 0), 0.0948434314804608),
]


class TestPinnedValues:
    def test_sweep_rows(self):
        rows = asymptotic_sweep(3, 10, 1e-3).rows
        assert [r.d for r in rows] == [p[0] for p in PINNED_SWEEP]
        for r, (d, p, pd, excess) in zip(rows, PINNED_SWEEP):
            assert abs(r.p_return - p) <= 1e-14, d
            assert abs(r.excess - excess) <= 1e-14, d
            if pd is None:
                assert r.p_diagonal is None
            else:
                assert abs(r.p_diagonal - pd) <= 1e-14, d

    @pytest.mark.parametrize("spec,x,value", PINNED_FOURIER)
    def test_fourier_values(self, spec, x, value):
        assert abs(fourier_green(spec, x, tol=1e-3).value - value) <= 1e-14


def _one_shot_density(spec, x, t):
    """Reference for the panel-wise difference-walk density: every t at
    once, over the levels the largest t reaches."""
    s = t / spec.d
    bonds = np.abs(_slot_targets(spec, x, t.max()))
    table = ive(np.arange(bonds.max() + 1), s[:, None])
    return np.prod([table[:, b] for b in bonds.T], axis=0).sum(axis=1)


def _probe_points(d):
    """Difference-lattice points 0, (1, -1, 0..), (2, -1, 0..), e_1 and e_2."""
    pad = (0,) * (d - 3)
    return [(0, 0) + pad, (1, -1) + pad, (2, -1) + pad, (1, 0) + pad, (0, 1) + pad]


class TestGreenContract:
    @pytest.mark.parametrize("d", range(4, 11))
    def test_lclt_tail_honest(self, d):
        specs = [(diagonal_difference_walk(d), _probe_points(d)),
                 (simple_walk(d - 1), [(0,) * (d - 1), (1,) + (0,) * (d - 2),
                                       (2, 1) + (0,) * (d - 3)])]
        for spec, points in specs:
            for x in points:
                ref = fourier_green(spec, x, tol=1e-10)
                for tol in (1e-3, 1e-4):
                    s = stepsum_green(spec, x, tol=tol)
                    err = abs(s.value - ref.value) - ref.abs_error_bound
                    assert err <= s.abs_error_bound <= tol / 2, (spec, x, tol)

    def test_tail_half_term_only_for_period_two(self):
        """With the half-term on the period-2 walks alone, the value barely
        moves from horizon 400 to 401; a missing or spurious half-term
        moves it by about half the bound."""
        for spec, x in [(simple_walk(3), (2, 1, 0)),
                        (diagonal_difference_walk(4), (2, -1, 0)),
                        (diagonal_difference_walk(5), (1, 0, 0, 0)),
                        (diagonal_difference_walk(6), (0, 1, 0, 0, 0))]:
            a, b = (_step_terms(spec, x, n).sum() + _lclt_tail(spec, x, n)[0] for n in (400, 401))
            bound = _lclt_tail(spec, x, 400)[1] + ROUNDING_FLOOR
            assert abs(a - b) <= bound / 100, (spec, x)

    @pytest.mark.parametrize("d", [4, 7, 10])
    def test_panel_density_matches_one_shot(self, d):
        spec = diagonal_difference_walk(d)
        z, _ = leggauss(16)
        u = (z + 1) / 2
        t = np.vstack([u, np.exp(np.add.outer(np.arange(12), u))])
        for y in _probe_points(d):
            ref = _one_shot_density(spec, y, t.ravel())
            assert np.abs(_occupation_density(spec, y, t).ravel() - ref).max() <= 1e-15

    def test_fourier_difference_walk_memory(self):
        tracemalloc.start()
        try:
            fourier_green(diagonal_difference_walk(4), (0, 0, 0), tol=1e-10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**20

    def test_both_returns_fourier_value(self):
        # canonical points, so the cached value is computed at x itself
        for spec, x in [(simple_walk(4), (1, 0, 0, 0)),
                        (diagonal_difference_walk(5), (-1, 1, 0, 0))]:
            g = green_value(spec, x, tol=1e-3, method="both")
            assert g == fourier_green(spec, x, tol=1e-3)

    def test_both_reuses_cached_fourier_value(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return fourier_green(*args, **kwargs)

        monkeypatch.setattr(green_mod, "fourier_green", counted)
        _green_cached.cache_clear()
        spec, x = simple_walk(3), (1, 0, 0)
        a = green_value(spec, x, tol=1e-5, method="fourier")
        b = green_value(spec, x, tol=1e-5, method="both")
        assert a == b and len(calls) == 1

    def test_stepsum_refuses_uncertifiable_tolerance(self):
        spec = simple_walk(3)
        t0 = time.monotonic()
        with pytest.raises(ToleranceUnreachableError):
            stepsum_green(spec, (0, 0, 0), tol=1e-8)
        assert time.monotonic() - t0 < 0.1
        with pytest.raises(ToleranceUnreachableError):
            green_value(spec, (0, 0, 0), tol=1e-8, method="both")

    @pytest.mark.parametrize("spec", [simple_walk(3), diagonal_difference_walk(4)])
    @pytest.mark.parametrize("route", [fourier_green, stepsum_green])
    def test_point_of_wrong_dimension_rejected(self, spec, route):
        for x in [(1,) * (spec.dim - 1), (1,) * (spec.dim + 1)]:
            with pytest.raises(ValueError, match="dimension"):
                route(spec, x)

    def test_fourier_finite_below_the_fit_overflow(self):
        """At dim 100 G(0) lies just above 1 + 1/(2d)."""
        g = fourier_green(simple_walk(100), (0,) * 100, tol=1e-4)
        assert math.isfinite(g.value) and g.abs_error_bound <= 1e-4
        assert 1.005 < g.value < 1.0051

    @pytest.mark.parametrize("d", [118, 120, 400])
    def test_fourier_finite_in_high_dimension(self, d):
        """The tail fit forms no power of T = e^12, so no dimension
        overflows it."""
        g = fourier_green(simple_walk(d), (0,) * d, tol=1e-4)
        assert g.abs_error_bound <= 2e-12
        assert 1 + 1 / (2 * d) < g.value < 1 + 1 / (2 * d) + 1 / d**2

    def test_stepsum_tail_finite_up_to_its_limit(self):
        """Every tail term stays a finite float at the limit, for both
        walks, off the origin and at any tolerance."""
        for spec in (simple_walk(STEPSUM_MAX_DIM),
                     diagonal_difference_walk(STEPSUM_MAX_DIM + 1)):
            x = (1,) + (0,) * (spec.dim - 1)
            for tol in (1e-3, 1e-12, 1e-300):
                n = _stepsum_n_max(spec, tol)
                assert 400 <= n <= 25000
                assert all(map(math.isfinite, _lclt_tail(spec, x, n)))

    @pytest.mark.parametrize("spec, x", [
        (simple_walk(200), (1,) + (0,) * 199),
        (simple_walk(STEPSUM_MAX_DIM), (1,) + (0,) * (STEPSUM_MAX_DIM - 1)),
        (diagonal_difference_walk(STEPSUM_MAX_DIM + 1), (0,) * STEPSUM_MAX_DIM)])
    def test_stepsum_bound_keeps_the_rounding_floor(self, spec, x):
        """The tail term underflows in high dimension; the stated bound
        never falls below the rounding floor, and the routes agree."""
        four = green_value(spec, x, tol=1e-4, method="both")
        step = green_value(spec, x, tol=1e-4, method="stepsum")
        assert min(four.abs_error_bound, step.abs_error_bound) >= ROUNDING_FLOOR
        assert abs(step.value - four.value) <= step.abs_error_bound + four.abs_error_bound

    @pytest.mark.parametrize("value,bound", [(math.nan, 0.0), (1.0, math.nan),
                                             (math.inf, 0.0), (1.0, math.inf)])
    def test_non_finite_value_rejected(self, value, bound):
        with pytest.raises(ArithmeticError, match="not finite"):
            GreenValue(value, bound, "fourier")

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            green_value(simple_walk(3), (0, 0, 0), method="auto")


@pytest.mark.parametrize("call, message", [
    (lambda: WalkSpectrum("bogus", 3), "unknown walk kind 'bogus'"),
    (lambda: GreenValue(1.0, -1.0, "fourier"), "error bound must be nonnegative"),
    (lambda: character_power_moment(6, 0, 6, 1), r"indices must lie in 0\.\.d-1")],
    ids=["walk-kind", "negative-bound", "index-range"])
def test_refusals(call, message):
    with pytest.raises(ValueError, match=message):
        call()
