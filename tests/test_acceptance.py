"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines
stream.  Criterion 9's third tuple is asserted faithfully and marked as
a strict expected failure: the quantity it requires to vanish is
provably (2pi)^5/72, because the index distance in the vanishing
statement is cyclic and min(4, 6-4) = 2 is not greater than k = 2 (the
two-step walk reaches e_4 through the pinned chain boundary).
"""

import time

import pytest

import walkcover.exact as ex
from walkcover.green import (asymptotic_sweep, character_power_moment,
                             fourier_green, green_value, return_probability,
                             simple_walk, stepsum_green)
from walkcover.hitting import (HittingQuery, counterexample_probabilities,
                               first_entry_distribution,
                               truncation_bias_estimate)
from walkcover.comb import all_collections, check_cover_inequality
from walkcover.lattice import CoverTarget, validate_path
from walkcover.montecarlo import SimConfig, mc_compare

pytestmark = pytest.mark.acceptance

O, Y, Z, W = (0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)
COUNTEREXAMPLE_SEED = 20240811
PATHS_SEED = 61803


def _ok(line: str) -> None:
    print(f"PASS {line}", flush=True)


def test_criterion_01_green_values():
    t0 = time.monotonic()
    published = {(0, 0, 0): 1.5153, (1, 0, 0): 0.5153,
                 (2, 0, 0): 0.2563, (1, 1, 0): 0.3301}
    spec = simple_walk(3)
    values = {}
    for x, ref in published.items():
        g = green_value(spec, x, tol=1e-4, method="both")
        values[x] = g.value
        assert abs(g.value - ref) < 2e-3, (x, g.value, ref)
    g0 = stepsum_green(spec, (0, 0, 0), tol=1e-5)
    g1 = stepsum_green(spec, (1, 0, 0), tol=1e-5)
    assert abs(g0.value - g1.value - 1.0) < 1e-6
    elapsed = time.monotonic() - t0
    assert elapsed < 30
    _ok(f"criterion 1: four Green values within 2e-3 of the published table, "
        f"identity |G(0)-G(e1)-1| = {abs(g0.value - g1.value - 1.0):.1e} < 1e-6, "
        f"{elapsed:.1f}s < 30s")


def test_criterion_02_return_probability():
    p = return_probability(3, tol=1e-5)
    assert abs(p - 0.3401) < 2e-3
    s = stepsum_green(simple_walk(3), (0, 0, 0), tol=1e-5)
    f = fourier_green(simple_walk(3), (0, 0, 0), tol=1e-4)
    gap = abs(s.value - f.value)
    assert gap <= s.abs_error_bound + f.abs_error_bound
    _ok(f"criterion 2: return probability {p:.6f} within 2e-3 of 0.3401; "
        f"stepsum/fourier gap {gap:.1e} within combined bounds "
        f"{s.abs_error_bound + f.abs_error_bound:.1e}")


def test_criterion_03_hitting_values():
    fe = lambda pts: first_entry_distribution(HittingQuery(O, pts, 3), tol=1e-5)
    h_yz, h_yzw, h_yw, h_oy = fe((Y, Z)), fe((Y, Z, W)), fe((Y, W)), fe((O, Y))
    checks = [
        (h_yz[Y], 0.2792), (h_yzw[W], 0.0344), (h_yw[Y], 0.3008),
        (h_yw[W], 0.1155), (h_yzw[Y], 0.2696), (h_oy[O], 0.2538),
        (h_oy[Y], 0.2538),
    ]
    for got, ref in checks:
        assert abs(got - ref) < 5e-3, (got, ref)
    _ok("criterion 3: all six published first-entry values (plus the one-step "
        "reduction pair) reproduced within 5e-3")


@pytest.fixture(scope="module")
def counterexample_mc_8threads():
    t0 = time.monotonic()
    cfg = SimConfig(d=3, L=10_000, n_walks=100_000, seed=COUNTEREXAMPLE_SEED, threads=8)
    targets = [CoverTarget.of_path(validate_path([O, Y, W, Z]), "repetitions"),
               CoverTarget.of_path(validate_path([O, Y, W, Y]), "repetitions")]
    return mc_compare(targets, cfg), time.monotonic() - t0


def test_criterion_04_counterexample_pipeline(counterexample_mc_8threads):
    t0 = time.monotonic()
    ce = counterexample_probabilities(tol=1e-5)
    assert abs(ce.p_original - 0.0805) < 5e-3
    assert abs(ce.p_reflected - 0.0653) < 5e-3
    assert ce.p_original > ce.p_reflected
    res, mc_seconds = counterexample_mc_8threads
    mc1, mc2 = res.estimates[0].p_hat, res.estimates[1].p_hat
    assert abs(mc1 - ce.p_original) < 0.01
    assert abs(mc2 - ce.p_reflected) < 0.01
    bias = truncation_bias_estimate(10_000, ce.p_original)
    assert bias < 2e-3
    elapsed = time.monotonic() - t0 + mc_seconds
    assert elapsed < 600
    _ok(f"criterion 4: pipeline p1={ce.p_original:.4f}, p2={ce.p_reflected:.4f} "
        f"(targets 0.0805/0.0653, p1 > p2); MC at L=1e4, n=1e5: {mc1:.4f}/{mc2:.4f} "
        f"within 0.01; documented truncation-bias estimate {bias:.1e} < 2e-3; "
        f"{elapsed:.0f}s < 600s")


def test_criterion_05_cover_inequality_exhaustive():
    t0 = time.monotonic()
    cases = violations = 0
    for n in (1, 2, 3):
        for m in (1, 2, 3, 4):
            for V in all_collections(n, m):
                cases += 1
                good, witness = check_cover_inequality(V)
                violations += not good
    assert violations == 0
    elapsed = time.monotonic() - t0
    assert elapsed < 60
    _ok(f"criterion 5: cover-count inequality, 0 violations over {cases} "
        f"collections x all subsets (n <= 3, m <= 4), {elapsed:.1f}s < 60s")


def test_criterion_06_reflection_monotonicity_sweep():
    t0 = time.monotonic()
    report = ex.reflection_monotonicity_sweep(radius=2, max_set_size=2,
                                              lengths=(1, 2, 3, 4, 5, 6))
    assert report.passed, report.violations[:3]
    # dual-route integrity: the transfer-DP counter on sample pairs
    for A0, B0 in [((), ((0, 1),)), (((1, 1),), ((0, 1),)),
                   (((0, 0), (0, 2)), ((1, 2),))]:
        c1, c2 = ex.count_reflected_pair(A0, B0, ex.Hyperplane(0, 1, 1), 2, 6)
        assert c1 >= c2
    elapsed = time.monotonic() - t0
    assert elapsed < 600
    _ok(f"criterion 6: reflected-pair counts never exceed originals over "
        f"{report.cases} exhaustive (A0,B0,L) cases at d=2, L<=6; "
        f"{elapsed:.0f}s < 600s")


def test_criterion_07_staircase_ranking():
    t0 = time.monotonic()
    r1 = ex.verify_staircase_max(2, 2, 6, 3)
    assert r1.staircase_is_max
    r2 = ex.verify_staircase_max(3, 2, 7, 5)
    assert r2.staircase_is_max
    elapsed = time.monotonic() - t0
    assert elapsed < 300
    _ok(f"criterion 7: staircase ranked first among {len(r1.rows)} paths "
        f"(N=2,cap=3) and {len(r2.rows)} paths (N=3,cap=5), exact rationals, "
        f"{elapsed:.0f}s < 300s")


def test_criterion_08_asymptotic_trends():
    table = asymptotic_sweep(3, 10, tol=1e-3)
    assert table.trends_ok, table.trend_failures
    assert abs(table.rows[0].scaled_return - 2.043) < 2e-3
    diag = [r for r in table.rows if r.p_diagonal is not None and 4 <= r.d <= 8]
    assert len(diag) == 5
    assert "not attainable" in table.note
    _ok(f"criterion 8: 2d*p_d descends {table.rows[0].scaled_return:.3f} -> "
        f"{table.rows[-1].scaled_return:.3f} (> 1 throughout); 2d*P_d descends "
        f"{diag[0].scaled_diagonal:.3f} -> {diag[-1].scaled_diagonal:.3f}; "
        f"d*E_d decreasing; trend-only nature stated in output")


def test_criterion_09_vanishing_moments_valid_cases():
    for i, j, k in [(0, 3, 1), (0, 3, 2)]:
        residual = abs(character_power_moment(6, i, j, k))
        assert residual <= 1e-6, (i, j, k, residual)
    control = abs(character_power_moment(6, 0, 1, 1))
    assert control > 1e-2
    _ok("criterion 9 (valid part): residuals <= 1e-6 for the two tuples whose "
        "cyclic index distance exceeds k; violated-hypothesis control "
        f"{control:.1f} > 1e-2. The third stated tuple cannot vanish "
        "(wrap-around distance 2 <= k); asserted as-is below, expected to fail")


@pytest.mark.xfail(strict=True,
                   reason="stated tuple (0,4,2) at d=6 has cyclic index distance "
                          "min(4, 6-4) = 2, not > k = 2: the two-step walk reaches "
                          "e_4 through the pinned boundary, so the moment equals "
                          "(2pi)^5/72 = 136.01, not 0")
def test_criterion_09_third_tuple_as_stated():
    assert abs(character_power_moment(6, 0, 4, 2)) <= 1e-6


def test_criterion_10_monotone_path_experiment(monotone_paths_d3):
    t0 = time.monotonic()
    targets = [CoverTarget.of_path(p) for p in monotone_paths_d3]
    cfg = SimConfig(d=3, L=400, n_walks=500_000, seed=PATHS_SEED, threads=8)
    res = mc_compare(targets, cfg)
    p_hats = [e.p_hat for e in res.estimates]
    assert min(p_hats) == p_hats[0], p_hats
    margins = []
    for j in range(1, 5):
        diff, se = res.paired_diff(j, 0)
        margins.append(diff / se)
        assert diff > 0
    assert min(margins) >= 3, margins
    elapsed = time.monotonic() - t0
    _ok(f"criterion 10: straight path smallest of the five ({p_hats[0]:.5f} vs "
        f"next {sorted(p_hats)[1]:.5f}), min separation "
        f"{min(margins):.1f} paired-sigma >= 3; n=5e5, L=400, {elapsed:.0f}s")
    globals()["_crit10_successes"] = tuple(e.successes for e in res.estimates)


def test_criterion_11_thread_determinism(counterexample_mc_8threads,
                                         monotone_paths_d3):
    # criterion 4 rerun with 1 thread must match the 8-thread successes
    cfg1 = SimConfig(d=3, L=10_000, n_walks=100_000, seed=COUNTEREXAMPLE_SEED, threads=1)
    targets = [CoverTarget.of_path(validate_path([O, Y, W, Z]), "repetitions"),
               CoverTarget.of_path(validate_path([O, Y, W, Y]), "repetitions")]
    res1 = mc_compare(targets, cfg1)
    got8 = tuple(e.successes for e in counterexample_mc_8threads[0].estimates)
    got1 = tuple(e.successes for e in res1.estimates)
    assert got1 == got8
    # criterion 10 rerun with 1 thread
    t10 = [CoverTarget.of_path(p) for p in monotone_paths_d3]
    cfg10 = SimConfig(d=3, L=400, n_walks=500_000, seed=PATHS_SEED, threads=1)
    res10 = mc_compare(t10, cfg10)
    expected = globals().get("_crit10_successes")
    assert expected is not None, "criterion 10 must run first"
    assert tuple(e.successes for e in res10.estimates) == expected
    _ok(f"criterion 11: success counts bit-identical across 1 vs 8 threads for "
        f"the criterion-4 run {got1} and the criterion-10 run {expected}")
