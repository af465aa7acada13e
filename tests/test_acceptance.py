"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s``. The Monte Carlo
criteria use fixed base seeds and are deterministic; the full module
takes a few minutes on two cores.
"""

import math

import numpy as np

from spharcp.bench import make_scenario, run_grid
from spharcp.diagnostics import theory_tuning_bounds
from spharcp.evaluate import aggregate, hausdorff_scaled
from spharcp.segment import detect
from spharcp.types import DetectorConfig, slot_index

from conftest import (
    all_partitions,
    ar1_series,
    dense_design,
    hausdorff_double_loop,
    interval_phi,
    ols_fit,
    random_series,
    soft_threshold,
)
from test_segment import brute_force_minimum

BASE_SEED = 20250801
REPS = 30
BENCH_CONFIG = DetectorConfig(p=1, L=10, delta=5)


def paper_records(scenario_id: str) -> list:
    """REPS replicates of a paper scenario at lambda 0, gamma 300."""
    grid = run_grid(
        scenario_id, q=8, d=2, reps=REPS, base_seed=BASE_SEED, config=BENCH_CONFIG,
        lams=(0.0,), gammas=(300.0,),
    )
    return grid[(0.0, 300.0)]


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_single_change_point_balanced():
    records = paper_records("table1-balanced")
    summary = aggregate(records)
    rho = summary.rho_mean[0]
    ok = rho is not None and 0.485 <= rho <= 0.515 and summary.mean_hausdorff <= 0.01
    report(
        "1 balanced single change point",
        ok,
        f"mean rho={rho:.4f} in [0.485, 0.515], mean D={summary.mean_hausdorff:.4f} <= 0.01",
    )


def test_criterion_2_single_change_point_unbalanced():
    records = paper_records("table1-unbalanced")
    summary = aggregate(records)
    rho = summary.rho_mean[0]
    ok = rho is not None and 0.235 <= rho <= 0.265 and summary.mean_hausdorff <= 0.01
    report(
        "2 unbalanced single change point",
        ok,
        f"mean rho={rho:.4f} in [0.235, 0.265], mean D={summary.mean_hausdorff:.4f} <= 0.01",
    )


def test_criterion_3_epidemic_two_change_points():
    records = paper_records("epidemic")
    summary = aggregate(records)
    frac_k2 = sum(1 for r in records if r.k_hat == 2) / len(records)
    rho1, rho2 = summary.rho_mean
    ok = (
        rho1 is not None
        and rho2 is not None
        and abs(rho1 - 1 / 3) <= 0.02
        and abs(rho2 - 2 / 3) <= 0.02
        and frac_k2 >= 0.80
    )
    report(
        "3 epidemic two change points",
        ok,
        f"mean rho=({rho1:.4f}, {rho2:.4f}) within 0.02 of (1/3, 2/3), "
        f"K=2 fraction {frac_k2:.2f} >= 0.80",
    )


def test_criterion_4_tuning_monotonicity():
    gammas = (100.0, 200.0, 300.0)
    grid = run_grid(
        "tuning-grid", q=8, d=2, reps=20, base_seed=BASE_SEED, config=BENCH_CONFIG,
        lams=(0.0, 1.0), gammas=gammas,
    )
    detail = []
    ok = True
    for lam in (0.0, 1.0):
        fracs = [
            sum(1 for r in grid[(lam, g)] if r.k_hat > 2) / len(grid[(lam, g)])
            for g in gammas
        ]
        ok = ok and all(b <= a for a, b in zip(fracs, fracs[1:]))
        detail.append(f"lam={lam}: frac(K>2)={fracs}")
    report("4 tuning over-segmentation nonincreasing in gamma", ok, "; ".join(detail))


def test_criterion_5_dp_exactness_oracle():
    rng = np.random.default_rng(424242)
    worst = 0.0
    for trial in range(50):
        n = int(rng.integers(6, 15))
        L = int(rng.integers(1, 3))
        gamma = float(rng.uniform(0, 3))
        series = random_series(n=n, L=L, seed=int(rng.integers(0, 2**31)))
        config = DetectorConfig(p=1, L=L, lam=0.0, gamma=gamma, delta=2)
        result = detect(series, config)
        best, _ = brute_force_minimum(series, config)
        rel = abs(result.objective - best) / max(abs(best), 1e-300)
        worst = max(worst, rel)
    ok = worst <= 1e-9
    report("5 DP equals exhaustive enumeration", ok, f"worst relative gap {worst:.2e} <= 1e-9")


def test_criterion_6_lasso_oracles():
    rng = np.random.default_rng(828282)
    series = random_series(n=80, L=3, seed=606)
    worst_ols = 0.0
    for _ in range(100):
        p = int(rng.integers(1, 4))
        ell = int(rng.integers(0, 3))
        s = int(rng.integers(1, 60))
        e = int(rng.integers(s + p + 3, 81))
        fit = interval_phi(series, s, e, ell, p, lam=0.0)
        worst_ols = max(worst_ols, float(np.abs(fit - ols_fit(series, s, e, ell, p)).max()))

    worst_soft = 0.0
    for _ in range(100):
        ell = int(rng.integers(0, 3))
        s = int(rng.integers(1, 60))
        e = int(rng.integers(s + 4, 81))
        lam = float(rng.uniform(0, 3))
        y, x = dense_design(series, s, e, ell, 1)
        g = float(x[:, 0] @ x[:, 0])
        r = float(x[:, 0] @ y)
        n_eff = e - s
        closed = soft_threshold(r, lam * math.sqrt(n_eff * (2 * ell + 1)) / 2) / g
        fit = interval_phi(series, s, e, ell, 1, lam=lam)
        worst_soft = max(worst_soft, abs(fit[0] - closed))

    ok = worst_ols <= 1e-6 and worst_soft <= 1e-10
    report(
        "6 LASSO against dense OLS and closed-form soft threshold",
        ok,
        f"max |cd - ols| = {worst_ols:.2e} <= 1e-6, max p=1 gap {worst_soft:.2e} <= 1e-10",
    )


def test_criterion_7_simulator_stationarity():
    n = 20000
    series = ar1_series(n=n, L=2, phi=0.5, c_noise=1.0, seed=BASE_SEED)
    target = 4.0 / 3.0
    # standard error of the sample variance of a Gaussian AR(1):
    # var(sigma^2_hat) ~ 2 sigma^4 / n * (1 + phi^2) / (1 - phi^2)
    se_var = target * math.sqrt(2.0 / n * 1.25 / 0.75)
    var_devs = [
        abs(series.data[:, slot_index(ell, m)].var() - target) / se_var
        for ell in range(2)
        for m in range(-ell, ell + 1)
    ]
    streams = [series.data[:, slot_index(ell, m)] for ell in range(2) for m in range(-ell, ell + 1)]
    se_corr = 1.0 / math.sqrt(n)
    corr_devs = [
        abs(np.corrcoef(streams[i], streams[j])[0, 1]) / se_corr
        for i in range(len(streams))
        for j in range(i + 1, len(streams))
    ]
    ok = max(var_devs) <= 5.0 and max(corr_devs) <= 5.0
    report(
        "7 simulator stationary moments",
        ok,
        f"max variance deviation {max(var_devs):.2f} SE <= 5, "
        f"max cross-m correlation {max(corr_devs):.2f} SE <= 5",
    )


def test_criterion_8_metric_properties():
    rng = np.random.default_rng(515151)
    n = 500
    worst = 0.0
    for _ in range(1000):
        truth = set(rng.integers(1, n, size=rng.integers(1, 6)).tolist())
        est = set(rng.integers(1, n, size=rng.integers(1, 6)).tolist())
        expected = hausdorff_double_loop(est, truth) / n
        worst = max(worst, abs(hausdorff_scaled(est, truth, n) - expected))
    empty_ok = hausdorff_scaled(set(), {100}, 200) == 1.0
    ok = worst <= 1e-12 and empty_ok
    report(
        "8 scaled Hausdorff against double-loop oracle",
        ok,
        f"max |diff| = {worst:.2e} over 1000 pairs, empty-estimate convention {empty_ok}",
    )


def test_theory_bounds_finite_on_benchmark_scenarios():
    # supporting check: the tuning diagnostics are computable and finite
    # on every benchmark scenario, at both penalty levels used in them
    oks = []
    for spec in (
        make_scenario("table1-balanced", 8, 2, 0),
        make_scenario("table1-unbalanced", 8, 2, 0),
        make_scenario("table1-balanced", 2, 4, 0),
        make_scenario("epidemic", 8, 2, 0),
    ):
        for lam in (0.0, 1.0):
            tb = theory_tuning_bounds(list(spec.segments), lam=lam, p=spec.p)
            oks.append(
                np.isfinite(tb.alpha).all()
                and (tb.alpha > 0).all()
                and np.isfinite(tb.C_L)
                and tb.kappa_L is not None
                and np.isfinite(tb.kappa_L)
            )
    ok = all(bool(v) for v in oks)
    report("tuning diagnostics finite on benchmark scenarios", ok, f"{len(oks)} cases")
