"""Acceptance runs for the headline guarantees of the package.

Every test here exercises one end-to-end guarantee at its full stated
tolerance: closed-form accuracy of the spectral solver, reproduction of
the reference price/delta tables, cross-validation against the in-repo
tree oracle, the structural shape of the discretization error, and the
property suite of the numerical core.  Expensive strike/mesh sweeps run
once in a module fixture and are shared.

Each test prints one summary line (visible with ``pytest -s`` or on
failure) so a run doubles as a report.
"""

import csv
import time

import numpy as np
import pytest

from convbsde import (
    EXPECTATION,
    EXPLICIT_I,
    EXPLICIT_II,
    GRADIENT,
    IncrementSpectrum,
    MarketParams,
    STYLE_AMERICAN,
    STYLE_EUROPEAN,
    binomial_bsde,
    black_scholes_call,
    brownian_bsde,
    build_grid,
    build_pricing_problem,
    convolve_step,
    convolve_step_statedep,
    dense_quadrature_step,
    dft,
    extract_delta,
    fbsde,
    fit_coefficients,
    idft,
    solve,
    value_at_start,
)
from convbsde.cli import main

STRIKES = (90.0, 100.0, 110.0)
MESHES = (500, 1000, 2000, 5000)
SCHEMES = (EXPLICIT_I, EXPLICIT_II)

# 95% Monte-Carlo band for the ATM unequal-rates market (R=3%, r=1%)
MC_BAND = (9.3972, 9.4222)


@pytest.fixture(scope="module")
def log_grid():
    return build_grid(float(np.log(100.0)), 5.0, 12)


@pytest.fixture(scope="module")
def reference_prices():
    return {
        K: black_scholes_call(100.0, K, 0.01, 0.0, 0.2, 1.0) for K in STRIKES
    }


@pytest.fixture(scope="module")
def frictionless_sweep(log_grid):
    """(scheme, K, n) -> (price, delta) for the equal-rates call."""
    results = {}
    for scheme in SCHEMES:
        for K in STRIKES:
            market = MarketParams(K=K)
            for n in MESHES:
                problem = build_pricing_problem(market, n, scheme)
                surface = solve(problem, log_grid)
                price, _ = value_at_start(surface)
                results[(scheme, K, n)] = (price, extract_delta(surface, market))
    return results


def test_criterion_1_atm_price_accuracy_and_runtime(log_grid):
    ref = black_scholes_call(100.0, 100.0, 0.01, 0.0, 0.2, 1.0).price
    worst_err = 0.0
    worst_runtime = 0.0
    for style in (STYLE_EUROPEAN, STYLE_AMERICAN):
        market = MarketParams(style=style)
        started = time.perf_counter()
        surface = solve(build_pricing_problem(market, 1000, EXPLICIT_II), log_grid)
        runtime = time.perf_counter() - started
        price, _ = value_at_start(surface)
        rel_err = abs(price - ref) / ref
        worst_err = max(worst_err, rel_err)
        worst_runtime = max(worst_runtime, runtime)
        assert rel_err <= 1e-4, f"{style}: rel err {rel_err:.2e} above 0.01%"
        assert runtime <= 30.0, f"{style}: runtime {runtime:.1f}s above 30s"
    print(
        f"criterion 1 PASS: ATM rel err {worst_err:.2e} (limit 1e-4), "
        f"runtime {worst_runtime:.2f}s (limit 30s)"
    )


def test_criterion_2_error_table_levels_and_monotonicity(
    frictionless_sweep, reference_prices
):
    worst = 0.0
    for scheme in SCHEMES:
        for K in STRIKES:
            errs = [
                abs(frictionless_sweep[(scheme, K, n)][0] - reference_prices[K].price)
                / reference_prices[K].price
                * 100.0
                for n in MESHES
            ]
            worst = max(worst, max(errs))
            assert max(errs) <= 0.05, f"scheme {scheme} K={K}: {errs}"
            if scheme == EXPLICIT_I:
                assert errs == sorted(errs, reverse=True), (
                    f"scheme I K={K} not monotone: {errs}"
                )
    print(
        f"criterion 2 PASS: 24 cells, worst rel err {worst:.4f}% "
        "(limit 0.05%), scheme-I rows monotone"
    )


def test_criterion_3_delta_accuracy(frictionless_sweep, reference_prices):
    worst = 0.0
    for scheme in SCHEMES:
        for K in STRIKES:
            delta = frictionless_sweep[(scheme, K, 2000)][1]
            rel = abs(delta - reference_prices[K].delta) / reference_prices[K].delta
            worst = max(worst, rel * 100.0)
            assert rel <= 0.3e-2, f"scheme {scheme} K={K}: delta rel err {rel:.2e}"
    print(f"criterion 3 PASS: worst delta rel err {worst:.4f}% (limit 0.3%)")


def test_criterion_4_unequal_rates_price_band(log_grid):
    market = MarketParams(R=0.03)
    prices = []
    for n in MESHES:
        surface = solve(build_pricing_problem(market, n, EXPLICIT_II), log_grid)
        price, _ = value_at_start(surface)
        prices.append(price)
        assert abs(price - 9.4134) <= 1e-3, f"n={n}: {price:.4f}"
        assert MC_BAND[0] <= price <= MC_BAND[1], f"n={n}: {price:.4f}"
    spread = max(prices) - min(prices)
    print(
        f"criterion 4 PASS: prices {[f'{p:.4f}' for p in prices]} inside "
        f"9.4134 +/- 0.0010 and the Monte-Carlo band (spread {spread:.1e})"
    )


def test_criterion_5_cross_oracle_agreement(log_grid):
    gaps = {}
    for K in (90.0, 110.0):
        market = MarketParams(K=K, R=0.03, style=STYLE_AMERICAN)
        surface = solve(build_pricing_problem(market, 2000, EXPLICIT_II), log_grid)
        conv_price, _ = value_at_start(surface)
        tree_price, _ = binomial_bsde(market, 2000, reflected=True)
        gaps[K] = abs(conv_price - tree_price)
        assert gaps[K] <= 0.01, f"K={K}: |conv - tree| = {gaps[K]:.4f}"
    market = MarketParams(K=100.0, R=0.03, style=STYLE_AMERICAN)
    surface = solve(build_pricing_problem(market, 2000, EXPLICIT_II), log_grid)
    conv_delta = extract_delta(surface, market)
    _, tree_delta = binomial_bsde(market, 2000, reflected=True)
    delta_gap = abs(conv_delta - tree_delta)
    assert delta_gap <= 5e-4, f"ATM delta gap {delta_gap:.2e}"
    print(
        f"criterion 5 PASS: price gaps K=90/110 "
        f"{gaps[90.0]:.4f}/{gaps[110.0]:.4f} (limit 0.01), "
        f"ATM delta gap {delta_gap:.1e} (limit 5e-4)"
    )


def test_criterion_6_dividend_early_exercise_premium(log_grid):
    base = dict(R=0.03, div=0.035)
    american = MarketParams(style=STYLE_AMERICAN, **base)
    european = MarketParams(style=STYLE_EUROPEAN, **base)
    am, _ = value_at_start(
        solve(build_pricing_problem(american, 2000, EXPLICIT_II), log_grid)
    )
    eu, _ = value_at_start(
        solve(build_pricing_problem(european, 2000, EXPLICIT_II), log_grid)
    )
    assert am == pytest.approx(7.5610, abs=5e-3)
    assert eu == pytest.approx(7.4712, abs=5e-3)
    assert am - eu >= 0.05
    print(
        f"criterion 6 PASS: american {am:.4f} (7.5610 +/- 0.005), "
        f"european {eu:.4f} (7.4712 +/- 0.005), premium {am - eu:.4f} >= 0.05"
    )


def test_criterion_7_property_suite(tmp_path, every_row):
    # (a) zero driver, constant payoff: every row of the surface is that constant
    grid8 = build_grid(0.0, 3.0, 8)
    for scheme in SCHEMES:
        spec = brownian_bsde(
            horizon=1.0,
            steps=20,
            terminal=lambda x: np.full_like(x, 3.0),
            driver=lambda t, x, y, z: np.zeros_like(x),
            scheme=scheme,
        )
        u, udot, _ = every_row(spec, grid8)
        assert np.max(np.abs(u - 3.0)) <= 1e-10
        assert np.max(np.abs(udot)) <= 1e-10

    # (b) spectral step vs dense real-space quadrature on smooth bumps
    gq = build_grid(0.0, 4.0, 8)
    xq = gq.space_nodes()
    interior = slice(gq.N // 8, gq.N - gq.N // 8)
    law = IncrementSpectrum(gq, 0.05, 0.1, 1.0)
    for alpha in (0.0, 0.3):
        for kind in (EXPECTATION, GRADIENT):
            ((theta, _),) = convolve_step(np.exp(-(xq**2)), law, alpha, (kind,))
            dense = dense_quadrature_step(
                lambda y: np.exp(-(y**2)), gq, 0.05, 0.1, 1.0, alpha, kind, 10 * gq.N
            )
            assert np.max(np.abs(theta - dense)[interior]) <= 1e-5

    # (c) DFT round trip
    rng = np.random.default_rng(7)
    v = rng.standard_normal(256)
    assert np.max(np.abs(idft(dft(v)) - v)) <= 1e-12

    # (d) periodization endpoint residuals
    g9 = build_grid(0.5, 1.5, 9)
    xs = g9.space_nodes(include_right=True)
    for fun in (np.exp, lambda w: np.maximum(np.exp(w) - 1.0, 0.0), np.cosh):
        samples = fun(xs)
        c = fit_coefficients(samples, g9)
        mod = np.exp(-c.alpha * xs) * (samples + c.beta * xs + c.kappa)
        slope_a = (samples[1] - samples[0]) / g9.dx
        slope_b = (samples[-1] - samples[-2]) / g9.dx
        da = np.exp(-c.alpha * xs[0]) * (slope_a + c.beta) - c.alpha * mod[0]
        db = np.exp(-c.alpha * xs[-1]) * (slope_b + c.beta) - c.alpha * mod[-1]
        scale = max(abs(mod[0]), abs(mod[-1]), 1.0)
        assert abs(mod[0] - mod[-1]) / scale <= 1e-8
        assert abs(da - db) / scale <= 1e-8

    # (e) reflected solve: nonnegative increments, solution above barrier,
    # on every row
    reflected_spec = fbsde(
        horizon=0.5,
        steps=10,
        x_init=0.0,
        drift=lambda t, x: np.zeros_like(x),
        vol=lambda t, x: np.ones_like(x),
        terminal=lambda x: np.abs(x),
        driver=lambda t, x, y, z: np.full_like(x, -1.0),
        barrier=lambda t, x: np.abs(x),
    )
    u, _, reflection = every_row(reflected_spec, grid8)
    xs8 = grid8.space_nodes()
    assert np.min(reflection) >= 0.0
    assert np.min(u - np.abs(xs8)[None, :]) >= -1e-12

    # (f) state-dependent path equals the fast path on constant data
    g7 = build_grid(1.0, 2.0, 7)
    x7 = g7.space_nodes()
    eta7 = np.maximum(np.exp(x7) - 2.0, 0.0)
    law7 = (0.02, 0.05, 0.8)
    ((fast, _),) = convolve_step(eta7, IncrementSpectrum(g7, *law7), 0.15, (EXPECTATION,))
    ((slow, _),) = convolve_step_statedep(eta7, g7, *law7, 0.15, (EXPECTATION,))
    assert np.max(np.abs(fast - slow)) <= 1e-10

    # (g) seeded scenario CSVs are byte-identical
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    args = ["paths", "--n", "100", "--paths", "4", "--seed", "5"]
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()

    print("criterion 7 PASS: properties (a)-(g) hold at their tolerances")


def _node_errors(tmp_path, n):
    out = tmp_path / f"errors_{n}.csv"
    assert main(["error-surface", "--n", str(n), "--out", str(out)]) == 0
    with open(out, newline="") as handle:
        rows = list(csv.DictReader(handle))
    return np.array([float(r["abs_err_price"]) for r in rows])


def test_criterion_8_boundary_error_structure(tmp_path):
    coarse = _node_errors(tmp_path, 1000)
    fine = _node_errors(tmp_path, 2000)
    m = coarse.size
    edge = max(1, int(round(0.025 * m)))
    outer_max = max(coarse[:edge].max(), coarse[-edge:].max())
    interior_median = float(np.median(coarse[edge:-edge]))
    ratio = outer_max / interior_median
    assert ratio >= 10.0, f"boundary/interior ratio {ratio:.1f}"
    lo, hi = int(round(0.05 * m)), int(round(0.95 * m))
    probes = np.linspace(lo, hi - 1, 16).round().astype(int)
    # the absolute floor ignores sign-crossing noise far below the
    # interior error scale
    for k in probes:
        assert fine[k] <= 1.1 * coarse[k] + 1e-8, (
            f"probe {k}: {coarse[k]:.3e} -> {fine[k]:.3e}"
        )
    print(
        f"criterion 8 PASS: boundary/interior ratio {ratio:.1e} (limit 10), "
        "16 interior probes stable under mesh halving"
    )


def test_criterion_9_convergence_order(frictionless_sweep, reference_prices):
    orders = {}
    log_n = np.log(np.array(MESHES, dtype=float))
    for K in STRIKES:
        errs = np.array(
            [
                abs(frictionless_sweep[(EXPLICIT_I, K, n)][0] - reference_prices[K].price)
                for n in MESHES
            ]
        )
        slope = np.polyfit(log_n, np.log(errs), 1)[0]
        orders[K] = -slope
        assert 0.7 <= orders[K] <= 1.3, f"K={K}: order {orders[K]:.3f}"
    summary = ", ".join(f"K={K:g}: {orders[K]:.2f}" for K in STRIKES)
    print(f"criterion 9 PASS: empirical orders {summary} (limit [0.7, 1.3])")
