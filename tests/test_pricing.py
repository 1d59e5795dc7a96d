"""Tests for the option-market layer on top of the generic solver."""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from convbsde import (
    EXPLICIT_I,
    EXPLICIT_II,
    DomainCoverageBreach,
    MarketParams,
    PriceBoundBreach,
    STYLE_AMERICAN,
    STYLE_EUROPEAN,
    black_scholes_call,
    build_grid,
    build_pricing_problem,
    check_delta_bounds,
    check_domain_coverage,
    check_price_bounds,
    solve,
    spot_delta,
    value_at_start,
)
from convbsde.pricing import COVERAGE_STDEVS, DELTA_SLACK, MAX_HALF_WIDTH, MAX_LOG_PRICE


def test_market_defaults():
    m = MarketParams()
    assert (m.S0, m.K, m.r, m.R, m.mu, m.div, m.sigma, m.T) == (
        100.0,
        100.0,
        0.01,
        0.01,
        0.05,
        0.0,
        0.2,
        1.0,
    )
    assert m.style == STYLE_EUROPEAN


def test_market_validation():
    with pytest.raises(ValueError):
        MarketParams(S0=0.0)
    with pytest.raises(ValueError):
        MarketParams(K=-10.0)
    with pytest.raises(ValueError):
        MarketParams(sigma=0.0)
    with pytest.raises(ValueError):
        MarketParams(T=-1.0)
    with pytest.raises(ValueError):
        MarketParams(R=0.005)  # borrowing below lending
    with pytest.raises(ValueError):
        MarketParams(style="bermudan")


def test_market_is_frozen():
    m = MarketParams()
    with pytest.raises(dataclasses.FrozenInstanceError):
        m.K = 110.0


def test_problem_construction():
    m = MarketParams(K=110.0, R=0.03, div=0.02, style=STYLE_AMERICAN)
    spec = build_pricing_problem(m, 250, EXPLICIT_I)
    assert spec.steps == 250
    assert spec.scheme == EXPLICIT_I
    # the problem per unit of S0: x = ln(S/S0) starts at 0, strike K/S0
    assert spec.x_init == 0.0
    # log-price drift mu - div - sigma^2/2
    x = np.array([-0.6, 0.0, 0.4])
    assert np.allclose(spec.drift(0.0, x), 0.05 - 0.02 - 0.02, atol=1e-15)
    assert np.allclose(spec.vol(0.0, x), 0.2, atol=1e-15)
    assert np.array_equal(spec.terminal(x), np.maximum(np.exp(x) - 1.1, 0.0))
    # the barrier is the payoff itself for early exercise
    assert spec.barrier is not None
    assert np.array_equal(spec.barrier(0.3, x), spec.terminal(x))


def test_european_problem_has_no_barrier():
    spec = build_pricing_problem(MarketParams(), 100, EXPLICIT_II)
    assert spec.barrier is None


def test_driver_kink_only_with_unequal_rates():
    x = np.array([4.6])
    y = np.array([5.0])
    m_eq = MarketParams()
    spec = build_pricing_problem(m_eq, 10, EXPLICIT_II)
    # equal rates: f = -r*y - (mu-r)/sigma * z, linear in (y, z)
    for z in (-1.0, 0.0, 2.0):
        got = spec.driver(0.0, x, y, np.array([z]))
        expected = -0.01 * 5.0 - (0.05 - 0.01) / 0.2 * z
        assert got[0] == pytest.approx(expected, rel=1e-12)
    m_uneq = MarketParams(R=0.03)
    spec_u = build_pricing_problem(m_uneq, 10, EXPLICIT_II)
    # borrowing penalty switches on when the hedge exceeds the wealth
    z_active = np.array([2.0])  # z/sigma - y = 5 > 0
    got = spec_u.driver(0.0, x, y, z_active)
    expected = -0.01 * 5.0 - 0.2 * 2.0 + 0.02 * (2.0 / 0.2 - 5.0)
    assert got[0] == pytest.approx(expected, rel=1e-12)
    z_idle = np.array([0.5])  # z/sigma - y = -2.5 < 0
    got = spec_u.driver(0.0, x, y, z_idle)
    assert got[0] == pytest.approx(-0.01 * 5.0 - 0.2 * 0.5, rel=1e-12)


def _spread_formula(m, y, z):
    """The driver with its borrowing-spread term written out."""
    return -m.r * y - (m.mu - m.r) / m.sigma * z + (m.R - m.r) * np.maximum(z / m.sigma - y, 0.0)


def test_equal_rates_driver_drops_the_spread_term_bit_for_bit():
    # at R = r the spread term is 0 * (z/sigma - y)^+ and adds +0.0, so
    # the driver without it returns the same bits; at R > r it stays
    rng = np.random.default_rng(3)
    x = np.linspace(3.0, 6.0, 1000)
    y = 20.0 * rng.standard_normal(x.size)
    z = 20.0 * rng.standard_normal(x.size)
    equal = MarketParams(r=0.02, R=0.02)
    got = build_pricing_problem(equal, 10, EXPLICIT_II).driver(0.0, x, y, z)
    assert np.array_equal(got, _spread_formula(equal, y, z))
    spread = MarketParams(r=0.02, R=0.05)
    got = build_pricing_problem(spread, 10, EXPLICIT_II).driver(0.0, x, y, z)
    assert np.array_equal(got, _spread_formula(spread, y, z))
    shortfall = z / spread.sigma > y
    assert 0 < np.count_nonzero(shortfall) < x.size
    linear = _spread_formula(dataclasses.replace(spread, R=spread.r), y, z)
    assert np.all(got[shortfall] > linear[shortfall])
    assert np.array_equal(got[~shortfall], linear[~shortfall])


def test_european_price_and_delta_match_closed_form(pricing_grid):
    m = MarketParams()
    y0, z0 = value_at_start(solve(build_pricing_problem(m, 200, EXPLICIT_II), pricing_grid))
    ref = black_scholes_call(m.S0, m.K, m.r, m.div, m.sigma, m.T)
    assert abs(m.S0 * y0 - ref.price) / ref.price <= 5e-4
    assert abs(spot_delta(z0, m) - ref.delta) <= 1e-3


def test_spot_delta_reads_center_gradient(pricing_grid):
    # the unit problem's z0 is sigma*du/dx at x = ln(S/S0) = 0, where
    # dS = S0*dx: the delta is z0/sigma, whatever S0
    m = MarketParams()
    surface = solve(build_pricing_problem(m, 60, EXPLICIT_II), pricing_grid)
    mid = pricing_grid.N // 2
    expected = surface.udot[mid] / m.sigma
    assert spot_delta(surface.udot[mid], m) == expected


def test_dividend_creates_early_exercise_premium(pricing_grid):
    m_am = MarketParams(R=0.03, div=0.035, style=STYLE_AMERICAN)
    m_eu = MarketParams(R=0.03, div=0.035, style=STYLE_EUROPEAN)
    am, _ = value_at_start(solve(build_pricing_problem(m_am, 300, EXPLICIT_II), pricing_grid))
    eu, _ = value_at_start(solve(build_pricing_problem(m_eu, 300, EXPLICIT_II), pricing_grid))
    assert am > eu
    # prices per unit of S0 = 100
    assert 100.0 * (am - eu) >= 0.05


def test_grid_must_be_centered_on_log_spot():
    # the unit problem starts at x = ln(S/S0) = 0, not at ln(S0)
    m = MarketParams()
    wrong = build_grid(float(np.log(m.S0)), 5.0, 10)
    with pytest.raises(ValueError):
        solve(build_pricing_problem(m, 10, EXPLICIT_II), wrong)


@pytest.mark.parametrize(
    "market, upper, bound",
    [
        (MarketParams(div=0.5, T=2.0), np.exp(-1.0), "exp(-div*T)"),
        (MarketParams(div=0.5, T=2.0, style=STYLE_AMERICAN), 1.0, "1"),
    ],
)
def test_price_bounds_allow_the_static_range_plus_slack(market, upper, bound):
    # prices per unit of S0
    slack = 1e-4
    for price in (-slack, 0.0, upper, upper + slack):
        check_price_bounds(price, market)
    for price in (-2 * slack, upper + 2 * slack, float("nan")):
        with pytest.raises(PriceBoundBreach, match=rf"C/S0 <= {re.escape(bound)} ") as info:
            check_price_bounds(price, market)
        assert "--half-width" in str(info.value)


@pytest.mark.parametrize(
    "market, upper, bound",
    [
        (MarketParams(div=0.5, T=2.0), np.exp(-1.0), "exp(-div*T)"),
        (MarketParams(div=0.5, T=2.0, style=STYLE_AMERICAN), 1.0, "1"),
    ],
)
def test_delta_bounds_allow_the_static_range_plus_slack(market, upper, bound):
    for delta in (-DELTA_SLACK, 0.0, upper, upper + DELTA_SLACK):
        check_delta_bounds(delta, market)
    for delta in (-2 * DELTA_SLACK, upper + 2 * DELTA_SLACK, float("nan")):
        with pytest.raises(PriceBoundBreach, match=rf"delta <= {re.escape(bound)} ") as info:
            check_delta_bounds(delta, market)
        assert "--half-width" in str(info.value)


@pytest.mark.parametrize("sigma, T", [(1.0, 1.0), (0.5, 4.0), (2.0, 0.25)])
def test_domain_coverage_needs_drift_plus_five_standard_deviations(sigma, T):
    market = MarketParams(sigma=sigma, T=T)
    spread = sigma * np.sqrt(T)
    # the pricing law at the rate r = R drifts further than the stock
    drift = abs(market.r - market.div - 0.5 * sigma * sigma) * T
    assert drift > abs(market.log_drift) * T
    narrowest = drift + COVERAGE_STDEVS * spread
    check_domain_coverage(market, narrowest)
    narrow = np.nextafter(narrowest, 0.0)
    with pytest.raises(DomainCoverageBreach, match="--half-width") as info:
        check_domain_coverage(market, narrow)
    assert f"sigma*sqrt(T) = {spread:g}" in str(info.value)
    assert f"the drift |a|*T = {drift:.6g} (a = r - div - sigma^2/2)" in str(info.value)
    suggested = re.search(r"use --half-width (\S+) or more", str(info.value)).group(1)
    assert float(suggested) == pytest.approx(narrowest, rel=1e-5)
    check_domain_coverage(market, float(suggested))
    # without drift, five standard deviations are enough
    half_var = 0.5 * sigma * sigma
    driftless = MarketParams(sigma=sigma, T=T, mu=half_var, r=half_var, R=half_var)
    check_domain_coverage(driftless, COVERAGE_STDEVS * spread)


def test_domain_coverage_says_when_no_half_width_serves():
    # at 5*sigma*sqrt(T) = MAX_HALF_WIDTH exactly one half-width passes;
    # one ulp more sigma leaves none, whatever half-width is asked for
    # (mu = r = R = sigma^2/2 makes every log-price drift 0)
    sigma = MAX_HALF_WIDTH / COVERAGE_STDEVS
    half_var = 0.5 * sigma * sigma
    market = MarketParams(sigma=sigma, mu=half_var, r=half_var, R=half_var)
    check_domain_coverage(market, MAX_HALF_WIDTH)
    wider = dataclasses.replace(market, sigma=np.nextafter(sigma, np.inf))
    for half_width in (5.0, MAX_HALF_WIDTH, 20.0):
        with pytest.raises(DomainCoverageBreach, match="no half-width serves") as info:
            check_domain_coverage(wider, half_width)
        assert "sigma*sqrt(T) = 2.9 needs" in str(info.value)
        assert "use --half-width" not in str(info.value)
    # the same when the spot leaves less log-price room than 5 sigma*sqrt(T)
    spot = MarketParams(S0=float(np.exp(MAX_LOG_PRICE - 0.9)))
    with pytest.raises(DomainCoverageBreach, match="no half-width serves") as info:
        check_domain_coverage(spot, 0.5)
    assert f"above 0.9, the room float64 leaves below log price {MAX_LOG_PRICE:g}" in str(
        info.value
    )


def test_a_one_point_interval_suggests_its_bound_exactly():
    # 5*sigma*sqrt(T) equals the room below MAX_LOG_PRICE at S0 = 1e305,
    # so one half-width passes; rounded to 6 digits, up or down, it
    # would leave the interval (mu = r = R = sigma^2/2: no drift)
    widest = float(MAX_LOG_PRICE - np.log(1e305))
    sigma = widest / COVERAGE_STDEVS
    half_var = 0.5 * sigma * sigma
    market = MarketParams(S0=1e305, sigma=sigma, mu=half_var, r=half_var, R=half_var)
    for half_width, side in ((1.0, "more"), (20.0, "less")):
        with pytest.raises(DomainCoverageBreach) as info:
            check_domain_coverage(market, half_width)
        assert str(info.value).endswith(f"use --half-width {widest!r} or {side}")
    check_domain_coverage(market, widest)


@given(
    log10_spot=st.floats(-300.0, 300.0),
    sigma=st.floats(1e-3, 4.0),
    T=st.floats(1e-3, 30.0),
    r=st.floats(-0.2, 0.5),
    spread=st.floats(0.0, 0.5),
    mu=st.floats(-0.5, 0.5),
    div=st.floats(0.0, 0.5),
    half_width=st.floats(1e-3, 1e3),
)
# at S0 = 1e290 the room below MAX_LOG_PRICE binds: half-width 20 was
# told "14.5 or less", and 14.5 was then refused for that room
@example(log10_spot=290.0, sigma=0.2, T=1.0, r=0.01, spread=0.0, mu=0.05, div=0.0, half_width=20.0)
@settings(max_examples=300, deadline=None)
def test_every_suggested_half_width_passes_the_domain_check(
    log10_spot, sigma, T, r, spread, mu, div, half_width
):
    market = MarketParams(
        S0=10.0**log10_spot, K=10.0**log10_spot, r=r, R=r + spread, mu=mu, div=div,
        sigma=sigma, T=T,
    )
    try:
        check_domain_coverage(market, half_width)
    except DomainCoverageBreach as exc:
        suggested = re.search(r"use --half-width (\S+) or (?:more|less)$", str(exc))
        if suggested is None:
            assert str(exc).endswith("no half-width serves this market")
        else:
            check_domain_coverage(market, float(suggested.group(1)))
