"""Tests for the closed-form, tree and quadrature reference implementations."""

import ast
import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr
from scipy.stats import norm

from convbsde import (
    EXPECTATION,
    MarketParams,
    binomial_bsde,
    black_scholes_call,
    build_grid,
    dense_quadrature_step,
)
import convbsde.oracles as oracles_module
import convbsde.spectral as spectral_module
from convbsde.oracles import black_scholes_call_curve, normal_cdf

# 95% Monte-Carlo band for the ATM unequal-rates market (R=0.03, r=0.01)
MC_BAND_LOW, MC_BAND_HIGH = 9.3972, 9.4222


def test_normal_cdf_matches_scipy_ndtr():
    d = np.concatenate([np.linspace(-38.0, 38.0, 200_001), [0.0]])
    ours, ref = normal_cdf(d), ndtr(d)
    tail = ref > 1e-300
    assert tail.sum() > 190_000
    np.testing.assert_allclose(ours[tail], ref[tail], rtol=1e-12, atol=0.0)
    # below 1e-300 both round to subnormals or zero
    assert np.all(np.abs(ours[~tail]) <= 1e-300)
    assert normal_cdf(0.0) == 0.5
    special = normal_cdf(np.array([-np.inf, np.inf, np.nan]))
    assert special[0] == 0.0 and special[1] == 1.0 and np.isnan(special[2])


def test_normal_cdf_keeps_float_and_shape():
    for scalar in (1.0, np.float64(1.0), np.array(1.0)):
        value = normal_cdf(scalar)
        assert isinstance(value, float)
        assert value == pytest.approx(ndtr(1.0), rel=1e-15)
    assert normal_cdf(np.zeros((2, 3))).dtype == np.float64
    assert normal_cdf(np.zeros((2, 3))).shape == (2, 3)
    assert normal_cdf([-1.0, 1.0]).shape == (2,)


def test_closed_form_curve_keeps_shape_and_put_call_parity():
    K, r, q, sigma, T = 100.0, 0.02, 0.03, 0.3, 2.0
    spots = np.geomspace(20.0, 500.0, 24).reshape(4, 6)
    prices, deltas = black_scholes_call_curve(spots, K, r, q, sigma, T)
    assert prices.shape == deltas.shape == (4, 6)
    assert prices.dtype == deltas.dtype == np.float64
    price, delta = black_scholes_call_curve(100.0, K, r, q, sigma, T)
    assert isinstance(price, float) and isinstance(delta, float)
    # the put written with scipy's distribution function
    d1 = (np.log(spots / K) + (r - q + 0.5 * sigma**2) * T) / (sigma * np.sqrt(T))
    d2 = d1 - sigma * np.sqrt(T)
    puts = K * np.exp(-r * T) * ndtr(-d2) - spots * np.exp(-q * T) * ndtr(-d1)
    forward_gap = spots * np.exp(-q * T) - K * np.exp(-r * T)
    assert np.all(np.abs(prices - puts - forward_gap) <= 1e-12 * spots)


def test_closed_form_reference_values():
    # textbook values for S0=100, r=1%, no dividend, sigma=20%, T=1
    cases = {
        90.0: (14.1929, 0.7507),
        100.0: (8.4333, 0.5596),
        110.0: (4.6101, 0.3720),
    }
    for strike, (price, delta) in cases.items():
        res = black_scholes_call(100.0, strike, 0.01, 0.0, 0.2, 1.0)
        assert res.price == pytest.approx(price, abs=5e-5)
        assert res.delta == pytest.approx(delta, abs=5e-5)


def test_closed_form_matches_direct_formula():
    S0, K, r, q, sigma, T = 105.0, 95.0, 0.03, 0.02, 0.25, 1.5
    d1 = (np.log(S0 / K) + (r - q + sigma**2 / 2) * T) / (sigma * np.sqrt(T))
    d2 = d1 - sigma * np.sqrt(T)
    expected = S0 * np.exp(-q * T) * norm.cdf(d1) - K * np.exp(-r * T) * norm.cdf(d2)
    res = black_scholes_call(S0, K, r, q, sigma, T)
    assert res.price == pytest.approx(expected, rel=1e-12)
    assert res.delta == pytest.approx(np.exp(-q * T) * norm.cdf(d1), rel=1e-12)


@given(
    S0=st.floats(50.0, 200.0),
    K=st.floats(50.0, 200.0),
    r=st.floats(0.0, 0.1),
    q=st.floats(0.0, 0.1),
    sigma=st.floats(0.05, 0.8),
    T=st.floats(0.1, 3.0),
)
@settings(max_examples=60, deadline=None)
def test_closed_form_bounds(S0, K, r, q, sigma, T):
    res = black_scholes_call(S0, K, r, q, sigma, T)
    lower = max(S0 * np.exp(-q * T) - K * np.exp(-r * T), 0.0)
    assert lower - 1e-9 <= res.price <= S0 * np.exp(-q * T) + 1e-9
    assert -1e-12 <= res.delta <= 1.0 + 1e-12


def test_closed_form_degenerates_to_forward_intrinsic():
    # vanishing volatility: price collapses to the discounted forward
    # intrinsic value
    res = black_scholes_call(120.0, 100.0, 0.02, 0.0, 1e-8, 1.0)
    assert res.price == pytest.approx(120.0 - 100.0 * np.exp(-0.02), rel=1e-9)
    assert res.delta == pytest.approx(1.0, abs=1e-9)


def test_closed_form_validates_inputs():
    with pytest.raises(ValueError):
        black_scholes_call(0.0, 100.0, 0.01, 0.0, 0.2, 1.0)
    with pytest.raises(ValueError):
        black_scholes_call(100.0, -5.0, 0.01, 0.0, 0.2, 1.0)
    with pytest.raises(ValueError):
        black_scholes_call(100.0, 100.0, 0.01, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        black_scholes_call(100.0, 100.0, 0.01, 0.0, 0.2, 0.0)


def test_binomial_converges_to_closed_form_when_rates_agree():
    params = MarketParams()
    price, delta = binomial_bsde(params, 5000, reflected=True)
    ref = black_scholes_call(100.0, 100.0, 0.01, 0.0, 0.2, 1.0)
    assert abs(price - ref.price) <= 1e-3
    assert abs(delta - ref.delta) <= 5e-4
    # frozen regression values
    assert price == pytest.approx(8.433569748217668, abs=1e-9)
    assert delta == pytest.approx(0.5596278295316464, abs=1e-9)


def test_binomial_unequal_rates_reference_levels():
    # independently published tree levels for the R=0.03 market
    cases = {90.0: 15.4298, 110.0: 5.2936}
    for strike, published in cases.items():
        params = MarketParams(K=strike, R=0.03, style="american")
        price, _ = binomial_bsde(params, 2000, reflected=True)
        assert price == pytest.approx(published, abs=2e-3)
    params = MarketParams(K=100.0, R=0.03, style="american")
    price, delta = binomial_bsde(params, 2000, reflected=True)
    assert MC_BAND_LOW <= price <= MC_BAND_HIGH
    assert delta == pytest.approx(0.5987, abs=2e-4)


def test_binomial_unequal_rates_delta_levels():
    for strike, published in {90.0: 0.7813, 110.0: 0.4104}.items():
        params = MarketParams(K=strike, R=0.03, style="american")
        _, delta = binomial_bsde(params, 2000, reflected=True)
        assert delta == pytest.approx(published, abs=2e-4)


def test_binomial_reflection_only_adds_value():
    params = MarketParams(R=0.03, div=0.035, style="american")
    american, _ = binomial_bsde(params, 500, reflected=True)
    european, _ = binomial_bsde(params, 500, reflected=False)
    assert american >= european - 1e-12
    assert american - european >= 0.01  # the dividend makes waiting costly


def test_binomial_validates_step_count():
    with pytest.raises(ValueError):
        binomial_bsde(MarketParams(), 0, reflected=False)
    with pytest.raises(ValueError):
        binomial_bsde(MarketParams(), -5, reflected=True)


def test_dense_quadrature_requires_enough_points():
    g = build_grid(0.0, 1.0, 5)
    with pytest.raises(ValueError):
        dense_quadrature_step(np.zeros(g.N), g, 0.05, 0.0, 1.0, 0.0, EXPECTATION, 10 * g.N - 1)


def test_dense_quadrature_accepts_samples_or_callable():
    g = build_grid(0.0, 2.0, 6)
    x = g.space_nodes(include_right=True)
    fun = lambda y: np.exp(-((y - 0.3) ** 2))
    law = (0.05, 0.0, 1.0, 0.1, EXPECTATION, 10 * g.N)
    from_callable = dense_quadrature_step(fun, g, *law)
    from_full = dense_quadrature_step(fun(x), g, *law)
    from_short = dense_quadrature_step(fun(x[:-1]), g, *law)
    assert from_callable.shape == (g.N,)
    # sampled paths interpolate linearly between nodes (the short form
    # also extends flat past its last node), so the three variants agree
    # only to interpolation accuracy
    assert np.max(np.abs(from_full - from_short)) <= 2e-3
    assert np.max(np.abs(from_callable - from_full)) <= 2e-3


def test_oracles_take_nothing_from_the_spectral_solver():
    # agreement with the spectral step is evidence only if the
    # quadrature oracle is not built from it
    tree = ast.parse(inspect.getsource(oracles_module))
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    imported |= {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
    }
    assert not [name for name in imported if name and name.split(".")[-1] == "spectral"]
    bound = [
        name
        for name, value in vars(oracles_module).items()
        if value is spectral_module
        or getattr(value, "__module__", None) == spectral_module.__name__
    ]
    assert bound == []
