"""Tests for the boundary periodization fit and its closed-form adjustment."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convbsde import (
    DEFAULT_EPSILON,
    EXPECTATION,
    GRADIENT,
    SLOPE_TIE_TOLERANCE,
    TransformCoefficients,
    adjustment_H,
    apply_transform,
    build_grid,
    fit_coefficients,
)


def _modified(samples, xs, c):
    # the dampened, linearly shifted function the fit periodizes
    return np.exp(-c.alpha * xs) * (samples + c.beta * xs + c.kappa)


def _endpoint_residuals(samples, grid, c):
    """Value and slope mismatch of the modified function at the two ends.

    Slopes of the raw samples are the same one-sided differences the fit
    used, pushed through the product rule.
    """
    xs = grid.space_nodes(include_right=True)
    vals = _modified(samples, xs, c)
    slope_a = (samples[1] - samples[0]) / grid.dx
    slope_b = (samples[-1] - samples[-2]) / grid.dx
    da = np.exp(-c.alpha * xs[0]) * (slope_a + c.beta) - c.alpha * vals[0]
    db = np.exp(-c.alpha * xs[-1]) * (slope_b + c.beta) - c.alpha * vals[-1]
    scale = max(abs(vals[0]), abs(vals[-1]), 1.0)
    return abs(vals[0] - vals[-1]) / scale, abs(da - db) / scale


def test_quadratic_fit_on_unit_interval():
    # eta(x) = x^2 on [0, 1]: slopes are ~0 and ~2, so beta = 7 and
    # alpha = ln(9/7), kappa = 28 up to the one-sided difference bias
    g = build_grid(0.5, 0.5, 12)
    xs = g.space_nodes(include_right=True)
    c = fit_coefficients(xs**2, g)
    assert c.alpha == pytest.approx(np.log(9.0 / 7.0), abs=1e-4)
    assert c.beta == pytest.approx(7.0, abs=5e-4)
    assert c.kappa == pytest.approx(28.0, abs=1e-2)
    assert c.epsilon == DEFAULT_EPSILON
    # frozen regression values
    assert c.alpha == pytest.approx(0.251260173336911, abs=1e-12)
    assert c.beta == pytest.approx(6.999755859375, abs=1e-12)
    assert c.kappa == pytest.approx(28.005982905982904, abs=1e-9)


def test_linear_samples_take_degenerate_branch():
    # equal boundary slopes: alpha = kappa = 0 and the linear trend is
    # cancelled outright, leaving a constant
    g = build_grid(0.0, 2.0, 6)
    xs = g.space_nodes(include_right=True)
    c = fit_coefficients(2.0 - 3.0 * xs, g)
    assert c.alpha == 0.0
    assert c.kappa == 0.0
    assert c.beta == pytest.approx(3.0, rel=1e-14)
    w = apply_transform(2.0 - 3.0 * xs, g, c)
    assert np.max(np.abs(w - 2.0)) <= 1e-12


@pytest.mark.parametrize(
    "func",
    [np.exp, lambda v: np.maximum(np.exp(v) - 1.0, 0.0), np.cosh],
    ids=["exp", "call-payoff", "cosh"],
)
def test_endpoint_residuals_vanish(func):
    g = build_grid(0.5, 1.5, 9)
    samples = func(g.space_nodes(include_right=True))
    c = fit_coefficients(samples, g)
    value_res, slope_res = _endpoint_residuals(samples, g, c)
    assert value_res <= 1e-12
    assert slope_res <= 1e-12


@given(
    coeffs=st.tuples(
        st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)
    ),
    center=st.floats(-1.0, 1.0),
    half_width=st.floats(0.5, 2.0),
    log2N=st.integers(5, 8),
)
@settings(max_examples=40, deadline=None)
def test_endpoint_matching_for_random_cubics(coeffs, center, half_width, log2N):
    c3, c2, c1 = coeffs
    g = build_grid(center, half_width, log2N)
    xs = g.space_nodes(include_right=True)
    samples = c3 * xs**3 + c2 * xs**2 + c1 * xs
    c = fit_coefficients(samples, g)
    value_res, slope_res = _endpoint_residuals(samples, g, c)
    assert value_res <= 1e-8
    assert slope_res <= 1e-8


def test_beta_dominates_boundary_slopes():
    g = build_grid(0.0, 2.0, 7)
    xs = g.space_nodes(include_right=True)
    samples = np.exp(xs)
    c = fit_coefficients(samples, g, epsilon=2.5)
    slope_a = (samples[1] - samples[0]) / g.dx
    slope_b = (samples[-1] - samples[-2]) / g.dx
    assert c.beta == pytest.approx(2.5 + max(abs(slope_a), abs(slope_b)), rel=1e-14)
    assert c.epsilon == 2.5


def test_apply_transform_accepts_n_or_n_plus_one_samples():
    g = build_grid(0.0, 1.0, 5)
    xs = g.space_nodes(include_right=True)
    samples = np.sin(xs) + 2.0
    c = fit_coefficients(samples, g)
    w_full = apply_transform(samples, g, c)
    w_short = apply_transform(samples[:-1], g, c)
    assert w_full.shape == (g.N,)
    assert np.array_equal(w_full, w_short)
    # matches the closed form on the DFT nodes
    assert np.max(np.abs(w_full - _modified(samples[:-1], xs[:-1], c))) <= 1e-14


def test_fit_rejects_bad_input():
    g = build_grid(0.0, 1.0, 5)
    xs = g.space_nodes(include_right=True)
    good = np.exp(xs)
    with pytest.raises(ValueError):
        fit_coefficients(good[:-1], g)  # needs N+1 samples
    with pytest.raises(ValueError):
        fit_coefficients(np.r_[good[:-1], np.nan], g)
    with pytest.raises(ValueError):
        fit_coefficients(good, g, epsilon=0.0)
    with pytest.raises(ValueError):
        fit_coefficients(good, g, epsilon=-1.0)


def test_apply_rejects_bad_input():
    g = build_grid(0.0, 1.0, 5)
    c = TransformCoefficients(alpha=0.1, beta=1.0, kappa=0.5, epsilon=5.0)
    with pytest.raises(ValueError):
        apply_transform(np.zeros(g.N - 1), g, c)
    bad = TransformCoefficients(alpha=np.nan, beta=1.0, kappa=0.5, epsilon=5.0)
    with pytest.raises(ValueError):
        apply_transform(np.zeros(g.N), g, bad)


def test_adjustment_closed_forms():
    c = TransformCoefficients(alpha=0.0, beta=2.0, kappa=1.5, epsilon=5.0)
    x = np.array([-1.0, 0.0, 2.0])
    # alpha = 0: expectation image is beta*(x + drift*step) + kappa
    h = adjustment_H(x, c, EXPECTATION, forward_drift=0.25)
    assert np.allclose(h, 2.0 * (x + 0.25) + 1.5, rtol=0.0, atol=1e-15)
    # gradient image is beta*vol
    h = adjustment_H(x, c, GRADIENT, forward_vol=0.4)
    assert np.allclose(h, 0.8, rtol=0.0, atol=1e-15)
    # alpha does not enter: H is the image after regrowth
    c2 = TransformCoefficients(alpha=0.3, beta=2.0, kappa=1.5, epsilon=5.0)
    h = adjustment_H(1.0, c2, EXPECTATION, forward_drift=0.0)
    assert isinstance(h, float)
    assert h == pytest.approx(3.5, rel=1e-14)


def test_adjustment_rejects_unknown_kind():
    c = TransformCoefficients(alpha=0.0, beta=1.0, kappa=0.0, epsilon=5.0)
    with pytest.raises(ValueError):
        adjustment_H(0.0, c, "median")


def test_tie_tolerance_constant():
    assert SLOPE_TIE_TOLERANCE == 1e-12
    assert DEFAULT_EPSILON == 5.0
