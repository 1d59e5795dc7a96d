"""Tests for the boundary periodization fit and its closed-form adjustment."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convbsde import (
    EXPECTATION,
    GRADIENT,
    SLOPE_MARGIN,
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
    w, regrow = apply_transform(2.0 - 3.0 * xs[:-1], xs[:-1], c)
    assert np.max(np.abs(w - 2.0)) <= 1e-12
    assert np.array_equal(regrow, np.ones(g.N))


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
    if c.alpha == 0.0:
        # the linear-trend branch leaves a slope gap within
        # SLOPE_TIE_TOLERANCE * beta unmatched
        slope_a = (samples[1] - samples[0]) / g.dx
        slope_b = (samples[-1] - samples[-2]) / g.dx
        steepest = max(abs(slope_a), abs(slope_b))
        assert abs(slope_a - slope_b) <= SLOPE_TIE_TOLERANCE * (SLOPE_MARGIN + steepest)
    else:
        assert slope_res <= 1e-8


def test_beta_dominates_boundary_slopes():
    g = build_grid(0.0, 2.0, 7)
    xs = g.space_nodes(include_right=True)
    samples = np.exp(xs)
    c = fit_coefficients(samples, g)
    slope_a = (samples[1] - samples[0]) / g.dx
    slope_b = (samples[-1] - samples[-2]) / g.dx
    assert c.beta == pytest.approx(SLOPE_MARGIN + max(abs(slope_a), abs(slope_b)), rel=1e-14)


def test_fit_refuses_a_slope_that_rounds_the_margin_away():
    # boundary slopes of -1e20 and +1e20: SLOPE_MARGIN + 1e20 == 1e20, so
    # slope_a + beta is exactly 0 and used to give alpha = inf, kappa = nan
    g = build_grid(0.0, 5.0, 6)
    samples = np.zeros(g.N + 1)
    samples[0] = samples[-1] = 1e20 * g.dx
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="rounds the slope margin 5 away"):
            fit_coefficients(samples, g)


@pytest.mark.parametrize("center", [-np.log(100.0), np.log(100.0)])
def test_fit_refuses_a_dampening_beyond_float64_range(center):
    # a steep right-edge slope on a narrow domain fits alpha = ln(2)/l,
    # about 350: exp(-alpha*x) overflows on both ends left of the origin
    # and underflows on both ends right of it, leaving kappa non-finite.
    # The fit names alpha and the left end, where exp(-alpha*x) is
    # largest, without a RuntimeWarning
    g = build_grid(center, 1e-3, 6)
    samples = np.zeros(g.N + 1)
    samples[-1] = 1e6 * g.dx
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"dampening alpha = 34\d\.\d+ takes") as info:
            fit_coefficients(samples, g)
    assert f"at the domain end x = {g.x0:.6g}" in str(info.value)


def test_apply_transform_takes_one_sample_per_dft_node():
    g = build_grid(0.0, 1.0, 5)
    xs = g.space_nodes(include_right=True)
    samples = np.sin(xs) + 2.0
    c = fit_coefficients(samples, g)
    x = g.space_nodes()
    w, regrow = apply_transform(samples[:-1], x, c)
    assert w.shape == regrow.shape == (g.N,)
    # matches the closed form on the DFT nodes, and regrow undoes the
    # dampening
    assert np.max(np.abs(w - _modified(samples[:-1], x, c))) <= 1e-14
    assert np.max(np.abs(regrow - np.exp(c.alpha * x))) == 0.0
    # the right-edge sample x_N is the fit's alone
    with pytest.raises(ValueError, match="one value per DFT node"):
        apply_transform(samples, x, c)


def test_tie_branch_is_relative_to_beta():
    # a slope gap just below SLOPE_TIE_TOLERANCE * beta takes the
    # linear-trend branch, just above it the alpha/kappa fit, whatever
    # the scale of the samples
    g = build_grid(0.0, 5.0, 10)
    xs = g.space_nodes(include_right=True)
    reach = g.l - g.dx
    for scale in (1.0, 1e6):
        for factor, tied in ((0.9, True), (1.1, False)):
            # under one-sided differences scale*(x + c*x^2) has boundary
            # slopes scale*(1 -+ c*reach) on [-5, 5], so the gap is
            # 2*scale*c*reach and beta = SLOPE_MARGIN + scale*(1 + c*reach);
            # c puts their ratio at factor * SLOPE_TIE_TOLERANCE
            ratio = factor * SLOPE_TIE_TOLERANCE
            c = ratio * (SLOPE_MARGIN + scale) / (scale * reach * (2.0 - ratio))
            coeffs = fit_coefficients(scale * (xs + c * xs * xs), g)
            assert (coeffs.alpha == 0.0 and coeffs.kappa == 0.0) == tied


def test_fit_rejects_bad_input():
    g = build_grid(0.0, 1.0, 5)
    xs = g.space_nodes(include_right=True)
    good = np.exp(xs)
    with pytest.raises(ValueError):
        fit_coefficients(good[:-1], g)  # needs N+1 samples
    with pytest.raises(ValueError):
        fit_coefficients(np.r_[good[:-1], np.nan], g)


def test_apply_rejects_bad_input():
    g = build_grid(0.0, 1.0, 5)
    c = TransformCoefficients(alpha=0.1, beta=1.0, kappa=0.5)
    x = g.space_nodes()
    with pytest.raises(ValueError):
        apply_transform(np.zeros(g.N - 1), x, c)
    bad = TransformCoefficients(alpha=np.nan, beta=1.0, kappa=0.5)
    with pytest.raises(ValueError):
        apply_transform(np.zeros(g.N), x, bad)


def test_adjustment_closed_forms():
    c = TransformCoefficients(alpha=0.0, beta=2.0, kappa=1.5)
    x = np.array([-1.0, 0.0, 2.0])
    # alpha = 0: expectation image is beta*(x + drift*step) + kappa
    h = adjustment_H(x + 0.25, c, EXPECTATION, forward_vol=1.0)
    assert np.allclose(h, 2.0 * (x + 0.25) + 1.5, rtol=0.0, atol=1e-15)
    # gradient image is beta*vol
    h = adjustment_H(x, c, GRADIENT, forward_vol=0.4)
    assert np.allclose(h, 0.8, rtol=0.0, atol=1e-15)
    # alpha does not enter: H is the image after regrowth
    c2 = TransformCoefficients(alpha=0.3, beta=2.0, kappa=1.5)
    h = adjustment_H(1.0, c2, EXPECTATION, forward_vol=1.0)
    assert isinstance(h, float)
    assert h == pytest.approx(3.5, rel=1e-14)


def test_adjustment_rejects_unknown_kind():
    c = TransformCoefficients(alpha=0.0, beta=1.0, kappa=0.0)
    with pytest.raises(ValueError):
        adjustment_H(0.0, c, "median", forward_vol=1.0)


@pytest.mark.parametrize(
    "forward_mean",
    [
        np.array([0.0, np.inf, 1.0]),
        np.array([-1.0, 0.5, np.nan, 2.0]),
        np.array([[0.0, 1.0, 2.0], [-np.inf, 1.0, 2.0]]),
        np.array([[0.0, 1.0, 2.0], [0.0, np.nan, 2.0]]),
    ],
    ids=["interior-inf", "interior-nan", "2d-row-start-inf", "2d-interior-nan"],
)
def test_adjustment_rejects_any_non_finite_forward_mean(forward_mean):
    # every entry is checked, not only the two ends of a 1-d input
    c = TransformCoefficients(alpha=0.0, beta=2.0, kappa=1.5)
    with pytest.raises(ValueError, match="non-finite adjustment value"):
        adjustment_H(forward_mean, c, EXPECTATION, forward_vol=1.0)


def test_tie_tolerance_constant():
    assert SLOPE_TIE_TOLERANCE == 5e-6
    assert SLOPE_MARGIN == 5.0
