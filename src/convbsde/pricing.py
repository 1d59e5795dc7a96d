"""Option pricing problems on the log-price axis.

The market has unequal lending and borrowing rates r <= R, an expected
return mu, a dividend yield div and volatility sigma.  The log price
X = ln S then drifts at mu - div - sigma^2/2, and the replication
argument turns the call payoff into a backward equation whose driver
charges the borrowing spread on the shortfall (y - z/sigma)^-.
American style adds the payoff itself as a lower barrier.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import EXPLICIT_II, ProblemSpec, fbsde
from .model import SolutionSurface

STYLE_EUROPEAN = "european"
STYLE_AMERICAN = "american"
STYLES = (STYLE_EUROPEAN, STYLE_AMERICAN)

# Slack on the static price bounds, as a share of S0.  It absorbs the
# discretization error of prices close to a bound (about 1e-3 at
# S0 = 100, n = 1000); a breach beyond it is a wrong answer.
BOUND_SLACK = 1e-4
# Log-price standard deviations sigma*sqrt(T) the half-width must span.
# At n = 1000, N = 4096 and half-width 5 the ATM price is accurate to
# 7.8e-6 relative at sigma = 1.0 (ratio 5) and 1.3e-4 at sigma = 1.1,
# but off by 2.1e-3 at sigma = 1.25 and 4.8% at sigma = 1.5.
COVERAGE_STDEVS = 5.0
# Largest log price ln(S0) + half_width the grid's top node may carry.
# exp overflows float64 above 709.78, and a solve needs room beyond the
# payoff itself: the FFT sums N samples and the periodization fit scales
# them further.  The first overflow in a solve was measured at a top log
# price of 699 for N = 2^8, 694 for 2^12, 692 for 2^16 and 689 for 2^20.
MAX_LOG_PRICE = 680.0


class PriceBoundBreach(ArithmeticError):
    """A solved price lies outside the static no-arbitrage bounds."""


class DomainCoverageBreach(ArithmeticError):
    """The log-price domain is too narrow for the increment law."""


@dataclass(frozen=True)
class MarketParams:
    """Market and contract description for one call option.

    r is the lending rate, R the borrowing rate (R >= r; equal rates
    make the market frictionless and the driver linear), mu the
    expected return of the stock, div its continuous dividend yield.
    """

    S0: float = 100.0
    K: float = 100.0
    r: float = 0.01
    R: float = 0.01
    mu: float = 0.05
    div: float = 0.0
    sigma: float = 0.2
    T: float = 1.0
    style: str = STYLE_EUROPEAN

    def __post_init__(self):
        for name in ("S0", "K", "r", "R", "mu", "div", "sigma", "T"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        for name in ("S0", "K", "sigma", "T"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if self.R < self.r:
            raise ValueError("borrowing rate R must be at least the lending rate r")
        if self.style not in STYLES:
            raise ValueError(f"style must be one of {STYLES}")


def build_pricing_problem(
    params: MarketParams, n: int, scheme: str = EXPLICIT_II
) -> ProblemSpec:
    """Assemble the pricing problem for ``params`` with n time steps.

    The solver's z component estimates sigma * du/dx, which is exactly
    the z the driver formula is written in; the shortfall term divides
    it by sigma to recover the stock position.
    """
    r, big_r, mu, sigma = params.r, params.R, params.mu, params.sigma
    strike = params.K

    def terminal(x):
        return np.maximum(np.exp(x) - strike, 0.0)

    def driver(t, x, y, z):
        return (
            -r * y
            - (mu - r) / sigma * z
            + (big_r - r) * np.maximum(z / sigma - y, 0.0)
        )

    drift_value = mu - params.div - 0.5 * sigma * sigma
    barrier = None
    if params.style == STYLE_AMERICAN:
        barrier = lambda t, x: terminal(x)

    return fbsde(
        horizon=params.T,
        steps=n,
        x_init=float(np.log(params.S0)),
        drift=lambda t, x: drift_value,
        vol=lambda t, x: sigma,
        terminal=terminal,
        driver=driver,
        barrier=barrier,
        scheme=scheme,
    )


def extract_delta(surface: SolutionSurface, params: MarketParams) -> float:
    """Spot sensitivity at t=0 from the gradient surface.

    udot approximates sigma * du/dx on the log axis, and dS = S dx, so
    delta = udot / (sigma * S0) at the center node.
    """
    mid = surface.grid.N // 2
    return float(surface.udot[0, mid]) / (params.sigma * params.S0)


def check_domain_coverage(params: MarketParams, half_width: float) -> None:
    """Raise DomainCoverageBreach unless the grid's log-price half-width
    spans COVERAGE_STDEVS standard deviations sigma*sqrt(T) of the
    terminal log price and its top node ln(S0) + half_width stays at or
    below MAX_LOG_PRICE.

    A narrower domain truncates the increment law and returns a wrong
    price, often still inside the static no-arbitrage bounds; a wider
    one overflows float64 inside the solve.
    """
    spread = params.sigma * np.sqrt(params.T)
    ratio = half_width / spread
    if not ratio >= COVERAGE_STDEVS:
        raise DomainCoverageBreach(
            f"--half-width {half_width:g} is {ratio:.3g} times sigma*sqrt(T) = "
            f"{spread:.6g}; the log-price domain must span at least "
            f"{COVERAGE_STDEVS:g} of them: use --half-width "
            f"{COVERAGE_STDEVS * spread:.6g} or more"
        )
    top = np.log(params.S0) + half_width
    if not top <= MAX_LOG_PRICE:
        # rounded down so that the suggested value passes
        widest = np.floor((MAX_LOG_PRICE - np.log(params.S0)) * 1e3) / 1e3
        raise DomainCoverageBreach(
            f"--half-width {half_width:g} puts the top grid node at log price "
            f"{top:.8g}; float64 leaves room up to {MAX_LOG_PRICE:g}: use "
            f"--half-width {widest:g} or less"
        )


def check_price_bounds(price: float, params: MarketParams) -> None:
    """Raise PriceBoundBreach unless price is a possible call price.

    A call is worth at least 0 and at most the stock it delivers:
    S0 exp(-div T) for European style, S0 for American style, within
    BOUND_SLACK * S0.  A price outside these bounds usually means the
    log-price domain truncates the increment law (too small a
    half-width for sigma * sqrt(T)).
    """
    slack = BOUND_SLACK * params.S0
    if params.style == STYLE_EUROPEAN:
        upper, name = params.S0 * np.exp(-params.div * params.T), "S0*exp(-div*T)"
    else:
        upper, name = params.S0, "S0"
    if not -slack <= price <= upper + slack:
        raise PriceBoundBreach(
            f"price {price:.6g} is outside the no-arbitrage bounds "
            f"0 <= C <= {name} = {upper:.6g} (slack {slack:.3g}); "
            "the grid may truncate the increment law: widen --half-width "
            "or check the market parameters"
        )
