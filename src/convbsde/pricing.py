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
from decimal import ROUND_CEILING, Decimal

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
# Slack on the static delta bounds.  Over 144 markets (S0 = 100, strikes
# 20, 50, 90, 100, 150 and 400, sigma 0.05, 0.2 and 0.6 at half-widths
# 0.8, 2.5 and 5, both styles, div 0 and 5%, both schemes, n = 200,
# 2^10 nodes) the largest overshoot of a bound is 2.4e-4, a deep
# in-the-money delta above 1.  That overshoot is time-stepping error:
# at K = 20 it is 4.9e-3 at n = 10 and 4.9e-5 at n = 1000, and at n = 200
# it grows to 1.9e-3 at mu = 0.5, so coarse solves of such markets
# breach this slack.
DELTA_SLACK = 1e-3
# Log-price standard deviations sigma*sqrt(T) the half-width must span
# beyond the drift |a|*T of the terminal log price, a the largest in
# size of mu, r and R, less div + sigma^2/2.  At n = 1000, N = 4096 and
# half-width 5 the ATM price is accurate to 7.8e-6 relative at
# sigma = 1.0 (ratio 5) and 1.3e-4 at sigma = 1.1, but off by 2.1e-3 at
# sigma = 1.25 and 4.8% at sigma = 1.5.  The drift moves the law's centre off the grid's: at
# sigma = 0.05, div = 0.5 and half-width 0.25 (ratio 5, drift 0.45) the
# price is 1.568 against 2e-23.  The driver's -(mu - r)/sigma*z term
# prices under the law that drifts at r - div - sigma^2/2, or R - div -
# sigma^2/2 where the seller borrows: at r = R = 0.5, sigma = 0.05 and
# half-width 0.3 (drift 0.49875) the price is 37.5144 against 39.347.
COVERAGE_STDEVS = 5.0
# Widest half-width a solve keeps accurate.  The periodization's linear
# term beta*x + kappa grows like S0*exp(half_width), and float64 cancels
# the interior against it.  Absolute error against Black-Scholes
# (38.6012) at sigma = 1, S0 = K = 100, by half-width:
#
#   nodes, n        10      14    14.5      15      20
#   2^12, 200   6.4e-4  7.1e-4  7.1e-4  7.0e-4  2.8e-3
#   2^12, 1000  1.8e-4  2.9e-4  2.9e-4  3.5e-4  1.0e-2
#   2^14, 200   5.7e-4  5.8e-4  5.8e-4  5.5e-4  1.1e-3
#   2^14, 1000  1.2e-4  1.2e-4  1.6e-4  2.1e-4  9.7e-3
#
# At 14.5 every row stays within 1.6x of its half-width-10 error; 20
# fails by up to 80x.  The error is absolute: at 2^12 nodes, n = 1000 and
# half-width 14.5, sigma = 0.2 calls struck at 200 (price 2.3e-3) and
# 1000 (5e-30) are off by 1.1e-5 and 1.5e-5, so deep out of the money
# the relative error is unbounded.
MAX_HALF_WIDTH = 14.5
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

    @property
    def log_drift(self) -> float:
        """Drift a = mu - div - sigma^2/2 of the log price X = ln S."""
        return self.mu - self.div - 0.5 * self.sigma * self.sigma


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

    def linear_driver(t, x, y, z):
        return -r * y - (mu - r) / sigma * z

    def spread_driver(t, x, y, z):
        return linear_driver(t, x, y, z) + (big_r - r) * np.maximum(z / sigma - y, 0.0)

    drift_value = params.log_drift
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
        # at R = r the spread term is 0 * (z/sigma - y)^+, which adds +0.0
        driver=spread_driver if big_r > r else linear_driver,
        barrier=barrier,
        scheme=scheme,
    )


def spot_delta(z0: float, params: MarketParams) -> float:
    """Spot sensitivity at t=0 from z0, the gradient at the start node.

    z approximates sigma * du/dx on the log axis, and dS = S dx, so
    delta = z0 / (sigma * S0).
    """
    return float(z0) / (params.sigma * params.S0)


def extract_delta(surface: SolutionSurface, params: MarketParams) -> float:
    """Spot sensitivity at t=0 from the start row's center node."""
    return spot_delta(surface.udot[surface.grid.N // 2], params)


def check_domain_coverage(params: MarketParams, half_width: float) -> None:
    """Raise DomainCoverageBreach unless the grid's log-price half-width
    spans the drift |a|*T of the terminal log price plus COVERAGE_STDEVS
    standard deviations sigma*sqrt(T), is at most MAX_HALF_WIDTH, and
    its top node ln(S0) + half_width stays at or below MAX_LOG_PRICE.

    a is the largest in size of three drifts: the stock's,
    mu - div - sigma^2/2, and the pricing law's, r - div - sigma^2/2 at
    the lending rate and R - div - sigma^2/2 at the borrowing rate; the
    driver's -(mu - r)/sigma*z term moves the price from the first law
    to the others.  A narrower domain truncates the increment law (or
    carries its centre towards an edge) and returns a wrong price,
    often still inside the static no-arbitrage bounds; a wider one
    loses the price to float64 cancellation, and at a huge S0 overflows
    float64 inside the solve.  The message names the drift that binds.
    When no half-width meets all three conditions it says so instead of
    suggesting one.
    """
    spread = params.sigma * np.sqrt(params.T)
    carry = params.div + 0.5 * params.sigma * params.sigma
    rate, a = max(
        (("mu", params.log_drift), ("r", params.r - carry), ("R", params.R - carry)),
        key=lambda pair: abs(pair[1]),
    )
    drift = abs(a) * params.T
    narrowest = drift + COVERAGE_STDEVS * spread
    needs = (
        f"sigma*sqrt(T) = {spread:.6g} needs a log-price half-width of at "
        f"least {COVERAGE_STDEVS:g} times that plus the drift |a|*T = {drift:.6g} "
        f"(a = {rate} - div - sigma^2/2), {narrowest:.6g}"
    )
    for widest, limit in (
        (MAX_HALF_WIDTH, "the widest log-price half-width float64 keeps accurate"),
        (
            MAX_LOG_PRICE - np.log(params.S0),
            f"the room float64 leaves below log price {MAX_LOG_PRICE:g}",
        ),
    ):
        if not narrowest <= widest:
            raise DomainCoverageBreach(
                f"{needs}, above {widest:.6g}, {limit}: no half-width serves this market"
            )
    if not half_width >= narrowest:
        raise DomainCoverageBreach(
            f"--half-width {half_width:g} is {half_width / spread:.3g} times "
            f"sigma*sqrt(T); {needs}: use --half-width {_rounded_up(narrowest)} or more"
        )
    if not half_width <= MAX_HALF_WIDTH:
        raise DomainCoverageBreach(
            f"--half-width {half_width:g} is above {MAX_HALF_WIDTH:g}, the widest "
            "log-price half-width float64 keeps accurate: use --half-width "
            f"{MAX_HALF_WIDTH:g} or less"
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


def _rounded_up(value: float) -> str:
    """value to 6 significant digits, rounded up so that it passes as a lower bound.

    The rounding starts from repr(value), the shortest decimal that reads
    back as value, so a value such as 0.70125 prints as itself.
    """
    exact = Decimal(repr(float(value)))
    step = Decimal(1).scaleb(exact.adjusted() - 5)
    return f"{exact.quantize(step, rounding=ROUND_CEILING).normalize():f}"


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


def check_delta_bounds(delta: float, params: MarketParams) -> None:
    """Raise PriceBoundBreach unless delta is a possible call delta.

    A call gains at most what the stock it delivers gains: its delta
    lies in [0, exp(-div T)] for European style and in [0, 1] for
    American style, within DELTA_SLACK.  A delta outside them usually
    means the log-price domain truncates the increment law, or a time
    step too coarse for the market.
    """
    if params.style == STYLE_EUROPEAN:
        upper, name = np.exp(-params.div * params.T), "exp(-div*T)"
    else:
        upper, name = 1.0, "1"
    if not -DELTA_SLACK <= delta <= upper + DELTA_SLACK:
        raise PriceBoundBreach(
            f"delta {delta:.6g} is outside the no-arbitrage bounds "
            f"0 <= delta <= {name} = {upper:.6g} (slack {DELTA_SLACK:g}); "
            "the grid may truncate the increment law: widen --half-width, "
            "or raise --n for a finer time step"
        )
