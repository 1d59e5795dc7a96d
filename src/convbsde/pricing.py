"""Option pricing problems on the log-price axis, per unit of S0.

The market has unequal lending and borrowing rates r <= R, an expected
return mu, a dividend yield div and volatility sigma.  The log price
X = ln S then drifts at mu - div - sigma^2/2, and the replication
argument turns the call payoff into a backward equation whose driver
charges the borrowing spread on the shortfall (y - z/sigma)^-.
American style adds the payoff itself as a lower barrier.

A call is homogeneous of degree one, C(S0, K) = S0*C(1, K/S0): the
payoff, the barrier and both driver forms scale with (y, z).  So the
problem is solved per unit of S0, on x = ln(S/S0) from x = 0 with
strike K/S0, and the solve never sees the currency unit.  The price and
z in currency are S0 times the unit values, the delta is the unit z0
over sigma, and the bounds are checked per unit of S0.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import ROUND_CEILING, ROUND_FLOOR, Decimal

import numpy as np

from .model import EXPLICIT_II, ProblemSpec, fbsde

STYLE_EUROPEAN = "european"
STYLE_AMERICAN = "american"
STYLES = (STYLE_EUROPEAN, STYLE_AMERICAN)

# Slack on the static price bounds per unit of S0.  It absorbs the
# discretization error of prices close to a bound (about 1e-5 per unit
# at n = 1000); a breach beyond it is a wrong answer.
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
# term beta*x + kappa grows like exp(half_width) per unit of S0, and
# float64 cancels the interior against it.  Absolute error against
# Black-Scholes (38.6012) at sigma = 1, S0 = K = 100, by half-width:
#
#   nodes, n        10      14    14.5      15      20
#   2^12, 200   6.4e-4  7.0e-4  7.2e-4  7.2e-4  3.6e-3
#   2^12, 1000  1.8e-4  2.6e-4  2.7e-4  3.6e-4  6.2e-3
#   2^14, 200   5.7e-4  5.8e-4  5.8e-4  5.7e-4  1.9e-3
#   2^14, 1000  1.2e-4  1.3e-4  1.1e-4  1.8e-4  2.2e-3
#
# Of the half-widths measured, 14.5 is the widest whose error stays
# within 1.5x of the half-width-10 error on every row (1.45x); 15
# reaches 1.94x and 20 up to 34x.  The error is absolute: at 2^12 nodes, n = 1000
# and half-width 14.5, sigma = 0.2 calls struck at 200 (price 2.3e-3)
# and 1000 (5e-30) are off by 2.4e-5 and 8.2e-5, so deep out of the
# money the relative error is unbounded.
MAX_HALF_WIDTH = 14.5
# Largest log price ln(S0) + half_width of the grid's top node: the
# solve runs per unit of S0 and never forms it, but the spot S0*e^x
# reported there must stay a float64.
MAX_LOG_PRICE = float(np.log(np.finfo(float).max))


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
    """Assemble the pricing problem for ``params`` with n time steps,
    per unit of S0: x = ln(S/S0) starts at 0, and the strike is K/S0.

    Its solution (y, z) is the call's per unit of S0; callers multiply
    by S0 for currency.  The solver's z component estimates
    sigma * du/dx, which is exactly the z the driver formula is written
    in; the shortfall term divides it by sigma to recover the stock
    position.
    """
    r, big_r, mu, sigma = params.r, params.R, params.mu, params.sigma
    strike = params.K / params.S0

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
        x_init=0.0,
        drift=lambda t, x: drift_value,
        vol=lambda t, x: sigma,
        terminal=terminal,
        # at R = r the spread term is 0 * (z/sigma - y)^+, which adds +0.0
        driver=spread_driver if big_r > r else linear_driver,
        barrier=barrier,
        scheme=scheme,
    )


def spot_delta(z0: float, params: MarketParams) -> float:
    """Spot sensitivity at t=0 from z0, the unit problem's gradient at
    the start node.

    z approximates sigma * du/dx with x = ln(S/S0) and u per unit of S0,
    and dS = S0 dx at the start, so delta = z0 / sigma.
    """
    return float(z0) / params.sigma


def check_domain_coverage(params: MarketParams, half_width: float) -> None:
    """Raise DomainCoverageBreach unless half_width lies in the interval
    [narrowest, widest] of log-price half-widths that serve the market.

    narrowest is the drift |a|*T of the terminal log price plus
    COVERAGE_STDEVS standard deviations sigma*sqrt(T), where a is the
    largest in size of three drifts: the stock's, mu - div - sigma^2/2,
    and the pricing law's, r - div - sigma^2/2 at the lending rate and
    R - div - sigma^2/2 at the borrowing rate; the driver's
    -(mu - r)/sigma*z term moves the price from the first law to the
    others.  A narrower domain truncates the increment law (or carries
    its centre towards an edge) and returns a wrong price, often still
    inside the static no-arbitrage bounds.

    widest is the smaller of two limits: MAX_HALF_WIDTH, beyond which
    float64 cancellation loses the price, and MAX_LOG_PRICE - ln(S0),
    beyond which the spot reported at the top node overflows float64.  Each refusal names the condition it violates: an empty
    interval says that no half-width serves, a half-width below it
    names the binding drift, and one above it names the binding limit.
    A suggested half-width is rounded to 6 significant digits towards
    the interval's inside, and passes this check.
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
    widest, limit = min(
        (MAX_HALF_WIDTH, "the widest log-price half-width float64 keeps accurate"),
        (
            MAX_LOG_PRICE - np.log(params.S0),
            f"the room float64 leaves below log price {MAX_LOG_PRICE:g}",
        ),
        key=lambda pair: pair[0],
    )
    if not narrowest <= widest:
        raise DomainCoverageBreach(
            f"{needs}, above {widest:.6g}, {limit}: no half-width serves this market"
        )

    def suggested(bound: float, rounding: str) -> str:
        text = _rounded(bound, rounding)
        return text if narrowest <= float(text) <= widest else repr(float(bound))

    if not half_width >= narrowest:
        raise DomainCoverageBreach(
            f"--half-width {half_width:g} is {half_width / spread:.3g} times "
            f"sigma*sqrt(T); {needs}: use --half-width "
            f"{suggested(narrowest, ROUND_CEILING)} or more"
        )
    if not half_width <= widest:
        raise DomainCoverageBreach(
            f"--half-width {half_width:g} is above {widest:.6g}, {limit}: use "
            f"--half-width {suggested(widest, ROUND_FLOOR)} or less"
        )


def _rounded(value: float, rounding: str) -> str:
    """value to 6 significant digits, rounded up (ROUND_CEILING) or down
    (ROUND_FLOOR).

    The rounding starts from repr(value), the shortest decimal that reads
    back as value, so a value such as 0.70125 prints as itself.
    """
    exact = Decimal(repr(float(value)))
    step = Decimal(1).scaleb(exact.adjusted() - 5)
    return f"{exact.quantize(step, rounding=rounding).normalize():f}"


def check_price_bounds(price: float, params: MarketParams) -> None:
    """Raise PriceBoundBreach unless price, per unit of S0, is a
    possible call price.

    A call is worth at least 0 and at most the stock it delivers:
    exp(-div T) per unit of S0 for European style, 1 for American
    style, within BOUND_SLACK.  A price outside these bounds usually
    means the log-price domain truncates the increment law (too small a
    half-width for sigma * sqrt(T)).
    """
    if params.style == STYLE_EUROPEAN:
        upper, name = np.exp(-params.div * params.T), "exp(-div*T)"
    else:
        upper, name = 1.0, "1"
    if not -BOUND_SLACK <= price <= upper + BOUND_SLACK:
        raise PriceBoundBreach(
            f"price per unit of S0 {price:.6g} is outside the no-arbitrage bounds "
            f"0 <= C/S0 <= {name} = {upper:.6g} (slack {BOUND_SLACK:g}); "
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
