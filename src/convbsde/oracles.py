"""Independent reference implementations used for verification.

Nothing here shares code with the spectral solver: the closed form and
the tree are deliberately separate paths to the same quantities, so
agreement between them and the solver carries evidential weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


_erfc = np.frompyfunc(math.erfc, 1, 1)


def normal_cdf(d):
    """Standard normal distribution function 0.5*erfc(-d/sqrt(2)),
    elementwise: float64 of the input's shape, a float for a scalar.

    math.erfc keeps full relative accuracy deep in the lower tail, where
    1 - erf would cancel to zero.
    """
    z = -np.asarray(d, dtype=float) / math.sqrt(2.0)
    return 0.5 * np.asarray(_erfc(z), dtype=float)


@dataclass(frozen=True)
class BsResult:
    """Closed-form call price and delta."""

    price: float
    delta: float


def black_scholes_call(
    S0: float, K: float, r: float, delta_div: float, sigma: float, T: float
) -> BsResult:
    """European call under geometric Brownian motion with a continuous
    dividend yield.

    delta is the spot sensitivity exp(-delta_div*T) * N(d1).
    """
    for name, value in (("S0", S0), ("K", K), ("sigma", sigma), ("T", T)):
        if not value > 0:
            raise ValueError(f"{name} must be positive")
    price, delta = black_scholes_call_curve(S0, K, r, delta_div, sigma, T)
    return BsResult(price=float(price), delta=float(delta))


def black_scholes_call_curve(
    S_values: np.ndarray, K: float, r: float, delta_div: float, sigma: float, T: float
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized closed-form call prices and deltas over many spots."""
    S_values = np.asarray(S_values, dtype=float)
    sq = sigma * np.sqrt(T)
    d1 = (np.log(S_values / K) + (r - delta_div + 0.5 * sigma * sigma) * T) / sq
    d2 = d1 - sq
    disc_s = np.exp(-delta_div * T)
    cdf_d1 = normal_cdf(d1)
    prices = S_values * disc_s * cdf_d1 - K * np.exp(-r * T) * normal_cdf(d2)
    return prices, disc_s * cdf_d1


def binomial_bsde(params, n: int, reflected: bool) -> tuple[float, float]:
    """Backward induction on a scaled random walk for the pricing
    problem described by ``params`` (a MarketParams).

    The Brownian motion is approximated by a recombining tree with
    increments +-sqrt(dt) at probability one half each, the log price
    per unit of S0 follows x = ln(S/S0) = a*t + sigma*W with
    a = mu - div - sigma^2/2, and each backward step applies the driver
    to the branch average with the martingale-increment estimate of Z,
    then reflects on the payoff when ``reflected``.  The call is
    homogeneous of degree one, so the tree prices strike K/S0 per unit
    of S0.  Returns (price, delta) at the root: S0 times the unit
    price, and the unit z over sigma.
    """
    if int(n) != n or n < 1:
        raise ValueError("n must be a positive integer")
    n = int(n)
    dt = params.T / n
    sq = np.sqrt(dt)
    a = params.mu - params.div - 0.5 * params.sigma**2
    r, big_r, mu, sigma = params.r, params.R, params.mu, params.sigma
    strike = params.K / params.S0

    def payoff(x):
        return np.maximum(np.exp(x) - strike, 0.0)

    def driver(y, z):
        # z estimates sigma * du/dx, so the borrowing shortfall uses z/sigma.
        return (
            -r * y
            - (mu - r) / sigma * z
            + (big_r - r) * np.maximum(z / sigma - y, 0.0)
        )

    # Level i has nodes j = 0..i with j up-moves: W = sq*(2j - i).
    j = np.arange(n + 1)
    y = payoff(a * params.T + sigma * sq * (2 * j - n))
    z = 0.0
    for i in range(n - 1, -1, -1):
        expected = 0.5 * (y[1 : i + 2] + y[: i + 1])
        z = (y[1 : i + 2] - y[: i + 1]) / (2.0 * sq)
        y = expected + dt * driver(expected, z)
        if reflected:
            x_level = a * (i * dt) + sigma * sq * (2 * j[: i + 1] - i)
            y = np.maximum(y, payoff(x_level))
    return params.S0 * float(y[0]), float(z[0]) / sigma
