"""Independent reference implementations used for verification.

Nothing here shares code with the spectral solver: the closed form, the
tree and the brute-force quadrature are deliberately separate paths to
the same quantities, so agreement between them and the solver carries
evidential weight.  The quadrature step takes its increment law as
plain numbers and imports nothing from :mod:`convbsde.spectral`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import GridPair
from .transform import EXPECTATION, GRADIENT


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
    follows X = x0 + a*t + sigma*W with a = mu - div - sigma^2/2, and
    each backward step applies the driver to the branch average with
    the martingale-increment estimate of Z, then reflects on the payoff
    when ``reflected``.  Returns (price, delta) at the root.
    """
    if int(n) != n or n < 1:
        raise ValueError("n must be a positive integer")
    n = int(n)
    dt = params.T / n
    sq = np.sqrt(dt)
    a = params.mu - params.div - 0.5 * params.sigma**2
    x0 = np.log(params.S0)
    r, big_r, mu, sigma, strike = params.r, params.R, params.mu, params.sigma, params.K

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
    y = payoff(x0 + a * params.T + sigma * sq * (2 * j - n))
    z = 0.0
    for i in range(n - 1, -1, -1):
        expected = 0.5 * (y[1 : i + 2] + y[: i + 1])
        z = (y[1 : i + 2] - y[: i + 1]) / (2.0 * sq)
        y = expected + dt * driver(expected, z)
        if reflected:
            x_level = x0 + a * (i * dt) + sigma * sq * (2 * j[: i + 1] - i)
            y = np.maximum(y, payoff(x_level))
    delta = float(z[0]) / (sigma * params.S0)
    return float(y[0]), delta


def dense_quadrature_step(
    eta_samples,
    grid: GridPair,
    step: float,
    drift: float,
    vol: float,
    alpha: float,
    kind: str,
    quad_points: int,
) -> np.ndarray:
    """Brute-force real-space evaluation of one convolution step.

    Computes, per grid node x_k,

        theta(x_k) = integral over [x0, xN] of eta(y) * Kpsi(y - x_k) dy

    by a composite trapezoid rule with ``quad_points`` points.  Kpsi is
    the real-space counterpart of the frequency multiplier of ``kind``
    (EXPECTATION or GRADIENT): the Gaussian density of an increment
    with mean drift*step and variance vol^2*step, tilted by
    exp(alpha*w) (which is what evaluating the characteristic function
    at nu-i*alpha does), and for the gradient kind additionally weighted
    by the normalized increment (w - drift*step)/(vol*step).

    ``eta_samples`` is either a node-sample vector (length N or N+1,
    linearly interpolated between nodes) or a callable evaluated
    exactly at the quadrature points.  No FFT is involved; this is the
    oracle the spectral path is checked against.
    """
    if quad_points < 10 * grid.N:
        raise ValueError(f"quad_points must be at least 10*N = {10 * grid.N}")

    x_right = grid.x0 + grid.l
    y = np.linspace(grid.x0, x_right, quad_points)
    wq = np.full(quad_points, grid.l / (quad_points - 1))
    wq[0] *= 0.5
    wq[-1] *= 0.5

    if callable(eta_samples):
        ey = np.asarray(eta_samples(y), dtype=float)
    else:
        eta_samples = np.asarray(eta_samples, dtype=float)
        if eta_samples.size == grid.N:
            nodes = grid.space_nodes()
        elif eta_samples.size == grid.N + 1:
            nodes = grid.space_nodes(include_right=True)
        else:
            raise ValueError(f"eta_samples must have length {grid.N} or {grid.N + 1}")
        ey = np.interp(y, nodes, eta_samples)

    mean = drift * step
    var = vol**2 * step
    weighted = wq * ey
    out = np.empty(grid.N)
    x_nodes = grid.space_nodes()
    chunk = 16
    for start in range(0, grid.N, chunk):
        xs = x_nodes[start : start + chunk]
        w = y[None, :] - xs[:, None]
        centered = w - mean
        kernel = np.exp(alpha * w - centered**2 / (2.0 * var)) / np.sqrt(
            2.0 * np.pi * var
        )
        if kind == GRADIENT:
            kernel *= centered / (vol * step)
        elif kind != EXPECTATION:
            raise ValueError(f"unknown psi tag: {kind!r}")
        out[start : start + chunk] = kernel @ weighted
    return out
