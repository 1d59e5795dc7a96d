"""Reference computations that only the tests use.

``dft`` and ``idft`` state the DFT convention the spectral step is
written in: the forward transform carries the 1/N factor, the inverse
none.  ``dense_quadrature_step`` evaluates one convolution step by
brute-force quadrature in real space; it takes its increment law as
plain numbers and imports nothing from :mod:`convbsde.spectral`, so
agreement between it and the spectral step carries evidential weight.
``currency_call_problem`` states a call in currency, on x = ln S, where
the pricing layer states it per unit of S0.
"""

from __future__ import annotations

import numpy as np

from convbsde.grid import GridPair
from convbsde.model import ProblemSpec, fbsde
from convbsde.pricing import STYLE_AMERICAN, build_pricing_problem
from convbsde.transform import EXPECTATION, GRADIENT


def currency_call_problem(market, n: int, scheme: str) -> ProblemSpec:
    """The call of ``market`` (a MarketParams) in currency: x = ln S
    starts at ln(S0) and the payoff is (e^x - K)^+.

    Drift, vol and driver are the pricing problem's own, which do not
    depend on the unit; its solution is S0 times the unit problem's.
    """
    unit = build_pricing_problem(market, n, scheme)

    def payoff(x):
        return np.maximum(np.exp(x) - market.K, 0.0)

    return fbsde(
        horizon=unit.horizon,
        steps=n,
        x_init=float(np.log(market.S0)),
        drift=unit.drift,
        vol=unit.vol,
        terminal=payoff,
        driver=unit.driver,
        barrier=(lambda t, x: payoff(x)) if market.style == STYLE_AMERICAN else None,
        scheme=scheme,
    )


def dft(values: np.ndarray) -> np.ndarray:
    """Forward DFT, (1/N) * sum_i values_i * exp(-i*j*k*2*pi/N)."""
    values = np.asarray(values)
    return np.fft.fft(values) / values.shape[-1]


def idft(values: np.ndarray) -> np.ndarray:
    """Inverse DFT, sum_j values_j * exp(+i*j*k*2*pi/N), no scale factor."""
    values = np.asarray(values)
    return np.fft.ifft(values) * values.shape[-1]


def dense_quadrature_step(
    eta,
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

    ``eta`` is a callable, evaluated exactly at the quadrature points.
    No FFT is involved; this is the oracle the spectral path is checked
    against.
    """
    if quad_points < 10 * grid.N:
        raise ValueError(f"quad_points must be at least 10*N = {10 * grid.N}")

    x_right = grid.x0 + grid.l
    y = np.linspace(grid.x0, x_right, quad_points)
    wq = np.full(quad_points, grid.l / (quad_points - 1))
    wq[0] *= 0.5
    wq[-1] *= 0.5

    ey = np.asarray(eta(y), dtype=float)

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
