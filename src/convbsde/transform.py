"""Boundary periodization of sampled functions.

A function eta sampled on [a, b] rarely matches at the two endpoints, and
the DFT silently works with its periodic extension, so any mismatch in
value or slope leaks Gibbs-type errors into a spectral convolution.  The
cure used here modifies the samples to

    eta_mod(x) = exp(-alpha*x) * (eta(x) + beta*x + kappa)

with (alpha, beta, kappa) chosen so eta_mod agrees at a and b in value
and first derivative.  The exponential dampening is undone by shifting
the frequency argument of the convolution multiplier and regrowing the
output by exp(alpha*x); the linear term beta*x + kappa is not lost,
because a closed-form adjustment H then removes its image exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridPair

EXPECTATION = "expectation"
GRADIENT = "gradient"

# Below this absolute slope gap the two boundary slopes are treated as
# equal and the degenerate (alpha = kappa = 0) branch is used.
SLOPE_TIE_TOLERANCE = 1e-12

DEFAULT_EPSILON = 5.0


@dataclass(frozen=True)
class TransformCoefficients:
    """Periodization parameters (alpha, beta, kappa) and the slope
    margin epsilon they were fitted with.

    alpha dampens exponentially, beta/kappa inject a linear term.  In
    the non-degenerate branch beta exceeds both boundary slope
    magnitudes by at least epsilon, which keeps the defining equations
    solvable with real alpha.
    """

    alpha: float
    beta: float
    kappa: float
    epsilon: float


def fit_coefficients(
    samples: np.ndarray, grid: GridPair, epsilon: float = DEFAULT_EPSILON
) -> TransformCoefficients:
    """Fit periodization coefficients to samples on all grid nodes.

    Boundary slopes are estimated by first-order one-sided differences:
    forward at x_0, backward at x_N.  If the two estimates agree to
    within 1e-12 the linear trend alone periodizes the samples and
    alpha = kappa = 0 with beta = -(eta(b) - eta(a))/(b - a).  Otherwise
    beta = epsilon + max(|slope_a|, |slope_b|) and alpha, kappa follow
    from matching values and slopes at the endpoints.

    Parameters
    ----------
    samples : ndarray, shape (N+1,)
        Function values at x_0..x_N.
    grid : GridPair
    epsilon : float
        Margin by which beta exceeds the boundary slopes; must be
        positive.

    Returns
    -------
    TransformCoefficients
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 1 or samples.size != grid.N + 1:
        raise ValueError(f"samples must have length N+1 = {grid.N + 1}")
    if not np.all(np.isfinite(samples)):
        raise ValueError("samples must be finite")
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")

    a = grid.x0
    b = grid.x0 + grid.l
    slope_a = (samples[1] - samples[0]) / grid.dx
    slope_b = (samples[-1] - samples[-2]) / grid.dx

    if abs(slope_a - slope_b) <= SLOPE_TIE_TOLERANCE:
        beta = -(samples[-1] - samples[0]) / (b - a)
        return TransformCoefficients(alpha=0.0, beta=beta, kappa=0.0, epsilon=epsilon)

    beta = epsilon + max(abs(slope_a), abs(slope_b))
    # Both log arguments are >= epsilon > 0 because beta dominates the
    # slope magnitudes.
    alpha = np.log((slope_b + beta) / (slope_a + beta)) / (b - a)
    ea = np.exp(-alpha * a)
    eb = np.exp(-alpha * b)
    kappa = (eb * (samples[-1] + beta * b) - ea * (samples[0] + beta * a)) / (ea - eb)
    return TransformCoefficients(alpha=alpha, beta=beta, kappa=kappa, epsilon=epsilon)


def apply_transform(
    samples: np.ndarray, grid: GridPair, coeffs: TransformCoefficients
) -> np.ndarray:
    """Return the modified dampened samples on the DFT nodes x_0..x_{N-1}.

    Accepts samples of length N or N+1; the right-edge sample, when
    present, is ignored because DFT input excludes x_N.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 1 or samples.size not in (grid.N, grid.N + 1):
        raise ValueError(f"samples must have length {grid.N} or {grid.N + 1}")
    for name in ("alpha", "beta", "kappa"):
        if not np.isfinite(getattr(coeffs, name)):
            raise ValueError(f"non-finite coefficient {name}")
    x = grid.space_nodes()
    eta = samples[: grid.N]
    return np.exp(-coeffs.alpha * x) * (eta + coeffs.beta * x + coeffs.kappa)


def adjustment_H(
    x,
    coeffs: TransformCoefficients,
    kind: str,
    forward_drift: float = 0.0,
    forward_vol: float = 1.0,
):
    """Image of the injected linear term under the convolution step.

    Subtracting H from the regrown output exp(alpha*x)*theta undoes the
    beta*x + kappa injection in closed form.  H is
    beta*(x + forward_drift) + kappa for the expectation and
    beta*forward_vol for the gradient.  ``forward_drift`` is the drift
    increment a(t, x)*step of the forward process over one time step and
    ``forward_vol`` its diffusion coefficient; pass 0 and 1 for a pure
    Brownian problem.

    Parameters
    ----------
    x : float or ndarray
        Space node(s) at which to evaluate H.
    coeffs : TransformCoefficients
    kind : {"expectation", "gradient"}
        Which convolution multiplier the step used.
    forward_drift : float or ndarray
        a(t_i, x) * step.
    forward_vol : float or ndarray
        sigma(t_i, x).

    Returns
    -------
    float or ndarray
    """
    x = np.asarray(x, dtype=float)
    if kind == EXPECTATION:
        out = coeffs.beta * (x + forward_drift) + coeffs.kappa
    elif kind == GRADIENT:
        out = coeffs.beta * np.asarray(forward_vol, dtype=float)
    else:
        raise ValueError(f"unknown adjustment kind: {kind!r}")
    if not np.all(np.isfinite(out)):
        raise ValueError("non-finite adjustment value")
    return out if out.ndim else float(out)
