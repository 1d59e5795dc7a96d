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

import math
from dataclasses import dataclass

import numpy as np

from .grid import GridPair

EXPECTATION = "expectation"
GRADIENT = "gradient"

# Boundary slopes closer than this multiple of beta = SLOPE_MARGIN +
# max(|slope_a|, |slope_b|) take the degenerate (alpha = kappa = 0)
# branch.  The other branch's kappa ~ beta^2 * l / gap cancels against H
# with an error near 1e-16 * kappa, while leaving the gap unmatched costs
# about the gap.  On Brownian probes with terminal lam*(m*x + c*x^2) in 8
# grid and scale setups the two errors cross at gap / beta = 1.3e-6 to
# 1.3e-5; at 5e-6 the branch taken is within 6.3x of the better one on
# all 248 probes.  Call payoffs have gap / beta near 1.
SLOPE_TIE_TOLERANCE = 5e-6

# The slope margin epsilon by which beta exceeds both boundary slope
# magnitudes in the non-degenerate branch.
SLOPE_MARGIN = 5.0

# Largest |alpha*x| the dampening exp(-alpha*x) may reach at the domain
# end where it is largest.  Beyond it exp overflows float64, or
# underflows at both ends, and kappa, which divides by the difference of
# the two end values, is lost.
MAX_DAMPENING_EXPONENT = float(np.log(np.finfo(float).max))


@dataclass(frozen=True)
class TransformCoefficients:
    """Periodization parameters (alpha, beta, kappa).

    alpha dampens exponentially, beta/kappa inject a linear term.  In
    the non-degenerate branch beta exceeds both boundary slope
    magnitudes by SLOPE_MARGIN, which keeps the defining equations
    solvable with real alpha.
    """

    alpha: float
    beta: float
    kappa: float


def fit_coefficients(samples: np.ndarray, grid: GridPair) -> TransformCoefficients:
    """Fit periodization coefficients to samples on all grid nodes.

    Boundary slopes are estimated by first-order one-sided differences:
    forward at x_0, backward at x_N.  With beta = SLOPE_MARGIN +
    max(|slope_a|, |slope_b|), alpha and kappa follow from matching
    values and slopes at the endpoints; a slope so steep that float64
    rounds most of the margin away is a ValueError, and so is an alpha
    whose dampening exp(-alpha*x) leaves float64 range at a domain end
    (|alpha*x| above MAX_DAMPENING_EXPONENT).  When the two slopes
    differ by at most SLOPE_TIE_TOLERANCE * beta that fit is worse
    conditioned than the slope gap it removes, so the linear trend alone
    periodizes the samples instead: alpha = kappa = 0 with
    beta = -(eta(b) - eta(a))/(b - a).

    Parameters
    ----------
    samples : ndarray, shape (N+1,)
        Function values at x_0..x_N.
    grid : GridPair

    Returns
    -------
    TransformCoefficients
    """
    samples = np.asarray(samples, dtype=float)
    if samples.shape != (grid.N + 1,):
        raise ValueError(f"samples must have length N+1 = {grid.N + 1}")
    if not np.isfinite(samples).all():
        raise ValueError("samples must be finite")

    # Only the four boundary samples enter, so the fit is scalar
    # arithmetic on Python floats.  log and exp stay numpy's: math's
    # round differently in the last bit on a few percent of arguments,
    # which would move every solved surface by roundoff.
    first, second = samples.item(0), samples.item(1)
    before_last, last = samples.item(-2), samples.item(-1)
    a = grid.x0
    b = grid.x0 + grid.l
    slope_a = (second - first) / grid.dx
    slope_b = (last - before_last) / grid.dx

    steepest = max(abs(slope_a), abs(slope_b))
    beta = SLOPE_MARGIN + steepest
    if abs(slope_a - slope_b) <= SLOPE_TIE_TOLERANCE * beta:
        return TransformCoefficients(alpha=0.0, beta=-(last - first) / (b - a), kappa=0.0)
    if not beta - steepest > 0.5 * SLOPE_MARGIN:
        raise ValueError(
            f"boundary slope {steepest:.3g} rounds the slope margin "
            f"{SLOPE_MARGIN:g} away in float64"
        )
    # Both log arguments are above SLOPE_MARGIN / 2 because beta
    # dominates the slope magnitudes by more than that.
    alpha = float(np.log((slope_b + beta) / (slope_a + beta))) / (b - a)
    # exp(-alpha*x) is largest at this end of the domain
    end = a if alpha > 0 else b
    if not abs(alpha * end) <= MAX_DAMPENING_EXPONENT:
        raise ValueError(
            f"dampening alpha = {alpha:.6g} takes exp(-alpha*x) out of float64 "
            f"range: exp({-alpha * end:.6g}) at the domain end x = {end:.6g}"
        )
    ea = float(np.exp(-alpha * a))
    eb = float(np.exp(-alpha * b))
    kappa = (eb * (last + beta * b) - ea * (first + beta * a)) / (ea - eb)
    return TransformCoefficients(alpha=alpha, beta=beta, kappa=kappa)


def apply_transform(
    samples: np.ndarray, x: np.ndarray, coeffs: TransformCoefficients
) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(eta, regrow)`` for samples on the DFT nodes x_0..x_{N-1}.

    regrow = exp(alpha*x) undoes the dampening of the modified samples
    eta = (samples + beta*x + kappa) / regrow after the convolution.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 1 or samples.shape != np.shape(x):
        raise ValueError(f"samples must have one value per DFT node, {np.size(x)}")
    for name in ("alpha", "beta", "kappa"):
        if not math.isfinite(getattr(coeffs, name)):
            raise ValueError(f"non-finite coefficient {name}")
    regrow = coeffs.alpha * x
    np.exp(regrow, out=regrow)
    eta = coeffs.beta * x
    eta += samples
    eta += coeffs.kappa
    eta /= regrow
    return eta, regrow


def adjustment_H(x, coeffs: TransformCoefficients, kind: str, forward_drift, forward_vol):
    """Image of the injected linear term under the convolution step.

    Subtracting H from the regrown output exp(alpha*x)*theta undoes the
    beta*x + kappa injection in closed form.  H is
    beta*(x + forward_drift) + kappa for the expectation and
    beta*forward_vol for the gradient.  ``forward_drift`` is the drift
    increment a(t, x)*step of the forward process over one time step and
    ``forward_vol`` its diffusion coefficient; pass 0 and 1 for a pure
    Brownian problem.  Only the forward mean x + forward_drift enters,
    so a caller that keeps it across steps passes it as x with a
    forward_drift of 0.

    A non-finite H is a ValueError.  The expectation's H is affine in
    the forward mean, so for nodes x in increasing order and a scalar
    forward_drift it is finite at every node once it is finite at the
    two ends, and only those are checked.

    Parameters
    ----------
    x : float or ndarray
        Space node(s) at which to evaluate H, in increasing order.
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
    ordered = False
    if kind == EXPECTATION:
        ordered = getattr(forward_drift, "ndim", 0) == 0
        mean = x if ordered and forward_drift == 0 else x + forward_drift
        out = coeffs.beta * mean
        out += coeffs.kappa
    elif kind == GRADIENT:
        out = coeffs.beta * np.asarray(forward_vol, dtype=float)
    else:
        raise ValueError(f"unknown adjustment kind: {kind!r}")
    if out.ndim == 0:
        finite = math.isfinite(out)
    elif ordered:
        finite = math.isfinite(out.item(0)) and math.isfinite(out.item(-1))
    else:
        finite = np.isfinite(out).all()
    if not finite:
        raise ValueError("non-finite adjustment value")
    return out if out.ndim else float(out)
