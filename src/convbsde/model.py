"""Problem data for backward SDEs and their forward-coupled and
reflected variants, plus the solution container the solver fills.

A problem couples a forward state X (drift a, diffusion sigma, started
at x_init) with a backward pair (Y, Z) determined by a terminal payoff
g, a driver f integrated backward in time, and optionally a lower
barrier B that Y must stay above.  Coefficient functions must be pure
and accept vectorized x arguments; the library cannot verify Lipschitz
regularity of f and g, which remains the caller's obligation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .grid import GridPair

EXPLICIT_I = "explicit_I"
EXPLICIT_II = "explicit_II"
SCHEMES = (EXPLICIT_I, EXPLICIT_II)


@dataclass(frozen=True)
class ProblemSpec:
    """Full description of one (reflected) forward-backward problem.

    scheme selects where the driver enters the backward step:
    ``explicit_I`` evaluates it inside the conditional expectation,
    ``explicit_II`` outside.  The solver reads drift and vol only at the
    space-grid nodes, once per time step; a step where both take one
    value at every node runs a single FFT pair per convolution, any
    other step the per-node convolution.
    """

    horizon: float
    steps: int
    x_init: float
    drift: Callable
    vol: Callable
    driver: Callable
    terminal: Callable
    barrier: Optional[Callable]
    scheme: str

    @property
    def step_size(self) -> float:
        """Uniform time step T/n."""
        return self.horizon / self.steps

    def times(self) -> np.ndarray:
        """Mesh points t_0..t_n."""
        return np.linspace(0.0, self.horizon, self.steps + 1)


@dataclass(frozen=True)
class StepDiagnostics:
    """Per-step record of the fit and residuals of one solve.

    Entry i of each length-n array belongs to the step that computes
    row t_i: alpha, beta and kappa are the periodization coefficients
    fitted to the samples whose conditional expectation gives that row,
    imag_residual is the largest imaginary residual of the step's
    convolutions and reflection_active_nodes counts the nodes where the
    barrier pushed the row up (0 without a barrier).

    An ``explicit_I`` step runs two convolutions with a fit each: the
    gradient of the next row, then the expectation of the
    driver-adjusted samples v + dt*f.  Its alpha, beta and kappa are the
    second fit's; the gradient convolution's fit is not kept, and
    imag_residual is the larger residual of the two convolutions.
    """

    alpha: np.ndarray
    beta: np.ndarray
    kappa: np.ndarray
    imag_residual: np.ndarray
    reflection_active_nodes: np.ndarray


@dataclass
class SolutionSurface:
    """The start row t_0 of the backward pair, with every step's record.

    u[k] approximates Y at (t_0, x_k) and udot[k] approximates the
    diffusion-scaled gradient sigma * dY/dx there, which is the Z
    component.  Index k belongs to the DFT node x_k, k = 0..N-1, the
    nodes the spectral step computes, so u, udot and reflection have
    shape (N,).  reflection, when present, holds the nonnegative
    increments that pushed the row back above the barrier.  diagnostics
    records every step t_0..t_{n-1}.  The rows t_1..t_n are not kept:
    ``sweep`` yields them as it computes them.
    """

    grid: GridPair
    u: np.ndarray
    udot: np.ndarray
    diagnostics: StepDiagnostics = field(repr=False)
    reflection: Optional[np.ndarray] = None


def brownian_bsde(
    horizon: float,
    steps: int,
    terminal: Callable,
    driver: Callable,
    scheme: str = EXPLICIT_II,
) -> ProblemSpec:
    """Backward SDE driven by a standard Brownian motion.

    The forward state is the Brownian motion itself: drift 0, vol 1,
    started at 0.  The driver keeps the unified (t, x, y, z) signature;
    x is simply the Brownian state.
    """
    return fbsde(
        horizon=horizon,
        steps=steps,
        x_init=0.0,
        drift=lambda t, x: np.zeros_like(np.asarray(x, dtype=float)),
        vol=lambda t, x: np.ones_like(np.asarray(x, dtype=float)),
        terminal=terminal,
        driver=driver,
        scheme=scheme,
    )


def fbsde(
    horizon: float,
    steps: int,
    x_init: float,
    drift: Callable,
    vol: Callable,
    terminal: Callable,
    driver: Callable,
    barrier: Optional[Callable] = None,
    scheme: str = EXPLICIT_II,
) -> ProblemSpec:
    """Forward-backward problem, reflected if a barrier is given.

    drift and vol may depend on (t, x): each solver step samples them
    on the space grid and takes the single-FFT convolution when both
    are the same at every node, so constant coefficients need no
    declaration.  vol is checked where the solver reads it: a
    non-positive or non-finite vol at a grid node aborts the solve at
    that step (a degenerate diffusion has no density to convolve with).
    """
    if not (np.isfinite(horizon) and horizon > 0):
        raise ValueError("horizon must be positive and finite")
    if int(steps) != steps or steps < 1:
        raise ValueError("steps must be a positive integer")
    if scheme not in SCHEMES:
        raise ValueError(f"scheme must be one of {SCHEMES}")
    if not np.isfinite(x_init):
        raise ValueError("x_init must be finite")
    return ProblemSpec(
        horizon=float(horizon),
        steps=int(steps),
        x_init=float(x_init),
        drift=drift,
        vol=vol,
        driver=driver,
        terminal=terminal,
        barrier=barrier,
        scheme=scheme,
    )
