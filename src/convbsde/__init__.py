"""Spectral convolution solver for backward stochastic differential
equations, with forward coupling, reflection and an option pricing
layer.

The numerical core advances a terminal condition backward in time on a
fixed grid, evaluating each step's conditional expectation by FFT
against the characteristic function of the forward increment.  Sampled
functions are periodized first (exponential dampening plus a linear
term matched at the boundary) so the DFT's implicit periodic extension
does not pollute the interior.
"""

from .grid import GridPair, build_grid
from .model import (
    EXPLICIT_I,
    EXPLICIT_II,
    SCHEMES,
    ProblemSpec,
    SolutionSurface,
    StepDiagnostics,
    brownian_bsde,
    fbsde,
)
from .oracles import BsResult, binomial_bsde, black_scholes_call
from .pathsim import PathBundle, simulate_paths
from .pricing import (
    STYLE_AMERICAN,
    STYLE_EUROPEAN,
    STYLES,
    DomainCoverageBreach,
    MarketParams,
    PriceBoundBreach,
    build_pricing_problem,
    check_delta_bounds,
    check_domain_coverage,
    check_price_bounds,
    spot_delta,
)
from .solver import SolveAborted, solve, sweep, value_at_start
from .spectral import (
    EXPECTATION,
    GRADIENT,
    IMAG_RESIDUAL_TOLERANCE,
    ImaginaryResidualError,
    IncrementSpectrum,
    NodeLaws,
    convolve_step,
    convolve_step_statedep,
    increment_cf,
)
from .transform import (
    SLOPE_MARGIN,
    SLOPE_TIE_TOLERANCE,
    TransformCoefficients,
    adjustment_H,
    apply_transform,
    fit_coefficients,
)

__version__ = "0.1.0"

__all__ = [
    "GridPair",
    "build_grid",
    "ProblemSpec",
    "SolutionSurface",
    "brownian_bsde",
    "fbsde",
    "EXPLICIT_I",
    "EXPLICIT_II",
    "SCHEMES",
    "BsResult",
    "black_scholes_call",
    "binomial_bsde",
    "PathBundle",
    "simulate_paths",
    "MarketParams",
    "STYLE_EUROPEAN",
    "STYLE_AMERICAN",
    "STYLES",
    "DomainCoverageBreach",
    "PriceBoundBreach",
    "build_pricing_problem",
    "check_delta_bounds",
    "check_domain_coverage",
    "check_price_bounds",
    "spot_delta",
    "SolveAborted",
    "StepDiagnostics",
    "solve",
    "sweep",
    "value_at_start",
    "EXPECTATION",
    "GRADIENT",
    "IMAG_RESIDUAL_TOLERANCE",
    "ImaginaryResidualError",
    "IncrementSpectrum",
    "NodeLaws",
    "convolve_step",
    "convolve_step_statedep",
    "increment_cf",
    "TransformCoefficients",
    "SLOPE_MARGIN",
    "SLOPE_TIE_TOLERANCE",
    "adjustment_H",
    "apply_transform",
    "fit_coefficients",
]
