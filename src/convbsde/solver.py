"""Backward time stepping for the explicit Euler schemes.

Starting from the terminal payoff, each step convolves the next-time
solution samples against the increment law of the forward process to
get the conditional expectation (and its diffusion-scaled gradient),
then applies the driver and, for reflected problems, pushes the result
back above the barrier.  Scheme II applies the driver to the convolved
values; scheme I convolves driver-adjusted values.  Both run on a fixed
space grid, with samples periodized before every convolution.
"""

from __future__ import annotations

import numpy as np

from .grid import GridPair
from .model import EXPLICIT_I, EXPLICIT_II, ProblemSpec, SolutionSurface, StepDiagnostics
from .spectral import (
    ImaginaryResidualError,
    IncrementSpectrum,
    convolve_step,
    convolve_step_statedep,
)
from .transform import (
    EXPECTATION,
    GRADIENT,
    adjustment_H,
    apply_transform,
    fit_coefficients,
)


# Largest array storage one solve or path simulation may hold, in
# bytes (2 GiB).  A full American surface at N=4096 (98,304 bytes a
# row) fits up to n=21,844; a start-row solve fits on every grid
# build_grid allows.
MAX_STORAGE_BYTES = 2**31


def check_storage(nbytes: int, request: str) -> None:
    """Raise ValueError if ``request`` would hold more than the cap.

    Called with the byte count before anything is allocated, so an
    oversized request fails at once instead of exhausting memory.
    """
    if nbytes > MAX_STORAGE_BYTES:
        raise ValueError(
            f"{request} needs {nbytes} bytes, above the "
            f"{MAX_STORAGE_BYTES}-byte storage cap"
        )


class SolveAborted(RuntimeError):
    """The backward recursion failed at a specific step."""

    def __init__(self, step_index: int, reason: str):
        self.step_index = step_index
        self.reason = reason
        super().__init__(f"solve aborted at step {step_index}: {reason}")


def _extended_samples(values: np.ndarray) -> np.ndarray:
    """Append a right-edge sample by linear extension.

    The spectral step computes nodes 0..N-1 only, but the coefficient
    fit needs a sample at x_N for the backward difference there.
    Extending the last two nodes linearly makes that difference equal
    the slope between them.
    """
    return np.append(values, 2.0 * values[-1] - values[-2])


def _node_values(coefficient, t: float, x: np.ndarray):
    """coefficient(t, x) on the space nodes.

    A float when it takes one value at every node (a scalar result
    short-cuts the comparison), otherwise an array over the nodes.
    """
    raw = np.asarray(coefficient(t, x), dtype=float)
    if raw.ndim == 0:
        return float(raw)
    raw = np.broadcast_to(raw, x.shape)
    first = raw.flat[0]
    return float(first) if (raw == first).all() else raw


def solve(spec: ProblemSpec, grid: GridPair, full_surface: bool = True) -> SolutionSurface:
    """Run the backward recursion and return the solution surface.

    The recursion reads only the row computed one step earlier, so
    ``full_surface=False`` keeps the start row alone: u, udot and the
    reflection then have shape (1, N) and their row 0 (time t_0) is
    bitwise equal to row 0 of the full surface.  Memory is O(N)
    instead of O(n N).  Either way the surface's ``StepDiagnostics``
    records every step's fit, residual and active reflection nodes.

    Parameters
    ----------
    spec : ProblemSpec
        Problem data; its x_init must equal the grid center so the
        initial state sits exactly on the middle node.
    grid : GridPair
    full_surface : bool
        Keep every row t_0..t_n (the default) or only the start row.

    Raises
    ------
    SolveAborted
        On a non-finite solution value, an excessive imaginary residual
        or a ValueError raised inside a step (by the fit, transform,
        adjustment, coefficients or driver), with the offending step
        index.
    ValueError
        On inconsistent problem/grid data (center mismatch, terminal
        payoff below the barrier), or when the kept rows would exceed
        MAX_STORAGE_BYTES, checked before allocating.
    """
    if grid.center != spec.x_init:
        raise ValueError("grid.center must equal spec.x_init")

    n = spec.steps
    N = grid.N
    reflected = spec.barrier is not None
    rows = n + 1 if full_surface else 1
    check_storage(
        rows * N * 8 * (3 if reflected else 2),
        f"a {rows}-row surface at n={n}, log2N={N.bit_length() - 1}",
    )
    dt = spec.step_size
    times = spec.times()
    x_full = grid.space_nodes(include_right=True)
    x = x_full[:N]

    g_full = np.asarray(spec.terminal(x_full), dtype=float)
    if g_full.shape != x_full.shape:
        raise ValueError("terminal function must be vectorized over x")
    if not np.all(np.isfinite(g_full)):
        raise ValueError("terminal values must be finite")

    if reflected:
        b_terminal = np.asarray(spec.barrier(spec.horizon, x_full), dtype=float)
        tol = 1e-12 * max(1.0, float(np.max(np.abs(g_full))))
        if np.any(b_terminal > g_full + tol):
            raise ValueError("terminal payoff must dominate the barrier at maturity")

    u = np.empty((rows, N))
    udot = np.zeros((rows, N))
    u[-1] = g_full[:N]
    reflection = np.zeros((rows, N)) if reflected else None
    fits = np.empty((4, n))  # alpha, beta, kappa and the residual, per step
    active = np.zeros(n, dtype=int)
    law = None

    def convolve(values, a, s, kinds):
        """Fit, transform and convolve one sample vector under drift a, vol s.

        Scalar a and s share one increment spectrum, built again only
        when they change, and all requested kinds take one real FFT
        pair; per-node arrays take the row-wise step, which shares phi
        across the kinds.  Both kernels are looked up through this
        module's globals, where perfbench wraps them by name.  Returns
        the recovered node values for each requested kind, the fitted
        coefficients and the largest imaginary residual seen.
        """
        nonlocal law
        coeffs = fit_coefficients(values, grid)
        eta, regrow = apply_transform(values[:N], x, coeffs)
        if np.ndim(a) == np.ndim(s) == 0:
            if law is None or (law.drift, law.vol) != (a, s):
                law = IncrementSpectrum(grid, dt, a, s)
            results = convolve_step(eta, law, coeffs.alpha, kinds)
        else:
            results = convolve_step_statedep(eta, grid, dt, a, s, coeffs.alpha, kinds)
        outputs = [
            regrow * theta
            - adjustment_H(x, coeffs, kind, forward_drift=a * dt, forward_vol=s)
            for (theta, _), kind in zip(results, kinds)
        ]
        return outputs, coeffs, max(residual for _, residual in results)

    # the fit's right-edge sample: the payoff at x_N, then linear extension
    samples = g_full

    for i in range(n - 1, -1, -1):
        t = times[i]
        row = i if full_surface else 0
        try:
            a = _node_values(spec.drift, t, x)
            s = _node_values(spec.vol, t, x)
            if spec.scheme == EXPLICIT_II:
                (util, udot_i), coeffs, residual = convolve(
                    samples, a, s, (EXPECTATION, GRADIENT)
                )
                raw = util + dt * spec.driver(t, x, util, udot_i)
            else:
                v_next = samples[:N]
                (vdot,), _, res1 = convolve(samples, a, s, (GRADIENT,))
                vtilde = v_next + dt * spec.driver(t, x, v_next, vdot)
                (raw,), coeffs, res2 = convolve(
                    _extended_samples(vtilde), a, s, (EXPECTATION,)
                )
                udot_i = vdot
                residual = max(res1, res2)
        except (ImaginaryResidualError, ValueError) as exc:
            raise SolveAborted(i, str(exc)) from exc

        if reflected:
            b = np.asarray(spec.barrier(t, x), dtype=float)
            increments = np.maximum(b - raw, 0.0)
            active[i] = np.count_nonzero(increments)
            reflection[row] = increments
            u_i = np.maximum(raw, b)
        else:
            u_i = raw

        if not (np.all(np.isfinite(u_i)) and np.all(np.isfinite(udot_i))):
            raise SolveAborted(i, "non-finite solution values")

        u[row] = u_i
        udot[row] = udot_i
        fits[:, i] = coeffs.alpha, coeffs.beta, coeffs.kappa, residual

        samples = _extended_samples(u_i)

    return SolutionSurface(
        grid=grid,
        times=times[:rows].copy(),
        u=u,
        udot=udot,
        reflection=reflection,
        diagnostics=StepDiagnostics(*fits, active),
    )


def value_at_start(surface: SolutionSurface) -> tuple[float, float]:
    """Solution pair (y0, z0) at t=0 read off the center node.

    The grid is centered at the initial state, so no interpolation is
    involved.
    """
    mid = surface.grid.N // 2
    return float(surface.u[0, mid]), float(surface.udot[0, mid])
