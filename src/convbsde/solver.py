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
# bytes (2 GiB).  A solve holds its start row (u, udot and, with a
# barrier, the reflection: 98,304 bytes at N=4096) and a StepDiagnostics
# record of 40 bytes a step, so an American solve at N=4096 fits up to
# n=53,684,633.  A path simulation holds five count x (n+1) arrays.
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


def _extend(samples: np.ndarray) -> np.ndarray:
    """Fill the right-edge sample samples[N] by linear extension; return samples.

    The spectral step computes nodes 0..N-1 only, but the coefficient
    fit needs a sample at x_N for the backward difference there.
    Extending the last two nodes linearly makes that difference equal
    the slope between them.
    """
    samples[-1] = 2.0 * samples[-2] - samples[-3]
    return samples


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


def sweep(spec: ProblemSpec, grid: GridPair):
    """Run the backward recursion, yielding each row as it is computed.

    The recursion reads only the row computed one step earlier, so the
    rows come out in time order t_n, t_{n-1}, ..., t_0 as tuples
    (i, u_i, udot_i, reflection_i, step_i) over the nodes x_0..x_{N-1}:

    - row n is the terminal payoff, with a zero gradient, a zero
      reflection and step None;
    - every other row carries step_i = (alpha, beta, kappa, residual,
      active nodes) of the step that computed it, the entries of
      ``StepDiagnostics``.

    reflection_i is None without a barrier.  The yielded arrays are
    buffers the next row overwrites: copy what must outlive it.  The
    problem and grid are checked when ``sweep`` is called, before the
    first row.  Everything it holds is O(N), whatever n is: the step
    time t_i = i*dt is formed as the row is computed.

    Raises
    ------
    ValueError
        At the call, on inconsistent problem/grid data (center
        mismatch, terminal payoff below the barrier).
    SolveAborted
        While iterating, on a non-finite solution value, an excessive
        imaginary residual or a ValueError raised inside a step (by the
        fit, transform, adjustment, coefficients or driver), with the
        offending step index.
    """
    if grid.center != spec.x_init:
        raise ValueError("grid.center must equal spec.x_init")

    x_full = grid.space_nodes(include_right=True)
    g_full = np.asarray(spec.terminal(x_full), dtype=float)
    if g_full.shape != x_full.shape:
        raise ValueError("terminal function must be vectorized over x")
    if not np.all(np.isfinite(g_full)):
        raise ValueError("terminal values must be finite")

    if spec.barrier is not None:
        b_terminal = np.asarray(spec.barrier(spec.horizon, x_full), dtype=float)
        tol = 1e-12 * max(1.0, float(np.max(np.abs(g_full))))
        if np.any(b_terminal > g_full + tol):
            raise ValueError("terminal payoff must dominate the barrier at maturity")
    return _backward_rows(spec, grid, x_full[: grid.N], g_full)


def _backward_rows(spec: ProblemSpec, grid: GridPair, x: np.ndarray, g_full: np.ndarray):
    """The generator behind ``sweep``, started from the checked payoff
    g_full on the nodes x_0..x_N; x holds x_0..x_{N-1}."""
    n = spec.steps
    N = grid.N
    dt = spec.step_size
    reflected = spec.barrier is not None
    # the scalar law and the forward mean x + a*dt of the last constant step
    law = mean = None

    def convolve(values, a, s, kinds):
        """Fit, transform and convolve one sample vector under drift a, vol s.

        Scalar a and s share one increment spectrum and one forward mean
        x + a*dt, built again only when they change, and all requested
        kinds take one real FFT pair; per-node arrays take the row-wise
        step, which builds each row's law once for all kinds.  Every
        stage is looked up through this module's globals, where
        perfbench wraps it by name.  Returns the recovered node values
        for each requested kind, the fitted coefficients and the largest
        imaginary residual seen.
        """
        nonlocal law, mean
        coeffs = fit_coefficients(values, grid)
        eta, regrow = apply_transform(values[:N], x, coeffs)
        if isinstance(a, float) and isinstance(s, float):
            if law is None or (law.drift, law.vol) != (a, s):
                law = IncrementSpectrum(grid, dt, a, s)
                mean = x + a * dt
            results = convolve_step(eta, law, coeffs.alpha, kinds)
            nodes, forward_drift = mean, 0.0
        else:
            results = convolve_step_statedep(eta, grid, dt, a, s, coeffs.alpha, kinds)
            nodes, forward_drift = x, a * dt
        for (theta, _), kind in zip(results, kinds):
            theta *= regrow
            theta -= adjustment_H(nodes, coeffs, kind, forward_drift, s)
        return [theta for theta, _ in results], coeffs, max(res for _, res in results)

    # the fit's samples: the next row's node values and, at x_N, first
    # the payoff, then the linear extension.  Each step writes u_i into
    # u_samples, and scheme I its driver-adjusted values into v_samples.
    samples = g_full
    u_samples = np.empty(N + 1)
    v_samples = np.empty(N + 1) if spec.scheme == EXPLICIT_I else None
    reflection = np.zeros(N) if reflected else None

    yield n, g_full[:N], np.zeros(N), reflection, None

    for i in range(n - 1, -1, -1):
        t = i * dt  # bitwise spec.times()[i] for i < n
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
                np.add(v_next, dt * spec.driver(t, x, v_next, vdot), out=v_samples[:N])
                (raw,), coeffs, res2 = convolve(_extend(v_samples), a, s, (EXPECTATION,))
                udot_i = vdot
                residual = max(res1, res2)
        except (ImaginaryResidualError, ValueError) as exc:
            raise SolveAborted(i, str(exc)) from exc

        u_i = u_samples[:N]
        active = 0
        if reflected:
            b = np.asarray(spec.barrier(t, x), dtype=float)
            np.maximum(raw, b, out=u_i)
            # u_i - raw equals max(b - raw, 0) bit for bit, and is
            # nonzero exactly where u_i differs from raw
            np.subtract(u_i, raw, out=reflection)
            active = np.count_nonzero(u_i != raw)
        else:
            u_i[...] = raw

        if not (np.isfinite(u_i).all() and np.isfinite(udot_i).all()):
            raise SolveAborted(i, "non-finite solution values")

        yield i, u_i, udot_i, reflection, (
            coeffs.alpha, coeffs.beta, coeffs.kappa, residual, active
        )
        samples = _extend(u_samples)


def solve(spec: ProblemSpec, grid: GridPair) -> SolutionSurface:
    """Run the backward recursion and return its start row.

    ``sweep`` computes the rows t_n..t_0 and each one is read only to
    compute the next, so this keeps row t_0 alone: u, udot and the
    reflection have shape (N,).  The surface's ``StepDiagnostics``
    records every step's fit, residual and active reflection nodes.
    Take any other row from ``sweep``.

    Parameters
    ----------
    spec : ProblemSpec
        Problem data; its x_init must equal the grid center so the
        initial state sits exactly on the middle node.
    grid : GridPair

    Raises
    ------
    SolveAborted
        As ``sweep`` does.
    ValueError
        As ``sweep`` does, or when the start row and the 40-byte-a-step
        record would exceed MAX_STORAGE_BYTES, checked before
        allocating.
    """
    computed = sweep(spec, grid)
    n = spec.steps
    N = grid.N
    row_bytes = N * 8 * (3 if spec.barrier is not None else 2)
    record_bytes = n * 40  # four float64 and one int64 a step
    check_storage(
        row_bytes + record_bytes,
        f"a solve at n={n}, log2N={N.bit_length() - 1} (start row {row_bytes} "
        f"bytes, step record {record_bytes} bytes)",
    )
    fits = np.empty((4, n))  # alpha, beta, kappa and the residual, per step
    active = np.empty(n, dtype=np.int64)

    for i, u_i, udot_i, reflection_i, step in computed:
        if step is not None:
            fits[:, i] = step[:4]
            active[i] = step[4]

    # the sweep ends on row 0, whose buffers nothing overwrites any more
    return SolutionSurface(
        grid=grid,
        u=u_i.copy(),
        udot=udot_i.copy(),
        reflection=None if reflection_i is None else reflection_i.copy(),
        diagnostics=StepDiagnostics(*fits, active),
    )


def value_at_start(surface: SolutionSurface) -> tuple[float, float]:
    """Solution pair (y0, z0) at t=0 read off the center node.

    The grid is centered at the initial state, so no interpolation is
    involved.
    """
    mid = surface.grid.N // 2
    return float(surface.u[mid]), float(surface.udot[mid])
