"""Shared fixtures for the test suite."""

import numpy as np
import pytest

from convbsde import build_grid, sweep


@pytest.fixture(scope="session")
def pricing_grid():
    """Default log-price grid centered at ln(100) used by pricing tests."""
    return build_grid(float(np.log(100.0)), 5.0, 12)


def _stacked_rows(spec, grid):
    """Every row t_0..t_n of ``sweep(spec, grid)``, stacked in time order.

    Returns (u, udot, reflection), each of shape (n+1, N) with row i at
    time t_i; reflection is None without a barrier.  The rows are
    copied as they arrive, because the sweep reuses its buffers.
    """
    n = spec.steps
    u = np.empty((n + 1, grid.N))
    udot = np.empty((n + 1, grid.N))
    reflection = np.empty((n + 1, grid.N)) if spec.barrier is not None else None
    for i, u_i, udot_i, reflection_i, _ in sweep(spec, grid):
        u[i] = u_i
        udot[i] = udot_i
        if reflection is not None:
            reflection[i] = reflection_i
    return u, udot, reflection


@pytest.fixture(scope="session")
def every_row():
    """``every_row(spec, grid)`` -> (u, udot, reflection) over all rows t_0..t_n."""
    return _stacked_rows
