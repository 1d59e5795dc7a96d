"""Forward path simulation with the solution read along the paths.

Simulates Euler paths of the forward state and reads Y, Z and the
reflection increments along them by linear interpolation in space, one
row at a time as the backward sweep computes it.  This is
presentation-layer sampling: it adds no accuracy beyond the solved
rows, but shows how the backward pair and the reflection process
behave along individual scenarios.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridPair
from .model import ProblemSpec
from .solver import check_storage, sweep

# Paths use numpy's PCG64 generator, seeded per path with the pair
# (seed, row number) so results do not depend on scheduling order.
GENERATOR = "numpy-pcg64"


@dataclass(frozen=True)
class PathBundle:
    """Simulated scenarios with the solution read along them.

    Row j of the (count, n+1) arrays x, y, z and a is path j at
    ``times``, simulated by a generator seeded with (seed, j).  a
    accumulates the interpolated reflection increments, so each row
    starts at 0 and is non-decreasing; it stays 0 for problems without
    a barrier.  ``clamped[j]`` flags a path that left the grid and was
    pinned to its edge, where the surface is least reliable.
    """

    times: np.ndarray
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    a: np.ndarray
    clamped: np.ndarray
    seed: int


def simulate_paths(spec: ProblemSpec, grid: GridPair, count: int, seed: int) -> PathBundle:
    """Simulate ``count`` forward paths and read the solution along them.

    The forward paths depend only on drift and vol, so X is simulated
    first on the solver's time mesh; the backward sweep then runs on
    ``grid`` and each row t_n..t_0 is interpolated along the paths as
    it is computed, so no solution surface is held.  Interpolation
    uses the honestly computed nodes x_0..x_{N-1}; positions beyond
    them are clamped to the nearest of those nodes and the path
    flagged.  The five count x (n+1) path arrays (increments, X, Y, Z,
    A) are sized against the solver's storage cap before allocating.

    Raises ValueError on a count below 1, an oversized request or
    inconsistent problem/grid data, and SolveAborted as the sweep does.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    rows = sweep(spec, grid)
    n = spec.steps
    check_storage(count * (n + 1) * 8 * 5, f"{count} paths at n={n}")

    nodes = grid.space_nodes()
    x_left = grid.x0
    x_right = grid.x0 + grid.l
    dt = spec.step_size
    sq = np.sqrt(dt)
    times = spec.times()

    # Forward Euler per path (each path has its own derived generator).
    x = np.empty((count, n + 1))
    clamped = np.zeros(count, dtype=bool)
    x[:, 0] = spec.x_init
    incs = np.empty((count, n))
    for index in range(count):
        rng = np.random.default_rng([seed, index])
        incs[index] = sq * rng.standard_normal(n)
    for i in range(n):
        xi = x[:, i]
        drift = np.broadcast_to(np.asarray(spec.drift(times[i], xi), float), xi.shape)
        vol = np.broadcast_to(np.asarray(spec.vol(times[i], xi), float), xi.shape)
        nxt = xi + drift * dt + vol * incs[:, i]
        outside = (nxt < x_left) | (nxt > x_right)
        clamped |= outside
        x[:, i + 1] = np.clip(nxt, x_left, x_right)

    # Each row read across all paths as the sweep makes it; the
    # reflection increment of step i (read at X_{t_i}) goes into the
    # spent increments buffer and is summed forward at the end.
    y = np.empty((count, n + 1))
    z = np.empty((count, n + 1))
    a = np.zeros((count, n + 1))
    for i, u_i, udot_i, reflection_i, _ in rows:
        y[:, i] = np.interp(x[:, i], nodes, u_i)
        z[:, i] = np.interp(x[:, i], nodes, udot_i)
        if reflection_i is not None and i < n:
            incs[:, i] = np.interp(x[:, i], nodes, reflection_i)
    if spec.barrier is not None:
        for i in range(n):
            a[:, i + 1] = a[:, i] + incs[:, i]

    return PathBundle(times, x, y, z, a, clamped, seed)
