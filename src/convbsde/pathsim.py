"""Forward path simulation over a solved surface.

Simulates Euler paths of the forward state and reads Y, Z and the
reflection increments along them by linear interpolation in space.
This is presentation-layer sampling: it adds no accuracy beyond the
surface, but shows how the backward pair and the reflection process
behave along individual scenarios.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ProblemSpec, SolutionSurface
from .solver import check_storage

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


def simulate_paths(
    spec: ProblemSpec, surface: SolutionSurface, count: int, seed: int
) -> PathBundle:
    """Simulate ``count`` forward paths and read the surface along them.

    The simulation mesh equals the solver mesh, and the surface must
    be a full one (a start-row surface is rejected).  Interpolation
    uses the honestly computed nodes x_0..x_{N-1}; positions beyond
    them are clamped to the nearest of those nodes and the path
    flagged.  The five count x (n+1) path arrays (increments, X, Y, Z,
    A) are sized against the solver's storage cap before allocating.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    n = spec.steps
    if surface.u.shape != (n + 1, surface.grid.N):
        raise ValueError("surface does not match the problem's mesh")
    check_storage(count * (n + 1) * 8 * 5, f"{count} paths at n={n}")

    grid = surface.grid
    nodes = grid.space_nodes()
    x_left = grid.x0
    x_right = grid.x0 + grid.l
    dt = spec.step_size
    sq = np.sqrt(dt)
    times = spec.times()

    # Forward Euler per path (each path has its own derived generator),
    # then vectorized surface reads row by row across all paths.
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

    y = np.empty((count, n + 1))
    z = np.empty((count, n + 1))
    a = np.zeros((count, n + 1))
    for i in range(n + 1):
        y[:, i] = np.interp(x[:, i], nodes, surface.u[i])
        z[:, i] = np.interp(x[:, i], nodes, surface.udot[i])
    if surface.reflection is not None:
        for i in range(n):
            a[:, i + 1] = a[:, i] + np.interp(x[:, i], nodes, surface.reflection[i])

    return PathBundle(times, x, y, z, a, clamped, seed)
