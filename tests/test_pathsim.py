"""Tests for forward path simulation with the solution read along the paths."""

import numpy as np
import pytest

import convbsde.solver as solver_module
from convbsde import (
    EXPLICIT_I,
    EXPLICIT_II,
    STYLE_AMERICAN,
    STYLE_EUROPEAN,
    MarketParams,
    build_grid,
    build_pricing_problem,
    fbsde,
    simulate_paths,
    solve,
)
from convbsde.pathsim import GENERATOR


@pytest.fixture(scope="module")
def european_setup():
    market = MarketParams()
    spec = build_pricing_problem(market, 100, EXPLICIT_II)
    grid = build_grid(spec.x_init, 5.0, 12)
    surface = solve(spec, grid)
    return market, spec, grid, surface


def test_bundle_shapes_and_metadata(european_setup):
    _, spec, grid, surface = european_setup
    paths = simulate_paths(spec, grid, count=7, seed=11)
    assert paths.seed == 11
    assert GENERATOR == "numpy-pcg64"
    assert paths.times.shape == (spec.steps + 1,)
    for arr in (paths.x, paths.y, paths.z, paths.a):
        assert arr.shape == (7, spec.steps + 1)
    assert paths.clamped.shape == (7,) and paths.clamped.dtype == bool
    assert np.array_equal(paths.times, spec.times())
    # row j is the path whose generator is seeded with (seed, j)
    dt = spec.step_size
    drift, vol = spec.drift(0.0, spec.x_init), spec.vol(0.0, spec.x_init)
    first_draws = (paths.x[:, 1] - spec.x_init - drift * dt) / (vol * np.sqrt(dt))
    expected = [np.random.default_rng([11, j]).standard_normal(spec.steps)[0] for j in range(7)]
    assert np.allclose(first_draws, expected, rtol=0.0, atol=1e-9)


def test_paths_start_at_initial_state(european_setup):
    _, spec, grid, surface = european_setup
    paths = simulate_paths(spec, grid, count=5, seed=2)
    mid = grid.N // 2
    assert np.all(paths.x[:, 0] == spec.x_init)
    # the start sits exactly on the center node, so the read-off is
    # exact, not interpolated
    assert np.all(paths.y[:, 0] == surface.u[mid])
    assert np.all(paths.z[:, 0] == surface.udot[mid])


def test_unreflected_problem_has_zero_reflection_path(european_setup):
    _, spec, grid, _ = european_setup
    paths = simulate_paths(spec, grid, count=5, seed=4)
    assert np.array_equal(paths.a, np.zeros((5, spec.steps + 1)))
    assert not paths.clamped.any()


def test_terminal_values_track_payoff(european_setup):
    market, spec, grid, _ = european_setup
    paths = simulate_paths(spec, grid, count=20, seed=3)
    # the paths run per unit of S0: x = ln(S/S0), y = value/S0
    worst = np.max(
        np.abs(
            market.S0 * paths.y[:, -1]
            - np.maximum(market.S0 * np.exp(paths.x[:, -1]) - market.K, 0.0)
        )
    )
    # terminal row is the exact payoff; only linear interpolation error
    # between nodes remains
    assert worst <= 1e-3


def test_same_seed_reproduces_paths_exactly(european_setup):
    _, spec, grid, _ = european_setup
    first = simulate_paths(spec, grid, count=4, seed=123)
    second = simulate_paths(spec, grid, count=4, seed=123)
    assert np.array_equal(first.x, second.x)
    assert np.array_equal(first.y, second.y)
    assert np.array_equal(first.z, second.z)
    assert np.array_equal(first.a, second.a)
    shifted = simulate_paths(spec, grid, count=4, seed=124)
    assert any(not np.array_equal(a, b) for a, b in zip(first.x, shifted.x))


def test_earlier_paths_do_not_depend_on_count(european_setup):
    # per-path generators: simulating more paths must not disturb the
    # earlier ones
    _, spec, grid, _ = european_setup
    few = simulate_paths(spec, grid, count=3, seed=9)
    many = simulate_paths(spec, grid, count=6, seed=9)
    assert np.array_equal(few.x, many.x[:3])


def test_reflected_dividend_market_accumulates_reflection():
    market = MarketParams(R=0.03, div=0.035, style=STYLE_AMERICAN)
    spec = build_pricing_problem(market, 200, EXPLICIT_II)
    grid = build_grid(spec.x_init, 5.0, 12)
    paths = simulate_paths(spec, grid, count=50, seed=0)
    assert np.all(np.diff(paths.a, axis=1) >= -1e-15)  # non-decreasing
    assert np.all(paths.a[:, 0] == 0.0)
    assert np.any(paths.a[:, -1] > 0.0)


def test_count_validation(european_setup):
    _, spec, grid, _ = european_setup
    with pytest.raises(ValueError):
        simulate_paths(spec, grid, count=0, seed=1)


def test_grid_off_the_initial_state_is_rejected(european_setup):
    # the sweep runs the problem's own time mesh, so only the grid can
    # disagree with the problem: its center must be the initial state
    _, spec, grid, _ = european_setup
    shifted = build_grid(spec.x_init + grid.dx, grid.half_width, 12)
    with pytest.raises(ValueError, match="grid.center must equal spec.x_init"):
        simulate_paths(spec, shifted, count=2, seed=1)


def test_path_storage_is_checked_before_allocating(european_setup, monkeypatch):
    _, spec, grid, _ = european_setup
    # five count x (n+1) float arrays: increments, X, Y, Z, A
    needed = 3 * (spec.steps + 1) * 8 * 5
    monkeypatch.setattr(solver_module, "MAX_STORAGE_BYTES", needed)
    assert simulate_paths(spec, grid, count=3, seed=1).x.shape == (3, spec.steps + 1)
    monkeypatch.setattr(solver_module, "MAX_STORAGE_BYTES", needed - 1)
    with pytest.raises(ValueError, match=f"3 paths at n=100 needs {needed} bytes"):
        simulate_paths(spec, grid, count=3, seed=1)


def _paths_over_surface(spec, grid, rows, count, seed):
    """Paths read off the stacked rows (u, udot, reflection) of every
    time step: the simulation before the rows were streamed, kept as
    the reference."""
    u, udot, reflection = rows
    n = spec.steps
    nodes = grid.space_nodes()
    x_left = grid.x0
    x_right = grid.x0 + grid.l
    dt = spec.step_size
    sq = np.sqrt(dt)
    times = spec.times()
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
        clamped |= (nxt < x_left) | (nxt > x_right)
        x[:, i + 1] = np.clip(nxt, x_left, x_right)
    y = np.empty((count, n + 1))
    z = np.empty((count, n + 1))
    a = np.zeros((count, n + 1))
    for i in range(n + 1):
        y[:, i] = np.interp(x[:, i], nodes, u[i])
        z[:, i] = np.interp(x[:, i], nodes, udot[i])
    if reflection is not None:
        for i in range(n):
            a[:, i + 1] = a[:, i] + np.interp(x[:, i], nodes, reflection[i])
    return x, y, z, a, clamped


def _streamed_case(scheme, style):
    if style == "localvol":
        # tanh local vol: every step takes the per-node kernel
        x0 = float(np.log(100.0))
        spec = fbsde(
            horizon=0.5,
            steps=30,
            x_init=x0,
            drift=lambda t, x: 0.03 - 0.5 * (0.2 + 0.05 * np.tanh(x - x0)) ** 2,
            vol=lambda t, x: 0.2 + 0.05 * np.tanh(x - x0),
            terminal=lambda x: np.maximum(np.exp(x) - 100.0, 0.0),
            driver=lambda t, x, y, z: -0.03 * y,
            scheme=scheme,
        )
        return spec, build_grid(x0, 2.0, 9)
    # half-width 0.4 is two standard deviations: some paths clamp
    market = MarketParams(R=0.03, div=0.035, style=style)
    spec = build_pricing_problem(market, 60, scheme)
    return spec, build_grid(spec.x_init, 0.4, 10)


@pytest.mark.parametrize("scheme", [EXPLICIT_I, EXPLICIT_II])
@pytest.mark.parametrize("style", [STYLE_EUROPEAN, STYLE_AMERICAN, "localvol"])
def test_streamed_paths_equal_paths_over_every_row(scheme, style, every_row):
    spec, grid = _streamed_case(scheme, style)
    paths = simulate_paths(spec, grid, count=40, seed=17)
    x, y, z, a, clamped = _paths_over_surface(spec, grid, every_row(spec, grid), 40, 17)
    for got, want in ((paths.x, x), (paths.y, y), (paths.z, z), (paths.a, a)):
        assert np.array_equal(got, want)
    assert np.array_equal(paths.clamped, clamped)
    assert paths.clamped.any() == (style != "localvol")
    if style == STYLE_AMERICAN:
        assert np.any(paths.a[:, -1] > 0.0)
