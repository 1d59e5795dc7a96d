"""Tests for forward path simulation over a solved value surface."""

import numpy as np
import pytest

import convbsde.solver as solver_module
from convbsde import (
    EXPLICIT_II,
    MarketParams,
    STYLE_AMERICAN,
    build_grid,
    build_pricing_problem,
    simulate_paths,
    solve,
)
from convbsde.pathsim import GENERATOR


@pytest.fixture(scope="module")
def european_setup():
    grid = build_grid(float(np.log(100.0)), 5.0, 12)
    market = MarketParams()
    spec = build_pricing_problem(market, 100, EXPLICIT_II)
    surface = solve(spec, grid)
    return market, spec, grid, surface


def test_bundle_shapes_and_metadata(european_setup):
    _, spec, _, surface = european_setup
    paths = simulate_paths(spec, surface, count=7, seed=11)
    assert paths.seed == 11
    assert GENERATOR == "numpy-pcg64"
    assert paths.times.shape == (spec.steps + 1,)
    for arr in (paths.x, paths.y, paths.z, paths.a):
        assert arr.shape == (7, spec.steps + 1)
    assert paths.clamped.shape == (7,) and paths.clamped.dtype == bool
    assert np.array_equal(paths.times, surface.times)
    # row j is the path whose generator is seeded with (seed, j)
    dt = spec.step_size
    drift, vol = spec.drift(0.0, spec.x_init), spec.vol(0.0, spec.x_init)
    first_draws = (paths.x[:, 1] - spec.x_init - drift * dt) / (vol * np.sqrt(dt))
    expected = [np.random.default_rng([11, j]).standard_normal(spec.steps)[0] for j in range(7)]
    assert np.allclose(first_draws, expected, rtol=0.0, atol=1e-9)


def test_paths_start_at_initial_state(european_setup):
    _, spec, grid, surface = european_setup
    paths = simulate_paths(spec, surface, count=5, seed=2)
    mid = grid.N // 2
    assert np.all(paths.x[:, 0] == spec.x_init)
    # the start sits exactly on the center node, so the read-off is
    # exact, not interpolated
    assert np.all(paths.y[:, 0] == surface.u[0, mid])
    assert np.all(paths.z[:, 0] == surface.udot[0, mid])


def test_unreflected_problem_has_zero_reflection_path(european_setup):
    _, spec, _, surface = european_setup
    paths = simulate_paths(spec, surface, count=5, seed=4)
    assert np.array_equal(paths.a, np.zeros((5, spec.steps + 1)))
    assert not paths.clamped.any()


def test_terminal_values_track_payoff(european_setup):
    market, spec, _, surface = european_setup
    paths = simulate_paths(spec, surface, count=20, seed=3)
    worst = np.max(
        np.abs(paths.y[:, -1] - np.maximum(np.exp(paths.x[:, -1]) - market.K, 0.0))
    )
    # terminal row is the exact payoff; only linear interpolation error
    # between nodes remains
    assert worst <= 1e-3


def test_same_seed_reproduces_paths_exactly(european_setup):
    _, spec, _, surface = european_setup
    first = simulate_paths(spec, surface, count=4, seed=123)
    second = simulate_paths(spec, surface, count=4, seed=123)
    assert np.array_equal(first.x, second.x)
    assert np.array_equal(first.y, second.y)
    assert np.array_equal(first.z, second.z)
    assert np.array_equal(first.a, second.a)
    shifted = simulate_paths(spec, surface, count=4, seed=124)
    assert any(not np.array_equal(a, b) for a, b in zip(first.x, shifted.x))


def test_earlier_paths_do_not_depend_on_count(european_setup):
    # per-path generators: simulating more paths must not disturb the
    # earlier ones
    _, spec, _, surface = european_setup
    few = simulate_paths(spec, surface, count=3, seed=9)
    many = simulate_paths(spec, surface, count=6, seed=9)
    assert np.array_equal(few.x, many.x[:3])


def test_reflected_dividend_market_accumulates_reflection():
    grid = build_grid(float(np.log(100.0)), 5.0, 12)
    market = MarketParams(R=0.03, div=0.035, style=STYLE_AMERICAN)
    spec = build_pricing_problem(market, 200, EXPLICIT_II)
    surface = solve(spec, grid)
    paths = simulate_paths(spec, surface, count=50, seed=0)
    assert np.all(np.diff(paths.a, axis=1) >= -1e-15)  # non-decreasing
    assert np.all(paths.a[:, 0] == 0.0)
    assert np.any(paths.a[:, -1] > 0.0)


def test_count_validation(european_setup):
    _, spec, _, surface = european_setup
    with pytest.raises(ValueError):
        simulate_paths(spec, surface, count=0, seed=1)


def test_surface_mismatch_is_rejected(european_setup):
    _, spec, grid, _ = european_setup
    other = solve(build_pricing_problem(MarketParams(), 50, EXPLICIT_II), grid)
    with pytest.raises(ValueError):
        simulate_paths(spec, other, count=2, seed=1)


def test_start_row_surface_is_rejected(european_setup):
    _, spec, grid, _ = european_setup
    start = solve(spec, grid, full_surface=False)
    with pytest.raises(ValueError, match="does not match the problem's mesh"):
        simulate_paths(spec, start, count=2, seed=1)


def test_path_storage_is_checked_before_allocating(european_setup, monkeypatch):
    _, spec, _, surface = european_setup
    # five count x (n+1) float arrays: increments, X, Y, Z, A
    needed = 3 * (spec.steps + 1) * 8 * 5
    monkeypatch.setattr(solver_module, "MAX_STORAGE_BYTES", needed)
    assert simulate_paths(spec, surface, count=3, seed=1).x.shape == (3, spec.steps + 1)
    monkeypatch.setattr(solver_module, "MAX_STORAGE_BYTES", needed - 1)
    with pytest.raises(ValueError, match=f"3 paths at n=100 needs {needed} bytes"):
        simulate_paths(spec, surface, count=3, seed=1)
