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


@pytest.fixture(scope="module")
def european_setup():
    grid = build_grid(float(np.log(100.0)), 5.0, 12)
    market = MarketParams()
    spec = build_pricing_problem(market, 100, EXPLICIT_II)
    surface = solve(spec, grid)
    return market, spec, grid, surface


def test_bundle_shapes_and_metadata(european_setup):
    _, spec, _, surface = european_setup
    bundles = simulate_paths(spec, surface, count=7, seed=11)
    assert len(bundles) == 7
    for idx, b in enumerate(bundles):
        assert b.path_index == idx
        assert b.seed == 11
        assert b.generator == "numpy-pcg64"
        assert b.times.shape == (spec.steps + 1,)
        for arr in (b.x_path, b.y_path, b.z_path, b.a_path):
            assert arr.shape == (spec.steps + 1,)
        assert np.array_equal(b.times, surface.times)


def test_paths_start_at_initial_state(european_setup):
    _, spec, grid, surface = european_setup
    bundles = simulate_paths(spec, surface, count=5, seed=2)
    mid = grid.N // 2
    for b in bundles:
        assert b.x_path[0] == spec.x_init
        # the start sits exactly on the center node, so the read-off is
        # exact, not interpolated
        assert b.y_path[0] == surface.u[0, mid]
        assert b.z_path[0] == surface.udot[0, mid]


def test_unreflected_problem_has_zero_reflection_path(european_setup):
    _, spec, _, surface = european_setup
    bundles = simulate_paths(spec, surface, count=5, seed=4)
    for b in bundles:
        assert np.array_equal(b.a_path, np.zeros_like(b.a_path))
        assert b.clamped is False


def test_terminal_values_track_payoff(european_setup):
    market, spec, _, surface = european_setup
    bundles = simulate_paths(spec, surface, count=20, seed=3)
    worst = max(
        abs(b.y_path[-1] - max(np.exp(b.x_path[-1]) - market.K, 0.0))
        for b in bundles
    )
    # terminal row is the exact payoff; only linear interpolation error
    # between nodes remains
    assert worst <= 1e-3


def test_same_seed_reproduces_paths_exactly(european_setup):
    _, spec, _, surface = european_setup
    first = simulate_paths(spec, surface, count=4, seed=123)
    second = simulate_paths(spec, surface, count=4, seed=123)
    for a, b in zip(first, second):
        assert np.array_equal(a.x_path, b.x_path)
        assert np.array_equal(a.y_path, b.y_path)
        assert np.array_equal(a.z_path, b.z_path)
        assert np.array_equal(a.a_path, b.a_path)
    shifted = simulate_paths(spec, surface, count=4, seed=124)
    assert any(
        not np.array_equal(a.x_path, b.x_path) for a, b in zip(first, shifted)
    )


def test_prefix_paths_do_not_depend_on_count(european_setup):
    # per-path generators: simulating more paths must not disturb the
    # earlier ones
    _, spec, _, surface = european_setup
    few = simulate_paths(spec, surface, count=3, seed=9)
    many = simulate_paths(spec, surface, count=6, seed=9)
    for a, b in zip(few, many):
        assert np.array_equal(a.x_path, b.x_path)


def test_reflected_dividend_market_accumulates_reflection():
    grid = build_grid(float(np.log(100.0)), 5.0, 12)
    market = MarketParams(R=0.03, div=0.035, style=STYLE_AMERICAN)
    spec = build_pricing_problem(market, 200, EXPLICIT_II)
    surface = solve(spec, grid)
    bundles = simulate_paths(spec, surface, count=50, seed=0)
    for b in bundles:
        assert np.all(np.diff(b.a_path) >= -1e-15)  # non-decreasing
        assert b.a_path[0] == 0.0
    assert any(b.a_path[-1] > 0.0 for b in bundles)


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
    assert len(simulate_paths(spec, surface, count=3, seed=1)) == 3
    monkeypatch.setattr(solver_module, "MAX_STORAGE_BYTES", needed - 1)
    with pytest.raises(ValueError, match=f"3 paths at n=100 needs {needed} bytes"):
        simulate_paths(spec, surface, count=3, seed=1)
