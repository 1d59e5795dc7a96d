"""Tests for the backward recursion on known solutions and edge cases."""

import dataclasses
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import convbsde.solver as solver_module
from convbsde import (
    EXPECTATION,
    EXPLICIT_I,
    EXPLICIT_II,
    GRADIENT,
    STYLE_AMERICAN,
    STYLE_EUROPEAN,
    MarketParams,
    PsiKind,
    SolveAborted,
    apply_transform,
    brownian_bsde,
    build_grid,
    build_pricing_problem,
    dft,
    fbsde,
    solve,
    value_at_start,
)


def _zero_driver(t, x, y, z):
    return np.zeros_like(x)


@pytest.fixture(scope="module")
def small_grid():
    return build_grid(0.0, 3.0, 8)


@pytest.mark.parametrize("scheme", [EXPLICIT_I, EXPLICIT_II])
def test_constant_terminal_is_reproduced_exactly(small_grid, scheme):
    # zero driver and constant payoff: the value surface is that
    # constant and the diffusion-scaled gradient vanishes
    spec = brownian_bsde(
        horizon=1.0,
        steps=20,
        terminal=lambda x: np.full_like(x, 3.0),
        driver=_zero_driver,
        scheme=scheme,
    )
    surface = solve(spec, small_grid)
    assert np.max(np.abs(surface.u - 3.0)) <= 1e-10
    assert np.max(np.abs(surface.udot)) <= 1e-10
    y0, z0 = value_at_start(surface)
    assert y0 == pytest.approx(3.0, abs=1e-12)
    assert z0 == pytest.approx(0.0, abs=1e-12)


def test_linear_terminal_is_a_martingale(small_grid):
    # Brownian driver-free case with g(x) = x: u(t, x) = x, z = 1
    spec = brownian_bsde(
        horizon=0.5, steps=10, terminal=lambda x: x, driver=_zero_driver
    )
    surface = solve(spec, small_grid)
    xs = small_grid.space_nodes(include_right=True)
    n0 = small_grid.N // 8
    interior = slice(n0, small_grid.N - n0)
    assert np.max(np.abs(surface.u[0, interior] - xs[interior])) <= 1e-10
    assert np.max(np.abs(surface.udot[0, interior] - 1.0)) <= 1e-10


def test_solution_surface_shapes_and_wrap_column(small_grid):
    spec = brownian_bsde(
        horizon=0.5, steps=6, terminal=np.tanh, driver=_zero_driver
    )
    surface = solve(spec, small_grid)
    n, N = spec.steps, small_grid.N
    assert surface.u.shape == (n + 1, N + 1)
    assert surface.udot.shape == (n + 1, N + 1)
    assert surface.times.shape == (n + 1,)
    assert surface.reflection is None
    # last column duplicates the first by the periodic wrap
    assert np.array_equal(surface.u[:, N], surface.u[:, 0])
    assert np.array_equal(surface.udot[:, N], surface.udot[:, 0])
    # terminal row holds the payoff on the honest nodes
    assert np.array_equal(surface.u[n, :N], np.tanh(small_grid.space_nodes()))


def test_gradient_tracks_space_derivative(small_grid):
    # z must stay consistent with sigma times the finite-difference
    # slope of u away from the domain edges
    spec = brownian_bsde(
        horizon=0.5,
        steps=50,
        terminal=lambda x: np.log1p(np.exp(x)),
        driver=lambda t, x, y, z: -0.1 * y,
    )
    surface = solve(spec, small_grid)
    fd = np.gradient(surface.u[0], small_grid.dx)
    n0 = small_grid.N // 8
    interior = slice(n0, small_grid.N - n0)
    rel = np.abs(surface.udot[0] - fd)[interior] / (np.abs(fd[interior]) + 1e-6)
    assert np.max(rel) <= 1e-2


def _reflected_toy(barrier, scheme=EXPLICIT_II):
    return fbsde(
        horizon=0.5,
        steps=10,
        x_init=0.0,
        drift=lambda t, x: np.zeros_like(x),
        vol=lambda t, x: np.ones_like(x),
        terminal=lambda x: np.abs(x),
        driver=lambda t, x, y, z: np.full_like(x, -1.0),
        barrier=barrier,
        scheme=scheme,
    )


def test_reflection_keeps_solution_above_barrier(small_grid):
    reflected = solve(_reflected_toy(lambda t, x: np.abs(x)), small_grid)
    free = solve(_reflected_toy(None), small_grid)
    xs = small_grid.space_nodes()
    assert reflected.reflection is not None
    assert reflected.reflection.shape == reflected.u.shape
    assert np.min(reflected.reflection) >= 0.0
    # the negative driver pulls the free solution below the payoff, so
    # the constraint must actually bind somewhere
    assert np.count_nonzero(reflected.reflection) > 0
    assert np.min(reflected.u[:, : small_grid.N] - np.abs(xs)[None, :]) >= -1e-12
    assert np.min(reflected.u - free.u) >= -1e-12
    # terminal row carries no reflection increment
    assert np.array_equal(reflected.reflection[-1], np.zeros(small_grid.N + 1))


def test_barrier_above_terminal_payoff_is_rejected(small_grid):
    spec = _reflected_toy(lambda t, x: np.abs(x) + 0.5)
    with pytest.raises(ValueError):
        solve(spec, small_grid)


def test_grid_center_must_match_initial_state(small_grid):
    spec = fbsde(
        horizon=0.5,
        steps=4,
        x_init=0.25,
        drift=lambda t, x: np.zeros_like(x),
        vol=lambda t, x: np.ones_like(x),
        terminal=np.tanh,
        driver=_zero_driver,
    )
    with pytest.raises(ValueError):
        solve(spec, small_grid)


def test_non_finite_driver_aborts_with_step_index(small_grid):
    spec = brownian_bsde(
        horizon=0.5,
        steps=10,
        terminal=lambda x: x,
        driver=lambda t, x, y, z: np.full_like(x, np.nan),
    )
    with pytest.raises(SolveAborted) as exc_info:
        solve(spec, small_grid)
    err = exc_info.value
    assert isinstance(err, RuntimeError)
    assert err.step_index == 9
    assert "non-finite" in err.reason


def test_value_error_inside_a_step_aborts_with_step_index(small_grid):
    # the drift turns NaN before t = 0.23, i.e. from step 4 down; the
    # closed-form adjustment rejects it and the solve names that step
    spec = fbsde(
        horizon=0.5,
        steps=10,
        x_init=0.0,
        drift=lambda t, x: np.nan if t < 0.23 else 0.0,
        vol=lambda t, x: 1.0,
        terminal=np.tanh,
        driver=_zero_driver,
    )
    with pytest.raises(SolveAborted) as exc_info:
        solve(spec, small_grid)
    assert exc_info.value.step_index == 4
    assert "non-finite" in exc_info.value.reason


def test_constant_path_runs_one_real_fft_pair_per_convolution(small_grid, monkeypatch):
    calls = Counter()
    for name in ("fft", "ifft", "rfft", "irfft"):

        def counted(*args, _name=name, _fn=getattr(np.fft, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    steps = 10
    for scheme in (EXPLICIT_I, EXPLICIT_II):
        spec = brownian_bsde(
            horizon=0.5, steps=steps, terminal=np.tanh, driver=_zero_driver, scheme=scheme
        )
        solve(spec, small_grid)
    # both schemes convolve twice per step: expectation and gradient
    convolutions = 2 * 2 * steps
    assert calls == {"rfft": convolutions, "irfft": convolutions}


def _selection_spec(case):
    common = dict(
        horizon=0.5, steps=6, x_init=0.0, terminal=np.tanh, driver=_zero_driver
    )
    if case == "brownian":
        return brownian_bsde(0.5, 6, terminal=np.tanh, driver=_zero_driver)
    if case == "pricing":
        return build_pricing_problem(MarketParams(S0=1.0, K=1.0), 6)
    if case == "constant":
        return fbsde(drift=lambda t, x: 0.1, vol=lambda t, x: 0.8, **common)
    if case == "time-varying":
        return fbsde(
            drift=lambda t, x: np.full_like(x, 0.1 + t), vol=lambda t, x: 0.8, **common
        )
    if case == "local-vol":
        return fbsde(
            drift=lambda t, x: 0.1, vol=lambda t, x: 0.8 + 0.1 * np.tanh(x), **common
        )
    raise ValueError(case)


@pytest.mark.parametrize("scheme", [EXPLICIT_I, EXPLICIT_II])
@pytest.mark.parametrize(
    "case, fast",
    [
        ("brownian", True),
        ("pricing", True),
        ("constant", True),
        ("time-varying", True),
        ("local-vol", False),
    ],
)
def test_each_step_picks_its_convolution_from_the_node_coefficients(
    case, fast, scheme, monkeypatch
):
    # drift and vol sampled on the nodes decide the step: one value at
    # every node takes the single-FFT convolution, anything else the
    # per-node one; nothing is declared on the spec
    calls = Counter()
    for name in ("convolve_step", "convolve_step_statedep"):

        def counted(*args, _name=name, _fn=getattr(solver_module, name)):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(solver_module, name, counted)
    spec = dataclasses.replace(_selection_spec(case), scheme=scheme)
    solve(spec, build_grid(spec.x_init, 2.0, 7))
    taken = "convolve_step" if fast else "convolve_step_statedep"
    assert calls == {taken: 2 * spec.steps}


def _full_complex_row_residual(eta, grid, psi_per_node):
    """Measured imaginary residual of the state-dependent step.

    Each row is summed over the full complex DFT on the centered
    frequency nodes nu_j = (j - N/2)*dnu, j = 0..N-1; the axis starts at
    -N*dnu/2, which the alternating signs account for.
    """
    N = grid.N
    signs = 1.0 - 2.0 * (np.arange(N) % 2)
    nu = grid.dnu * (np.arange(N) - N // 2)
    spectrum = dft(signs * eta)
    j = np.arange(N)
    theta = np.array(
        [
            signs[k] * np.dot(np.exp((2j * np.pi * k / N) * j), psi.values(nu) * spectrum)
            for k, psi in enumerate(psi_per_node)
        ]
    )
    return np.max(np.abs(theta.imag)) / np.max(np.abs(theta.real))


def test_statedep_diagnostics_record_the_measured_residual():
    # a coarse grid and a short step leave the Nyquist bin a residual
    # well above roundoff and below the abort threshold
    grid = build_grid(0.0, 3.0, 6)
    drift = lambda t, x: 0.1 * np.sin(x)
    vol = lambda t, x: 1.0 + 0.3 * np.tanh(x)
    spec = fbsde(
        horizon=0.04,
        steps=1,
        x_init=0.0,
        drift=drift,
        vol=vol,
        terminal=lambda x: np.log1p(np.exp(x)),
        driver=lambda t, x, y, z: -0.1 * y,
    )
    (diag,) = solve(spec, grid, collect_diagnostics=True).diagnostics
    eta = apply_transform(spec.terminal(grid.space_nodes()), grid, diag.coeffs)
    x = grid.space_nodes()
    measured = max(
        _full_complex_row_residual(
            eta,
            grid,
            [
                PsiKind(kind, diag.coeffs.alpha, spec.step_size, drift(0.0, xk), vol(0.0, xk))
                for xk in x
            ],
        )
        for kind in (EXPECTATION, GRADIENT)
    )
    assert 1e-13 < measured < 1e-8
    assert diag.imag_residual == pytest.approx(measured, rel=1e-2)
    # the same problem on a step too short for the grid aborts
    short = fbsde(
        horizon=0.01,
        steps=1,
        x_init=0.0,
        drift=drift,
        vol=vol,
        terminal=spec.terminal,
        driver=spec.driver,
    )
    with pytest.raises(SolveAborted, match="imaginary residual"):
        solve(short, grid)


def test_non_vectorized_terminal_is_rejected(small_grid):
    spec = brownian_bsde(
        horizon=0.5, steps=4, terminal=lambda x: 1.0, driver=_zero_driver
    )
    with pytest.raises(ValueError):
        solve(spec, small_grid)


def test_diagnostics_record_every_step(small_grid):
    spec = _reflected_toy(lambda t, x: np.abs(x))
    surface = solve(spec, small_grid, collect_diagnostics=True)
    diags = surface.diagnostics
    assert len(diags) == spec.steps
    # recorded backward, from the last step down to step 0
    assert [d.step_index for d in diags] == list(range(spec.steps - 1, -1, -1))
    for d in diags:
        assert 0.0 <= d.imag_residual <= 1e-8
        assert np.isfinite(d.coeffs.alpha)
        assert d.reflection_active_nodes >= 0
    assert any(d.reflection_active_nodes > 0 for d in diags)
    plain = solve(spec, small_grid)
    assert plain.diagnostics is None


def test_schemes_agree_on_smooth_problems(small_grid):
    # both explicit schemes discretize the same equation; on a smooth
    # problem with a mild driver their answers differ by O(step)
    kwargs = dict(
        horizon=0.5,
        steps=100,
        terminal=lambda x: np.log1p(np.exp(x)),
        driver=lambda t, x, y, z: -0.2 * y + 0.1 * z,
    )
    y1, _ = value_at_start(solve(brownian_bsde(scheme=EXPLICIT_I, **kwargs), small_grid))
    y2, _ = value_at_start(solve(brownian_bsde(scheme=EXPLICIT_II, **kwargs), small_grid))
    assert y1 == pytest.approx(y2, abs=5e-3)


def test_value_at_start_reads_center_node(small_grid):
    spec = brownian_bsde(
        horizon=0.5, steps=4, terminal=np.tanh, driver=_zero_driver
    )
    surface = solve(spec, small_grid)
    mid = small_grid.N // 2
    y0, z0 = value_at_start(surface)
    assert y0 == surface.u[0, mid]
    assert z0 == surface.udot[0, mid]


def _localvol_spec(scheme):
    return fbsde(
        horizon=0.2,
        steps=6,
        x_init=0.0,
        drift=lambda t, x: 0.1 * np.sin(x),
        vol=lambda t, x: 1.0 + 0.3 * np.tanh(x),
        terminal=lambda x: np.log1p(np.exp(x)),
        driver=lambda t, x, y, z: -0.1 * y + 0.05 * np.maximum(z - y, 0.0),
        scheme=scheme,
    )


@pytest.mark.parametrize("scheme", [EXPLICIT_I, EXPLICIT_II])
@pytest.mark.parametrize("style", [STYLE_EUROPEAN, STYLE_AMERICAN, "statedep"])
def test_start_row_solve_is_row_zero_of_the_full_solve(scheme, style):
    if style == "statedep":
        spec = _localvol_spec(scheme)
        grid = build_grid(0.0, 3.0, 6)
    else:
        market = MarketParams(K=95.0, R=0.03, div=0.035, style=style)
        spec = build_pricing_problem(market, 40, scheme)
        grid = build_grid(spec.x_init, 2.0, 8)
    full = solve(spec, grid, collect_diagnostics=True)
    start = solve(spec, grid, collect_diagnostics=True, full_surface=False)
    shape = (1, grid.N + 1)
    assert start.u.shape == start.udot.shape == shape
    assert np.array_equal(start.times, [0.0])
    assert np.array_equal(start.u[0], full.u[0])
    assert np.array_equal(start.udot[0], full.udot[0])
    if style == STYLE_AMERICAN:
        assert start.reflection.shape == shape
        assert np.count_nonzero(full.reflection[0]) > 0
        assert np.array_equal(start.reflection[0], full.reflection[0])
    else:
        assert start.reflection is None and full.reflection is None
    assert len(start.diagnostics) == spec.steps
    assert start.diagnostics == full.diagnostics
    assert value_at_start(start) == value_at_start(full)


def test_storage_cap_is_checked_before_allocating(small_grid, monkeypatch):
    reflected = _reflected_toy(lambda t, x: np.abs(x))  # 10 steps, 3 arrays
    row_bytes = (small_grid.N + 1) * 8 * 3
    monkeypatch.setattr(solver_module, "MAX_STORAGE_BYTES", 11 * row_bytes)
    solve(reflected, small_grid)
    solve(reflected, small_grid, full_surface=False)
    monkeypatch.setattr(solver_module, "MAX_STORAGE_BYTES", 11 * row_bytes - 1)
    with pytest.raises(ValueError, match=f"needs {11 * row_bytes} bytes"):
        solve(reflected, small_grid)
    solve(reflected, small_grid, full_surface=False)
    monkeypatch.setattr(solver_module, "MAX_STORAGE_BYTES", row_bytes - 1)
    with pytest.raises(ValueError, match="a 1-row surface at n=10, log2N=8"):
        solve(reflected, small_grid, full_surface=False)


def test_oversized_full_surface_fails_without_allocating():
    # 10**7 + 1 rows of two 4097-node arrays would be 655 GB
    grid = build_grid(0.0, 5.0, 12)
    spec = brownian_bsde(1.0, 10**7, terminal=np.tanh, driver=_zero_driver)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as exc_info:
            solve(spec, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    message = str(exc_info.value)
    assert "n=10000000, log2N=12" in message
    assert f"needs {(10**7 + 1) * 4097 * 16} bytes" in message
