"""Tests for the backward recursion on known solutions and edge cases."""

import dataclasses
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest

import convbsde.solver as solver_module
import convbsde.spectral as spectral_module
from convbsde import (
    EXPECTATION,
    EXPLICIT_I,
    EXPLICIT_II,
    GRADIENT,
    STYLE_AMERICAN,
    STYLE_EUROPEAN,
    MarketParams,
    SolveAborted,
    TransformCoefficients,
    apply_transform,
    brownian_bsde,
    build_grid,
    build_pricing_problem,
    fbsde,
    fit_coefficients,
    increment_cf,
    solve,
    sweep,
    value_at_start,
)
from references import currency_call_problem, dft


def _zero_driver(t, x, y, z):
    return np.zeros_like(x)


@pytest.fixture(scope="module")
def small_grid():
    return build_grid(0.0, 3.0, 8)


@pytest.mark.parametrize("scheme", [EXPLICIT_I, EXPLICIT_II])
def test_constant_terminal_is_reproduced_exactly(small_grid, scheme, every_row):
    # zero driver and constant payoff: every row of the value surface is
    # that constant and the diffusion-scaled gradient vanishes
    spec = brownian_bsde(
        horizon=1.0,
        steps=20,
        terminal=lambda x: np.full_like(x, 3.0),
        driver=_zero_driver,
        scheme=scheme,
    )
    u, udot, _ = every_row(spec, small_grid)
    assert np.max(np.abs(u - 3.0)) <= 1e-10
    assert np.max(np.abs(udot)) <= 1e-10
    y0, z0 = value_at_start(solve(spec, small_grid))
    assert y0 == pytest.approx(3.0, abs=1e-12)
    assert z0 == pytest.approx(0.0, abs=1e-12)


def test_linear_terminal_is_a_martingale(small_grid):
    # Brownian driver-free case with g(x) = x: u(t, x) = x, z = 1
    spec = brownian_bsde(
        horizon=0.5, steps=10, terminal=lambda x: x, driver=_zero_driver
    )
    surface = solve(spec, small_grid)
    xs = small_grid.space_nodes()
    n0 = small_grid.N // 8
    interior = slice(n0, small_grid.N - n0)
    assert np.max(np.abs(surface.u[interior] - xs[interior])) <= 1e-10
    assert np.max(np.abs(surface.udot[interior] - 1.0)) <= 1e-10


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
    fd = np.gradient(surface.u, small_grid.dx)
    n0 = small_grid.N // 8
    interior = slice(n0, small_grid.N - n0)
    rel = np.abs(surface.udot - fd)[interior] / (np.abs(fd[interior]) + 1e-6)
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


def test_reflection_keeps_solution_above_barrier(small_grid, every_row):
    # on every row t_0..t_n
    u, _, reflection = every_row(_reflected_toy(lambda t, x: np.abs(x)), small_grid)
    free, _, no_reflection = every_row(_reflected_toy(None), small_grid)
    xs = small_grid.space_nodes()
    assert no_reflection is None
    assert reflection.shape == u.shape
    assert np.min(reflection) >= 0.0
    # the negative driver pulls the free solution below the payoff, so
    # the constraint must actually bind somewhere
    assert np.count_nonzero(reflection) > 0
    assert np.min(u - np.abs(xs)[None, :]) >= -1e-12
    assert np.min(u - free) >= -1e-12
    # terminal row carries no reflection increment
    assert np.array_equal(reflection[-1], np.zeros(small_grid.N))


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


@pytest.mark.parametrize(
    "scheme, reason",
    [
        # scheme I feeds the driver output into the second fit, whose
        # finiteness check of its samples stops it
        (EXPLICIT_I, "samples must be finite"),
        (EXPLICIT_II, "non-finite solution values"),
    ],
    ids=[EXPLICIT_I, EXPLICIT_II],
)
def test_non_finite_driver_aborts_with_step_index(small_grid, scheme, reason):
    spec = brownian_bsde(
        horizon=0.5,
        steps=10,
        terminal=lambda x: x,
        driver=lambda t, x, y, z: np.full_like(x, np.nan),
        scheme=scheme,
    )
    with pytest.raises(SolveAborted) as exc_info:
        solve(spec, small_grid)
    err = exc_info.value
    assert isinstance(err, RuntimeError)
    assert err.step_index == 9
    assert err.reason == reason


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


def test_drift_non_finite_at_some_nodes_aborts_without_warnings(small_grid):
    # the per-node step refuses the NaN drift on entry and names it
    spec = fbsde(
        horizon=0.5,
        steps=10,
        x_init=0.0,
        drift=lambda t, x: np.where(x > 1.0, np.nan, 0.0) if t < 0.23 else 0.0,
        vol=lambda t, x: 0.25,
        terminal=np.tanh,
        driver=_zero_driver,
    )
    with warnings.catch_warnings(), pytest.raises(SolveAborted) as exc_info:
        warnings.simplefilter("error")
        solve(spec, small_grid)
    assert exc_info.value.step_index == 4
    assert "non-finite drift nan at node" in exc_info.value.reason


def test_slope_that_rounds_the_margin_away_aborts_without_warnings(small_grid):
    # boundary slopes of -1e20 and +1e20 used to give alpha = inf and
    # kappa = nan with RuntimeWarnings before the transform refused them
    spec = brownian_bsde(
        horizon=0.5, steps=10, terminal=lambda x: 1e20 * np.abs(x), driver=_zero_driver
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolveAborted) as exc_info:
            solve(spec, small_grid)
    assert exc_info.value.step_index == 9
    assert "rounds the slope margin 5 away" in exc_info.value.reason


@pytest.mark.parametrize(
    "scheme, vectors, rows", [(EXPLICIT_I, 2, 1), (EXPLICIT_II, 1, 2)]
)
def test_constant_path_takes_one_rfft_per_sample_vector(scheme, vectors, rows, small_grid, monkeypatch):
    # explicit2 convolves one vector for both kinds: one rfft and one
    # irfft of the stacked (2, N/2+1) products; explicit1 convolves two
    # vectors, one kind each.  No complex transform is taken.
    calls = Counter()
    for name in ("fft", "ifft", "rfft", "irfft"):

        def counted(a, *args, _name=name, _fn=getattr(np.fft, name), **kwargs):
            calls[_name, np.shape(a)] += 1
            return _fn(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    steps = 10
    spec = brownian_bsde(
        horizon=0.5, steps=steps, terminal=np.tanh, driver=_zero_driver, scheme=scheme
    )
    solve(spec, small_grid)
    N = small_grid.N
    assert calls == {
        ("rfft", (N,)): vectors * steps,
        ("irfft", (rows, N // 2 + 1)): vectors * steps,
    }


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
    # every node takes the shared-spectrum convolution, anything else
    # the per-node one; nothing is declared on the spec.  Each entry
    # point, looked up through the solver's module globals, counts the
    # convolutions (kinds) it computes.  The fit, the transform and the
    # adjustment are looked up there too, and every step calls each of
    # them: a stage inlined into the solver would count nothing.
    kernels = ("convolve_step", "convolve_step_statedep")
    stages = ("fit_coefficients", "apply_transform", "adjustment_H")
    calls = Counter()
    for name in kernels + stages:

        def counted(*args, _name=name, _fn=getattr(solver_module, name), **kwargs):
            calls[_name] += len(args[-1]) if _name in kernels else 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(solver_module, name, counted)
    spec = dataclasses.replace(_selection_spec(case), scheme=scheme)
    solve(spec, build_grid(spec.x_init, 2.0, 7))
    taken = "convolve_step" if fast else "convolve_step_statedep"
    assert {name: calls[name] for name in kernels} == {
        name: 2 * spec.steps if name == taken else 0 for name in kernels
    }
    for name in stages:
        assert calls[name] >= spec.steps, name


@pytest.mark.parametrize("case, builds", [("constant", 1), ("time-varying", 6)])
def test_constant_path_evaluates_the_increment_law_once_per_coefficient_pair(
    case, builds, monkeypatch
):
    # phi(nu) is built once per solve, and again only when the
    # per-step (drift, vol) changes
    calls = Counter()
    cf = spectral_module.increment_cf

    def counted(*args):
        calls["increment_cf"] += 1
        return cf(*args)

    monkeypatch.setattr(spectral_module, "increment_cf", counted)
    spec = _selection_spec(case)
    solve(spec, build_grid(spec.x_init, 2.0, 7))
    assert calls == {"increment_cf": builds}


def test_per_node_step_never_evaluates_increment_cf(monkeypatch):
    # each step computes every row's tilted law once, as arrays, and
    # takes the Nyquist term of the residual guard from them.  A row the
    # grid resolves takes the banded sum and every other row the
    # factored row formula; neither calls increment_cf either.
    calls = Counter()
    cf = spectral_module.increment_cf

    def counted(*args):
        calls["increment_cf"] += 1
        return cf(*args)

    monkeypatch.setattr(spectral_module, "increment_cf", counted)
    spec = fbsde(
        horizon=0.5,
        steps=6,
        x_init=0.0,
        drift=lambda t, x: 0.1,
        vol=lambda t, x: 0.13 + 0.06 * np.tanh(x),
        terminal=np.tanh,
        driver=_zero_driver,
    )
    assert spec.scheme == EXPLICIT_II
    grid = build_grid(spec.x_init, 2.0, 8)
    # r = vol*sqrt(dt)/dx runs from 1.3 to 3.5: the low rows are too
    # coarse for the band and the high ones too wide for N/4 nodes
    x = grid.space_nodes()
    r = spec.vol(0.0, x) * np.sqrt(spec.step_size) / grid.dx
    band = 2 * np.ceil(spectral_module.BAND_STDS * r + 0.5) + 1
    coarse = r < spectral_module.BAND_MIN_RESOLUTION
    wide = band >= grid.N / 4
    assert coarse.any() and wide.any() and not (coarse | wide).all()
    diag = solve(spec, grid).diagnostics
    assert calls == {}
    assert diag.imag_residual.max() > 0


def _local_vol_spec(scheme, slope):
    """A tanh local-vol problem whose vol rises by ``slope`` a unit of time.

    On 2^8 nodes over [-2, 2] with six steps over 0.5, r runs from 1.3
    to 3.5 at t = 0: some rows take the band, the others the formula.
    """
    return fbsde(
        horizon=0.5,
        steps=6,
        x_init=0.0,
        drift=lambda t, x: 0.03 - 0.5 * (0.13 + 0.06 * np.tanh(x) + slope * t) ** 2,
        vol=lambda t, x: 0.13 + 0.06 * np.tanh(x) + slope * t,
        terminal=np.tanh,
        driver=lambda t, x, y, z: -0.03 * y,
        scheme=scheme,
    )


@pytest.mark.parametrize("scheme", [EXPLICIT_I, EXPLICIT_II])
@pytest.mark.parametrize("slope, builds", [(0.0, 1), (0.1, 6)], ids=["homogeneous", "t-dependent"])
def test_node_tables_are_built_once_per_coefficient_pair(
    scheme, slope, builds, every_row, monkeypatch
):
    # a time-homogeneous local vol builds its per-node tables once per
    # solve, for both convolutions of every step; a vol that moves with
    # t builds them again at every step.  Either way every row equals a
    # solve that builds fresh tables for each convolution.
    spec = _local_vol_spec(scheme, slope)
    grid = build_grid(spec.x_init, 2.0, 8)
    built = Counter()

    class Counted(spectral_module.NodeLaws):
        def __init__(self, *args):
            built["laws"] += 1
            super().__init__(*args)

    with monkeypatch.context() as patch:
        patch.setattr(solver_module, "NodeLaws", Counted)
        kept = every_row(spec, grid)
    assert built == {"laws": builds}

    kernel = solver_module.convolve_step_statedep

    def fresh(eta, laws, alpha, kinds):
        laws = spectral_module.NodeLaws(laws.grid, laws.step, laws.drift, laws.vol)
        return kernel(eta, laws, alpha, kinds)

    monkeypatch.setattr(solver_module, "convolve_step_statedep", fresh)
    for cached, rebuilt in zip(kept, every_row(spec, grid)):
        assert np.array_equal(cached, rebuilt)


def _full_complex_row_residual(eta, grid, laws):
    """Measured imaginary residual of the state-dependent step.

    ``laws`` holds one (step, drift, vol, alpha, kind) per node.  Each
    row is summed over the full complex DFT on the centered frequency
    nodes nu_j = (j - N/2)*dnu, j = 0..N-1; the axis starts at -N*dnu/2,
    which the alternating signs account for.
    """
    N = grid.N
    signs = 1.0 - 2.0 * (np.arange(N) % 2)
    nu = grid.dnu * (np.arange(N) - N // 2)
    spectrum = dft(signs * eta)
    j = np.arange(N)
    rows = []
    for k, (step, drift, vol, alpha, kind) in enumerate(laws):
        psi = increment_cf(nu - 1j * alpha, step, drift, vol)
        if kind == GRADIENT:
            psi = vol * (alpha + 1j * nu) * psi
        rows.append(signs[k] * np.dot(np.exp((2j * np.pi * k / N) * j), psi * spectrum))
    theta = np.array(rows)
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
    diag = solve(spec, grid).diagnostics
    assert diag.alpha.shape == diag.imag_residual.shape == (1,)
    x = grid.space_nodes()
    coeffs = TransformCoefficients(diag.alpha[0], diag.beta[0], diag.kappa[0])
    eta, _ = apply_transform(spec.terminal(x), x, coeffs)
    measured = max(
        _full_complex_row_residual(
            eta,
            grid,
            [
                (spec.step_size, drift(0.0, xk), vol(0.0, xk), coeffs.alpha, kind)
                for xk in x
            ],
        )
        for kind in (EXPECTATION, GRADIENT)
    )
    assert 1e-13 < measured < 1e-8
    assert diag.imag_residual[0] == pytest.approx(measured, rel=1e-2)
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


def test_diagnostics_record_every_step(small_grid, every_row):
    spec = _reflected_toy(lambda t, x: np.abs(x))
    diags = solve(spec, small_grid).diagnostics
    _, _, reflection = every_row(spec, small_grid)
    for values in dataclasses.astuple(diags):
        assert values.shape == (spec.steps,)
    # entry i is the step that computes row t_i: the last one fits the
    # payoff, and each counts the nodes its row's reflection pushed up
    payoff = spec.terminal(small_grid.space_nodes(include_right=True))
    last = fit_coefficients(payoff, small_grid)
    assert (diags.alpha[-1], diags.beta[-1], diags.kappa[-1]) == (
        last.alpha, last.beta, last.kappa
    )
    assert np.array_equal(
        diags.reflection_active_nodes,
        np.count_nonzero(reflection[:-1], axis=1),
    )
    assert np.all((diags.imag_residual >= 0.0) & (diags.imag_residual <= 1e-8))
    assert np.all(np.isfinite(diags.alpha))
    assert np.any(diags.reflection_active_nodes > 0)


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


# (y0, z0) and the fitted alpha, beta and kappa at steps 0, 7, ..., 49
# of the default market with a 3.5% dividend, on 2^10 nodes with 50
# steps, as solved before the constant-coefficient step was last
# rewritten (numpy 2.4, Linux x86-64).
_PIN_STEPS = np.arange(0, 50, 7)
_PINNED = {
    (EXPLICIT_I, STYLE_EUROPEAN): (
        (6.615332880028291, 9.514860546330056),
        [
            0.07002280031040752, 0.0699957556507492, 0.06996583683052675,
            0.06993169557419956, 0.06989074124687368, 0.06983695556417645,
            0.06975024047962002, 0.06931208562049099,
        ],
        [
            12414.319963820652, 12604.009607651085, 12809.063746523858,
            13034.07230486758, 13286.611136691272, 13581.016160909086,
            13952.273544520325, 14620.292440377361,
        ],
        [
            141093.22280275266, 143211.69036718624, 145499.48652183585,
            148008.37735902917, 150824.9477950722, 154116.5931057222,
            158309.2742097597, 166709.0606510053,
        ],
    ),
    (EXPLICIT_I, STYLE_AMERICAN): (
        (6.85760099007166, 10.001452542536754),
        [
            0.07205243363632029, 0.07180854339555076, 0.07154800916164375,
            0.07126555879728438, 0.07095236277643598, 0.07059136116532462,
            0.0701394100701795, 0.06931208562049099,
        ],
        [
            14620.970445320942, 14620.981018759869, 14620.994613319821,
            14621.012973322719, 14621.03967678044, 14621.083698897623,
            14621.17817865722, 14620.292440377361,
        ],
        [
            158138.70922973237, 158882.2907044595, 159680.8326625226,
            160551.52211516403, 161523.11874139516, 162651.15210550124,
            164076.00939852322, 166709.0606510053,
        ],
    ),
    (EXPLICIT_II, STYLE_EUROPEAN): (
        (6.621536869158829, 9.501631395399272),
        [
            0.07007188270283887, 0.07004681327603308, 0.07001948087260348,
            0.06998888142445303, 0.06995311682679287, 0.06990784958555045,
            0.06983876619113752, 0.06929779510114283,
        ],
        [
            12430.833544863388, 12621.758002645709, 12828.355607989059,
            13055.385200607217, 13310.762494267337, 13609.65408267267,
            13989.98880305197, 14774.083868982085,
        ],
        [
            141141.44142573516, 143265.55301867993, 145560.16479848934,
            148077.65433213353, 150905.83826755563, 154215.16344295946,
            158442.95307910696, 168370.41091281222,
        ],
    ),
    (EXPLICIT_II, STYLE_AMERICAN): (
        (6.867139244815354, 9.991442750635542),
        [
            0.07205260040749425, 0.07181192695324211, 0.0715551901067594,
            0.07127743259075386, 0.07097046937979476, 0.07061887503636538,
            0.07018585577768396, 0.06929779510114283,
        ],
        [
            14630.556492244825, 14630.556492244825, 14630.556492244825,
            14630.556492244825, 14630.556492244825, 14630.556492244825,
            14630.556492244825, 14774.083868982085,
        ],
        [
            158246.0933824413, 158980.33573139462, 159767.650908475,
            160624.1993711974, 161576.6366999641, 162675.14996889778,
            164039.3600404723, 168370.41091281222,
        ],
    ),
}


@pytest.mark.parametrize("style", [STYLE_EUROPEAN, STYLE_AMERICAN])
@pytest.mark.parametrize("scheme", [EXPLICIT_I, EXPLICIT_II])
def test_constant_step_reproduces_its_pinned_values(scheme, style):
    # a rewrite of the constant-coefficient step may move these by
    # roundoff; a lost or sign-flipped term of the fit, the transform,
    # the multipliers or the adjustment moves them far more.  The pins
    # are of the call in currency, on a grid centred at ln(100)
    spec = currency_call_problem(MarketParams(style=style, div=0.035), 50, scheme)
    surface = solve(spec, build_grid(spec.x_init, 5.0, 10))
    start, *fitted = _PINNED[scheme, style]
    assert value_at_start(surface) == pytest.approx(start, rel=1e-9, abs=0.0)
    diagnostics = surface.diagnostics
    for got, want in zip((diagnostics.alpha, diagnostics.beta, diagnostics.kappa), fitted):
        want = np.array(want)
        assert np.max(np.abs(got[_PIN_STEPS] - want)) <= 1e-9 * np.max(np.abs(want))


def test_value_at_start_reads_center_node(small_grid):
    spec = brownian_bsde(
        horizon=0.5, steps=4, terminal=np.tanh, driver=_zero_driver
    )
    surface = solve(spec, small_grid)
    mid = small_grid.N // 2
    y0, z0 = value_at_start(surface)
    assert y0 == surface.u[mid]
    assert z0 == surface.udot[mid]


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


def _surface_case(scheme, style):
    """A (spec, grid) pair: a pricing problem or the local-vol toy."""
    if style == "statedep":
        return _localvol_spec(scheme), build_grid(0.0, 3.0, 6)
    market = MarketParams(K=95.0, R=0.03, div=0.035, style=style)
    spec = build_pricing_problem(market, 40, scheme)
    return spec, build_grid(spec.x_init, 2.0, 8)


@pytest.mark.parametrize("scheme", [EXPLICIT_I, EXPLICIT_II])
@pytest.mark.parametrize("style", [STYLE_EUROPEAN, STYLE_AMERICAN, "statedep"])
def test_every_surface_array_has_one_column_per_dft_node(scheme, style):
    # the solver computes x_0..x_{N-1} and stores nothing else: the
    # right endpoint x_N only feeds the periodization fit.  solve keeps
    # the start row, and sweep yields rows of the same shape.
    spec, grid = _surface_case(scheme, style)
    surface = solve(spec, grid)
    assert surface.u.shape == surface.udot.shape == (grid.N,)
    assert not hasattr(surface, "times")
    if style == STYLE_AMERICAN:
        assert surface.reflection.shape == (grid.N,)
    else:
        assert surface.reflection is None
    for i, u_i, udot_i, reflection_i, _ in sweep(spec, grid):
        assert u_i.shape == udot_i.shape == (grid.N,)
        if style == STYLE_AMERICAN:
            assert reflection_i.shape == (grid.N,)
        if i == spec.steps:
            x = grid.space_nodes()
            assert np.array_equal(u_i, spec.terminal(x))
            assert np.array_equal(udot_i, np.zeros(grid.N))


@pytest.mark.parametrize("scheme", [EXPLICIT_I, EXPLICIT_II])
@pytest.mark.parametrize("style", [STYLE_EUROPEAN, STYLE_AMERICAN, "statedep"])
def test_solve_keeps_row_zero_of_the_sweep(scheme, style, every_row):
    spec, grid = _surface_case(scheme, style)
    start = solve(spec, grid)
    u, udot, reflection = every_row(spec, grid)
    assert np.array_equal(start.u, u[0])
    assert np.array_equal(start.udot, udot[0])
    if style == STYLE_AMERICAN:
        assert np.count_nonzero(reflection[0]) > 0
        assert np.array_equal(start.reflection, reflection[0])
    else:
        assert start.reflection is None and reflection is None
    for kept in dataclasses.astuple(start.diagnostics):
        assert kept.shape == (spec.steps,)
    mid = grid.N // 2
    assert value_at_start(start) == (u[0, mid], udot[0, mid])


@pytest.mark.parametrize("scheme", [EXPLICIT_I, EXPLICIT_II])
@pytest.mark.parametrize("style", [STYLE_EUROPEAN, STYLE_AMERICAN, "statedep"])
def test_sweep_yields_the_rows_backward_in_time(scheme, style):
    # row i carries the entries the solve records for step i
    spec, grid = _surface_case(scheme, style)
    diagnostics = dataclasses.astuple(solve(spec, grid).diagnostics)
    order = []
    for i, _, _, reflection_i, step in sweep(spec, grid):
        order.append(i)
        if style != STYLE_AMERICAN:
            assert reflection_i is None
        if i == spec.steps:
            assert step is None
        else:
            assert step == tuple(np.asarray(field)[i] for field in diagnostics)
    assert order == list(range(spec.steps, -1, -1))


@pytest.mark.parametrize("scheme", [EXPLICIT_I, EXPLICIT_II])
@pytest.mark.parametrize("horizon, steps", [(1.0, 10), (0.7, 37), (5.0, 999), (1e-4, 3)])
def test_sweep_steps_at_the_mesh_times(horizon, steps, scheme):
    # t_i = i*dt is formed in the loop; it must be the mesh point itself
    seen = []

    def driver(t, x, y, z):
        seen.append(t)
        return -0.1 * y

    spec = brownian_bsde(horizon, steps, terminal=np.tanh, driver=driver, scheme=scheme)
    # dx = sqrt(dt)/2 resolves every step's kernel
    grid = build_grid(0.0, 64.0 * np.sqrt(spec.step_size), 8)
    for _ in sweep(spec, grid):
        pass
    assert np.array_equal(np.array(seen[::-1]), spec.times()[:steps])


def test_sweep_checks_its_inputs_when_called(small_grid):
    # a generator would defer the check to the first row
    spec = brownian_bsde(1.0, 4, terminal=np.tanh, driver=_zero_driver)
    with pytest.raises(ValueError, match="grid.center must equal spec.x_init"):
        sweep(spec, build_grid(1.0, 5.0, 8))


def test_sweep_holds_nothing_of_length_n():
    # 10**7 steps of dt = 0.1 on 2^6 nodes: the first rows need O(N)
    # memory, where a mesh-time array alone would be 80 MB
    spec = brownian_bsde(1e6, 10**7, terminal=np.tanh, driver=_zero_driver)
    grid = build_grid(0.0, 2.0, 6)
    tracemalloc.start()
    try:
        rows = sweep(spec, grid)
        taken = [next(rows)[0] for _ in range(3)]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert taken == [10**7, 10**7 - 1, 10**7 - 2]
    assert peak < 2**20


def test_storage_cap_is_checked_before_allocating(small_grid, monkeypatch):
    # a solve holds its start row and 40 bytes a step of StepDiagnostics
    reflected = _reflected_toy(lambda t, x: np.abs(x))  # 10 steps, 3 arrays
    row_bytes = small_grid.N * 8 * 3
    needed = row_bytes + 10 * 40
    monkeypatch.setattr(solver_module, "MAX_STORAGE_BYTES", needed)
    solve(reflected, small_grid)
    # room for the start row but not for the record
    monkeypatch.setattr(solver_module, "MAX_STORAGE_BYTES", needed - 1)
    with pytest.raises(ValueError) as info:
        solve(reflected, small_grid)
    assert str(info.value) == (
        f"a solve at n=10, log2N=8 (start row {row_bytes} bytes, step record 400 bytes) "
        f"needs {needed} bytes, above the {needed - 1}-byte storage cap"
    )


def test_oversized_step_record_fails_without_allocating():
    # 10**8 steps of StepDiagnostics would be 4 GB, whatever the grid
    grid = build_grid(0.0, 5.0, 12)
    spec = brownian_bsde(1.0, 10**8, terminal=np.tanh, driver=_zero_driver)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as exc_info:
            solve(spec, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    message = str(exc_info.value)
    assert "n=100000000, log2N=12" in message
    assert f"step record {10**8 * 40} bytes" in message
    assert f"needs {4096 * 16 + 10**8 * 40} bytes" in message


@pytest.mark.parametrize("scheme", [EXPLICIT_I, EXPLICIT_II])
@pytest.mark.parametrize(
    "c, tol", [(1e-12, 1e-9), (1e-10, 1e-9), (1e-8, 1e-9), (1e-6, 1e-7), (1e-4, 1e-7)]
)
def test_nearly_tied_boundary_slopes_keep_the_solution_accurate(c, tol, scheme):
    # terminal x + c*x^2 of a driver-free Brownian BSDE has the exact
    # solution x + c*(x^2 + T - t) and a boundary slope gap of 4*c*5.
    # Fitted by alpha/kappa, a gap of 2e-11 gives kappa near 2.5e13 and
    # loses 9e-4 to cancellation; the linear-trend branch keeps the
    # error at 4e-14.  c = 1e-6 and 1e-4 sit near and above the switch.
    horizon = 1.0
    spec = brownian_bsde(
        horizon, 50, terminal=lambda x: x + c * x * x, driver=_zero_driver, scheme=scheme
    )
    grid = build_grid(0.0, 5.0, 10)
    y0 = solve(spec, grid).u
    x = grid.space_nodes()
    exact = x + c * (x * x + horizon)
    middle = slice(grid.N // 4, 3 * grid.N // 4)
    assert np.max(np.abs(y0 - exact)[middle]) <= tol
