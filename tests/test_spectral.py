"""Tests for the DFT pair, increment multipliers and convolution steps."""

import contextlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import convbsde.spectral as spectral_module
from convbsde import (
    EXPECTATION,
    GRADIENT,
    IMAG_RESIDUAL_TOLERANCE,
    ImaginaryResidualError,
    IncrementSpectrum,
    NodeLaws,
    apply_transform,
    build_grid,
    convolve_step,
    convolve_step_statedep,
    fit_coefficients,
    increment_cf,
)
from references import dense_quadrature_step, dft, idft

R_STAR = spectral_module.BAND_MIN_RESOLUTION


def test_dft_normalization():
    # forward transform carries the 1/N factor
    v = np.ones(8)
    spectrum = dft(v)
    assert spectrum[0] == pytest.approx(1.0, abs=1e-15)
    assert np.max(np.abs(spectrum[1:])) <= 1e-15


@given(
    log2N=st.integers(2, 9),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=40, deadline=None)
def test_dft_round_trip(log2N, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(2**log2N)
    assert np.max(np.abs(idft(dft(v)) - v)) <= 1e-12
    assert np.max(np.abs(dft(idft(v)) - v)) <= 1e-12


def test_increment_cf_values():
    # at nu = 0 the multiplier is exactly 1
    assert increment_cf(0.0, step=0.5, drift=0.3, vol=0.7) == pytest.approx(1.0)
    # purely imaginary argument turns the Gaussian decay into growth:
    # exp(step * vol^2 / 2) = e at step=2, vol=1
    assert increment_cf(-1.0j, step=2.0, drift=0.0, vol=1.0) == pytest.approx(
        2.718281828459045, rel=1e-14
    )
    # conjugate symmetry and unit modulus bound on the real axis
    nu = np.linspace(-40.0, 40.0, 101)
    phi = increment_cf(nu, step=0.1, drift=0.2, vol=0.5)
    assert np.max(np.abs(phi - np.conj(increment_cf(-nu, 0.1, 0.2, 0.5)))) <= 1e-14
    assert np.max(np.abs(phi)) <= 1.0 + 1e-15


def test_increment_cf_rejects_bad_parameters():
    with pytest.raises(ValueError):
        increment_cf(0.0, step=0.0, drift=0.0, vol=1.0)
    with pytest.raises(ValueError):
        increment_cf(0.0, step=-1.0, drift=0.0, vol=1.0)
    with pytest.raises(ValueError):
        increment_cf(0.0, step=1.0, drift=0.0, vol=0.0)


def _psi(nu, step, drift, vol, alpha, kind):
    """The multiplier of one kind, written out from increment_cf."""
    phi = increment_cf(nu - 1j * alpha, step, drift, vol)
    return phi if kind == EXPECTATION else vol * (alpha + 1j * nu) * phi


def _constant_step(eta, grid, step, drift, vol, alpha, kinds):
    """The constant-coefficient kernel with the per-node kernel's inputs."""
    return convolve_step(eta, IncrementSpectrum(grid, step, drift, vol), alpha, kinds)


def _node_step(eta, grid, step, drift, vol, alpha, kinds):
    """The per-node kernel with the constant-coefficient kernel's inputs."""
    return convolve_step_statedep(eta, NodeLaws(grid, step, drift, vol), alpha, kinds)


def _one_kind(eta, grid, step, drift, vol, alpha, kind):
    """(theta, residual) of a single-kind constant-coefficient step."""
    (result,) = _constant_step(eta, grid, step, drift, vol, alpha, (kind,))
    return result


def test_psi_values_compose_increment_cf():
    g = build_grid(0.0, 2.0, 6)
    nu = g.dnu * (np.arange(g.N) - g.N // 2)
    alpha, step, drift, vol = 0.3, 0.05, 0.1, 0.8
    shifted = increment_cf(nu - 1j * alpha, step, drift, vol)
    psi_e, psi_g = spectral_module._kind_rows(
        shifted, vol * (1j * nu), vol * alpha, (EXPECTATION, GRADIENT)
    )
    assert np.max(np.abs(psi_e - shifted)) <= 1e-14
    assert np.max(np.abs(psi_g - vol * (alpha + 1j * nu) * shifted)) <= 1e-12


def _full_complex_convolution(eta, grid, step, drift, vol, alpha, kind):
    """Reference: complex DFT pair over the centered frequency nodes
    nu_j = (j - N/2)*dnu, j = 0..N-1.

    The axis starts at -N*dnu/2, which the alternating signs account for.
    Returns the real part and the measured relative imaginary residual.
    """
    signs = 1.0 - 2.0 * (np.arange(grid.N) % 2)
    nu = grid.dnu * (np.arange(grid.N) - grid.N // 2)
    psi = _psi(nu, step, drift, vol, alpha, kind)
    theta_c = signs * idft(psi * dft(signs * eta))
    max_re = max(float(np.max(np.abs(theta_c.real))), 1e-300)
    return theta_c.real, float(np.max(np.abs(theta_c.imag))) / max_re


@given(
    log2N=st.integers(2, 10),
    alpha=st.floats(-1.0, 1.0),
    drift=st.floats(-1.0, 1.0),
    vol=st.floats(0.05, 2.0),
    kind=st.sampled_from([EXPECTATION, GRADIENT]),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=60, deadline=None)
def test_real_fft_step_matches_full_complex_formula(log2N, alpha, drift, vol, kind, seed):
    # the rfft formula keeps the real part of the full complex one, and
    # its closed-form Nyquist residual is the imaginary part it drops
    g = build_grid(0.0, 2.0, log2N)
    eta = np.random.default_rng(seed).standard_normal(g.N)
    reference, measured = _full_complex_convolution(eta, g, 0.01, drift, vol, alpha, kind)
    try:
        theta, residual = _one_kind(eta, g, 0.01, drift, vol, alpha, kind)
    except ImaginaryResidualError as exc:
        residual = exc.residual
        assert measured > IMAG_RESIDUAL_TOLERANCE * (1 - 1e-2)
    else:
        scale = np.max(np.abs(reference))
        assert np.max(np.abs(theta - reference)) <= 1e-12 * scale
    if measured > 1e-13:
        assert residual == pytest.approx(measured, rel=1e-2)


_STEP_LAWS = dict(
    log2N=st.integers(2, 12),
    half_width=st.floats(0.5, 14.5),
    step=st.floats(1e-4, 1.0),
    drift=st.floats(-1.0, 1.0),
    vol=st.floats(0.1, 2.0),
    alpha=st.floats(-3.0, 3.0),
)


@given(**_STEP_LAWS)
@example(log2N=12, half_width=5.0, step=1e-3, drift=0.03, vol=0.2, alpha=0.0)
@example(log2N=12, half_width=5.0, step=1e-3, drift=0.03, vol=0.2, alpha=-1.5)
@example(log2N=2, half_width=1.0, step=0.5, drift=-0.4, vol=1.5, alpha=2.5)
@settings(max_examples=80, deadline=None)
def test_cached_spectrum_factors_the_dampened_multiplier(
    log2N, half_width, step, drift, vol, alpha
):
    # phi(nu) times the scalar and the phase table is phi(nu - i*alpha),
    # and its gradient row is vol*(alpha + i*nu) times that
    g = build_grid(0.0, half_width, log2N)
    nu = g.frequencies()
    rows = IncrementSpectrum(g, step, drift, vol).multipliers(alpha, (EXPECTATION, GRADIENT))
    for row, kind in zip(rows, (EXPECTATION, GRADIENT)):
        direct = _psi(nu, step, drift, vol, alpha, kind)
        assert np.max(np.abs(row - direct)) <= 1e-13 * np.max(np.abs(direct))


def _standalone(kernel, eta, grid, step, drift, vol, alpha, kind):
    """A single-kind call's (theta, residual), or the residual it raised."""
    try:
        (result,) = kernel(eta, grid, step, drift, vol, alpha, (kind,))
        return result
    except ImaginaryResidualError as exc:
        return exc.residual


@pytest.mark.parametrize(
    "kernel", [_constant_step, _node_step], ids=["constant", "per-node"]
)
@given(
    **_STEP_LAWS,
    kinds=st.sampled_from(
        [(EXPECTATION, GRADIENT), (GRADIENT, EXPECTATION), (EXPECTATION,), (GRADIENT,)]
    ),
    seed=st.integers(0, 2**31 - 1),
)
@example(log2N=12, half_width=5.0, step=1e-3, drift=0.03, vol=0.2, alpha=0.0,
         kinds=(EXPECTATION, GRADIENT), seed=1)
@example(log2N=12, half_width=5.0, step=1e-3, drift=0.03, vol=0.2, alpha=-0.8,
         kinds=(EXPECTATION, GRADIENT), seed=2)
@settings(max_examples=80, deadline=None)
def test_stacked_rows_match_standalone_convolutions(
    kernel, log2N, half_width, step, drift, vol, alpha, kinds, seed
):
    # one call for all kinds gives each kind the theta and the residual
    # of its own single-kind call, or raises the first residual a
    # single-kind call raises.  The per-node kernel costs O(N^2), so it
    # stops at 2^10 nodes.
    if kernel is _node_step:
        log2N = min(log2N, 10)
    g = build_grid(0.0, half_width, log2N)
    x = g.space_nodes()
    rng = np.random.default_rng(seed)
    eta = np.exp(-(x**2)) * (1.0 + 0.1 * rng.standard_normal(g.N))
    law = (step, drift, vol, alpha)
    expected = [_standalone(kernel, eta, g, *law, kind) for kind in kinds]
    raised = [r for r in expected if not isinstance(r, tuple)]
    if raised:
        with pytest.raises(ImaginaryResidualError) as info:
            kernel(eta, g, *law, kinds)
        assert info.value.residual == pytest.approx(raised[0], rel=1e-13)
        return
    for (theta, residual), (ref, ref_residual) in zip(kernel(eta, g, *law, kinds), expected):
        assert np.max(np.abs(theta - ref)) <= 1e-13 * np.max(np.abs(ref))
        assert residual == pytest.approx(ref_residual, rel=1e-13, abs=1e-300)


def test_increment_spectrum_takes_finite_scalar_coefficients():
    g = build_grid(0.0, 1.0, 5)
    with pytest.raises(ValueError, match="scalars"):
        IncrementSpectrum(g, 0.1, np.zeros(g.N), 1.0)
    with pytest.raises(ValueError, match="non-finite"):
        IncrementSpectrum(g, 0.1, np.nan, 1.0)
    with pytest.raises(ValueError, match="unknown psi tag"):
        _constant_step(np.zeros(g.N), g, 0.1, 0.0, 1.0, 0.1, ("curvature",))


def test_both_laws_hold_the_forward_mean_bit_for_bit():
    # the adjustment reads x_k + drift*step off the law, as the step forms it
    g = build_grid(math.log(100.0), 1.7, 6)
    step = 0.013
    x = g.space_nodes()
    spectrum = IncrementSpectrum(g, step, -0.37, 0.2)
    assert np.array_equal(spectrum.forward_mean, x + -0.37 * step)
    drift = 0.05 - 0.3 * np.sin(3.0 * x)
    for a in (drift, 0.41):
        laws = NodeLaws(g, step, a, 0.2 + 0.05 * np.tanh(x - x[g.N // 2]))
        assert np.array_equal(laws.forward_mean, x + a * step)


@pytest.mark.parametrize("alpha", [0.0, 0.3])
@pytest.mark.parametrize("kind", [EXPECTATION, GRADIENT])
def test_convolution_matches_dense_quadrature(alpha, kind):
    # same smooth input through the spectral path and through direct
    # real-space quadrature against the tilted Gaussian kernel
    g = build_grid(0.0, 4.0, 8)
    x = g.space_nodes()
    eta = np.exp(-(x**2))
    law = dict(step=0.05, drift=0.1, vol=1.0, alpha=alpha, kind=kind)
    theta, _ = _one_kind(eta, g, **law)
    dense = dense_quadrature_step(lambda y: np.exp(-(y**2)), g, **law, quad_points=10 * g.N)
    n0 = g.N // 8
    assert np.max(np.abs(theta - dense)[n0:-n0]) <= 1e-10


def test_convolution_is_linear():
    g = build_grid(0.0, 3.0, 7)
    x = g.space_nodes()
    law = (0.1, 0.0, 1.0, 0.2, EXPECTATION)
    w1 = np.exp(-(x**2))
    w2 = np.cos(x) * np.exp(-np.abs(x))
    combined, _ = _one_kind(1.7 * w1 - 0.4 * w2, g, *law)
    parts = 1.7 * _one_kind(w1, g, *law)[0] - 0.4 * _one_kind(w2, g, *law)[0]
    assert np.max(np.abs(combined - parts)) <= 1e-10


def test_convolution_of_zero_is_zero():
    g = build_grid(0.0, 1.0, 5)
    theta, residual = _one_kind(np.zeros(g.N), g, 0.1, 0.0, 1.0, 0.1, EXPECTATION)
    assert np.max(np.abs(theta)) == 0.0
    assert residual == 0.0


def test_convolve_step_reports_small_residual_on_smooth_input():
    g = build_grid(0.0, 4.0, 8)
    x = g.space_nodes()
    theta, residual = _one_kind(np.exp(-(x**2)), g, 0.05, 0.0, 1.0, 0.1, EXPECTATION)
    assert theta.shape == (g.N,)
    assert 0.0 <= residual <= 1e-12


def test_imaginary_residual_raises_on_unresolvable_kernel():
    # alternating input concentrates all energy at the unpaired Nyquist
    # frequency; with a nearly flat multiplier the gradient factor
    # i*nu leaves a large imaginary part that must be flagged, not
    # silently truncated
    g = build_grid(0.0, 5.0, 6)
    signs = 1.0 - 2.0 * (np.arange(g.N) % 2)
    with pytest.raises(ImaginaryResidualError) as exc_info:
        _one_kind(signs, g, 1e-4, 0.0, 1.0, 0.0, GRADIENT)
    err = exc_info.value
    assert isinstance(err, ArithmeticError)
    assert err.tolerance == IMAG_RESIDUAL_TOLERANCE == 1e-8
    assert err.residual > err.tolerance


def test_statedep_matches_fast_path_for_constant_coefficients():
    g = build_grid(1.0, 2.0, 7)
    x = g.space_nodes(include_right=True)
    eta = np.maximum(np.exp(x[:-1]) - 2.0, 0.0)
    fast, _ = _one_kind(eta, g, 0.02, 0.05, 0.8, 0.15, EXPECTATION)
    ((slow, _),) = _node_step(eta, g, 0.02, 0.05, 0.8, 0.15, (EXPECTATION,))
    ((per_node, _),) = _node_step(
        eta, g, 0.02, np.full(g.N, 0.05), np.full(g.N, 0.8), 0.15, (EXPECTATION,)
    )
    assert np.max(np.abs(fast - slow)) <= 1e-10
    assert np.array_equal(per_node, slow)


def test_statedep_rows_follow_their_own_multiplier():
    # row k of the state-dependent result must equal row k of a constant
    # convolution run with that node's multiplier
    g = build_grid(0.0, 2.0, 5)
    x = g.space_nodes()
    eta = np.exp(-(x**2)) + 0.3 * x
    drifts = 0.1 + 0.05 * np.tanh(x)
    ((mixed, _),) = _node_step(eta, g, 0.05, drifts, 1.0, 0.1, (EXPECTATION,))
    for k in (0, 7, 16, 25, 31):
        uniform, _ = _one_kind(eta, g, 0.05, drifts[k], 1.0, 0.1, EXPECTATION)
        assert mixed[k] == pytest.approx(uniform[k], abs=1e-11)


def test_convolve_step_validates_lengths():
    g = build_grid(0.0, 1.0, 5)
    with pytest.raises(ValueError):
        _one_kind(np.zeros(g.N - 1), g, 0.1, 0.0, 1.0, 0.1, EXPECTATION)
    with pytest.raises(ValueError, match="length N"):
        NodeLaws(g, 0.1, np.zeros(g.N - 1), 1.0)
    with pytest.raises(ValueError, match="length N"):
        convolve_step_statedep(np.zeros(g.N - 1), NodeLaws(g, 0.1, 0.0, 1.0), 0.1, (EXPECTATION,))


def test_statedep_names_the_first_non_finite_coefficient_node():
    g = build_grid(0.0, 1.0, 5)
    vol = np.ones(g.N)
    vol[[5, 9]] = np.inf, np.nan
    with pytest.raises(ValueError, match="non-finite vol inf at node 5"):
        NodeLaws(g, 0.1, 0.0, vol)
    with pytest.raises(ValueError, match="non-finite drift nan at node 0"):
        NodeLaws(g, 0.1, np.nan, 1.0)


@pytest.mark.parametrize("bad", [0.0, -0.2])
def test_statedep_names_the_first_non_positive_vol_node(bad):
    # refused before routing: the factored row formula reads only vol^2
    g = build_grid(0.0, 1.0, 5)
    vol = np.ones(g.N)
    vol[[17, 20]] = bad, -1.0
    with pytest.raises(ValueError, match=f"non-positive vol {bad} at node 17"):
        NodeLaws(g, 0.1, 0.0, vol)
    with pytest.raises(ValueError, match=f"non-positive vol {bad} at node 0"):
        NodeLaws(g, 0.1, 0.0, bad)


@pytest.mark.parametrize("step", [0.0, -0.1, np.nan])
def test_statedep_refuses_a_step_that_is_not_positive(step):
    # the per-row laws are built from step directly, so they check it
    # themselves before any table is built
    g = build_grid(0.0, 1.0, 5)
    with pytest.raises(ValueError, match="step must be positive"):
        NodeLaws(g, step, 0.0, 1.0)


def test_psi_rejects_unknown_tag():
    g = build_grid(0.0, 1.0, 5)
    with pytest.raises(ValueError, match="unknown psi tag"):
        _node_step(np.zeros(g.N), g, 0.1, 0.0, 1.0, 0.1, ("curvature",))


def test_band_resolution_is_where_the_dropped_tail_meets_the_tolerance():
    # a row's multiplier at the Nyquist frequency, relative to nu = 0,
    # is exp(-pi^2 r^2 / 2); r* is where that equals the tolerance
    assert R_STAR == pytest.approx(1.932, abs=5e-4)
    g = build_grid(0.0, 5.0, 9)
    step = 0.05
    vol = R_STAR * g.dx / math.sqrt(step)
    nyquist = g.frequencies()[-1]
    tail = abs(increment_cf(nyquist, step, 0.0, vol))
    assert tail == pytest.approx(IMAG_RESIDUAL_TOLERANCE, rel=1e-9)
    assert math.exp(-(spectral_module.BAND_STDS**2) / 2) < 1e-21


@contextlib.contextmanager
def _routes():
    """Record the rows the per-node kernel sends to each route."""
    seen = {"band": set(), "formula": set()}
    with pytest.MonkeyPatch.context() as patch:
        for route, name in (("band", "_banded_sum"), ("formula", "_row_formula")):

            def spy(thetas, rows, *args, _route=route, _fn=getattr(spectral_module, name)):
                seen[_route].update(rows.tolist())
                return _fn(thetas, rows, *args)

            patch.setattr(spectral_module, name, spy)
        yield seen


def _aliasing(eta, grid, step, drift, vol, alpha, kind):
    """Bound on how far the banded sum may sit from the real-FFT formula.

    The DFT of the sampled kernel is psi summed over the shifts
    nu + 2*pi*p/dx, where the formula keeps p = 0 alone; the first
    aliases p = +-1, acting on |rfft(eta)|, bound the difference.
    """
    nu = grid.frequencies()
    pairs = np.full(nu.size, 2.0)
    pairs[[0, -1]] = 1.0
    shift = 2.0 * np.pi / grid.dx
    alias = sum(
        np.abs(_psi(nu + p * shift, step, drift, vol, alpha, kind)) for p in (-1.0, 1.0)
    )
    return float(pairs * alias @ np.abs(np.fft.rfft(eta))) / grid.N


def _call_payoff(y, strike):
    return np.maximum(np.exp(y) - strike, 0.0)


def _kinked_payoff(grid, strike):
    """A call payoff through fit_coefficients and apply_transform: (eta, coeffs)."""
    x = grid.space_nodes(include_right=True)
    samples = _call_payoff(x, strike)
    coeffs = fit_coefficients(samples, grid)
    eta, _ = apply_transform(samples[:-1], x[:-1], coeffs)
    return eta, coeffs


@given(
    log2N=st.integers(8, 11),
    half_width=st.floats(0.5, 10.0),
    above=st.floats(0.0, 1.0),
    vol=st.floats(0.05, 2.0),
    drift=st.floats(-1.0, 1.0),
    alpha=st.floats(-3.0, 3.0),
    kinked=st.booleans(),
    moneyness=st.floats(-0.5, 0.5),
)
@example(log2N=9, half_width=5.0, above=0.0, vol=0.2, drift=0.01, alpha=0.0,
         kinked=True, moneyness=0.0)
@example(log2N=9, half_width=1.6, above=0.0, vol=0.13, drift=0.4, alpha=0.0,
         kinked=True, moneyness=0.1)
@settings(max_examples=60, deadline=None)
def test_band_matches_the_row_formula_on_resolved_rows(
    log2N, half_width, above, vol, drift, alpha, kinked, moneyness
):
    # every row from r* up to the widest band under N/4 nodes takes the
    # band, which agrees with the real-FFT formula to 1e-12 of the
    # output plus the aliased multiplier the sampled kernel carries.
    # That term is below 3e-13 for smooth input and for the
    # expectation; a kink's gradient at r* takes it to about 2e-11.
    g = build_grid(0.0, half_width, log2N)
    widest = ((g.N / 4 - 1) / 2 - 1.5) / spectral_module.BAND_STDS
    r = R_STAR * (1 + 1e-9) + above * (widest - R_STAR) * (1 - 1e-9)
    step = (r * g.dx / vol) ** 2
    if kinked:
        eta, coeffs = _kinked_payoff(g, math.exp(moneyness * half_width))
        alpha = coeffs.alpha
    else:
        x = g.space_nodes()
        eta = np.exp(-((5.0 * x / half_width) ** 2)) * np.cos(x)
    law = (step, drift, vol, alpha)
    kinds = (EXPECTATION, GRADIENT)
    with _routes() as routes:
        banded = _node_step(eta, g, *law, kinds)
    assert routes == {"band": set(range(g.N)), "formula": set()}
    for (theta, _), (ref, _), kind in zip(banded, _constant_step(eta, g, *law, kinds), kinds):
        bound = 1e-12 * np.max(np.abs(ref)) + _aliasing(eta, g, *law, kind)
        assert np.max(np.abs(theta - ref)) <= bound


def _row_by_row(eta, grid, step, drift, vol, alpha, kind):
    """theta_k = (1/N) sum_m c_m Re(exp(2*pi*i*k*m/N) psi_k(nu_m) F_m), row by row.

    psi_k is the direct multiplier ``_psi`` of node k's law, with the
    twiddle's phase reduced mod N before the exponential.
    """
    N = grid.N
    nu = grid.frequencies()
    pairs = np.full(nu.size, 2.0)
    pairs[[0, -1]] = 1.0
    weighted = pairs * np.fft.rfft(eta) / N
    m = np.arange(nu.size)
    theta = np.empty(N)
    for k in range(N):
        twiddle = np.exp((2j * np.pi / N) * ((k * m) % N))
        psi = _psi(nu, step, drift[k], vol[k], alpha, kind)
        theta[k] = (twiddle * psi * weighted).real.sum()
    return theta


@given(
    log2N=st.integers(6, 11),
    half_width=st.floats(0.5, 10.0),
    low=st.floats(0.0, 1.0),
    high=st.floats(0.0, 1.0),
    wide_at=st.floats(0.0, 1.0),
    step=st.floats(1e-3, 0.5),
    drift=st.floats(-1.0, 1.0),
    alpha=st.floats(-3.0, 3.0),
    kinked=st.booleans(),
    moneyness=st.floats(-0.5, 0.5),
)
@example(log2N=11, half_width=10.0, low=0.0, high=1.0, wide_at=0.5, step=0.5,
         drift=1.0, alpha=3.0, kinked=True, moneyness=0.0)
@settings(max_examples=30, deadline=None)
def test_row_formula_matches_the_direct_multiplier_row_by_row(
    log2N, half_width, low, high, wide_at, step, drift, alpha, kinked, moneyness
):
    # rows from r = 0.5 up to r* are too coarse for the band, and one
    # row whose band is wider than N/4 nodes is too wide for it: the
    # factored formula must reproduce the direct multiplier on each row.
    # A kink's Nyquist term at r = 0.5 rightly trips the residual guard,
    # which reads only that bin, so the guard is lifted to compare rows.
    g = build_grid(0.0, half_width, log2N)
    x = g.space_nodes()
    below = R_STAR * (1 - 1e-9) - 0.5
    r = 0.5 + below * (low + (high - low) * (1.0 + np.tanh(x / half_width * 3.0)) / 2.0)
    wide = int(wide_at * (g.N - 1))
    r[wide] = g.N / (8 * spectral_module.BAND_STDS) + 1.0
    assert 2 * math.ceil(spectral_module.BAND_STDS * r[wide] + 0.5) + 1 >= g.N / 4
    vol = r * g.dx / math.sqrt(step)
    drifts = drift * np.cos(np.arange(g.N))
    if kinked:
        eta, coeffs = _kinked_payoff(g, math.exp(moneyness * half_width))
        alpha = coeffs.alpha
    else:
        eta = np.exp(-((5.0 * x / half_width) ** 2)) * np.cos(x)
    kinds = (EXPECTATION, GRADIENT)
    with _routes() as routes, pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectral_module, "IMAG_RESIDUAL_TOLERANCE", math.inf)
        results = _node_step(eta, g, step, drifts, vol, alpha, kinds)
    assert routes == {"band": set(), "formula": set(range(g.N))}
    for (theta, _), kind in zip(results, kinds):
        ref = _row_by_row(eta, g, step, drifts, vol, alpha, kind)
        assert np.max(np.abs(theta - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_rows_just_below_the_band_resolution_keep_the_row_formula():
    g = build_grid(0.0, 5.0, 9)
    eta, coeffs = _kinked_payoff(g, 1.0)
    step = 0.05
    for r, route in ((R_STAR * (1 - 1e-9), "formula"), (R_STAR * (1 + 1e-9), "band")):
        vol = r * g.dx / math.sqrt(step)
        with _routes() as routes:
            _node_step(eta, g, step, 0.0, vol, coeffs.alpha, (EXPECTATION,))
        assert routes[route] == set(range(g.N))


@pytest.mark.parametrize(
    "low, high, largest",
    [(0.15, 0.45, "formula"), (0.35, 0.6, "band")],
    ids=["coarse-and-banded", "banded-and-wide"],
)
def test_mixed_resolution_rows_follow_their_own_law(low, high, largest):
    # on 2^8 nodes over [-2, 2] at step 0.01, r = 6.4*vol: rows below
    # vol 0.302 are too coarse for the band, rows above 0.476 too wide
    # for N/4 nodes.  Each row equals the constant-coefficient step run
    # with its own law, and each kind's residual is the largest per-row
    # Nyquist term over both routes.
    g = build_grid(0.0, 2.0, 8)
    step = 0.01
    x = g.space_nodes(include_right=True)
    vol = low + (high - low) * (1.0 + np.tanh(x[:-1] / 0.5)) / 2.0
    drift = 0.05 - 0.5 * vol**2
    samples = np.log1p(np.exp(x))
    coeffs = fit_coefficients(samples, g)
    eta, _ = apply_transform(samples[:-1], x[:-1], coeffs)
    alpha = coeffs.alpha
    kinds = (EXPECTATION, GRADIENT)
    with _routes() as routes:
        results = _node_step(eta, g, step, drift, vol, alpha, kinds)
    assert routes["band"] and routes["formula"]
    assert routes["band"] | routes["formula"] == set(range(g.N))

    nyquist_bin = float(eta @ (1.0 - 2.0 * (np.arange(g.N) % 2)))
    for (theta, residual), kind in zip(results, kinds):
        terms = np.empty(g.N)
        for k in range(g.N):
            law = (step, drift[k], vol[k], alpha)
            ref, _ = _one_kind(eta, g, *law, kind)
            bound = 1e-12 * np.max(np.abs(ref)) + _aliasing(eta, g, *law, kind)
            assert abs(theta[k] - ref[k]) <= bound
            psi = _psi(g.frequencies()[-1], *law, kind)
            terms[k] = abs((psi * nyquist_bin).imag) / g.N
        assert int(np.argmax(terms)) in routes[largest]
        assert residual == pytest.approx(np.max(terms) / np.max(np.abs(theta)), rel=1e-9, abs=0)


@pytest.mark.parametrize("kind", [EXPECTATION, GRADIENT])
def test_banded_rows_match_dense_quadrature(kind):
    # vol 0.3 over step 0.05 resolves as r = 2.1 on 2^8 nodes and 4.3 on
    # 2^9 over [-4, 4], so every row takes the band.  On smooth input it
    # matches the quadrature to roundoff; a kinked payoff costs O(dx^2)
    # in any node-spaced sum, so the error falls fourfold per halving.
    law = dict(step=0.05, drift=0.1, vol=0.3)
    errors = []
    for log2N in (8, 9):
        g = build_grid(0.0, 4.0, log2N)
        x = g.space_nodes()
        interior = slice(g.N // 8, -g.N // 8)
        for alpha in (0.0, 0.3):
            with _routes() as routes:
                ((theta, _),) = _node_step(
                    np.exp(-(x**2)), g, **law, alpha=alpha, kinds=(kind,)
                )
            assert routes["band"] == set(range(g.N))
            dense = dense_quadrature_step(
                lambda y: np.exp(-(y**2)), g, **law, alpha=alpha, kind=kind,
                quad_points=10 * g.N,
            )
            assert np.max(np.abs(theta - dense)[interior]) <= 1e-10

        eta, coeffs = _kinked_payoff(g, 1.0)
        alpha = coeffs.alpha

        def kinked(y):
            return np.exp(-alpha * y) * (_call_payoff(y, 1.0) + coeffs.beta * y + coeffs.kappa)

        ((theta, _),) = _node_step(eta, g, **law, alpha=alpha, kinds=(kind,))
        dense = dense_quadrature_step(
            kinked, g, **law, alpha=alpha, kind=kind, quad_points=10 * g.N
        )
        errors.append(
            np.max(np.abs(theta - dense)[interior]) / np.max(np.abs(dense)[interior])
        )
    assert errors[0] <= (1e-6 if kind == EXPECTATION else 1e-4)
    assert errors[1] <= errors[0] / 3.5


@pytest.mark.parametrize("alpha, drift", [(-3.0, 1.5), (3.0, -1.5)])
def test_band_sits_on_the_untilted_mean_for_any_alpha(alpha, drift):
    # the band is centred on the node nearest each row's untilted mean,
    # here 3 nodes from the row's own, while the tilted kernel's centre
    # shift_k = mean_k + var_k*alpha sits var_k*alpha/dx nodes off it:
    # on 2^10 nodes over [-8, 8] at r = 12 that is 6.75 nodes, or 0.56
    # standard deviations, and the banded rows still meet the row
    # formula's bound and the dense quadrature's
    g = build_grid(0.0, 8.0, 10)
    step, vol = (12 * g.dx) ** 2, 1.0
    assert abs(round(drift * step / g.dx)) == 3
    assert abs(vol**2 * step * alpha / g.dx) >= 3
    x = g.space_nodes()
    eta = np.exp(-(x**2))
    kinds = (EXPECTATION, GRADIENT)
    with _routes() as routes:
        banded = _node_step(eta, g, step, drift, vol, alpha, kinds)
    assert routes == {"band": set(range(g.N)), "formula": set()}
    law = (step, drift, vol, alpha)
    interior = slice(g.N // 8, -g.N // 8)
    for (theta, _), (ref, _), kind in zip(banded, _constant_step(eta, g, *law, kinds), kinds):
        bound = 1e-12 * np.max(np.abs(ref)) + _aliasing(eta, g, *law, kind)
        assert np.max(np.abs(theta - ref)) <= bound
        dense = dense_quadrature_step(
            lambda y: np.exp(-(y**2)), g, *law, kind=kind, quad_points=10 * g.N
        )
        assert np.max(np.abs(theta - dense)[interior]) <= 1e-10


def test_band_refuses_a_tilt_beyond_its_reach():
    # a dampening that moves a banded kernel more than BAND_TILT_LIMIT
    # (about 3.93) standard deviations off its band's centre is refused:
    # the band would drop more than the residual tolerance of its tail.
    # At r = 12 on 2^10 nodes over [-8, 8] one increment's standard
    # deviation is 0.1875, so alpha = 20 moves it 3.75 of them and 21
    # moves it 3.94
    limit = spectral_module.BAND_TILT_LIMIT
    assert limit == pytest.approx(3.93, abs=5e-3)
    g = build_grid(0.0, 8.0, 10)
    laws = NodeLaws(g, (12 * g.dx) ** 2, 0.0, 1.0)
    eta = np.exp(-(g.space_nodes() ** 2))
    convolve_step_statedep(eta, laws, 20.0, (EXPECTATION,))
    with pytest.raises(ValueError, match="3.94 standard deviations off its band"):
        convolve_step_statedep(eta, laws, -21.0, (EXPECTATION,))
