"""Tests for the DFT pair, increment multipliers and convolution steps."""

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
    build_grid,
    convolve_step,
    convolve_step_statedep,
    dense_quadrature_step,
    dft,
    idft,
    increment_cf,
)


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
        shifted, 1j * nu, alpha, vol, (EXPECTATION, GRADIENT)
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
    "kernel", [_constant_step, convolve_step_statedep], ids=["constant", "per-node"]
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
    if kernel is convolve_step_statedep:
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
    ((slow, _),) = convolve_step_statedep(eta, g, 0.02, 0.05, 0.8, 0.15, (EXPECTATION,))
    ((per_node, _),) = convolve_step_statedep(
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
    ((mixed, _),) = convolve_step_statedep(eta, g, 0.05, drifts, 1.0, 0.1, (EXPECTATION,))
    for k in (0, 7, 16, 25, 31):
        uniform, _ = _one_kind(eta, g, 0.05, drifts[k], 1.0, 0.1, EXPECTATION)
        assert mixed[k] == pytest.approx(uniform[k], abs=1e-11)


def test_convolve_step_validates_lengths():
    g = build_grid(0.0, 1.0, 5)
    with pytest.raises(ValueError):
        _one_kind(np.zeros(g.N - 1), g, 0.1, 0.0, 1.0, 0.1, EXPECTATION)
    with pytest.raises(ValueError, match="length N"):
        convolve_step_statedep(
            np.zeros(g.N), g, 0.1, np.zeros(g.N - 1), 1.0, 0.1, (EXPECTATION,)
        )


def test_psi_rejects_unknown_tag():
    g = build_grid(0.0, 1.0, 5)
    with pytest.raises(ValueError, match="unknown psi tag"):
        convolve_step_statedep(np.zeros(g.N), g, 0.1, 0.0, 1.0, 0.1, ("curvature",))
