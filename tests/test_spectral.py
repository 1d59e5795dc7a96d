"""Tests for the DFT pair, increment multipliers and convolution steps."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from convbsde import (
    EXPECTATION,
    GRADIENT,
    IMAG_RESIDUAL_TOLERANCE,
    ImaginaryResidualError,
    IncrementSpectrum,
    PsiKind,
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


def test_psi_values_compose_increment_cf():
    g = build_grid(0.0, 2.0, 6)
    nu = g.dnu * (np.arange(g.N) - g.N // 2)
    alpha, step, drift, vol = 0.3, 0.05, 0.1, 0.8
    shifted = increment_cf(nu - 1j * alpha, step, drift, vol)
    psi_e = PsiKind(EXPECTATION, alpha, step, drift, vol)
    psi_g = PsiKind(GRADIENT, alpha, step, drift, vol)
    assert np.max(np.abs(psi_e.values(nu) - shifted)) <= 1e-14
    assert np.max(np.abs(psi_g.values(nu) - vol * (alpha + 1j * nu) * shifted)) <= 1e-12


def _full_complex_convolution(eta, grid, psi):
    """Reference: complex DFT pair over the centered frequency nodes
    nu_j = (j - N/2)*dnu, j = 0..N-1.

    The axis starts at -N*dnu/2, which the alternating signs account for.
    Returns the real part and the measured relative imaginary residual.
    """
    signs = 1.0 - 2.0 * (np.arange(grid.N) % 2)
    nu = grid.dnu * (np.arange(grid.N) - grid.N // 2)
    theta_c = signs * idft(psi.values(nu) * dft(signs * eta))
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
    psi = PsiKind(kind, alpha, 0.01, drift, vol)
    reference, measured = _full_complex_convolution(eta, g, psi)
    try:
        theta, residual = convolve_step(eta, g, psi)
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
        direct = PsiKind(kind, alpha, step, drift, vol).values(nu)
        assert np.max(np.abs(row - direct)) <= 1e-13 * np.max(np.abs(direct))


def _standalone(eta, grid, psi):
    """convolve_step's (theta, residual), or the residual it raised."""
    try:
        return convolve_step(eta, grid, psi)
    except ImaginaryResidualError as exc:
        return exc.residual


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
    log2N, half_width, step, drift, vol, alpha, kinds, seed
):
    # one rfft and one stacked irfft give each kind the theta and the
    # residual of its own convolve_step call, or raise the first
    # residual a standalone call raises
    g = build_grid(0.0, half_width, log2N)
    x = g.space_nodes()
    rng = np.random.default_rng(seed)
    eta = np.exp(-(x**2)) * (1.0 + 0.1 * rng.standard_normal(g.N))
    law = IncrementSpectrum(g, step, drift, vol)
    expected = [_standalone(eta, g, PsiKind(kind, alpha, step, drift, vol)) for kind in kinds]
    raised = [r for r in expected if not isinstance(r, tuple)]
    if raised:
        with pytest.raises(ImaginaryResidualError) as info:
            law.convolve(eta, alpha, kinds)
        assert info.value.residual == pytest.approx(raised[0], rel=1e-13)
        return
    for (theta, residual), (ref, ref_residual) in zip(law.convolve(eta, alpha, kinds), expected):
        assert np.max(np.abs(theta - ref)) <= 1e-13 * np.max(np.abs(ref))
        assert residual == pytest.approx(ref_residual, rel=1e-13, abs=1e-300)


def test_increment_spectrum_takes_finite_scalar_coefficients():
    g = build_grid(0.0, 1.0, 5)
    with pytest.raises(ValueError, match="scalars"):
        IncrementSpectrum(g, 0.1, np.zeros(g.N), 1.0)
    with pytest.raises(ValueError, match="non-finite"):
        IncrementSpectrum(g, 0.1, np.nan, 1.0)
    with pytest.raises(ValueError, match="unknown psi tag"):
        IncrementSpectrum(g, 0.1, 0.0, 1.0).convolve(np.zeros(g.N), 0.1, ("curvature",))


@pytest.mark.parametrize("alpha", [0.0, 0.3])
@pytest.mark.parametrize("kind", [EXPECTATION, GRADIENT])
def test_convolution_matches_dense_quadrature(alpha, kind):
    # same smooth input through the spectral path and through direct
    # real-space quadrature against the tilted Gaussian kernel
    g = build_grid(0.0, 4.0, 8)
    x = g.space_nodes()
    eta = np.exp(-(x**2))
    psi = PsiKind(kind, alpha, step=0.05, drift=0.1, vol=1.0)
    theta, _ = convolve_step(eta, g, psi)
    dense = dense_quadrature_step(lambda y: np.exp(-(y**2)), g, psi, 10 * g.N)
    n0 = g.N // 8
    assert np.max(np.abs(theta - dense)[n0:-n0]) <= 1e-10


def test_convolution_is_linear():
    g = build_grid(0.0, 3.0, 7)
    x = g.space_nodes()
    psi = PsiKind(EXPECTATION, 0.2, step=0.1, drift=0.0, vol=1.0)
    w1 = np.exp(-(x**2))
    w2 = np.cos(x) * np.exp(-np.abs(x))
    combined, _ = convolve_step(1.7 * w1 - 0.4 * w2, g, psi)
    parts = 1.7 * convolve_step(w1, g, psi)[0] - 0.4 * convolve_step(w2, g, psi)[0]
    assert np.max(np.abs(combined - parts)) <= 1e-10


def test_convolution_of_zero_is_zero():
    g = build_grid(0.0, 1.0, 5)
    psi = PsiKind(EXPECTATION, 0.1, step=0.1, drift=0.0, vol=1.0)
    theta, residual = convolve_step(np.zeros(g.N), g, psi)
    assert np.max(np.abs(theta)) == 0.0
    assert residual == 0.0


def test_convolve_step_reports_small_residual_on_smooth_input():
    g = build_grid(0.0, 4.0, 8)
    x = g.space_nodes()
    psi = PsiKind(EXPECTATION, 0.1, step=0.05, drift=0.0, vol=1.0)
    theta, residual = convolve_step(np.exp(-(x**2)), g, psi)
    assert theta.shape == (g.N,)
    assert 0.0 <= residual <= 1e-12


def test_imaginary_residual_raises_on_unresolvable_kernel():
    # alternating input concentrates all energy at the unpaired Nyquist
    # frequency; with a nearly flat multiplier the gradient factor
    # i*nu leaves a large imaginary part that must be flagged, not
    # silently truncated
    g = build_grid(0.0, 5.0, 6)
    signs = 1.0 - 2.0 * (np.arange(g.N) % 2)
    psi = PsiKind(GRADIENT, 0.0, step=1e-4, drift=0.0, vol=1.0)
    with pytest.raises(ImaginaryResidualError) as exc_info:
        convolve_step(signs, g, psi)
    err = exc_info.value
    assert isinstance(err, ArithmeticError)
    assert err.tolerance == IMAG_RESIDUAL_TOLERANCE == 1e-8
    assert err.residual > err.tolerance


def test_statedep_matches_fast_path_for_constant_coefficients():
    g = build_grid(1.0, 2.0, 7)
    x = g.space_nodes(include_right=True)
    eta = np.maximum(np.exp(x[:-1]) - 2.0, 0.0)
    psi = PsiKind(EXPECTATION, 0.15, step=0.02, drift=0.05, vol=0.8)
    fast, _ = convolve_step(eta, g, psi)
    slow, _ = convolve_step_statedep(eta, g, psi)
    per_node, _ = convolve_step_statedep(
        eta, g, PsiKind(EXPECTATION, 0.15, 0.02, np.full(g.N, 0.05), np.full(g.N, 0.8))
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
    mixed, _ = convolve_step_statedep(eta, g, PsiKind(EXPECTATION, 0.1, 0.05, drifts, 1.0))
    for k in (0, 7, 16, 25, 31):
        uniform, _ = convolve_step(eta, g, PsiKind(EXPECTATION, 0.1, 0.05, drifts[k], 1.0))
        assert mixed[k] == pytest.approx(uniform[k], abs=1e-11)


def test_convolve_step_validates_lengths():
    g = build_grid(0.0, 1.0, 5)
    psi = PsiKind(EXPECTATION, 0.1, step=0.1, drift=0.0, vol=1.0)
    with pytest.raises(ValueError):
        convolve_step(np.zeros(g.N - 1), g, psi)
    short = PsiKind(EXPECTATION, 0.1, step=0.1, drift=np.zeros(g.N - 1), vol=1.0)
    with pytest.raises(ValueError, match="length N"):
        convolve_step_statedep(np.zeros(g.N), g, short)


def test_psi_rejects_unknown_tag():
    with pytest.raises(ValueError):
        PsiKind("curvature", 0.1, 0.1, 0.0, 1.0).values(np.zeros(4))
