"""The spectral convolution step.

One backward Euler step convolves the periodized samples eta against
the increment law of the forward process.  On the coupled grids of
:mod:`convbsde.grid` that is theta_k = (1/N) sum_m psi(m*dnu) F_m
exp(2*pi*i*m*k/N) over m = -N/2..N/2-1, with F = fft(eta) and psi the
characteristic-function multiplier.  For real drift, vol and alpha,
psi is Hermitian, psi(-nu) = conj(psi(nu)), so bins m and -m pair up and

    theta = irfft(psi(nu_m) * rfft(eta), N),   nu_m = m*dnu,  m = 0..N/2.

Only the Nyquist bin m = -N/2 is unpaired.  irfft drops the imaginary
part of its term, which has magnitude |Im(psi(nu_{N/2}) F_{N/2})| / N at
every node: the imaginary residual in closed form.

With constant drift and vol the multiplier factors into a part fixed for
the whole solve and a part that follows the fitted alpha,

    phi(nu - i*alpha) = phi(nu) * exp(step*(drift*alpha + vol^2*alpha^2/2))
                                * exp(i*step*vol^2*alpha*nu),

and the gradient multiplier is vol*(alpha + i*nu) times the expectation
one.  Both kernels take every requested kind in one call, build each
kind's multiplier from phi(nu - i*alpha) by the same rule, and return
one ``(theta, residual)`` per kind.  ``convolve_step`` reads phi(nu)
from an ``IncrementSpectrum`` kept across a solve's steps, so a step
takes one rfft of its samples and one stacked irfft for all kinds.

``convolve_step_statedep`` gives node x_k its own law and routes row k
by its resolution r_k = vol_k*sqrt(step)/dx.  A row the grid resolves,
r_k >= BAND_MIN_RESOLUTION (about 1.932) with a band narrower than N/4
nodes, sums eta against the sampled, tilted increment density within
BAND_STDS standard deviations of its mean: O(band) work.  The sampled
kernel folds the multiplier beyond pi/dx back onto the grid, a tail of
exp(-pi^2 r^2 / 2) relative to nu = 0, which at r* falls to the
residual tolerance.  Every other row sums the real-FFT formula out,
O(N) work, with phi_k(nu - i*alpha) factored into a scalar, a phase and
a real Gaussian, so a row takes about sqrt(2N) complex exponentials and
one real exponential per frequency for all kinds.  The Nyquist residual
of every row is measured on either route, from the one evaluation of
phi the step makes.

``dft`` and ``idft`` state the DFT convention: the forward transform
carries the 1/N factor, the inverse none.
"""

from __future__ import annotations

import math

import numpy as np

from .grid import GridPair
from .transform import EXPECTATION, GRADIENT

# Largest tolerated imaginary residual of a convolution output,
# relative to its real magnitude.  A breach signals a mis-specified
# multiplier or an unresolved kernel rather than roundoff.
IMAG_RESIDUAL_TOLERANCE = 1e-8

# Rows per block of the state-dependent row formula.  Its two work
# arrays, reused by every block, hold 24 bytes per row and frequency:
# at 32 rows the formula peaks at 0.5 MB for N = 512 and 2 MB for
# N = 4096, and 64 rows are no faster at N = 4096.
_FORMULA_BLOCK_ROWS = 32

# A block of the banded sum holds as many entries as this many rows of
# N/2 + 1 frequencies.
_ROW_BLOCK = 16

# Half-width of the banded real-space kernel, in standard deviations of
# one increment: the Gaussian tail it drops is below
# exp(-BAND_STDS**2 / 2) = exp(-50), about 2e-22, of the kernel's peak.
BAND_STDS = 10

# Smallest resolution r = vol*sqrt(step)/dx at which a row of the
# state-dependent step takes the banded kernel.  The sampled kernel
# differs from the row formula by the multiplier beyond the Nyquist
# frequency pi/dx, which relative to its value at nu = 0 is
# exp(-pi^2 r^2 / 2); at r* = sqrt(2 ln(1/IMAG_RESIDUAL_TOLERANCE))/pi,
# about 1.932, that tail falls to the residual tolerance.
BAND_MIN_RESOLUTION = math.sqrt(2.0 * math.log(1.0 / IMAG_RESIDUAL_TOLERANCE)) / math.pi


class ImaginaryResidualError(ArithmeticError):
    """Convolution output had a non-negligible imaginary part."""

    def __init__(self, residual: float, tolerance: float):
        self.residual = residual
        self.tolerance = tolerance
        super().__init__(
            f"imaginary residual {residual:.3e} exceeds {tolerance:.0e} of the real magnitude"
        )


def dft(values: np.ndarray) -> np.ndarray:
    """Forward DFT, (1/N) * sum_i values_i * exp(-i*j*k*2*pi/N)."""
    values = np.asarray(values)
    return np.fft.fft(values) / values.shape[-1]


def idft(values: np.ndarray) -> np.ndarray:
    """Inverse DFT, sum_j values_j * exp(+i*j*k*2*pi/N), no scale factor."""
    values = np.asarray(values)
    return np.fft.ifft(values) * values.shape[-1]


def increment_cf(nu, step: float, drift, vol):
    """Characteristic function of one forward increment.

    The increment over a step is drift*step + vol*dW with dW normal of
    variance step, so the characteristic function is
    exp(step*(i*drift*nu - vol^2*nu^2/2)).  ``nu`` may be complex; a
    dampened convolution evaluates it at nu - i*alpha.  drift and vol
    may be arrays that broadcast against nu.
    """
    if not step > 0:
        raise ValueError("step must be positive")
    if not np.all(np.asarray(vol) > 0):
        raise ValueError("vol must be positive")
    nu = np.asarray(nu, dtype=complex)
    out = np.exp(step * (1j * drift * nu - 0.5 * vol * vol * nu * nu))
    return out if out.ndim else complex(out)


def _kind_rows(expectation, i_nu, alpha, vol, kinds) -> np.ndarray:
    """The psi multiplier of each kind, stacked on a new leading axis.

    ``expectation`` holds psi_E = phi(nu - i*alpha) with phi the
    step's ``increment_cf`` and ``i_nu`` the frequencies times i; row j
    is psi_E for an EXPECTATION tag and psi_Z = vol*(alpha + i*nu)*psi_E
    for a GRADIENT tag, the martingale-increment functional estimating
    vol * d/dx of the expectation.  vol is a scalar or a column
    broadcasting against ``expectation``.
    """
    rows = np.empty((len(kinds),) + expectation.shape, dtype=complex)
    for row, kind in zip(rows, kinds):
        if kind == EXPECTATION:
            row[...] = expectation
        elif kind == GRADIENT:
            np.multiply(vol * (alpha + i_nu), expectation, out=row)
        else:
            raise ValueError(f"unknown psi tag: {kind!r}")
    return rows


def _check_eta(eta, grid: GridPair) -> np.ndarray:
    eta = np.asarray(eta, dtype=float)
    if eta.ndim != 1 or eta.size != grid.N:
        raise ValueError(f"eta must have length N = {grid.N}")
    return eta


def _per_row(value, N: int, name: str, positive: bool = False) -> np.ndarray:
    """A scalar or length-N coefficient as a length-N vector, entry k for row k.

    A non-finite entry, or with ``positive`` a non-positive one, is a
    ValueError naming ``name`` and its first such node.
    """
    value = np.asarray(value, dtype=float)
    if value.shape not in ((), (N,)):
        raise ValueError(f"drift and vol must be scalars or have length N = {N}")
    value = np.broadcast_to(value, (N,))
    bad = np.flatnonzero(~np.isfinite(value))
    if bad.size:
        raise ValueError(f"non-finite {name} {value[bad[0]]} at node {bad[0]}")
    if positive:
        bad = np.flatnonzero(value <= 0)
        if bad.size:
            raise ValueError(f"non-positive {name} {value[bad[0]]} at node {bad[0]}")
    return value


def _guard(theta: np.ndarray, nyquist_imag: float, N: int):
    """Relative imaginary residual from the Nyquist bin; raise above tolerance."""
    max_re = max(float(np.max(np.abs(theta))), 1e-300)
    residual = nyquist_imag / N / max_re
    if residual > IMAG_RESIDUAL_TOLERANCE:
        raise ImaginaryResidualError(residual, IMAG_RESIDUAL_TOLERANCE)
    return theta, residual


def _split_frequencies(count: int):
    """Indices m = q*B + r as a coarse table q*B and a fine table r < B.

    B = ceil(sqrt(count)): a phase exp(i*c*m) over m = 0..count-1 is
    the outer product of exp(i*c*q*B) and exp(i*c*r), which runs on to
    the next multiple of B.
    """
    fine = int(np.ceil(np.sqrt(count)))
    return fine * np.arange(-(-count // fine)), np.arange(fine)


class IncrementSpectrum:
    """The increment law of a constant-coefficient step on a grid's frequencies.

    phi(nu) = increment_cf(nu, step, drift, vol) is evaluated once on
    the real-FFT nodes nu_m = m*dnu, m = 0..N/2, and serves every step
    with the same (step, drift, vol); only the scalar and the phase of
    the factored multiplier follow alpha.  The phase exp(i*c*m*dnu) is
    the outer product of a coarse table over m = q*B and a fine table
    over m = r < B, with B about sqrt(N/2), so it costs about sqrt(2N)
    complex exponentials instead of N/2+1.
    """

    def __init__(self, grid: GridPair, step: float, drift: float, vol: float):
        if np.ndim(drift) or np.ndim(vol):
            raise ValueError(
                "drift and vol must be scalars; per-node arrays take convolve_step_statedep"
            )
        if not (np.isfinite(drift) and np.isfinite(vol)):
            raise ValueError(f"non-finite drift {drift!r} or vol {vol!r}")
        self.grid = grid
        self.step = step
        self.drift = float(drift)
        self.vol = float(vol)
        nu = grid.frequencies()
        self._phi = increment_cf(nu, step, self.drift, self.vol)
        self._i_nu = 1j * nu
        self._coarse, self._fine = _split_frequencies(nu.size)

    def multipliers(self, alpha: float, kinds) -> np.ndarray:
        """The psi multiplier of each kind on the frequency nodes.

        Row j holds kind ``kinds[j]`` at nu_m, m = 0..N/2, built from
        the cached phi(nu): the expectation row is phi(nu - i*alpha),
        the gradient row vol*(alpha + i*nu) times it.
        """
        rate = self.step * self.vol**2 * alpha * self.grid.dnu
        scale = self.step * alpha * (self.drift + 0.5 * self.vol**2 * alpha)
        coarse = np.exp(scale + 1j * rate * self._coarse)
        fine = np.exp(1j * rate * self._fine)
        expectation = np.multiply.outer(coarse, fine).ravel()[: self._phi.size]
        expectation *= self._phi
        return _kind_rows(expectation, self._i_nu, alpha, self.vol, kinds)


def convolve_step(eta: np.ndarray, spectrum: IncrementSpectrum, alpha: float, kinds):
    """Convolve transformed samples once for each requested kind.

    ``eta`` is the first output of ``apply_transform`` for dampening
    exponent ``alpha``, length N; ``spectrum`` holds the step's
    constant-coefficient increment law; ``kinds`` holds EXPECTATION
    and/or GRADIENT tags.  One rfft of eta feeds every kind and one
    irfft of the stacked products returns them all.  Returns a list
    with one ``(theta, residual)`` per kind: theta at the nodes
    x_0..x_{N-1} and the relative imaginary residual that was
    discarded.

    Raises
    ------
    ImaginaryResidualError
        If a residual exceeds ``IMAG_RESIDUAL_TOLERANCE``.
    """
    N = spectrum.grid.N
    eta = _check_eta(eta, spectrum.grid)
    products = spectrum.multipliers(alpha, kinds)
    products *= np.fft.rfft(eta)
    thetas = np.fft.irfft(products, N)
    return [_guard(theta, abs(row[-1].imag), N) for theta, row in zip(thetas, products)]


def _row_formula(thetas, rows, eta_hat, grid, step, drift, vol, alpha, kinds):
    """Rows ``rows`` of theta by the real-FFT formula summed out.

    theta_k = (1/N) sum_m c_m Re(exp(2*pi*i*m*k/N) psi_k(nu_m) F_m) with
    F = rfft(eta) and c = 1, 2, ..., 2, 1.  Row k's expectation
    multiplier factors as

        psi_E(nu) = C_k * exp(i*nu*mu_k) * exp(-vol_k^2*step*nu^2/2),

    C_k = exp(step*alpha*(drift_k + vol_k^2*alpha/2)) and
    mu_k = step*(drift_k + vol_k^2*alpha), so one array
    X_km = exp(i*nu_m*(k*dx + mu_k)) exp(-vol_k^2*step*nu_m^2/2) c_m F_m/N
    serves both kinds: theta_E = C_k sum Re X and
    theta_Z = vol_k C_k (alpha sum Re X - sum nu Im X).  The phase is
    the outer product of a coarse table over m = q*B and a fine table
    over m = r < B, B about sqrt(N/2), each carrying its exact root of
    unity exp(2*pi*i*(k*m mod N)/N); a row costs about sqrt(2N) complex
    exponentials and N/2+1 real ones, in blocks of
    ``_FORMULA_BLOCK_ROWS`` rows.
    """
    N = grid.N
    m_coarse, m_fine = _split_frequencies(eta_hat.size)
    size = m_coarse.size * m_fine.size
    nu = grid.dnu * np.arange(size)
    half_nu_sq = 0.5 * nu * nu
    # w = c_m F_m / N, zero beyond m = N/2.  Over the (re, im) pairs of
    # p = phase * Gaussian, sum Re(p*w) is a real dot product with the
    # pairs of conj(w), and sum Im(p*nu*w) one with those of i*nu*conj(w)
    weight = np.zeros(size, dtype=complex)
    weight[: eta_hat.size] = np.conj(eta_hat) * (2.0 / N)
    weight[[0, eta_hat.size - 1]] /= 2.0
    re_weights = weight.view(float)
    nu_im_weights = (1j * nu * weight).view(float)
    roots = np.exp((2j * np.pi / N) * np.arange(N))
    # work arrays shared by every block
    phases = np.empty((_FORMULA_BLOCK_ROWS, m_coarse.size, m_fine.size), dtype=complex)
    gaussians = np.empty((_FORMULA_BLOCK_ROWS, size))
    for start in range(0, rows.size, _FORMULA_BLOCK_ROWS):
        k = rows[start : start + _FORMULA_BLOCK_ROWS]
        var = vol[k] ** 2 * step
        mu = step * drift[k] + var * alpha
        coarse, fine = (
            roots[np.outer(k, m) % N] * np.exp(1j * grid.dnu * np.outer(mu, m))
            for m in (m_coarse, m_fine)
        )
        p = np.multiply(coarse[:, :, None], fine[:, None, :], out=phases[: k.size])
        p = p.reshape(k.size, size)
        g = np.multiply.outer(-var, half_nu_sq, out=gaussians[: k.size])
        p *= np.exp(g, out=g)
        pairs = p.view(float)
        scale = np.exp(alpha * (step * drift[k] + 0.5 * var * alpha))
        expectation = scale * (pairs @ re_weights)
        for row, kind in zip(thetas, kinds):
            if kind == EXPECTATION:
                row[k] = expectation
            else:
                row[k] = vol[k] * (alpha * expectation - scale * (pairs @ nu_im_weights))


def _banded_sum(thetas, rows, half_widths, eta, grid, step, drift, vol, alpha, kinds):
    """Rows ``rows`` of theta against the sampled, tilted increment density.

    Row k sums eta_{k+j} (indices mod N) over node offsets w = j*dx
    within ``half_widths[k]`` nodes of the tilted mean
    (drift_k + alpha*vol_k^2)*step, weighted by the expectation kernel

        dx*exp(alpha*w - (w - drift_k*step)^2/(2*vol_k^2*step)) / sqrt(2*pi*vol_k^2*step)

    and, for the gradient, by that times (w - drift_k*step)/(vol_k*step).
    Every row takes the widest band; a block holds about
    ``_ROW_BLOCK`` * (N/2 + 1) entries.
    """
    N, dx = grid.N, grid.dx
    width = 2 * int(np.max(half_widths[rows])) + 1
    offsets = np.arange(width)
    wrapped = np.concatenate((eta, eta[: width - 1]))
    block = max(1, _ROW_BLOCK * (N // 2 + 1) // width)
    for start in range(0, rows.size, block):
        k = rows[start : start + block, None]
        mean = drift[k] * step
        var = vol[k] ** 2 * step
        lead = np.rint((mean + alpha * var) / dx)
        first = lead - width // 2
        w = (first + offsets) * dx
        centred = w - mean
        density = np.exp(alpha * w - centred**2 / (2.0 * var))
        weighted = density * (dx / np.sqrt(2.0 * np.pi * var))
        weighted *= wrapped[((k + first) % N).astype(int) + offsets]
        for row, kind in zip(thetas, kinds):
            terms = weighted if kind == EXPECTATION else weighted * centred / (vol[k] * step)
            row[k[:, 0]] = terms.sum(axis=1)


def convolve_step_statedep(
    eta: np.ndarray, grid: GridPair, step: float, drift, vol, alpha: float, kinds
):
    """Convolution step whose drift and vol may differ per space node.

    Needed when drift or vol depend on the state: node x_k then carries
    its own increment law, frozen at the conditioning point, and the
    inverse FFT no longer applies.  drift and vol are scalars or
    length-N arrays (entry k belongs to node x_k), and a non-finite
    entry, or a vol that is not positive, is a ValueError naming the
    coefficient and its first such node; step, alpha and the kinds are
    shared by every row.

    Each row takes one of two routes by its resolution
    r_k = vol_k*sqrt(step)/dx.  A row with r_k >= BAND_MIN_RESOLUTION
    whose band of 2*ceil(BAND_STDS*r_k + 1/2) + 1 nodes is narrower than
    N/4 sums eta against its sampled, tilted increment density, O(band)
    work per row.  Every other row sums out the real-FFT formula, O(N)
    work per row.  Either way one rfft gives F_{N/2}, and each kind's
    residual guard takes the largest per-row Nyquist term
    |Im(psi_k(nu_{N/2}) F_{N/2})| / N over all rows.  Returns one
    ``(theta, residual)`` per kind like ``convolve_step``.
    """
    eta = _check_eta(eta, grid)
    N = grid.N
    drift = _per_row(drift, N, "drift")
    vol = _per_row(vol, N, "vol", positive=True)

    eta_hat = np.fft.rfft(eta)
    nu_max = grid.frequencies()[-1]
    phi_max = increment_cf(nu_max - 1j * alpha, step, drift, vol)
    nyquist = _kind_rows(phi_max, 1j * nu_max, alpha, vol, kinds) * eta_hat[-1]

    resolution = vol * math.sqrt(step) / grid.dx
    half_widths = np.ceil(BAND_STDS * resolution + 0.5)
    banded = (resolution >= BAND_MIN_RESOLUTION) & (2 * half_widths + 1 < N / 4)
    thetas = np.empty((len(kinds), N))
    rows = np.flatnonzero(banded)
    if rows.size:
        _banded_sum(thetas, rows, half_widths, eta, grid, step, drift, vol, alpha, kinds)
    rows = np.flatnonzero(~banded)
    _row_formula(thetas, rows, eta_hat, grid, step, drift, vol, alpha, kinds)
    return [
        _guard(theta, float(np.max(np.abs(row.imag))), N)
        for theta, row in zip(thetas, nyquist)
    ]
