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

``convolve_step_statedep`` gives node x_k its own law, with variance
var_k = vol_k^2*step and mean mean_k = drift_k*step, so that

    phi_k(nu - i*alpha) = scale_k * exp(i*nu*(mean_k + var_k*alpha) - var_k*nu^2/2),
    scale_k = exp(alpha*(mean_k + var_k*alpha/2)).

A ``NodeLaws`` built from (grid, step, drift, vol) holds every table of
that step which alpha does not enter, and a solve keeps it for as long
as drift and vol repeat.  Row k is routed by its resolution
r_k = vol_k*sqrt(step)/dx.  A row the grid resolves,
r_k >= BAND_MIN_RESOLUTION (about 1.932) with a band narrower than N/4
nodes, sums eta against that law sampled in real space: O(band) work.
The tilt is algebra there,

    scale_k * exp(-(w - mean_k - var_k*alpha)^2 / (2*var_k))
        = exp(-(w - mean_k)^2 / (2*var_k)) * exp(alpha*w),

so the cached untilted weights, centred on mean_k within BAND_STDS
standard deviations, serve every alpha, and exp(alpha*w) splits into a
row factor and a column factor.  The sampled kernel folds the
multiplier beyond pi/dx back onto the grid, a tail of
exp(-pi^2 r^2 / 2) relative to nu = 0, which at r* falls to the
residual tolerance.  Every other row sums the real-FFT formula out,
O(N) work: its phase is the outer product of cached coarse and fine
tables, about sqrt(2N) entries a row, times powers of two complex
exponentials per call, and its Gaussian takes one real exponential per
frequency.  Either route returns the expectation E_k and, for a
gradient, the gradient sum G_k, the same sum under the multiplier
(alpha + i*nu), and theta_Z = vol*G follows in real space.  The
Nyquist term of every row's residual comes from a cached factor per
row, with no call of ``increment_cf``.
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
# arrays, kept by a NodeLaws for every block and call, hold 24 bytes
# per row and frequency: at 32 rows that is 0.2 MB for N = 512 and
# 1.6 MB for N = 4096, and 64 rows are no faster at N = 4096.
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

# Largest shift of a banded row's tilted kernel off the centre of its
# band, in standard deviations of one increment.  The band reaches
# BAND_STDS of them either side of the untilted mean and the dampening
# exp(alpha*w) moves the kernel's centre by sd_k*alpha of them; up to
# this limit, about 3.93, the Gaussian tail the band drops stays below
# exp(-(BAND_STDS - limit)^2 / 2) = IMAG_RESIDUAL_TOLERANCE.
BAND_TILT_LIMIT = BAND_STDS - math.sqrt(2.0 * math.log(1.0 / IMAG_RESIDUAL_TOLERANCE))


class ImaginaryResidualError(ArithmeticError):
    """Convolution output had a non-negligible imaginary part."""

    def __init__(self, residual: float, tolerance: float):
        self.residual = residual
        self.tolerance = tolerance
        super().__init__(
            f"imaginary residual {residual:.3e} exceeds {tolerance:.0e} of the real magnitude"
        )


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


def _kind_rows(expectation, vol_i_nu, vol_alpha, kinds) -> np.ndarray:
    """The psi multiplier of each kind, stacked on a new leading axis.

    ``expectation`` holds psi_E = phi(nu - i*alpha) with phi the
    step's increment law, ``vol_i_nu`` the frequencies times i*vol and
    ``vol_alpha`` vol*alpha; row j is psi_E for an EXPECTATION tag and
    psi_Z = vol*(alpha + i*nu)*psi_E for a GRADIENT tag, the
    martingale-increment functional estimating vol * d/dx of the
    expectation.  Both vol products broadcast against ``expectation``.
    """
    rows = np.empty((len(kinds),) + expectation.shape, dtype=complex)
    for row, kind in zip(rows, kinds):
        if kind == EXPECTATION:
            row[...] = expectation
        elif kind == GRADIENT:
            np.multiply(vol_i_nu + vol_alpha, expectation, out=row)
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

    The vector is a copy, so later writes to an array passed in do not
    reach it.  A non-finite entry, or with ``positive`` a non-positive
    one, is a ValueError naming ``name`` and its first such node.
    """
    value = np.array(value, dtype=float)
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
    max_re = max(np.abs(theta).max(), 1e-300)
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
    complex exponentials instead of N/2+1.  ``forward_mean`` holds each
    node's forward mean x_k + drift*step, which ``adjustment_H`` reads.
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
        self.forward_mean = grid.space_nodes() + self.drift * step
        nu = grid.frequencies()
        self._phi = increment_cf(nu, step, self.drift, self.vol)
        self._vol_i_nu = self.vol * (1j * nu)
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
        return _kind_rows(expectation, self._vol_i_nu, self.vol * alpha, kinds)


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


class NodeLaws:
    """The per-node increment laws of a state-dependent step, tabulated once.

    Node x_k carries the law of drift_k*step + vol_k*dW, with variance
    var_k = vol_k^2*step and mean mean_k = drift_k*step.  Built from
    (grid, step, drift, vol), where drift and vol are scalars or
    length-N arrays (entry k belongs to node x_k), it checks them once
    and holds every table of ``convolve_step_statedep`` that the fitted
    alpha does not enter:

    - var_k, mean_k, the forward mean x_k + mean_k that ``adjustment_H``
      reads, and each row's route by its resolution
      r_k = vol_k*sqrt(step)/dx: a row with r_k >= BAND_MIN_RESOLUTION
      whose band of 2*ceil(BAND_STDS*r_k + 1/2) + 1 nodes is narrower
      than N/4 is in ``band_rows`` and takes the banded sum, every other
      row is in ``formula_rows`` and takes the row formula;
    - for the band rows, the untilted weights
      K0_k(w) = exp(-(w - mean_k)^2/(2*var_k))*dx/sqrt(2*pi*var_k) on
      node offsets w within the widest half-width of the node nearest
      mean_k, and where each row's band starts in eta;
    - for the formula rows, the coarse and fine phase tables
      exp(2*pi*i*(k*m mod N)/N)*exp(i*m*dnu*mean_k) and the frequencies
      nu_m they run over;
    - every row's Nyquist factor exp(i*nu_max*mean_k - var_k*nu_max^2/2);
    - the work arrays both routes reuse from call to call.

    A solve whose drift and vol repeat from step to step, and both
    convolutions of an explicit1 step, share one.  The band rows hold
    8 bytes per band node and the formula rows 16 bytes per coarse and
    fine entry, about 16*sqrt(2N) bytes a row.

    Raises ValueError on a step that is not positive, a non-finite
    drift or vol entry, or a vol entry that is not positive, naming the
    coefficient and its first such node.
    """

    def __init__(self, grid: GridPair, step: float, drift, vol):
        if not step > 0:
            raise ValueError("step must be positive")
        N, dx = grid.N, grid.dx
        self.grid = grid
        self.step = step
        self.drift = _per_row(drift, N, "drift")
        self.vol = _per_row(vol, N, "vol", positive=True)
        self.var = var = self.vol * self.vol * step
        self.mean = mean = self.drift * step
        self.forward_mean = grid.space_nodes() + mean
        self._nu_max = nu_max = grid.frequencies()[-1]
        self._nyquist = np.exp(1j * nu_max * mean - 0.5 * var * nu_max**2)
        self._vol_i_nu_max = self.vol * (1j * nu_max)

        resolution = self.vol * math.sqrt(step) / dx
        half_widths = np.ceil(BAND_STDS * resolution + 0.5)
        banded = (resolution >= BAND_MIN_RESOLUTION) & (2 * half_widths + 1 < N / 4)
        self.band_rows = rows = np.flatnonzero(banded)
        self.formula_rows = np.flatnonzero(~banded)

        # Every band row takes the widest band, centred on the node
        # offset c_k nearest its mean: column j sits at the offset
        # w = c_k + o_j from the row's node, and at eta_{k + w/dx}.
        width = 2 * int(half_widths[rows].max(initial=0)) + 1
        centre = np.rint(mean[rows] / dx)
        self._band_offsets = (np.arange(width) - width // 2) * dx
        self._band_centres = centre * dx
        self._band_gaps = self._band_centres - mean[rows]
        self._band_starts = ((rows + centre - width // 2) % N).astype(int)
        centred = self._band_gaps[:, None] + self._band_offsets
        self._band_weights = np.exp(centred**2 / (-2.0 * var[rows, None]))
        self._band_weights *= (dx / np.sqrt(2.0 * np.pi * var[rows]))[:, None]
        self._band_sd = math.sqrt(var[rows].max(initial=0.0))
        block = max(1, _ROW_BLOCK * (N // 2 + 1) // width)
        self._band_indices = np.empty((min(block, rows.size), width), dtype=int)
        self._band_samples = np.empty(self._band_indices.shape)

        rows = self.formula_rows
        self._m_coarse, self._m_fine = _split_frequencies(N // 2 + 1)
        roots = np.exp((2j * np.pi / N) * np.arange(N))
        self._coarse, self._fine = (
            roots[np.outer(rows, m) % N] * np.exp(1j * grid.dnu * np.outer(mean[rows], m))
            for m in (self._m_coarse, self._m_fine)
        )
        self._nu = grid.dnu * np.arange(self._m_coarse.size * self._m_fine.size)
        self._half_nu_sq = 0.5 * self._nu * self._nu
        block = min(_FORMULA_BLOCK_ROWS, rows.size)
        self._phases = np.empty((block, self._m_coarse.size, self._m_fine.size), dtype=complex)
        self._gaussians = np.empty((block, self._nu.size))


def _powers(base: np.ndarray, count: int) -> np.ndarray:
    """base[k]**j for j = 0..count-1 as row k, by repeated multiplication.

    For |base| = 1 each power is within about j rounding errors of the
    exact one, at one complex product an entry instead of an exponential.
    """
    out = np.empty((base.size, count), dtype=complex)
    out[:, 0] = 1.0
    out[:, 1:] = base[:, None]
    return np.cumprod(out, axis=1, out=out)


def _row_formula(sums, rows, eta_hat, laws, alpha, scale):
    """Rows ``rows`` of the per-row sums by the real-FFT formula summed out.

    theta_k = (1/N) sum_m c_m Re(exp(2*pi*i*m*k/N) psi_k(nu_m) F_m) with
    F = rfft(eta) and c = 1, 2, ..., 2, 1.  With var_k and mean_k from
    ``laws`` and ``scale`` the per-row scale_k, row k's expectation
    multiplier is

        psi_E(nu) = scale_k * exp(i*nu*(mean_k + var_k*alpha)) * exp(-var_k*nu^2/2),

    so one array
    X_km = exp(i*nu_m*(k*dx + mean_k + var_k*alpha)) exp(-var_k*nu_m^2/2) c_m F_m/N
    gives the expectation sums[0, k] = scale_k sum Re X and, when
    ``sums`` has a second row, the gradient sum
    sums[1, k] = scale_k sum Re((alpha + i*nu) X).  The phase is the
    outer product of a coarse table over m = q*B and a fine table over
    m = r < B, B about sqrt(N/2).  ``laws`` holds their alpha-free factor
    exp(2*pi*i*(k*m mod N)/N) exp(i*nu_m*mean_k); each call multiplies
    in the powers of exp(i*dnu*var_k*alpha) and exp(i*dnu*B*var_k*alpha),
    two complex exponentials a row.  The Gaussian takes N/2+1 real
    exponentials a row, in blocks of ``_FORMULA_BLOCK_ROWS`` rows.
    """
    grid = laws.grid
    N = grid.N
    nu = laws._nu
    size = nu.size
    # w = c_m F_m / N, zero beyond m = N/2.  Over the (re, im) pairs of
    # p = phase * Gaussian, sum Re(p*w) is a real dot product with the
    # pairs of conj(w), and sum Re(p*(alpha + i*nu)*w) one with those of
    # (alpha - i*nu)*conj(w)
    weight = np.zeros(size, dtype=complex)
    weight[: eta_hat.size] = np.conj(eta_hat) * (2.0 / N)
    weight[[0, eta_hat.size - 1]] /= 2.0
    weights = np.stack((weight, (alpha - 1j * nu) * weight)).view(float)[: len(sums)].T
    var = laws.var
    tilt = (1j * grid.dnu * alpha) * var[rows]
    coarse = _powers(np.exp(laws._m_fine.size * tilt), laws._m_coarse.size)
    coarse *= laws._coarse
    fine = _powers(np.exp(tilt), laws._m_fine.size)
    fine *= laws._fine
    for start in range(0, rows.size, _FORMULA_BLOCK_ROWS):
        block = slice(start, start + _FORMULA_BLOCK_ROWS)
        k = rows[block]
        p = np.multiply(coarse[block, :, None], fine[block, None, :], out=laws._phases[: k.size])
        p = p.reshape(k.size, size)
        g = np.multiply.outer(-var[k], laws._half_nu_sq, out=laws._gaussians[: k.size])
        p *= np.exp(g, out=g)
        sums[:, k] = scale[k] * (p.view(float) @ weights).T


def _banded_sum(sums, rows, eta, laws, alpha):
    """Rows ``rows`` of the per-row sums against the sampled, tilted increment law.

    Row k sums eta at the nodes k + w/dx (indices mod N) over the
    offsets w = c_k + o_j of its band in ``laws``, weighted by
    phi_k(nu - i*alpha) sampled in real space.  That tilted density is
    the untilted one times exp(alpha*w):

        scale_k * exp(-(w - mean_k - var_k*alpha)^2 / (2*var_k))
            = exp(-(w - mean_k)^2 / (2*var_k)) * exp(alpha*w).

    So the expectation sums[0, k] is the row factor exp(alpha*c_k)
    times the gathered eta, weighted by the cached K0 and dotted with
    the column factors exp(alpha*o_j).  When ``sums`` has a second row,
    the gradient sum sums[1, k] weights the same terms by
    (w - mean_k)/var_k.  With w - mean_k = (c_k - mean_k) + o_j that
    needs one more column vector, o_j*exp(alpha*o_j).  A block holds
    about ``_ROW_BLOCK`` * (N/2 + 1) entries.
    """
    offsets = laws._band_offsets
    column = np.exp(alpha * offsets)
    columns = np.stack((column, offsets * column))[: len(sums)].T
    wrapped = np.concatenate((eta, eta[: offsets.size - 1]))
    steps = np.arange(offsets.size)
    moments = np.empty((rows.size, len(sums)))
    block = len(laws._band_indices)
    for start in range(0, rows.size, block):
        k = slice(start, start + block)
        starts = laws._band_starts[k]
        index = np.add(starts[:, None], steps, out=laws._band_indices[: starts.size])
        gathered = np.take(wrapped, index, out=laws._band_samples[: starts.size], mode="clip")
        gathered *= laws._band_weights[k]
        np.matmul(gathered, columns, out=moments[k])
    row = np.exp(alpha * laws._band_centres)
    sums[0, rows] = row * moments[:, 0]
    if len(sums) > 1:
        first = row * (moments[:, 1] + laws._band_gaps * moments[:, 0])
        sums[1, rows] = first / laws.var[rows]


def convolve_step_statedep(eta: np.ndarray, laws: NodeLaws, alpha: float, kinds):
    """Convolution step whose drift and vol may differ per space node.

    Needed when drift or vol depend on the state: node x_k then carries
    its own increment law, frozen at the conditioning point, and the
    inverse FFT no longer applies.  ``laws`` holds those laws and every
    table alpha does not enter; ``eta``, alpha and the kinds are as
    for ``convolve_step``.

    Row k's tilted law phi_k(nu - i*alpha) is
    scale_k * exp(i*nu*(mean_k + var_k*alpha) - var_k*nu^2/2) with
    scale_k = exp(alpha*(mean_k + var_k*alpha/2)).  Each row takes the
    route ``laws`` gave it.  A band row sums eta against its sampled,
    tilted increment density, O(band) work per row; the tilt moves the
    density's centre by sd_k*alpha standard deviations off the band's,
    and above BAND_TILT_LIMIT of them this is a ValueError.  Every other
    row sums out the real-FFT formula, O(N) work per row.  Both routes
    return the expectation E_k and, when a gradient is requested, the
    gradient sum G_k, the row's sum under the multiplier (alpha + i*nu),
    and each kind follows from them: theta_E = E and theta_Z = vol*G.
    One rfft gives F_{N/2}, and each kind's residual guard takes the
    largest per-row Nyquist term |Im(psi_k(nu_{N/2}) F_{N/2})| / N over
    all rows.
    Returns one ``(theta, residual)`` per kind like ``convolve_step``.
    """
    grid = laws.grid
    N = grid.N
    eta = _check_eta(eta, grid)
    reach = abs(alpha) * laws._band_sd
    if reach > BAND_TILT_LIMIT:
        raise ValueError(
            f"dampening alpha = {alpha:.6g} moves a banded kernel {reach:.3g} standard "
            f"deviations off its band, above the limit {BAND_TILT_LIMIT:.3g}"
        )
    tilt = laws.var * alpha
    scale = np.exp(alpha * (laws.mean + 0.5 * laws.var * alpha))

    eta_hat = np.fft.rfft(eta)
    psi_max = scale * laws._nyquist * np.exp(1j * laws._nu_max * tilt)
    nyquist = _kind_rows(psi_max, laws._vol_i_nu_max, laws.vol * alpha, kinds) * eta_hat[-1]

    sums = np.empty((1 + (GRADIENT in kinds), N))
    if laws.band_rows.size:
        _banded_sum(sums, laws.band_rows, eta, laws, alpha)
    if laws.formula_rows.size:
        _row_formula(sums, laws.formula_rows, eta_hat, laws, alpha, scale)
    thetas = (sums[0] if kind == EXPECTATION else laws.vol * sums[1] for kind in kinds)
    return [
        _guard(theta, float(np.max(np.abs(row.imag))), N)
        for theta, row in zip(thetas, nyquist)
    ]
