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
one.  ``IncrementSpectrum`` keeps phi(nu), so a step takes one rfft of
its samples and one stacked irfft for all requested kinds.

``dft`` and ``idft`` state the DFT convention: the forward transform
carries the 1/N factor, the inverse none.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .grid import GridPair
from .transform import EXPECTATION, GRADIENT

# Largest tolerated imaginary residual of a convolution output,
# relative to its real magnitude.  A breach signals a mis-specified
# multiplier or an unresolved kernel rather than roundoff.
IMAG_RESIDUAL_TOLERANCE = 1e-8

# Rows per block of the state-dependent step; bounds its work arrays.
_ROW_BLOCK = 16


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


@dataclass(frozen=True)
class PsiKind:
    """Frequency multiplier of one convolution step.

    tag "expectation" computes the conditional expectation of the next
    solution values: psi(nu) = phi(nu - i*alpha).  tag "gradient"
    computes the martingale-increment functional estimating
    vol * d/dx of that expectation: psi(nu) = vol*(alpha + i*nu) *
    phi(nu - i*alpha).  Here phi is ``increment_cf`` for the step and
    alpha the dampening exponent of the periodization transform.

    drift and vol are scalars for ``convolve_step``.  For
    ``convolve_step_statedep`` either may also be a length-N array
    holding the coefficient frozen at each space node.
    """

    tag: str
    alpha: float
    step: float
    drift: float | np.ndarray = 0.0
    vol: float | np.ndarray = 1.0

    def values(self, nu: np.ndarray) -> np.ndarray:
        """Evaluate the multiplier on the frequency nodes."""
        phi = increment_cf(nu - 1j * self.alpha, self.step, self.drift, self.vol)
        if self.tag == EXPECTATION:
            return phi
        if self.tag == GRADIENT:
            return self.vol * (self.alpha + 1j * np.asarray(nu)) * phi
        raise ValueError(f"unknown psi tag: {self.tag!r}")


def _check_eta(eta, grid: GridPair) -> np.ndarray:
    eta = np.asarray(eta, dtype=float)
    if eta.ndim != 1 or eta.size != grid.N:
        raise ValueError(f"eta must have length N = {grid.N}")
    return eta


def _per_row(value, N: int) -> np.ndarray:
    """A scalar or length-N coefficient as an (N, 1) column of rows."""
    value = np.asarray(value, dtype=float)
    if value.shape not in ((), (N,)):
        raise ValueError(f"drift and vol must be scalars or have length N = {N}")
    return np.broadcast_to(value, (N,))[:, None]


def _guard(theta: np.ndarray, nyquist_imag: float, N: int):
    """Relative imaginary residual from the Nyquist bin; raise above tolerance."""
    max_re = max(float(np.max(np.abs(theta))), 1e-300)
    residual = nyquist_imag / N / max_re
    if residual > IMAG_RESIDUAL_TOLERANCE:
        raise ImaginaryResidualError(residual, IMAG_RESIDUAL_TOLERANCE)
    return theta, residual


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
        self._i_vol_nu = 1j * self.vol * nu
        fine = int(np.ceil(np.sqrt(nu.size)))
        self._fine = np.arange(fine, dtype=float)
        self._coarse = fine * np.arange(-(-nu.size // fine), dtype=float)

    def multipliers(self, alpha: float, kinds) -> np.ndarray:
        """The psi multiplier of each kind on the frequency nodes.

        Row j holds ``PsiKind(kinds[j], alpha, step, drift, vol).values``
        at nu_m, m = 0..N/2, built from the cached phi(nu): the
        expectation row is phi(nu - i*alpha), the gradient row
        vol*(alpha + i*nu) times it.
        """
        rate = self.step * self.vol**2 * alpha * self.grid.dnu
        scale = self.step * alpha * (self.drift + 0.5 * self.vol**2 * alpha)
        coarse = np.exp(scale + 1j * rate * self._coarse)
        fine = np.exp(1j * rate * self._fine)
        expectation = np.multiply.outer(coarse, fine).ravel()[: self._phi.size]
        expectation *= self._phi
        rows = np.empty((len(kinds), expectation.size), dtype=complex)
        for row, kind in zip(rows, kinds):
            if kind == EXPECTATION:
                row[:] = expectation
            elif kind == GRADIENT:
                np.multiply(self.vol * alpha + self._i_vol_nu, expectation, out=row)
            else:
                raise ValueError(f"unknown psi tag: {kind!r}")
        return rows

    def convolve(self, eta: np.ndarray, alpha: float, kinds):
        """Convolve transformed samples once for each requested kind.

        ``eta`` is the first output of ``apply_transform`` for dampening
        exponent ``alpha``, length N; ``kinds`` holds EXPECTATION and/or
        GRADIENT tags.  One rfft of eta feeds every kind and one irfft
        of the stacked products returns them all.  Returns a list with
        one ``(theta, residual)`` per kind, as ``convolve_step`` does.

        Raises
        ------
        ImaginaryResidualError
            If a residual exceeds ``IMAG_RESIDUAL_TOLERANCE``.
        """
        eta = _check_eta(eta, self.grid)
        products = self.multipliers(alpha, kinds)
        products *= np.fft.rfft(eta)
        thetas = np.fft.irfft(products, self.grid.N)
        return [
            _guard(theta, abs(row[-1].imag), self.grid.N)
            for theta, row in zip(thetas, products)
        ]


def convolve_step(eta: np.ndarray, grid: GridPair, psi: PsiKind):
    """Convolve transformed samples against the psi multiplier.

    ``eta`` must already be periodized and dampened (the first output
    of ``apply_transform``), length N, and psi's drift and vol scalars.
    Returns ``(theta, residual)``: theta at the nodes x_0..x_{N-1} and
    the relative imaginary residual that was discarded.  A solve keeps one
    ``IncrementSpectrum`` across its steps instead.

    Raises
    ------
    ImaginaryResidualError
        If that residual exceeds ``IMAG_RESIDUAL_TOLERANCE``.
    """
    law = IncrementSpectrum(grid, psi.step, psi.drift, psi.vol)
    (result,) = law.convolve(eta, psi.alpha, (psi.tag,))
    return result


def convolve_step_statedep(eta: np.ndarray, grid: GridPair, psi: PsiKind):
    """Convolution step whose drift and vol may differ per space node.

    Needed when drift or vol depend on the state: node x_k then carries
    its own increment law, frozen at the conditioning point, and the
    inverse FFT no longer applies.  psi's drift and vol are scalars or
    length-N arrays (entry k belongs to node x_k); tag, alpha and step
    are shared by every row.  Row k is the real-FFT formula summed out,
    theta_k = (1/N) sum_m c_m Re(exp(2*pi*i*m*k/N) psi_k(nu_m) F_m) with
    F = rfft(eta) and c = 1, 2, ..., 2, 1, in blocks of rows.  Returns
    ``(theta, residual)`` like ``convolve_step``; the residual guard
    takes the largest per-row Nyquist term.
    """
    eta = _check_eta(eta, grid)
    N = grid.N
    drift = _per_row(psi.drift, N)
    vol = _per_row(psi.vol, N)

    nu = grid.frequencies()
    spectrum = np.fft.rfft(eta)
    pair_count = np.full(nu.size, 2.0)
    pair_count[[0, -1]] = 1.0
    m = np.arange(nu.size)
    roots = np.exp((2j * np.pi / N) * np.arange(N))
    theta = np.empty(N)
    nyquist_imag = np.empty(N)
    for start in range(0, N, _ROW_BLOCK):
        rows = slice(start, start + _ROW_BLOCK)
        k = np.arange(start, min(start + _ROW_BLOCK, N))[:, None]
        block = replace(psi, drift=drift[rows], vol=vol[rows]).values(nu) * spectrum
        theta[rows] = (roots[(k * m) % N] * block).real @ pair_count / N
        nyquist_imag[rows] = np.abs(block[:, -1].imag)
    return _guard(theta, float(np.max(nyquist_imag)), N)
