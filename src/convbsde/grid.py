"""Coupled space/frequency grids for spectral convolution.

The solver evaluates conditional expectations by multiplying discrete
Fourier transforms with sampled frequency multipliers.  For that product
to represent a convolution on the space grid, the frequency grid must be
matched to it: with N nodes and space width l the frequency step is
dnu = 2*pi/l, so the frequency width L = N*dnu satisfies L*l = 2*pi*N.
A grid is therefore fixed by three numbers, N, its center and its half
width; every other quantity is derived from them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MIN_LOG2N = 2
MAX_LOG2N = 24


@dataclass(frozen=True)
class GridPair:
    """Uniform space grid with its matched frequency grid.

    Space nodes are x_k = x0 + k*dx for k = 0..N; only x_0..x_{N-1}
    enter a DFT, and the value at x_N is recovered afterwards by the
    periodic wrap theta(x_N) = theta(x_0).  The middle node x_{N/2}
    equals ``center`` so the initial state needs no interpolation.
    The real-FFT frequency nodes are nu_m = m*dnu for m = 0..N/2.

    Only N, the number of DFT nodes (a power of two), the midpoint
    ``center`` and ``half_width`` are stored; the properties below derive
    every other grid value from them.
    """

    N: int
    center: float
    half_width: float

    @property
    def x0(self) -> float:
        """Left space endpoint."""
        return self.center - self.half_width

    @property
    def l(self) -> float:
        """Space width."""
        return 2.0 * self.half_width

    @property
    def dx(self) -> float:
        """Space step l/N, exact in binary since N is a power of two."""
        return self.l / self.N

    @property
    def dnu(self) -> float:
        """Frequency step 2*pi/l."""
        return 2.0 * np.pi / self.l

    def space_nodes(self, include_right: bool = False) -> np.ndarray:
        """Space nodes x_0..x_{N-1}, or x_0..x_N if ``include_right``.

        Nodes are anchored at the center so x_{N/2} equals ``center``
        bit for bit; dx*(N/2) reproduces half_width exactly because N
        is a power of two, so the endpoints x_0 and x_N are exact too.
        """
        count = self.N + 1 if include_right else self.N
        return self.center + self.dx * (np.arange(count) - self.N // 2)

    def frequencies(self) -> np.ndarray:
        """Real-FFT frequency nodes nu_m = m*dnu for m = 0..N/2."""
        return self.dnu * np.arange(self.N // 2 + 1)


def build_grid(center: float, half_width: float, log2N: int) -> GridPair:
    """Grid of 2**log2N nodes over [center - half_width, center + half_width].

    center is typically the initial state of the forward process.
    Raises ValueError unless center is finite, half_width positive and
    log2N an integer in [2, 24].
    """
    if not np.isfinite(center):
        raise ValueError("center must be finite")
    if not half_width > 0:
        raise ValueError("half_width must be positive")
    if int(log2N) != log2N or not MIN_LOG2N <= log2N <= MAX_LOG2N:
        raise ValueError(f"log2N must be an integer in [{MIN_LOG2N}, {MAX_LOG2N}]")
    return GridPair(N=2 ** int(log2N), center=center, half_width=half_width)
