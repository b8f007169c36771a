"""
Periodic grid, transforms, and Fourier-multiplier operators.

This is the one operator layer: the solver, the sweeps and the runtime
self-checks transform fields and apply derivatives, the Laplacian and the
Helmholtz operator through the functions below, the same ones the test
suite checks.

All fields live on a uniform N x N grid covering [0, 2pi)^2, so wavenumbers
are integers. Scalar fields are represented two ways:

* physical: real ``(n, n)`` arrays indexed ``[ix, iy]`` (x is axis 0),
* spectral: complex arrays of unnormalized forward-FFT coefficients in
  numpy's standard frequency ordering. A real dealiased field is all in its
  retained block, the ``(n, kmax_dealias + 1)`` columns ky = 0..kmax_dealias
  (``rfft2`` layout): states, initial conditions, sweep payloads and
  :func:`rhs_factors` hold only it. ``SimState.q_hat`` expands it to the
  full ``(n, n)`` spectrum. Every multiplier below acts on either, or on any
  leading block ``(..., n, w)``: it forms its ``(n, w)`` table of k^2 or of
  the mask from the grid's per-axis vectors, for the w columns it is given.

Transform normalization (numpy's unnormalized ``fft2``, fixed once, relied on throughout):

    coeff(k) = sum_x f(x) exp(-i k.x)

so the Fourier-series amplitude of mode k is ``coeff(k) / n**2`` and
Parseval reads ``sum_grid f**2 == sum_k |coeff(k)|**2 / n**2``. Domain
integrals follow as ``int f dx = (2pi)**2 * coeff(0,0) / n**2`` and
``int f*g dx = (2pi)**2 * sum_k conj(F) G / n**4``.

Dealiasing uses the 2/3 rule: a mode is kept iff ``|kx| < n/3`` and
``|ky| < n/3``, which in particular always removes the Nyquist modes. Every
column of the retained block has ky <= kmax_dealias < n/3, so on the block
the mask is its row mask |kx| < n/3, ``TorusGrid.dealias_rows``.
First-derivative multipliers zero the Nyquist wavenumber as well so odd
derivatives of real fields stay real.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class TorusGrid:
    """
    Precomputed spectral quantities for the periodic square [0, 2pi)^2.

    The grid keeps per-axis vectors and the buffer of :func:`rhs_factors`, and no
    ``(n, n)`` table: a multiplier forms its table of k^2 (:func:`k2_table`) or of the
    2/3 mask (:func:`dealias_table`) on the columns it is given.

    Parameters
    ----------
    n : int
        Grid points per dimension, even and >= 8; grids compare and hash by n alone.

    Attributes
    ----------
    x : ndarray, shape (n,)
        Collocation coordinates ``2pi * i / n``, per axis.
    kx : ndarray, shape (n,)
        Integer wavenumbers in FFT order (0, 1, ..., -n/2, ..., -1), per axis.
    kx2 : ndarray, shape (n,)
        Their squares ``kx**2``.
    DX, DY : ndarray, shapes (n, 1) and (1, n), complex
        First-derivative multipliers ``i*k``, Nyquist mode zeroed; they broadcast.
    kept : ndarray of bool, shape (n,)
        True iff ``|k| < n/3`` (2/3 rule), per axis.
    dealias_rows : ndarray of bool, shape (n, 1)
        ``kept`` as a column: the 2/3 mask on every column ky <= kmax_dealias.
    kmax_dealias : int
        Largest retained wavenumber magnitude per axis.
    h : float
        Grid spacing ``2pi / n``.
    """

    n: int
    x: np.ndarray = field(init=False, repr=False, compare=False)
    kx: np.ndarray = field(init=False, repr=False, compare=False)
    kx2: np.ndarray = field(init=False, repr=False, compare=False)
    DX: np.ndarray = field(init=False, repr=False, compare=False)
    DY: np.ndarray = field(init=False, repr=False, compare=False)
    kept: np.ndarray = field(init=False, repr=False, compare=False)
    dealias_rows: np.ndarray = field(init=False, repr=False, compare=False)
    kmax_dealias: int = field(init=False)
    h: float = field(init=False)
    _rhs_factors: list = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n < 8 or self.n % 2 != 0:
            raise ValueError(f"grid size must be even and >= 8, got {self.n}")
        n = self.n
        s = object.__setattr__
        s(self, "x", 2.0 * np.pi * np.arange(n) / n)
        k1 = np.fft.fftfreq(n, 1.0 / n)  # integer-valued floats
        s(self, "kx", k1)
        s(self, "kx2", k1**2)
        # zero the (unpaired) Nyquist wavenumber in first derivatives
        kd = k1.copy()
        kd[n // 2] = 0.0
        s(self, "DX", 1j * kd[:, None])
        s(self, "DY", 1j * kd[None, :])
        cut = n / 3.0
        kept = np.abs(k1) < cut
        s(self, "kept", kept)
        s(self, "dealias_rows", kept[:, None])
        s(self, "kmax_dealias", int(np.ceil(cut)) - 1)
        s(self, "h", 2.0 * np.pi / n)
        s(self, "_rhs_factors", [None, np.empty((2, n, self.kmax_dealias + 1))])


def k2_table(grid: TorusGrid, w: int) -> np.ndarray:
    """A new ``(n, w)`` table of ``kx**2 + ky**2`` on the columns ky < w, the caller's to change."""
    return np.add(grid.kx2[:, None], grid.kx2[None, :w])


def helmholtz_table(grid: TorusGrid, w: int, alpha: float) -> np.ndarray:
    """A new ``(n, w)`` table of ``1 + alpha**2 k**2``, scaled in place, with the bits of that sum."""
    table = k2_table(grid, w)
    table *= alpha**2
    table += 1.0
    return table


def dealias_table(grid: TorusGrid, w: int) -> np.ndarray:
    """The ``(n, w)`` 2/3 mask on the columns ky < w: ``|kx| < n/3`` and ``|ky| < n/3``."""
    return grid.dealias_rows & grid.kept[None, :w]


#: float64 samples in one block of :func:`grid_pass`, 1 MiB (measured in the README);
#: four fields of n <= 181 make one block, which the same loop runs once
_BLOCK_SAMPLES = 1 << 17


def grid_pass(spectra: np.ndarray, pointwise) -> np.ndarray | None:
    """
    Hand the grid fields of ``spectra``, the ``(c, n, w)`` columns ky < w <= n/2 + 1 of
    c real fields' spectra, to ``pointwise`` a block of rows at a time, and return the
    columns ky < w of the spectra of the ``(k, rows, n)`` fields it returns (None if none).
    The axis-0 ``ifft`` runs in ``spectra``, which the pass consumes; per block of at
    most ``_BLOCK_SAMPLES`` samples ``irfft`` fills one reused buffer, the product's
    ``rfft`` columns go into the spent rows of ``spectra[:k]``, and one axis-0 ``fft``
    ends the pass: the 1D passes of ``irfft2`` and ``rfft2``, bit for bit in any blocking.
    """
    c, n, w = spectra.shape
    rows = min(n, max(1, _BLOCK_SAMPLES // (c * n)))
    np.fft.ifft(spectra, axis=1, out=spectra)
    values = np.empty((c, rows, n))
    half = product = None
    for start in range(0, n, rows):
        r = min(rows, n - start)
        product = pointwise(np.fft.irfft(spectra[:, start : start + r], n=n, axis=2,
                                         out=values[:, :r]))
        if product is not None:  # the first rfft makes the buffer the later ones reuse
            half = np.fft.rfft(product, out=None if half is None else half[:, :r])
            spectra[: len(product), start : start + r] = half[..., :w]
    return None if product is None else np.fft.fft(spectra[: len(product)], axis=1)


def rhs_factors(grid: TorusGrid, alpha: float) -> np.ndarray:
    """
    Real factors on the retained block, shape ``(2, n, kmax + 1)``, taking q to the
    stream function and to -Lap w, for the last alpha asked for, written into a
    buffer made with the grid: an array kept from mid-run can split the heap.
    """
    cached_alpha, factors = grid._rhs_factors
    if cached_alpha != alpha:
        w = grid.kmax_dealias + 1
        k2, smooth = k2_table(grid, w), helmholtz_table(grid, w, alpha)
        np.divide(k2, smooth, out=factors[1])
        k2[0, 0] = 1.0  # the mean mode's guard: no other k^2 is 0
        np.divide(1.0, np.multiply(smooth, k2, out=factors[0]), out=factors[0])
        grid._rhs_factors[0] = alpha
    return factors


def laplacian(grid: TorusGrid, coeffs: np.ndarray) -> np.ndarray:
    """Spectral Laplacian, multiplier ``-k**2``."""
    k2 = k2_table(grid, coeffs.shape[-1])
    return np.negative(k2, out=k2) * coeffs


def helmholtz(grid: TorusGrid, coeffs: np.ndarray, alpha: float) -> np.ndarray:
    """Apply ``1 - alpha**2 * Lap``, i.e. the multiplier ``1 + alpha**2 k**2``."""
    return helmholtz_table(grid, coeffs.shape[-1], alpha) * coeffs


def inverse_helmholtz(grid: TorusGrid, coeffs: np.ndarray, alpha: float) -> np.ndarray:
    """Apply ``(1 - alpha**2 * Lap)^-1``, the smoothing filter ``1/(1 + alpha**2 k**2)``."""
    return coeffs / helmholtz_table(grid, coeffs.shape[-1], alpha)


def ddx(grid: TorusGrid, coeffs: np.ndarray) -> np.ndarray:
    """Spectral d/dx (Nyquist zeroed)."""
    return grid.DX * coeffs


def ddy(grid: TorusGrid, coeffs: np.ndarray) -> np.ndarray:
    """Spectral d/dy (Nyquist zeroed)."""
    return grid.DY[:, : coeffs.shape[-1]] * coeffs


def dealias(grid: TorusGrid, coeffs: np.ndarray) -> np.ndarray:
    """Zero all modes outside the 2/3-rule mask (idempotent)."""
    return coeffs * dealias_table(grid, coeffs.shape[-1])


def integral(grid: TorusGrid, coeffs: np.ndarray) -> float:
    """Exact domain integral of the field, ``(2pi)**2 * coeff(0,0) / n**2``."""
    return float(coeffs[0, 0].real) * (2.0 * np.pi) ** 2 / grid.n**2


def l2_inner(grid: TorusGrid, f_hat: np.ndarray, g_hat: np.ndarray) -> float:
    """
    Exact ``int f g dx`` of dealiased fields by Parseval on the retained columns, ky > 0
    twice for -ky; (2pi)^2 / n^4 is in the weights, so only an infinite integral overflows.
    """
    w = grid.kmax_dealias + 1
    weights = np.where(np.arange(w) == 0, 1.0, 2.0) * ((2.0 * np.pi) ** 2 / grid.n**4)
    return float(np.sum((np.conj(f_hat[:, :w]) * g_hat[:, :w]).real * weights))


def l2_norm(grid: TorusGrid, f_hat: np.ndarray) -> float:
    """Exact L2 norm ``sqrt(int f**2 dx)``."""
    return float(np.sqrt(max(l2_inner(grid, f_hat, f_hat), 0.0)))
