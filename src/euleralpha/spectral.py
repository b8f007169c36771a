"""
Periodic grid, transforms, and Fourier-multiplier operators.

This is the one operator layer: the solver, the sweeps and the runtime
self-checks transform fields and apply derivatives, the Laplacian and the
Helmholtz operator through the functions below, the same ones the test
suite checks.

All fields live on a uniform N x N grid covering [0, 2pi)^2, so wavenumbers
are integers. Scalar fields are represented two ways:

* physical: real ``(n, n)`` arrays indexed ``[ix, iy]`` (x is axis 0),
* spectral: complex ``(n, n)`` arrays of unnormalized forward-FFT
  coefficients in numpy's standard frequency ordering, or a leading block
  of their columns ky = 0..w-1 (``rfft2`` layout). A real dealiased field is
  all in its columns ky = 0..kmax_dealias, and states keep only those. Every
  multiplier below acts on the full spectrum or on any such block, shape
  ``(..., n, w)``, by slicing the grid's table to w; :func:`l2_inner` reads
  the retained columns.

Transform normalization (fixed once, relied on throughout):

    coeff(k) = sum_x f(x) exp(-i k.x)

so the Fourier-series amplitude of mode k is ``coeff(k) / n**2`` and
Parseval reads ``sum_grid f**2 == sum_k |coeff(k)|**2 / n**2``. Domain
integrals follow as ``int f dx = (2pi)**2 * coeff(0,0) / n**2`` and
``int f*g dx = (2pi)**2 * sum_k conj(F) G / n**4``.

Dealiasing uses the 2/3 rule: a mode is kept iff ``|kx| < n/3`` and
``|ky| < n/3``, which in particular always removes the Nyquist modes.
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

    Parameters
    ----------
    n : int
        Grid points per dimension; must be even and >= 8.

    Attributes
    ----------
    x : ndarray, shape (n,)
        Collocation coordinates ``2pi * i / n``, per axis.
    kx : ndarray, shape (n,)
        Integer wavenumbers in FFT order (0, 1, ..., -n/2, ..., -1), per axis.
    K2 : ndarray, shape (n, n)
        Squared magnitude ``kx**2 + ky**2``.
    DX, DY : ndarray, shapes (n, 1) and (1, n), complex
        First-derivative multipliers ``i*k``, Nyquist mode zeroed; they broadcast.
    dealias_mask : ndarray of bool, shape (n, n)
        True iff ``|kx| < n/3`` and ``|ky| < n/3`` (2/3 rule).
    kmax_dealias : int
        Largest retained wavenumber magnitude per axis.
    h : float
        Grid spacing ``2pi / n``.
    """

    n: int
    x: np.ndarray = field(init=False, repr=False)
    kx: np.ndarray = field(init=False, repr=False)
    K2: np.ndarray = field(init=False, repr=False)
    DX: np.ndarray = field(init=False, repr=False)
    DY: np.ndarray = field(init=False, repr=False)
    dealias_mask: np.ndarray = field(init=False, repr=False)
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
        s(self, "K2", k1[:, None] ** 2 + k1[None, :] ** 2)
        # zero the (unpaired) Nyquist wavenumber in first derivatives
        kd = k1.copy()
        kd[n // 2] = 0.0
        s(self, "DX", 1j * kd[:, None])
        s(self, "DY", 1j * kd[None, :])
        cut = n / 3.0
        kept = np.abs(k1) < cut
        s(self, "dealias_mask", kept[:, None] & kept[None, :])
        s(self, "kmax_dealias", int(np.ceil(cut)) - 1)
        s(self, "h", 2.0 * np.pi / n)
        s(self, "_rhs_factors", [None, np.empty((2, n, n // 2 + 1))])


def forward_transform(values: np.ndarray) -> np.ndarray:
    """Physical samples -> unnormalized Fourier coefficients."""
    return np.fft.fft2(np.asarray(values, dtype=np.float64))


def _ifft_real(coeffs: np.ndarray) -> np.ndarray:
    # inverse of a full Hermitian spectrum, for the snapshots and the checks
    return np.fft.ifft2(coeffs).real


def columns_to_grid(block: np.ndarray, n: int) -> np.ndarray:
    """
    Real ``(n, n)`` samples of the fields whose spectra have the columns ky = 0..w-1
    ``block`` (last axes ``(n, w)``, w <= n/2 + 1) and zeros above: the two 1D passes
    ``irfft2(block, s=(n, n))`` makes, without its nd wrapper, so bit for bit the same.
    """
    return np.fft.irfft(np.fft.ifft(block, axis=-2), n=n, axis=-1)


def grid_to_columns(values: np.ndarray, w: int) -> np.ndarray:
    """
    The columns ky = 0..w-1 of the real grid fields' spectra, ``rfft2(values)[..., :w]``
    bit for bit, with the axis-0 pass on those w columns only.
    """
    return np.fft.fft(np.fft.rfft(values)[..., :w], axis=-2)


def rhs_factors(grid: TorusGrid, alpha: float) -> np.ndarray:
    """
    Real factors on the half spectrum ky = 0..n/2 taking q to the stream
    function and to -Lap w, for the last alpha asked for, written into a
    buffer made with the grid: an array kept from mid-run can split the heap.
    """
    cached_alpha, factors = grid._rhs_factors
    if cached_alpha != alpha:
        k2 = grid.K2[:, : grid.n // 2 + 1]
        smooth = 1.0 + alpha**2 * k2
        np.divide(1.0, smooth * np.where(k2 == 0.0, 1.0, k2), out=factors[0])
        np.divide(k2, smooth, out=factors[1])
        grid._rhs_factors[0] = alpha
    return factors


def laplacian(grid: TorusGrid, coeffs: np.ndarray) -> np.ndarray:
    """Spectral Laplacian, multiplier ``-k**2``."""
    return -grid.K2[:, : coeffs.shape[-1]] * coeffs


def helmholtz(grid: TorusGrid, coeffs: np.ndarray, alpha: float) -> np.ndarray:
    """Apply ``1 - alpha**2 * Lap``, i.e. the multiplier ``1 + alpha**2 k**2``."""
    return (1.0 + alpha**2 * grid.K2[:, : coeffs.shape[-1]]) * coeffs


def inverse_helmholtz(grid: TorusGrid, coeffs: np.ndarray, alpha: float) -> np.ndarray:
    """Apply ``(1 - alpha**2 * Lap)^-1``, the smoothing filter ``1/(1 + alpha**2 k**2)``."""
    return coeffs / (1.0 + alpha**2 * grid.K2[:, : coeffs.shape[-1]])


def ddx(grid: TorusGrid, coeffs: np.ndarray) -> np.ndarray:
    """Spectral d/dx (Nyquist zeroed)."""
    return grid.DX * coeffs


def ddy(grid: TorusGrid, coeffs: np.ndarray) -> np.ndarray:
    """Spectral d/dy (Nyquist zeroed)."""
    return grid.DY[:, : coeffs.shape[-1]] * coeffs


def dealias(grid: TorusGrid, coeffs: np.ndarray) -> np.ndarray:
    """Zero all modes outside the 2/3-rule mask (idempotent)."""
    return coeffs * grid.dealias_mask[:, : coeffs.shape[-1]]


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
