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
  coefficients in numpy's standard frequency ordering. States keep all of
  them; the RHS transforms only the half ky = 0..n/2 (``rfft2`` layout)
  and returns only the retained columns ky = 0..kmax_dealias, which
  :func:`add_columns` adds back to a full spectrum.

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

#: tolerance of the stream-function solve's mean check (relative to the field magnitude)
_MEAN_RTOL = 1e-9


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
    X, Y : ndarray, shape (n, n)
        Collocation coordinates ``2pi * i / n`` as a meshgrid, ``indexing="ij"``.
    kx : ndarray, shape (n,)
        Integer wavenumbers in FFT order (0, 1, ..., -n/2, ..., -1), per axis.
    KX, KY, K2, K2_nonzero : ndarray, shape (n, n)
        Wavenumber meshes, squared magnitude ``kx**2 + ky**2``, and K2 with 1 at k = 0.
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
    X: np.ndarray = field(init=False, repr=False)
    Y: np.ndarray = field(init=False, repr=False)
    kx: np.ndarray = field(init=False, repr=False)
    KX: np.ndarray = field(init=False, repr=False)
    KY: np.ndarray = field(init=False, repr=False)
    K2: np.ndarray = field(init=False, repr=False)
    K2_nonzero: np.ndarray = field(init=False, repr=False)
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
        x = 2.0 * np.pi * np.arange(n) / n
        X, Y = np.meshgrid(x, x, indexing="ij")
        s(self, "X", X)
        s(self, "Y", Y)
        k1 = np.fft.fftfreq(n, 1.0 / n)  # integer-valued floats
        s(self, "kx", k1)
        KX, KY = np.meshgrid(k1, k1, indexing="ij")
        s(self, "KX", KX)
        s(self, "KY", KY)
        s(self, "K2", KX**2 + KY**2)
        s(self, "K2_nonzero", np.where(self.K2 == 0.0, 1.0, self.K2))
        # zero the (unpaired) Nyquist wavenumber in first derivatives
        kd = k1.copy()
        kd[n // 2] = 0.0
        s(self, "DX", 1j * kd[:, None])
        s(self, "DY", 1j * kd[None, :])
        cut = n / 3.0
        s(self, "dealias_mask", (np.abs(KX) < cut) & (np.abs(KY) < cut))
        s(self, "kmax_dealias", int(np.ceil(cut)) - 1)
        s(self, "h", 2.0 * np.pi / n)
        s(self, "_rhs_factors", [None, np.empty((2, n, n // 2 + 1))])


def forward_transform(values: np.ndarray) -> np.ndarray:
    """Physical samples -> unnormalized Fourier coefficients."""
    return np.fft.fft2(np.asarray(values, dtype=np.float64))


def _ifft_real(coeffs: np.ndarray) -> np.ndarray:
    # hot-path inverse for internally constructed (Hermitian) data
    return np.fft.ifft2(coeffs).real


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
        np.divide(1.0, smooth * grid.K2_nonzero[:, : k2.shape[1]], out=factors[0])
        np.divide(k2, smooth, out=factors[1])
        grid._rhs_factors[0] = alpha
    return factors


def add_columns(coeffs: np.ndarray, block: np.ndarray) -> np.ndarray:
    """
    ``coeffs`` plus the real field's spectrum whose columns ky = 0..w-1 are
    ``block`` (shape ``(n, w)``, w <= n/2): the block is added to those
    columns and its conjugate reflection conj(block[-kx, ky]) to the columns
    -ky; every other column of ``coeffs`` is kept. Returns a new array.
    """
    n, w = block.shape
    out = coeffs.copy()
    out[:, :w] += block
    out[:, n - w + 1 :] += np.conjugate(block[-np.arange(n) % n, w - 1 : 0 : -1])
    return out


def laplacian(grid: TorusGrid, coeffs: np.ndarray) -> np.ndarray:
    """Spectral Laplacian, multiplier ``-k**2``."""
    return -grid.K2 * coeffs


def helmholtz(grid: TorusGrid, coeffs: np.ndarray, alpha: float) -> np.ndarray:
    """Apply ``1 - alpha**2 * Lap``, i.e. the multiplier ``1 + alpha**2 k**2``."""
    return (1.0 + alpha**2 * grid.K2) * coeffs


def inverse_helmholtz(grid: TorusGrid, coeffs: np.ndarray, alpha: float) -> np.ndarray:
    """Apply ``(1 - alpha**2 * Lap)^-1``, the smoothing filter ``1/(1 + alpha**2 k**2)``."""
    return coeffs / (1.0 + alpha**2 * grid.K2)


def ddx(grid: TorusGrid, coeffs: np.ndarray) -> np.ndarray:
    """Spectral d/dx (Nyquist zeroed)."""
    return grid.DX * coeffs


def ddy(grid: TorusGrid, coeffs: np.ndarray) -> np.ndarray:
    """Spectral d/dy (Nyquist zeroed)."""
    return grid.DY * coeffs


def stream_from_omega(grid: TorusGrid, omega_hat: np.ndarray) -> np.ndarray:
    """
    Solve ``-Lap psi = omega`` for the stream function.

    psi_hat(k) = omega_hat(k) / k**2 for k != 0, with the k = 0 mode pinned
    to zero (gauge). The input must be mean-zero; a nonzero mean makes the
    inversion ill-posed and is rejected.
    """
    scale = np.abs(omega_hat).max()
    if np.abs(omega_hat[0, 0]) > _MEAN_RTOL * (1.0 + scale):
        raise ValueError("stream-function solve requires a mean-zero vorticity")
    psi_hat = omega_hat / grid.K2_nonzero
    psi_hat[0, 0] = 0.0
    return psi_hat


def dealias(grid: TorusGrid, coeffs: np.ndarray) -> np.ndarray:
    """Zero all modes outside the 2/3-rule mask (idempotent)."""
    return coeffs * grid.dealias_mask


def integral(grid: TorusGrid, coeffs: np.ndarray) -> float:
    """Exact domain integral of the field, ``(2pi)**2 * coeff(0,0) / n**2``."""
    return float(coeffs[0, 0].real) * (2.0 * np.pi) ** 2 / grid.n**2


def l2_inner(grid: TorusGrid, f_hat: np.ndarray, g_hat: np.ndarray) -> float:
    """Exact L2 inner product ``int f g dx`` by Parseval."""
    return float(np.sum(np.conj(f_hat) * g_hat).real) * (2.0 * np.pi) ** 2 / grid.n**4


def l2_norm(grid: TorusGrid, f_hat: np.ndarray) -> float:
    """Exact L2 norm ``sqrt(int f**2 dx)``."""
    return float(np.sqrt(max(l2_inner(grid, f_hat, f_hat), 0.0)))
