"""Matrix-free d/dp and the dense derivative matrices."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .grids import MomentumGrid, OperatorMatrix


def derivative_matrix(grid: MomentumGrid, order: int, scheme: str = "central") -> OperatorMatrix:
    """Dense d/dp or d^2/dp^2 on the grid, with zero boundary values assumed outside.

    ``scheme="central"`` gives the 3-point stencils (2nd-order accurate);
    ``scheme="spectral"`` gives the sinc (Fourier-grid) matrices, spectrally
    accurate for functions that decay inside the grid.  Both first-derivative
    matrices are globally antisymmetric, so i*D1 is exactly Hermitian.
    """
    n, h = grid.n, grid.spacing
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    if scheme == "central":
        m = np.zeros((n, n))
        i = np.arange(n - 1)
        if order == 1:
            m[i, i + 1] = 1.0 / (2.0 * h)
            m[i + 1, i] = -1.0 / (2.0 * h)
        else:
            m[i, i + 1] = 1.0 / h**2
            m[i + 1, i] = 1.0 / h**2
            np.fill_diagonal(m, -2.0 / h**2)
    elif scheme == "spectral":
        idx = np.arange(n)
        d = idx[:, None] - idx[None, :]  # i - j
        safe = np.where(d != 0, d, 1)
        if order == 1:
            m = np.where(d != 0, (-1.0) ** d / (safe * h), 0.0)
        else:
            m = np.where(d != 0, -2.0 * (-1.0) ** d / (safe**2 * h**2), 0.0)
            np.fill_diagonal(m, -np.pi**2 / (3.0 * h**2))
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    return OperatorMatrix(m, grid)


@lru_cache(maxsize=64)
def _d1_spectrum(n: int, h: float) -> np.ndarray:
    """FFT of the spectral d/dp lags 0 ... n-1, a zero, then the lags -(n-1) ... -1 wrapped; read-only."""
    k = np.arange(1, n)
    lag = (-1.0) ** k / (k * h)  # D[i, j] at i - j = k; the matrix is antisymmetric
    spectrum = np.fft.fft(np.r_[0.0, lag, 0.0, -lag[::-1]])
    spectrum.flags.writeable = False  # every caller shares the cached array
    return spectrum


def apply_d1(f: np.ndarray, h: float, scheme: str = "central", axis: int = 0) -> np.ndarray:
    """d/dp of the samples ``f`` along ``axis`` on a grid of spacing ``h``, without a matrix.

    Returns what ``derivative_matrix(grid, 1, scheme).entries`` applied along
    ``axis`` returns.  The central scheme differences slices, then scales by
    1/2h in one pass; it returns a real array for real input.  The spectral
    matrix D[i, j] = (-1)^(i-j) / ((i-j) h) is Toeplitz, so it is applied as a
    linear convolution by zero-padded FFT of length 2n, with the kernel's
    spectrum cached per (n, h); its result is always complex.
    """
    f = np.asarray(f)
    n = f.shape[axis]
    if scheme == "central":
        out = np.empty(f.shape, np.result_type(f, float))
        fa, oa = f.swapaxes(0, axis), out.swapaxes(0, axis)
        np.subtract(fa[2:], fa[:-2], out=oa[1:-1])
        oa[0], oa[-1] = fa[1], -fa[-2]
        out *= 0.5 / h
        return out
    if scheme != "spectral":
        raise ValueError(f"unknown scheme {scheme!r}")
    shape = [1] * f.ndim
    shape[axis] = 2 * n
    out = np.fft.ifft(np.fft.fft(f, 2 * n, axis=axis) * _d1_spectrum(n, h).reshape(shape), axis=axis)
    return out.swapaxes(0, axis)[:n].swapaxes(0, axis)
