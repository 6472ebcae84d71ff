"""Golden-section minimisation and Brent root bracketing.

Both solvers are deterministic: identical inputs produce bit-identical
outputs (pure floating-point arithmetic, no randomness, no tolerance-dependent
early exits that depend on timing).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..errors import BracketingError, RefinementError

_GOLDEN = 0.5 * (np.sqrt(5.0) - 1.0)


def golden_section(
    f: Callable[[float], float], a: float, b: float, tol: float = 1e-9
) -> tuple[float, float]:
    """Golden-section search on [a, b]; assumes a single minimum inside."""
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def find_root(
    f: Callable[[float], float],
    bracket: tuple[float, float],
    tol: float = 1e-10,
    max_iter: int = 200,
) -> float:
    """Brent's method with a bisection fallback.

    Requires f(lo) * f(hi) < 0.  Stops when the bracket width falls below
    ``tol`` (plus machine-precision slack) or an exact zero is hit; raises
    RefinementError, with the final bracket, after ``max_iter`` iterations.
    """
    a, b = float(bracket[0]), float(bracket[1])
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if fa * fb > 0:
        raise BracketingError(f"no sign change: f({a})={fa!r}, f({b})={fb!r}")
    c, fc = a, fa
    d = e = b - a
    eps = np.finfo(float).eps
    for _ in range(max_iter):
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol1 = 2.0 * eps * abs(b) + 0.5 * tol
        m = 0.5 * (c - b)
        if abs(m) <= tol1 or fb == 0.0:
            return b
        if abs(e) < tol1 or abs(fa) <= abs(fb):
            d = e = m
        else:
            s = fb / fa
            if a == c:
                p = 2.0 * m * s
                q = 1.0 - s
            else:
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0:
                q = -q
            else:
                p = -p
            s, e = e, d
            if 2.0 * p < 3.0 * m * q - abs(tol1 * q) and p < abs(0.5 * s * q):
                d = p / q
            else:
                d = e = m
        a, fa = b, fb
        if abs(d) > tol1:
            b += d
        else:
            b += tol1 if m > 0 else -tol1
        fb = f(b)
        if (fb > 0) == (fc > 0):
            c, fc = a, fa
            d = e = b - a
    raise RefinementError(
        f"root not converged after {max_iter} iterations: bracket [{min(b, c):.12g}, {max(b, c):.12g}] "
        f"of width {abs(c - b):.3g} (tol {tol:g})"
    )
