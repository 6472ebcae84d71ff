"""Brent's minimiser (golden section with parabolic steps) and Brent root bracketing.

Both solvers are deterministic: identical inputs produce bit-identical
outputs (pure floating-point arithmetic, no randomness, no tolerance-dependent
early exits that depend on timing).
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from ..errors import BracketingError, RefinementError

_GOLDEN_STEP = 0.5 * (3.0 - np.sqrt(5.0))  # share of the larger segment that a golden step covers
_MAX_STEPS = 200  # golden steps alone would shrink the bracket by 1e-41 in as many


def golden_section(
    f: Callable[[float], float], a: float, b: float, tol: float = 1e-9
) -> tuple[float, float]:
    """Brent's minimiser on [a, b]: golden-section search with safeguarded parabolic steps.

    Assumes a single minimum inside.  Each step fits a parabola through the
    best point, the second best and the previous second best, and moves to its
    vertex, unless that vertex leaves the bracket or the step is not below
    half the step before last; then it takes a golden-section step into the
    larger segment instead (R. P. Brent, Algorithms for Minimization without
    Derivatives, 1973, ch. 5).  Steps shorter than tol/3 are lengthened to
    tol/3, and a parabolic step landing within 2 tol/3 of a bracket end moves
    tol/3 towards the middle instead.
    Returns (x, f(x)) once the bracket around x is no wider than ``tol``;
    raises RefinementError, with the final bracket, when 200 steps do not get
    there (a ``tol`` below the float spacing of x never does).
    """
    a, b = float(a), float(b)
    x = w = v = a + _GOLDEN_STEP * (b - a)
    fx = fw = fv = f(x)
    d = e = 0.0
    step = tol / 3.0
    steps = 0
    while b - a > tol:
        if steps == _MAX_STEPS:
            raise RefinementError(
                f"minimum not converged after {_MAX_STEPS} iterations: bracket [{a:.12g}, {b:.12g}] "
                f"of width {b - a:.3g} (tol {tol:g})"
            )
        steps += 1
        mid = 0.5 * (a + b)
        parabolic = False
        if abs(e) > step:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            parabolic = abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x)
        if parabolic:
            e, d = d, p / q
            if min(x + d - a, b - x - d) < 2.0 * step:
                d = step if x < mid else -step
        else:
            e = (b if x < mid else a) - x
            d = _GOLDEN_STEP * e
        u = x + (d if abs(d) >= step else math.copysign(step, d))
        fu = f(u)
        if fu <= fx:
            if u < x:
                b = x
            else:
                a = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    return x, fx


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
