"""Brent's minimiser (golden section with parabolic steps), the package's one scalar solver.

It is deterministic: identical inputs produce bit-identical outputs (pure
floating-point arithmetic, no randomness, no early exits that depend on
timing).  No root finder is needed: each depth is one minimisation, and the
core radius follows from one more in closed form (``deuteron.core_radius``).
"""

from __future__ import annotations

import math
from typing import Callable

from ..errors import RefinementError

_GOLDEN_STEP = 0.5 * (3.0 - math.sqrt(5.0))  # share of the larger segment that a golden step covers
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
