"""Brent minimisation (golden section with parabolic steps)."""

import numpy as np
import pytest

from fuzzyqm.errors import RefinementError
from fuzzyqm.numerics import golden_section


def test_parabola_minimum():
    x, fx = golden_section(lambda x: (x - 2.0) ** 2, 0.0, 5.0, tol=1e-8)
    assert x == pytest.approx(2.0, abs=1e-8)
    assert fx == pytest.approx(0.0, abs=1e-15)


def test_cosh_minimum():
    # cosh has unit offset at the minimum, so function comparisons resolve the
    # minimiser only to ~sqrt(eps); run at a tolerance above that floor
    x, _ = golden_section(lambda x: np.cosh(x - 1.0), -3.0, 3.0, tol=1e-7)
    assert x == pytest.approx(1.0, abs=1e-7)


def test_variational_shape_vs_dense_scan_oracle():
    # the depth-scaled variational curve a x^2 - b x^3/(2x+1)^2 has an interior minimum
    a, b = 320.7, 2643.1

    def f(x):
        return a * x**2 - b * x**3 / (2.0 * x + 1.0) ** 2

    xs = np.linspace(0.01, 5.0, 1_000_000)
    oracle = xs[np.argmin(f(xs))]
    x, _ = golden_section(f, 0.01, 5.0, tol=1e-8)
    assert abs(x - oracle) <= 1e-8 + (xs[1] - xs[0])


def _counted(f):
    calls = []

    def g(x):
        calls.append(x)
        return f(x)

    return g, calls


def test_parabolic_steps_cut_evaluations():
    # golden section alone needs about 40 evaluations to shrink [0, 5] to 1e-8
    f, calls = _counted(lambda x: (x - 2.0) ** 2)
    x, _ = golden_section(f, 0.0, 5.0, tol=1e-8)
    assert x == pytest.approx(2.0, abs=1e-8)
    assert len(calls) <= 15


def test_kink_converges_through_golden_steps():
    # parabolas through a |x| kink misplace the minimum; the golden steps still shrink the bracket
    f, calls = _counted(lambda x: abs(x - 0.3))
    x, fx = golden_section(f, 0.0, 1.0, tol=1e-8)
    assert abs(x - 0.3) <= 1e-8
    assert fx == abs(x - 0.3)
    assert len(calls) <= 42  # what golden section alone takes here


def test_minimum_raises_when_out_of_iterations():
    # no float bracket around x = 1 is 1e-20 wide, so the step cap ends the search
    with pytest.raises(RefinementError, match=r"200 iterations: bracket \[1, 1\] of width 2\.22e-16"):
        golden_section(lambda x: (x - 1.0) ** 2, 0.0, 3.0, tol=1e-20)


def test_deterministic_bit_identical():
    g = lambda x: (x - 0.7) ** 4 + 0.1 * x
    m1 = golden_section(g, 0.0, 2.0)
    m2 = golden_section(g, 0.0, 2.0)
    assert m1 == m2
