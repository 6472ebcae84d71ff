"""Golden-section minimisation and root finding."""

import numpy as np
import pytest

from fuzzyqm.errors import BracketingError, RefinementError
from fuzzyqm.numerics import find_root, golden_section


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


def test_root_linear():
    assert find_root(lambda x: x - 1.0, (0.0, 2.0)) == pytest.approx(1.0, abs=1e-10)


def test_root_sqrt2():
    assert find_root(lambda x: x**2 - 2.0, (0.0, 2.0)) == pytest.approx(np.sqrt(2.0), abs=1e-10)


def test_root_requires_sign_change():
    with pytest.raises(BracketingError, match="sign change"):
        find_root(lambda x: x**2 + 1.0, (0.0, 2.0))


def test_root_raises_when_out_of_iterations():
    # three Brent steps cannot shrink [0, 3] to 1e-10; the last bracket is reported
    with pytest.raises(RefinementError, match=r"3 iterations: bracket \[.*\] of width"):
        find_root(lambda x: np.cos(x) - 0.3 * x, (0.0, 3.0), max_iter=3)


def test_root_endpoint_zero():
    assert find_root(lambda x: x, (0.0, 2.0)) == 0.0


def test_deterministic_bit_identical():
    f = lambda x: np.cos(x) - x * 0.3
    r1 = find_root(f, (0.0, 3.0))
    r2 = find_root(f, (0.0, 3.0))
    assert r1 == r2
    g = lambda x: (x - 0.7) ** 4 + 0.1 * x
    m1 = golden_section(g, 0.0, 2.0)
    m2 = golden_section(g, 0.0, 2.0)
    assert m1 == m2
