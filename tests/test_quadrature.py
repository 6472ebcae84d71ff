"""Exactness of the composite Gauss-Legendre rule behind the smeared kinetic integral.

The rule has nine geometric panels [0, 1], [1, 2], [2, 4], ..., [128, 256]
with a fixed number of Legendre nodes each; the depth solve uses 24 and 48.
"""

import math

import numpy as np
import pytest

from fuzzyqm.deuteron import _KINETIC_NODES, _kinetic_rule

COARSE = _KINETIC_NODES[0]


def test_constant_on_unit_interval():
    nodes, weights = _kinetic_rule(COARSE)
    first = slice(0, COARSE)  # the first panel is [0, 1]
    assert np.all((nodes[first] > 0.0) & (nodes[first] < 1.0))
    assert np.sum(weights[first]) == pytest.approx(1.0, rel=1e-14)


def test_polynomial_exactness_x_squared():
    nodes, weights = _kinetic_rule(COARSE)
    first = slice(0, COARSE)
    assert np.dot(weights[first], nodes[first] ** 2) == pytest.approx(1.0 / 3.0, rel=1e-14)


@pytest.mark.parametrize("k", [0, 1, 2, 3, 5, 7, 9, 11, 13, 15])
def test_monomial_exactness_up_to_degree(k):
    # each 24-node panel is exact through degree 47, so the panels must tile [0, 256] exactly
    nodes, weights = _kinetic_rule(COARSE)
    exact = 256.0 ** (k + 1) / (k + 1)
    assert np.dot(weights, nodes**k) == pytest.approx(exact, rel=1e-12)


def test_gamma_integral_p_exp_minus_2p():
    # closed form: integral p exp(-2p) dp over [0, inf) = 1/4, on the rule scaled to the decay length 1/2
    nodes, weights = _kinetic_rule(COARSE)
    u = 0.5 * nodes
    assert 0.5 * np.dot(weights, u * np.exp(-2.0 * u)) == pytest.approx(0.25, rel=1e-12)


@pytest.mark.parametrize("k", [0, 1, 2, 5, 10, 15, 20, 25, 30])
def test_semi_infinite_exponential_family(k):
    for n in _KINETIC_NODES:
        nodes, weights = _kinetic_rule(n)
        val = np.dot(weights, np.exp(-nodes) * nodes ** float(k))
        assert val == pytest.approx(float(math.factorial(k)), rel=1e-10)


def test_semi_infinite_handles_gaussian_decay():
    # integral u^2 exp(-u^2) du = sqrt(pi)/4
    for n in _KINETIC_NODES:
        nodes, weights = _kinetic_rule(n)
        assert np.dot(weights, nodes**2 * np.exp(-(nodes**2))) == pytest.approx(np.sqrt(np.pi) / 4.0, rel=1e-11)


def test_deterministic():
    # the cached rule and a fresh build agree bit for bit
    fresh = _kinetic_rule.__wrapped__(COARSE)
    assert all(np.array_equal(x, y) for x, y in zip(_kinetic_rule(COARSE), fresh))
