"""The trapezoid rule in t = ln u behind the smeared kinetic integral.

The nodes u_j = exp(t0 + j h) depend only on b and the alpha range.  The three
weight columns W[:, k] = h u^(3+k) exp(-2 b u^2) carry the Gaussian, so
W[:, k] . (u^n exp(-2 a u)) is the integral of u^(2+k+n) exp(-2 b u^2 - 2 a u)
over [0, inf).  The check rule W[:, 3 + k] is every other node with doubled
weights.
"""

import math

import numpy as np
import pytest

from fuzzyqm import deuteron
from fuzzyqm.deuteron import _KINETIC_STEP, _kinetic_weights

SCAN = (0.01, 20.0)  # alpha bounds of the depth scan
B_VALUES = (4.4e-4, 0.05, 1.366, 4.4, 70.7)  # r0 from 10 fm to 0.05 fm for both smearing masses
B_TINY = 1e-16  # exp(-2 b u^2) is 1 to 1e-12 on the whole rule: Laguerre moments


def _gaussian_moment(m, b):
    """integral u^m exp(-2 b u^2) du over [0, inf)."""
    return math.gamma((m + 1) / 2) / (2.0 * (2.0 * b) ** ((m + 1) / 2))


def _both_rules(b):
    u, w = _kinetic_weights(b, *SCAN)
    return (u, w[:, :3]), (u, w[:, 3:])


def test_constant_on_unit_interval():
    # a constant step in ln u, from far below the shortest decay length to at least u = 1
    for b in B_VALUES:
        u, _ = _kinetic_weights(b, *SCAN)
        assert np.diff(np.log(u)) == pytest.approx(np.full(len(u) - 1, _KINETIC_STEP), rel=1e-9)
        assert u[0] < 1e-7 / (2.0 * SCAN[1]) and u[-1] >= 1.0


def test_polynomial_exactness_x_squared():
    u, w = _kinetic_weights(1.366, *SCAN)
    assert np.sum(w[:, 0]) == pytest.approx(_gaussian_moment(2, 1.366), rel=1e-14)


@pytest.mark.parametrize("b", B_VALUES)
def test_weight_columns_match_gaussian_moments(b):
    # at alpha = 0 column k is the Gamma closed form of the moment u^(2+k)
    _, w = _kinetic_weights(b, *SCAN)
    for k in range(3):
        assert np.sum(w[:, k]) == pytest.approx(_gaussian_moment(2 + k, b), rel=1e-12)


@pytest.mark.parametrize("k", [0, 1, 2, 3, 5, 7, 9, 11, 13, 15])
def test_monomial_exactness_up_to_degree(k):
    # higher moments of the u^2 column: the range holds seven Gaussian widths
    for b in B_VALUES:
        u, w = _kinetic_weights(b, *SCAN)
        assert np.dot(w[:, 0], u**k) == pytest.approx(_gaussian_moment(k + 2, b), rel=1e-12)


def test_gamma_integral_p_exp_minus_2p():
    # without the Gaussian, integral u^2 exp(-2u) du = Gamma(3)/2^3 = 1/4
    u, w = _kinetic_weights(B_TINY, *SCAN)
    assert np.dot(w[:, 0], np.exp(-2.0 * u)) == pytest.approx(0.25, rel=1e-12)


@pytest.mark.parametrize("k", [0, 1, 2, 5, 10, 15, 20, 25, 30])
def test_semi_infinite_exponential_family(k):
    # integral u^(k+2) exp(-u) du = (k+2)! on the fine and the check rule
    for u, w in _both_rules(B_TINY):
        val = np.dot(w[:, 0], u**k * np.exp(-u))
        assert val == pytest.approx(float(math.factorial(k + 2)), rel=1e-10)


def test_semi_infinite_handles_gaussian_decay():
    # integral u^2 exp(-u^2) du = sqrt(pi)/4 at b = 1/2, on the fine and the check rule
    for _, w in _both_rules(0.5):
        assert np.sum(w[:, 0]) == pytest.approx(np.sqrt(np.pi) / 4.0, rel=1e-11)


def test_check_rule_is_every_other_fine_node(monkeypatch):
    # the rule built at step 2h begins with the fine rule's even nodes and the check weights, bit for bit
    u, w = _kinetic_weights(1.366, *SCAN)
    assert len(u) % 2 == 1  # the check rule ends on the fine rule's last node
    assert np.array_equal(w[::2, 3:], 2.0 * w[::2, :3]) and not np.any(w[1::2, 3:])
    monkeypatch.setattr(deuteron, "_KINETIC_STEP", 2.0 * _KINETIC_STEP)
    uc, wc = _kinetic_weights.__wrapped__(1.366, *SCAN)
    n = len(u[::2])
    assert np.array_equal(uc[:n], u[::2]) and np.array_equal(wc[:n, :3], w[::2, 3:])


def test_deterministic():
    # the cached rule and a fresh build agree bit for bit
    fresh = _kinetic_weights.__wrapped__(1.366, *SCAN)
    assert all(np.array_equal(x, y) for x, y in zip(_kinetic_weights(1.366, *SCAN), fresh))
