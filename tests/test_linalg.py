"""Grids and derivative matrices."""

import numpy as np
import pytest

from fuzzyqm.errors import NonHermitianError
from fuzzyqm.numerics import MomentumGrid, OperatorMatrix, apply_d1, derivative_matrix

# --- grids -------------------------------------------------------------------


def test_grid_requires_eight_points():
    with pytest.raises(ValueError, match="8 points"):
        MomentumGrid(5, 1.0)


@pytest.mark.parametrize("cutoff", [0.0, -1.0, np.inf, np.nan])
def test_grid_refuses_a_cutoff_outside_zero_to_infinity(cutoff):
    with pytest.raises(ValueError, match="cutoff"):
        MomentumGrid(16, cutoff)


def test_grid_points_span_the_cutoff_and_are_read_only():
    g = MomentumGrid.symmetric(17, 3.0)
    assert (g.points[0], g.points[8], g.points[-1]) == (-3.0, 0.0, 3.0)
    assert np.array_equal(g.points, -g.points[::-1])  # every point has its mirror
    with pytest.raises(ValueError, match="read-only"):
        g.points[0] = 0.0


def test_grids_built_apart_are_equal_on_size_and_cutoff():
    a, b = MomentumGrid.symmetric(64, 2.5), MomentumGrid(64, 2.5)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != MomentumGrid(65, 2.5) and a != MomentumGrid(64, 2.6)


def test_operator_matrix_hermitian_tag_enforced():
    g = MomentumGrid.symmetric(8, 1.0)
    bad = np.diag(np.arange(8.0))
    bad[0, 1] = 1.0  # asymmetric
    with pytest.raises(NonHermitianError):
        OperatorMatrix(bad, g, hermitian=True)


def test_operator_matrix_dimension_check():
    g = MomentumGrid.symmetric(8, 1.0)
    with pytest.raises(ValueError, match="dimension"):
        OperatorMatrix(np.eye(9), g)


# --- derivative matrices -----------------------------------------------------


def test_first_derivative_constant_is_zero_interior():
    g = MomentumGrid.symmetric(64, 3.0)
    d1 = derivative_matrix(g, 1, "central").entries
    out = d1 @ np.ones(64)
    assert np.max(np.abs(out[1:-1])) == 0.0


def test_second_derivative_of_p_squared():
    g = MomentumGrid.symmetric(64, 3.0)
    d2 = derivative_matrix(g, 2, "central").entries
    out = d2 @ g.points**2
    assert np.max(np.abs(out[1:-1] - 2.0)) < 1e-9


def test_central_first_derivative_sin():
    g = MomentumGrid.symmetric(512, np.pi)
    d1 = derivative_matrix(g, 1, "central").entries
    err = np.abs(d1 @ np.sin(g.points) - np.cos(g.points))
    assert np.max(err[1:-1]) <= 1e-4


def test_spectral_first_derivative_gaussian():
    g = MomentumGrid.symmetric(128, 8.0)
    d1 = derivative_matrix(g, 1, "spectral").entries
    f = np.exp(-g.points**2 / 2.0)
    err = np.abs(d1 @ f - (-g.points) * f)
    assert np.max(err) <= 1e-8


def test_first_derivative_antisymmetric_both_schemes():
    g = MomentumGrid.symmetric(32, 2.0)
    for scheme in ("central", "spectral"):
        d1 = derivative_matrix(g, 1, scheme).entries
        assert np.max(np.abs(d1 + d1.T)) == 0.0


def test_plane_wave_response_converges_at_second_order():
    # D1 applied to exp(ikp) gives ik times samples with O(h^2) error
    k = 1.3
    errs = []
    for n in (128, 256):
        g = MomentumGrid.symmetric(n, 6.0)
        d1 = derivative_matrix(g, 1, "central").entries
        f = np.exp(1j * k * g.points)
        err = np.abs(d1 @ f - 1j * k * f)
        errs.append(np.max(err[g.interior_slice()]))
    order = np.log2(errs[0] / errs[1])
    assert abs(order - 2.0) < 0.2


# --- matrix-free derivatives --------------------------------------------------


@pytest.mark.parametrize("scheme", ["central"])  # the dense matrix of the one scheme apply_d1 applies
@pytest.mark.parametrize("n", [8, 9, 64, 511, 512])
def test_apply_d1_matches_dense_matrix(n, scheme):
    # odd and even n, and the two edge rows, where the stencil meets the zero boundary values
    g = MomentumGrid.symmetric(n, 3.0)
    d1 = derivative_matrix(g, 1, scheme).entries
    rng = np.random.default_rng(n)
    vec = rng.normal(size=n) + 1j * rng.normal(size=n)
    cols = rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))
    field = rng.normal(size=(5, n))
    for got, want in (
        (apply_d1(vec, g.spacing), d1 @ vec),
        (apply_d1(cols, g.spacing), d1 @ cols),
        (apply_d1(field, g.spacing, axis=1), field @ d1.T),
    ):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    # the central stencil keeps a real field real
    assert apply_d1(field, g.spacing, axis=1).dtype == np.float64


# --- dense operators in eigenproblems -------------------------------------------


def test_eig_sym_rejects_nonhermitian():
    # np.linalg.eigh reads one triangle of its input without a scan, so a matrix is
    # checked for Hermiticity where it is tagged: OperatorMatrix(hermitian=True)
    g = MomentumGrid.symmetric(8, 1.0)
    m = np.diag(np.arange(8.0))
    m[0, 3] = 0.5
    with pytest.raises(NonHermitianError):
        OperatorMatrix(m, g, hermitian=True)
    OperatorMatrix(0.5 * (m + m.T), g, hermitian=True)


def _box_interior_grid(n: int, half_width: float) -> MomentumGrid:
    # interior points of [-L, L] so the implicit zeros sit exactly on the walls
    return MomentumGrid.symmetric(n, half_width - 2.0 * half_width / (n + 1))


def test_laplacian_spectrum_converges_to_box_levels():
    L = 3.0
    exact = (np.arange(1, 4) * np.pi / (2 * L)) ** 2
    errs = []
    for n in (64, 128, 256, 512):
        g = _box_interior_grid(n, L)
        d2 = derivative_matrix(g, 2, "central").entries
        w = np.linalg.eigvalsh(-d2)
        errs.append(np.max(np.abs(w[:3] - exact)))
    slopes = [np.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    assert abs(slopes[-1] - 2.0) < 0.2
