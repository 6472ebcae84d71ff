"""Grids, derivative matrices, and eigensolvers."""

import numpy as np
import pytest

from fuzzyqm.errors import NonHermitianError, OverflowGuardError
from fuzzyqm.numerics import (
    MomentumGrid,
    OperatorMatrix,
    apply_d1,
    d2_lags,
    derivative_matrix,
    eig_generalized,
)
from fuzzyqm.numerics.linalg import WEIGHT_CAP, _d1_spectrum

# --- grids -------------------------------------------------------------------


def test_grid_requires_eight_points():
    with pytest.raises(ValueError):
        MomentumGrid(np.linspace(-1, 1, 5))


def test_grid_rejects_nonuniform():
    pts = np.linspace(-1, 1, 16)
    pts[7] += 1e-3
    with pytest.raises(ValueError, match="uniform"):
        MomentumGrid(pts)


def test_grid_rejects_decreasing():
    with pytest.raises(ValueError, match="increasing"):
        MomentumGrid(np.linspace(1, -1, 16))


@pytest.mark.parametrize(
    "pts",
    [np.r_[np.linspace(-1, 1, 15), np.nan], np.r_[np.nan, np.linspace(-1, 1, 15)], np.full(16, np.nan)],
    ids=["nan-last", "nan-first", "all-nan"],
)
def test_grid_rejects_non_finite_points(pts):
    # every comparison with NaN is False, so the ordering and uniformity checks alone let these through
    with pytest.raises(ValueError, match="finite"):
        MomentumGrid(pts)


def test_radial_grid():
    # the [0, P] axis of an S-state problem needs no tag: the points carry it
    g = MomentumGrid(np.linspace(0.0, 5.0, 16))
    assert g.points[0] == 0.0
    assert g.cutoff == pytest.approx(5.0)


@pytest.mark.parametrize("lo, hi", [(-3.0, 3.0), (0.0, 5.0), (-7.0, 2.0), (-9.0, -1.0), (1.0, 4.0)])
def test_grid_cutoff_is_the_largest_magnitude(lo, hi):
    # read from the two endpoints, which holds because the points increase
    pts = np.linspace(lo, hi, 17)
    assert MomentumGrid(pts).cutoff == np.max(np.abs(pts))


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


@pytest.mark.parametrize("scheme", ["central", "spectral"])
@pytest.mark.parametrize("n", [8, 9, 64, 511, 512])
def test_apply_d1_matches_dense_matrix(n, scheme):
    # odd and even n: the FFT convolution must reproduce every lag of the Toeplitz matrix
    g = MomentumGrid.symmetric(n, 3.0)
    d1 = derivative_matrix(g, 1, scheme).entries
    rng = np.random.default_rng(n)
    vec = rng.normal(size=n) + 1j * rng.normal(size=n)
    cols = rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))
    field = rng.normal(size=(5, n))
    for got, want in (
        (apply_d1(vec, g.spacing, scheme), d1 @ vec),
        (apply_d1(cols, g.spacing, scheme), d1 @ cols),
        (apply_d1(field, g.spacing, scheme, axis=1), field @ d1.T),
    ):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    # the central stencil keeps a real field real; the FFT route is complex
    assert apply_d1(field, g.spacing, scheme, axis=1).dtype == (np.float64 if scheme == "central" else np.complex128)


def test_apply_d1_spectral_cache_is_keyed_on_spacing():
    # one n, two spacings, and the first again: a spectrum cached on n alone would serve one spacing to the other
    rng = np.random.default_rng(64)
    vec = rng.normal(size=64) + 1j * rng.normal(size=64)
    for cutoff in (3.0, 7.5, 3.0):
        g = MomentumGrid.symmetric(64, cutoff)
        want = derivative_matrix(g, 1, "spectral").entries @ vec
        got = apply_d1(vec, g.spacing, "spectral")
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_apply_d1_spectral_cache_cannot_be_written_through():
    g = MomentumGrid.symmetric(32, 3.0)
    vec = np.exp(-(g.points**2))
    first = apply_d1(vec, g.spacing, "spectral")
    want = first.copy()
    first[:] = 1e9
    assert np.array_equal(apply_d1(vec, g.spacing, "spectral"), want)
    spectrum = _d1_spectrum(32, g.spacing)
    assert not spectrum.flags.writeable
    with pytest.raises(ValueError):
        spectrum[0] = 1.0


def test_apply_d1_rejects_unknown_scheme():
    with pytest.raises(ValueError, match="scheme"):
        apply_d1(np.ones(8), 0.1, "upwind")


@pytest.mark.parametrize("n", [8, 9, 64, 65])
@pytest.mark.parametrize("scheme", ["spectral"])
def test_d2_lags_match_dense_matrix(n, scheme):
    g = MomentumGrid.symmetric(n, 2.0)
    i = np.arange(n)
    c = d2_lags(n, g.spacing)
    assert np.array_equal(c[np.abs(i[:, None] - i)], derivative_matrix(g, 2, scheme).entries)


# --- symmetric eigenproblem: eig_generalized with unit weight ----------------


def test_eig_sym_identity():
    w, v = eig_generalized(np.eye(8), np.ones(8), return_eigenvectors=True)
    assert np.allclose(w, 1.0)
    assert np.allclose(v.conj().T @ v, np.eye(8), atol=1e-10)


def test_eig_sym_diagonal_sorted():
    m = np.diag([3.0, 1.0, 2.0, 5.0, 4.0, 7.0, 6.0, 8.0])
    w = eig_generalized(m, np.ones(8))
    assert np.allclose(w, [1, 2, 3, 4, 5, 6, 7, 8])


def test_eig_sym_accepts_plain_arrays():
    w = eig_generalized(np.diag([3.0, 1.0, 2.0]), np.ones(3))
    assert np.allclose(w, [1.0, 2.0, 3.0])


def test_eig_sym_rejects_nonhermitian():
    # eig_generalized reads one triangle of its input without a scan, so a matrix is
    # checked for Hermiticity where it is tagged: OperatorMatrix(hermitian=True)
    g = MomentumGrid.symmetric(8, 1.0)
    m = np.diag(np.arange(8.0))
    m[0, 3] = 0.5
    with pytest.raises(NonHermitianError):
        OperatorMatrix(m, g, hermitian=True)
    OperatorMatrix(0.5 * (m + m.T), g, hermitian=True)


def test_eig_sym_residual_and_orthonormality():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(40, 40)) + 1j * rng.normal(size=(40, 40))
    a = a + a.conj().T
    w, v = eig_generalized(a, np.ones(40), return_eigenvectors=True)
    scale = np.linalg.norm(a, 2)
    for i in range(40):
        assert np.linalg.norm(a @ v[:, i] - w[i] * v[:, i]) <= 1e-8 * scale
    assert np.max(np.abs(v.conj().T @ v - np.eye(40))) <= 1e-10


def _box_interior_grid(n: int, half_width: float) -> MomentumGrid:
    # interior points of [-L, L] so the implicit zeros sit exactly on the walls
    h = 2.0 * half_width / (n + 1)
    return MomentumGrid(np.linspace(-half_width + h, half_width - h, n))


def test_laplacian_spectrum_converges_to_box_levels():
    L = 3.0
    exact = (np.arange(1, 4) * np.pi / (2 * L)) ** 2
    errs = []
    for n in (64, 128, 256, 512):
        g = _box_interior_grid(n, L)
        d2 = derivative_matrix(g, 2, "central").entries
        w = eig_generalized(-d2, np.ones(n))
        errs.append(np.max(np.abs(w[:3] - exact)))
    slopes = [np.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    assert abs(slopes[-1] - 2.0) < 0.2


# --- generalized eigensolver -------------------------------------------------


def test_generalized_with_identity_weight_matches_eig_sym():
    # the unit-weight reduction is the plain symmetric eigenproblem
    rng = np.random.default_rng(5)
    a = rng.normal(size=(24, 24))
    a = a + a.T
    w_direct = np.linalg.eigh(a)[0]
    w_gen = eig_generalized(a, np.ones(24))
    assert np.max(np.abs(w_gen - w_direct)) <= 1e-10


def test_generalized_small_example():
    a = np.diag([2.0, 8.0])
    w = eig_generalized(a, np.array([1.0, 2.0]))
    assert np.allclose(w, [2.0, 4.0])


def test_generalized_against_direct_dense_solve():
    # independent route: eigenvalues of W^{-1} A (non-symmetric reduction)
    rng = np.random.default_rng(11)
    a = rng.normal(size=(30, 30))
    a = a + a.T
    wdiag = 1.0 + 2.0 * rng.random(30) + 2.0 * rng.random(30) ** 2
    ours = eig_generalized(a, wdiag)
    direct = np.sort(np.linalg.eigvals(a / wdiag[:, None]).real)
    assert np.max(np.abs(ours - direct)) <= 1e-8 * max(1.0, np.max(np.abs(ours)))


def test_generalized_weight_overflow_guard():
    a = np.eye(8)
    w = np.ones(8)
    w[3] = 1e301
    with pytest.raises(OverflowGuardError, match="cutoff"):
        eig_generalized(a, w)


def test_generalized_rejects_weight_spread_beyond_cap():
    # the Sturmian weight exp(-r/r0)/(r/r0) at r0 = 0.72 fm on r_i = 0.04 i fm,
    # i < 1000, spans 1.4e-26 to 17; the W^(-1/2) reduction returns a wrong
    # lowest eigenvalue there instead of failing
    r = 0.04 * np.arange(1, 1000)
    w = np.exp(-r / 0.72) / (r / 0.72)
    with pytest.raises(OverflowGuardError, match="spans"):
        eig_generalized(np.eye(r.size), w)


def test_generalized_accepts_weight_spread_at_cap():
    # the oscillator's exact truncation: exp(2 p^2/m^2) from 1 up to the cap
    w = np.exp(np.linspace(0.0, np.log(WEIGHT_CAP), 16))
    assert np.allclose(eig_generalized(np.diag(w), w), 1.0)


def test_generalized_weight_positive_required():
    with pytest.raises(ValueError, match="positive"):
        eig_generalized(np.eye(8), np.zeros(8))
