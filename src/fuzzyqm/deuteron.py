"""Variational Yukawa deuteron in the momentum basis, ordinary and smeared.

After the exchange transformation (r -> p r0^2, p -> -r/r0^2) the S-state
Hamiltonian becomes H = r^2/(2 m r0^4) + V(p) with V(p) = -V0 exp(-p r0)/(p r0)
and r = i grad_p.  The ordinary trial state is exp(-alpha p r0); the smeared
problem replaces r by the Gaussian-conjugated position and the trial by
exp(p^2/M^2 - alpha p r0), square-integrable in the weighted measure
exp(-2p^2/M^2) d3p.

All radial integrals are reduced to the dimensionless variable u = p r0.  The
Gaussian growth of the smeared trial cancels analytically against the measure
in the norm and potential integrals, and partially in the kinetic one, which
alone is not elementary.  The smeared kinetic energy is <psi| r_f . r_f psi>
in the weighted measure, r_f = G r G, G = exp(-p^2/2M^2), chi = G psi:

    integral exp(-3p^2/M^2) [ |grad chi|^2 - (4p/M^2) chi dchi/dp ] d3p
      = ||r_f psi||_w^2 + integral chi^2 exp(-3p^2/M^2) (6/M^2 - 12p^2/M^4) d3p.

r_f is symmetric in the plain measure but not in the weighted one, so this is
no norm.  The second term, negative for p > M/sqrt(2), alone lets the depth
(T - E_t)/g turn negative, signalling the repulsive core; at the trial's
alpha* at r0 = 0.3596 fm (reduced-mass smearing) the terms are +1.728 and
-10.843 MeV.  For the trial family the form is integral (alpha^2 u^2 +
2 alpha b u^3 - 3 b^2 u^4) exp(-2 b u^2 - 2 alpha u) du, b = (hbar c/(M r0))^2.
This integrand is entire and decays at both ends, so the trapezoid rule in ln u
converges exponentially (Trefethen & Weideman, SIAM Rev. 56, 385 (2014)); the
rule on every other node must agree with it to 1e-9 at every alpha.

Each depth V0*(r0) = min_alpha (T - E_t)/g is one minimisation over alpha.
The smeared min_alpha T scales exactly as r0^-4, so the core radius where
V0* changes sign is a closed form in one more minimisation (``core_radius``);
no root finder is involved.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .constants import DEFAULT_CONSTANTS, PhysicalConstants
from .errors import BracketingError, ContractError, OverflowGuardError, RefinementError
from .numerics.solvers import golden_section

_ALPHA_SCAN = np.logspace(np.log10(0.01), np.log10(20.0), 200)
_SCAN_LO, _SCAN_HI = _ALPHA_SCAN[[0, -1]].tolist()
_ALPHA_RTOL = 4.0 * float(np.sqrt(np.finfo(float).eps))  # Brent's final bracket, relative to the scan minimum
_KINETIC_REL_TOL = 1e-9
_KINETIC_STEP = 0.06  # step in ln u of the fine smeared-kinetic rule; the check rule doubles it
_CORE_KINETIC_R0 = 1.0  # fm, the range of the core radius's kinetic minimisation; any range gives the same r_c
_CORE_EVIDENCE_STEP = 0.1  # the core radius's evidence depths are solved at r_c (1 -+ this)


@dataclass(frozen=True)
class RangeDepthPoint:
    """One point of the range-depth relation: the depth binding at exactly E_target."""

    r0: float
    depth: float
    alpha_star: float


@dataclass(frozen=True)
class CoreRadiusResult:
    """Zero crossing of the smeared range-depth curve, with the bracket evidence."""

    r_c: float
    bracket_lo: float
    bracket_hi: float
    depth_lo: float
    depth_hi: float


@dataclass(frozen=True)
class CouplingReport:
    """What ``coupling_report`` computes; the depths and ranges it reads stay with the caller.

    V1 (MeV), both g^2/4pi and their ratio, and the omega prediction with its deviation (percent) from the
    phenomenological value.
    """

    V1: float
    g_sigma_sq_over_4pi: float
    g_omega_sq_over_4pi: float
    ratio: float
    g_omega_phenom_sq_over_4pi: float
    phenom_deviation_percent: float


@dataclass(frozen=True)
class CalibrationResult:
    """Outcome of the one-time smearing-mass sweep at the sigma range, with each candidate's solved point."""

    mass: float
    choice: str
    points: dict[str, RangeDepthPoint]
    target: float


@dataclass(frozen=True)
class ProblemTemplate:
    """A Yukawa deuteron problem up to its depth V0 (MeV) and range r0 (fm).

    ``smearing_mass`` None means ordinary quantum mechanics in the plain
    measure; a finite positive mass M (MeV) means the smeared problem in the
    weighted measure, with the trial's Gaussian growth.  The kinetic mass is
    the reduced mass and the conversion constant hbar c, both from ``constants``.
    """

    constants: PhysicalConstants = DEFAULT_CONSTANTS
    smearing_mass: float | None = None

    def __post_init__(self) -> None:
        if self.smearing_mass is not None and not 0.0 < self.smearing_mass < np.inf:
            raise ValueError(f"smearing mass must be finite and positive, got {self.smearing_mass!r}")


# ----------------------------------------------------------------------------
# energy functional


@lru_cache(maxsize=64)
def _kinetic_weights(b: float, a_lo: float, a_hi: float) -> tuple[np.ndarray, np.ndarray]:
    """(u, W) of the trapezoid rule in ln u for alpha in [a_lo, a_hi]; W[:, k] = h u^(3+k) exp(-2 b u^2), k < 3.

    The nodes run from 1e-7 of the shortest decay length to seven Gaussian widths (or forty of the longest decay
    lengths), at least to u = 1, and are odd in number.  W[:, 3:] is the check rule: doubled on the even nodes.
    """
    h, s = _KINETIC_STEP, np.sqrt(2.0 * b)
    t0 = np.log(1e-7 / (2.0 * a_hi + s))
    t1 = np.log(max(min(7.0 / s, 40.0 / (2.0 * a_lo + s)), 1.0))
    u = np.exp(t0 + h * np.arange(2 * int(np.ceil(0.5 * (t1 - t0) / h)) + 1))
    w = np.zeros((len(u), 6))
    w[:, :3] = (h * u**3 * np.exp(-2.0 * b * u**2))[:, None] * u[:, None] ** np.arange(3)
    w[::2, 3:] = 2.0 * w[::2, :3]
    u.flags.writeable = w.flags.writeable = False  # every caller shares the cached arrays
    return u, w


def _smeared_kinetic_integral(alpha, b: float):
    """integral (a^2 u^2 + 2 a b u^3 - 3 b^2 u^4) exp(-2 b u^2 - 2 a u) du at alpha, a float or a 1-D array.

    alpha enters only through exp(-2 a u): one exponential and one (rows, n) @ (n, 6) product give the moments
    of both rules, a float being one row.  A float's moments are read out as floats, so its Horner sums and
    rule-doubling check run in float arithmetic.
    """
    scalar = not isinstance(alpha, np.ndarray)
    a_lo, a_hi = (alpha, alpha) if scalar else (alpha.min(), alpha.max())
    u, w = _kinetic_weights(b, min(a_lo, _SCAN_LO), max(a_hi, _SCAN_HI))
    e = np.multiply.outer((alpha,) if scalar else alpha, -2.0 * u)
    np.exp(e, out=e)
    m = (e @ w).tolist()[0] if scalar else (e @ w).T
    fine, coarse = ((m[i] * alpha + 2.0 * b * m[i + 1]) * alpha - 3.0 * b**2 * m[i + 2] for i in (0, 3))
    stable = abs(fine - coarse) <= _KINETIC_REL_TOL * abs(fine)
    if not (stable if scalar else stable.all()):
        i = int(np.argmin(np.atleast_1d(stable)))
        a, c, f = (np.atleast_1d(x)[i] for x in (alpha, coarse, fine))
        raise RefinementError(
            f"smeared kinetic integral at alpha={a:.6g} did not stabilise to {_KINETIC_REL_TOL:g} "
            f"under rule doubling ({c:.12g} vs {f:.12g})"
        )
    return fine


def _scales(template: ProblemTemplate, r0_fm: float) -> tuple[float, float, float | None]:
    """(r0 in MeV^-1, k, b) at range r0: k = (hbar c)^2/(2 mu r0^2) MeV, b = (hbar c/(M r0))^2 or None if ordinary."""
    if not 0.0 < r0_fm < np.inf:
        raise ValueError(f"range r0 must be positive and finite, got {r0_fm!r}")
    c = template.constants
    r0n = r0_fm / c.hbar_c
    k = 1.0 / (2.0 * c.reduced_mass * r0n**2)
    b = None if template.smearing_mass is None else 1.0 / (template.smearing_mass * r0n) ** 2
    return r0n, k, b


def _kinetic_and_binding(k: float, b: float | None, alpha):
    """(T(alpha), g(alpha)) with E(alpha; V0) = T - V0 g at a float alpha or over a 1-D array, k and b from ``_scales``.

    The norm, potential and plain kinetic integrals are 1/(4 a^3), 1/(2a+1)^2
    and 1/(4 a), so g = 4 a^3/(2a+1)^2 > 0 and the ordinary T = k a^2; only
    the smeared kinetic term needs a rule.
    """
    g = 4.0 * alpha**3 / (2.0 * alpha + 1.0) ** 2
    if b is None:
        return k * alpha**2, g
    return k * 4.0 * alpha**3 * _smeared_kinetic_integral(alpha, b), g


def _minimise_over_alpha(f, what: str) -> tuple[float, float]:
    """(alpha, f(alpha)) at the minimum of f (of a float or an array): an array scan refined by Brent on floats.

    The scan is the global search; the refinement brackets the scan minimum
    alpha_i by its two neighbours and shrinks that bracket to 4 sqrt(eps)
    alpha_i in about 10 evaluations.  Near a smooth minimum f changes by
    O(f'' dx^2), which is below the rounding of f once dx is under sqrt(eps)
    alpha, so a finer bracket would only follow noise (Brent, Algorithms for
    Minimization without Derivatives, 1973, ch. 5).  For either f here (the
    depth, and the kinetic term of ``core_radius``) the scan can vouch for its
    lower minimum only if it rises at both edges; a scan whose values fall
    towards either edge may miss a lower minimum beyond it: RefinementError,
    naming ``what``.  That refuses a scan minimum on the first or last scan
    point too, which is no minimum.
    """
    values = f(_ALPHA_SCAN)
    i = int(np.argmin(values))
    for edge, inner in ((0, 1), (-1, -2)):
        if not values[edge] > values[inner]:
            raise RefinementError(
                f"{what} unconverged: the scan falls towards its edge alpha={_ALPHA_SCAN[edge]:g}, "
                "beyond which a lower minimum may lie"
            )
    lo, mid, hi = _ALPHA_SCAN[i - 1 : i + 2].tolist()
    return golden_section(lambda x: float(f(x)), lo, hi, tol=_ALPHA_RTOL * mid)


def energy_expectation(template: ProblemTemplate, V0: float, r0_fm: float, alpha: float) -> float:
    """Energy <psi|H|psi>/<psi|psi> (MeV) of the trial alpha at depth V0 and range r0, in the problem's measure."""
    if not 0.0 < alpha < np.inf:  # also refuses nan
        raise ValueError(f"alpha must be positive and finite, got {alpha!r}")
    t, g = _kinetic_and_binding(*_scales(template, r0_fm)[1:], alpha)
    return float(t - V0 * g)


def trial_samples(
    template: ProblemTemplate, r0_fm: float, alpha: float, p: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(psi, reduced phi) samples of the trial alpha at range r0, peak-normalised, on momenta p (MeV).

    Raises OverflowGuardError when the smeared trial's exponent would overflow.
    """
    if not 0.0 < alpha < np.inf:  # also refuses nan
        raise ValueError(f"alpha must be positive and finite, got {alpha!r}")
    p = np.asarray(p, dtype=float)
    u = p * _scales(template, r0_fm)[0]
    if template.smearing_mass is None:
        psi = np.exp(-alpha * u)
        return psi, psi
    phi = np.exp(-alpha * u)  # exp(-p^2/M^2) psi
    exponent = p**2 / template.smearing_mass**2 - alpha * u
    i = int(np.argmax(exponent))
    if exponent[i] > 700.0:  # exp overflows float64 above ~709
        raise OverflowGuardError(
            f"smeared trial exponent {exponent[i]:.1f} at p={p[i]:.6g} MeV exceeds 700; reduce the momentum range"
        )
    psi = np.exp(exponent)
    return psi / np.max(psi), phi


# ----------------------------------------------------------------------------
# range-depth machinery


def solve_depth(r0_fm: float, template: ProblemTemplate) -> RangeDepthPoint:
    """Depth whose minimum variational energy equals the binding target E_t, ``constants.e0_binding``.

    Because g(alpha) > 0, min_alpha [T - V0 g] >= E_t exactly when
    V0 <= (T - E_t)/g for every alpha, so the depth is the single minimisation
    V0* = min_alpha (T(alpha) - E_t)/g(alpha), and its minimiser is the optimal
    alpha at that depth.  Raises RefinementError when the minimiser sits on the
    edge of the alpha scan.
    """
    target = template.constants.e0_binding
    _, k, b = _scales(template, r0_fm)

    def depth(alpha):
        t, g = _kinetic_and_binding(k, b, alpha)
        return (t - target) / g

    alpha_star, v0 = _minimise_over_alpha(depth, f"depth at r0={r0_fm:g} fm")
    return RangeDepthPoint(r0_fm, v0, alpha_star)


def core_radius(template: ProblemTemplate) -> CoreRadiusResult:
    """Radius where the smeared well depth crosses zero, in closed form from one minimisation.

    Below the core radius the depth that reproduces the binding energy is
    negative: the effective interaction has turned repulsive.  With v = alpha u
    the smeared kinetic term is T = 4 k b J(beta)/beta, beta = b/alpha^2, where
    J(beta) = integral (v^2 + 2 beta v^3 - 3 beta^2 v^4) exp(-2 beta v^2 - 2 v) dv,
    and k b is proportional to r0^-4, so min_alpha T(alpha; r0) = C/r0^4.  Since
    g > 0 the depth V0*(r0) = min_alpha (T - E_t)/g is zero exactly when
    min_alpha T = E_t, which gives r_c = r0 (min_alpha T(alpha; r0)/E_t)^(1/4)
    at any r0.  The minimum is taken at 1 fm; the depths at r_c (1 -+ 0.1) are
    solved as evidence and must straddle zero.
    """
    if template.smearing_mass is None:
        raise ContractError("the core radius is defined for the smeared (fuzzy) problem")
    e_t = template.constants.e0_binding
    _, k, b = _scales(template, _CORE_KINETIC_R0)
    what = f"kinetic minimum at r0={_CORE_KINETIC_R0:g} fm"
    _, t_min = _minimise_over_alpha(lambda a: _kinetic_and_binding(k, b, a)[0], what)
    if t_min >= 0:
        raise RefinementError(f"{what} {t_min:.6g} MeV is not negative: no core")
    r_c = _CORE_KINETIC_R0 * (t_min / e_t) ** 0.25
    lo, hi = r_c * (1.0 - _CORE_EVIDENCE_STEP), r_c * (1.0 + _CORE_EVIDENCE_STEP)
    depth_lo, depth_hi = (solve_depth(r0, template).depth for r0 in (lo, hi))
    if not depth_lo < 0 < depth_hi:
        raise BracketingError(
            f"no sign change of the depth in [{lo:.4f}, {hi:.4f}] fm around r_c={r_c:.4f} fm; "
            f"curve: r0={lo:.4f}: {depth_lo:.2f}, r0={hi:.4f}: {depth_hi:.2f}"
        )
    return CoreRadiusResult(r_c, lo, hi, depth_lo, depth_hi)


@lru_cache(maxsize=8)
def calibrate_smearing_mass(constants: PhysicalConstants = DEFAULT_CONSTANTS) -> CalibrationResult:
    """One-time sweep over {nucleon, reduced} smearing masses at the sigma range.

    The candidate reproducing the reference smeared depth of -81.0 MeV at
    r0 = 0.3596 fm more closely is selected and recorded in output metadata.
    A candidate whose depth minimiser sits on the alpha scan edge raises RefinementError.
    """
    target = -81.0
    candidates = {"nucleon": constants.nucleon_mass, "reduced": constants.reduced_mass}
    points = {
        label: solve_depth(constants.r0_sigma_fm, ProblemTemplate(constants, smearing_mass=mass))
        for label, mass in candidates.items()
    }
    choice = min(candidates, key=lambda k: abs(points[k].depth - target))
    return CalibrationResult(candidates[choice], choice, points, target)


# ----------------------------------------------------------------------------
# effective interaction and couplings


def repulsive_strength(V0: float, V0_prime: float, r0: float, r1: float) -> float:
    """Strength of the short-range repulsive term from the depth drop V0 -> V0'.

    Matching the two-term interaction at r = r1, where the repulsive exchange
    term contributes V1/e, against the observed depth V0' gives
    V1 = e (V0 - V0') exp(-r1/r0) / (r1/r0); V1 is linear in the depth drop.
    """
    if r0 <= 0 or r1 <= 0:
        raise ValueError("ranges must be positive")
    x = r1 / r0
    return float(np.e * (V0 - V0_prime) * np.exp(-x) / x)


def effective_potential(V0: float, V1: float, r0: float, r1: float, r) -> float | np.ndarray:
    """Two-term interaction -V0 exp(-r/r0)/(r/r0) + V1 exp(-r/r1)/(r/r1) in MeV."""
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr <= 0):
        raise ValueError("r must be positive")
    v = -V0 * np.exp(-r_arr / r0) / (r_arr / r0) + V1 * np.exp(-r_arr / r1) / (r_arr / r1)
    return float(v) if np.isscalar(r) else v


def coupling_report(constants: PhysicalConstants, V0: float, V0_prime: float) -> CouplingReport:
    """Couplings from the ordinary and smeared depths V0 and V0_prime (MeV) at the sigma range.

    g^2/4pi = depth * range / (hbar c) for the sigma term V0 at ``r0_sigma_fm`` and the omega term V1
    (``repulsive_strength``) at ``r1_omega_fm``.
    """
    r0, r1 = constants.r0_sigma_fm, constants.r1_omega_fm
    v1 = repulsive_strength(V0, V0_prime, r0, r1)
    g_sigma = V0 * r0 / constants.hbar_c
    g_omega = v1 * r1 / constants.hbar_c
    ratio = g_omega / g_sigma
    prediction = ratio * constants.g_sigma_phenom_sq_over_4pi
    deviation = 100.0 * (prediction / constants.g_omega_phenom_sq_over_4pi - 1.0)
    return CouplingReport(v1, g_sigma, g_omega, ratio, prediction, deviation)


# ----------------------------------------------------------------------------
# exact ordinary depth (independent oracle for the variational path)


@lru_cache(maxsize=1)
def _laguerre_nodes(m: int) -> tuple[np.ndarray, np.ndarray]:
    """(x, w) of the m-node Gauss-Laguerre rule, read only; numpy.polynomial is first imported here, not at start-up."""
    return np.polynomial.laguerre.laggauss(m)


def _laguerre_pencil(n: int, lam: float, kappa: float) -> tuple[np.ndarray, np.ndarray]:
    """(A, B) in phi_k(u) = u e^(-lam u) L_k^(1)(2 lam u), k < n: A = -d^2/du^2 + kappa^2, B B^T = W the weight e^-u/u.

    -phi_k'' + lam^2 phi_k = 2 lam (k+1) phi_k/u and integral phi_j phi_k/u du = delta_jk (k+1)/(4 lam^2) make A
    diag((k+1)^2/(2 lam)) - (lam^2 - kappa^2) S, S the tridiagonal overlap.  In x = (2 lam + 1) u, W integrates a
    polynomial of degree 2n - 1 against e^-x, which n + 1 Gauss-Laguerre nodes do exactly.
    """
    k1 = np.arange(1.0, n + 1.0)
    off = np.diag(k1[:-1] * k1[1:], 1)
    a = np.diag(k1**2 / (2.0 * lam)) - (lam**2 - kappa**2) / (2.0 * lam) ** 3 * (np.diag(2.0 * k1**2) - off - off.T)
    c = 2.0 * lam + 1.0
    x, w = _laguerre_nodes(n + 1)
    y = (2.0 * lam / c) * x
    lag = [np.ones_like(y), 2.0 - y]
    for k in range(1, n - 1):  # (k+1) L_(k+1) = (2k+2-y) L_k - (k+1) L_(k-1)
        lag.append((2.0 * k + 2.0 - y) * lag[k] / (k + 1) - lag[k - 1])
    return a, np.array(lag) * (np.sqrt(w * x) / c)


def exact_depth(r0_fm: float, constants: PhysicalConstants = DEFAULT_CONSTANTS) -> float:
    """Depth whose exact ordinary ground energy equals the binding target E_t, ``constants.e0_binding``.

    At fixed E_t < 0 the depth is the lowest V0 of the Sturmian problem k (-d^2/du^2 + kappa^2) u = V0 (e^-u/u) u in
    u = r/r0, k from ``_scales``, kappa = sqrt(-E_t/k) (Rotenberg, Ann. Phys. 19, 262 (1962)).  By Rayleigh-Ritz in
    the 160 functions of ``_laguerre_pencil``, with A = L L^T and W = B B^T, it is k/||L^-1 B||_2^2; the first 80 rows
    of L^-1 B give it in the nested first 80 functions, which can only raise it.  RefinementError is raised when the
    two differ by more than 1e-9 relative: below about 0.04 fm (1.2e-10 at 0.05 fm, 3e-13 from 0.1 fm to 1e5 fm).
    """
    _, k, _ = _scales(ProblemTemplate(constants), r0_fm)
    kappa = (-constants.e0_binding / k) ** 0.5
    lam = max(2.0 * kappa, 1.5 * kappa**0.5)  # the bound state's tail sets the scale at long ranges, the well at short
    a, b = _laguerre_pencil(160, lam, kappa)
    white = np.linalg.solve(np.linalg.cholesky(a), b)
    coarse, fine = (k / float(np.linalg.norm(white[:n], 2)) ** 2 for n in (80, 160))
    if not abs(coarse - fine) <= 1e-9 * fine:
        raise RefinementError(f"exact depth at r0={r0_fm:g} fm unconverged: {coarse:.12g} MeV with 80 Laguerre "
                              f"functions, {fine:.12g} MeV with 160")
    return fine
