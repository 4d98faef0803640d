"""Low-energy s-wave scattering, purity, and the entanglement duration.

Two identical (distinguishable) particles with opposite mean wave numbers
+-k0 and common spread sigma_k0 collide head on through a repulsive square
well of height V and range L. Everything here lives in the low-energy
s-wave regime: constant scattering amplitude f(k) = -a_s (all higher Taylor
coefficients of f vanish), k0*L well below 1.

The chain of observables is composed from three constants of a
configuration: the relative kinetic energy E = hbar^2 k0^2 / (2 mu), the
purity lost per unit scattering length kappa = 8 (2 k0^2 + sigma^2) R0, and
the scattering length per unit correlation ell = k0^2 L^3 / 3.

* the correlation r_QM = sqrt(kappa a_s) of the correlated Gaussian that
  the post-collision momentum density becomes, and the purity
  P = 1 - kappa a_s + O(a_s^2) = 1 - r_QM^2;
* the correlation as the potential-to-energy ratio r = V/E, the scattering
  length a_s = ell r, the cross section Sigma = 4 pi a_s^2, the Born phase
  shift theta0 = -k0 a_s, and the purity P = 1 - eta_c r, eta_c = kappa ell;
* algebraic inversions recovering r from V, Sigma, or P, and the potential
  density V/L^3 = kappa E k0^2 / 3, which does not depend on L;
* square-well phase shift theta0 from the interior/exterior matching
  k_in cot(k_in L) = k_out cot(k_out L + theta0), with the correlation
  entering as k_in = sqrt(1-r) k0, i.e. V = r E;
* the prolongation Delta: the extra affine time a correlated geodesic
  needs to reach the momentum the non-correlated one has at tau0. The
  exact form solves tanh(A0 tau*) = (1-r)^{-1/2} tanh(A0 tau0) by artanh
  (no iteration); the approximate form is
  Delta = -ln(1 - ((1-r)^{-1/2} - 1) eta) / (2 A0), eta = e^{2 A0 tau0}/2.
  A solution exists only below r_bound = 2/eta; the exact solve also
  requires (1-r)^{-1/2} tanh(A0 tau0) < 1. An r past either limit, a
  scalar or an array element alike, is flagged
  (`ProlongationReport.flagged`) with NaN prolongations.

Only the repulsive branch (V >= 0, r >= 0, a_s >= 0) is supported;
attractive potentials are rejected. Every scale of the configuration must be
positive and finite, a_s, V and the cross section finite and >= 0, and a
correlation must lie in [0, R_MAX) = [0, 1 - 1e-9); the inversions return
only such an r (the policy lives in `errors`). Internally hbar = 1 so
momenta and wave numbers coincide; a different hbar only rescales at the
interface.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import geodesics
from ._elementwise import scalar_or_array
from .errors import (
    RegimeError,
    RegimeWarning,
    ResonanceError,
    require,
    require_correlation,
    require_nonnegative,
    require_positive,
    require_scalar,
)
from .geodesics import LOCALIZATION_MAX, InitialConditions

#: r_QM beyond this strains the perturbative Gaussian identification.
R_QM_REGIME = 0.3

#: Low-energy s-wave regime bound on k0 * L.
K0L_REGIME = 0.3


@dataclass(frozen=True)
class ScatteringConfig:
    """Physical configuration of the head-on collision.

    Hard errors for impossible values; regime strains (k0*L or the relative
    spread too large) only warn, so sweeps can still explore the edges.
    """

    k0: float
    sigma_k0: float
    R0: float
    L: float
    a_s: float = 0.0
    reduced_mass: float = 0.5
    hbar: float = 1.0

    def __post_init__(self):
        require_scalar(**vars(self))
        require_positive(k0=self.k0, sigma_k0=self.sigma_k0, R0=self.R0, L=self.L,
                         reduced_mass=self.reduced_mass, hbar=self.hbar)
        require_nonnegative(a_s=self.a_s)
        # stacklevel 3 passes the generated __init__ to the line that built the config
        if self.k0 * self.L >= K0L_REGIME:
            warnings.warn(
                f"k0*L = {self.k0 * self.L:.3g} is outside the low-energy "
                f"s-wave regime (< {K0L_REGIME})",
                RegimeWarning,
                stacklevel=3,
            )
        if self.sigma_k0 / self.k0 > LOCALIZATION_MAX:
            warnings.warn(
                f"sigma_k0/k0 = {self.sigma_k0 / self.k0:.3g} > {LOCALIZATION_MAX}: "
                "wave packets are not well localized",
                RegimeWarning,
                stacklevel=3,
            )

    @property
    def kinetic_energy(self) -> float:
        """Relative kinetic energy E = hbar^2 k0^2 / (2 mu)."""
        return self.hbar**2 * self.k0**2 / (2.0 * self.reduced_mass)

    def initial_conditions(self, tau0: float) -> InitialConditions:
        """Geodesic-side initial data (p0 = hbar k0, sigma0 = hbar sigma_k0)."""
        # hbar cancels in sigma0/p0, so sigma_k0/k0 decides the localization bound
        require(self.sigma_k0 / self.k0 <= LOCALIZATION_MAX, lambda: (
            f"sigma_k0/k0 = {self.sigma_k0 / self.k0:.4g} exceeds the "
            f"well-localized bound {LOCALIZATION_MAX}"))
        return InitialConditions(
            p0=self.hbar * self.k0,
            sigma0=self.hbar * self.sigma_k0,
            tau0=tau0,
            R0=self.R0,
        )


@dataclass(frozen=True)
class ProlongationReport:
    """Entanglement duration: exact and approximate prolongations.

    delta is the exact artanh solve, delta_approx the log form, both NaN
    where ``flagged`` marks r at or past the bound r_bound. For an array of
    r, delta, delta_approx and flagged are arrays.
    """

    delta: float
    delta_approx: float
    r_bound: float
    flagged: bool


def _swave(cfg: ScatteringConfig) -> float:
    """kappa = 8 (2 k0^2 + sigma^2) R0: the purity lost per unit a_s."""
    return 8.0 * (2.0 * cfg.k0**2 + cfg.sigma_k0**2) * cfg.R0


def _a_s_per_r(cfg: ScatteringConfig) -> float:
    """ell = k0^2 L^3 / 3: the scattering length per unit correlation."""
    return cfg.k0**2 * cfg.L**3 / 3.0


def r_qm(cfg: ScatteringConfig) -> float:
    """Micro-correlation r_QM = sqrt(kappa a_s); warns outside the perturbative window."""
    value = math.sqrt(_swave(cfg) * cfg.a_s)
    if value >= R_QM_REGIME:
        warnings.warn(
            f"r_QM = {value:.3g} >= {R_QM_REGIME}: perturbative identification "
            "with the correlated Gaussian is strained",
            RegimeWarning,
            stacklevel=2,
        )
    return value


def normalization_integral(cfg: ScatteringConfig) -> float:
    """Norm of the raw post-collision density before renormalization.

    2 pi sigma^2 [1 - (kappa/2) a_s
                  + 4 (k0^2 + sigma^4 R0^2)(4 k0^4 + 12 k0^2 sigma^2
                     + 3 sigma^4) a_s^2 / sigma^4].
    """
    k2, s2 = cfg.k0**2, cfg.sigma_k0**2
    a = cfg.a_s
    bracket = (
        1.0
        - 0.5 * _swave(cfg) * a
        + 4.0
        * (k2 + s2**2 * cfg.R0**2)
        * (4.0 * k2**2 + 12.0 * k2 * s2 + 3.0 * s2**2)
        * a**2
        / s2**2
    )
    return 2.0 * math.pi * s2 * bracket


def _purity(correction: float) -> float:
    """First-order purity 1 - correction, guarded against a large correction."""
    if correction >= 1.0:
        raise RegimeError(
            f"purity correction {correction:.3g} >= 1: outside the first-order regime"
        )
    if correction >= 0.2:
        warnings.warn(
            f"purity correction {correction:.3g} >= 0.2: first-order form is strained",
            RegimeWarning,
            stacklevel=3,
        )
    return 1.0 - correction


def purity_series(cfg: ScatteringConfig) -> float:
    """First-order purity P = 1 - kappa a_s  (= 1 - r_QM^2)."""
    return _purity(_swave(cfg) * cfg.a_s)


def phase_shift_exact(cfg: ScatteringConfig, r: float) -> float:
    """Exact s-wave phase shift with the correlation-reduced interior wave number.

    The correlation slows the relative motion to k_in = sqrt(1-r) k0, the
    interior wave number of a square well of height V = r E; theta solves
    the matching k_in cot(k_in L) = k0 cot(k0 L + theta).
    """
    k_in = math.sqrt(1.0 - require_correlation(require_scalar(r=r))) * cfg.k0
    k_out, L = cfg.k0, cfg.L
    num = k_out * math.tan(k_in * L) - k_in * math.tan(k_out * L)
    den = k_in + k_out * math.tan(k_out * L) * math.tan(k_in * L)
    if abs(den) < 1e-12:
        raise ResonanceError(
            f"matching denominator {den:.3g} vanishes; phase shift is resonant"
        )
    return math.atan(num / den)


def phase_shift_series(cfg: ScatteringConfig, r: float) -> float:
    """Low-energy series for the phase shift.

    tan(theta0) ~ [-(k0 L)^3/3 + (k0 L)^5/15] r + [2 (k0 L)^5/15] r^2; its
    leading cubic term -r (k0 L)^3 / 3 is `phase_shift_from_potential` at V = r E.
    """
    require_correlation(require_scalar(r=r))
    x = cfg.k0 * cfg.L
    if x >= K0L_REGIME or r >= R_QM_REGIME:
        warnings.warn(
            f"series outside its regime (k0*L = {x:.3g}, r = {r:.3g})",
            RegimeWarning,
            stacklevel=2,
        )
    t = (-(x**3) / 3.0 + x**5 / 15.0) * r + (2.0 * x**5 / 15.0) * r * r
    return math.atan(t)


def phase_shift_from_potential(V: float, cfg: ScatteringConfig) -> float:
    """Born phase shift theta0 = -k0 a_s with a_s = ell V/E, for a weak repulsive well."""
    require_nonnegative(V=V)
    return -cfg.k0 * _a_s_per_r(cfg) * (V / cfg.kinetic_energy)


def potential_from_r(r: float, cfg: ScatteringConfig) -> float:
    """Scattering potential V = r E: the correlation is the potential-to-energy ratio."""
    return require_correlation(r) * cfg.kinetic_energy


def scattering_length_from_r(cfg: ScatteringConfig, r: float) -> float:
    """Effective a_s = ell r = r k0^2 L^3 / 3 implied by the correlation."""
    return require_correlation(r) * _a_s_per_r(cfg)


def cross_section(cfg: ScatteringConfig, r: float) -> float:
    """Total cross section Sigma = 4 pi a_s^2 with a_s = ell r."""
    a_s = scattering_length_from_r(cfg, r)
    return 4.0 * math.pi * (a_s * a_s)


def eta_c(cfg: ScatteringConfig) -> float:
    """Dimensionless purity-complexity coefficient eta_c = kappa ell."""
    return _swave(cfg) * _a_s_per_r(cfg)


def purity_from_r(cfg: ScatteringConfig, r: float) -> float:
    """Purity P = 1 - eta_c r."""
    return _purity(eta_c(cfg) * require_correlation(require_scalar(r=r)))


def r_from_potential(cfg: ScatteringConfig, V: float) -> float:
    """Invert V = r E:  r = V / E."""
    return require_correlation(V / cfg.kinetic_energy)


def r_from_cross_section(cfg: ScatteringConfig, sigma_cs: float) -> float:
    """Invert the cross section:  r = sqrt(Sigma / (4 pi)) / ell."""
    require_nonnegative(sigma_cs=require_scalar(sigma_cs=sigma_cs))
    return require_correlation(math.sqrt(sigma_cs / (4.0 * math.pi)) / _a_s_per_r(cfg))


def r_from_purity(cfg: ScatteringConfig, purity: float) -> float:
    """Invert the purity:  r = (1 - P) / eta_c."""
    return require_correlation((1.0 - purity) / eta_c(cfg))


def potential_density(cfg: ScatteringConfig) -> float:
    """Uniform potential density V/L^3 = kappa E k0^2 / 3.

    Fixed entirely by the initial conditions: eliminating a_s between the
    induced correlation and the cross-section chain leaves no free scale.
    It is not eta_c E / L^3, which turns an L^3 that underflows into 0/0.
    """
    return _swave(cfg) * cfg.kinetic_energy * cfg.k0**2 / 3.0


def prolongation(ic: InitialConditions, r) -> ProlongationReport:
    """Entanglement duration for correlation r (scalar or array), exact and approximate.

    An r that reaches either the approximate bound 2/eta or the exact
    no-solution threshold, whichever is lower (they agree to
    O(e^{-2 A0 tau0})), is flagged with NaN prolongations; a scalar r is
    the 0-d case of an array.
    """
    require_correlation(r)
    A0 = geodesics.amplitude_A0(ic)
    X = A0 * ic.tau0
    eta = 0.5 * math.exp(2.0 * X)
    r_bound = 2.0 / eta

    scale = 1.0 / np.sqrt(1.0 - r)
    arg = scale * math.tanh(X)
    inner = 1.0 - (scale - 1.0) * eta
    # three thresholds cluster just below 2/eta, ordered
    # 1 - (eta/(1+eta))^2  <  sech^2(A0 tau0)  <  2/eta  (gaps of O(1/eta^2));
    # the log argument goes nonpositive first, then the exact solve loses
    # its solution — all are reported as the same bound violation
    flagged = ((r >= r_bound) | (arg >= 1.0) | (inner <= 0.0)) & (r != 0.0)
    # NaN passes quietly through artanh and log
    arg, inner = np.where(flagged, np.nan, (arg, inner))
    # r = 0 takes no time to catch up: tau_star = tau0 exactly
    tau_star = np.where(r == 0.0, ic.tau0, np.arctanh(arg) / A0)
    return ProlongationReport(
        delta=scalar_or_array(tau_star - ic.tau0),
        delta_approx=scalar_or_array(0.0 - np.log(inner) / (2.0 * A0)),
        r_bound=r_bound,
        flagged=flagged if isinstance(flagged, np.ndarray) else bool(flagged),
    )
