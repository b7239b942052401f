"""Differential and total cross sections at finite distance and asymptotically.

The finite-distance differential cross section is built from the scattered
probability current through a sphere of radius r,

    dsigma/dOmega = (j_r^sc / j^in) [1 + (j_theta^sc / j_r^sc)^2] r^(n-1),

whose leading contribution keeps only the radial current,

    dsigma/dOmega = r^(n-1) (1/k) Im(psi_sc* d/dr psi_sc),

and is identically equal to a double sum over partial-wave coefficients
weighted by Wronskians of the two Hankel kinds.  The conventional r -> inf
amplitude f(theta) and total cross section are provided for comparison.

Incident current normalisation is j^in = k (unit-amplitude plane wave,
hbar = m = 1).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import specfun
from .errors import (
    ConsistencyError,
    DegenerateCurrentError,
    DomainError,
    OverflowGuardError,
    WrongDimensionError,
)
from .partialwave import (
    PhaseShiftSet,
    ScatterConfig,
    _I_POWERS,
    _coef_vector,
    _contract,
    _grid_axes,
    _radial_and_derivative,
    a_l,
    angular_table,
)

__all__ = [
    "CrossSectionSample",
    "CrossSectionGrid",
    "AsymptoticAmplitude",
    "wronskian_radial",
    "dsigma_leading",
    "dsigma_double_sum",
    "dsigma_full",
    "cross_section_grid",
    "dsigma_from_cos_gamma",
    "one_d_summary",
    "two_d_dsigma",
    "f_theta_grid",
    "f_theta_asymptotic",
    "sigma_total_asymptotic",
    "sigma_total_mode_terms",
    "angular_measure_integral",
]


@dataclass(frozen=True)
class CrossSectionSample:
    """Current-resolved differential cross section at one observation point.

    gamma is the tilt of the scattered current away from the radial
    direction, tan(gamma) = j_theta^sc / j_r^sc.
    """

    r: float
    theta: float
    dsigma_domega: float
    jr_sc: float
    jtheta_sc: float
    gamma: float


@dataclass(frozen=True)
class CrossSectionGrid:
    """Current-resolved cross sections on an (r, theta) grid.

    Every array has shape (len(r), len(theta)).  dsigma_leading keeps the
    radial current only; dsigma_domega and gamma are the full form, and are
    0 and nan where the radial current is below the underflow guard.
    """

    dsigma_leading: np.ndarray
    dsigma_domega: np.ndarray
    jr_sc: np.ndarray
    jtheta_sc: np.ndarray
    gamma: np.ndarray


@dataclass(frozen=True)
class AsymptoticAmplitude:
    """Large-distance scattering amplitude f(theta) (scale length^((n-1)/2))."""

    theta: float
    f: complex


# --------------------------------------------------------------------------
# scattered-field building blocks
# --------------------------------------------------------------------------


def _angular_derivative_table(n: int, lmax: int, theta: np.ndarray) -> np.ndarray:
    """d/dtheta of angular_table, shape (lmax+1, len(theta)).

    dQ_l^lam/dtheta = -2 (lam + 1) sin(theta) Q_(l-1)^(lam+1)(cos theta);
    nan in n = 1, which has no continuous angle.
    """
    if n == 1:
        return np.full((lmax + 1, theta.size), np.nan)
    lam = n / 2.0 - 1.0
    out = np.zeros((lmax + 1, theta.size))
    if lmax >= 1:
        upper = specfun.harmonic_table(lmax - 1, lam + 1.0, np.cos(theta))
        out[1:] = -2.0 * (lam + 1.0) * np.sin(theta) * upper
    return out


# --------------------------------------------------------------------------
# Wronskian machinery
# --------------------------------------------------------------------------


def _wronskian_matrix(config: ScatterConfig, lmax: int, r: float) -> np.ndarray:
    """W_r[h2_nu(kr)/r^s, h1_nu'(kr)/r^s] for l, l' = 0..lmax, indexed [l, l'].

    One `hankel_basis` call; its entries do not depend on lmax, so every
    entry equals the per-pair value of `wronskian_radial` bit for bit.
    """
    if not r > 0:
        raise DomainError(f"radius must be > 0, got r={r}")
    n, k = config.n, config.k
    h2, h1 = specfun.hankel_basis(n, lmax + 1, k * r)
    f2, d2 = _radial_and_derivative(n, k, h2, r)
    f1, d1 = _radial_and_derivative(n, k, h1, r)
    return f2[:, None] * d1[None, :] - f1[None, :] * d2[:, None]


def wronskian_radial(config: ScatterConfig, l: int, lp: int, r: float) -> complex:
    """W_r[h2_nu(kr)/r^s, h1_nu'(kr)/r^s] with s = (n-3)/2, analytic derivatives.

    For l = lp the combination r^(n-1) W_r is the r-independent constant
    2i/k; unequal orders give genuinely r-dependent values.
    """
    return _wronskian_matrix(config, max(l, lp), r)[l, lp]


def dsigma_double_sum(
    config: ScatterConfig, shifts: PhaseShiftSet, r: float, theta: float
) -> float:
    """dsigma/dOmega as the Wronskian-weighted double sum over modes:

        r^(n-1)/(2ik) sum_{l,l'} a_l*(theta) a_l'(theta) W_r[...].

    The sum is real up to rounding; an imaginary residual above 1e-12 of the
    magnitude raises instead of being silently discarded.  Every W_r comes
    from one radial basis.
    """
    n, k = config.n, config.k
    lmax = shifts.lmax
    wr = _wronskian_matrix(config, lmax, r)
    avals = np.array([a_l(config, shifts, l, theta) for l in range(lmax + 1)])
    acc = 0.0 + 0.0j
    for l in range(lmax + 1):
        if avals[l] == 0.0:
            continue
        for lp in range(lmax + 1):
            if avals[lp] == 0.0:
                continue
            acc += np.conj(avals[l]) * avals[lp] * wr[l, lp]
    acc *= r ** (n - 1) / (2j * k)
    if abs(acc.imag) > 1e-12 * max(abs(acc), 1e-280):
        raise ConsistencyError(
            f"double-sum cross section has imaginary residual {acc.imag}"
        )
    return acc.real


# --------------------------------------------------------------------------
# current-based cross sections
# --------------------------------------------------------------------------


def cross_section_grid(
    config: ScatterConfig, shifts: PhaseShiftSet, r_values, theta_values
) -> CrossSectionGrid:
    """Leading and full differential cross sections on an (r, theta) grid.

    psi_sc and its r and theta derivatives are contractions of the stored
    modes C_l (e^{2i delta_l} - 1) h1_nu(kr)/r^s, s = (n-3)/2, against one
    angular table and its theta derivative, both built once for the grid:

        j_r = Im(psi_sc* d/dr psi_sc),  j_theta = Im(psi_sc* d/dtheta psi_sc) / r,
        leading = r^(n-1) j_r / k,  full = (j_r / k) [1 + (j_theta / j_r)^2] r^(n-1).
    """
    r, theta = _grid_axes(r_values, theta_values)
    n, k = config.n, config.k
    lmax = shifts.lmax
    sc = _coef_vector(n, k, lmax) * (shifts.phase_factors(lmax) - 1.0)
    h1 = np.array([specfun.hankel_basis(n, lmax + 1, k * rv)[1] for rv in r], dtype=complex)
    f1, d1 = _radial_and_derivative(n, k, h1.reshape(r.size, lmax + 2).T, r)
    radial = sc[:, None] * f1
    dradial = sc[:, None] * d1
    ang = angular_table(n, lmax, theta)
    psi = _contract(radial, ang)
    jr = np.imag(np.conj(psi) * _contract(dradial, ang))
    dpsi_t = _contract(radial, _angular_derivative_table(n, lmax, theta))
    jt = np.imag(np.conj(psi) * dpsi_t) / r[:, None]
    area = r[:, None] ** (n - 1)
    degenerate = np.abs(jr) <= config.series.underflow_guard
    with np.errstate(divide="ignore", invalid="ignore"):
        full = (jr / k) * (1.0 + (jt / jr) ** 2) * area
    return CrossSectionGrid(
        dsigma_leading=area / k * jr,
        dsigma_domega=np.where(degenerate, 0.0, full),
        jr_sc=jr,
        jtheta_sc=jt,
        gamma=np.where(degenerate, np.nan, np.arctan2(jt, jr)),
    )


def dsigma_leading(
    config: ScatterConfig, shifts: PhaseShiftSet, r: float, theta: float
) -> float:
    """Leading (radial-current) differential cross section at finite distance,

        dsigma/dOmega = r^(n-1) (1/k) Im(psi_sc* d/dr psi_sc),

    the 1x1 case of cross_section_grid.
    """
    grid = cross_section_grid(config, shifts, [r], [theta])
    return float(grid.dsigma_leading[0, 0])


def dsigma_full(
    config: ScatterConfig,
    shifts: PhaseShiftSet,
    r: float,
    theta: float,
    degenerate_ok: bool = False,
) -> CrossSectionSample:
    """Full current-based differential cross section with the tilt angle.

    The 1x1 case of cross_section_grid.  Requires 0 < theta < pi (the
    angular derivative is not modelled at the forward/backward axis).  When
    the radial scattered current is below the underflow guard the tilt is
    undefined: raises, or returns a zero sample with gamma = nan when
    degenerate_ok is set.
    """
    if config.n < 2:
        raise WrongDimensionError("current tilt needs a continuous angle; n >= 2")
    if not 0.0 < theta < math.pi:
        raise DomainError(f"theta must lie strictly inside (0, pi), got {theta}")
    g = cross_section_grid(config, shifts, [r], [theta])
    values = (g.dsigma_domega, g.jr_sc, g.jtheta_sc, g.gamma)
    sample = CrossSectionSample(float(r), float(theta), *(float(v[0, 0]) for v in values))
    if abs(sample.jr_sc) <= config.series.underflow_guard and not degenerate_ok:
        raise DegenerateCurrentError(
            f"radial scattered current {sample.jr_sc} below guard at r={r}, theta={theta}"
        )
    return sample


def dsigma_from_cos_gamma(config: ScatterConfig, sample: CrossSectionSample) -> float:
    """The sqrt(jr^2 + jt^2)/(j^in cos gamma) form of the same cross section.

    Algebraically identical to the bracketed form stored in the sample,
    since cos gamma = j_r/|j^sc|; kept so both write-ups can be inspected.
    """
    jmag = math.hypot(sample.jr_sc, sample.jtheta_sc)
    return jmag / (config.k * math.cos(sample.gamma)) * sample.r ** (config.n - 1)


def one_d_summary(shifts: PhaseShiftSet) -> dict[str, float]:
    """One-dimensional cross sections and transmitted/reflected fractions.

    Only delta_0 and delta_1 enter (higher angular functions vanish at the
    two admissible directions):

        sigma(0)  = sin^2 d0 + sin^2 d1 + 2 cos(d0-d1) sin d0 sin d1
        sigma(pi) = sin^2 d0 + sin^2 d1 - 2 cos(d0-d1) sin d0 sin d1
        T = sigma(0) / (sigma(0)+sigma(pi)),  R = 1 - T.

    T and R are undefined when both shifts vanish mod pi.
    """
    if not shifts.is_elastic:
        raise DomainError("one-dimensional formulas assume real phase shifts")
    d0 = shifts.delta_at(0).real
    d1 = shifts.delta_at(1).real
    s0, s1 = math.sin(d0), math.sin(d1)
    cross = 2.0 * math.cos(d0 - d1) * s0 * s1
    sigma0 = s0 * s0 + s1 * s1 + cross
    sigmapi = s0 * s0 + s1 * s1 - cross
    denom = s0 * s0 + s1 * s1
    if denom == 0.0:
        raise DomainError("T, R undefined: sin^2 d0 + sin^2 d1 = 0")
    t = 0.5 + 0.5 * cross / denom
    return {"sigma0": sigma0, "sigmapi": sigmapi, "T": t, "R": 1.0 - t}


def two_d_dsigma(
    config: ScatterConfig, shifts: PhaseShiftSet, r: float, theta: float
) -> float:
    """Planar differential cross section (per unit angle, times r scale):

        (kr/2pi) sum_{l,l'} Deg(l) Deg(l') (-i)^l i^l'
                 (e^{-2id_l}-1)(e^{2id_l'}-1) cos(l th) cos(l' th)
                 (1/2ik) W_r[sqrt(r) h2_{l-1/2}(kr), sqrt(r) h1_{l'-1/2}(kr)].
    """
    if config.n != 2:
        raise WrongDimensionError(f"planar cross section needs n=2, got {config.n}")
    if not shifts.is_elastic:
        raise DomainError("planar closed form assumes real phase shifts")
    k = config.k
    lmax = shifts.lmax
    wr = _wronskian_matrix(config, lmax, r)
    acc = 0.0 + 0.0j
    for l in range(lmax + 1):
        fl = np.conj(shifts.phase_factor(l)) - 1.0
        if fl == 0.0:
            continue
        for lp in range(lmax + 1):
            flp = shifts.phase_factor(lp) - 1.0
            if flp == 0.0:
                continue
            deg = (1 if l == 0 else 2) * (1 if lp == 0 else 2)
            acc += (
                deg
                * (-1j) ** l
                * 1j**lp
                * fl
                * flp
                * math.cos(l * theta)
                * math.cos(lp * theta)
                * wr[l, lp]
                / (2j * k)
            )
    acc *= k * r / (2.0 * math.pi)
    if abs(acc.imag) > 1e-12 * max(abs(acc), 1e-280):
        raise ConsistencyError(
            f"planar cross section has imaginary residual {acc.imag}"
        )
    return acc.real


# --------------------------------------------------------------------------
# large-distance asymptotics
# --------------------------------------------------------------------------


def f_theta_grid(config: ScatterConfig, shifts: PhaseShiftSet, theta_values) -> np.ndarray:
    """Conventional r -> inf scattering amplitude on a grid of angles,

        f(theta) = sum_l a_l(theta) (-i)^(l+(n-1)/2) / k,

    obtained by replacing each outgoing wave with its asymptotic phase.  One
    angular table serves every angle, and each angle is summed in ascending
    l, so a grid value equals the one-angle f_theta_asymptotic bit for bit.
    """
    if config.n < 2:
        raise WrongDimensionError("asymptotic amplitude defined for n >= 2")
    n, k = config.n, config.k
    theta = np.asarray(theta_values, dtype=float).ravel()
    lmax = shifts.lmax
    sc = _coef_vector(n, k, lmax) * (shifts.phase_factors(lmax) - 1.0)
    # (-i)^(l + (n-1)/2) = i^(-l) exactly, times one common phase
    far = _I_POWERS[-np.arange(lmax + 1) % 4] * cmath.exp(-0.25j * math.pi * (n - 1))
    return _contract((sc * far)[:, None], angular_table(n, lmax, theta))[0] / k


def f_theta_asymptotic(
    config: ScatterConfig, shifts: PhaseShiftSet, theta: float
) -> AsymptoticAmplitude:
    """f(theta) at one angle: the one-point case of f_theta_grid."""
    f = f_theta_grid(config, shifts, [theta])[0]
    return AsymptoticAmplitude(theta=float(theta), f=complex(f))


def sigma_total_mode_terms(config: ScatterConfig, shifts: PhaseShiftSet) -> np.ndarray:
    """Per-mode contributions to the asymptotic total cross section,

        4 Gamma(n/2) (4 pi)^((n-2)/2) k^(1-n) N(n, l) sin^2 d_l,

    N(n, l) = C(l+n-1, l) - C(l+n-3, l-2) (second term 0 for l < 2) the
    number of degree-l harmonics, Deg(l) at n = 2.
    """
    if config.n < 2:
        raise WrongDimensionError("total cross section defined for n >= 2")
    if not shifts.is_elastic:
        raise DomainError("total cross-section formula assumes real phase shifts")
    n, k = config.n, config.k
    sins = np.array([math.sin(d.real) ** 2 for d in shifts.delta])
    try:
        pref = 4.0 * math.gamma(n / 2.0) * (4.0 * math.pi) ** ((n - 2) / 2.0) * k ** (1 - n)
        degs = np.array([float(math.comb(l + n - 1, l) - (l > 1 and math.comb(l + n - 3, l - 2)))
                         for l in range(shifts.lmax + 1)])
        with np.errstate(over="ignore"):
            terms = pref * degs * sins
        if not np.isfinite(terms).all():
            raise OverflowError
    except OverflowError as exc:
        raise OverflowGuardError(f"total cross section overflows at n={n}, k={k}") from exc
    return terms


def sigma_total_asymptotic(config: ScatterConfig, shifts: PhaseShiftSet) -> float:
    """Asymptotic total cross section (sum of sigma_total_mode_terms)."""
    return float(np.sum(sigma_total_mode_terms(config, shifts)))


def angular_measure_integral(
    config: ScatterConfig, fn, lmax: int, nodes: int | None = None
) -> float:
    """integral of fn(theta) over the unit-sphere measure:

        Omega_(n-2) * int_0^pi fn(theta) sin^(n-2)(theta) dtheta.

    Odd n: Gauss-Legendre in x = cos(theta) (the weight is a polynomial, so
    the rule is exact for band-limited integrands).  Even n: Gauss-Legendre
    in theta itself; the half-integer weight would spoil algebraic
    convergence in x, while in theta the integrand is analytic.
    Default node count 4*lmax + 20.
    """
    n = config.n
    if n < 2:
        raise WrongDimensionError("angular integral defined for n >= 2")
    if nodes is None:
        nodes = 4 * lmax + 20
    omega = 2.0 * math.pi ** ((n - 1) / 2.0) / math.gamma((n - 1) / 2.0)
    if n % 2 == 1:
        x, w = np.polynomial.legendre.leggauss(nodes)
        vals = np.array([fn(float(t)) for t in np.arccos(x)])
        weight = (1.0 - x * x) ** ((n - 3) // 2)
        return float(omega * np.sum(w * vals * weight))
    t, w = np.polynomial.legendre.leggauss(nodes)
    theta = 0.5 * math.pi * (t + 1.0)
    vals = np.array([fn(float(th)) for th in theta])
    return float(omega * 0.5 * math.pi * np.sum(w * vals * np.sin(theta) ** (n - 2)))
