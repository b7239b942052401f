"""Wave fields and finite-distance partial-wave coefficients.

An elastic scatterer only multiplies the outgoing part of each partial wave
by e^{2i delta_l}; the incoming part is untouched.  Everything here keeps
the exact radial solutions h_nu(kr)/r^((n-3)/2) instead of their
large-distance limits, so fields and coefficients are valid at any finite
observer distance.

Dimension is a parameter: C_l C_l^lam(cos theta), lam = n/2 - 1, is formed
as P i^l Q_l^lam(cos theta), with one l-independent prefactor P and the
normalised basis Q_l^lam = ((l + lam)/lam) C_l^lam, finite at lam = 0
(n = 2, Deg(l) cos(l theta)) and lam = -1/2 (n = 1, theta in {0, pi}).
So every n runs one path; the paper's per-dimension forms stay as oracles.

Production fields are contractions against one partial-wave basis per grid
(evaluate_grid); plane_wave, radial_wavefunction's sine form and
f_r_theta_3d are the paper's alternative forms, kept as test oracles.
"""

from __future__ import annotations

import cmath
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from . import specfun
from .errors import DomainError, OverflowGuardError, TruncationError, WrongDimensionError
from .specfun import Order, SeriesControl

__all__ = [
    "ScatterConfig",
    "PhaseShiftSet",
    "RadialMode",
    "FieldSample",
    "mode_coefficient",
    "angular_value",
    "angular_table",
    "plane_wave",
    "a_l",
    "psi_incident",
    "psi_total",
    "evaluate_grid",
    "radial_mode",
    "radial_wavefunction",
    "f_r_theta_3d",
    "phase_shifts_from_json",
    "phase_shifts_to_json",
]

_THETA_TOL = 1e-12


@dataclass(frozen=True)
class ScatterConfig:
    """Global problem context: dimension, wavenumber, truncation policy.

    lmax bounds the incident plane-wave expansion.  Left at None it follows
    the auto policy ceil(k*r) + 30 per evaluation; set explicitly it is
    enforced to be at least ceil(k*r) + 20 for every field evaluation, since
    j_nu(kr) only starts to die off superexponentially beyond l ~ kr.
    """

    n: int
    k: float
    lmax: int | None = None
    series: SeriesControl = field(default_factory=SeriesControl)

    def __post_init__(self) -> None:
        if isinstance(self.n, bool) or self.n < 1 or self.n != int(self.n):
            raise DomainError(f"dimension must be an integer >= 1, got n={self.n}")
        if not (self.k > 0 and math.isfinite(self.k)):
            raise DomainError(f"wavenumber must be finite and > 0, got k={self.k}")
        if self.lmax is not None and self.lmax < 0:
            raise DomainError(f"lmax must be >= 0, got {self.lmax}")

    def incident_lmax(self, r_max: float) -> int:
        needed = math.ceil(self.k * r_max) + 20
        if self.lmax is None:
            return math.ceil(self.k * r_max) + 30
        if self.lmax < needed:
            raise TruncationError(
                f"lmax={self.lmax} too small for k*r={self.k * r_max:.3g}; "
                f"need at least {needed}"
            )
        return self.lmax


@dataclass(frozen=True)
class PhaseShiftSet:
    """Phase shifts delta_l for l = 0..L; the implied tail beyond L is zero.

    Complex entries (absorption) are accepted but flagged through is_elastic;
    unitarity-based checks are skipped for them.
    """

    delta: tuple[complex, ...]

    def __post_init__(self) -> None:
        if len(self.delta) < 1:
            raise DomainError("at least one phase shift is required")
        object.__setattr__(self, "delta", tuple(complex(d) for d in self.delta))
        with np.errstate(all="ignore"):
            bad = np.flatnonzero(~np.isfinite(self.phase_factors(self.lmax)))
        if bad.size:
            raise DomainError(f"e^(2i delta_l) is not finite at l={bad[0]}: {self.delta[bad[0]]}")

    @classmethod
    def from_deltas(cls, deltas) -> "PhaseShiftSet":
        return cls(tuple(deltas))

    @property
    def lmax(self) -> int:
        return len(self.delta) - 1

    @property
    def is_elastic(self) -> bool:
        return all(d.imag == 0.0 for d in self.delta)

    def delta_at(self, l: int) -> complex:
        return self.delta[l] if l <= self.lmax else 0.0

    def phase_factor(self, l: int) -> complex:
        """e^{2i delta_l}, 1 beyond the stored range."""
        return cmath.exp(2j * self.delta_at(l))

    def phase_factors(self, lmax: int) -> np.ndarray:
        out = np.ones(lmax + 1, dtype=complex)
        upto = min(lmax, self.lmax)
        out[: upto + 1] = np.exp(2j * np.asarray(self.delta[: upto + 1]))
        return out


@dataclass(frozen=True)
class RadialMode:
    """Per-l radial data at one radius.

    Cl and Dl are the incoming/outgoing coefficients with Dl = Cl e^{2i delta},
    Al = 2 sqrt(Cl Dl) (principal square root; only |Al| is branch-free),
    Ml and DeltaL the modulus and argument of calY_nu(-1/(ikr)) entering the
    exact sine form of the radial function.
    """

    l: int
    Cl: complex
    Dl: complex
    Al: complex
    Ml: float
    DeltaL: float


@dataclass(frozen=True)
class FieldSample:
    """Total, incident and scattered wave values at one observation point."""

    r: float
    theta: float
    psi: complex
    psi_in: complex
    psi_sc: complex


# --------------------------------------------------------------------------
# coefficients and angular bases
# --------------------------------------------------------------------------


_I_POWERS = np.array([1, 1j, -1, -1j])  # i^l = _I_POWERS[l % 4], exactly


def _coef_vector(n: int, k: float, lmax: int) -> np.ndarray:
    """P i^l for l = 0..lmax, P = Gamma(n/2) / (sqrt(pi) (k/2)^((n-3)/2)).

    P i^l Q_l^lam = C_l C_l^lam in every n (see angular_table).
    """
    try:
        pref = math.gamma(n / 2.0) / (math.sqrt(math.pi) * (k / 2.0) ** ((n - 3) / 2.0))
        if not 0.0 < pref < math.inf:
            raise OverflowError
    except (OverflowError, ZeroDivisionError) as exc:
        raise OverflowGuardError(f"mode prefactor overflows at n={n}, k={k}") from exc
    return pref * _I_POWERS[np.arange(lmax + 1) % 4]


def mode_coefficient(n: int, k: float, l: int) -> complex:
    """Incoming coefficient C_l fixed by the plane-wave normalisation.

    Generic form:  Gamma(n/2-1)/(sqrt(pi) (k/2)^((n-3)/2)) (2l+n-2) i^l / 2,
    that is P i^l (l + lam)/lam with lam = n/2 - 1.  n = 2 takes the
    removable-singularity limit Deg(l) sqrt(2k/pi) i^l / 2.
    """
    weight = (1 if l == 0 else 2) if n == 2 else (2 * l + n - 2) / (n - 2)
    return complex(_coef_vector(n, k, l)[l] * weight)


def _grid_axes(r_values, theta_values) -> tuple[np.ndarray, np.ndarray]:
    """Radii (finite, > 0) and polar angles (in [0, pi]) as checked 1-D arrays."""
    r = np.asarray(r_values, dtype=float).ravel()
    theta = np.asarray(theta_values, dtype=float).ravel()
    bad_r = r[~((r > 0) & np.isfinite(r))]
    if bad_r.size:
        raise DomainError(f"radius must be finite and > 0, got r={bad_r[0]}")
    bad_theta = theta[~((theta >= 0) & (theta <= math.pi))]
    if bad_theta.size:
        raise DomainError(f"theta must lie in [0, pi], got {bad_theta[0]}")
    return r, theta


def _check_theta_1d(theta: float) -> bool:
    """True for forward (theta=0), False for backward (theta=pi)."""
    if abs(theta) <= _THETA_TOL:
        return True
    if abs(theta - math.pi) <= _THETA_TOL:
        return False
    raise DomainError(f"n=1 admits only theta in {{0, pi}}, got {theta}")


def angular_value(n: int, l: int, theta: float) -> float:
    """Angular basis function of mode l at polar angle theta."""
    if n == 1:
        forward = _check_theta_1d(theta)
        return specfun.gegenbauer(l, -0.5, 1.0 if forward else -1.0)
    if n == 2:
        return math.cos(l * theta)
    return specfun.gegenbauer(l, n / 2.0 - 1.0, math.cos(theta))


def angular_table(n: int, lmax: int, thetas: np.ndarray) -> np.ndarray:
    """Q_l^lam(cos theta), lam = n/2 - 1, shape (lmax+1, len(thetas)).

    Weighted by _coef_vector it equals mode_coefficient * angular_value.
    """
    thetas = np.asarray(thetas, dtype=float)
    x = np.cos(thetas)
    if n == 1:  # theta in {0, pi} only, as x = +-1 exactly
        x = np.reshape([1.0 if _check_theta_1d(t) else -1.0 for t in thetas.flat], x.shape)
    return specfun.harmonic_table(lmax, n / 2.0 - 1.0, x)


# --------------------------------------------------------------------------
# field assembly
# --------------------------------------------------------------------------


def _contract(radial: np.ndarray, ang: np.ndarray) -> np.ndarray:
    """sum_l radial[l, i] ang[l, j], shape (radial.shape[1], ang.shape[1]).

    Accumulates in ascending l with elementwise array operations, so every
    point is summed the same way whatever the grid shape; a BLAS product
    would not guarantee that.
    """
    out = np.zeros((radial.shape[1], ang.shape[1]), dtype=complex)
    for l in range(radial.shape[0]):
        out += radial[l][:, None] * ang[l]
    return out


def _radial_and_derivative(n: int, k: float, h: np.ndarray, r):
    """h_nu(kr)/r^s and its r-derivative for l = 0..len(h)-2, s = (n-3)/2.

    h holds orders l = 0..lmax+1 along its first axis (the extra order feeds
    `hankel_derivative`); r is a scalar or broadcasts against h[:-1].
    """
    s = (n - 3) / 2.0
    nus = (np.arange(h.shape[0] - 1) + s).reshape((-1,) + (1,) * (h.ndim - 1))
    dh = k * specfun.hankel_derivative(nus, h[:-1], h[1:], k * r)
    rs = r**s
    return h[:-1] / rs, dh / rs - s * h[:-1] / (rs * r)


def plane_wave(config: ScatterConfig, r: float, theta: float) -> complex:
    """Partial sum of the n-dimensional plane-wave expansion of e^{ikr cos theta}.

    Uses the j_nu radial basis of `specfun.spherical_jn_basis` (one Miller
    run over every order), so it is an independent float path from the
    Hankel half-sum in psi_incident, whose J runs upward over the low orders.
    """
    if not r > 0:
        raise DomainError(f"radius must be > 0, got r={r}")
    n, k = config.n, config.k
    lmax = config.incident_lmax(r)
    jb = specfun.spherical_jn_basis(n, lmax, k * r)
    ang = angular_table(n, lmax, np.float64(theta))
    coefs = _coef_vector(n, k, lmax)
    acc = 0.0 + 0.0j
    for l in range(lmax + 1):
        acc += 2.0 * coefs[l] * jb[l] * ang[l]
    return acc / r ** ((n - 3) / 2.0)


def a_l(
    config: ScatterConfig, shifts: PhaseShiftSet, l: int, theta: float
) -> complex:
    """Finite-distance partial-wave coefficient a_l(theta).

    This multiplies the exact outgoing wave h_nu(kr)/r^((n-3)/2) in the
    scattering boundary condition and carries all information about the
    scatterer.  n = 1 returns the tabulated two-direction values; only the
    products a_l* a_l' enter one-dimensional observables, so their overall
    sign is a pure convention.
    """
    factor = shifts.phase_factor(l) - 1.0
    if factor == 0.0:
        return 0.0 + 0.0j
    n, k = config.n, config.k
    if n == 1:
        forward = _check_theta_1d(theta)
        if l == 0:
            return -0.5 * k * factor
        if l == 1:
            return (-0.5j if forward else 0.5j) * k * factor
        return 0.0 + 0.0j
    return mode_coefficient(n, k, l) * factor * angular_value(n, l, theta)


def psi_incident(config: ScatterConfig, r: float, theta: float) -> complex:
    """Incident plane wave assembled from both Hankel kinds (half-sum form)."""
    _, psi_in, _ = evaluate_grid(config, PhaseShiftSet((0.0,)), [r], [theta])
    return complex(psi_in[0, 0])


def psi_total(
    config: ScatterConfig, shifts: PhaseShiftSet, r: float, theta: float
) -> FieldSample:
    """Total, incident and scattered wave at one point after elastic scattering.

    The 1x1 case of evaluate_grid, so it equals the grid value bit for bit.
    """
    fields = evaluate_grid(config, shifts, [r], [theta])
    return FieldSample(float(r), float(theta), *(complex(f[0, 0]) for f in fields))


def evaluate_grid(
    config: ScatterConfig,
    shifts: PhaseShiftSet,
    r_values,
    theta_values,
    jobs: int = 1,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Field grids (psi, psi_in, psi_sc), shape (len(r), len(theta)).

    psi_in is the half-sum C_l [h2 + h1] over l <= incident_lmax(r), psi_sc
    the outgoing-only sum C_l (e^{2i delta_l} - 1) h1 over every stored
    shift, and psi = psi_in + psi_sc.  Coefficients and angular table are
    built once per grid, the Hankel basis once per radius.  `jobs` > 1 maps
    the radii over a thread pool, which no longer shortens a run: the basis
    recurrences are Python loops that hold the GIL.  Points are summed in
    ascending l, so a grid value equals the 1x1 evaluation bit for bit, for
    any `jobs`.
    """
    r, theta = _grid_axes(r_values, theta_values)
    n, k = config.n, config.k
    l_in = [config.incident_lmax(float(rv)) for rv in r]
    l_sc = shifts.lmax
    lmax = max([*l_in, l_sc])
    orders = [max(l, l_sc) for l in l_in]
    if jobs is not None and jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            bases = list(pool.map(specfun.hankel_basis, repeat(n), orders, k * r))
    else:
        bases = list(map(specfun.hankel_basis, repeat(n), orders, k * r))

    coefs = _coef_vector(n, k, lmax)
    sc = coefs[: l_sc + 1] * (shifts.phase_factors(l_sc) - 1.0)
    rad_in = np.zeros((lmax + 1, r.size), dtype=complex)  # zero above L(r)
    rad_sc = np.empty((l_sc + 1, r.size), dtype=complex)
    for i, (h2, h1) in enumerate(bases):
        upto = l_in[i] + 1
        rad_in[:upto, i] = coefs[:upto] * (h2[:upto] + h1[:upto])
        rad_sc[:, i] = sc * h1[: l_sc + 1]
    ang = angular_table(n, lmax, theta)
    rs = (r ** ((n - 3) / 2.0))[:, None]
    psi_in = _contract(rad_in, ang) / rs
    psi_sc = _contract(rad_sc, ang) / rs
    return psi_in + psi_sc, psi_in, psi_sc


# --------------------------------------------------------------------------
# radial modes
# --------------------------------------------------------------------------


def _caly_at_radius(order: Order, z: float, series: SeriesControl) -> complex:
    # calY_nu(-1/(ikr)): polynomial route in odd dimension (exact), inverted
    # Hankel route in even dimension (uniformly accurate at any kr).  The two
    # are proven equivalent in the kernel tests.
    if order.is_polynomial:
        return specfun.calY(order, 1j / z, series)
    return specfun.caly_from_hankel(order, z)


def radial_mode(
    config: ScatterConfig, shifts: PhaseShiftSet, l: int, r: float
) -> RadialMode:
    """Coefficients and sine-form data of radial mode l at radius r."""
    if not r > 0:
        raise DomainError(f"radius must be > 0, got r={r}")
    n, k = config.n, config.k
    cl = mode_coefficient(n, k, l)
    dl = cl * shifts.phase_factor(l)
    al = 2.0 * cmath.sqrt(cl * dl)
    y = _caly_at_radius(Order(l, n), k * r, config.series)
    return RadialMode(
        l=l, Cl=cl, Dl=dl, Al=al, Ml=abs(y), DeltaL=float(np.angle(y))
    )


def radial_wavefunction(
    config: ScatterConfig,
    shifts: PhaseShiftSet,
    l: int,
    r: float,
    form: str = "hankel",
) -> complex:
    """Radial function R_l(r), either as the exact Hankel combination

        R_l = [C_l h^(2)_nu(kr) + D_l h^(1)_nu(kr)] / r^((n-3)/2)

    or in the equivalent exact sine form

        R_l = M_l (A_l / kr) sin(kr - nu pi/2 + delta_l + Delta_l) / r^((n-3)/2)

    with M_l, Delta_l evaluated at -1/(ikr).  The sine form uses the
    branch-resolved amplitude 2 C_l e^{i delta_l} (one of the two square
    roots of 4 C_l D_l).
    """
    if not r > 0:
        raise DomainError(f"radius must be > 0, got r={r}")
    n, k = config.n, config.k
    order = Order(l, n)
    z = k * r
    s = (n - 3) / 2.0
    if form == "hankel":
        cl = mode_coefficient(n, k, l)
        dl = cl * shifts.phase_factor(l)
        h2 = specfun.spherical_hankel(2, order, z, config.series)
        h1 = specfun.spherical_hankel(1, order, z, config.series)
        return (cl * h2 + dl * h1) / r**s
    if form == "sine":
        delta = shifts.delta_at(l)
        cl = mode_coefficient(n, k, l)
        y = _caly_at_radius(order, z, config.series)
        amp = 2.0 * cl * cmath.exp(1j * delta)
        phase = z - order.nu * math.pi / 2.0 + delta + np.angle(y)
        return abs(y) * (amp / z) * cmath.sin(phase) / r**s
    raise DomainError(f"unknown form {form!r}")


def f_r_theta_3d(
    config: ScatterConfig, shifts: PhaseShiftSet, r: float, theta: float
) -> complex:
    """Distance-dependent 3D scattering amplitude f(r, theta).

    Satisfies psi(r, theta) = e^{ikr cos theta} + f(r, theta) e^{ikr}/r with
    f(r,theta) = (1/2ik) sum_l (2l+1)(e^{2i delta_l}-1) P_l(cos theta)
    y_l(-1/(ikr)); the Bessel-polynomial factor carries the finite-distance
    correction and tends to 1 as r grows.
    """
    if config.n != 3:
        raise WrongDimensionError(f"f(r, theta) is the 3D amplitude; got n={config.n}")
    if not r > 0:
        raise DomainError(f"radius must be > 0, got r={r}")
    k = config.k
    x = math.cos(theta)
    w = 1j / (k * r)  # -1/(ikr)
    acc = 0.0 + 0.0j
    for l in range(shifts.lmax + 1):
        factor = shifts.phase_factor(l) - 1.0
        if factor == 0.0:
            continue
        acc += (
            (2 * l + 1)
            * factor
            * specfun.gegenbauer(l, 0.5, x)
            * specfun.bessel_polynomial(l, w)
        )
    return acc / (2j * k)


# --------------------------------------------------------------------------
# JSON schema for phase-shift sets
# --------------------------------------------------------------------------


def phase_shifts_from_json(text: str) -> tuple[int, float, PhaseShiftSet]:
    """Parse {"n": int, "k": float, "delta": [float, ...]}."""
    try:
        payload = json.loads(text)
        n = int(payload["n"])
        k = float(payload["k"])
        deltas = [float(d) for d in payload["delta"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed phase-shift document: {exc}") from exc
    return n, k, PhaseShiftSet.from_deltas(deltas)


def phase_shifts_to_json(n: int, k: float, shifts: PhaseShiftSet) -> str:
    """Serialise to the schema accepted by phase_shifts_from_json."""
    if not shifts.is_elastic:
        raise DomainError("JSON schema carries real phase shifts only")
    payload = {
        "n": int(n),
        "k": float(k),
        "delta": [d.real for d in shifts.delta],
    }
    return json.dumps(payload, indent=2) + "\n"
