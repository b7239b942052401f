"""Phase shifts from model potentials.

The radial equation in n spatial dimensions,

    [d^2/dr^2 + (n-1)/r d/dr + k^2 - l(l+n-2)/r^2 - V(r)] R_l(r) = 0,

has the exact free solution C_l h^(2)_nu(kr)/r^s + D_l h^(1)_nu(kr)/r^s
with nu = l + (n-3)/2, s = (n-3)/2, and e^{2i delta_l} = D_l/C_l defines
the phase shift.  Three solvers produce delta_l:

* hard_sphere_shift   -- R_l(a) = 0 on a hard hypersphere of radius a;
* square_well_shift   -- log-derivative matching of the interior
                         j_nu(qr)/r^s (or i_nu(kappa r)/r^s when the
                         interior is evanescent) at the well edge;
* ode_shift           -- outward integration of a tabulated short-range
                         potential, matched to the real free pair
                         F + iG = h^(1)_nu(kr)/r^s in the force-free region.

The ODE route substitutes u = R r^((n-1)/2), which removes the first
derivative and leaves

    u'' + [k^2 - V(r) - (nu_t^2 - 1/4)/r^2] u = 0,   nu_t = l + (n-2)/2,

where nu_t^2 - 1/4 = l(l+n-2) + (n-1)(n-3)/4 is the effective centrifugal
constant of the original equation.  Integration uses the fixed-step Numerov
recurrence (fourth-order global accuracy) for all l in one pass, renormalising
each l on its own so deep classically-forbidden regions cannot overflow.
The fit is made in the real pair (F, G) by the Wronskian W = F G' - G F';
in (h2, h1) the irregular parts of C h2 and D h1 would cancel under a
centrifugal barrier.  Every solver takes its free solution from one
`specfun.hankel_basis` call per radius.

delta is reported as the principal value arg(D/C)/2 in (-pi/2, pi/2];
e^{2i delta} fixes delta only mod pi, so k-sweeps can be made continuous
with unwrap_shifts.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import iv

from . import specfun
from .errors import DomainError, MatchingError
from .partialwave import ScatterConfig, _radial_and_derivative
from .specfun import Order

__all__ = [
    "PotentialModel",
    "MatchResult",
    "hard_sphere_shift",
    "square_well_shift",
    "ode_shift",
    "solve_potential_shifts",
    "unwrap_shifts",
    "potential_from_json",
    "potential_to_json",
]

_KINDS = ("hard_hypersphere", "square_well", "tabulated")


@dataclass(frozen=True)
class PotentialModel:
    """Model potential: hard hypersphere, square well, or tabulated V(r).

    a is the radius (for tabulated potentials, the cutoff beyond which V
    vanishes).  V0 is the well depth in 1/length^2 units (hbar = m = 1);
    negative is attractive.  Tabulated potentials are linearly interpolated
    between samples and are zero at and beyond the last sample.
    """

    kind: str
    a: float
    V0: float = 0.0
    r_table: tuple[float, ...] | None = None
    v_table: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise DomainError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if self.kind == "tabulated":
            if self.r_table is None or self.v_table is None:
                raise DomainError("tabulated potential needs r_table and v_table")
            r = np.asarray(self.r_table, dtype=float)
            v = np.asarray(self.v_table, dtype=float)
            for name, t in (("r_table", r), ("v_table", v)):
                if not np.all(np.isfinite(t)):
                    raise DomainError(f"{name} must be finite, got {t[~np.isfinite(t)][0]}")
            if r.size != v.size or r.size < 2:
                raise DomainError("tables must have equal length >= 2")
            if np.any(np.diff(r) <= 0):
                raise DomainError("r_table must be strictly increasing")
            if v[-1] != 0.0:
                raise DomainError("short range required: last V sample must be 0")
        if not (self.a > 0 and math.isfinite(self.a)):
            raise DomainError(f"radius a must be finite and > 0, got a={self.a}")
        if not math.isfinite(self.V0):
            raise DomainError(f"V0 must be finite, got {self.V0}")

    @classmethod
    def hard_sphere(cls, a: float) -> "PotentialModel":
        return cls(kind="hard_hypersphere", a=a)

    @classmethod
    def square_well(cls, a: float, V0: float) -> "PotentialModel":
        return cls(kind="square_well", a=a, V0=V0)

    @classmethod
    def tabulated(cls, r, v) -> "PotentialModel":
        r = tuple(float(x) for x in r)
        v = tuple(float(x) for x in v)
        return cls(kind="tabulated", a=r[-1], r_table=r, v_table=v)

    def evaluate(self, r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        if self.kind == "square_well":
            return np.where(r < self.a, self.V0, 0.0)
        if self.kind == "tabulated":
            return np.interp(r, self.r_table, self.v_table, left=self.v_table[0], right=0.0)
        raise DomainError("hard hypersphere has no finite V(r); use hard_sphere_shift")


@dataclass(frozen=True)
class MatchResult:
    """Phase shift for one partial wave plus a dimensionless match residual.

    For the closed-form solvers the residual is ||D/C| - 1|; for the ODE
    solver it is the relative mismatch between the fitted A F + B G and the
    integrated solution at a validation radius away from the match point.
    """

    l: int
    delta: float
    c_over_d_residual: float


def unwrap_shifts(deltas) -> np.ndarray:
    """Continuity-unwrap a sweep of principal-branch shifts (period pi)."""
    return np.unwrap(np.asarray(deltas, dtype=float), period=math.pi)


# --------------------------------------------------------------------------
# closed-form solvers
# --------------------------------------------------------------------------


def hard_sphere_shift(config: ScatterConfig, a: float, l: int) -> MatchResult:
    """Hard hypersphere of radius a: R_l(a) = 0.

    C h^(2)_nu(ka) + D h^(1)_nu(ka) = 0 gives e^{2i delta} = -h2(ka)/h1(ka);
    the ratio of conjugates is exactly unimodular on the real axis.
    """
    if not a > 0:
        raise DomainError(f"radius must be > 0, got a={a}")
    Order(l, config.n)  # rejects l < 0
    h2, h1 = specfun.hankel_basis(config.n, l, config.k * a)
    ratio = -h2[l] / h1[l]
    delta = 0.5 * float(np.angle(ratio))
    return MatchResult(l=l, delta=delta, c_over_d_residual=abs(abs(ratio) - 1.0))


def _interior_logderivative(order: Order, q2: float, a: float) -> tuple[float, float]:
    """(value, d/dr value) of the regular interior radial factor at r = a.

    Propagating interior (q^2 > 0): j_nu(q r) = Re h^(1)_nu; evanescent (q^2 < 0):
    the modified function i_nu(kappa r) = sqrt(pi/2z) I_{nu+1/2}(kappa r),
    which is the regular solution under k^2 - V < 0.
    """
    if q2 > 0.0:
        q = math.sqrt(q2)
        j = specfun.hankel_basis(order.n, order.l + 1, q * a)[1].real
        fp = q * specfun.hankel_derivative(order.nu, j[order.l], j[order.l + 1], q * a)
        return j[order.l], fp
    kappa = math.sqrt(-q2)
    z = kappa * a
    f, f_up = math.sqrt(math.pi / (2.0 * z)) * iv(order.bessel_order + np.arange(2.0), z)
    if order.two_nu == -2:
        f = math.cosh(z) / z  # i_{-1}
    # i'_nu(z) = i_{nu-1} - (nu+1)/z i_nu = (nu/z) i_nu + i_{nu+1}
    fp = kappa * ((order.nu / z) * f + f_up)
    return f, fp


def square_well_shift(
    config: ScatterConfig, a: float, V0: float, l: int
) -> MatchResult:
    """Spherical square well/barrier of radius a and depth V0.

    Continuity of R_l and R_l' at r = a (the common r^-s factor cancels in
    the logarithmic derivative) fixes, with f the interior radial factor
    and f' its r-derivative at the edge,

        e^{2i delta} = -(f' h2 - f h2') / (f' h1 - f h1'),

    all Hankel values and derivatives taken at ka.  Numerator and
    denominator are conjugate for a real potential, so |e^{2i delta}| = 1.
    """
    if not a > 0:
        raise DomainError(f"radius must be > 0, got a={a}")
    n, k = config.n, config.k
    q2 = k * k - V0
    if q2 == 0.0:
        raise DomainError("k^2 = V0 exactly is not supported; perturb V0")
    order = Order(l, n)
    f, fp = _interior_logderivative(order, q2, a)
    z = k * a
    h2, h1 = specfun.hankel_basis(n, l + 1, z)
    dh2, dh1 = (k * specfun.hankel_derivative(order.nu, h[l], h[l + 1], z) for h in (h2, h1))
    ratio = -(fp * h2[l] - f * dh2) / (fp * h1[l] - f * dh1)
    delta = 0.5 * float(np.angle(ratio))
    return MatchResult(l=l, delta=delta, c_over_d_residual=abs(abs(ratio) - 1.0))


# --------------------------------------------------------------------------
# ODE solver
# --------------------------------------------------------------------------


def _numerov(r: np.ndarray, q: np.ndarray, p: np.ndarray, b2: np.ndarray) -> np.ndarray:
    """Propagate u'' = Q u outward on the uniform grid r, all l in one pass.

    Column j of q is Q for one l, started as u ~ r^p_j (1 + b2_j r^2).  Each
    column is renormalised on its own as it passes 1e250 (the fit needs no
    scale), so a large high-l column never underflows a small low-l one, and
    each column equals its one-column run bit for bit.
    """
    c = (r[1] - r[0]) ** 2 / 12.0
    grow, damp = 2.0 + 10.0 * c * q, 1.0 - c * q
    u = np.empty_like(q)
    # scalar pow per l: numpy's vectorised pow may round differently
    for i in (0, 1):
        u[i] = [r[i] ** pj * (1.0 + bj * r[i] ** 2) for pj, bj in zip(p.tolist(), b2.tolist())]
    u_prev, u_i = u[0], u[1]
    steps = zip(u[2:], damp[:-2], grow[1:-1], damp[2:])
    for i, (u_next, d_prev, g_i, d_next) in enumerate(steps, 1):
        np.divide(g_i * u_i - d_prev * u_prev, d_next, out=u_next)
        size = np.abs(u_next)
        if np.fmax.reduce(size, initial=0.0) > 1e250:  # fmax: nan hides no column
            u[: i + 2, size > 1e250] *= 1e-250
        u_prev, u_i = u_i, u_next
    return u


def _ode_shifts(config: ScatterConfig, potential: PotentialModel, ls: range,
                r_match: float | None) -> list[MatchResult]:
    """ode_shift for each l in ls, with all l propagated in one Numerov pass."""
    if potential.kind != "tabulated":
        raise DomainError("ode_shift integrates tabulated potentials; use the "
                          "closed-form solvers for ideal wells and hard spheres")
    n, k = config.n, config.k
    a = potential.a
    if r_match is None:
        r_match = 1.3 * a
    if not r_match > a:
        raise DomainError(f"r_match must exceed the potential range {a}")
    Order(ls.start, n)  # rejects l < 0
    if not ls:
        return []

    dr_table = float(np.min(np.diff(np.asarray(potential.r_table))))
    h = min(1.0 / (20.0 * k), a / 200.0, dr_table / 2.0)
    r_end = r_match + 6.0 * h
    npts = int(math.ceil(r_end / h)) + 1
    r = h * np.arange(1, npts + 1)
    v = potential.evaluate(r)

    p = np.array(ls) + (n - 1) / 2.0
    # centrifugal constant of the substituted equation, c = nu_t^2 - 1/4 = p(p - 1)
    cent = p * (p - 1.0)
    b2 = (float(v[0]) - k * k) / (4.0 * p + 2.0)  # next order of the regular series
    u_all = _numerov(r, cent / (r * r)[:, None] + v[:, None] - k * k, p, b2)

    s, e = (n - 3) / 2.0, (n - 1) / 2.0
    idx = min(max(int(np.searchsorted(r, r_match)), 2), r.size - 3)
    rm = r[idx]
    # validate at an independent free-region radius
    idx_val = min(max(int(np.searchsorted(r, a + 0.6 * (rm - a))), 2), r.size - 3)
    rv = r[idx_val]
    # F + iG = h1_nu(kr)/r^s and its r-derivative at the match, F_v + iG_v at rv
    f1, d1 = _radial_and_derivative(n, k, specfun.hankel_basis(n, ls[-1] + 1, k * rm)[1], rm)
    f1, d1 = f1[ls.start:], d1[ls.start:]
    f1v = specfun.hankel_basis(n, ls[-1], k * rv)[1][ls.start:] / rv**s
    u = u_all[idx - 2 : idx + 3]
    du = (u[0] - 8.0 * u[1] + 8.0 * u[3] - u[4]) / (12.0 * h)
    big_r = u[2] / rm**e
    big_rp = du / rm**e - e * u[2] / rm ** (e + 1.0)
    # R = A F + B G, R' = A F' + B G' by Cramer's rule
    wr = f1.real * d1.imag - f1.imag * d1.real
    coef_a = (big_r * d1.imag - f1.imag * big_rp) / wr
    coef_b = (f1.real * big_rp - big_r * d1.real) / wr
    model = coef_a * f1v.real + coef_b * f1v.imag
    actual = u_all[idx_val] / rv**e
    scale = np.maximum(np.maximum(np.abs(actual), np.abs(model)), 1e-280)
    residuals = np.abs(model - actual) / scale
    # e^{2i delta} = D/C = (A - iB)/(A + iB)
    deltas = 0.5 * np.angle((coef_a - 1j * coef_b) / (coef_a + 1j * coef_b))
    results = []
    for l, delta, residual in zip(ls, deltas.tolist(), residuals.tolist()):
        if k * r_match < l:
            warnings.warn(f"matching at k*r={k * r_match:.3g} < l={l} is classically "
                          "forbidden; expect reduced accuracy", stacklevel=3)
        if residual > 1e-6:
            raise MatchingError(f"free-region residual {residual:.3e} at l={l}; refine "
                                "the table or move r_match outward")
        results.append(MatchResult(l=l, delta=delta, c_over_d_residual=residual))
    return results


def ode_shift(
    config: ScatterConfig,
    potential: PotentialModel,
    l: int,
    r_match: float | None = None,
) -> MatchResult:
    """Phase shift of a tabulated short-range potential by direct integration.

    Integrates the substituted equation u'' = [c/r^2 + V - k^2] u,
    c = l(l+n-2) + (n-1)(n-3)/4, from a regular start u ~ r^(l+(n-1)/2)
    out to r_match > r_cut, then fits R = A F + B G, R' = A F' + B G' in the
    real free pair F + iG = h1_nu(kr)/r^s by Cramer's rule (Wronskian
    W = F G' - G F'); C = (A + iB)/2, D = (A - iB)/2 and
    e^{2i delta} = D/C = (A - iB)/(A + iB).  The residual, |A F + B G - R|
    over the larger of the two at a second free-region radius, must stay
    below 1e-6.  It sees only the integration between the two radii: an
    error inside the potential, such as the start at r = h, moves A and B
    and passes it.  At n = 2, l = 0, u ~ sqrt(r) has derivatives singular
    at the origin, and e^{2i delta} is off by 1e-2 while the residual passes.

    Step size: min(1/(20 k), a/200, half the finest table spacing) -- the
    last term so that steep tabulated features (ramps approximating jumps)
    are actually resolved by the grid.
    """
    return _ode_shifts(config, potential, range(l, l + 1), r_match)[0]


def solve_potential_shifts(
    config: ScatterConfig, potential: PotentialModel, lmax: int
) -> list[MatchResult]:
    """delta_l for l = 0..lmax with the solver matching the potential kind."""
    if potential.kind == "hard_hypersphere":
        return [hard_sphere_shift(config, potential.a, l) for l in range(lmax + 1)]
    if potential.kind == "square_well":
        return [
            square_well_shift(config, potential.a, potential.V0, l)
            for l in range(lmax + 1)
        ]
    return _ode_shifts(config, potential, range(lmax + 1), None)


# --------------------------------------------------------------------------
# JSON schema for potentials
# --------------------------------------------------------------------------


def potential_from_json(text: str) -> PotentialModel:
    """Parse {"kind": "...", "a": ..., "V0": ...} or {"kind": "tabulated",
    "r": [...], "V": [...]}."""
    try:
        payload = json.loads(text)
        kind = payload["kind"]
        if kind == "tabulated":
            return PotentialModel.tabulated(payload["r"], payload["V"])
        if kind == "square_well":
            return PotentialModel.square_well(float(payload["a"]), float(payload["V0"]))
        if kind == "hard_hypersphere":
            return PotentialModel.hard_sphere(float(payload["a"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed potential document: {exc}") from exc
    raise DomainError(f"unknown potential kind {payload.get('kind')!r}")


def potential_to_json(potential: PotentialModel) -> str:
    if potential.kind == "tabulated":
        payload = {
            "kind": "tabulated",
            "r": list(potential.r_table),
            "V": list(potential.v_table),
        }
    elif potential.kind == "square_well":
        payload = {"kind": "square_well", "a": potential.a, "V0": potential.V0}
    else:
        payload = {"kind": "hard_hypersphere", "a": potential.a}
    return json.dumps(payload, indent=2) + "\n"
