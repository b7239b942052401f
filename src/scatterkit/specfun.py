"""Special-function kernels for finite-distance scattering fields.

Radial solutions of the free equation in n spatial dimensions are spherical
Hankel functions of order nu = l + (n-3)/2: integer nu in odd dimension,
half-integer nu in even dimension.  Two independent evaluation routes are
kept side by side:

* route A rewrites h_nu^(1,2)(z) as a unimodular phase times the function

      calY_nu(z) = (2/z)^(nu+1) * U(nu+1, 2(nu+1), 2/z),

  which collapses to the Bessel polynomial y_nu(z) for integer nu and is an
  infinite logarithmic series for half-integer nu;

* route B goes through ordinary Bessel functions J, Y of order nu + 1/2.
  The scalar `spherical_hankel` takes them from scipy's jv/yv at the one
  order; the vectorised `hankel_basis` builds all orders l = 0..lmax by
  the three-term recurrence in l from scipy seeds (Y upward from l = 0, 1;
  J upward from l = 0, 1 through l ~ z/2 and downward from above the
  turning point l ~ z, joined by the exact Wronskian), one scipy call per
  seed pair instead of one per order.  `spherical_jn_basis` (the
  `plane_wave` oracle) takes J from one downward run over every order.

Route A is a test oracle: its logarithmic U series is summed in mpmath
(imported on first use) and rounded to complex128 once, and the integer-nu
Bessel polynomials in float64.  The two routes are compared against each
other in the test suite, and the recurrences against mpmath and the scalar
route, their oracle, which has no production caller.  Production (fields,
currents and the phase-shift solvers) uses the fast, accurate recurrences.

All functions here are pure, and all but one are safe for concurrent use.
The exception is the U series of route A (`tricomi_u_integer_b` unless a is
a non-positive integer, and `calY` in even dimension): `mp.workdps` sets
mpmath's process-wide working precision while it runs, so concurrent mpmath
users, this series included, see each other's precision.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import jv, yv

from .errors import DomainError, OverflowGuardError, TruncationError

__all__ = [
    "SeriesControl",
    "DEFAULT_SERIES",
    "Order",
    "pochhammer",
    "gegenbauer",
    "gegenbauer_table",
    "harmonic_table",
    "bessel_polynomial",
    "bessel_polynomial_coefficients",
    "tricomi_u_integer_b",
    "calY",
    "caly_from_hankel",
    "spherical_hankel",
    "spherical_bessel_j",
    "hankel_basis",
    "hankel_derivative",
    "spherical_jn_basis",
]

_EPS = float(np.finfo(float).eps)

@dataclass(frozen=True)
class SeriesControl:
    """Truncation policy for the infinite series kernels.

    rel_tol is a relative tolerance on the partial sum, max_terms the hard
    term budget, underflow_guard an absolute floor below which terms count
    as converged regardless of the partial sum.
    """

    rel_tol: float = 1e-12
    max_terms: int = 500
    underflow_guard: float = 1e-300

    def __post_init__(self) -> None:
        if not self.rel_tol > 0 or self.rel_tol < 100 * _EPS:
            raise DomainError(
                f"rel_tol must satisfy 100*eps <= rel_tol, got {self.rel_tol}"
            )
        if self.max_terms < 16:
            raise DomainError(f"max_terms must be >= 16, got {self.max_terms}")
        if not self.underflow_guard > 0:
            raise DomainError("underflow_guard must be positive")


DEFAULT_SERIES = SeriesControl()


@dataclass(frozen=True)
class Order:
    """Radial order nu = l + (n-3)/2 for partial wave l in dimension n.

    2*nu = 2l + n - 3 is held as an exact integer so the odd/even dimension
    dispatch (integer vs half-integer nu) never relies on float parity.
    """

    l: int
    n: int

    def __post_init__(self) -> None:
        if self.l < 0:
            raise DomainError(f"partial-wave index must be >= 0, got l={self.l}")
        if self.n < 1:
            raise DomainError(f"dimension must be >= 1, got n={self.n}")

    @property
    def two_nu(self) -> int:
        return 2 * self.l + self.n - 3

    @property
    def nu(self) -> float:
        return 0.5 * self.two_nu

    @property
    def bessel_order(self) -> float:
        """Order nu + 1/2 of the ordinary Bessel functions (route B)."""
        return 0.5 * (self.two_nu + 1)

    @property
    def is_polynomial(self) -> bool:
        """True when nu is an integer, i.e. in odd spatial dimension."""
        return self.two_nu % 2 == 0


# --------------------------------------------------------------------------
# Pochhammer
# --------------------------------------------------------------------------


def pochhammer(alpha: float, m: int) -> float:
    """Rising factorial (alpha)_m = alpha (alpha+1) ... (alpha+m-1).

    Computed as a plain product so zero factors (negative integer alpha)
    come out exactly zero instead of tripping Gamma poles.
    """
    if m < 0:
        raise DomainError(f"pochhammer count must be >= 0, got m={m}")
    out = 1.0
    for i in range(m):
        out *= alpha + i
    return out


# --------------------------------------------------------------------------
# Gegenbauer polynomials
# --------------------------------------------------------------------------


def gegenbauer_table(lmax: int, lam: float, x: np.ndarray) -> np.ndarray:
    """C_l^lam(x) for l = 0..lmax by the three-term recurrence, vectorised in x.

    Valid for lam != 0; the oracle of `harmonic_table`, which production uses.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty((lmax + 1,) + x.shape, dtype=float)
    out[0] = 1.0
    if lmax >= 1:
        out[1] = 2.0 * lam * x
    for l in range(2, lmax + 1):
        out[l] = (2.0 * (l + lam - 1.0) * x * out[l - 1] - (l + 2.0 * lam - 2.0) * out[l - 2]) / l
    return out


def harmonic_table(lmax: int, lam: float, x: np.ndarray) -> np.ndarray:
    """Q_l^lam(x) = ((l + lam)/lam) C_l^lam(x) for l = 0..lmax, vectorised in x.

    The angular basis of every dimension, lam = n/2 - 1 >= -1/2: finite at
    lam = 0, where Q_l = Deg(l) cos(l theta), and exactly [1, x, 0, ...] at
    lam = -1/2, x = +-1.  Q_l = ((l + lam)/l) [2x Q_(l-1) - rho_l Q_(l-2)]
    with rho_l = (l + 2 lam - 2)/(l + lam - 2), and rho_2 = 2 (0/0 at lam = 0).
    """
    x = np.asarray(x, dtype=float)
    out = np.empty((lmax + 1,) + x.shape, dtype=float)
    out[0] = 1.0
    if lmax >= 1:
        out[1] = 2.0 * (1.0 + lam) * x
    two_x = 2.0 * x
    for l in range(2, lmax + 1):
        rho = 2.0 if l == 2 else (l + 2.0 * lam - 2.0) / (l + lam - 2.0)
        out[l] = (l + lam) / l * (two_x * out[l - 1] - rho * out[l - 2])
    return out


def gegenbauer(l: int, lam: float, x: float) -> float:
    """Gegenbauer polynomial C_l^lam(x) on [-1, 1].

    lam = 1/2 gives the Legendre polynomial.  lam = 0 (planar problems) is
    rejected: that limit is handled at the amplitude level with cos(l*theta)
    and a degeneracy weight.  lam = -1/2 (the one-dimensional angular basis)
    is only defined here at x = +-1, where the generating function
    (1 - 2xt + t^2)^(1/2) = |1 -+ t| terminates.
    """
    if l < 0:
        raise DomainError(f"degree must be >= 0, got l={l}")
    if abs(x) > 1.0:
        raise DomainError(f"argument must lie in [-1, 1], got x={x}")
    if lam == 0.0:
        raise DomainError("lam=0 is the planar case; use the cos(l*theta) form")
    if lam == -0.5:
        if x == 1.0:
            return 1.0 if l == 0 else (-1.0 if l == 1 else 0.0)
        if x == -1.0:
            return 1.0 if l <= 1 else 0.0
        raise DomainError("lam=-1/2 is supported only at x=+-1 (forward/backward)")
    return float(gegenbauer_table(l, lam, np.float64(x))[l])


# --------------------------------------------------------------------------
# Bessel polynomials and the Tricomi function with integer second parameter
# --------------------------------------------------------------------------


def bessel_polynomial_coefficients(nu: int) -> list[int]:
    """Exact integer coefficients c_j = (nu+j)!/(j!(nu-j)!) of y_nu(z) in (z/2)^j."""
    if nu < 0:
        raise DomainError(f"polynomial degree must be >= 0, got nu={nu}")
    coeffs = [1]
    c = 1
    for j in range(nu):
        c = c * (nu + j + 1) * (nu - j) // (j + 1)
        coeffs.append(c)
    return coeffs


def bessel_polynomial(nu: int, z: complex) -> complex:
    """Bessel polynomial y_nu(z) = sum_j (nu+j)!/(j!(nu-j)!) (z/2)^j, Horner form.

    nu = -1 is admitted with the standard convention y_{-1} = 1.
    """
    if nu == -1:
        return 1.0 + 0.0j
    coeffs = bessel_polynomial_coefficients(nu)
    w = complex(z) / 2.0
    acc = complex(coeffs[-1])
    for c in reversed(coeffs[:-1]):
        acc = acc * w + c
    return acc


def _u_negative_integer_a(p: int, m: int, z: complex) -> complex:
    # U(-p, m+1, z) is the degree-p polynomial (-1)^p p! L_p^(m)(z).
    acc = 0.0 + 0.0j
    for k in range(p + 1):
        acc += math.comb(p, k) * pochhammer(m + 1 + k, p - k) * (-z) ** k
    return (-1.0) ** p * acc


def _u_log_series(a: float, m: int, z: complex, control: SeriesControl) -> complex:
    # The logarithmic expansion of tricomi_u_integer_b, summed in mpmath with
    # enough guard digits to absorb the cancellation before rounding back to
    # complex128: the terms peak near e^|z| while the sum is O(|z|^-a), and
    # the log series cancels against the finite 1/z^k part.  mpmath is
    # imported here, so that production, which never reaches this oracle,
    # does not load it.
    import mpmath as mp

    dps = 30 + int(0.45 * abs(z)) + int(abs(a) * math.log10(abs(z) + 2.0))
    with mp.workdps(dps):
        za = mp.mpc(z)
        aa = mp.mpf(a)
        out = mp.mpc(0)
        fin = mp.mpc(0)
        zinv = 1 / za
        for k in range(1, m + 1):
            fin += (
                mp.factorial(k - 1)
                * mp.rf(1 - aa + k, m - k)
                / mp.factorial(m - k)
            ) * zinv**k
        out += fin / mp.gamma(aa)

        am = aa - m
        if not (am <= 0 and am == mp.floor(am)):
            pref = mp.mpf((-1) ** (m + 1)) / (mp.factorial(m) * mp.gamma(am))
            logz = mp.log(za)
            term_c = mp.mpc(1)
            d_a = mp.psi(0, aa)
            d_1 = mp.psi(0, 1)
            d_m = mp.psi(0, m + 1)
            consecutive_small = 0
            for k in range(control.max_terms):
                term = pref * term_c * (logz + d_a - d_1 - d_m)
                out += term
                # convergence is judged against the full value, finite part
                # included: the two parts cancel, so the series' own partial
                # sum is the wrong yardstick
                if abs(term) <= max(control.rel_tol * abs(out), control.underflow_guard):
                    consecutive_small += 1
                    if consecutive_small >= 3:
                        break
                else:
                    consecutive_small = 0
                term_c *= za * (aa + k) / ((m + 1 + k) * (k + 1))
                d_a += 1 / (aa + k)
                d_1 += mp.mpf(1) / (1 + k)
                d_m += mp.mpf(1) / (m + 1 + k)
            else:
                raise TruncationError(
                    f"U(a={a}, b={m + 1}, z={z}): series not converged in "
                    f"{control.max_terms} terms"
                )
        return complex(out)


def tricomi_u_integer_b(
    a: float, m: int, z: complex, control: SeriesControl = DEFAULT_SERIES
) -> complex:
    """Tricomi confluent hypergeometric U(a, m+1, z) for integer m >= 0.

    Uses the logarithmic expansion

        U(a, m+1, z) = (-1)^(m+1)/(m! Gamma(a-m))
                       * sum_k (a)_k/((m+1)_k k!) z^k
                         [ln z + psi(a+k) - psi(1+k) - psi(m+k+1)]
                     + (1/Gamma(a)) sum_{k=1}^m (k-1)! (1-a+k)_{m-k}/(m-k)! z^-k.

    When a - m is a non-positive integer the 1/Gamma(a-m) factor kills the
    logarithmic series and only the finite sum survives; that is exactly the
    odd-dimension reduction to the Bessel polynomial.  Matches the asymptotic
    behaviour U ~ z^-a for large |z|.

    The logarithmic series is summed in mpmath at every z, with a digit
    budget that grows with |z| and a, and rounded to complex128 once.  It is
    a test oracle (route A), not a production path.
    """
    if m < 0:
        raise DomainError(f"second parameter m must be >= 0, got {m}")
    if z == 0:
        raise DomainError("U(a, m+1, z) requires z != 0")
    a = float(a)
    z = complex(z)
    if a == 0.0:
        return 1.0 + 0.0j
    if a < 0.0 and a == round(a):
        return _u_negative_integer_a(int(-a), m, z)
    return _u_log_series(a, m, z, control)


# --------------------------------------------------------------------------
# calY and the spherical Hankel functions
# --------------------------------------------------------------------------


def calY(order: Order, z: complex, control: SeriesControl = DEFAULT_SERIES) -> complex:
    """calY_nu(z) = (2/z)^(nu+1) U(nu+1, 2(nu+1), 2/z) at nu = l + (n-3)/2.

    Integer nu (odd dimension) collapses to the Bessel polynomial y_nu(z);
    half-integer nu (even dimension) goes through the logarithmic U series.
    calY_nu(z) -> 1 as z -> 0, which is the large-distance limit of the
    radial phase/modulus corrections.
    """
    if z == 0:
        raise DomainError("calY requires z != 0")
    tn = order.two_nu
    if tn == -2:
        return 1.0 + 0.0j  # y_{-1} is identically 1
    if tn % 2 == 0:
        return bessel_polynomial(tn // 2, z)
    nu = 0.5 * tn
    w = 2.0 / complex(z)
    return w ** (nu + 1.0) * tricomi_u_integer_b(nu + 1.0, tn + 1, w, control)


def caly_from_hankel(order: Order, z: float) -> complex:
    """calY_nu(-1/(iz)) recovered by inverting the outgoing Hankel rewrite.

    h_nu^(1)(z) = e^{i(z - nu pi/2)} (1/(iz)) calY_nu(-1/(iz)), so the value
    follows from the ordinary-Bessel route; this is the cross-validation
    partner of calY (route A) at standard precision.
    """
    h1 = spherical_hankel(1, order, z)
    nu = order.nu
    return 1j * z * h1 * cmath.exp(-1j * (z - nu * math.pi / 2.0))


def spherical_hankel(
    kind: int,
    order: Order,
    z: float,
    control: SeriesControl = DEFAULT_SERIES,
    method: str = "bessel",
) -> complex:
    """Spherical Hankel function h_nu^(kind)(z), nu = l + (n-3)/2, real z > 0.

    method="bessel" (route B) uses sqrt(pi/2z) (J_{nu+1/2} +- i Y_{nu+1/2});
    method="caly" (route A) uses the phase-times-calY rewrite.  For nu = -1
    (n=1, l=0) the closed forms h^{(1,2)}_{-1}(z) = e^{+-iz}/z are used
    directly; downward recurrences from nu=0 are unstable there.
    """
    if kind not in (1, 2):
        raise DomainError(f"kind must be 1 or 2, got {kind}")
    if not z > 0:
        raise DomainError(f"argument must be real and > 0, got z={z}")
    sign = 1.0 if kind == 1 else -1.0
    if order.two_nu == -2:
        return cmath.exp(sign * 1j * z) / z
    if method == "bessel":
        o = order.bessel_order
        val = math.sqrt(math.pi / (2.0 * z)) * complex(jv(o, z), sign * yv(o, z))
        if not (math.isfinite(val.real) and math.isfinite(val.imag)):
            raise OverflowGuardError(
                f"h_nu^{kind} overflow at nu={order.nu}, z={z}"
            )
        return val
    if method == "caly":
        nu = order.nu
        phase = cmath.exp(sign * 1j * (z - nu * math.pi / 2.0))
        y = calY(order, sign * 1j / z, control)
        return sign * phase * y / (1j * z)
    raise DomainError(f"unknown method {method!r}")


def spherical_bessel_j(
    order: Order, z: float, control: SeriesControl = DEFAULT_SERIES
) -> float:
    """j_nu(z) = Re h_nu^(1)(z), the scalar oracle of j_nu: on the real axis
    the two kinds are exact conjugates, so this is their half-sum bit for bit."""
    return spherical_hankel(1, order, z, control).real


# --------------------------------------------------------------------------
# Vectorised radial bases for field assembly
# --------------------------------------------------------------------------


# Seed order of the downward J run: a margin above the turning point l ~ z,
# far enough into the decaying region that the seeds' errors add almost no
# Y to the run.
_SEED_MARGIN = 20
# Smallest |J| accepted as a seed: a normal float with room to spare.
_SEED_FLOOR = 1e-280
# Largest basis argument: scipy's jv/yv seeds are within 5e-16 of their
# amplitude up to here, but 0.2 off at 3e15 and 0.9 at 1e16.
_Z_MAX = 1e15


def _basis_prefactor(z: float) -> float:
    """sqrt(pi / 2z) for a basis at argument z; rejects z it cannot serve."""
    if not (z > 0 and math.isfinite(z)):
        raise DomainError(f"argument must be real, finite and > 0, got z={z}")
    if z > _Z_MAX:
        raise DomainError(f"kr = {z:.6g} exceeds the limit {_Z_MAX:.0e} of the Bessel basis")
    pref = math.sqrt(math.pi / (2.0 * z))
    if math.isinf(pref):
        raise OverflowGuardError(f"sqrt(pi/2z) overflows at z={z}")
    return pref


def _recurrence_coefs(mu0: float, lo: int, hi: int, z: float) -> list[float]:
    """2 mu_l / z for l = lo..hi-1, mu_l = l + mu0; each entry depends on l only."""
    with np.errstate(over="ignore"):  # an inf here surfaces as an overflowing Y
        return (2.0 * (np.arange(lo, hi) + mu0) / z).tolist()


def _upward(f0: float, f1: float, coefs: list[float], lmax: int) -> list[float]:
    """f_0..f_lmax of f_{l+1} = c_l f_l - f_{l-1}; coefs[i] = c_{i+1}.

    Python floats, so an overflow becomes inf without a numpy warning.
    """
    out = [f0, f1][: lmax + 1]
    a, b = out[0], out[-1]
    append = out.append
    for c in coefs[: max(lmax - 1, 0)]:
        a, b = b, c * b - a
        append(b)
    return out


def _downward_j(mu0: float, lo: int, hi: int, z: float) -> np.ndarray:
    """J_{l+mu0}(z) for l = lo..hi by Miller's downward recurrence.

    J_{l-1} = (2 mu_l / z) J_l - J_{l+1} is the stable direction past the
    turning point (J decays with l) and neutral below it.  The run starts
    from scipy's jv at the pair s-1, s with s = ceil(z) + margin, lowered
    while J there is not a normal float (tiny z; at s = lo + 1 every order
    comes straight from jv); orders above s come from the same vectorised jv
    call.  s depends on (mu0, lo, z) only, never on hi.
    """
    s = math.ceil(z) + _SEED_MARGIN
    while s > lo + 1 and abs(jv(s + mu0, z)) < _SEED_FLOOR:
        s -= 1
    top = jv(np.arange(s - 1, max(s, hi) + 1) + mu0, z)  # orders s-1..
    a, b = float(top[1]), float(top[0])
    out = [b]
    append = out.append
    for c in reversed(_recurrence_coefs(mu0, lo + 1, s, z)):
        a, b = b, c * b - a
        append(b)
    out.reverse()  # orders lo..s-1
    return np.concatenate((out, top[1:]))[: hi - lo + 1]


def hankel_basis(n: int, lmax: int, z: float) -> tuple[np.ndarray, np.ndarray]:
    """(h^(2), h^(1)) at orders nu_l = l + (n-3)/2 for l = 0..lmax (route B).

    With mu_l = nu_l + 1/2, h_l = sqrt(pi/2z) (J_mu_l(z) +- i Y_mu_l(z)).
    Y runs upward from scipy's yv at l = 0, 1 by Y_{l+1} = (2 mu_l / z) Y_l
    - Y_{l-1}, the stable direction (Y grows with l).  J runs upward the
    same way from jv at l = 0, 1, but only through the orders mu_l <= z/2,
    well inside the oscillatory region where both directions are stable:
    rounding that accumulates upward then stays in the low orders, whose
    partial-wave weights are small.  Orders above come from `_downward_j`,
    rescaled so that the Wronskian j_{m+1} y_m - j_m y_{m+1} = 1/z^2 holds
    exactly at the junction m, which removes the seeds' own scale error
    (scipy's jv is least accurate deep in the decaying region).  The
    downward run is ~z/2 + margin steps and runs only for lmax > m, so the
    cost is O(lmax); every entry depends on (n, l, z) only, never on lmax.
    Returns two complex arrays of length lmax+1; raises OverflowGuardError
    where Y overflows, and DomainError for lmax < 0 or z above 1e15.
    """
    pref = _basis_prefactor(z)
    if lmax < 0:
        raise DomainError(f"lmax must be >= 0, got {lmax}")
    mu0 = (n - 2) / 2.0
    coefs = _recurrence_coefs(mu0, 1, lmax, z)
    y0, y1 = (pref * float(v) for v in yv((mu0, mu0 + 1.0), z))
    y = _upward(y0, y1, coefs, lmax)
    if not math.isfinite(y[-1]):  # |Y| grows with l: the last entry overflows first
        raise OverflowGuardError(f"Hankel overflow for lmax={lmax}, n={n}, z={z}")
    m = max(math.floor(z / 2.0 - mu0), 0)  # last order whose J runs upward
    j0, j1 = (pref * float(v) for v in jv((mu0, mu0 + 1.0), z))
    h1 = np.empty(lmax + 1, dtype=complex)
    h1.real[: m + 1] = _upward(j0, j1, coefs, min(m, lmax))
    if lmax > m:
        j = pref * _downward_j(mu0, m, lmax, z)  # orders m..lmax
        w = (z * float(j[1])) * (z * y[m]) - (z * float(j[0])) * (z * y[m + 1])
        h1.real[m + 1 :] = j[1:] / w
    h1.imag = y
    h2 = h1.conj()
    if n == 1:
        # l = 0 has nu = -1; pin the closed form used by the scalar route
        h1[0] = cmath.exp(1j * z) / z
        h2[0] = cmath.exp(-1j * z) / z
    return h2, h1


def hankel_derivative(nu, h, h_next, z):
    """d/dz h_nu(z) = (nu/z) h_nu(z) - h_{nu+1}(z).

    Holds for h^(1), h^(2) and j_nu alike at nu = l + (n-3)/2; scalars or
    broadcastable arrays.
    """
    return (nu / z) * h - h_next


def spherical_jn_basis(n: int, lmax: int, z: float) -> np.ndarray:
    """j_nu at orders nu_l = l + (n-3)/2 for l = 0..lmax, real array.

    The `plane_wave` oracle: one Miller run (`_downward_j`) from above the
    turning point down to l = 0, seeded by jv and not rescaled, with no Y.
    Below l ~ z/2, where `hankel_basis` runs J upward, the two paths are
    independent; above it both take the same downward run, which
    `hankel_basis` rescales at the junction.
    """
    out = _basis_prefactor(z) * _downward_j((n - 2) / 2.0, 0, lmax, z)
    if n == 1:
        out[0] = math.cos(z) / z  # j_{-1}
    return out
