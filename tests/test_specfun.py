"""Kernel tests: every operation against an independent high-precision oracle.

Oracles are mpmath (different algorithms, 40+ digits), scipy closed-form
specials, and exact integer arithmetic for the polynomial identities.
"""

import cmath
import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import eval_legendre, hankel1

from scatterkit import errors, specfun
from scatterkit.specfun import (
    DEFAULT_SERIES,
    Order,
    SeriesControl,
    bessel_polynomial,
    bessel_polynomial_coefficients,
    calY,
    caly_from_hankel,
    gegenbauer,
    hankel_basis,
    pochhammer,
    spherical_bessel_j,
    spherical_hankel,
    spherical_jn_basis,
    tricomi_u_integer_b,
)

mp.mp.dps = 40

class TestPochhammer:
    def test_examples(self):
        assert pochhammer(3.0, 0) == 1.0
        assert pochhammer(2.0, 3) == 24.0
        assert pochhammer(-1.0, 3) == 0.0

    @given(
        st.floats(-10, 10, allow_nan=False, width=32),
        st.integers(min_value=0, max_value=20),
    )
    def test_recurrence(self, alpha, m):
        alpha = float(alpha)
        left = pochhammer(alpha, m + 1)
        right = pochhammer(alpha, m) * (alpha + m)
        assert left == pytest.approx(right, rel=1e-12, abs=1e-300)

    def test_negative_count(self):
        with pytest.raises(errors.DomainError):
            pochhammer(1.0, -1)


class TestGegenbauer:
    def test_degree_zero(self):
        for lam in (0.7, -0.5, 2.0):
            for x in (1.0, -1.0, 0.3) if lam != -0.5 else (1.0, -1.0):
                assert gegenbauer(0, lam, x) == 1.0

    def test_legendre_at_one(self):
        assert gegenbauer(2, 0.5, 1.0) == pytest.approx(1.0, abs=1e-14)

    def test_one_dimensional_table(self):
        assert gegenbauer(1, -0.5, -1.0) == 1.0
        assert gegenbauer(1, -0.5, 1.0) == -1.0
        assert gegenbauer(0, -0.5, 1.0) == 1.0
        assert gegenbauer(4, -0.5, -1.0) == 0.0

    def test_legendre_equivalence(self):
        # C_l^(1/2) is the Legendre polynomial; 21 Chebyshev-spaced points
        xs = np.cos((2 * np.arange(21) + 1) * np.pi / 42)
        for l in range(21):
            for x in xs:
                ours = gegenbauer(l, 0.5, float(x))
                ref = float(eval_legendre(l, x))
                assert abs(ours - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_domain_errors(self):
        with pytest.raises(errors.DomainError):
            gegenbauer(2, 0.5, 1.5)
        with pytest.raises(errors.DomainError):
            gegenbauer(2, 0.0, 0.5)
        with pytest.raises(errors.DomainError):
            gegenbauer(2, -0.5, 0.5)


class TestBesselPolynomial:
    def test_empty_sum(self):
        assert bessel_polynomial(0, 5 + 2j) == 1.0 + 0.0j

    def finite_sum_oracle(self, nu, z):
        # direct evaluation of sum_j (nu+j)!/(j!(nu-j)!) (z/2)^j
        return sum(
            math.factorial(nu + j)
            / (math.factorial(j) * math.factorial(nu - j))
            * (z / 2.0) ** j
            for j in range(nu + 1)
        )

    def test_low_orders(self):
        for z in (0.3 + 0.1j, -2.0, 1j):
            assert bessel_polynomial(1, z) == pytest.approx(1 + z, rel=1e-14)
            assert bessel_polynomial(2, z) == pytest.approx(
                1 + 3 * z + 3 * z * z, rel=1e-14
            )

    def test_against_finite_sum(self, rng):
        for nu in range(0, 12):
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            ref = self.finite_sum_oracle(nu, z)
            assert bessel_polynomial(nu, z) == pytest.approx(ref, rel=1e-12)

    def test_coefficients_exact(self):
        for nu in range(0, 14):
            ref = [
                math.factorial(nu + j) // (math.factorial(j) * math.factorial(nu - j))
                for j in range(nu + 1)
            ]
            assert bessel_polynomial_coefficients(nu) == ref

    def test_y_minus_one(self):
        assert bessel_polynomial(-1, 3.7 + 1j) == 1.0 + 0.0j


class TestTricomiU:
    def test_asymptotic_inverse(self):
        # U(a, b, z) ~ z^-a (1 - a(a-b+1)/z + ...); at a=1, b=1, z=50 the
        # exact first correction is 1/z = 2%, so that is the right band
        val = tricomi_u_integer_b(1.0, 0, 50.0)
        assert abs(val - 1.0 / 50.0) < 0.025 * abs(1.0 / 50.0)
        assert abs(50.0 * val - (1.0 - 1.0 / 50.0)) < 1e-3

    def test_pole_suppressed_finite_sum(self):
        # a - m a nonpositive integer kills the log series.  For a=2, m=3
        # the finite sum reduces by hand (Kummer transform of U(-1,-2,z))
        # to z^-2 + 2 z^-3.
        for z in (1.7, 4.0 + 1.0j):
            ref = z**-2 + 2.0 * z**-3
            assert tricomi_u_integer_b(2.0, 3, z) == pytest.approx(ref, rel=1e-12)

    def test_integer_nu_matches_bessel_polynomial(self):
        # (2/z)^(nu+1) U(nu+1, 2nu+2, 2/z) must reproduce y_nu(z) when the
        # log series is pole-suppressed (integer nu)
        for nu in (0, 1, 2, 3, 5):
            for z in (0.4, 1.3 + 0.7j):
                w = 2.0 / z
                lhs = w ** (nu + 1) * tricomi_u_integer_b(nu + 1.0, 2 * nu + 1, w)
                assert lhs == pytest.approx(bessel_polynomial(nu, z), rel=1e-11)

    # random draws reach |z| <= 1/2 (kr <= 1/4 in calY) rarely, so it is also
    # sampled explicitly
    SMALL_REAL = (1e-3, 0.1, 0.5)
    SMALL_IMAG = (0.3j, -0.4j)

    def test_against_mpmath_real(self, rng):
        for _ in range(25):
            a = rng.uniform(0.3, 6.0)
            m = int(rng.integers(0, 7))
            z = rng.uniform(0.2, 30.0)
            ref = complex(mp.hyperu(a, m + 1, z))
            ours = tricomi_u_integer_b(a, m, z)
            assert abs(ours - ref) <= 1e-10 * abs(ref)
        for z in self.SMALL_REAL:
            a = rng.uniform(0.3, 6.0)
            m = int(rng.integers(0, 7))
            ref = complex(mp.hyperu(a, m + 1, z))
            ours = tricomi_u_integer_b(a, m, z)
            assert abs(ours - ref) <= 1e-10 * abs(ref)

    def test_against_mpmath_imaginary_axis(self, rng):
        # the arguments reached from the Hankel rewrite are +-2i k r
        for _ in range(20):
            a = rng.uniform(0.5, 5.5)
            m = int(rng.integers(0, 6))
            x = rng.uniform(0.3, 40.0) * (1 if rng.random() < 0.5 else -1)
            z = 1j * x
            ref = complex(mp.hyperu(a, m + 1, mp.mpc(z)))
            ours = tricomi_u_integer_b(a, m, z)
            assert abs(ours - ref) <= 1e-10 * abs(ref)
        for z in self.SMALL_IMAG:
            a = rng.uniform(0.5, 5.5)
            m = int(rng.integers(0, 6))
            ref = complex(mp.hyperu(a, m + 1, mp.mpc(z)))
            ours = tricomi_u_integer_b(a, m, z)
            assert abs(ours - ref) <= 1e-10 * abs(ref)

    def test_asymptotic_decay_invariant(self):
        for a, m in ((0.5, 0), (1.5, 2), (2.5, 4)):
            for z in (120.0, 150.0 * 1j):
                val = tricomi_u_integer_b(a, m, z)
                assert abs(z**a * val - 1.0) < 0.1

    def test_truncation_error(self):
        control = SeriesControl(rel_tol=1e-12, max_terms=16)
        with pytest.raises(errors.TruncationError):
            tricomi_u_integer_b(0.5, 0, 7.5, control)

    def test_a_zero(self):
        assert tricomi_u_integer_b(0.0, 3, 2.2) == 1.0 + 0.0j

    def test_negative_integer_a_polynomial(self):
        # U(-p, m+1, z) is (-1)^p p! L_p^(m)(z); spot-check against mpmath
        for a, m, z in ((-2.0, 1, 1.7), (-1.0, 3, 0.4 + 2j), (-3.0, 0, 5.0)):
            ref = complex(mp.hyperu(a, m + 1, mp.mpc(z)))
            assert tricomi_u_integer_b(a, m, z) == pytest.approx(ref, rel=1e-13)

    def test_z_zero(self):
        with pytest.raises(errors.DomainError):
            tricomi_u_integer_b(1.0, 0, 0.0)


class TestCalY:
    def test_trivial_s_wave(self):
        assert calY(Order(l=0, n=3), 0.5j) == 1.0 + 0.0j

    def test_n5_l1_is_y2(self):
        z = 0.3 - 0.2j
        ref = 1 + 3 * z + 3 * z * z
        assert calY(Order(l=1, n=5), z) == pytest.approx(ref, rel=1e-13)

    def test_even_dimension_against_closed_hankel(self):
        # n=4, l=0: invert the outgoing rewrite against
        # h_{1/2}^(1)(x) = sqrt(pi/2x) H_1^... via the ordinary Hankel H_{1}? no:
        # h_nu = sqrt(pi/2z) H_{nu+1/2}, so nu=1/2 pairs with H_1.
        x = 10.0
        ref_h = math.sqrt(math.pi / (2 * x)) * complex(hankel1(1.0, x))
        z = 1j / x  # -1/(i x)
        y = calY(Order(l=0, n=4), z)
        ours_h = cmath.exp(1j * (x - 0.25 * math.pi)) * y / (1j * x)
        assert abs(ours_h - ref_h) <= 1e-11 * abs(ref_h)

    def test_nu_minus_one(self):
        assert calY(Order(l=0, n=1), 0.2j) == 1.0 + 0.0j

    def test_truncation_propagates(self):
        control = SeriesControl(max_terms=16)
        with pytest.raises(errors.TruncationError):
            calY(Order(l=0, n=4), 1j / 20.0, control)

    def test_odd_dimension_coefficientwise(self):
        # The finite 1/z^k part of the logarithmic U expansion, pulled back
        # through (2/z)^(nu+1) U(nu+1, 2nu+2, 2/z), must carry exactly the
        # integer coefficients (nu+j)!/(j!(nu-j)!).  Exact-arithmetic check.
        for nu in range(0, 11):
            m = 2 * nu + 1
            a = nu + 1
            got = []
            for i in range(nu + 1):
                k = nu + 1 + i
                # (k-1)! (1-a+k)_{m-k} / (m-k)! / Gamma(a), all integers here
                num = math.factorial(k - 1) * math.prod(
                    range(1 - a + k, 1 - a + k + (m - k))
                )
                den = math.factorial(m - k) * math.factorial(a - 1)
                assert num % den == 0
                got.append(num // den)
            assert got == bessel_polynomial_coefficients(nu)


class TestSphericalHankel:
    def test_3d_s_wave_closed_forms(self):
        o = Order(l=0, n=3)
        for z in (0.7, 3.0, 12.0):
            assert spherical_hankel(1, o, z) == pytest.approx(
                -1j * cmath.exp(1j * z) / z, rel=1e-13
            )
            assert spherical_hankel(2, o, z) == pytest.approx(
                1j * cmath.exp(-1j * z) / z, rel=1e-13
            )

    def test_conjugation(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 9))
            l = int(rng.integers(0, 9))
            z = rng.uniform(0.2, 30.0)
            o = Order(l=l, n=n)
            h1 = spherical_hankel(1, o, z)
            h2 = spherical_hankel(2, o, z)
            assert h2 == pytest.approx(h1.conjugate(), rel=1e-13)

    def test_nu_minus_one_closed_form(self):
        o = Order(l=0, n=1)
        for z in (0.4, 5.0):
            assert spherical_hankel(1, o, z) == cmath.exp(1j * z) / z
            # derived: h_{-1} = j_{-1} + i y_{-1} = (cos z + i sin z)/z
            assert spherical_hankel(1, o, z) == pytest.approx(
                (math.cos(z) + 1j * math.sin(z)) / z, rel=1e-15
            )

    def test_dual_path_agreement(self):
        tol = 10 * DEFAULT_SERIES.rel_tol
        for n in range(1, 9):
            for l in range(0, 13, 3):
                for z in (0.1, 4.2, 50.0):
                    o = Order(l=l, n=n)
                    for kind in (1, 2):
                        a = spherical_hankel(kind, o, z, method="caly")
                        b = spherical_hankel(kind, o, z, method="bessel")
                        assert abs(a - b) <= tol * abs(a), (kind, n, l, z)

    def test_wronskian_identity(self):
        # z^2 W[h2, h1](z) = 2i at every order; derivative by recurrence
        def dh(kind, o, z):
            up = Order(l=o.l + 1, n=o.n)
            return (o.nu / z) * spherical_hankel(kind, o, z) - spherical_hankel(
                kind, up, z
            )

        for n in (1, 2, 3, 4, 5, 6):
            for l in (0, 1, 4):
                o = Order(l=l, n=n)
                for z in (0.6, 2.9, 17.0):
                    w = spherical_hankel(2, o, z) * dh(1, o, z) - spherical_hankel(
                        1, o, z
                    ) * dh(2, o, z)
                    assert z * z * w == pytest.approx(2j, rel=1e-11)

    def test_domain_and_overflow(self):
        with pytest.raises(errors.DomainError):
            spherical_hankel(1, Order(l=0, n=3), -1.0)
        with pytest.raises(errors.DomainError):
            spherical_hankel(3, Order(l=0, n=3), 1.0)
        with pytest.raises(errors.OverflowGuardError):
            spherical_hankel(1, Order(l=400, n=3), 1e-3)


class TestSphericalBesselJ:
    def test_3d_s_wave(self):
        for z in (0.8, 6.0):
            assert spherical_bessel_j(Order(l=0, n=3), z) == pytest.approx(
                math.sin(z) / z, rel=1e-13
            )

    def test_small_argument_series(self):
        # ascending series oracle: j_1(z) = z/3 - z^3/30 + O(z^5)
        z = 1e-4
        ref = z / 3.0 - z**3 / 30.0
        assert spherical_bessel_j(Order(l=1, n=3), z) == pytest.approx(ref, rel=1e-10)

    def test_even_dimension_half_order(self):
        # n=4, l=0 -> nu=1/2: j_{1/2}(z) = sqrt(pi/2z) J_1(z)
        from scipy.special import jv

        z = 10.0
        ref = math.sqrt(math.pi / (2 * z)) * float(jv(1.0, z))
        assert spherical_bessel_j(Order(l=0, n=4), z) == pytest.approx(ref, rel=1e-13)

    def test_caly_from_hankel_matches_caly(self):
        for n in (2, 4):
            for l in (0, 2):
                for z in (0.7, 2.3):
                    o = Order(l=l, n=n)
                    assert caly_from_hankel(o, z) == pytest.approx(
                        calY(o, 1j / z), rel=1e-10
                    )


def per_order_hankel(n, lmax, z):
    """(h2, h1) order by order from the scalar scipy route, up to the first
    order where it overflows; the second value says whether it did."""
    h2, h1 = [], []
    for l in range(lmax + 1):
        try:
            h2.append(spherical_hankel(2, Order(l, n), z))
            h1.append(spherical_hankel(1, Order(l, n), z))
        except errors.OverflowGuardError:
            return np.array(h2), np.array(h1[: len(h2)]), True
    return np.array(h2), np.array(h1), False


class TestHankelBasis:
    """The l-recurrences of hankel_basis against independent oracles."""

    @pytest.mark.parametrize("n", range(1, 11))
    def test_matches_per_order_route(self, n):
        raised = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for z in np.logspace(-15, 3, 19):
                z = float(z)
                for lmax in (math.ceil(z) + 30, math.ceil(z) + 100):
                    r2, r1, overflow = per_order_hankel(n, lmax, z)
                    try:
                        h2, h1 = hankel_basis(n, lmax, z)
                    except errors.OverflowGuardError:
                        assert overflow, (z, lmax)
                        raised += 1
                        continue
                    m = len(r1)
                    for got, ref in ((h1[:m], r1), (h2[:m], r2)):
                        err = np.abs(got - ref)
                        assert np.all(err <= 1e-12 * np.abs(ref)), (z, lmax, np.argmax(err / np.abs(ref)))
                    # scipy's yv gives up a little before the float range ends
                    assert np.all(np.abs(h1[m:]) > 1e300), (z, lmax)
        assert raised > 0

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7])
    @pytest.mark.parametrize("z", [1e-15, 1e-3, 0.7, 50.0, 1000.0, 2e4])
    def test_entries_do_not_depend_on_lmax(self, n, z):
        # lmax on both sides of the junction m (last upward J) and of the
        # seed s of the downward run
        m = max(math.floor(z / 2.0 - (n - 2) / 2.0), 0)
        s = math.ceil(z) + specfun._SEED_MARGIN
        cuts = {0, 1, m - 1, m, m + 1, m + 2, s - 1, s, s + 1, s + 40, s + 90}
        bases = {}
        for lmax in sorted(c for c in cuts if c >= 0):
            try:
                bases[lmax] = hankel_basis(n, lmax, z)
            except errors.OverflowGuardError:
                break
        assert max(bases) > m + 1
        for l0 in bases:
            for l1 in bases:
                if l1 > l0:
                    for i in (0, 1):
                        assert np.array_equal(bases[l1][i][: l0 + 1], bases[l0][i])

    @pytest.mark.parametrize("z", [8000.0, 2e4])
    def test_large_argument_few_orders_against_mpmath(self, z):
        # lmax far below z: every J comes from the upward run
        h2, h1 = hankel_basis(4, 17, z)
        with mp.workdps(30):
            pref = mp.sqrt(mp.pi / (2 * mp.mpf(z)))
            for l in range(18):
                ref = complex(pref * mp.besselj(l + 1, z), pref * mp.bessely(l + 1, z))
                assert abs(h1[l] - ref) <= 1e-14 * abs(ref), l

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_largest_argument_against_mpmath(self, n):
        h2, h1 = hankel_basis(n, 3, 1e15)
        with mp.workdps(60):
            pref = mp.sqrt(mp.pi / (2 * mp.mpf(1e15)))
            for l in range(4):
                mu = l + mp.mpf(n - 2) / 2
                ref = complex(pref * mp.besselj(mu, 1e15), pref * mp.bessely(mu, 1e15))
                assert abs(h1[l] - ref) <= 1e-14 * abs(ref), l

    def test_argument_above_limit_and_negative_lmax_rejected(self):
        # scipy's seeds lose their digits above z ~ 1e15 (0.2 off at 3e15)
        with pytest.raises(errors.DomainError, match="1e\\+15"):
            hankel_basis(3, 3, 1.01e15)
        with pytest.raises(errors.DomainError, match="lmax"):
            hankel_basis(3, -1, 2.0)

    def test_tiny_argument_keeps_j(self):
        # jv at the unlowered seed ceil(z) + 20 underflows to 0 here
        h2, h1 = hankel_basis(3, 17, 1e-15)
        assert abs(h1[0].real - 1.0) <= 1e-12
        assert h2[0].real == h1[0].real

    @pytest.mark.parametrize("n", [4, 7])
    def test_against_mpmath_at_kr_1000(self, n):
        z = 1000.0
        h2, h1 = hankel_basis(n, 1030, z)
        with mp.workdps(40):
            pref = mp.sqrt(mp.pi / (2 * mp.mpf(z)))
            for l in (0, 1, 135, 262, 600, 990, 1010, 1030):
                mu = l + mp.mpf(n - 2) / 2
                ref = complex(pref * mp.besselj(mu, z), pref * mp.bessely(mu, z))
                assert abs(h1[l] - ref) <= 3e-13 * abs(ref), l

    def test_overflow_raises_without_runtime_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(errors.OverflowGuardError):
                hankel_basis(3, 400, 1e-3)
            for z in (1e-306, 1e-320):
                with pytest.raises(errors.OverflowGuardError):
                    hankel_basis(3, 5, z)
            with pytest.raises(errors.OverflowGuardError):
                spherical_jn_basis(3, 5, 1e-320)

    def test_jn_basis_matches_hankel_basis_and_survives_y_overflow(self):
        # two independent J paths: one Miller run versus the upward run
        # joined to a rescaled downward one
        for n, z in ((2, 3.7), (3, 120.0), (8, 161.0), (5, 1000.0)):
            lmax = math.ceil(z) + 30
            jb = spherical_jn_basis(n, lmax, z)
            h2, h1 = hankel_basis(n, lmax, z)
            assert np.all(np.abs(jb - h1.real) <= 1e-13 * np.abs(h1)), (n, z)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            jb = spherical_jn_basis(3, 60, 1e-3)
        for l in (0, 1, 10, 30):
            ref = spherical_bessel_j(Order(l, 3), 1e-3)
            assert abs(jb[l] - ref) <= 1e-12 * abs(ref)


class TestControlAndOrder:
    def test_series_control_validation(self):
        with pytest.raises(errors.DomainError):
            SeriesControl(rel_tol=1e-16)
        with pytest.raises(errors.DomainError):
            SeriesControl(max_terms=4)
        with pytest.raises(errors.DomainError):
            SeriesControl(underflow_guard=0.0)

    def test_order_parity(self):
        assert Order(l=2, n=3).two_nu == 4
        assert Order(l=2, n=3).is_polynomial
        assert Order(l=0, n=4).two_nu == 1
        assert not Order(l=0, n=4).is_polynomial
        assert Order(l=0, n=1).two_nu == -2  # nu = -1, integer branch
        assert Order(l=1, n=1).nu == 0.0

    def test_order_validation(self):
        with pytest.raises(errors.DomainError):
            Order(l=-1, n=3)
        with pytest.raises(errors.DomainError):
            Order(l=0, n=0)
