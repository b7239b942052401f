"""Cross sections: Wronskian constancy, current forms, 1D/2D closed forms,
and the large-distance limits."""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, strategies as st

from scatterkit import errors
from scatterkit.partialwave import PhaseShiftSet, ScatterConfig, a_l, mode_coefficient
from scatterkit.xsection import (
    angular_measure_integral,
    cross_section_grid,
    dsigma_double_sum,
    dsigma_from_cos_gamma,
    dsigma_full,
    dsigma_leading,
    f_theta_asymptotic,
    one_d_summary,
    sigma_total_asymptotic,
    sigma_total_mode_terms,
    two_d_dsigma,
    wronskian_radial,
)


class TestWronskian:
    def test_3d_s_wave_constant(self):
        # closed forms h0^(1,2) = -+ i e^{+-ikr}/(kr); differentiating by hand
        # gives W = 2i/(k r^2), i.e. r^2 k W = 2i
        cfg = ScatterConfig(n=3, k=1.7)
        for r in (0.5, 2.0, 9.0):
            w = wronskian_radial(cfg, 0, 0, r)
            assert r * r * cfg.k * w == pytest.approx(2j, rel=1e-12)

    def test_equal_order_r_independence(self):
        for n in (2, 3, 4, 5):
            cfg = ScatterConfig(n=n, k=1.0)
            for l in (0, 1, 3):
                w1 = wronskian_radial(cfg, l, l, 1.3) * 1.3 ** (n - 1)
                w2 = wronskian_radial(cfg, l, l, 2.6) * 2.6 ** (n - 1)
                assert abs(w1 - w2) <= 1e-10 * abs(w1)
                assert w1 == pytest.approx(2j / cfg.k, rel=1e-11)

    def test_r_independence_over_decades(self):
        cfg = ScatterConfig(n=4, k=1.0)
        vals = [
            wronskian_radial(cfg, 2, 2, r) * r ** (cfg.n - 1)
            for r in np.geomspace(1.0, 100.0, 7)
        ]
        for v in vals[1:]:
            assert abs(v - vals[0]) <= 1e-10 * abs(vals[0])

    def test_finite_difference_agreement(self):
        from scatterkit.specfun import Order, spherical_hankel

        cfg = ScatterConfig(n=5, k=1.0)
        l, lp, r = 1, 3, 2.7
        s = (cfg.n - 3) / 2.0
        h = 1e-5 * r

        def u(kind, ll, rr):
            return spherical_hankel(kind, Order(ll, cfg.n), cfg.k * rr) / rr**s

        du1 = (u(1, lp, r + h) - u(1, lp, r - h)) / (2 * h)
        du2 = (u(2, l, r + h) - u(2, l, r - h)) / (2 * h)
        w_fd = u(2, l, r) * du1 - u(1, lp, r) * du2
        w = wronskian_radial(cfg, l, lp, r)
        assert abs(w - w_fd) <= 1e-6 * abs(w)


class TestLeadingForm:
    def test_zero_shifts(self):
        cfg = ScatterConfig(n=3, k=1.0)
        shifts = PhaseShiftSet.from_deltas([0.0, 0.0])
        assert dsigma_leading(cfg, shifts, 3.0, 0.7) == 0.0

    def test_equals_double_sum(self, rng):
        for n in (2, 3, 4, 5):
            cfg = ScatterConfig(n=n, k=1.2)
            shifts = PhaseShiftSet.from_deltas(rng.uniform(-1, 1, size=4))
            for _ in range(6):
                r = rng.uniform(0.7, 15.0)
                th = rng.uniform(0.1, math.pi - 0.1)
                a = dsigma_leading(cfg, shifts, r, th)
                b = dsigma_double_sum(cfg, shifts, r, th)
                assert abs(a - b) <= 1e-9 * max(abs(a), 1e-30)

    def test_double_sum_is_per_pair_sum(self, rng):
        # one radial basis per call gives every W_r[l, l'] bit for bit
        for n in (2, 3, 4, 7):
            cfg = ScatterConfig(n=n, k=1.3)
            shifts = PhaseShiftSet.from_deltas([*rng.uniform(-1, 1, size=8), 0.0, 0.4])
            r, th = rng.uniform(0.7, 15.0), rng.uniform(0.1, math.pi - 0.1)
            avals = np.array([a_l(cfg, shifts, l, th) for l in range(shifts.lmax + 1)])
            acc = 0.0 + 0.0j
            for l in range(shifts.lmax + 1):
                for lp in range(shifts.lmax + 1):
                    if avals[l] != 0.0 and avals[lp] != 0.0:
                        acc += np.conj(avals[l]) * avals[lp] * wronskian_radial(cfg, l, lp, r)
            acc *= r ** (n - 1) / (2j * cfg.k)
            assert dsigma_double_sum(cfg, shifts, r, th) == acc.real

    def test_near_field_current_against_mpmath(self):
        # j_r cancels about four digits at kr = 1, so a scale error in the
        # radial J alone, not matched in Y, shows here
        deltas, r, th = [0.5, -0.2], 1.0, 0.87
        cfg = ScatterConfig(n=3, k=1.0)
        grid = cross_section_grid(cfg, PhaseShiftSet.from_deltas(deltas), [r], [th])
        with mp.workdps(40):
            z = mp.mpf(r)

            def h1(l):
                return mp.sqrt(mp.pi / (2 * z)) * mp.mpc(mp.besselj(l + 0.5, z), mp.bessely(l + 0.5, z))

            psi = dpsi = mp.mpc(0)
            for l, d in enumerate(deltas):
                c = mp.mpc(mode_coefficient(3, 1.0, l)) * (mp.exp(2j * d) - 1) * mp.legendre(l, mp.cos(th))
                psi += c * h1(l)
                dpsi += c * (l / z * h1(l) - h1(l + 1))
            ref = float(mp.im(mp.conj(psi) * dpsi))
        assert abs(grid.jr_sc[0, 0] - ref) <= 2e-13 * abs(ref)

    def test_one_dimensional_matches_closed_form(self):
        # at theta = 0 the current form equals sigma(0) from the closed 1D
        # expressions (r-independent)
        k, d0, d1 = 1.0, 0.6, -0.2
        cfg = ScatterConfig(n=1, k=k)
        shifts = PhaseShiftSet.from_deltas([d0, d1])
        summary = one_d_summary(shifts)
        for r in (1.0, 13.0):
            assert dsigma_leading(cfg, shifts, r, 0.0) == pytest.approx(
                summary["sigma0"], rel=1e-12
            )
            assert dsigma_leading(cfg, shifts, r, math.pi) == pytest.approx(
                summary["sigmapi"], rel=1e-12
            )

    def test_pure_s_wave_far_field(self):
        # single s-wave: dsigma -> sin^2(d0)/k^2, independent of theta
        k, d0 = 1.0, 0.5
        cfg = ScatterConfig(n=3, k=k)
        shifts = PhaseShiftSet.from_deltas([d0])
        ref = math.sin(d0) ** 2 / k**2
        for th in (0.3, 1.5, 2.8):
            val = dsigma_leading(cfg, shifts, 1e4, th)
            assert abs(val - ref) <= 1e-6 * ref


class TestFullForm:
    def test_zero_shifts_raise_or_flag(self):
        cfg = ScatterConfig(n=3, k=1.0)
        shifts = PhaseShiftSet.from_deltas([0.0])
        with pytest.raises(errors.DegenerateCurrentError):
            dsigma_full(cfg, shifts, 2.0, 1.0)
        sample = dsigma_full(cfg, shifts, 2.0, 1.0, degenerate_ok=True)
        assert sample.dsigma_domega == 0.0
        assert math.isnan(sample.gamma)

    def test_s_wave_tilt_free(self):
        # an isotropic mode has no angular current at all
        cfg = ScatterConfig(n=3, k=1.0)
        shifts = PhaseShiftSet.from_deltas([0.8])
        sample = dsigma_full(cfg, shifts, 3.0, math.pi / 2)
        assert sample.jtheta_sc == 0.0
        assert sample.gamma == 0.0
        assert sample.dsigma_domega == pytest.approx(
            dsigma_leading(cfg, shifts, 3.0, math.pi / 2), rel=1e-12
        )

    def test_tilt_decays_faster(self):
        cfg = ScatterConfig(n=3, k=1.0)
        shifts = PhaseShiftSet.from_deltas([0.5, -0.4, 0.3])
        th = 1.1
        sample = dsigma_full(cfg, shifts, 1e3, th)
        lead = dsigma_leading(cfg, shifts, 1e3, th)
        assert abs(sample.dsigma_domega / lead - 1.0) < 1e-3

    def test_gamma_tangent_invariant(self):
        cfg = ScatterConfig(n=4, k=1.0)
        shifts = PhaseShiftSet.from_deltas([0.5, -0.4])
        sample = dsigma_full(cfg, shifts, 4.0, 0.9)
        assert math.tan(sample.gamma) == pytest.approx(
            sample.jtheta_sc / sample.jr_sc, rel=1e-12
        )

    def test_cos_gamma_form_identical(self):
        cfg = ScatterConfig(n=4, k=1.0)
        shifts = PhaseShiftSet.from_deltas([0.5, -0.4])
        sample = dsigma_full(cfg, shifts, 4.0, 0.9)
        assert dsigma_from_cos_gamma(cfg, sample) == pytest.approx(
            sample.dsigma_domega, rel=1e-12
        )

    def test_axis_refused(self):
        cfg = ScatterConfig(n=3, k=1.0)
        shifts = PhaseShiftSet.from_deltas([0.5])
        with pytest.raises(errors.DomainError):
            dsigma_full(cfg, shifts, 2.0, 0.0)
        with pytest.raises(errors.DomainError):
            dsigma_full(cfg, shifts, 2.0, math.pi)

    def test_positivity(self, rng):
        cfg = ScatterConfig(n=3, k=1.0)
        shifts = PhaseShiftSet.from_deltas(rng.uniform(-1, 1, size=3))
        for _ in range(8):
            r = rng.uniform(0.5, 20.0)
            th = rng.uniform(0.1, math.pi - 0.1)
            val = dsigma_leading(cfg, shifts, r, th)
            assert val >= -1e-10 * max(1.0, abs(val))


class TestOneDimensional:
    def test_equal_shifts_full_transmission(self):
        s = one_d_summary(PhaseShiftSet.from_deltas([0.7, 0.7]))
        assert s["sigmapi"] == pytest.approx(0.0, abs=1e-15)
        assert s["T"] == pytest.approx(1.0)
        assert s["R"] == pytest.approx(0.0, abs=1e-15)

    def test_single_channel_half_half(self):
        s = one_d_summary(PhaseShiftSet.from_deltas([0.9, 0.0]))
        assert s["T"] == pytest.approx(0.5)
        assert s["R"] == pytest.approx(0.5)

    @given(
        st.floats(-3.0, 3.0, allow_nan=False),
        st.floats(-3.0, 3.0, allow_nan=False),
    )
    def test_t_plus_r_is_one(self, d0, d1):
        if math.sin(d0) ** 2 + math.sin(d1) ** 2 == 0.0:
            return
        s = one_d_summary(PhaseShiftSet.from_deltas([d0, d1]))
        assert s["T"] + s["R"] == 1.0

    def test_swap_symmetry(self, rng):
        for _ in range(20):
            d0, d1 = rng.uniform(-2, 2, size=2)
            a = one_d_summary(PhaseShiftSet.from_deltas([d0, d1]))
            b = one_d_summary(PhaseShiftSet.from_deltas([d1, d0]))
            assert a["T"] == pytest.approx(b["T"], rel=1e-13)
            assert a["R"] == pytest.approx(b["R"], rel=1e-13)

    def test_degenerate(self):
        # exact 0/0 only: sin(pi) is not a float zero, so pi shifts are fine
        with pytest.raises(errors.DomainError):
            one_d_summary(PhaseShiftSet.from_deltas([0.0, 0.0]))
        with pytest.raises(errors.DomainError):
            one_d_summary(PhaseShiftSet.from_deltas([0.0]))


class TestTwoDimensional:
    def test_zero_shifts(self):
        cfg = ScatterConfig(n=2, k=1.0)
        assert two_d_dsigma(cfg, PhaseShiftSet.from_deltas([0.0]), 3.0, 1.0) == 0.0

    def test_matches_generic_routes(self, rng):
        cfg = ScatterConfig(n=2, k=1.3)
        shifts = PhaseShiftSet.from_deltas(rng.uniform(-1, 1, size=3))
        for _ in range(5):
            r = rng.uniform(0.5, 10.0)
            th = rng.uniform(0.1, math.pi - 0.1)
            a = two_d_dsigma(cfg, shifts, r, th)
            b = dsigma_leading(cfg, shifts, r, th)
            c = dsigma_double_sum(cfg, shifts, r, th)
            assert abs(a - b) <= 1e-10 * max(abs(a), 1e-30)
            assert abs(a - c) <= 1e-10 * max(abs(a), 1e-30)

    def test_s_wave_isotropic(self):
        cfg = ScatterConfig(n=2, k=1.0)
        shifts = PhaseShiftSet.from_deltas([0.6])
        vals = [two_d_dsigma(cfg, shifts, 5.0, th) for th in (0.4, 1.2, 2.7)]
        assert max(vals) - min(vals) < 1e-12 * abs(vals[0])

    def test_large_r_asymptote(self):
        # finite-distance deviation is first order in 1/(kr) with a
        # mode-interference weight; these shifts keep it well inside 1e-3
        cfg = ScatterConfig(n=2, k=1.0)
        shifts = PhaseShiftSet.from_deltas([0.4, 0.2])
        for th in (0.6, 0.9, 2.2):
            f2 = abs(f_theta_asymptotic(cfg, shifts, th).f) ** 2
            ratio = two_d_dsigma(cfg, shifts, 1e3, th) / f2
            assert abs(ratio - 1.0) < 1e-3

    def test_wrong_dimension(self):
        cfg = ScatterConfig(n=3, k=1.0)
        with pytest.raises(errors.WrongDimensionError):
            two_d_dsigma(cfg, PhaseShiftSet.from_deltas([0.1]), 1.0, 1.0)


class TestAsymptotics:
    def test_zero_shifts(self):
        cfg = ScatterConfig(n=4, k=1.0)
        assert f_theta_asymptotic(cfg, PhaseShiftSet.from_deltas([0.0]), 1.0).f == 0.0

    def test_3d_s_wave_modulus(self):
        k, d0 = 1.4, 0.8
        cfg = ScatterConfig(n=3, k=k)
        f = f_theta_asymptotic(cfg, PhaseShiftSet.from_deltas([d0]), 0.9).f
        assert abs(f) ** 2 == pytest.approx(math.sin(d0) ** 2 / k**2, rel=1e-12)
        # phase too: f = (e^{2i d0} - 1)/(2ik)
        assert f == pytest.approx((cmath.exp(2j * d0) - 1.0) / (2j * k), rel=1e-12)

    def test_leading_form_converges_to_f2(self, rng):
        for n in (2, 3, 4, 5):
            cfg = ScatterConfig(n=n, k=1.0)
            shifts = PhaseShiftSet.from_deltas(rng.uniform(-0.8, 0.8, size=3))
            th = 1.3
            f2 = abs(f_theta_asymptotic(cfg, shifts, th).f) ** 2
            val = dsigma_leading(cfg, shifts, 1e4, th)
            assert abs(val / f2 - 1.0) < 1e-2

    def test_asymptotic_trend_monotone(self):
        # ratio -> 1 with a monotone trend across the sampled decade
        for n in (2, 3, 4, 5):
            cfg = ScatterConfig(n=n, k=1.0)
            shifts = PhaseShiftSet.from_deltas([0.5, -0.3])
            th = 1.0
            f2 = abs(f_theta_asymptotic(cfg, shifts, th).f) ** 2
            devs = [
                abs(dsigma_leading(cfg, shifts, r, th) / f2 - 1.0)
                for r in np.geomspace(1e3, 1e4, 5)
            ]
            assert all(b <= a for a, b in zip(devs, devs[1:]))

    def test_sigma_total_3d_reduction(self, rng):
        k = 1.7
        cfg = ScatterConfig(n=3, k=k)
        deltas = rng.uniform(-1, 1, size=5)
        shifts = PhaseShiftSet.from_deltas(deltas)
        ref = 4.0 * math.pi / k**2 * sum(
            (2 * l + 1) * math.sin(d) ** 2 for l, d in enumerate(deltas)
        )
        assert sigma_total_asymptotic(cfg, shifts) == pytest.approx(ref, rel=1e-13)

    def test_sigma_total_zero(self):
        cfg = ScatterConfig(n=5, k=1.0)
        assert sigma_total_asymptotic(cfg, PhaseShiftSet.from_deltas([0.0])) == 0.0

    def test_sigma_total_quadrature(self, rng):
        # Gauss quadrature of |f|^2 over the sphere measure vs closed form
        for n in (3, 4, 5):
            cfg = ScatterConfig(n=n, k=1.0)
            shifts = PhaseShiftSet.from_deltas(rng.uniform(-1, 1, size=6))
            f2 = lambda th: abs(f_theta_asymptotic(cfg, shifts, th).f) ** 2
            quad = angular_measure_integral(cfg, f2, shifts.lmax, nodes=200)
            closed = sigma_total_asymptotic(cfg, shifts)
            assert abs(quad - closed) <= 1e-8 * closed

    def test_sigma_total_2d_quadrature(self):
        cfg = ScatterConfig(n=2, k=1.0)
        shifts = PhaseShiftSet.from_deltas([0.4, -0.6, 0.2])
        f2 = lambda th: abs(f_theta_asymptotic(cfg, shifts, th).f) ** 2
        quad = angular_measure_integral(cfg, f2, shifts.lmax, nodes=200)
        assert abs(quad - sigma_total_asymptotic(cfg, shifts)) <= 1e-10 * quad

    def test_unitarity_bound_3d(self, rng):
        k = 1.0
        cfg = ScatterConfig(n=3, k=k)
        deltas = rng.uniform(-2, 2, size=6)
        shifts = PhaseShiftSet.from_deltas(deltas)
        terms = sigma_total_mode_terms(cfg, shifts)
        for l, term in enumerate(terms):
            assert term <= 4.0 * math.pi / k**2 * (2 * l + 1) + 1e-12
        assert sigma_total_asymptotic(cfg, shifts) <= 4.0 * math.pi / k**2 * sum(
            2 * l + 1 for l in range(len(terms))
        )

    def test_wrong_dimension(self):
        cfg = ScatterConfig(n=1, k=1.0)
        with pytest.raises(errors.WrongDimensionError):
            f_theta_asymptotic(cfg, PhaseShiftSet.from_deltas([0.1]), 0.0)
        with pytest.raises(errors.WrongDimensionError):
            sigma_total_asymptotic(cfg, PhaseShiftSet.from_deltas([0.1]))
