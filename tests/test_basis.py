"""One partial-wave basis per grid: grid/point identity, truncation, input checks."""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scatterkit import errors
from scatterkit.cli import main
from scatterkit.partialwave import (
    PhaseShiftSet,
    ScatterConfig,
    _coef_vector,
    a_l,
    angular_table,
    evaluate_grid,
    plane_wave,
    psi_incident,
    psi_total,
)
from scatterkit.specfun import Order, spherical_hankel
from scatterkit.xsection import (
    cross_section_grid,
    dsigma_full,
    dsigma_leading,
    f_theta_asymptotic,
    f_theta_grid,
)

dims = st.integers(min_value=2, max_value=8)
krs = st.lists(
    st.floats(min_value=0.1, max_value=200.0), min_size=1, max_size=3, unique=True
)
shift_lists = st.lists(
    st.floats(min_value=-1.5, max_value=1.5), min_size=1, max_size=8
)
wavenumbers = st.floats(min_value=0.5, max_value=2.0)
interior = st.lists(
    st.floats(min_value=0.05, max_value=math.pi - 0.05), min_size=1, max_size=3
)


def same(a: float, b: float) -> bool:
    """Bit-for-bit equality that also matches nan with nan."""
    return a == b or (math.isnan(a) and math.isnan(b))


class TestSinglePath:
    @settings(max_examples=25, deadline=None)
    @given(n=dims, k=wavenumbers, krs=krs, deltas=shift_lists, inner=interior)
    def test_field_grid_is_pointwise_and_splits(self, n, k, krs, deltas, inner):
        cfg = ScatterConfig(n=n, k=k)
        shifts = PhaseShiftSet.from_deltas(deltas)
        r = np.array(krs) / k
        theta = np.array([0.0, *inner, math.pi])
        psi, psi_in, psi_sc = evaluate_grid(cfg, shifts, r, theta, jobs=2)
        s = (n - 3) / 2.0
        for i, rv in enumerate(r):
            for j, tv in enumerate(theta):
                fs = psi_total(cfg, shifts, rv, tv)
                assert (fs.psi, fs.psi_in, fs.psi_sc) == (
                    psi[i, j], psi_in[i, j], psi_sc[i, j]
                )
                assert psi_incident(cfg, rv, tv) == psi_in[i, j]
                assert abs(fs.psi - fs.psi_in - fs.psi_sc) <= 1e-15 * (
                    abs(fs.psi_in) + abs(fs.psi_sc)
                )
                assert abs(fs.psi_in - plane_wave(cfg, rv, tv)) <= 1e-9
                terms = [
                    a_l(cfg, shifts, l, tv)
                    * spherical_hankel(1, Order(l, n), k * rv)
                    / rv**s
                    for l in range(shifts.lmax + 1)
                ]
                size = sum(abs(t) for t in terms)
                assert abs(fs.psi_sc - sum(terms)) <= 1e-12 * max(size, 1e-300)

    @settings(max_examples=25, deadline=None)
    @given(n=dims, k=wavenumbers, krs=krs, deltas=shift_lists, theta=interior)
    def test_current_grid_is_pointwise(self, n, k, krs, deltas, theta):
        cfg = ScatterConfig(n=n, k=k)
        shifts = PhaseShiftSet.from_deltas(deltas)
        r = np.array(krs) / k
        grid = cross_section_grid(cfg, shifts, r, theta)
        for i, rv in enumerate(r):
            for j, tv in enumerate(theta):
                sample = dsigma_full(cfg, shifts, rv, tv, degenerate_ok=True)
                assert same(sample.dsigma_domega, grid.dsigma_domega[i, j])
                assert same(sample.jr_sc, grid.jr_sc[i, j])
                assert same(sample.jtheta_sc, grid.jtheta_sc[i, j])
                assert same(sample.gamma, grid.gamma[i, j])
                assert same(dsigma_leading(cfg, shifts, rv, tv), grid.dsigma_leading[i, j])

    @settings(max_examples=40, deadline=None)
    @given(n=dims, k=wavenumbers, deltas=shift_lists,
           theta=st.floats(min_value=0.0, max_value=math.pi))
    def test_f_theta_matches_per_mode_sum(self, n, k, deltas, theta):
        cfg = ScatterConfig(n=n, k=k)
        shifts = PhaseShiftSet.from_deltas(deltas)
        terms = [
            a_l(cfg, shifts, l, theta) * cmath.exp(-0.5j * math.pi * (l + (n - 1) / 2.0))
            for l in range(shifts.lmax + 1)
        ]
        size = sum(abs(t) for t in terms) / k
        f = f_theta_asymptotic(cfg, shifts, theta).f
        assert abs(f - sum(terms) / k) <= 1e-13 * max(size, 1e-300)

    @settings(max_examples=25, deadline=None)
    @given(n=dims, k=wavenumbers, deltas=shift_lists, theta=interior)
    def test_f_theta_grid_is_pointwise(self, n, k, deltas, theta):
        cfg = ScatterConfig(n=n, k=k)
        shifts = PhaseShiftSet.from_deltas(deltas)
        grid = f_theta_grid(cfg, shifts, theta)
        assert grid.shape == (len(theta),)
        for j, tv in enumerate(theta):
            assert f_theta_asymptotic(cfg, shifts, tv).f == grid[j]


class TestIncidentAccuracy:
    def test_theta_zero_high_dimension_against_mpmath(self):
        # at theta = 0 in n = 8 the weights C_l(1) ~ l^5 make the truncated
        # series cancel six digits, so radial J errors near the turning
        # point show; the reference sums the same truncated series with
        # 30-digit J and the same float coefficients and angular values
        cfg, r = ScatterConfig(n=8, k=1.0), 199.5
        lmax = cfg.incident_lmax(r)
        coefs = _coef_vector(8, 1.0, lmax)
        ang = angular_table(8, lmax, np.float64(0.0))
        with mp.workdps(30):
            z = mp.mpf(r)
            pref = mp.sqrt(mp.pi / (2 * z))
            ref = mp.fsum(
                2 * mp.mpc(complex(coefs[l])) * pref * mp.besselj(l + 3, z) * mp.mpf(float(ang[l]))
                for l in range(lmax + 1)
            ) / z**2.5
        assert abs(psi_incident(cfg, r, 0.0) - complex(ref)) <= 2e-10
        assert abs(plane_wave(cfg, r, 0.0) - complex(ref)) <= 2e-10


class TestShiftsAboveIncidentLmax:
    def test_lone_high_mode_is_kept(self):
        cfg = ScatterConfig(n=3, k=1.0)
        shifts = PhaseShiftSet.from_deltas([0.0] * 40 + [0.3])
        r, th = 1.0, 0.7
        assert cfg.incident_lmax(r) < 40
        fs = psi_total(cfg, shifts, r, th)
        expect = a_l(cfg, shifts, 40, th) * spherical_hankel(1, Order(40, 3), cfg.k * r)
        assert abs(fs.psi_sc - expect) <= 1e-12 * abs(expect)
        assert abs(fs.psi - fs.psi_in - fs.psi_sc) <= 1e-15 * abs(fs.psi_sc)
        assert fs.psi_in == psi_incident(cfg, r, th)


class TestInputValidation:
    @pytest.mark.parametrize("n", [True, False])
    def test_boolean_dimension_rejected(self, n):
        with pytest.raises(errors.DomainError):
            ScatterConfig(n=n, k=1.0)

    @pytest.mark.parametrize("k", [math.inf, -math.inf, math.nan])
    def test_non_finite_wavenumber_rejected(self, k):
        with pytest.raises(errors.DomainError):
            ScatterConfig(n=3, k=k)

    @pytest.mark.parametrize("r", [math.inf, math.nan, -1.0])
    def test_bad_radius_rejected(self, r):
        cfg = ScatterConfig(n=3, k=1.0)
        shifts = PhaseShiftSet.from_deltas([0.3])
        with pytest.raises(errors.DomainError):
            psi_total(cfg, shifts, r, 0.5)
        with pytest.raises(errors.DomainError):
            evaluate_grid(cfg, shifts, [1.0, r], [0.5])
        with pytest.raises(errors.DomainError):
            dsigma_leading(cfg, shifts, r, 0.5)
        with pytest.raises(errors.DomainError):
            dsigma_full(cfg, shifts, r, 0.5)

    @pytest.mark.parametrize("theta", [math.nan, 7.0, -0.1, math.inf])
    def test_bad_angle_rejected(self, theta):
        cfg = ScatterConfig(n=3, k=1.0)
        shifts = PhaseShiftSet.from_deltas([0.3])
        with pytest.raises(errors.DomainError):
            psi_total(cfg, shifts, 2.0, theta)
        with pytest.raises(errors.DomainError):
            psi_incident(cfg, 2.0, theta)
        with pytest.raises(errors.DomainError):
            evaluate_grid(cfg, shifts, [2.0], [0.5, theta])
        with pytest.raises(errors.DomainError):
            dsigma_leading(cfg, shifts, 2.0, theta)
        with pytest.raises(errors.DomainError):
            cross_section_grid(cfg, shifts, [2.0], [theta])

    @pytest.mark.parametrize("command", ["wavefield", "xsection"])
    @pytest.mark.parametrize("grid", [["--r-min", "inf", "--r-count", "1"],
                                      ["--r-max", "inf", "--r-count", "3"]])
    def test_cli_infinite_radius_exits_2(self, command, grid, tmp_path):
        code = main([command, "--n", "3", "--k", "1", "--delta=0.3", *grid,
                     "--out", str(tmp_path)])
        assert code == 2
