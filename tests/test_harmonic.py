"""One angular normalisation for every dimension.

Q_l^lam = ((l + lam)/lam) C_l^lam, lam = n/2 - 1, is the angular basis of
production in every n, with one l-independent prefactor P i^l in front.
These tests pin it against the per-dimension forms it replaces: the
Gegenbauer table (n >= 3), Deg(l) cos(l theta) (n = 2), the two-direction
table (n = 1), and the closed forms of the total cross section.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from scatterkit import errors, specfun
from scatterkit.partialwave import (
    PhaseShiftSet,
    ScatterConfig,
    _coef_vector,
    angular_table,
    angular_value,
    evaluate_grid,
    mode_coefficient,
)
from scatterkit.specfun import gegenbauer_table, harmonic_table, pochhammer
from scatterkit.xsection import (
    _angular_derivative_table,
    cross_section_grid,
    f_theta_grid,
    sigma_total_mode_terms,
)

THETA = np.linspace(0.0, math.pi, 37)
X = np.cos(THETA)


def deg(ls):
    return np.where(ls == 0, 1, 2)


class TestHarmonicTable:
    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.5, 4.0])
    def test_is_normalised_gegenbauer(self, lam):
        ls = np.arange(61)[:, None]
        ref = (ls + lam) / lam * gegenbauer_table(60, lam, X)
        scale = np.abs(ref).max(axis=1, keepdims=True)
        assert np.all(np.abs(harmonic_table(60, lam, X) - ref) <= 1e-13 * scale)

    @pytest.mark.parametrize("lmax, tol", [(60, 1e-12), (1030, 1e-11)])
    def test_planar_limit_is_cosine(self, lmax, tol):
        ls = np.arange(lmax + 1)[:, None]
        ref = deg(ls) * np.cos(ls * THETA)
        assert np.abs(harmonic_table(lmax, 0.0, X) - ref).max() <= tol

    def test_one_dimensional_directions_are_exact(self):
        for x in (1.0, -1.0):
            tab = harmonic_table(12, -0.5, np.float64(x))
            assert tab[0] == 1.0 and tab[1] == x
            assert np.all(tab[2:] == 0.0)


class TestOnePrefactor:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_products_match_per_dimension_forms(self, n):
        lmax, k = 40, 1.7
        thetas = [0.0, math.pi] if n == 1 else [0.0, 0.3, 1.2, math.pi / 2, 2.9, math.pi]
        coefs = _coef_vector(n, k, lmax)
        tab = angular_table(n, lmax, np.array(thetas))
        for j, t in enumerate(thetas):
            got = coefs * tab[:, j]
            ref = np.array([mode_coefficient(n, k, l) * angular_value(n, l, t)
                            for l in range(lmax + 1)])
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max(), (n, t)

    @pytest.mark.parametrize("n, k", [(300, 0.01), (400, 1.0)])
    def test_prefactor_overflow_is_loud(self, n, k):
        with pytest.raises(errors.OverflowGuardError, match=f"n={n}"):
            _coef_vector(n, k, 3)


class TestAngularDerivative:
    def test_planar(self):
        theta = (np.arange(40) + 0.5) * math.pi / 40
        ls = np.arange(61)[:, None]
        ref = -deg(ls) * ls * np.sin(ls * theta)
        got = _angular_derivative_table(2, 60, theta)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("n", range(3, 9))
    def test_against_gegenbauer_form(self, n):
        # d/dtheta C_l^lam(cos theta) = -2 lam sin(theta) C_(l-1)^(lam+1)(cos theta)
        theta = (np.arange(40) + 0.5) * math.pi / 40
        lam = n / 2.0 - 1.0
        ls = np.arange(61)[:, None]
        dc = np.zeros((61, theta.size))
        dc[1:] = -2.0 * lam * np.sin(theta) * gegenbauer_table(59, lam + 1.0, np.cos(theta))
        ref = (ls + lam) / lam * dc
        got = _angular_derivative_table(n, 60, theta)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def sigma_closed_form(n, k, deltas):
    """The per-dimension closed forms the harmonic count N(n, l) replaces."""
    sins = np.sin(np.asarray(deltas)) ** 2
    ls = np.arange(len(deltas))
    if n == 2:
        return 4.0 / k * deg(ls) * sins
    pref = 4.0 * math.pi ** ((n - 1) / 2.0) / math.gamma((n - 1) / 2.0) * k ** (1 - n)
    return pref * np.array([(2 * l + n - 2) * pochhammer(l + 1.0, n - 3) for l in ls]) * sins


class TestTotalCrossSection:
    DELTAS = [0.4, -0.3, 0.2, 0.05, -0.1, 0.3]

    @pytest.mark.parametrize("n", range(2, 13))
    def test_matches_closed_forms(self, n):
        for k in (0.3, 1.0, 2.5):
            got = sigma_total_mode_terms(ScatterConfig(n, k), PhaseShiftSet(tuple(self.DELTAS)))
            ref = sigma_closed_form(n, k, self.DELTAS)
            assert np.all(np.abs(got - ref) <= 1e-14 * np.abs(ref)), (n, k)

    @pytest.mark.parametrize("n, k", [(180, 3.0), (200, 1.0)])
    def test_large_dimension_against_mpmath(self, n, k):
        got = sigma_total_mode_terms(ScatterConfig(n, k), PhaseShiftSet(tuple(self.DELTAS)))
        with mp.workdps(40):
            pref = 4 * mp.pi ** (mp.mpf(n - 1) / 2) / mp.gamma(mp.mpf(n - 1) / 2) * mp.mpf(k) ** (1 - n)
            for l, d in enumerate(self.DELTAS):
                ref = pref * (2 * l + n - 2) * mp.rf(l + 1, n - 3) * mp.sin(d) ** 2
                assert abs(got[l] - ref) <= 1e-13 * abs(ref), l

    def test_overflow_is_loud(self):
        with pytest.raises(errors.OverflowGuardError, match="n=300"):
            sigma_total_mode_terms(ScatterConfig(300, 0.01), PhaseShiftSet((0.3,)))


def test_production_needs_no_gegenbauer_table(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("production called an oracle kernel")

    monkeypatch.setattr(specfun, "gegenbauer_table", refuse)
    monkeypatch.setattr(specfun, "pochhammer", refuse)
    shifts = PhaseShiftSet((0.4, -0.3, 0.2))
    inner = (np.arange(6) + 0.5) * math.pi / 6
    for n in range(1, 6):
        config = ScatterConfig(n, 1.3)
        theta = [0.0, math.pi] if n == 1 else np.linspace(0.0, math.pi, 7)
        psi, _, _ = evaluate_grid(config, shifts, [0.7, 4.0], theta)
        assert np.all(np.isfinite(psi))
        if n == 1:
            continue
        grid = cross_section_grid(config, shifts, [0.7, 4.0], inner)
        assert np.all(np.isfinite(grid.dsigma_domega))
        assert np.all(np.isfinite(f_theta_grid(config, shifts, inner)))
        assert np.all(np.isfinite(sigma_total_mode_terms(config, shifts)))
