"""Solver tests: closed-form boundary matching and the Numerov route,
cross-checked against each other and against textbook 3D relations."""

import cmath
import math
import warnings

import numpy as np
import pytest
from scipy.special import spherical_jn, spherical_yn

from scatterkit import errors
from scatterkit.partialwave import PhaseShiftSet, ScatterConfig
from scatterkit.phasesolve import (
    MatchResult,
    PotentialModel,
    _numerov,
    hard_sphere_shift,
    ode_shift,
    potential_from_json,
    potential_to_json,
    solve_potential_shifts,
    square_well_shift,
    unwrap_shifts,
)


def tabulated_well(a, V0, width=4e-4, rcut_factor=1.2, spacing=None):
    """Square well sampled on a fine grid with a linear edge ramp.

    The ramp width bounds the physics error quadratically; the solver's
    step rule resolves the table spacing.
    """
    if spacing is None:
        spacing = width / 4.0
    r = np.arange(0.0, rcut_factor * a + spacing, spacing)
    v = np.where(
        r < a - width / 2,
        V0,
        np.where(r > a + width / 2, 0.0, V0 * (a + width / 2 - r) / width),
    )
    v[-1] = 0.0
    return PotentialModel.tabulated(r, v)


def smooth_well(samples=2000, a=6.0, depth=2.5, width=2.0, power=3.0):
    """Attractive well that vanishes with its slope at r = a, sampled evenly."""
    r = np.linspace(0.0, a, samples)
    v = -depth * np.exp(-((r / width) ** 2)) * (1.0 - (r / a) ** 2) ** power
    v[-1] = 0.0
    return PotentialModel.tabulated(r, v)


def dop853_shift(n, k, pot, l):
    """Independent delta_l of the interpolated table by solve_ivp (DOP853).

    Integrates u'' = [p(p-1)/r^2 + V - k^2] u, p = l + (n-1)/2, from the
    regular start at r0 = 1e-6, one table interval at a time so that no step
    straddles a kink of V, and matches sqrt(r) J and sqrt(r) Y at 1.5 a.
    """
    from scipy.integrate import solve_ivp
    from scipy.special import jv, jvp, yv, yvp

    r_t, v_t = np.asarray(pot.r_table), np.asarray(pot.v_table)
    p = l + (n - 1) / 2.0

    def rhs(r, y):
        return [y[1], (p * (p - 1.0) / (r * r) + np.interp(r, r_t, v_t) - k * k) * y[0]]

    r0, b = 1e-6, (v_t[0] - k * k) / (4.0 * p + 2.0)
    y = [1.0 + b * r0 * r0, p / r0 * (1.0 + b * r0 * r0) + 2.0 * b * r0]
    rm = 1.5 * pot.a
    knots = np.concatenate(([r0], r_t[1:], [rm]))
    for lo, hi in zip(knots[:-1], knots[1:]):
        y = solve_ivp(rhs, (lo, hi), y, method="DOP853", rtol=1e-12, atol=1e-300).y[:, -1]
    u, du = y
    nu, z, sq = p - 0.5, k * rm, math.sqrt(rm)
    f, g = sq * jv(nu, z), sq * yv(nu, z)
    fp = jv(nu, z) / (2.0 * sq) + sq * k * jvp(nu, z)
    gp = yv(nu, z) / (2.0 * sq) + sq * k * yvp(nu, z)
    return math.atan2(u * fp - f * du, u * gp - g * du)


def numerov_reference(r, q, p, b2):
    """One l at a time in scalar arithmetic: the loop that the one-pass
    _numerov must reproduce bit for bit, column by column."""
    c = (r[1] - r[0]) ** 2 / 12.0
    u = np.empty_like(r)
    u[0] = r[0] ** p * (1.0 + b2 * r[0] ** 2)
    u[1] = r[1] ** p * (1.0 + b2 * r[1] ** 2)
    for i in range(1, r.size - 1):
        u[i + 1] = (
            (2.0 + 10.0 * c * q[i]) * u[i] - (1.0 - c * q[i - 1]) * u[i - 1]
        ) / (1.0 - c * q[i + 1])
        if abs(u[i + 1]) > 1e250:
            u[: i + 2] *= 1e-250
    return u


def textbook_square_well_delta(l, k, a, V0):
    """Independent 3D oracle: interior log-derivative against (j_l, y_l)."""
    q = math.sqrt(k * k - V0)
    j = spherical_jn(l, q * a)
    jp = spherical_jn(l, q * a, derivative=True)
    beta = q * jp / j
    jk, yk = spherical_jn(l, k * a), spherical_yn(l, k * a)
    jkp = spherical_jn(l, k * a, derivative=True)
    ykp = spherical_yn(l, k * a, derivative=True)
    return math.atan2(k * jkp - beta * jk, k * ykp - beta * yk)


class TestHardSphere:
    def test_3d_s_wave_small_ka(self):
        cfg = ScatterConfig(n=3, k=1.0)
        m = hard_sphere_shift(cfg, 0.7, 0)
        assert m.delta == pytest.approx(-0.7, abs=1e-12)
        assert m.c_over_d_residual < 1e-14

    def test_3d_s_wave_sweep_unwrapped(self):
        # e^{2i delta} = e^{-2ika} exactly; the principal branch folds into
        # (-pi/2, pi/2], continuity unwrapping recovers delta = -ka
        a = 1.0
        kas = np.arange(0.01, 5.0001, 0.01)
        raw = [hard_sphere_shift(ScatterConfig(n=3, k=ka / a), a, 0).delta for ka in kas]
        unwrapped = unwrap_shifts(raw)
        assert np.max(np.abs(unwrapped + kas)) < 1e-10

    def test_threshold_scaling(self):
        # delta_l ~ -(ka)^(2l+1)/[(2l+1)!! (2l-1)!!] for small ka
        cfg_small = lambda ka: ScatterConfig(n=3, k=ka)
        for l in (1, 2, 3):
            ka1, ka2 = 1e-3, 5e-4
            d1 = hard_sphere_shift(cfg_small(ka1), 1.0, l).delta
            d2 = hard_sphere_shift(cfg_small(ka2), 1.0, l).delta
            assert d1 != 0.0
            assert d1 / d2 == pytest.approx(2.0 ** (2 * l + 1), rel=1e-3)
            dfac = lambda m: math.prod(range(m, 0, -2))
            ref = -(ka1 ** (2 * l + 1)) / (dfac(2 * l + 1) * dfac(2 * l - 1))
            assert d1 == pytest.approx(ref, rel=1e-4)

    def test_unimodular_any_dimension(self, rng):
        for _ in range(15):
            n = int(rng.integers(1, 8))
            l = int(rng.integers(0, 7))
            ka = rng.uniform(0.1, 8.0)
            m = hard_sphere_shift(ScatterConfig(n=n, k=ka), 1.0, l)
            assert m.c_over_d_residual < 1e-12


class TestSquareWell:
    def test_free_limit(self):
        cfg = ScatterConfig(n=3, k=1.0)
        for l in range(4):
            assert abs(square_well_shift(cfg, 1.0, 0.0, l).delta) < 1e-12

    def test_3d_s_wave_textbook_relation(self):
        # tan(delta0 + ka)/k = tan(qa)/q
        k, a, V0 = 1.0, 1.0, -1.0
        cfg = ScatterConfig(n=3, k=k)
        d0 = square_well_shift(cfg, a, V0, 0).delta
        q = math.sqrt(k * k - V0)
        assert math.tan(d0 + k * a) / k == pytest.approx(math.tan(q * a) / q, rel=1e-12)

    def test_3d_matches_textbook_all_l(self):
        k, a, V0 = 1.0, 1.0, -2.5
        cfg = ScatterConfig(n=3, k=k)
        for l in range(5):
            ours = square_well_shift(cfg, a, V0, l).delta
            ref = textbook_square_well_delta(l, k, a, V0)
            diff = (ours - ref + math.pi / 2) % math.pi - math.pi / 2
            assert abs(diff) < 1e-12

    def test_weak_well_linearity(self):
        # Born regime: delta ~ V0, to within a few percent
        k, a = 1.0, 1.0
        cfg = ScatterConfig(n=3, k=k)
        d_small = square_well_shift(cfg, a, -0.002, 0).delta
        d_half = square_well_shift(cfg, a, -0.001, 0).delta
        assert d_small / d_half == pytest.approx(2.0, rel=0.02)

    def test_evanescent_interior(self):
        # barrier with V0 > k^2: interior is a modified Bessel function
        k, a, V0 = 1.0, 1.0, 4.0
        cfg = ScatterConfig(n=3, k=k)
        m = square_well_shift(cfg, a, V0, 0)
        assert m.c_over_d_residual < 1e-12
        # independent closed form for l=0: tan(d0+ka)/k = tanh(kappa a)/kappa
        kappa = math.sqrt(V0 - k * k)
        assert math.tan(m.delta + k * a) / k == pytest.approx(
            math.tanh(kappa * a) / kappa, rel=1e-12
        )

    def test_even_dimension_unimodular(self):
        cfg = ScatterConfig(n=4, k=1.2)
        for V0 in (-1.0, 3.0):
            for l in range(3):
                m = square_well_shift(cfg, 0.8, V0, l)
                assert m.c_over_d_residual < 1e-12

    def test_resonant_node_no_crash(self):
        # k^2 = V0 exactly is rejected rather than silently wrong
        cfg = ScatterConfig(n=3, k=1.0)
        with pytest.raises(errors.DomainError):
            square_well_shift(cfg, 1.0, 1.0, 0)


class TestOdeShift:
    def test_zero_table(self):
        cfg = ScatterConfig(n=3, k=1.0)
        r = np.linspace(0.0, 1.0, 51)
        pot = PotentialModel.tabulated(r, np.zeros_like(r))
        for l in (0, 2):
            assert abs(ode_shift(cfg, pot, l, r_match=2.6).delta) < 1e-8

    def test_square_well_cross_oracle(self):
        k, a, V0 = 1.0, 1.0, -1.0
        cfg = ScatterConfig(n=3, k=k)
        pot = tabulated_well(a, V0)
        for l in range(5):
            analytic = square_well_shift(cfg, a, V0, l).delta
            numeric = ode_shift(cfg, pot, l, r_match=max(1.3 * a, (l + 0.5) / k))
            diff = (numeric.delta - analytic + math.pi / 2) % math.pi - math.pi / 2
            assert abs(diff) < 1e-6
            assert numeric.c_over_d_residual < 1e-6

    def test_square_well_cross_oracle_4d(self):
        k, a, V0 = 1.0, 1.0, -1.5
        cfg = ScatterConfig(n=4, k=k)
        pot = tabulated_well(a, V0)
        for l in (0, 2):
            analytic = square_well_shift(cfg, a, V0, l).delta
            numeric = ode_shift(cfg, pot, l, r_match=max(1.3 * a, (l + 0.5) / k)).delta
            diff = (numeric - analytic + math.pi / 2) % math.pi - math.pi / 2
            assert abs(diff) < 1e-6

    def test_hard_core_limit(self):
        # V0 = 1e6 approximates a hard sphere to O(k/kappa) ~ 5e-4
        k, a = 0.5, 1.0
        cfg = ScatterConfig(n=3, k=k)
        pot = tabulated_well(a, 1.0e6)
        numeric = ode_shift(cfg, pot, 0).delta
        hard = hard_sphere_shift(cfg, a, 0).delta
        diff = (numeric - hard + math.pi / 2) % math.pi - math.pi / 2
        assert abs(diff) < 1e-3

    def test_match_point_independence(self):
        k, a, V0 = 1.0, 1.0, -1.0
        cfg = ScatterConfig(n=3, k=k)
        pot = tabulated_well(a, V0, width=2e-3, spacing=1e-3)
        d1 = ode_shift(cfg, pot, 1, r_match=1.3 * a).delta
        d2 = ode_shift(cfg, pot, 1, r_match=1.95 * a).delta
        assert abs(d1 - d2) < 1e-8

    def test_threshold_behaviour(self):
        # delta_l -> 0 for l >= 1 as k -> 0; match outside the barrier
        a, V0 = 1.0, -1.0
        pot = tabulated_well(a, V0, width=2e-3, spacing=1e-3)
        prev = None
        for k in (0.5, 0.25, 0.125):
            r_match = max(1.3 * a, 1.5 / k)
            d = abs(ode_shift(ScatterConfig(n=3, k=k), pot, 1, r_match=r_match).delta)
            if prev is not None:
                assert d < prev
            prev = d
        assert prev < 1e-3

    def test_classically_forbidden_warning(self):
        pot = tabulated_well(1.0, -0.5, width=2e-3, spacing=1e-3)
        cfg = ScatterConfig(n=3, k=0.1)
        with pytest.warns(UserWarning, match="classically forbidden"):
            ode_shift(cfg, pot, 5)

    def test_requires_tabulated(self):
        cfg = ScatterConfig(n=3, k=1.0)
        with pytest.raises(errors.DomainError):
            ode_shift(cfg, PotentialModel.square_well(1.0, -1.0), 0)

    def test_unitarity_residual(self):
        cfg = ScatterConfig(n=3, k=1.0)
        pot = tabulated_well(1.0, -1.0)
        from scatterkit.partialwave import radial_mode

        results = [ode_shift(cfg, pot, l, r_match=2.5) for l in range(3)]
        shifts = PhaseShiftSet.from_deltas([m.delta for m in results])
        for l in range(3):
            mode = radial_mode(cfg, shifts, l, 2.0)
            assert abs(abs(mode.Dl / mode.Cl) - 1.0) < 1e-10


class TestOnePass:
    """Tabulated potentials: all l share one Numerov pass, and each l comes
    out bit for bit as its own ode_shift."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_solve_equals_per_l_ode_shift(self, n):
        cfg = ScatterConfig(n=n, k=4.0)
        pot = tabulated_well(1.0, -1.0, width=2e-3, spacing=1e-3)
        batched = solve_potential_shifts(cfg, pot, 4)
        single = [ode_shift(cfg, pot, l) for l in range(5)]
        assert [m.delta for m in batched] == [m.delta for m in single]
        assert [m.c_over_d_residual for m in batched] == [m.c_over_d_residual for m in single]

    def test_renormalising_barrier_equals_per_l_ode_shift(self):
        # integral of sqrt(V) over the barrier is about 640 > ln(1e250), so
        # every column passes 1e250 and is renormalised
        r = np.linspace(0.0, 6.0, 4001)
        v = 4e4 * (1.0 - (r / 6.0) ** 2) ** 2
        v[-1] = 0.0
        cfg, pot = ScatterConfig(n=3, k=1.0), PotentialModel.tabulated(r, v)
        batched = solve_potential_shifts(cfg, pot, 6)
        assert batched == [ode_shift(cfg, pot, l) for l in range(7)]

    def test_numerov_columns_match_one_column_runs(self):
        r = 0.01 * np.arange(1, 4001)
        q = np.column_stack([
            np.full(r.size, 400.0),  # grows like e^{20 r} to e^800: renormalises
            6.0 / r**2 - 4.0,  # l = 2, n = 3, k = 2: oscillates
            np.full(r.size, np.nan),  # must not hide another column's growth
            2.0 / r**2 - 4.0,
        ])
        p = np.array([1.0, 3.0, 1.0, 2.0])
        b2 = np.array([400.0 / 6.0, -4.0 / 14.0, 0.0, -0.4])
        batch = _numerov(r, q, p, b2)
        for j in range(q.shape[1]):
            one = _numerov(r, q[:, [j]], p[[j]], b2[[j]])[:, 0]
            np.testing.assert_array_equal(batch[:, j], one)
            ref = numerov_reference(r, q[:, j], float(p[j]), float(b2[j]))
            np.testing.assert_array_equal(batch[:, j], ref)
        start = [r[0] ** pj * (1.0 + bj * r[0] ** 2) for pj, bj in zip(p.tolist(), b2.tolist())]
        assert abs(batch[0, 0]) < 1e-200 * start[0]
        # the large column never rescales the small ones
        assert batch[0, 1] == start[1] and batch[0, 3] == start[3]

    def test_one_warning_per_forbidden_l(self):
        # the table ends at 1.2, so k * r_match = 3.12 and l = 4, 5 match
        # inside the centrifugal barrier
        pot = tabulated_well(1.0, -0.5, width=2e-3, spacing=1e-3)
        cfg = ScatterConfig(n=3, k=2.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            solve_potential_shifts(cfg, pot, 5)
            ode_shift(cfg, pot, 5)
        forbidden = [w for w in caught if "classically forbidden" in str(w.message)]
        assert [str(w.message).split("< ")[1].split(" ")[0] for w in forbidden] == [
            "l=4", "l=5", "l=5"]
        for w in forbidden:
            assert w.category is UserWarning
            assert w.filename == __file__


class TestRealPairMatching:
    """The free-region fit in (F, G), F + iG = h1/r^s: no cancellation under
    the centrifugal barrier, and one Bessel path for every solver."""

    @pytest.mark.filterwarnings("ignore:matching at")
    def test_no_spurious_matching_error(self):
        # the former complex (h2, h1) fit raised MatchingError at l = 11..15
        pot = smooth_well()
        for n in range(2, 7):
            res = solve_potential_shifts(ScatterConfig(n=n, k=0.5), pot, 20)
            assert max(m.c_over_d_residual for m in res) < 1e-9
            if n == 3:
                for l in (5, 15):
                    ref = dop853_shift(3, 0.5, pot, l)
                    assert abs(cmath.exp(2j * res[l].delta) - cmath.exp(2j * ref)) < 1e-9

    @pytest.mark.filterwarnings("ignore:matching at")
    def test_forbidden_region_residuals(self):
        pot = tabulated_well(1.0, -0.5, width=2e-3, spacing=1e-3)
        cfg = ScatterConfig(n=3, k=0.1)
        for l in range(7):
            assert ode_shift(cfg, pot, l).c_over_d_residual < 1e-10

    @pytest.mark.filterwarnings("ignore:matching at")
    def test_solvers_never_call_the_scalar_route(self, monkeypatch):
        from scatterkit import specfun

        def forbidden(*args, **kwargs):
            raise AssertionError("scalar Bessel route called")

        monkeypatch.setattr(specfun, "spherical_hankel", forbidden)
        monkeypatch.setattr(specfun, "spherical_bessel_j", forbidden)
        potentials = [
            PotentialModel.hard_sphere(0.8),
            PotentialModel.square_well(1.0, -2.0),  # propagating interior
            PotentialModel.square_well(1.0, 5.0),  # evanescent interior
            tabulated_well(1.0, -1.0, width=2e-3, spacing=1e-3),
        ]
        for n in range(1, 5):
            for pot in potentials:
                res = solve_potential_shifts(ScatterConfig(n=n, k=1.5), pot, 3)
                assert [m.l for m in res] == [0, 1, 2, 3]


class TestOdeAccuracy:
    @pytest.mark.parametrize("l", [
        pytest.param(0, marks=pytest.mark.xfail(strict=True, reason=(
            "known defect, ROADMAP item 5: the Numerov start at r = h misses "
            "u ~ sqrt(r) at n = 2, l = 0; e^{2i delta} is off by 1e-2"))),
        1,
        2,
    ])
    def test_two_dimensions_against_dop853(self, l):
        k, pot = 2.0, smooth_well()
        ours = ode_shift(ScatterConfig(n=2, k=k), pot, l).delta
        ref = dop853_shift(2, k, pot, l)
        assert abs(cmath.exp(2j * ours) - cmath.exp(2j * ref)) < 1e-6


class TestSolveDispatch:
    def test_hard_sphere_dispatch(self):
        cfg = ScatterConfig(n=3, k=1.0)
        res = solve_potential_shifts(cfg, PotentialModel.hard_sphere(0.7), 2)
        assert [m.l for m in res] == [0, 1, 2]
        assert res[0].delta == pytest.approx(-0.7, abs=1e-12)

    def test_square_well_dispatch(self):
        cfg = ScatterConfig(n=3, k=1.0)
        res = solve_potential_shifts(cfg, PotentialModel.square_well(1.0, -1.0), 1)
        assert len(res) == 2

    def test_tabulated_dispatch(self):
        cfg = ScatterConfig(n=3, k=1.0)
        pot = tabulated_well(1.0, -1.0, width=2e-3, spacing=1e-3)
        res = solve_potential_shifts(cfg, pot, 1)
        assert len(res) == 2

    def test_negative_l_and_empty_range(self):
        cfg = ScatterConfig(n=3, k=1.0)
        pot = tabulated_well(1.0, -1.0, width=2e-3, spacing=1e-3)
        for solve in (lambda: hard_sphere_shift(cfg, 1.0, -1),
                      lambda: square_well_shift(cfg, 1.0, -1.0, -1),
                      lambda: ode_shift(cfg, pot, -1)):
            with pytest.raises(errors.DomainError, match="l=-1"):
                solve()
        assert solve_potential_shifts(cfg, pot, -1) == []


class TestPotentialModel:
    def test_validation(self):
        with pytest.raises(errors.DomainError):
            PotentialModel(kind="nonsense", a=1.0)
        with pytest.raises(errors.DomainError):
            PotentialModel.hard_sphere(-1.0)
        with pytest.raises(errors.DomainError):
            PotentialModel.tabulated([0.0, 1.0], [1.0, 2.0])  # nonzero tail
        with pytest.raises(errors.DomainError):
            PotentialModel.tabulated([1.0, 0.5], [1.0, 0.0])  # not increasing

    @pytest.mark.parametrize("make, field", [
        (lambda: PotentialModel.hard_sphere(math.inf), "a"),
        (lambda: PotentialModel.square_well(1.0, math.nan), "V0"),
        (lambda: PotentialModel.tabulated([0.0, 1.0, 2.0], [1.0, math.nan, 0.0]), "v_table"),
        (lambda: PotentialModel.tabulated([0.0, 1.0, 2.0], [-math.inf, 1.0, 0.0]), "v_table"),
        (lambda: PotentialModel.tabulated([0.0, math.nan, 2.0], [1.0, 1.0, 0.0]), "r_table"),
        (lambda: PotentialModel.tabulated([0.0, 1.0, math.inf], [1.0, 1.0, 0.0]), "r_table"),
    ], ids=["a", "V0", "v_table-nan", "v_table-inf", "r_table-nan", "r_table-inf"])
    def test_non_finite_fields_rejected(self, make, field):
        with pytest.raises(errors.DomainError, match=rf"\b{field} must be finite"):
            make()

    def test_json_round_trip(self):
        for pot in (
            PotentialModel.hard_sphere(0.5),
            PotentialModel.square_well(1.0, -2.0),
            PotentialModel.tabulated([0.0, 0.5, 1.0], [1.0, 0.5, 0.0]),
        ):
            back = potential_from_json(potential_to_json(pot))
            assert back == pot

    def test_json_rejects_unknown(self):
        with pytest.raises(errors.DomainError):
            potential_from_json('{"kind": "yukawa", "a": 1.0}')

    def test_evaluate_interpolates(self):
        pot = PotentialModel.tabulated([0.0, 1.0, 2.0], [2.0, 1.0, 0.0])
        assert pot.evaluate(np.array([0.5]))[0] == pytest.approx(1.5)
        assert pot.evaluate(np.array([5.0]))[0] == 0.0
