"""Field assembly: plane-wave reconstruction, scattering decomposition, modes."""

import cmath
import math

import numpy as np
import pytest
from scipy.special import eval_legendre, roots_gegenbauer

from scatterkit import errors
from scatterkit.partialwave import (
    FieldSample,
    PhaseShiftSet,
    ScatterConfig,
    a_l,
    angular_value,
    evaluate_grid,
    f_r_theta_3d,
    mode_coefficient,
    phase_shifts_from_json,
    phase_shifts_to_json,
    plane_wave,
    psi_incident,
    psi_total,
    radial_mode,
    radial_wavefunction,
)
from scatterkit.xsection import f_theta_asymptotic


def exp_oracle(k, r, theta):
    return cmath.exp(1j * k * r * math.cos(theta))


class TestPlaneWave:
    def test_perpendicular_is_one(self):
        # cos(pi/2) = 0 so the exact value is 1 in any dimension
        for n in (1, 2, 3, 4, 5, 7):
            cfg = ScatterConfig(n=n, k=1.3)
            theta = math.pi / 2 if n > 1 else 0.0
            val = plane_wave(cfg, 4.0, theta)
            ref = exp_oracle(1.3, 4.0, theta)
            assert abs(val - ref) < 1e-10

    def test_3d_forward(self):
        cfg = ScatterConfig(n=3, k=1.0, lmax=40)
        assert abs(plane_wave(cfg, 5.0, 0.0) - cmath.exp(5j)) < 1e-10

    def test_5d_oblique(self):
        cfg = ScatterConfig(n=5, k=1.0)
        assert abs(plane_wave(cfg, 10.0, 2.0) - exp_oracle(1.0, 10.0, 2.0)) < 1e-10

    def test_one_dimensional_exact(self):
        cfg = ScatterConfig(n=1, k=0.9)
        for r in (1.0, 7.7):
            assert abs(plane_wave(cfg, r, 0.0) - cmath.exp(1j * 0.9 * r)) < 1e-12
            assert abs(plane_wave(cfg, r, math.pi) - cmath.exp(-1j * 0.9 * r)) < 1e-12

    def test_truncation_enforced(self):
        cfg = ScatterConfig(n=3, k=2.0, lmax=10)
        with pytest.raises(errors.TruncationError):
            plane_wave(cfg, 20.0, 1.0)  # needs ceil(40)+20

    def test_error_monotone_past_policy(self):
        # reconstruction error decreases monotonically (noise floor 1e-13)
        k, r, theta = 1.0, 8.0, 0.9
        base = math.ceil(k * r) + 20
        errs = []
        for L in range(base, base + 21):
            cfg = ScatterConfig(n=4, k=k, lmax=L)
            errs.append(abs(plane_wave(cfg, r, theta) - exp_oracle(k, r, theta)))
        for a, b in zip(errs, errs[1:]):
            assert b <= a + 1e-13


class TestAl:
    def test_3d_closed_form(self, rng):
        cfg = ScatterConfig(n=3, k=1.7)
        for _ in range(20):
            l = int(rng.integers(0, 11))
            d = rng.uniform(-1.5, 1.5)
            th = rng.uniform(0.0, math.pi)
            shifts = PhaseShiftSet.from_deltas([0.0] * l + [d])
            ours = a_l(cfg, shifts, l, th)
            ref = (
                (2 * l + 1)
                * 1j**l
                * 0.5
                * (cmath.exp(2j * d) - 1)
                * eval_legendre(l, math.cos(th))
            )
            assert abs(ours - ref) <= 1e-12 * abs(ref)

    def test_zero_shift_gives_zero(self):
        shifts = PhaseShiftSet.from_deltas([0.0, 0.0])
        for n in (1, 2, 3, 5):
            cfg = ScatterConfig(n=n, k=1.0)
            assert a_l(cfg, shifts, 1, 0.0) == 0.0

    def test_one_dimensional_table(self):
        k, d0, d1 = 2.0, 0.4, -0.3
        cfg = ScatterConfig(n=1, k=k)
        shifts = PhaseShiftSet.from_deltas([d0, d1])
        f0 = cmath.exp(2j * d0) - 1
        f1 = cmath.exp(2j * d1) - 1
        assert a_l(cfg, shifts, 0, 0.0) == pytest.approx(-0.5 * k * f0)
        assert a_l(cfg, shifts, 0, math.pi) == pytest.approx(-0.5 * k * f0)
        assert a_l(cfg, shifts, 1, 0.0) == pytest.approx(-0.5j * k * f1)
        assert a_l(cfg, shifts, 1, math.pi) == pytest.approx(0.5j * k * f1)
        assert a_l(cfg, shifts, 2, 0.0) == 0.0

    def test_planar_limit_of_generic_formula(self):
        # n=2 must be the removable-singularity limit of the generic
        # coefficient: compare against the generic path at lam = 1e-9
        import scatterkit.specfun as sf

        k, th = 1.4, 1.1
        lam = 1e-9
        cfg2 = ScatterConfig(n=2, k=k)
        for l, d in ((0, 0.5), (1, -0.7), (3, 0.2)):
            shifts = PhaseShiftSet.from_deltas([0.0] * l + [d])
            ours = a_l(cfg2, shifts, l, th)
            n_eps = 2 + 2 * lam
            pref = math.gamma(lam) / (
                math.sqrt(math.pi) * (k / 2) ** ((n_eps - 3) / 2)
            )
            ref = (
                pref
                * (2 * l + n_eps - 2)
                * 1j**l
                * 0.5
                * (cmath.exp(2j * d) - 1)
                * sf.gegenbauer(l, lam, math.cos(th))
            )
            assert abs(ours - ref) <= 2e-7 * abs(ref)


class TestPsiDecomposition:
    def test_incident_equals_plane_wave(self, rng):
        for n in (3, 4, 5):
            cfg = ScatterConfig(n=n, k=1.0)
            for _ in range(34):
                r = rng.uniform(0.5, 12.0)
                th = rng.uniform(0.0, math.pi)
                assert abs(psi_incident(cfg, r, th) - plane_wave(cfg, r, th)) < 1e-9

    def test_3d_incident_coefficients(self):
        # term-by-term the 3D expansion carries (2l+1) i^l; the stored
        # coefficient is half of it (one per Hankel kind)
        for l in range(12):
            assert 2.0 * mode_coefficient(3, 2.2, l) == pytest.approx(
                (2 * l + 1) * 1j**l, rel=1e-14
            )

    def test_partial_sums_stabilize(self):
        k, r, th = 1.0, 6.0, 0.7
        base = math.ceil(k * r) + 25
        v1 = plane_wave(ScatterConfig(n=4, k=k, lmax=base), r, th)
        v2 = plane_wave(ScatterConfig(n=4, k=k, lmax=base + 10), r, th)
        assert abs(v1 - v2) < 1e-10

    def test_free_field_has_no_scattered_part(self):
        cfg = ScatterConfig(n=4, k=1.0)
        shifts = PhaseShiftSet.from_deltas([0.0, 0.0, 0.0])
        fs = psi_total(cfg, shifts, 3.0, 1.2)
        assert fs.psi_sc == 0.0
        assert abs(fs.psi - fs.psi_in) < 1e-13

    def test_route_agreement(self):
        # mode sum with phase factors vs plane wave plus outgoing-only sum
        cfg = ScatterConfig(n=4, k=1.0)
        shifts = PhaseShiftSet.from_deltas([0.3, -0.2])
        fs = psi_total(cfg, shifts, 7.0, 1.1)
        assert abs(fs.psi - (fs.psi_in + fs.psi_sc)) < 1e-9

    def test_route_agreement_random(self, rng):
        for n in (2, 3, 5, 6):
            cfg = ScatterConfig(n=n, k=1.3)
            shifts = PhaseShiftSet.from_deltas(rng.uniform(-1, 1, size=4))
            r = rng.uniform(1.0, 9.0)
            th = rng.uniform(0.0, math.pi)
            fs = psi_total(cfg, shifts, r, th)
            assert abs(fs.psi - (fs.psi_in + fs.psi_sc)) < 1e-9

    def test_scattered_sum_is_al_weighted_outgoing_waves(self, rng):
        # psi_sc literally equals sum_l a_l(theta) h1_nu(kr)/r^((n-3)/2)
        from scatterkit.specfun import Order, spherical_hankel

        for n in (2, 3, 4, 5):
            cfg = ScatterConfig(n=n, k=1.2)
            shifts = PhaseShiftSet.from_deltas(rng.uniform(-1, 1, size=3))
            r = rng.uniform(1.0, 8.0)
            th = rng.uniform(0.1, math.pi - 0.1)
            direct = sum(
                a_l(cfg, shifts, l, th)
                * spherical_hankel(1, Order(l, n), cfg.k * r)
                / r ** ((n - 3) / 2)
                for l in range(shifts.lmax + 1)
            )
            assembled = psi_total(cfg, shifts, r, th).psi_sc
            assert abs(direct - assembled) <= 1e-12 * max(1.0, abs(assembled))

    def test_one_dimensional_transmitted_amplitude(self):
        # forward total / incident = (e^{2i d0} + e^{2i d1})/2, the parity
        # channel transmission amplitude
        k, d0, d1 = 1.0, 0.3, -0.5
        cfg = ScatterConfig(n=1, k=k)
        shifts = PhaseShiftSet.from_deltas([d0, d1])
        fs = psi_total(cfg, shifts, 5.0, 0.0)
        t = 0.5 * (cmath.exp(2j * d0) + cmath.exp(2j * d1))
        assert abs(fs.psi / fs.psi_in - t) < 1e-12

    def test_outgoing_phase_only(self, rng):
        # coefficient ratio outgoing(total)/outgoing(incident) = e^{2i d}
        cfg = ScatterConfig(n=5, k=1.0)
        for _ in range(10):
            d = rng.uniform(-2, 2)
            shifts = PhaseShiftSet.from_deltas([d])
            m = radial_mode(cfg, shifts, 0, 3.0)
            ratio = m.Dl / m.Cl
            assert abs(ratio - cmath.exp(2j * d)) < 1e-12
            assert abs(abs(ratio) - 1.0) < 1e-12

    def test_superposition_complex_scaling(self):
        # doubling (e^{2i delta_l} - 1) for one mode doubles its
        # contribution; realised with a complex shift
        cfg = ScatterConfig(n=3, k=1.0)
        d1 = 0.4
        f1 = cmath.exp(2j * d1) - 1.0
        d2 = -0.5j * cmath.log(2.0 * f1 + 1.0)  # e^{2i d2} - 1 = 2 f1
        base = PhaseShiftSet.from_deltas([0.2, d1])
        doubled = PhaseShiftSet.from_deltas([0.2, d2])
        assert not doubled.is_elastic
        r, th = 5.0, 0.8
        sc_base = psi_total(cfg, base, r, th).psi_sc
        sc_doubled = psi_total(cfg, doubled, r, th).psi_sc
        mode0 = psi_total(cfg, PhaseShiftSet.from_deltas([0.2]), r, th).psi_sc
        assert abs((sc_doubled - mode0) - 2.0 * (sc_base - mode0)) < 1e-12


class TestModeProjection:
    """Numerically extract per-mode coefficients from assembled fields."""

    @staticmethod
    def project_modes(cfg, shifts, r, lproj):
        # angular projection with a quadrature exact for the Gegenbauer
        # weight, then a 2x2 radial solve for the (h2, h1) coefficients
        n, k = cfg.n, cfg.k
        lam = n / 2.0 - 1.0
        lmax_inc = cfg.incident_lmax(r)
        nodes = lmax_inc + 12
        if n == 3:
            x, w = np.polynomial.legendre.leggauss(nodes)
        else:
            x, w = roots_gegenbauer(nodes, lam)
        thetas = np.arccos(x)
        psi, _, _ = evaluate_grid(cfg, shifts, [r], thetas)
        from scatterkit.specfun import gegenbauer_table

        tab = gegenbauer_table(lproj, lam, x)
        out = []
        gl2 = math.gamma(lam) ** 2
        for l in range(lproj + 1):
            norm = (
                math.pi
                * 2.0 ** (1.0 - 2.0 * lam)
                * math.gamma(l + 2.0 * lam)
                / (math.factorial(l) * (l + lam) * gl2)
            )
            # n=3: plain Legendre nodes, unit weight; n=4: Gegenbauer nodes
            # already carry the sqrt(1-x^2) measure
            val = np.sum(w * psi[0] * tab[l])
            out.append(val / norm)
        return out

    def test_extracted_coefficients(self, rng):
        for n in (3, 4):
            k = 1.0
            cfg = ScatterConfig(n=n, k=k)
            deltas = rng.uniform(-1.0, 1.0, size=4)
            shifts = PhaseShiftSet.from_deltas(deltas)
            r1, r2 = 3.0, 4.1
            lproj = 3
            modes_r1 = self.project_modes(cfg, shifts, r1, lproj)
            modes_r2 = self.project_modes(cfg, shifts, r2, lproj)
            from scatterkit.specfun import Order, spherical_hankel

            s = (n - 3) / 2.0
            for l in range(lproj + 1):
                o = Order(l, n)
                mat = np.array(
                    [
                        [
                            spherical_hankel(2, o, k * r1) / r1**s,
                            spherical_hankel(1, o, k * r1) / r1**s,
                        ],
                        [
                            spherical_hankel(2, o, k * r2) / r2**s,
                            spherical_hankel(1, o, k * r2) / r2**s,
                        ],
                    ]
                )
                c2, c1 = np.linalg.solve(mat, [modes_r1[l], modes_r2[l]])
                cl = mode_coefficient(n, k, l)
                assert abs(c2 - cl) <= 1e-10 * abs(cl)
                assert abs(c1 / c2 - cmath.exp(2j * deltas[l])) < 1e-10


class TestRadialMode:
    def test_s_wave_3d_trivial(self):
        cfg = ScatterConfig(n=3, k=1.0)
        shifts = PhaseShiftSet.from_deltas([0.7])
        for r in (0.3, 2.0, 50.0):
            m = radial_mode(cfg, shifts, 0, r)
            assert m.Ml == 1.0
            assert m.DeltaL == 0.0

    def test_sine_vs_hankel_form(self):
        cfg = ScatterConfig(n=5, k=1.0)
        shifts = PhaseShiftSet.from_deltas([0.1, 0.4, -0.6])
        r = 3.0
        for l in (0, 1, 2):
            a = radial_wavefunction(cfg, shifts, l, r, form="hankel")
            b = radial_wavefunction(cfg, shifts, l, r, form="sine")
            assert abs(a - b) < 1e-9 * max(1.0, abs(a))

    def test_sine_vs_hankel_even_dimension(self):
        cfg = ScatterConfig(n=4, k=1.3)
        shifts = PhaseShiftSet.from_deltas([-0.2, 0.5])
        for l, r in ((0, 1.7), (1, 6.0)):
            a = radial_wavefunction(cfg, shifts, l, r, form="hankel")
            b = radial_wavefunction(cfg, shifts, l, r, form="sine")
            assert abs(a - b) < 1e-9 * max(1.0, abs(a))

    def test_amplitude_branch_modulus(self):
        cfg = ScatterConfig(n=4, k=1.0)
        shifts = PhaseShiftSet.from_deltas([0.9])
        m = radial_mode(cfg, shifts, 0, 2.0)
        assert abs(m.Al) == pytest.approx(abs(2.0 * m.Cl * cmath.exp(0.9j)), rel=1e-12)

    def test_limits_monotone(self):
        # M_l -> 1 and Delta_l -> 0 from kr > l^2 + 1 outward
        for n, l in ((3, 2), (4, 1), (5, 3)):
            cfg = ScatterConfig(n=n, k=1.0)
            shifts = PhaseShiftSet.from_deltas([0.0] * (l + 1))
            krs = np.linspace(l * l + 1.0, 40.0 * (l * l + 1.0), 25)
            ms = []
            ds = []
            for kr in krs:
                m = radial_mode(cfg, shifts, l, kr / cfg.k)
                ms.append(m.Ml)
                ds.append(abs(m.DeltaL))
            # leading decay rates: Delta ~ nu(nu+1)/(2kr), M - 1 ~ O(1/kr^2)
            nu = l + (n - 3) / 2.0
            assert abs(ms[-1] - 1.0) < 1e-3
            assert ds[-1] < nu * (nu + 1.0) / krs[-1]
            assert all(b <= a + 1e-12 for a, b in zip(ms, ms[1:]))
            assert all(b <= a + 1e-12 for a, b in zip(ds, ds[1:]))


class TestFRTheta3D:
    def test_zero_shifts(self):
        cfg = ScatterConfig(n=3, k=1.0)
        shifts = PhaseShiftSet.from_deltas([0.0, 0.0])
        assert f_r_theta_3d(cfg, shifts, 2.0, 0.4) == 0.0

    def test_wave_consistency(self, rng):
        cfg = ScatterConfig(n=3, k=1.0)
        shifts = PhaseShiftSet.from_deltas([0.5, -0.3, 0.1])
        for _ in range(10):
            r = rng.uniform(1.0, 10.0)
            th = rng.uniform(0.0, math.pi)
            f = f_r_theta_3d(cfg, shifts, r, th)
            lhs = exp_oracle(1.0, r, th) + f * cmath.exp(1j * r) / r
            assert abs(lhs - psi_total(cfg, shifts, r, th).psi) < 1e-9

    def test_large_r_limit_is_asymptotic_amplitude(self):
        cfg = ScatterConfig(n=3, k=1.0)
        shifts = PhaseShiftSet.from_deltas([0.5, -0.3])
        th = 1.0
        f_far = f_r_theta_3d(cfg, shifts, 1.0e4, th)
        f_inf = f_theta_asymptotic(cfg, shifts, th).f
        assert abs(f_far - f_inf) < 2e-4 * abs(f_inf)

    def test_wrong_dimension(self):
        cfg = ScatterConfig(n=4, k=1.0)
        with pytest.raises(errors.WrongDimensionError):
            f_r_theta_3d(cfg, PhaseShiftSet.from_deltas([0.1]), 1.0, 1.0)


class TestGrid:
    def test_worker_count_invariance(self):
        cfg = ScatterConfig(n=3, k=1.0)
        shifts = PhaseShiftSet.from_deltas([0.2, -0.4])
        r = np.linspace(1.0, 5.0, 6)
        th = np.linspace(0.1, 3.0, 7)
        a = evaluate_grid(cfg, shifts, r, th, jobs=1)
        b = evaluate_grid(cfg, shifts, r, th, jobs=4)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_matches_pointwise(self):
        cfg = ScatterConfig(n=4, k=1.0)
        shifts = PhaseShiftSet.from_deltas([0.2])
        r = [2.0, 3.0]
        th = [0.5, 1.5]
        psi, psi_in, psi_sc = evaluate_grid(cfg, shifts, r, th)
        fs = psi_total(cfg, shifts, 3.0, 1.5)
        assert psi[1, 1] == fs.psi
        assert psi_sc[1, 1] == fs.psi_sc


class TestTypes:
    def test_shift_tail_and_flags(self):
        s = PhaseShiftSet.from_deltas([0.1, 0.2])
        assert s.delta_at(5) == 0.0
        assert s.phase_factor(5) == 1.0
        assert s.is_elastic
        assert not PhaseShiftSet.from_deltas([0.1 + 0.2j]).is_elastic

    def test_shift_validation(self):
        with pytest.raises(errors.DomainError):
            PhaseShiftSet.from_deltas([])
        with pytest.raises(errors.DomainError):
            PhaseShiftSet.from_deltas([float("nan")])

    @pytest.mark.parametrize("deltas, l", [
        ([0.1, 1e308], 1),  # 2 delta overflows, e^{2i delta} is nan
        ([0.1 - 400j, 0.2], 0),  # |e^{2i delta}| = e^800 overflows
    ])
    def test_shift_with_non_finite_phase_factor(self, deltas, l):
        with pytest.raises(errors.DomainError, match=f"at l={l}"):
            PhaseShiftSet.from_deltas(deltas)

    def test_config_validation(self):
        with pytest.raises(errors.DomainError):
            ScatterConfig(n=0, k=1.0)
        with pytest.raises(errors.DomainError):
            ScatterConfig(n=3, k=0.0)
        with pytest.raises(errors.DomainError):
            ScatterConfig(n=3, k=1.0, lmax=-1)

    def test_theta_validation_1d(self):
        cfg = ScatterConfig(n=1, k=1.0)
        with pytest.raises(errors.DomainError):
            plane_wave(cfg, 1.0, 0.5)
        assert angular_value(1, 1, math.pi) == 1.0

    def test_json_round_trip(self):
        shifts = PhaseShiftSet.from_deltas([0.5, -0.25, 0.125])
        text = phase_shifts_to_json(4, 1.5, shifts)
        n, k, back = phase_shifts_from_json(text)
        assert (n, k) == (4, 1.5)
        assert back.delta == shifts.delta

    def test_json_rejects_malformed(self):
        with pytest.raises(errors.DomainError):
            phase_shifts_from_json('{"n": 3}')

    def test_field_sample_fields(self):
        fs = FieldSample(r=1.0, theta=0.5, psi=1j, psi_in=0.5j, psi_sc=0.5j)
        assert fs.psi == fs.psi_in + fs.psi_sc
