"""Acceptance suite: ten end-to-end criteria, one printed line each.

Run with `pytest -s tests/test_acceptance.py` to see the checklist; each
criterion is a separate test so `pytest -v` doubles as the report.
"""

import cmath
import math

import numpy as np
import pytest
from scipy.special import eval_legendre, roots_gegenbauer

from scatterkit.partialwave import (
    PhaseShiftSet,
    ScatterConfig,
    a_l,
    evaluate_grid,
    mode_coefficient,
    plane_wave,
    radial_mode,
)
from scatterkit.phasesolve import (
    PotentialModel,
    hard_sphere_shift,
    ode_shift,
    square_well_shift,
    unwrap_shifts,
)
from scatterkit.specfun import (
    Order,
    bessel_polynomial_coefficients,
    calY,
    caly_from_hankel,
    gegenbauer_table,
    spherical_hankel,
)
from scatterkit.xsection import (
    angular_measure_integral,
    dsigma_double_sum,
    dsigma_leading,
    f_theta_asymptotic,
    one_d_summary,
    sigma_total_asymptotic,
)

RNG_SEED = 20240809


def report(num, name, worst, bound, extra=""):
    ok = worst <= bound
    tag = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} [{name}]: {tag} "
          f"(worst {worst:.3e} vs bound {bound:.1e}{extra})")
    assert ok, f"criterion {num}: worst {worst} exceeds {bound}"


def test_criterion_01_three_d_reduction():
    """a_l at n=3 equals (2l+1) i^l (e^{2id}-1)/2 P_l(cos th)."""
    rng = np.random.default_rng(RNG_SEED)
    cfg = ScatterConfig(n=3, k=1.9)
    worst = 0.0
    for _ in range(50):
        l = int(rng.integers(0, 11))
        d = rng.uniform(-1.5, 1.5)
        th = rng.uniform(0.0, math.pi)
        shifts = PhaseShiftSet.from_deltas([0.0] * l + [d])
        ref = (
            (2 * l + 1) * 1j**l * 0.5 * (cmath.exp(2j * d) - 1)
            * eval_legendre(l, math.cos(th))
        )
        if ref == 0.0:
            continue
        worst = max(worst, abs(a_l(cfg, shifts, l, th) - ref) / abs(ref))
    report(1, "3D reduction of a_l", worst, 1e-12)


def test_criterion_02_plane_wave_reconstruction():
    """Partial sums rebuild e^{ikr cos th} to 1e-10 for n in 3..6, kr <= 20."""
    rng = np.random.default_rng(RNG_SEED)
    worst = 0.0
    count = 0
    for n in (3, 4, 5, 6):
        for kr in (7.0, 20.0):
            cfg = ScatterConfig(n=n, k=1.0, lmax=int(kr) + 30)
            for _ in range(13):
                th = rng.uniform(0.0, math.pi)
                val = plane_wave(cfg, kr, th)
                worst = max(worst, abs(val - cmath.exp(1j * kr * math.cos(th))))
                count += 1
    assert count >= 100
    report(2, "plane-wave reconstruction", worst, 1e-10, f", {count} angles")


def test_criterion_03_incoming_invariance_outgoing_phase():
    """Numerically extracted mode coefficients: h2 part unchanged, h1 part
    multiplied by e^{2i delta_l}, to 1e-12."""
    rng = np.random.default_rng(RNG_SEED)
    worst = 0.0
    for n in (3, 4):
        k = 1.0
        cfg = ScatterConfig(n=n, k=k)
        deltas = rng.uniform(-1.2, 1.2, size=9)  # L = 8
        shifts = PhaseShiftSet.from_deltas(deltas)
        lam = n / 2.0 - 1.0
        # observe outside the highest mode's centrifugal barrier (kr > L):
        # inside it |h1_l| blows up and swamps the O(1) coefficients
        r1, r2 = 10.0, 12.3
        nodes = cfg.incident_lmax(r2) + 12
        if n == 3:
            x, w = np.polynomial.legendre.leggauss(nodes)
        else:
            x, w = roots_gegenbauer(nodes, lam)
        thetas = np.arccos(x)
        psi, _, _ = evaluate_grid(cfg, shifts, [r1, r2], thetas)
        tab = gegenbauer_table(8, lam, x)
        gl2 = math.gamma(lam) ** 2
        s = (n - 3) / 2.0
        for l in range(9):
            norm = (
                math.pi * 2.0 ** (1.0 - 2.0 * lam)
                * math.gamma(l + 2.0 * lam)
                / (math.factorial(l) * (l + lam) * gl2)
            )
            rl1 = np.sum(w * psi[0] * tab[l]) / norm
            rl2 = np.sum(w * psi[1] * tab[l]) / norm
            o = Order(l, n)
            mat = np.array(
                [
                    [spherical_hankel(2, o, k * r1) / r1**s,
                     spherical_hankel(1, o, k * r1) / r1**s],
                    [spherical_hankel(2, o, k * r2) / r2**s,
                     spherical_hankel(1, o, k * r2) / r2**s],
                ]
            )
            c_in, c_out = np.linalg.solve(mat, [rl1, rl2])
            cl = mode_coefficient(n, k, l)
            worst = max(worst, abs(c_in - cl) / abs(cl))
            worst = max(worst, abs(c_out / c_in - cmath.exp(2j * deltas[l])))
            worst = max(worst, abs(abs(c_out / c_in) - 1.0))
    report(3, "incoming invariance / outgoing phase", worst, 1e-12)


def test_criterion_04_odd_even_dichotomy():
    """Odd n: exact Bessel-polynomial coefficients; even n: the logarithmic
    series matches the inverted Hankel route to 1e-9 over kr in [0.5, 50]."""
    # odd dimensions: coefficient-for-coefficient, exact integers
    worst_odd = 0
    for nu in range(0, 11):
        m, a = 2 * nu + 1, nu + 1
        derived = []
        for i in range(nu + 1):
            kk = nu + 1 + i
            num = math.factorial(kk - 1) * math.prod(
                range(1 - a + kk, 1 - a + kk + (m - kk))
            )
            den = math.factorial(m - kk) * math.factorial(a - 1)
            derived.append(num // den)
        worst_odd = max(
            worst_odd,
            sum(x != y for x, y in zip(derived, bessel_polynomial_coefficients(nu))),
        )
    assert worst_odd == 0

    worst = 0.0
    for n in (2, 4, 6):
        for l in (0, 2, 4, 6, 8):
            for kr in (0.5, 2.2, 7.0, 19.0, 50.0):
                o = Order(l, n)
                series = calY(o, 1j / kr)
                inverted = caly_from_hankel(o, kr)
                worst = max(worst, abs(series - inverted) / abs(inverted))
    report(4, "odd/even dichotomy of calY", worst, 1e-9,
           f", odd coefficients exact")


def test_criterion_05_wronskian_form():
    """Double-sum cross section equals the radial-current form to 1e-9."""
    rng = np.random.default_rng(RNG_SEED)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 6))
        cfg = ScatterConfig(n=n, k=1.1)
        shifts = PhaseShiftSet.from_deltas(rng.uniform(-1, 1, size=6))
        r = rng.uniform(0.5, 20.0)
        th = rng.uniform(0.1, math.pi - 0.1)
        a = dsigma_leading(cfg, shifts, r, th)
        b = dsigma_double_sum(cfg, shifts, r, th)
        worst = max(worst, abs(a - b) / max(abs(a), abs(b), 1e-30))
    report(5, "Wronskian double sum vs current form", worst, 1e-9)


def test_criterion_06_asymptotic_limit():
    """dsigma_leading / |f|^2 inside [0.99, 1.01] at kr=1e3 and
    [0.999, 1.001] at kr=1e4; theta samples where |f|^2 is not near a zero
    (the relative band is unbounded at amplitude zeros for any finite r)."""
    rng = np.random.default_rng(RNG_SEED)
    worst3 = worst4 = 0.0
    checked = 0
    thetas_scan = np.linspace(0.05, math.pi - 0.05, 121)
    while checked < 40:
        n = int(rng.choice([2, 3, 4]))
        cfg = ScatterConfig(n=n, k=1.0)
        shifts = PhaseShiftSet.from_deltas(rng.uniform(-1, 1, size=3))
        f2s = np.array(
            [abs(f_theta_asymptotic(cfg, shifts, t).f) ** 2 for t in thetas_scan]
        )
        th = rng.uniform(0.2, math.pi - 0.2)
        f2 = abs(f_theta_asymptotic(cfg, shifts, th).f) ** 2
        if f2 < 0.2 * f2s.mean():
            continue
        checked += 1
        worst3 = max(worst3, abs(dsigma_leading(cfg, shifts, 1e3, th) / f2 - 1.0))
        worst4 = max(worst4, abs(dsigma_leading(cfg, shifts, 1e4, th) / f2 - 1.0))
    assert worst4 <= 1e-3, f"kr=1e4 band: {worst4}"
    report(6, "finite/asymptotic ratio bands", worst3, 1e-2,
           f"; kr=1e4 worst {worst4:.3e} vs 1e-3")


def test_criterion_07_total_cross_section():
    """Gauss quadrature of |f|^2 over the sphere measure vs the closed form."""
    rng = np.random.default_rng(RNG_SEED)
    worst = 0.0
    for n in (3, 4, 5):
        cfg = ScatterConfig(n=n, k=1.0)
        shifts = PhaseShiftSet.from_deltas(rng.uniform(-1, 1, size=6))  # L = 5
        f2 = lambda th: abs(f_theta_asymptotic(cfg, shifts, th).f) ** 2
        quad = angular_measure_integral(cfg, f2, shifts.lmax, nodes=200)
        closed = sigma_total_asymptotic(cfg, shifts)
        worst = max(worst, abs(quad - closed) / closed)
    report(7, "total cross section vs quadrature", worst, 1e-8)


def test_criterion_08_one_dimensional_identities():
    """T + R = 1 over 1000 random shift pairs; equal shifts transmit fully."""
    rng = np.random.default_rng(RNG_SEED)
    worst = 0.0
    for _ in range(1000):
        d0, d1 = rng.uniform(-3, 3, size=2)
        if math.sin(d0) ** 2 + math.sin(d1) ** 2 == 0.0:
            continue
        s = one_d_summary(PhaseShiftSet.from_deltas([d0, d1]))
        worst = max(worst, abs(s["T"] + s["R"] - 1.0))
        # independent recombination from the raw cross sections
        tot = s["sigma0"] + s["sigmapi"]
        worst = max(worst, abs(s["sigma0"] / tot + s["sigmapi"] / tot - 1.0))
        d = rng.uniform(0.05, 3.0)
        eq = one_d_summary(PhaseShiftSet.from_deltas([d, d]))
        worst = max(worst, abs(eq["T"] - 1.0), abs(eq["R"]))
    report(8, "1D transmissivity identities", worst, 1e-14)


def test_criterion_09_phase_shift_solvers():
    """Hard hypersphere: unwrapped delta0 = -ka on (0, 5]; Numerov route
    reproduces the analytic square well to 1e-6 for l <= 4."""
    a = 1.0
    kas = np.arange(0.01, 5.0001, 0.01)
    raw = [hard_sphere_shift(ScatterConfig(n=3, k=ka / a), a, 0).delta for ka in kas]
    worst_hard = float(np.max(np.abs(unwrap_shifts(raw) + kas)))
    assert worst_hard <= 1e-10, f"hard-sphere sweep: {worst_hard}"

    k, v0 = 1.0, -1.0
    cfg = ScatterConfig(n=3, k=k)
    spacing = 1e-4
    rt = np.arange(0.0, 1.2 * a + spacing, spacing)
    width = 4e-4
    vt = np.where(
        rt < a - width / 2, v0,
        np.where(rt > a + width / 2, 0.0, v0 * (a + width / 2 - rt) / width),
    )
    vt[-1] = 0.0
    pot = PotentialModel.tabulated(rt, vt)
    worst_ode = 0.0
    for l in range(5):
        analytic = square_well_shift(cfg, a, v0, l).delta
        numeric = ode_shift(cfg, pot, l, r_match=max(1.3 * a, (l + 0.5) / k)).delta
        diff = (numeric - analytic + math.pi / 2) % math.pi - math.pi / 2
        worst_ode = max(worst_ode, abs(diff))
    report(9, "phase-shift solvers", worst_ode, 1e-6,
           f"; hard-sphere sweep worst {worst_hard:.3e} vs 1e-10")


def test_criterion_10_unitarity_end_to_end():
    """|e^{2i delta_l}| stays 1 through solver, field modes, and the phase
    factors feeding the cross sections, for real potentials."""
    k, a, v0 = 1.0, 1.0, -1.3
    cfg = ScatterConfig(n=3, k=k)
    worst = 0.0
    results = [square_well_shift(cfg, a, v0, l) for l in range(5)]
    for m in results:
        worst = max(worst, m.c_over_d_residual)
    shifts = PhaseShiftSet.from_deltas([m.delta for m in results])
    for l in range(5):
        mode = radial_mode(cfg, shifts, l, 2.7)
        worst = max(worst, abs(abs(mode.Dl / mode.Cl) - 1.0))
    for f in shifts.phase_factors(4):
        worst = max(worst, abs(abs(f) - 1.0))
    # the cross section built from these inputs is real and nonnegative
    val = dsigma_double_sum(cfg, shifts, 7.0, 1.0)
    assert val >= 0.0
    report(10, "unitarity end to end", worst, 1e-10)
