"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion lines on passing runs too).

Two clauses are implemented exactly as specified and are expected to fail;
both trace to the same analytic fact and are documented in the repository
notes:

* A1 (energy bound): at beta = 1/2 -+ delta, xi = -1, the level sits at
  E = -+ 2(psi(1/2) + ln 2) delta = -+ 2.5407 delta exactly, so the bound
  |E| <= 1e-6 m at delta = 1e-6 is unattainable (the true magnitude is
  2.5407e-6 m).  The limit statement (E -> 0) and the wavefunction clause
  hold and are verified separately.
* A6 (derivative sign): the finite-difference sign of d ln|xi|/d(tau E) is
  strictly NEGATIVE, not positive: the boundary-value problem (and the
  weak-binding oracle referee run that fixes the orientation convention,
  demanding E near +m at small |xi| for tau = +1)
  forces d ln|xi|/d(tau E) = (2 nu tau E - m)/lambda^2 < 0.  Monotonicity and
  uniqueness, the substance of the criterion, hold and are verified
  separately.
"""

import math
import os
import subprocess
import sys

import pytest

from fluxbound import ab_spectrum as ab
from fluxbound import ac_spectrum as ac
from fluxbound import numkernel as nk
from fluxbound import oracle as orc
from fluxbound import printed as pr

import routes

EULER = 0.5772156649015328606
ZERO_MODE_SLOPE = 2.5407256909229563  # 2|psi(1/2) + ln 2| = 2 (Euler gamma + ln 2)


def report(name: str, ok: bool, detail: str) -> None:
    print(f"{name}: {'PASS' if ok else 'FAIL'} - {detail}")


def dirac(mu, l=0, s=-1, m=1.0):
    return ab.DiracChannel(m=m, l=l, s=s, mu=mu)


def xi(v):
    return ab.Extension.from_xi(v)


# ---------------------------------------------------------------------------
# A1 zero mode
# ---------------------------------------------------------------------------


def test_a1_zero_mode_energy_bound_as_printed():
    worst = 0.0
    for beta in (0.5 - 1e-6, 0.5 + 1e-6):
        level = ab.solve_bound_energy(dirac(beta), xi(-1.0))
        worst = max(worst, abs(level.E))
    ok = worst <= 1e-6
    report("A1 (energy bound as printed)", ok, f"max |E| = {worst:.6e} m at beta = 1/2 +- 1e-6")
    assert ok, (
        f"|E| = {worst:.6e} m exceeds the printed 1e-6 m bound: the level "
        f"vanishes linearly with slope 2|psi(1/2)+ln2| = {ZERO_MODE_SLOPE:.7f} "
        "per unit flux offset, so the bound is unattainable at the stated "
        "offset 1e-6 (see the module docstring for the analysis)"
    )


def test_a1_zero_mode_limit_and_wavefunction():
    # limit clause: E -> 0 linearly as beta -> 1/2, antisymmetric across it
    # per unit nu, not per nominal offset: beta = 1/2 - 1e-8 rounds to
    # nu = 9.9999999947e-9, 5e-10 relative off delta
    slopes = []
    for delta in (1e-6, 1e-7, 1e-8):
        ch = dirac(0.5 - delta)
        lo = ab.solve_bound_energy(ch, xi(-1.0)).E
        hi = ab.solve_bound_energy(dirac(0.5 + delta), xi(-1.0)).E
        assert lo == pytest.approx(-hi, abs=1e-12)
        slopes.append(abs(lo) / ch.nu)
    for slope in slopes:
        assert slope == pytest.approx(ZERO_MODE_SLOPE, rel=1e-10)
    assert abs(slopes[2] - ZERO_MODE_SLOPE) <= abs(slopes[0] - ZERO_MODE_SLOPE) + 1e-9

    # wavefunction clause at the limit channel: componentwise against
    # (1, s) sqrt(m r) K_{1/2}(m r), normalized; deviation is O(nu)
    ch = dirac(0.5 - 2e-9)
    level = ab.solve_bound_energy(ch, xi(-1.0))
    doublet = ab.bound_doublet(level)
    c_ref = math.sqrt(2.0 / math.pi)
    worst_component = 0.0
    for r in (0.05, 0.2, 0.8, 2.0, 5.0, 8.0):
        want = c_ref * math.sqrt(math.pi / 2.0) * math.exp(-r)
        f1, f2 = doublet(r)
        worst_component = max(
            worst_component, abs(f1 - want), abs(f2 - ch.s * want)
        )
    # magnitude comparison is quadratically insensitive to the flux offset:
    # check it at the printed beta = 1/2 - 1e-6 as well
    ch6 = dirac(0.5 - 1e-6)
    d6 = ab.bound_doublet(ab.solve_bound_energy(ch6, xi(-1.0)))
    worst_magnitude = 0.0
    for r in (0.05, 0.2, 0.8, 2.0, 5.0, 8.0):
        want = c_ref * math.sqrt(math.pi / 2.0) * math.exp(-r) * math.sqrt(2.0)
        f1, f2 = d6(r)
        worst_magnitude = max(worst_magnitude, abs(math.hypot(f1, f2) - want))
    ok = worst_component <= 1e-8 and worst_magnitude <= 1e-8
    report(
        "A1 (limit + wavefunction)",
        ok,
        f"slope = {slopes[0]:.7f}, worst component dev = {worst_component:.2e}, "
        f"worst magnitude dev = {worst_magnitude:.2e}",
    )
    assert ok


# ---------------------------------------------------------------------------
# A2 AC closed forms
# ---------------------------------------------------------------------------


def test_a2_ac_closed_forms():
    ch = ac.ACChannel(m=1.0, coupling=-0.5, l=0, zeta=1)
    closed = ac.ac_bound_energy(ch, xi(-1.0))
    err_closed = abs(closed.E_n + 0.5)
    solved = routes.ac_solve_cross_check(ch, xi(-1.0))
    err_solved = abs(solved.E_n + 0.5)
    ch0 = ac.ACChannel(m=1.0, coupling=-1.0, l=1, zeta=1)
    e0 = ac.ac_bound_energy(ch0, xi(-1.0)).E_n
    want0 = -4.0 * math.exp(2.0 * (-1.0 - EULER))
    err0 = abs(e0 - want0)
    ok = err_closed <= 1e-12 and err_solved <= 1e-9 and err0 <= 1e-12
    report(
        "A2",
        ok,
        f"gamma=1/2 closed {err_closed:.1e} (<=1e-12), root-found {err_solved:.1e} "
        f"(<=1e-9), gamma=0 {err0:.1e} (<=1e-12)",
    )
    assert ok


# ---------------------------------------------------------------------------
# A3 oracle equivalence
# ---------------------------------------------------------------------------

_SHOOT_CFG = orc.ShootingConfig(diagnostics=False)


def test_a3_oracle_equivalence():
    dirac_grid = [
        (beta, x) for beta in (0.1, 0.25, 0.4, 0.6, 0.85) for x in (-3.0, -1.0, -0.5, -0.2, -5.0)
    ]
    # gamma/xi product grid spanning order-m binding energies (deep
    # weak-coupling levels are checked at relative accuracy in test_oracle)
    ac_grid = [
        (g, x) for g in (0.25, 0.4, 0.55, 0.7, 0.85) for x in (-5.0, -3.0, -2.0, -1.2, -0.8)
    ]
    worst = {"dirac": 0.0, "ac": 0.0}
    for beta, x in dirac_grid:
        ch = dirac(beta)
        analytic = ab.solve_bound_energy(ch, xi(x)).E
        d = abs(orc.dirac_shoot(ch, xi(x), _SHOOT_CFG).E - analytic)
        worst["dirac"] = max(worst["dirac"], d)
    for g, x in ac_grid:
        ch = ac.ACChannel(m=1.0, coupling=-g, l=0, zeta=1)
        analytic = ac.ac_bound_energy(ch, xi(x)).E_n
        d = abs(orc.schrodinger_shoot(ch, xi(x), _SHOOT_CFG).E - analytic)
        worst["ac"] = max(worst["ac"], d)
    ok = worst["dirac"] <= 1e-6 and worst["ac"] <= 1e-6
    report(
        "A3",
        ok,
        "worst |E_oracle - E_analytic|/m: "
        + ", ".join(f"{k} {v:.2e}" for k, v in worst.items())
        + " (<=1e-6)",
    )
    assert ok


# ---------------------------------------------------------------------------
# A4 reflection symmetry
# ---------------------------------------------------------------------------


def test_a4_reflection_symmetry():
    worst = 0.0
    betas = [0.1 + 0.05 * i for i in range(8)]  # 0.10 ... 0.45
    for x in (-0.3, -1.0, -3.0):
        for beta in betas:
            e_lo = ab.solve_bound_energy(dirac(beta), xi(x)).E
            e_hi = ab.solve_bound_energy(dirac(1.0 - beta), xi(x)).E
            worst = max(worst, abs(e_lo + e_hi))
    ok = worst <= 1e-8
    report("A4", ok, f"max |E(beta) + E(1-beta)| = {worst:.2e} m (<=1e-8)")
    assert ok


# ---------------------------------------------------------------------------
# A5 flux periodicity
# ---------------------------------------------------------------------------


def test_a5_flux_periodicity():
    worst = 0.0
    for x in (-0.2, -0.7, -1.0, -2.5, -8.0):
        e1 = ab.solve_bound_energy(dirac(0.3, l=0), xi(x)).E
        e2 = ab.solve_bound_energy(dirac(1.3, l=-1), xi(x)).E
        worst = max(worst, abs(e1 - e2))
    ok = worst <= 1e-12
    report("A5", ok, f"max |E(l=0,mu=0.3) - E(l=-1,mu=1.3)| = {worst:.2e} m (<=1e-12)")
    assert ok


# ---------------------------------------------------------------------------
# A6 monotonicity / uniqueness
# ---------------------------------------------------------------------------

_A6_CHANNELS = (0.1, 0.25, 0.4, 0.6, 0.85)


def _a6_fd_signs():
    """Finite-difference signs of d ln|xi| / d(tau E) per channel grid."""
    out = {}
    for beta in _A6_CHANNELS:
        ch = dirac(beta)
        tau = ch.tau
        us = [-0.98 + 1.96 * i / 99.0 for i in range(100)]
        vals = [ab.log_abs_master_xi(ch, tau * u) for u in us]
        diffs = [vals[i + 1] - vals[i] for i in range(99)]
        out[beta] = diffs
    return out


def test_a6_monotonicity_uniqueness():
    signs_ok = True
    for beta, diffs in _a6_fd_signs().items():
        one_signed = all(d < 0.0 for d in diffs) or all(d > 0.0 for d in diffs)
        signs_ok = signs_ok and one_signed and all(d < 0.0 for d in diffs)
    counts = [
        routes.count_dirac_levels(dirac(beta), xi(x))
        for beta, x in ((0.25, -1.0), (0.4, -0.3), (0.6, -2.0), (0.85, -1.0))
    ]
    unique = all(c == 1 for c in counts)
    ok = signs_ok and unique
    report(
        "A6 (monotonicity + uniqueness)",
        ok,
        f"d ln|xi|/d(tau E) strictly one-signed (negative, referee orientation) "
        f"on 100-point grids for beta in {_A6_CHANNELS}; oracle level counts {counts}",
    )
    assert ok


def test_a6_derivative_sign_as_printed():
    positive_everywhere = all(
        d > 0.0 for diffs in _a6_fd_signs().values() for d in diffs
    )
    report(
        "A6 (positive sign as printed)",
        positive_everywhere,
        "printed positive-sign clause; the referee-fixed orientation makes the "
        "derivative negative (see the module docstring for the analysis)",
    )
    assert positive_everywhere, (
        "d ln|xi|/d(tau E) is strictly negative, not positive: the printed sign "
        "contradicts the weak-binding oracle referee anchor (E near +m at "
        "xi = -0.05, tau = +1) and the E -> tau m limit as xi -> 0^-, both of "
        "which this build satisfies (see the module docstring for the analysis)"
    )


# ---------------------------------------------------------------------------
# A7 special-function suite
# ---------------------------------------------------------------------------


def test_a7_special_functions(semiline_integral):
    worst_reflection = 0.0
    for i in range(1, 100):
        x = i / 100.0
        val = nk.gamma_fn(x) * nk.gamma_fn(1.0 - x) * math.sin(math.pi * x) / math.pi
        worst_reflection = max(worst_reflection, abs(val - 1.0))
    worst_rec_j = worst_rec_k = 0.0
    for a in (-2.0, -1.2, -0.4, 0.3, 1.1, 2.0):
        for z in (0.01, 0.1, 1.0, 8.0, 25.0, 50.0):
            jm, jc, jp = (nk.bessel_j(a + d, z) for d in (-1.0, 0.0, 1.0))
            mt = max(abs(jm), abs(jp), abs(2 * a / z * jc), 1e-30)
            worst_rec_j = max(worst_rec_j, abs(jm + jp - 2 * a / z * jc) / mt)
            km, kc, kp = (nk.bessel_k(a + d, z) for d in (-1.0, 0.0, 1.0))
            mt = max(abs(km), abs(kp), abs(2 * a / z * kc))
            worst_rec_k = max(worst_rec_k, abs(kp - km - 2 * a / z * kc) / mt)
    closed = [
        abs(nk.gamma_fn(0.5) - math.sqrt(math.pi)) / math.sqrt(math.pi),
        abs(nk.bessel_j(0.5, 2.0) - math.sqrt(1.0 / math.pi) * math.sin(2.0))
        / abs(math.sqrt(1.0 / math.pi) * math.sin(2.0)),
        abs(
            nk.bessel_k(0.5, 2.0) - math.sqrt(math.pi / 4.0) * math.exp(-2.0)
        )
        / (math.sqrt(math.pi / 4.0) * math.exp(-2.0)),
    ]
    quad_err = abs(semiline_integral(lambda r: r * nk.bessel_k(0.0, r) ** 2) - 0.5)
    ok = (
        worst_reflection <= 1e-10
        and worst_rec_j <= 1e-9
        and worst_rec_k <= 1e-9
        and max(closed) <= 1e-10
        and quad_err <= 1e-9
    )
    report(
        "A7",
        ok,
        f"reflection {worst_reflection:.1e} (<=1e-10), J-rec {worst_rec_j:.1e}, "
        f"K-rec {worst_rec_k:.1e} (<=1e-9), closed forms {max(closed):.1e}, "
        f"int r K0^2 err {quad_err:.1e} (<=1e-9)",
    )
    assert ok


# ---------------------------------------------------------------------------
# A8 boundary-condition round trip
# ---------------------------------------------------------------------------


def test_a8_boundary_round_trip():
    worst_dirac = 0.0
    for beta, x in ((0.1, -0.3), (0.25, -1.0), (0.4, -2.0), (0.6, -1.0), (0.85, -0.5)):
        ch = dirac(beta)
        level = ab.solve_bound_energy(ch, xi(x))
        fitted = routes.fit_boundary_xi(ab.bound_doublet(level), ch)
        worst_dirac = max(worst_dirac, abs(fitted - x) / abs(x))
    worst_ac = 0.0
    for g, x in ((0.15, -0.3), (0.3, -1.0), (0.5, -1.0), (0.75, -2.0), (0.9, -0.5)):
        ch = ac.ACChannel(m=1.0, coupling=-g, l=0, zeta=1)
        level = ac.ac_bound_energy(ch, xi(x))
        fitted = routes.fit_ac_boundary_xi(ac.ac_wavefunction(level), ch, level.kappa)
        worst_ac = max(worst_ac, abs(fitted - x) / abs(x))
    ok = worst_dirac <= 1e-8 and worst_ac <= 1e-8
    report(
        "A8",
        ok,
        f"worst relative xi round-trip: Dirac {worst_dirac:.2e}, AC {worst_ac:.2e} (<=1e-8)",
    )
    assert ok


# ---------------------------------------------------------------------------
# A9 spectral density
# ---------------------------------------------------------------------------


def test_a9_spectral_density():
    ch = dirac(0.25)
    ok = True
    min_density = math.inf
    min_omega = math.inf
    worst_ratio = 0.0
    k_lo = math.sqrt(1.001**2 - 1.0)
    k_hi = math.sqrt(100.0 - 1.0)
    for x in (-3.0, -1.0, 0.0):
        ext = xi(x)
        for i in range(200):
            e = 1.001 + (10.0 - 1.001) * i / 199.0
            min_omega = min(min_omega, abs(pr.omega_xi_continued(ch, ext, e)))
            min_density = min(min_density, pr.spectral_density(ch, ext, e))

        # continuity via grid-scan refinement: the density is smooth in ln k
        # up to its integrable edge divergence, so the largest log-jump on a
        # log-k grid halves when the grid is doubled
        def max_log_jump(n):
            ks = [k_lo * (k_hi / k_lo) ** (i / (n - 1)) for i in range(n)]
            ds = [
                pr.spectral_density(ch, ext, math.sqrt(1.0 + k * k))
                for k in ks
            ]
            return max(
                abs(math.log(ds[i + 1]) - math.log(ds[i])) for i in range(n - 1)
            )

        jump_coarse = max_log_jump(200)
        jump_fine = max_log_jump(400)
        ok = ok and jump_coarse < 0.1 and jump_fine <= 0.6 * jump_coarse
        worst_ratio = max(worst_ratio, jump_fine / jump_coarse)
    ok = ok and min_omega > 0.0 and min_density >= 0.0
    report(
        "A9",
        ok,
        f"min |omega_xi(E+i0)| = {min_omega:.3e} (>0), min density = {min_density:.3e} "
        f"(>=0), max log-jump refinement ratio {worst_ratio:.2f} (<=0.6)",
    )
    assert ok


# ---------------------------------------------------------------------------
# A10 determinism
# ---------------------------------------------------------------------------


def test_a10_cli_determinism():
    args = [
        sys.executable,
        "-m",
        "fluxbound",
        "ab-sweep",
        "--beta-grid",
        "0.1:0.9:9",
        "--xi",
        "-1",
    ]
    env = dict(os.environ)
    procs = [subprocess.run(args, capture_output=True, env=env) for _ in range(2)]
    # two failed runs print the same empty stdout: only successful runs count
    ok = all(p.returncode == 0 and p.stdout for p in procs) and procs[0].stdout == procs[1].stdout
    report("A10", ok, "repeated CLI sweep byte-identical")
    assert ok
