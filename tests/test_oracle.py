"""Shooting-oracle tests: agreement with closed forms and analytic levels.

The oracle is the referee for the master-equation energy-sign convention: the
weak-binding run at (l=0, s=-1, mu=0.25, xi=-0.05) must land near E = +m.
That measurement fixed the orientation once and is frozen here as a
regression test.
"""

import math
from dataclasses import astuple, replace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import routes
from fluxbound import ab_spectrum as ab
from fluxbound import ac_spectrum as ac
from fluxbound import numkernel as nk
from fluxbound import oracle as orc

E_GOLDEN = -0.56600199969254444
E_REFEREE = 0.9990435200046799

FAST = orc.ShootingConfig(diagnostics=False)
DX = FAST.numerov_dx


def closed_form(p, mix, cfg=FAST):
    """The closed-form mismatch at cfg's step."""
    return orc._mismatch(p, mix, cfg)


def per_energy_miss(g, k, template, cfg=FAST):
    """The mismatch of the full template, r -> r^(-1/2) u(r), integrated
    outward at its own k by the reference route: the route a shoot took at
    each energy before the closed form.  The route sweeps it in both of its
    slots, which must agree bit for bit."""
    miss, twin = routes.numerov_miss(g, k, lambda r: (template(r),) * 2, cfg.numerov_dx)
    assert miss == twin
    return miss


def s_of_u(u):
    """The Dirac scan variable s = ln((1 - u)/(1 + u)) of u = tau*E/m."""
    return math.log((1.0 - u) / (1.0 + u))


def level_s(level):
    """s of an analytic level, from lambda where u rounds toward -+1:
    1 -+ u = lambda^2/(1 +- u) at m = 1."""
    u = level.channel.tau * level.E
    if u >= 0.0:
        return 2.0 * math.log(level.lam / (1.0 + u))
    return 2.0 * math.log((1.0 - u) / level.lam)


def ac_template(gamma, xi):
    """(p, mix) of the neutral fermion's domain template
    f ~ (m r)^gamma + xi (m r)^(-gamma) over y = ln(-E/m), kappa = sqrt(2 e^y)."""
    return gamma, lambda y: (math.sqrt(2.0 * math.exp(y)), 1.0, xi)


def record_line_solves(monkeypatch):
    """The ((a, b, t), x) of every kernel solve_line call, as they run."""
    calls = []
    original = nk.solve_line

    def recorded(a, b, t):
        calls.append(((a, b, t), original(a, b, t)))
        return calls[-1][1]

    monkeypatch.setattr(nk, "solve_line", recorded)
    return calls


def dirac_channel(mu, l=0, s=-1):
    return ab.DiracChannel(m=1.0, l=l, s=s, mu=mu)


def ac_channel(gamma):
    return ac.ACChannel(m=1.0, coupling=-gamma, l=0, zeta=1)


class TestSchrodingerShoot:
    def test_half_gamma_closed_form(self):
        res = orc.schrodinger_shoot(ac_channel(0.5), ab.Extension.from_xi(-1.0))
        assert res.E == pytest.approx(-0.5, abs=1e-6)
        assert res.match_residual < 1e-8
        assert res.r_min_sensitivity < 1e-7

    def test_gamma_03_xi_m2(self):
        ch = ac_channel(0.3)
        ext = ab.Extension.from_xi(-2.0)
        analytic = ac.ac_bound_energy(ch, ext).E_n
        res = orc.schrodinger_shoot(ch, ext, FAST)
        assert res.E == pytest.approx(analytic, abs=1e-6)

    def test_none_for_nonbinding_extension(self):
        assert orc.schrodinger_shoot(ac_channel(0.5), ab.Extension.from_xi(0.4)) is None
        assert orc.schrodinger_shoot(ac_channel(0.5), ab.Extension.from_xi(math.inf)) is None

    def test_regular_regime_rejected(self):
        with pytest.raises(ab.RegimeError):
            orc.schrodinger_shoot(ac_channel(1.3), ab.Extension.from_xi(-1.0))

    def test_deep_and_shallow_levels(self):
        for gamma, xi in ((0.15, -3.0), (0.75, -0.3)):
            ch = ac_channel(gamma)
            ext = ab.Extension.from_xi(xi)
            analytic = ac.ac_bound_energy(ch, ext).E_n
            res = orc.schrodinger_shoot(ch, ext, FAST)
            assert res.E == pytest.approx(analytic, abs=1e-6 * max(1.0, abs(analytic)))


class TestDiracShoot:
    def test_golden_channel(self):
        res = orc.dirac_shoot(dirac_channel(0.25), ab.Extension.from_xi(-1.0), FAST)
        assert res.E == pytest.approx(E_GOLDEN, abs=1e-6)

    def test_referee_orientation_frozen(self):
        # weak extension coupling, tau = +1: level hugs the upper continuum
        res = orc.dirac_shoot(dirac_channel(0.25), ab.Extension.from_xi(-0.05), FAST)
        assert res.E > 0.99
        assert res.E == pytest.approx(E_REFEREE, abs=1e-7)

    def test_zero_mode_bracketing(self):
        # levels at beta = 1/2 -+ delta straddle zero; |E| = 2.5407 delta
        e_lo = orc.dirac_shoot(dirac_channel(0.4999), ab.Extension.from_xi(-1.0), FAST).E
        e_hi = orc.dirac_shoot(dirac_channel(0.5001), ab.Extension.from_xi(-1.0), FAST).E
        assert e_lo < 0.0 < e_hi
        assert abs(e_lo) <= 3e-4
        assert abs(e_hi) <= 3e-4
        assert e_lo == pytest.approx(-e_hi, abs=1e-7)

    def test_none_for_nonbinding_extension(self):
        assert orc.dirac_shoot(dirac_channel(0.25), ab.Extension.from_xi(1.0)) is None
        assert orc.dirac_shoot(dirac_channel(0.25), ab.Extension.from_xi(math.inf)) is None

    def test_integer_flux_has_no_extension(self):
        # integer flux makes nu half-integer: outside the extension family
        with pytest.raises(ab.RegimeError):
            orc.dirac_shoot(dirac_channel(0.0), ab.Extension.from_xi(-1.0))

    def test_diagnostics_populated(self):
        res = orc.dirac_shoot(dirac_channel(0.3), ab.Extension.from_xi(-0.8))
        assert res.match_residual < 1e-8
        assert res.r_min_sensitivity < 1e-7
        assert res.convergence_order_estimate >= 1.5

    def test_r_min_insensitivity(self):
        # no inner cutoff is left to halve: every grid is seeded at z = 2
        # whatever the energy, so the sensitivity reads exactly 0
        for shoot, ch in (
            (orc.dirac_shoot, dirac_channel(0.25)),
            (orc.schrodinger_shoot, ac_channel(0.4)),
        ):
            res = shoot(ch, ab.Extension.from_xi(-1.0))
            assert res.r_min_sensitivity < 10.0 * res.match_residual
            assert res.r_min_sensitivity == 0.0

    @pytest.mark.parametrize(
        "l, s, mu, tau",
        [
            (-1, 1, 0.25, -1),
            (-1, 1, 0.75, 1),
            (0, 1, -0.25, 1),
            (0, 1, -0.75, -1),
            (1, -1, -0.25, -1),
            (1, -1, -0.75, 1),
        ],
    )
    def test_every_channel_family(self, l, s, mu, tau):
        # each (l, s) family with both tau; the f1 equation's index is
        # |l + mu|, which differs from |nu_tilde - 1/2| when s = -1
        ch = dirac_channel(mu, l=l, s=s)
        assert ch.tau == tau
        ext = ab.Extension.from_xi(-1.0)
        res = orc.dirac_shoot(ch, ext, FAST)
        assert abs(res.E - ab.solve_bound_energy(ch, ext).E) <= 1e-7

    def test_uniqueness_scan(self):
        for mu, xi in ((0.25, -1.0), (0.4, -0.3), (0.7, -2.0)):
            n = orc.count_dirac_levels(
                dirac_channel(mu), ab.Extension.from_xi(xi), FAST
            )
            assert n == 1


class TestConvergenceStudy:
    """The shoot at three halving steps: Richardson's observed order and
    extrapolated level from successive differences."""

    def ladder(self, shoot, ch, base_dx=0.04):
        ext = ab.Extension.from_xi(-1.0)
        energies = [
            shoot(ch, ext, orc.ShootingConfig(numerov_dx=base_dx / 2**k, diagnostics=False)).E
            for k in range(3)
        ]
        d1, d2 = energies[1] - energies[0], energies[2] - energies[1]
        order = math.log2(abs(d1) / abs(d2))
        return energies[2] + d2 / (2.0**order - 1.0), order, abs(d2) <= abs(d1)

    def test_ac_half_gamma_ladder(self):
        extrapolated, order, monotone = self.ladder(orc.schrodinger_shoot, ac_channel(0.5))
        assert extrapolated == pytest.approx(-0.5, abs=1e-8)
        assert order >= 1.5
        assert monotone

    def test_dirac_zero_mode_ladder(self):
        extrapolated, _, _ = self.ladder(orc.dirac_shoot, dirac_channel(0.5 - 1e-8))
        assert abs(extrapolated) <= 1e-6


class TestDeepLevelRelativeAccuracy:
    def test_weak_coupling_deep_level(self):
        # small gamma and weak |xi| push the level to thousands of m; the
        # oracle tracks it at relative accuracy (the root lives in ln(-E))
        ch = ac_channel(0.15)
        ext = ab.Extension.from_xi(-0.3)
        analytic = ac.ac_bound_energy(ch, ext).E_n
        res = orc.schrodinger_shoot(ch, ext, FAST)
        assert abs(analytic) > 1e3
        assert res.E == pytest.approx(analytic, rel=1e-7)

    def test_direct_series_seed_branch(self):
        # the deep level's grid starts at r = 2/kappa, about 0.0325 here,
        # seeded from the summed template series; integrated per energy from
        # that seed, the full template's mismatch changes sign across the
        # analytic level within 1e-8 of it, and the shoot lands there too
        ch = ac_channel(0.15)
        ext = ab.Extension.from_xi(-0.3)
        analytic = ac.ac_bound_energy(ch, ext).E_n
        gamma, xi_int = ch.gamma, -ext.xi

        def direct_miss(E):
            kappa = math.sqrt(-2.0 * E)

            def seed(r):
                z2 = (kappa * r) ** 2
                frob = nk.frobenius_factor
                return r**gamma * frob(gamma, z2) - xi_int * r**-gamma * frob(-gamma, z2)

            return per_energy_miss(gamma, kappa, seed)

        assert orc._SEED_Z / math.sqrt(-2.0 * analytic) < 0.035
        below, above = direct_miss(analytic * (1.0 + 1e-8)), direct_miss(analytic * (1.0 - 1e-8))
        assert below * above < 0.0
        res = orc.schrodinger_shoot(ch, ext, orc.ShootingConfig(diagnostics=False))
        assert res.E == pytest.approx(analytic, rel=1e-8)


class TestSmoothMismatch:
    """The mismatch is the growing-mode coefficient times a smooth scale."""

    DELTA = 1e-6

    @pytest.mark.parametrize("mu, xi", [(0.1, -3.0), (0.4, -0.5), (0.85, -0.2)])
    def test_dirac_mismatch_linear_at_root(self, mu, xi):
        ch = dirac_channel(mu)
        e_star = ab.solve_bound_energy(ch, ab.Extension.from_xi(xi)).E
        miss_s = closed_form(*orc._dirac_template(ch, ch.s * xi))

        def miss(E):
            return miss_s(s_of_u(ch.tau * E))

        ratio = miss(e_star + self.DELTA) / miss(e_star + 2.0 * self.DELTA)
        assert 0.4 <= ratio <= 0.6

    @pytest.mark.parametrize("gamma, xi", [(0.25, -5.0), (0.55, -1.2), (0.85, -0.8)])
    def test_ac_mismatch_linear_at_root(self, gamma, xi):
        e_star = ac.ac_bound_energy(ac_channel(gamma), ab.Extension.from_xi(xi)).E_n
        miss_y = closed_form(*ac_template(gamma, xi))

        def miss(E):
            return miss_y(math.log(-E))

        ratio = miss(e_star + self.DELTA) / miss(e_star + 2.0 * self.DELTA)
        assert 0.4 <= ratio <= 0.6

    def test_golden_shoot_evaluation_count(self, monkeypatch):
        # evaluations counts the Numerov solutions integrated: a solve sweeps
        # one, the decaying asymptote, so the base solve and each diagnostic
        # probe make 1, and so does a level count
        calls = []
        original = orc._numerov_in

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(orc, "_numerov_in", counted)
        ext = ab.Extension.from_xi(-1.0)
        assert orc.count_dirac_levels(dirac_channel(0.25), ext, FAST) == 1
        assert len(calls) == 1
        for shoot, ch in (
            (orc.dirac_shoot, dirac_channel(0.25)),
            (orc.schrodinger_shoot, ac_channel(0.5)),
        ):
            for cfg, want in ((FAST, 1), (orc.ShootingConfig(), 3)):
                calls.clear()
                assert shoot(ch, ext, cfg).evaluations == len(calls) == want


def template_f1(ch, xi_int, r, E):
    """f1 of the Dirac domain template at r, each branch continued by its
    Frobenius factor: the seed a shoot integrated at each energy before the
    closed form.  The pair is built in u = tau*E with the r^(+nu) carrying
    component first; for tau = -1, f1 is the companion component."""
    frob = nk.frobenius_factor
    nu, s, u = ch.nu, ch.s, ch.tau * E
    z2 = (1.0 - E) * (1.0 + E) * r * r
    reg = (
        r**nu * frob(nu - 0.5, z2),
        (u - 1.0) / (s * (2.0 * nu + 1.0)) * r ** (nu + 1.0) * frob(nu + 0.5, z2),
    )
    irr = (
        (u + 1.0) / (s * (2.0 * nu - 1.0)) * r ** (1.0 - nu) * frob(0.5 - nu, z2),
        r ** (-nu) * frob(-nu - 0.5, z2),
    )
    return reg[0] - xi_int * irr[0] if ch.tau == 1 else reg[1] - xi_int * irr[1]


class TestClosedForm:
    """The mismatch a solve brackets is a closed-form mix of two branch
    integrations at k = 1.  In z = k*r the grid and the equation hold no
    energy, and Numerov is linear, so at every energy it must equal the
    mismatch of the full template integrated at that energy's k, both at
    the base step and at the coarsest diagnostic rung, 4 times that step."""

    CONFIGS = (FAST, replace(FAST, numerov_dx=4 * FAST.numerov_dx))
    # u = tau*E/m between the doubles next to -+1
    GAP = (math.nextafter(-1.0, 0.0), math.nextafter(1.0, 0.0))

    @pytest.mark.parametrize(
        "l, s, mu",
        [(-1, 1, 0.25), (-1, 1, 0.75), (0, 1, -0.25), (0, 1, -0.75), (1, -1, -0.25), (1, -1, -0.75)],
    )
    @pytest.mark.parametrize("cfg", CONFIGS, ids=["default", "coarsest-rung"])
    def test_dirac_mix_is_the_per_energy_integration(self, l, s, mu, cfg):
        ch = dirac_channel(mu, l=l, s=s)
        xi_int = ch.s * -1.0
        miss = closed_form(*orc._dirac_template(ch, xi_int), cfg)
        for u in nk.linear_grid(*self.GAP, 8):
            E = ch.tau * u
            lam = math.sqrt((1.0 - E) * (1.0 + E))

            def seed(r):
                return template_f1(ch, xi_int, r, E) / math.sqrt(r)

            want = per_energy_miss(abs(l + mu), lam, seed, cfg)
            assert miss(s_of_u(u)) == pytest.approx(want, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("gamma", [0.15, 0.5, 0.85])
    @pytest.mark.parametrize("cfg", CONFIGS, ids=["default", "coarsest-rung"])
    def test_ac_mix_is_the_per_energy_integration(self, gamma, cfg):
        miss = closed_form(*ac_template(gamma, -1.0), cfg)
        for y in nk.linear_grid(math.log(1e-8), math.log(1e6), 8):
            kappa = math.sqrt(2.0 * math.exp(y))

            def seed(r):
                z2 = (kappa * r) ** 2
                frob = nk.frobenius_factor
                return r**gamma * frob(gamma, z2) - r**-gamma * frob(-gamma, z2)

            want = per_energy_miss(gamma, kappa, seed, cfg)
            assert miss(y) == pytest.approx(want, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("p", [-0.75, -0.25, 0.15, 0.5, 0.85])
    def test_connection_ratio_is_the_gamma_one(self, p):
        # the branches z^(+-p) F grow as 2^(+-p) Gamma(1 +- p) e^z / sqrt(2 pi z),
        # so M_irr / M_reg is the analytic route's Gamma ratio, to Numerov's
        # truncation error (below 7e-9 at the default step)
        m_reg, m_irr = orc._branch_pair(p, DX)
        gamma_ratio = 2.0 ** (-2.0 * p) * math.gamma(1.0 - p) / math.gamma(1.0 + p)
        assert m_irr / m_reg == pytest.approx(gamma_ratio, rel=1e-7)


class TestConnectionRatioEnvelope:
    """The oracle's one numerical result is the connection ratio
    R = M_irr/M_reg of the branch pair, and both sectors' errors are its
    error: |p| = |l + mu| for Dirac and gamma for the neutral fermion.
    Against R_exact = 2^(-2p) Gamma(1-p)/Gamma(1+p) (mpmath's Gamma), over
    p = +-0.01 ... +-0.99, the worst |R/R_exact - 1| reads 6.83e-9 at
    |p| = 0.77 for numerov_dx = 0.1 and 4.64e-10 at 0.05.  The branch pair at
    -p is the one at p swapped, so R(-p) = 1/R(p) and the two signs carry
    opposite errors of one size."""

    ENVELOPE = {0.1: 7e-9, 0.05: 5e-10}

    @staticmethod
    def relative_errors(dx):
        import mpmath

        errs = {}
        with mpmath.workdps(30):
            for k in range(1, 100):
                for p in (k / 100.0, -k / 100.0):
                    m_reg, m_irr = orc._branch_pair(p, dx)
                    q = mpmath.mpf(p)
                    exact = 2 ** (-2 * q) * mpmath.gamma(1 - q) / mpmath.gamma(1 + q)
                    errs[p] = float(mpmath.mpf(m_irr) / m_reg / exact - 1)
        return errs

    @pytest.mark.parametrize("dx", sorted(ENVELOPE))
    def test_ratio_within_its_envelope(self, dx):
        errs = self.relative_errors(dx)
        worst = max(errs, key=lambda p: abs(errs[p]))
        assert abs(errs[worst]) <= self.ENVELOPE[dx], (worst, errs[worst])
        assert 0.7 <= abs(worst) <= 0.85
        for k in range(1, 100):
            assert abs(errs[k / 100.0] + errs[-k / 100.0]) <= 1e-15

    @pytest.mark.parametrize("xi", [-5.0, -1.0, -0.2])
    def test_level_error_is_the_ratio_error_over_the_slope(self, xi):
        # a level's error is R's over the slope of ln|rho| in the scan
        # variable: dE/E = dR/(gamma R) for the neutral fermion, and
        # dE = sech^2(s/2)/2 dR/(R (a + b sigma(s))) for Dirac
        import mpmath

        def ratio_error(p):
            m_reg, m_irr = orc._branch_pair(p, DX)
            q = mpmath.mpf(p)
            exact = 2 ** (-2 * q) * mpmath.gamma(1 - q) / mpmath.gamma(1 + q)
            return float(mpmath.mpf(m_irr) / m_reg / exact - 1)

        ext = ab.Extension.from_xi(xi)
        for mu in (0.1, 0.25, 0.4, 0.6, 0.85):
            ch = dirac_channel(mu)
            p, (a, b, _) = orc._dirac_line(ch, xi)
            want = ab.solve_bound_energy(ch, ext).E
            u = ch.tau * want
            sigma = (1.0 - u) / 2.0  # the logistic of s = ln((1 - u)/(1 + u))
            predicted = -ch.tau * 0.5 * (1.0 - u * u) * ratio_error(p) / (a + b * sigma)
            got = orc.dirac_shoot(ch, ext, FAST).E - want
            assert got == pytest.approx(predicted, rel=1e-3)
        for gamma in (0.25, 0.4, 0.55, 0.7, 0.85):
            ch = ac_channel(gamma)
            want = ac.ac_bound_energy(ch, ext).E_n
            predicted = -want * ratio_error(gamma) / gamma
            got = orc.schrodinger_shoot(ch, ext, FAST).E - want
            assert got == pytest.approx(predicted, rel=1e-3)


class TestFrobeniusFactor:
    """The template's series factor is 0F1(; 1 + a; z^2/4) summed in full,
    by the kernel's ``frobenius_factor``: the oracle seeds its tail grid from
    it at z = 2, and the AC boundary fit takes its basis from it."""

    @pytest.mark.parametrize("a", [-0.999, -0.75, -0.25, 0.15, 0.85])
    @pytest.mark.parametrize("z", [0.05, 0.5, 2.0, 8.0])
    def test_matches_hyp0f1(self, a, z):
        import mpmath

        want = float(mpmath.hyp0f1(1 + mpmath.mpf(a), mpmath.mpf(z * z) / 4))
        assert nk.frobenius_factor(a, z * z) == pytest.approx(want, rel=1e-14, abs=0.0)


class TestRenormalization:
    """Shoots whose tail grows the solution past 1e250: nothing is
    renormalized, and a tail to z = 600 (growth e^598, about 1e260) stays in
    floating-point range and gives the golden levels."""

    TAIL_Z = 600.0

    def test_dirac_long_tail(self, monkeypatch):
        monkeypatch.setattr(orc, "_TAIL_Z", self.TAIL_Z)
        res = orc.dirac_shoot(dirac_channel(0.25), ab.Extension.from_xi(-1.0), FAST)
        assert res.E == pytest.approx(E_GOLDEN, abs=1e-6)

    def test_ac_long_tail(self, monkeypatch):
        monkeypatch.setattr(orc, "_TAIL_Z", self.TAIL_Z)
        res = orc.schrodinger_shoot(ac_channel(0.5), ab.Extension.from_xi(-1.0), FAST)
        assert res.E == pytest.approx(-0.5, abs=1e-6)


class TestIndependence:
    """The oracle reaches its levels from the ODE and its Frobenius template
    alone.  The template's series lives in the kernel, beside the Gamma and
    Bessel functions, and the oracle calls no level formula, bound profile,
    Gamma ratio or Bessel function."""

    def test_shoots_without_the_analytic_route(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the oracle called the analytic route")

        for module, name in (
            (ab, "solve_bound_energy"),
            (ab, "master_xi_of_energy"),
            (ab, "bound_doublet"),
            (ac, "ac_bound_energy"),
            (ac, "ac_wavefunction"),
            (nk, "bessel_k"),
            (nk, "bessel_j"),
            (nk, "gamma_fn"),
            (nk, "log_gamma_ratio"),
            (ab, "_log_gamma_ratio"),
            (ab, "log_abs_master_xi"),
        ):
            monkeypatch.setattr(module, name, forbidden)
        ext = ab.Extension.from_xi(-1.0)
        cfg = orc.ShootingConfig()
        res = orc.dirac_shoot(dirac_channel(0.25), ext, cfg)
        assert res.E == pytest.approx(E_GOLDEN, abs=1e-6)
        assert math.isfinite(res.convergence_order_estimate)
        res = orc.schrodinger_shoot(ac_channel(0.5), ext, cfg)
        assert res.E == pytest.approx(-0.5, abs=1e-6)
        assert math.isfinite(res.convergence_order_estimate)


class TestGoldenShoots:
    """Every OracleResult field of the golden AB (l=0, s=-1, mu=0.25) and AC
    (gamma=0.5) shoots at xi=-1, with diagnostics off and on."""

    NAN = math.nan
    # E, match_residual, convergence_order_estimate, r_min_sensitivity,
    # evaluations, numerov_steps
    CASES = {
        "ab-off": (-0.5660019994849285, 3.3982086828953154e-16, NAN, NAN, 1, 100),
        "ac-off": (-0.4999999965544726, 4.999999965544726e-16, NAN, NAN, 1, 100),
        "ab-on": (-0.5660019994849285, 3.3982086828953154e-16, 4.2736984253752635, 0.0, 3, 175),
        "ac-on": (-0.4999999965544726, 4.999999965544726e-16, 3.662563499920925, 0.0, 3, 175),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_golden_shoot(self, case):
        sector, diag = case.split("-")
        cfg = orc.ShootingConfig(diagnostics=diag == "on")
        ext = ab.Extension.from_xi(-1.0)
        if sector == "ab":
            res = orc.dirac_shoot(dirac_channel(0.25), ext, cfg)
        else:
            res = orc.schrodinger_shoot(ac_channel(0.5), ext, cfg)
        *floats, evaluations, numerov_steps = self.CASES[case]
        got = (res.E, res.match_residual, res.convergence_order_estimate, res.r_min_sensitivity)
        for value, want in zip(got, floats):
            if math.isnan(want):
                assert math.isnan(value)
            else:
                assert value == pytest.approx(want, rel=1e-12, abs=0.0)
        # one integrated solution per solve: the base solve and, with
        # diagnostics on, the two ladder probes; each is one sweep of 100
        # steps at the base step, and 50 and 25 at the probes'
        assert res.evaluations == evaluations
        assert res.numerov_steps == numerov_steps

    @pytest.mark.parametrize("sector", ["ab", "ac"])
    def test_tail_length_does_not_move_the_level(self, monkeypatch, sector):
        # an error in the asymptote's tail values reaches the growing-mode
        # coefficient damped by exp(-2z) on its inward sweep, so a tail 10
        # decay lengths long gives the level of one 38 long; a shorter one
        # moves the Dirac level by 1.5e-12 at _TAIL_Z = 8 and by 3.5e-9 at 5
        ext = ab.Extension.from_xi(-1.0)

        def shoot():
            if sector == "ab":
                return orc.dirac_shoot(dirac_channel(0.25), ext, FAST).E
            return orc.schrodinger_shoot(ac_channel(0.5), ext, FAST).E

        e12 = shoot()
        monkeypatch.setattr(orc, "_TAIL_Z", 40.0)
        assert shoot() == pytest.approx(e12, rel=0.0, abs=1e-12)


class TestCoarseningLadder:
    """The diagnostic ladder probes at 2 and 4 times the base step: its
    error estimate tracks the true error, and its probes cost less than the
    base solve."""

    # the A3 default grids: (mu, xi) for Dirac, (gamma, xi) for AC
    DIRAC_GRID = [
        (b, x) for b in (0.1, 0.25, 0.4, 0.6, 0.85) for x in (-3.0, -1.0, -0.5, -0.2, -5.0)
    ]
    AC_GRID = [
        (g, x) for g in (0.25, 0.4, 0.55, 0.7, 0.85) for x in (-5.0, -3.0, -2.0, -1.2, -0.8)
    ]

    def test_error_estimate_tracks_the_true_error(self):
        cfg = orc.ShootingConfig()
        ratios = []
        for mu, xi in self.DIRAC_GRID:
            ch, ext = dirac_channel(mu), ab.Extension.from_xi(xi)
            res = orc.dirac_shoot(ch, ext, cfg)
            ratios.append(res.error_estimate / abs(res.E - ab.solve_bound_energy(ch, ext).E))
        for gamma, xi in self.AC_GRID:
            ch, ext = ac_channel(gamma), ab.Extension.from_xi(xi)
            res = orc.schrodinger_shoot(ch, ext, cfg)
            ratios.append(res.error_estimate / abs(res.E - ac.ac_bound_energy(ch, ext).E_n))
        assert 0.5 <= min(ratios) and max(ratios) <= 2.0, (min(ratios), max(ratios))

    def test_orders_are_finite_at_the_default_step(self):
        cfg = orc.ShootingConfig()
        orders = [
            orc.dirac_shoot(dirac_channel(mu), ab.Extension.from_xi(xi), cfg)
            .convergence_order_estimate
            for mu, xi in self.DIRAC_GRID
        ] + [
            orc.schrodinger_shoot(ac_channel(gamma), ab.Extension.from_xi(xi), cfg)
            .convergence_order_estimate
            for gamma, xi in self.AC_GRID
        ]
        assert all(math.isfinite(q) for q in orders), orders

    def test_error_estimate_needs_the_ladder(self):
        ext = ab.Extension.from_xi(-1.0)
        assert math.isnan(orc.dirac_shoot(dirac_channel(0.25), ext, FAST).error_estimate)
        res = orc.dirac_shoot(dirac_channel(0.25), ext)
        assert 0.0 < res.error_estimate < 1e-8

    @pytest.mark.parametrize("sector", ["ab", "ac"])
    def test_probes_cost_less_than_the_base_solve(self, sector):
        # counted in Numerov steps, not seconds: the probes at 2dx and 4dx
        # take half and a quarter of the base solve's steps
        ext = ab.Extension.from_xi(-1.0)
        total = {}
        for diag in (False, True):
            cfg = orc.ShootingConfig(diagnostics=diag)
            if sector == "ab":
                res = orc.dirac_shoot(dirac_channel(0.25), ext, cfg)
            else:
                res = orc.schrodinger_shoot(ac_channel(0.5), ext, cfg)
            total[diag] = res.numerov_steps
        assert total[True] <= 1.8 * total[False]

    @pytest.mark.parametrize(
        "dx, diagnostics, ok",
        [(0.2499, True, True), (0.25, True, False), (0.5, False, True), (1.0, False, False)],
    )
    def test_every_rung_stays_below_a_unit_step(self, dx, diagnostics, ok):
        # with diagnostics on the coarsest rung integrates at 4 * numerov_dx
        if ok:
            orc.ShootingConfig(numerov_dx=dx, diagnostics=diagnostics)
        else:
            with pytest.raises(ValueError, match="numerov_dx"):
                orc.ShootingConfig(numerov_dx=dx, diagnostics=diagnostics)


class TestSignScan:
    """A shoot solves each rung's line once, with no search; the level count
    evaluates every point of a fixed scan of the gap.  Each solve reads one
    pair of template branches from one sweep at its own step."""

    @staticmethod
    def sector(sector):
        if sector == "ab":
            return dirac_channel(0.25), orc.dirac_shoot
        return ac_channel(0.5), orc.schrodinger_shoot

    @staticmethod
    def record_branch_pairs(monkeypatch):
        """The (step, R) of every branch-pair integration, as they run."""
        calls = []
        original = orc._branch_pair

        def recorded(p, dx, at_seed=None):
            m_reg, m_irr = original(p, dx, at_seed)
            calls.append((dx, m_irr / m_reg))
            return m_reg, m_irr

        monkeypatch.setattr(orc, "_branch_pair", recorded)
        return calls

    @pytest.mark.parametrize("sector", ["ab", "ac"])
    def test_shoot_stops_at_first_bracket(self, monkeypatch, sector):
        # every rung hands the kernel's solve_line its line's a and b with
        # t = ln R - c, formed once by the shoot, and the shoot reads E off
        # the base rung's root: no rung searches.  The neutral fermion's
        # line is linear, so its root is t/a
        ch, shoot = self.sector(sector)
        ext = ab.Extension.from_xi(-1.0)
        pairs = self.record_branch_pairs(monkeypatch)
        solves = record_line_solves(monkeypatch)
        res = shoot(ch, ext, orc.ShootingConfig())
        if sector == "ab":
            _, (a, b, c) = orc._dirac_line(ch, ext.xi)
            e0 = -ch.tau * math.tanh(0.5 * solves[0][1])
        else:
            _, (a, b, c) = orc._ac_line(ch.gamma, ext.xi)
            e0 = -math.exp(solves[0][1])
        assert res.evaluations == len(pairs) == len(solves) == 3
        assert [args for args, _ in solves] == [(a, b, math.log(ratio) - c) for _, ratio in pairs]
        assert res.E == e0
        if sector == "ac":
            assert all(x == t / a for (_, _, t), x in solves)

    @pytest.mark.parametrize("sector", ["ab", "ac"])
    def test_probes_scan_at_working_settings(self, monkeypatch, sector):
        # the base solve runs at the config's step, the two ladder probes at
        # twice and four times it, and no solve uses any other step
        ch, shoot = self.sector(sector)
        pairs = self.record_branch_pairs(monkeypatch)
        cfg = orc.ShootingConfig()
        res = shoot(ch, ab.Extension.from_xi(-1.0), cfg)
        steps = [dx for dx, _ in pairs]
        assert steps[0] == cfg.numerov_dx
        assert steps[1:] == [cfg.numerov_dx * 2, cfg.numerov_dx * 4]
        assert res.evaluations == len(steps)

    @pytest.mark.parametrize("sector", ["ab", "ac"])
    def test_probe_brackets_grow_from_the_base_root(self, monkeypatch, sector):
        # the ladder probes solve the same line at their own R, so their
        # roots move off the base root x0 by a distance that grows with the
        # step (here by more than 8 per doubling, order ~4) and stays below
        # 2e-6 in x
        ch, shoot = self.sector(sector)
        solves = record_line_solves(monkeypatch)
        res = shoot(ch, ab.Extension.from_xi(-1.0), orc.ShootingConfig())
        x0, x2, x4 = (x for _, x in solves)
        e0 = -ch.tau * math.tanh(0.5 * x0) if sector == "ab" else -math.exp(x0)
        assert res.E == pytest.approx(e0, rel=1e-15)
        d2, d4 = abs(x2 - x0), abs(x4 - x0)
        assert 0.0 < 8.0 * d2 < d4 < 2e-6

    def test_count_scans_every_grid_point(self, monkeypatch):
        calls = []
        original = orc._mismatch

        def wrapped(p, mix, cfg):
            miss = original(p, mix, cfg)

            def recorded(x):
                calls.append((cfg, x))
                return miss(x)

            return recorded

        monkeypatch.setattr(orc, "_mismatch", wrapped)
        grid = nk.linear_grid(*orc._COUNT_WINDOW, orc._COUNT_POINTS)
        cases = ((0.25, -1.0), (0.4, -0.3), (0.6, -2.0), (0.85, -1.0))
        for k, (mu, xi) in enumerate(cases, start=1):
            n = orc.count_dirac_levels(dirac_channel(mu), ab.Extension.from_xi(xi), FAST)
            assert n == 1
            assert len(calls) == k * orc._COUNT_POINTS
            assert [x for _, x in calls[-orc._COUNT_POINTS :]] == grid
        assert {cfg for cfg, _ in calls} == {FAST}

    def test_sign_changes_yields_every_bracket_in_order(self):
        # the count scans the grid in order and counts each bracket once
        seen = []

        def f(x):
            seen.append(x)
            return (x - 1.5) * (x - 3.5) * (x - 6.5)

        grid = [float(i) for i in range(9)]
        assert orc._sign_changes(f, grid) == 3
        assert seen == grid
        assert orc._sign_changes(f, grid[:3]) == 1
        assert orc._sign_changes(f, [7.0, 8.0]) == 0

    def test_sign_changes_exact_zero_opens_a_bracket(self):
        def f(x):
            return x - 2.0

        assert orc._sign_changes(f, [0.0, 1.0, 2.0, 3.0, 4.0]) == 1
        # a zero at the last point opens nothing, and one at the first does
        assert orc._sign_changes(f, [0.0, 1.0, 2.0]) == 0
        assert orc._sign_changes(f, [2.0, 3.0]) == 1


class TestOneSignChangePerWindow:
    """What the monotone line of ln|rho| says of the mismatch: over a dense
    scan of a window the closed-form mismatch changes sign at most once,
    exactly once when the window's two ends differ in sign, and then at the
    analytic level.  Only the closed form is scanned; the analytic level is the
    test's, and the oracle calls no level formula (see TestIndependence)."""

    SCAN_POINTS = 2001
    # the neutral fermion's scan in y = ln(-E/m)
    AC_WINDOW = (math.log(1e-8), math.log(1e6))

    def check(self, miss, window, level_x):
        grid = nk.linear_grid(*window, self.SCAN_POINTS)
        positive = [miss(x) > 0.0 for x in grid]
        changes = [i for i in range(len(grid) - 1) if positive[i] != positive[i + 1]]
        assert len(changes) <= 1, [grid[i] for i in changes]
        if positive[0] != positive[-1]:
            (i,) = changes
            x = level_x()
            # the grid holds both end doubles, and a level may round to one
            assert window[0] <= x <= window[1]
            assert grid[i] - 1e-6 <= x <= grid[i + 1] + 1e-6, (grid[i], x, grid[i + 1])

    @settings(max_examples=150, deadline=None)
    @given(
        family=st.sampled_from([(0, -1), (-1, 1), (0, 1), (1, -1)]),
        nu=st.floats(0.01, 0.49),
        tau_side=st.sampled_from([1, -1]),
        log_xi=st.floats(-3.0, 3.0),
    )
    # the level's u = tau E/m is 0.9999999999999999, the double next to 1
    @example(family=(0, -1), nu=0.41796875, tau_side=1, log_xi=-2.375)
    def test_dirac(self, family, nu, tau_side, log_xi):
        ch = family_channel(family, nu, tau_side)
        ext = ab.Extension.from_xi(-(10.0**log_xi))
        miss = closed_form(*orc._dirac_template(ch, ch.s * ext.xi))
        self.check(miss, orc._COUNT_WINDOW, lambda: level_s(ab.solve_bound_energy(ch, ext)))

    @settings(max_examples=150, deadline=None)
    @given(gamma=st.floats(0.05, 0.95), log_xi=st.floats(-2.0, 2.0))
    def test_ac(self, gamma, log_xi):
        ch = ac_channel(gamma)
        ext = ab.Extension.from_xi(-(10.0**log_xi))
        miss = closed_form(*ac_template(gamma, ext.xi))
        self.check(miss, self.AC_WINDOW, lambda: math.log(-ac.ac_bound_energy(ch, ext).E_n))


def softplus(x):
    return max(x, 0.0) + math.log1p(math.exp(-abs(x)))


def line_value(line, x):
    a, b, c = line
    return a * x + b * softplus(x) + c


def family_channel(family, nu, tau_side):
    """The channel of an (l, s) family at nu, with nu_tilde = l + mu + s/2
    of either sign, so that tau = s sign(nu_tilde) takes both values."""
    l, s = family
    ch = dirac_channel(tau_side * nu - l - 0.5 * s, l=l, s=s)
    assert ch.tau == tau_side * s and ch.regime is ab.Regime.EXTENDED
    return ch


_FAMILIES = st.sampled_from([(0, -1), (-1, 1), (0, 1), (1, -1)])


class TestLine:
    """Each sector's line is ln|rho| = ln|c_reg k^(-2p)/c_irr| of its
    template's mix, and the root a shoot solves for is where the closed-form
    mismatch changes sign."""

    @settings(max_examples=200, deadline=None)
    @given(
        family=_FAMILIES,
        nu=st.floats(0.01, 0.49),
        tau_side=st.sampled_from([1, -1]),
        log_xi=st.floats(-3.0, 3.0),
        x=st.floats(-40.0, 40.0),
    )
    def test_dirac_line_is_the_template(self, family, nu, tau_side, log_xi, x):
        # at |s| = 40, 1 -+ u is 8e-18, below an ulp of 1: the mix forms it
        # from s, and its log is taken at 40 digits
        import mpmath

        ch = family_channel(family, nu, tau_side)
        xi = -(10.0**log_xi)
        p, line = orc._dirac_line(ch, xi)
        p_mix, mix = orc._dirac_template(ch, ch.s * xi)
        assert p == p_mix
        with mpmath.workdps(40):
            k, c_reg, c_irr = (mpmath.mpf(v) for v in mix(x))
            want = float(mpmath.log(abs(c_reg * k ** (-2 * p) / c_irr)))
        assert line_value(line, x) == pytest.approx(want, rel=0.0, abs=1e-13)

    @settings(max_examples=200, deadline=None)
    @given(gamma=st.floats(0.01, 0.99), log_xi=st.floats(-3.0, 3.0), y=st.floats(-40.0, 40.0))
    def test_ac_line_is_the_template(self, gamma, log_xi, y):
        xi = -(10.0**log_xi)
        p, line = orc._ac_line(gamma, xi)
        k, c_reg, c_irr = ac_template(gamma, xi)[1](y)
        assert p == gamma
        want = math.log(abs(c_reg * k ** (-2 * p) / c_irr))
        assert line_value(line, y) == pytest.approx(want, rel=0.0, abs=1e-13)

    @settings(max_examples=200, deadline=None)
    @given(
        family=_FAMILIES,
        nu=st.floats(0.01, 0.49),
        tau_side=st.sampled_from([1, -1]),
        log_xi=st.floats(-3.0, 3.0),
    )
    def test_root_is_a_sign_change_of_the_mismatch(self, family, nu, tau_side, log_xi):
        # the mismatch changes sign within 48 ulps of max(1, |x0|) of the
        # root x0 that the shoot's solve_line returns; 20000 random channels
        # read 20 at worst
        ch = family_channel(family, nu, tau_side)
        xi = -(10.0**log_xi)
        p, (a, b, c) = orc._dirac_line(ch, xi)
        m_reg, m_irr = orc._branch_pair(p, DX)
        x0 = nk.solve_line(a, b, math.log(m_irr / m_reg) - c)
        miss = closed_form(*orc._dirac_template(ch, ch.s * xi))
        d = 48 * math.ulp(max(1.0, abs(x0)))
        assert miss(x0 - d) * miss(x0 + d) <= 0.0


def master_log_lambda(nu, xi):
    """ln(lambda/m) of the master level, from a 30-digit Newton root of its
    s-form ln|xi| = (1/2 - nu) s + 2 nu ln(1 + e^s) + ln Gamma(1/2+nu)/Gamma(1/2-nu),
    which descends monotonically from the right on this convex curve."""
    import mpmath

    with mpmath.workdps(30):
        nu, target = mpmath.mpf(nu), mpmath.log(-mpmath.mpf(xi))
        lng = mpmath.loggamma(0.5 + nu) - mpmath.loggamma(0.5 - nu)

        def g(s):
            return (0.5 - nu) * s + 2 * nu * mpmath.log1p(mpmath.exp(s)) + lng - target

        g0 = g(0)
        s = -g0 / (0.5 + nu) if g0 > 0 else -g0 / (0.5 - nu)
        for _ in range(200):
            step = g(s) / (0.5 - nu + 2 * nu / (1 + mpmath.exp(-s)))
            s -= step
            if abs(step) <= mpmath.mpf(10) ** -26 * (1 + abs(s)):
                return float(-mpmath.log(mpmath.cosh(s / 2)))
        raise AssertionError(f"s-form Newton did not converge at nu={nu}, xi={xi}")


class TestReach:
    """The oracle finds the level of every xi = -10^k, k = -300 ... 300, to
    the connection-ratio envelope over the slope of ln|rho| in the scan
    variable.  The root is read in that variable, as ln lambda (Dirac) or
    ln(-E/m) (neutral fermion): E rounds to -+m, or leaves the double range,
    long before the scan variable does."""

    XIS = [-(10.0**k) for k in range(-300, 301, 5)]
    ENVELOPE = TestConnectionRatioEnvelope.ENVELOPE[0.1]

    @pytest.mark.parametrize(
        "mu, l, s", [(0.25, 0, -1), (0.45, 0, -1), (0.95, 0, -1), (0.25, -1, 1)]
    )
    def test_dirac(self, mu, l, s):
        # nu = 0.25 and 0.05 at tau = +1, 0.45 and 0.25 at tau = -1;
        # d ln lambda/ds = 1/2 - sigma(s) lies within +-1/2, so ln lambda is
        # off by at most half of the root's error
        ch = dirac_channel(mu, l=l, s=s)
        for xi in self.XIS:
            p, line = orc._dirac_line(ch, xi)
            m_reg, m_irr = orc._branch_pair(p, DX)
            a, b, c = line
            x = nk.solve_line(a, b, math.log(m_irr / m_reg) - c)
            slope = a + b * 0.5 * (1.0 + math.tanh(0.5 * x))
            got = math.log(2.0) + 0.5 * x - softplus(x)
            want = master_log_lambda(ch.nu, xi)
            assert got == pytest.approx(want, rel=0.0, abs=self.ENVELOPE / slope), xi
            assert orc.dirac_shoot(ch, ab.Extension.from_xi(xi), FAST) is not None

    @pytest.mark.parametrize("gamma", [0.05, 0.5, 0.95])
    def test_ac(self, gamma):
        # E = -m e^y overflows past y = 709.78, where the shoot gives None
        import mpmath

        ch = ac_channel(gamma)
        for xi in self.XIS:
            p, line = orc._ac_line(gamma, xi)
            m_reg, m_irr = orc._branch_pair(p, DX)
            a, _, c = line
            y = nk.solve_line(a, 0.0, math.log(m_irr / m_reg) - c)
            with mpmath.workdps(30):
                g = mpmath.mpf(gamma)
                log_ratio = mpmath.loggamma(1 - g) - mpmath.loggamma(1 + g)
                want = float(mpmath.log(2) - (mpmath.log(-mpmath.mpf(xi)) + log_ratio) / g)
            tol = self.ENVELOPE / gamma
            assert y == pytest.approx(want, rel=0.0, abs=tol), xi
            res = orc.schrodinger_shoot(ch, ab.Extension.from_xi(xi), FAST)
            if want > 709.79:
                assert res is None
            elif want < 709.78:
                assert res.E == pytest.approx(-math.exp(want), rel=2.0 * tol, abs=1e-300)


class TestCountReach:
    """The level count scans s = ln((1 - u)/(1 + u)), u = tau*E/m, from -40
    to 40, past the s of the doubles next to u = -+1, so it counts every
    level whose E does not round to -+m, one whose u rounds to an end double
    included.  A level whose E rounds to -+m is counted exactly when the
    shoot's root s lies inside the scan."""

    @settings(max_examples=300, deadline=None)
    @given(
        family=_FAMILIES,
        nu=st.floats(0.005, 0.495),
        tau_side=st.sampled_from([1, -1]),
        log_xi=st.floats(-12.0, 12.0),
    )
    # the level's u is 0.9999999999999999, and a scan of u between the
    # doubles next to -+1 does not count it
    @example(family=(0, -1), nu=0.09707831633664998, tau_side=1, log_xi=-6.80334721872861)
    def test_counts_every_level_inside_the_scan(self, family, nu, tau_side, log_xi):
        ch = family_channel(family, nu, tau_side)
        ext = ab.Extension.from_xi(-(10.0**log_xi))
        u = ch.tau * orc.dirac_shoot(ch, ext, FAST).E
        p, (a, b, c) = orc._dirac_line(ch, ext.xi)
        m_reg, m_irr = orc._branch_pair(p, DX)
        x0 = nk.solve_line(a, b, math.log(m_irr / m_reg) - c)
        assume(abs(abs(x0) - orc._COUNT_WINDOW[1]) > 1e-9)
        n = orc.count_dirac_levels(ch, ext, FAST)
        if abs(u) < 1.0:
            assert n == 1, u
        assert n == (abs(x0) < orc._COUNT_WINDOW[1]), (u, x0)


class TestOneLineSolver:
    """Both routes solve their level line with the kernel's solve_line: the
    analytic Dirac level in one call, a shoot in one call per rung, and the
    neutral fermion's shoot with b = 0.  Only t differs between the routes
    (TestIndependence keeps the analytic t out of the oracle)."""

    def test_analytic_level_makes_one_call(self, monkeypatch):
        solves = record_line_solves(monkeypatch)
        for mu, xi in ((0.25, -1.0), (0.6, -0.3), (0.999999, -1e-6)):
            ch = dirac_channel(mu)
            solves.clear()
            level = ab.solve_bound_energy(ch, ab.Extension.from_xi(xi))
            (((a, b, t), x),) = solves
            assert (a, b) == (0.5 - ch.nu, 2.0 * ch.nu)
            assert t == math.log(-xi) - ab._log_gamma_ratio(ch.nu)
            assert level.E == -ch.tau * math.tanh(0.5 * x)

    @pytest.mark.parametrize("sector", ["ab", "ac"])
    @pytest.mark.parametrize("diagnostics, rungs", [(False, 1), (True, 3)])
    def test_shoot_makes_one_call_per_rung(self, monkeypatch, sector, diagnostics, rungs):
        solves = record_line_solves(monkeypatch)
        ext = ab.Extension.from_xi(-1.0)
        cfg = orc.ShootingConfig(diagnostics=diagnostics)
        if sector == "ab":
            ch = dirac_channel(0.25)
            res = orc.dirac_shoot(ch, ext, cfg)
            line = (0.5 - ch.nu, 2.0 * ch.nu)
        else:
            ch = ac_channel(0.5)
            res = orc.schrodinger_shoot(ch, ext, cfg)
            line = (-ch.gamma, 0.0)
        assert len(solves) == res.evaluations == rungs
        assert all((a, b) == line for (a, b, _), _ in solves)


def numerov(c, k2, y_n, y_b, x0, h, n):
    """(y_0, y_1) of the solution of y'' = (c/x^2 + k2) y on x = x0 + i*h
    whose values at x0 + n*h and x0 + (n - 1)*h are y_n and y_b, swept
    inward by the package's kernel."""
    hh_12 = h * h / 12.0
    x = [x0 + i * h for i in range(n + 1)]

    def d(xi):
        return 1.0 - hh_12 * (c / (xi * xi) + k2)

    q = [1.0 / (xi * xi) for xi in reversed(x[1:n])]
    t_0, t_1 = orc._numerov_in(c, k2, h, q, (y_n * d(x[n]), y_b * d(x[n - 1])))
    return t_0 / d(x[0]), t_1 / d(x[1])


class TestIntegratorKernels:
    """The inward Numerov kernel against closed-form solutions of the
    equation it solves; a mistyped coefficient shows here as a lost order,
    not only as a far-off level."""

    @pytest.mark.parametrize("sign", [1, -1])
    def test_numerov_exponentials(self, sign):
        # c = 0: y'' = kappa^2 y, swept inward from exact values at the
        # outer end.  Numerov's phase error is (kappa h)^5/480 per step, so
        # exp(-kappa x), which grows inward, is off by kappa L (kappa h)^4/480
        # after a span L; exact seeds of exp(+kappa x) also carry a discrete
        # inward-growing mode of relative size (kappa h)^4/960, amplified by
        # exp(2 kappa L)
        kappa, x0, span = 1.5, 0.5, 3.0
        errs = []
        for h in (0.02, 0.01):
            n = round(span / h)
            k = sign * kappa
            x_n = x0 + n * h
            y_n, y_b = math.exp(k * x_n), math.exp(k * (x_n - h))
            y_0, _ = numerov(0.0, kappa * kappa, y_n, y_b, x0, h, n)
            err = abs(math.log(y_0) - k * x0)
            kh4 = (kappa * h) ** 4
            bound = kh4 * kappa * span / 480.0
            if sign > 0:
                bound += kh4 * math.exp(2.0 * kappa * span) / 960.0
            assert err <= 2.0 * bound
            errs.append(err)
        assert 14.0 <= errs[0] / errs[1] <= 18.0

    def test_numerov_exponential_through_renormalization(self):
        # exp(-kappa x) swept in from x = 300.5 to 0.5 grows by e^600, about
        # 1e260, past the 1e250 at which a kernel would renormalize; the
        # unrenormalized sweep stays finite and keeps the phase-error bound
        # over the whole span
        kappa, x0, h, n = 2.0, 0.5, 0.02, 15000
        y_0, _ = numerov(0.0, kappa * kappa, 1.0, math.exp(kappa * h), x0, h, n)
        assert 1e250 < y_0 < math.inf
        err = abs(math.log(y_0) - kappa * (n * h))
        assert err <= 2.0 * kappa * (n * h) * (kappa * h) ** 4 / 480.0

    def test_numerov_power_law_exact(self):
        # c = 2, k2 = 0: y = x^2 solves y'' = (2/x^2) y, and Numerov is exact
        # for it, so only rounding remains.  The sweep runs from x = 1 to 6
        # (a negative step from the grid's far end), the direction in which
        # x^2 grows and the other solution 1/x decays
        x0, h, n = 6.0, -0.01, 500
        x_n = x0 + n * h
        y_0, y_1 = numerov(2.0, 0.0, x_n * x_n, (x_n - h) ** 2, x0, h, n)
        assert y_0 == pytest.approx(x0 * x0, rel=1e-12)
        assert y_1 == pytest.approx((x0 + h) ** 2, rel=1e-12)


class TestInwardSweep:
    """A solve sweeps one solution, the decaying asymptote, inward from the
    tail, and reads each branch's mismatch at the seed through Numerov's
    conserved discrete Wronskian.  In exact arithmetic that is the tail
    cross product of the branch integrated outward, the reference route of
    ``routes.outward_branch_pair``, so the two differ by rounding alone."""

    PS = [sign * k / 100.0 for k in range(1, 100) for sign in (1, -1)]
    LADDER_STEPS = [factor * DX for factor in (1, *orc._LADDER)]
    # the worst |M/M_ref - 1| of either branch and |R/R_ref - 1| over PS,
    # measured at 2.6e-15 and 1.8e-15 (dx 0.4), 6.7e-15 and 6.6e-15 (0.2),
    # 1.5e-14 and 1.2e-14 (0.1), 3.6e-14 and 3.0e-14 (0.05), 2.7e-13 and
    # 2.8e-13 (0.01), 9.3e-12 and 1.0e-11 (0.001).  Against the recurrence
    # summed in 40 digits at dx 0.001, the inward route's R is off by at
    # most 3.5e-13 and the outward route's by up to 6.6e-12 (p = 0.1, 0.5
    # and 0.77), so the bound measures the reference's rounding
    BOUNDS = {0.4: 8e-15, 0.2: 2e-14, 0.1: 5e-14, 0.05: 1e-13, 0.01: 1e-12, 0.001: 3e-11}
    # the Wronskian's drift along one sweep measured 5.1e-15 at p = 0.25 and
    # 5.3e-15 at -0.75
    WRONSKIAN_DRIFT = 2e-14

    @pytest.mark.parametrize("dx", sorted(BOUNDS, reverse=True))
    def test_mismatches_match_the_outward_route(self, dx):
        bound = self.BOUNDS[dx]
        for p in self.PS:
            got = orc._branch_pair(p, dx)
            want = routes.outward_branch_pair(p, dx)
            for g, w in (*zip(got, want), (got[1] / got[0], want[1] / want[0])):
                assert g == pytest.approx(w, rel=bound, abs=0.0), p

    @pytest.mark.parametrize("p", [0.25, -0.75])
    def test_wronskian_is_conserved_along_one_sweep(self, p):
        # t_(i+1) s_i - t_i s_(i+1) of the kernel's inward asymptote t (the
        # sweep stopped at every grid point) and the reference's outward
        # branch s, both in Numerov's t-form, at every i of one grid
        n = orc._sweep_steps(DX)
        h = (orc._TAIL_Z - orc._SEED_Z) / n
        c = p * p - 0.25
        z = [orc._SEED_Z + i * h for i in range(n + 1)]
        d = [1.0 - h * h / 12.0 * (c / (x * x) + 1.0) for x in z]
        q = orc._inner_q(orc._SEED_Z, orc._TAIL_Z, n)
        tail = (d[n] * math.exp(-z[n]), d[n - 1] * math.exp(-z[n - 1]))
        t = [orc._numerov_in(c, 1.0, h, q[:j], tail)[0] for j in range(n - 1, 0, -1)]
        t += tail[::-1]
        u0, u1 = (
            tuple(math.sqrt(x) * v for v in orc._branch_values(p, x)) for x in (z[0], z[1])
        )
        s = [d[0] * u0[0]] + [
            d[i] * routes.numerov_pass(c, 1.0, u0, u1, z[0], h, i)[1][0] for i in range(1, n + 1)
        ]
        wronskians = [t[i + 1] * s[i] - t[i] * s[i + 1] for i in range(n)]
        drift = max(abs(w / wronskians[0] - 1.0) for w in wronskians)
        assert drift <= self.WRONSKIAN_DRIFT, drift

    @pytest.mark.parametrize("dx", LADDER_STEPS, ids=["dx", "2dx", "4dx"])
    def test_pair_at_minus_p_is_the_swapped_pair(self, dx):
        # and the seed value a shoot computes once for its rungs is the one
        # each rung would compute itself
        for p in self.PS:
            assert orc._branch_pair(-p, dx) == orc._branch_pair(p, dx)[::-1], p
            at_seed = orc._branch_values(p, orc._SEED_Z)
            assert orc._branch_pair(p, dx, at_seed) == orc._branch_pair(p, dx), p


class TestGridMemo:
    """The inward sweep reads 1/z^2 of its grid from a memo keyed by the
    grid alone, its ends and step count, and bounded in size."""

    def test_memo_stays_bounded(self):
        ext = ab.Extension.from_xi(-1.0)
        for k in range(20):
            cfg = orc.ShootingConfig(numerov_dx=0.01 * (k + 1))
            assert orc.dirac_shoot(dirac_channel(0.25), ext, cfg) is not None
            assert orc._inner_q.cache_info().currsize <= orc._GRID_MEMO

    @pytest.mark.parametrize("sector", ["ab", "ac"])
    def test_shoot_after_cache_clear_is_bit_identical(self, sector):
        ext = ab.Extension.from_xi(-1.0)

        def shoot():
            if sector == "ab":
                return astuple(orc.dirac_shoot(dirac_channel(0.25), ext))
            return astuple(orc.schrodinger_shoot(ac_channel(0.5), ext))

        shoot()
        memoized = shoot()
        orc._inner_q.cache_clear()
        assert shoot() == memoized
