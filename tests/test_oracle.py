"""Shooting-oracle tests: agreement with closed forms and analytic levels.

The oracle is the referee for the master-equation energy-sign convention: the
weak-binding run at (l=0, s=-1, mu=0.25, xi=-0.05) must land near E = +m.
That measurement fixed the orientation once and is frozen here as a
regression test.
"""

import math
import random

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
# the Numerov referee's default step, in units of the decay length 1/k
DX = 0.1
EPS = 2.0**-52


def per_energy_miss(g, k, template, dx=DX):
    """The mismatch of the full template, r -> r^(-1/2) u(r), integrated
    outward at its own k by the Numerov referee: the route a shoot took at
    each energy before the closed form.  The route sweeps it in both of its
    slots, which must agree bit for bit."""
    miss, twin = routes.numerov_miss(g, k, lambda r: (template(r),) * 2, dx)
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
        # no step is refined, so the order is NaN; the bound is finite
        res = orc.dirac_shoot(dirac_channel(0.3), ab.Extension.from_xi(-0.8))
        assert res.match_residual < 1e-8
        assert res.r_min_sensitivity < 1e-7
        assert math.isnan(res.convergence_order_estimate)
        assert 0.0 < res.error_bound < 1e-13
        assert math.isnan(orc.dirac_shoot(dirac_channel(0.3), ab.Extension.from_xi(-0.8), FAST).error_bound)

    def test_r_min_insensitivity(self):
        # no inner cutoff is left to halve: the template fixes the solution
        # at r = 0 whatever the energy, so the sensitivity reads exactly 0
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
            n = routes.count_dirac_levels(dirac_channel(mu), ab.Extension.from_xi(xi))
            assert n == 1


class TestNumerovReferee:
    """The tests' outward Numerov route (``routes.outward_branch_pair``)
    converges to the series match's connection ratio at order 4.  Over
    p = +-0.01 ... +-0.99 in (-1/2, 1) the worst |R_Numerov/R - 1| reads
    6.83e-9 at dx = 0.1, 4.64e-10 at 0.05, 3.03e-11 at 0.025 and 2.04e-12 at
    0.0125, the last near the outward route's own rounding."""

    PS = [p for k in range(1, 100) for p in (k / 100.0, -k / 100.0) if -0.5 < p < 1.0]
    BOUNDS = {0.1: 7e-9, 0.05: 5e-10, 0.025: 3.5e-11, 0.0125: 2.5e-12}

    @classmethod
    def worst(cls, dx):
        errs = []
        for p in cls.PS:
            m_reg, m_irr = orc._series_match(p)[:2]
            n_reg, n_irr = routes.outward_branch_pair(p, dx)
            errs.append(abs((n_irr / n_reg) / (m_irr / m_reg) - 1.0))
        return max(errs)

    @pytest.mark.parametrize("dx", sorted(BOUNDS, reverse=True))
    def test_numerov_ratio_within_its_step_error(self, dx):
        assert self.worst(dx) <= self.BOUNDS[dx]

    def test_numerov_converges_at_order_four(self):
        # each halving of the step divides the error by about 2^4
        worst = [self.worst(dx) for dx in sorted(self.BOUNDS, reverse=True)]
        for coarse, fine in zip(worst, worst[1:]):
            assert 13.0 <= coarse / fine <= 17.0, worst


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
        # the Numerov referee's grid starts at r = 2/kappa, about 0.0325
        # here, seeded from the summed template series; integrated per energy
        # from that seed, the full template's mismatch changes sign across
        # the analytic level within 1e-8 of it, and the shoot lands there too
        ch = ac_channel(0.15)
        ext = ab.Extension.from_xi(-0.3)
        analytic = ac.ac_bound_energy(ch, ext).E_n
        gamma, xi_int = ch.gamma, -ext.xi

        def direct_miss(E):
            kappa = math.sqrt(-2.0 * E)

            def seed(r):
                z2 = (kappa * r) ** 2
                frob = routes.frobenius_factor
                return r**gamma * frob(gamma, z2) - xi_int * r**-gamma * frob(-gamma, z2)

            return per_energy_miss(gamma, kappa, seed)

        assert routes.SEED_Z / math.sqrt(-2.0 * analytic) < 0.035
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
        miss_s = routes.mismatch(*routes.dirac_template(ch, ch.s * xi))

        def miss(E):
            return miss_s(s_of_u(ch.tau * E))

        ratio = miss(e_star + self.DELTA) / miss(e_star + 2.0 * self.DELTA)
        assert 0.4 <= ratio <= 0.6

    @pytest.mark.parametrize("gamma, xi", [(0.25, -5.0), (0.55, -1.2), (0.85, -0.8)])
    def test_ac_mismatch_linear_at_root(self, gamma, xi):
        e_star = ac.ac_bound_energy(ac_channel(gamma), ab.Extension.from_xi(xi)).E_n
        miss_y = routes.mismatch(*ac_template(gamma, xi))

        def miss(E):
            return miss_y(math.log(-E))

        ratio = miss(e_star + self.DELTA) / miss(e_star + 2.0 * self.DELTA)
        assert 0.4 <= ratio <= 0.6

    def test_one_series_match_per_shoot(self, monkeypatch):
        # a shoot and a level count each sum the two series once
        calls = []
        original = orc._series_match

        def counted(p):
            calls.append(p)
            return original(p)

        monkeypatch.setattr(orc, "_series_match", counted)
        ext = ab.Extension.from_xi(-1.0)
        assert routes.count_dirac_levels(dirac_channel(0.25), ext) == 1
        assert len(calls) == 1
        for shoot, ch in (
            (orc.dirac_shoot, dirac_channel(0.25)),
            (orc.schrodinger_shoot, ac_channel(0.5)),
        ):
            for cfg in (FAST, orc.ShootingConfig()):
                calls.clear()
                res = shoot(ch, ext, cfg)
                assert len(calls) == 1
                assert res.terms == original(calls[0])[2]


def template_f1(ch, xi_int, r, E):
    """f1 of the Dirac domain template at r, each branch continued by its
    Frobenius factor: the seed a shoot integrated at each energy before the
    closed form.  The pair is built in u = tau*E with the r^(+nu) carrying
    component first; for tau = -1, f1 is the companion component."""
    frob = routes.frobenius_factor
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
    """The mismatch a shoot's line stands for is a closed-form mix of two
    branch mismatches at k = 1.  In z = k*r the equation holds no energy and
    the mismatch is linear in the solution, so at every energy the mix of
    the Numerov referee's branch pair equals the mismatch of the full
    template integrated at that energy's k, at the referee's default step
    and at 4 times it.  The series match's pair is that pair's limit as the
    step shrinks (TestNumerovReferee)."""

    STEPS = (DX, 4 * DX)
    # u = tau*E/m between the doubles next to -+1
    GAP = (math.nextafter(-1.0, 0.0), math.nextafter(1.0, 0.0))

    @pytest.mark.parametrize(
        "l, s, mu",
        [(-1, 1, 0.25), (-1, 1, 0.75), (0, 1, -0.25), (0, 1, -0.75), (1, -1, -0.25), (1, -1, -0.75)],
    )
    @pytest.mark.parametrize("dx", STEPS, ids=["dx", "4dx"])
    def test_dirac_mix_is_the_per_energy_integration(self, l, s, mu, dx):
        ch = dirac_channel(mu, l=l, s=s)
        xi_int = ch.s * -1.0
        p, mix = routes.dirac_template(ch, xi_int)
        miss = routes.mismatch(p, mix, routes.outward_branch_pair(p, dx))
        for u in nk.linear_grid(*self.GAP, 8):
            E = ch.tau * u
            lam = math.sqrt((1.0 - E) * (1.0 + E))

            def seed(r):
                return template_f1(ch, xi_int, r, E) / math.sqrt(r)

            want = per_energy_miss(abs(l + mu), lam, seed, dx)
            assert miss(s_of_u(u)) == pytest.approx(want, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("gamma", [0.15, 0.5, 0.85])
    @pytest.mark.parametrize("dx", STEPS, ids=["dx", "4dx"])
    def test_ac_mix_is_the_per_energy_integration(self, gamma, dx):
        miss = routes.mismatch(*ac_template(gamma, -1.0), routes.outward_branch_pair(gamma, dx))
        for y in nk.linear_grid(math.log(1e-8), math.log(1e6), 8):
            kappa = math.sqrt(2.0 * math.exp(y))

            def seed(r):
                z2 = (kappa * r) ** 2
                frob = routes.frobenius_factor
                return r**gamma * frob(gamma, z2) - r**-gamma * frob(-gamma, z2)

            want = per_energy_miss(gamma, kappa, seed, dx)
            assert miss(y) == pytest.approx(want, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("p", [-0.45, -0.25, 0.15, 0.5, 0.85])
    def test_connection_ratio_is_the_gamma_one(self, p):
        # the branches z^(+-p) F grow as 2^(+-p) Gamma(1 +- p) e^z / sqrt(2 pi z),
        # so M_irr / M_reg is the analytic route's Gamma ratio
        m_reg, m_irr = orc._series_match(p)[:2]
        gamma_ratio = 2.0 ** (-2.0 * p) * math.gamma(1.0 - p) / math.gamma(1.0 + p)
        assert m_irr / m_reg == pytest.approx(gamma_ratio, rel=1e-14)

    @pytest.mark.parametrize("p", [-0.45, -0.25, 0.15, 0.5, 0.85])
    def test_each_mismatch_is_a_wronskian_with_the_asymptote(self, p):
        # with a = e^(-z) S ~ sqrt(2z/pi) K_p, W[a, sqrt(z) I_(+-p)] is
        # sqrt(2/pi), so M = sqrt(2/pi) 2^(+-p) Gamma(1 +- p), to the
        # decaying solution's own truncation, about e^(-2 z_m) = 1.5e-8
        m_reg, m_irr = orc._series_match(p)[:2]
        root = math.sqrt(2.0 / math.pi)
        assert m_reg == pytest.approx(root * 2.0**p * math.gamma(1.0 + p), rel=1e-8)
        assert m_irr == pytest.approx(root * 2.0**-p * math.gamma(1.0 - p), rel=1e-8)


class TestConnectionRatioEnvelope:
    """The oracle's one numerical result is the connection ratio
    R = M_irr/M_reg of the series match, and both sectors' errors are its
    error: |p| = |l + mu| for Dirac and gamma for the neutral fermion.
    Against R_exact = 2^(-2p) Gamma(1-p)/Gamma(1+p) (40-digit mpmath) over
    3205 p in (-1/2, 1), the ends and the doubles next to them included, the
    worst |R/R_exact - 1| reads 1.5e-15, within the truncation bound plus
    the 16 eps that ``OracleResult.error_bound`` allows for R's rounding."""

    PS = (
        [-0.5, -0.5 + 2.0**-54, 1.0 - 2.0**-40, 1.0 - 2.0**-53, 1e-300, -1e-300]
        + [-0.5 + 1.5 * i / 3200 for i in range(1, 3200)]
    )
    ENVELOPE = 2e-15

    def test_ratio_within_its_envelope(self):
        import mpmath

        worst = 0.0
        with mpmath.workdps(40):
            for p in self.PS:
                m_reg, m_irr, _, bound = orc._series_match(p)
                err = abs(float(mpmath.mpf(m_irr) / m_reg / routes.exact_ratio(p) - 1))
                assert err <= bound + 16 * EPS, (p, err, bound)
                worst = max(worst, err)
        assert worst <= self.ENVELOPE, worst

    def test_truncation_sits_below_the_rounding(self):
        # at z_m = 9 the truncation bound is at most 5.3e-17, a quarter of
        # an ulp of 1, and it vanishes where K_p is elementary (p = +-1/2)
        # and where the two branches coincide (p = 0)
        bounds = [orc._series_match(p)[3] for p in self.PS]
        assert max(bounds) <= 6e-17
        assert orc._series_match(0.5)[3] == orc._series_match(-0.5)[3] == 0.0
        assert orc._series_match(0.0)[3] == 0.0

    def test_pair_at_minus_p_is_the_swapped_pair(self):
        # the series at -p are those at p swapped, so R(-p) R(p) = 1 to a few ulps
        for k in range(1, 100):
            p = k / 100.0
            r_p = orc._series_match(p)
            r_m = orc._series_match(-p)
            assert r_p[2] == r_m[2]
            assert (r_p[1] / r_p[0]) * (r_m[1] / r_m[0]) == pytest.approx(1.0, rel=4 * EPS, abs=0.0)


class TestErrorBound:
    """``OracleResult.error_bound`` bounds |E - E_exact| on every level, with
    E_exact the root of the same line with the exact R, at 50 digits
    (``routes.exact_root``).  The samples reach nu and gamma near both ends
    of their ranges and |xi| from e^-40 to e^40; over 16600 such levels the
    error read at most 0.34 of the bound."""

    @pytest.mark.parametrize("family", [(0, -1), (-1, 1), (0, 1), (1, -1)])
    def test_bound_holds_on_dirac_levels(self, family):
        rng = random.Random(f"dirac:{family}")
        worst = 0.0
        for _ in range(100):
            nu = rng.choice(
                [rng.uniform(1e-3, 0.499), 10 ** rng.uniform(-6, -1), 0.5 - 10 ** rng.uniform(-6, -1)]
            )
            ch = family_channel(family, nu, rng.choice([1, -1]))
            wide = rng.random() < 0.3
            xi = -math.exp(rng.uniform(-40.0, 40.0) if wide else rng.uniform(-6.0, 6.0))
            res = orc.dirac_shoot(ch, ab.Extension.from_xi(xi))
            err = abs(res.E - routes.exact_dirac_energy(ch, xi))
            assert err <= res.error_bound, (ch, xi, res)
            worst = max(worst, err / res.error_bound)
        assert worst > 0.01  # the sample reaches the bound's scale

    @pytest.mark.parametrize("band", [(1e-3, 0.999), (1e-4, 1e-1), (0.9, 1.0 - 1e-6)])
    def test_bound_holds_on_ac_levels(self, band):
        # y = ln(-E/m) is about -ln|xi|/gamma, so |ln|xi|| stays below
        # 600 gamma to keep E a normal float
        rng = random.Random(f"ac:{band}")
        lo, hi = band
        for _ in range(100):
            gamma = 10 ** rng.uniform(math.log10(lo), math.log10(hi))
            xi = -math.exp(rng.uniform(-1.0, 1.0) * min(5.0, 600.0 * gamma))
            res = orc.schrodinger_shoot(ac_channel(gamma), ab.Extension.from_xi(xi))
            err = abs(res.E - routes.exact_ac_energy(gamma, xi))
            assert err <= res.error_bound, (gamma, xi, res)

    def test_golden_levels(self):
        ext = ab.Extension.from_xi(-1.0)
        res = orc.dirac_shoot(dirac_channel(0.25), ext)
        assert abs(res.E - routes.exact_dirac_energy(dirac_channel(0.25), -1.0)) <= res.error_bound
        res = orc.schrodinger_shoot(ac_channel(0.5), ext)
        assert abs(res.E + 0.5) <= res.error_bound


class TestTruncationBound:
    """The series match's truncation bound on |dR/R| at matching radii from
    3 to 10, where it runs from 3.5e-6 down to below the rounding: it holds
    at every p, and where it exceeds the rounding by far it is at most 2.3
    times the worst error, so it is no loose envelope.  z_m = 9 is the
    oracle's."""

    PS = [-0.5 + 1.5 * i / 600 for i in range(1, 600)]

    @pytest.mark.parametrize("z", [3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0])
    def test_bound_holds_and_is_tight(self, z):
        import mpmath

        radius = orc._matching_radius(z)
        ratios = []
        with mpmath.workdps(40):
            for p in self.PS:
                m_reg, m_irr, _, bound = orc._series_match(p, radius)
                err = abs(float(mpmath.mpf(m_irr) / m_reg / routes.exact_ratio(p) - 1))
                assert err <= bound + 16 * EPS, (p, err, bound)
                if bound > 1e4 * EPS:
                    ratios.append(err / bound)
        if z <= 6.0:
            assert max(ratios) >= 1.0 / 2.3, max(ratios)
        assert orc._series_match(0.3) == orc._series_match(0.3, orc._matching_radius(9.0))


class TestFrobeniusFactor:
    """The template's series factor is 0F1(; 1 + a; z^2/4) summed in full,
    by ``routes.frobenius_factor``: the Numerov referee seeds its grid from
    it at z = 2, and the AC boundary fit takes its basis from it."""

    @pytest.mark.parametrize("a", [-0.999, -0.75, -0.25, 0.15, 0.85])
    @pytest.mark.parametrize("z", [0.05, 0.5, 2.0, 8.0])
    def test_matches_hyp0f1(self, a, z):
        import mpmath

        want = float(mpmath.hyp0f1(1 + mpmath.mpf(a), mpmath.mpf(z * z) / 4))
        assert routes.frobenius_factor(a, z * z) == pytest.approx(want, rel=1e-14, abs=0.0)


class TestIndependence:
    """The oracle reaches its levels from the ODE and its Frobenius and
    Hankel series alone, and calls no level formula, bound profile, Gamma
    function or ratio, or Bessel function."""

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
            (nk, "bessel_j_pair"),
            (nk, "gamma_fn"),
            (nk, "log_gamma_ratio"),
            (ab, "_log_gamma_ratio"),
            (ab, "log_abs_master_xi"),
            (math, "gamma"),
            (math, "lgamma"),
        ):
            monkeypatch.setattr(module, name, forbidden)
        for p in (-0.5, -0.25, 0.0, 0.3, 0.5, 0.75, 0.999):
            m_reg, m_irr, terms, bound = orc._series_match(p)
            assert m_irr / m_reg > 0.0 and terms > 0 and bound >= 0.0
        ext = ab.Extension.from_xi(-1.0)
        cfg = orc.ShootingConfig()
        res = orc.dirac_shoot(dirac_channel(0.25), ext, cfg)
        assert res.E == pytest.approx(E_GOLDEN, abs=1e-14)
        assert math.isfinite(res.error_bound)
        res = orc.schrodinger_shoot(ac_channel(0.5), ext, cfg)
        assert res.E == pytest.approx(-0.5, abs=1e-14)
        assert math.isfinite(res.error_bound)


class TestGoldenShoots:
    """Every OracleResult field of the golden AB (l=0, s=-1, mu=0.25) and AC
    (gamma=0.5) shoots at xi=-1, with diagnostics off and on."""

    NAN = math.nan
    # E, match_residual, convergence_order_estimate, r_min_sensitivity,
    # error_bound, terms
    CASES = {
        "ab-off": (-0.5660019996925443, 3.3982086817202066e-16, NAN, NAN, NAN, 42),
        "ac-off": (-0.5, 5e-16, NAN, NAN, NAN, 25),
        "ab-on": (-0.5660019996925443, 3.3982086817202066e-16, NAN, 0.0, 3.350791572145812e-15, 42),
        "ac-on": (-0.5, 5e-16, NAN, 0.0, 4.544306243037194e-15, 25),
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
        *floats, terms = self.CASES[case]
        got = (
            res.E,
            res.match_residual,
            res.convergence_order_estimate,
            res.r_min_sensitivity,
            res.error_bound,
        )
        for value, want in zip(got, floats):
            if math.isnan(want):
                assert math.isnan(value)
            else:
                assert value == pytest.approx(want, rel=1e-12, abs=0.0)
        # the Frobenius loop's terms and the Hankel terms: at p = 1/2 the
        # Hankel series ends after its first term, since K_(1/2) is elementary
        assert res.terms == terms


class TestSignScan:
    """A shoot solves its line once, with no search; the level count
    evaluates every point of a fixed scan of the gap."""

    @pytest.mark.parametrize("sector", ["ab", "ac"])
    def test_shoot_solves_one_line(self, monkeypatch, sector):
        # the shoot hands the kernel's solve_line its line's a and b with
        # t = ln R - c, formed once, and reads E off the root: no search.
        # The neutral fermion's line is linear, so its root is t/a
        ext = ab.Extension.from_xi(-1.0)
        ratios = []
        original = orc._series_match

        def recorded(p):
            m_reg, m_irr, terms, bound = original(p)
            ratios.append(m_irr / m_reg)
            return m_reg, m_irr, terms, bound

        monkeypatch.setattr(orc, "_series_match", recorded)
        solves = record_line_solves(monkeypatch)
        if sector == "ab":
            ch = dirac_channel(0.25)
            res = orc.dirac_shoot(ch, ext)
            _, (a, b, c) = orc._dirac_line(ch, ext.xi)
            e0 = -ch.tau * math.tanh(0.5 * solves[0][1])
        else:
            ch = ac_channel(0.5)
            res = orc.schrodinger_shoot(ch, ext)
            _, (a, b, c) = orc._ac_line(ch.gamma, ext.xi)
            e0 = -math.exp(solves[0][1])
        (ratio,) = ratios
        assert [args for args, _ in solves] == [(a, b, math.log(ratio) - c)]
        assert res.E == e0
        if sector == "ac":
            assert all(x == t / a for (_, _, t), x in solves)

    def test_count_scans_every_grid_point(self, monkeypatch):
        calls = []
        original = routes.mismatch

        def wrapped(p, mix, pair=None):
            miss = original(p, mix, pair)

            def recorded(x):
                calls.append(x)
                return miss(x)

            return recorded

        monkeypatch.setattr(routes, "mismatch", wrapped)
        grid = nk.linear_grid(*routes.COUNT_WINDOW, routes.COUNT_POINTS)
        cases = ((0.25, -1.0), (0.4, -0.3), (0.6, -2.0), (0.85, -1.0))
        for k, (mu, xi) in enumerate(cases, start=1):
            n = routes.count_dirac_levels(dirac_channel(mu), ab.Extension.from_xi(xi))
            assert n == 1
            assert len(calls) == k * routes.COUNT_POINTS
            assert calls[-routes.COUNT_POINTS :] == grid

    def test_sign_changes_yields_every_bracket_in_order(self):
        # the count scans the grid in order and counts each bracket once
        seen = []

        def f(x):
            seen.append(x)
            return (x - 1.5) * (x - 3.5) * (x - 6.5)

        grid = [float(i) for i in range(9)]
        assert routes.sign_changes(f, grid) == 3
        assert seen == grid
        assert routes.sign_changes(f, grid[:3]) == 1
        assert routes.sign_changes(f, [7.0, 8.0]) == 0

    def test_sign_changes_exact_zero_opens_a_bracket(self):
        def f(x):
            return x - 2.0

        assert routes.sign_changes(f, [0.0, 1.0, 2.0, 3.0, 4.0]) == 1
        # a zero at the last point opens nothing, and one at the first does
        assert routes.sign_changes(f, [0.0, 1.0, 2.0]) == 0
        assert routes.sign_changes(f, [2.0, 3.0]) == 1

    def test_count_needs_an_extended_channel(self):
        with pytest.raises(ab.RegimeError):
            routes.count_dirac_levels(dirac_channel(0.0), ab.Extension.from_xi(-1.0))


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
        miss = routes.mismatch(*routes.dirac_template(ch, ch.s * ext.xi))
        self.check(miss, routes.COUNT_WINDOW, lambda: level_s(ab.solve_bound_energy(ch, ext)))

    @settings(max_examples=150, deadline=None)
    @given(gamma=st.floats(0.05, 0.95), log_xi=st.floats(-2.0, 2.0))
    def test_ac(self, gamma, log_xi):
        ch = ac_channel(gamma)
        ext = ab.Extension.from_xi(-(10.0**log_xi))
        miss = routes.mismatch(*ac_template(gamma, ext.xi))
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
        p_mix, mix = routes.dirac_template(ch, ch.s * xi)
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
        m_reg, m_irr = orc._series_match(p)[:2]
        x0 = nk.solve_line(a, b, math.log(m_irr / m_reg) - c)
        miss = routes.mismatch(*routes.dirac_template(ch, ch.s * xi))
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
    variable, with the rounding that ``OracleResult.error_bound`` allows for
    forming t = ln R - c, where |c| reaches 690.  The root is read in that
    variable, as ln lambda (Dirac) or ln(-E/m) (neutral fermion): E rounds
    to -+m, or leaves the double range, long before the scan variable
    does."""

    XIS = [-(10.0**k) for k in range(-300, 301, 5)]
    ENVELOPE = TestConnectionRatioEnvelope.ENVELOPE

    @classmethod
    def tolerance(cls, t, c, x, slope):
        return (cls.ENVELOPE + 4.0 * EPS * (abs(t) + abs(c))) / slope + 2.0 * EPS * abs(x)

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
            m_reg, m_irr = orc._series_match(p)[:2]
            a, b, c = line
            t = math.log(m_irr / m_reg) - c
            x = nk.solve_line(a, b, t)
            slope = a + b * 0.5 * (1.0 + math.tanh(0.5 * x))
            got = math.log(2.0) + 0.5 * x - softplus(x)
            want = master_log_lambda(ch.nu, xi)
            assert got == pytest.approx(want, rel=0.0, abs=self.tolerance(t, c, x, slope)), xi
            assert orc.dirac_shoot(ch, ab.Extension.from_xi(xi), FAST) is not None

    @pytest.mark.parametrize("gamma", [0.05, 0.5, 0.95])
    def test_ac(self, gamma):
        # E = -m e^y overflows past y = 709.78, where the shoot gives None
        import mpmath

        ch = ac_channel(gamma)
        for xi in self.XIS:
            p, line = orc._ac_line(gamma, xi)
            m_reg, m_irr = orc._series_match(p)[:2]
            a, _, c = line
            t = math.log(m_irr / m_reg) - c
            y = nk.solve_line(a, 0.0, t)
            with mpmath.workdps(30):
                g = mpmath.mpf(gamma)
                log_ratio = mpmath.loggamma(1 - g) - mpmath.loggamma(1 + g)
                want = float(mpmath.log(2) - (mpmath.log(-mpmath.mpf(xi)) + log_ratio) / g)
            tol = self.tolerance(t, c, y, gamma)
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
        m_reg, m_irr = orc._series_match(p)[:2]
        x0 = nk.solve_line(a, b, math.log(m_irr / m_reg) - c)
        assume(abs(abs(x0) - routes.COUNT_WINDOW[1]) > 1e-9)
        n = routes.count_dirac_levels(ch, ext)
        if abs(u) < 1.0:
            assert n == 1, u
        assert n == (abs(x0) < routes.COUNT_WINDOW[1]), (u, x0)


class TestOneLineSolver:
    """Both routes solve their level line with the kernel's solve_line: the
    analytic Dirac level in one call, a shoot in one call, and the neutral
    fermion's shoot with b = 0.  Only t differs between the routes
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
    @pytest.mark.parametrize("diagnostics", [False, True])
    def test_shoot_makes_one_call(self, monkeypatch, sector, diagnostics):
        solves = record_line_solves(monkeypatch)
        ext = ab.Extension.from_xi(-1.0)
        cfg = orc.ShootingConfig(diagnostics=diagnostics)
        if sector == "ab":
            ch = dirac_channel(0.25)
            orc.dirac_shoot(ch, ext, cfg)
            line = (0.5 - ch.nu, 2.0 * ch.nu)
        else:
            ch = ac_channel(0.5)
            orc.schrodinger_shoot(ch, ext, cfg)
            line = (-ch.gamma, 0.0)
        assert [(a, b) for (a, b, _), _ in solves] == [line]


class TestNumerovPass:
    """The Numerov referee's outward kernel against closed-form solutions of
    the equation it solves; a mistyped coefficient shows here as a lost
    order, not only as a far-off ratio."""

    @pytest.mark.parametrize("sign", [1, -1])
    def test_numerov_exponentials(self, sign):
        # c = 0: y'' = kappa^2 y, swept outward from exact values at the
        # inner end.  Numerov's phase error is (kappa h)^5/480 per step, so
        # exp(kappa x), which grows outward, is off by kappa L (kappa h)^4/480
        # after a span L; exact seeds of exp(-kappa x) also carry a discrete
        # outward-growing mode of relative size (kappa h)^4/960, amplified by
        # exp(2 kappa L)
        kappa, x0, span = 1.5, 0.5, 3.0
        errs = []
        for h in (0.02, 0.01):
            n = round(span / h)
            k = sign * kappa
            y0, y1 = math.exp(k * x0), math.exp(k * (x0 + h))
            _, (y_n, _) = routes.numerov_pass(0.0, kappa * kappa, (y0, y0), (y1, y1), x0, h, n)
            err = abs(math.log(y_n) - k * (x0 + n * h))
            kh4 = (kappa * h) ** 4
            bound = kh4 * kappa * span / 480.0
            if sign < 0:
                bound += kh4 * math.exp(2.0 * kappa * span) / 960.0
            assert err <= 2.0 * bound
            errs.append(err)
        assert 14.0 <= errs[0] / errs[1] <= 18.0

    def test_numerov_power_law_exact(self):
        # c = 2, k2 = 0: y = x^2 solves y'' = (2/x^2) y, and Numerov is exact
        # for it, so only rounding remains, in either slot
        x0, h, n = 1.0, 0.01, 500
        (yb, yb3), (yn, yn3) = routes.numerov_pass(
            2.0, 0.0, (x0 * x0, 3.0 * x0 * x0), ((x0 + h) ** 2, 3.0 * (x0 + h) ** 2), x0, h, n
        )
        x_n = x0 + n * h
        assert yn == pytest.approx(x_n * x_n, rel=1e-12)
        assert yb == pytest.approx((x_n - h) ** 2, rel=1e-12)
        assert (yb3, yn3) == pytest.approx((3.0 * (x_n - h) ** 2, 3.0 * x_n * x_n), rel=1e-12)
