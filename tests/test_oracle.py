"""Shooting-oracle tests: agreement with closed forms and analytic levels.

The oracle is the referee for the master-equation energy-sign convention: the
weak-binding run at (l=0, s=-1, mu=0.25, xi=-0.05) must land near E = +m.
That measurement fixed the orientation once and is frozen here as a
regression test.
"""

import math
from dataclasses import replace

import pytest

from fluxbound import ab_spectrum as ab
from fluxbound import ac_spectrum as ac
from fluxbound import numkernel as nk
from fluxbound import oracle as orc

E_GOLDEN = -0.56600199969254444
E_REFEREE = 0.9990435200046799

FAST = orc.ShootingConfig(diagnostics=False)


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
        # halving the inner cutoff moves E by less than 10x the match residual;
        # at the default r_min every seed radius is 0.05/lambda, which the
        # halved cutoff cannot move, so the probe is skipped and reads exactly 0
        for shoot, ch in (
            (orc.dirac_shoot, dirac_channel(0.25)),
            (orc.schrodinger_shoot, ac_channel(0.4)),
        ):
            res = shoot(ch, ab.Extension.from_xi(-1.0))
            assert res.r_min_sensitivity < 10.0 * res.match_residual
            assert res.r_min_sensitivity == 0.0

    def test_r_min_probe_runs_when_r_min_sets_seed_radius(self):
        res = orc.schrodinger_shoot(
            ac_channel(0.15), ab.Extension.from_xi(-0.3), orc.ShootingConfig(r_min=0.01)
        )
        assert 0.0 < res.r_min_sensitivity < 1e-4 * abs(res.E)

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
    def ladder(self, base_dx=0.04):
        return [
            orc.ShootingConfig(
                r_min=1e-6 / 2**k,
                numerov_dx=base_dx / 2**k,
            )
            for k in range(3)
        ]

    def test_ac_half_gamma_ladder(self):
        report = orc.convergence_study(
            ac_channel(0.5), ab.Extension.from_xi(-1.0), self.ladder()
        )
        assert report.extrapolated_E == pytest.approx(-0.5, abs=1e-8)
        assert report.observed_order >= 1.5
        assert report.monotone

    def test_dirac_zero_mode_ladder(self):
        report = orc.convergence_study(
            dirac_channel(0.5 - 1e-8),
            ab.Extension.from_xi(-1.0),
            self.ladder(),
        )
        assert abs(report.extrapolated_E) <= 1e-6

    def test_requires_three_rungs(self):
        with pytest.raises(ValueError):
            orc.convergence_study(
                dirac_channel(0.25), ab.Extension.from_xi(-1.0), self.ladder()[:2]
            )

    def test_shoot_follows_channel_type(self):
        with pytest.raises(TypeError):
            orc.convergence_study(
                ab.classify_channel(dirac_channel(0.25)),
                ab.Extension.from_xi(-1.0),
                self.ladder(),
            )


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
        # a coarse inner cutoff on a deep level makes the template series
        # reach the tail grid directly (no logarithmic segment)
        ch = ac_channel(0.15)
        ext = ab.Extension.from_xi(-0.3)
        analytic = ac.ac_bound_energy(ch, ext).E_n
        cfg = orc.ShootingConfig(r_min=0.01, diagnostics=False)
        res = orc.schrodinger_shoot(ch, ext, cfg)
        assert res.E == pytest.approx(analytic, rel=1e-4)


class TestSmoothMismatch:
    """The mismatch is the growing-mode coefficient times a smooth scale."""

    DELTA = 1e-6

    @pytest.mark.parametrize("mu, xi", [(0.1, -3.0), (0.4, -0.5), (0.85, -0.2)])
    def test_dirac_mismatch_linear_at_root(self, mu, xi):
        ch = dirac_channel(mu)
        e_star = ab.solve_bound_energy(ch, ab.Extension.from_xi(xi)).E

        def miss(E):
            return orc._dirac_miss(ch, ch.s * xi, FAST, E)

        ratio = miss(e_star + self.DELTA) / miss(e_star + 2.0 * self.DELTA)
        assert 0.4 <= ratio <= 0.6

    @pytest.mark.parametrize("gamma, xi", [(0.25, -5.0), (0.55, -1.2), (0.85, -0.8)])
    def test_ac_mismatch_linear_at_root(self, gamma, xi):
        e_star = ac.ac_bound_energy(ac_channel(gamma), ab.Extension.from_xi(xi)).E_n

        def miss(E):
            return orc._numerov_ac_miss(gamma, -xi, FAST, E)

        ratio = miss(e_star + self.DELTA) / miss(e_star + 2.0 * self.DELTA)
        assert 0.4 <= ratio <= 0.6

    def test_golden_shoot_evaluation_count(self):
        # a step-like mismatch made Brent bisect: 48 scan + 39 refine.  The
        # working integrations are the two bracket ends plus the refinement
        res = orc.dirac_shoot(dirac_channel(0.25), ab.Extension.from_xi(-1.0), FAST)
        assert res.evaluations + res.scan_evaluations <= 60
        assert res.evaluations - 2 <= 12
        assert res.scan_evaluations <= FAST.n_scan


class TestRenormalization:
    """Shoots whose state crosses the 1e250 renormalization in the tail."""

    def test_dirac_long_tail(self):
        cfg = orc.ShootingConfig(r_max=2000.0, n_scan=24, diagnostics=False)
        res = orc.dirac_shoot(dirac_channel(0.25), ab.Extension.from_xi(-1.0), cfg)
        assert res.E == pytest.approx(E_GOLDEN, abs=1e-6)

    def test_ac_long_tail(self):
        cfg = orc.ShootingConfig(
            r_max=600.0, numerov_dx=0.05, energy_bracket=(-0.6, -0.4), diagnostics=False
        )
        res = orc.schrodinger_shoot(ac_channel(0.5), ab.Extension.from_xi(-1.0), cfg)
        assert res.E == pytest.approx(-0.5, abs=1e-6)



class TestIndependence:
    """The oracle reaches its levels from the ODE and its Frobenius template
    alone: no level formula, bound profile or Bessel function."""

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
    # evaluations, scan_evaluations
    CASES = {
        "ab-off": (-0.5660020023269642, 1e-12, NAN, NAN, 8, 12),
        "ac-off": (-0.499999999968014, 4.99999999968014e-13, NAN, NAN, 12, 27),
        "ab-on": (-0.5660020023269642, 1e-12, 4.018750437756982, 0.0, 28, 12),
        "ac-on": (-0.499999999968014, 4.99999999968014e-13, 7.267754405159166, 0.0, 38, 27),
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
        *floats, evaluations, scan_evaluations = self.CASES[case]
        got = (res.E, res.match_residual, res.convergence_order_estimate, res.r_min_sensitivity)
        for value, want in zip(got, floats):
            if math.isnan(want):
                assert math.isnan(value)
            else:
                assert value == pytest.approx(want, rel=1e-12, abs=0.0)
        # the residual probe's miss(root) repeats Brent's last evaluation and
        # is served from the per-solve memo, not integrated again
        assert res.evaluations == evaluations
        assert res.scan_evaluations == scan_evaluations


class TestSignScan:
    """A shoot's base solve scans at loose settings up to the first sign
    change and refines from that bracket's ends at the working settings; the
    level count and the diagnostic probes scan at the working settings."""

    @staticmethod
    def sector(monkeypatch, sector, transform=None):
        """(channel, shoot, mismatch calls as (config, E), unwrapped
        mismatch, its leading arguments, base grid in E); transform
        (config, E, value) rewrites the mismatch the shoot sees."""
        if sector == "ab":
            ch = dirac_channel(0.25)
            name, shoot = "_dirac_miss", orc.dirac_shoot
            grid_e = [ch.tau * u for u in orc._scan_grid(orc._GAP_WINDOW, FAST.n_scan)]
            lead = (ch, ch.s * -1.0)
        else:
            ch = ac_channel(0.5)
            name, shoot = "_numerov_ac_miss", orc.schrodinger_shoot
            window = (math.log(1e-8), math.log(1e6))
            grid_e = [-math.exp(y) for y in orc._scan_grid(window, FAST.n_scan)]
            lead = (ch.gamma, 1.0)
        calls = []
        original = getattr(orc, name)

        def wrapped(a, xi_int, cfg, E):
            calls.append((cfg, E))
            value = original(a, xi_int, cfg, E)
            return value if transform is None else transform(cfg, E, value)

        monkeypatch.setattr(orc, name, wrapped)
        return ch, shoot, calls, original, lead, grid_e

    @staticmethod
    def loose(cfg):
        return replace(cfg, numerov_dx=orc._SCAN_DX)

    @staticmethod
    def floats(res):
        fields = (res.E, res.match_residual, res.convergence_order_estimate, res.r_min_sensitivity)
        return [float.hex(x) for x in fields]

    @pytest.mark.parametrize("sector", ["ab", "ac"])
    def test_shoot_stops_at_first_bracket(self, monkeypatch, sector):
        ch, shoot, calls, miss, lead, grid_e = self.sector(monkeypatch, sector)
        loose_cfg = self.loose(FAST)
        # the first bracket of the loose mismatch on the full grid, which is
        # also the working one on this channel
        uppers = []
        for cfg in (loose_cfg, FAST):
            signs = [miss(*lead, cfg, E) > 0.0 for E in grid_e]
            uppers.append(next(i for i in range(1, len(signs)) if signs[i] != signs[i - 1]))
        upper = uppers[0]
        assert uppers == [upper, upper]
        assert upper < len(grid_e) - 1

        res = shoot(ch, ab.Extension.from_xi(-1.0), FAST)
        assert {cfg for cfg, _ in calls} == {loose_cfg, FAST}
        loose = [E for cfg, E in calls if cfg == loose_cfg]
        working = {E for cfg, E in calls if cfg == FAST}
        # the loose scan touches the grid up to the bracket's upper end only
        assert loose == grid_e[: upper + 1]
        # the working integrations are the bracket's ends and points inside it
        lo, hi = sorted((grid_e[upper - 1], grid_e[upper]))
        assert working.intersection(grid_e) == {lo, hi}
        assert all(lo < E < hi for E in working.difference(grid_e))
        assert res.evaluations == len(working)
        assert res.scan_evaluations == len(loose)

    @pytest.mark.parametrize("sector", ["ab", "ac"])
    @pytest.mark.parametrize("fault", ["no-sign-change", "flipped", "shifted"])
    def test_fallback_is_the_working_scan(self, monkeypatch, sector, fault):
        # the loose scan finds no sign change; or its bracket's ends carry
        # the opposite signs of the working ones; or it brackets the first
        # grid interval, where the working mismatch keeps its sign
        def transform(cfg, E, value):
            if cfg.numerov_dx != orc._SCAN_DX:
                return value
            if fault == "no-sign-change":
                return abs(value)
            if fault == "flipped":
                return -value
            return -abs(value) if E == grid_e[0] else abs(value)

        ch, shoot, calls, _, _, grid_e = self.sector(monkeypatch, sector, transform)
        ext = ab.Extension.from_xi(-1.0)
        with monkeypatch.context() as mp:
            mp.setattr(orc, "_SCAN_DX", 0.0)
            want = shoot(ch, ext, FAST)
        assert want.scan_evaluations == 0
        assert {cfg for cfg, _ in calls} == {FAST}
        got = shoot(ch, ext, FAST)
        assert self.floats(got) == self.floats(want)
        # the working scan finds the bracket ends in the solve's memo
        assert got.evaluations == want.evaluations
        n_loose = sum(cfg == self.loose(FAST) for cfg, _ in calls)
        assert got.scan_evaluations == n_loose
        if fault == "no-sign-change":
            assert n_loose == FAST.n_scan
        elif fault == "shifted":
            assert n_loose == 2

    @pytest.mark.parametrize("sector", ["ab", "ac"])
    def test_probes_scan_at_working_settings(self, monkeypatch, sector):
        ch, shoot, calls, _, _, grid_e = self.sector(monkeypatch, sector)
        cfg = orc.ShootingConfig()
        res = shoot(ch, ab.Extension.from_xi(-1.0), cfg)
        loose = [E for c, E in calls if c == self.loose(cfg)]
        assert loose == grid_e[: len(loose)]
        assert res.scan_evaluations == len(loose)
        probes = [c for c, _ in calls if c.n_scan == 9]
        assert probes
        assert all(c.numerov_dx < cfg.numerov_dx for c in probes)
        assert {c for c, _ in calls} == {cfg, self.loose(cfg), *probes}

    def test_config_at_scan_floor_scans_once(self, monkeypatch):
        ch, shoot, calls, *_ = self.sector(monkeypatch, "ab")
        cfg = self.loose(FAST)
        res = shoot(ch, ab.Extension.from_xi(-1.0), cfg)
        assert {c for c, _ in calls} == {cfg}
        assert res.scan_evaluations == 0
        assert res.evaluations == len({E for _, E in calls})

    def test_count_scans_every_grid_point(self, monkeypatch):
        _, _, calls, *_ = self.sector(monkeypatch, "ab")
        cases = ((0.25, -1.0), (0.4, -0.3), (0.6, -2.0), (0.85, -1.0))
        for k, (mu, xi) in enumerate(cases, start=1):
            n = orc.count_dirac_levels(dirac_channel(mu), ab.Extension.from_xi(xi), FAST)
            assert n == 1
            assert len(calls) == k * FAST.n_scan
        assert {cfg for cfg, _ in calls} == {FAST}

    def test_sign_changes_yields_every_bracket_in_order(self):
        seen = []

        def f(x):
            seen.append(x)
            return (x - 1.5) * (x - 3.5) * (x - 6.5)

        scan = orc._sign_changes(f, [float(i) for i in range(9)])
        assert next(scan) == (1.0, 2.0, f(1.0), f(2.0))
        assert max(seen) == 2.0
        assert list(scan) == [(3.0, 4.0, f(3.0), f(4.0)), (6.0, 7.0, f(6.0), f(7.0))]

    def test_sign_changes_exact_zero_opens_a_bracket(self):
        def f(x):
            return x - 2.0

        assert list(orc._sign_changes(f, [0.0, 1.0, 2.0, 3.0, 4.0])) == [(2.0, 3.0, 0.0, 1.0)]


class TestIntegratorKernels:
    """The Numerov kernel against closed-form solutions of the equation it
    solves; a mistyped coefficient shows here as a lost order, not only as a
    far-off level."""

    @pytest.mark.parametrize("sign", [1, -1])
    def test_numerov_exponentials(self, sign):
        # c = 0: y'' = kappa^2 y.  Numerov's phase error is (kappa h)^5/480 per
        # step, so exp(+kappa x) is off by kappa L (kappa h)^4/480 after a
        # span L; exact seeds of exp(-kappa x) also carry a discrete growing
        # mode of relative size (kappa h)^4/960, amplified by exp(2 kappa L)
        kappa, x0, span = 1.5, 0.5, 3.0
        errs = []
        for h in (0.02, 0.01):
            n = round(span / h)
            k = sign * kappa
            _, y_n, log_scale = orc._numerov_pass(
                0.0, kappa * kappa, math.exp(k * x0), math.exp(k * (x0 + h)), x0, h, n
            )
            assert log_scale == 0.0
            err = abs(math.log(y_n) - k * (x0 + n * h))
            kh4 = (kappa * h) ** 4
            bound = kh4 * kappa * span / 480.0
            if sign < 0:
                bound += kh4 * math.exp(2.0 * kappa * span) / 960.0
            assert err <= 2.0 * bound
            errs.append(err)
        assert 14.0 <= errs[0] / errs[1] <= 18.0

    def test_numerov_exponential_through_renormalization(self):
        kappa, x0, h, n = 2.0, 0.5, 0.02, 15000
        _, y_n, log_scale = orc._numerov_pass(
            0.0, kappa * kappa, math.exp(kappa * x0), math.exp(kappa * (x0 + h)), x0, h, n
        )
        assert log_scale == math.log(1e250)
        err = abs(math.log(y_n) + log_scale - kappa * (x0 + n * h))
        assert err <= 2.0 * kappa * (n * h) * (kappa * h) ** 4 / 480.0

    def test_numerov_power_law_exact(self):
        # c = 2, k2 = 0: y = x^2 solves y'' = (2/x^2) y, and Numerov is exact
        # for it, so only rounding remains
        x0, h, n = 1.0, 0.01, 500
        y_prev, y_n, _ = orc._numerov_pass(2.0, 0.0, x0 * x0, (x0 + h) ** 2, x0, h, n)
        assert y_n == pytest.approx((x0 + n * h) ** 2, rel=1e-12)
        assert y_prev == pytest.approx((x0 + (n - 1) * h) ** 2, rel=1e-12)
