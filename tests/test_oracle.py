"""Shooting-oracle tests: agreement with closed forms and analytic levels.

The oracle is the referee for the master-equation energy-sign convention: the
weak-binding run at (l=0, s=-1, mu=0.25, xi=-0.05) must land near E = +m.
That measurement fixed the orientation once and is frozen here as a
regression test.
"""

import math

import pytest

from fluxbound import ab_spectrum as ab
from fluxbound import ac_spectrum as ac
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
                step_control=1e-8 / 32**k,
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
        # a step-like mismatch made Brent bisect: 48 scan + 39 refine
        res = orc.dirac_shoot(dirac_channel(0.25), ab.Extension.from_xi(-1.0), FAST)
        assert res.evaluations <= 60
        assert res.evaluations - FAST.n_scan <= 12


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



class TestGoldenShoots:
    """Every OracleResult field of the golden AB (l=0, s=-1, mu=0.25) and AC
    (gamma=0.5) shoots at xi=-1, with diagnostics off and on."""

    NAN = math.nan
    # E, match_residual, convergence_order_estimate, r_min_sensitivity, evaluations
    CASES = {
        "ab-off": (-0.5660019994861645, 1e-12, NAN, NAN, 54),
        "ac-off": (-0.499999999968014, 4.99999999968014e-13, NAN, NAN, 58),
        "ab-on": (-0.5660019994861645, 1e-12, 4.8708839669526975, 0.0, 80),
        "ac-on": (-0.499999999968014, 4.99999999968014e-13, 7.267754405159166, 0.0, 90),
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
        *floats, evaluations = self.CASES[case]
        got = (res.E, res.match_residual, res.convergence_order_estimate, res.r_min_sensitivity)
        for value, want in zip(got, floats):
            if math.isnan(want):
                assert math.isnan(value)
            else:
                assert value == pytest.approx(want, rel=1e-12, abs=0.0)
        # the residual probe's miss(root) repeats Brent's last evaluation and
        # is served from the per-solve memo, not integrated again
        assert res.evaluations == evaluations
