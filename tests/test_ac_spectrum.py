"""Neutral-fermion sector: classification, closed forms, wave functions."""

import math
import re

import mpmath
import pytest

from fluxbound import ac_spectrum as ac
from fluxbound.ab_spectrum import EnergyDomainError, Extension, RegimeError

import routes

EULER = 0.5772156649015328606
E0_LOG_CASE = -0.17065062030470425  # -4 exp(2(-1 - euler))


def channel(gamma=0.5, m=1.0):
    # l = 0, zeta = +1, coupling = -gamma gives index gamma directly
    return ac.ACChannel(m=m, coupling=-gamma, l=0, zeta=1)


class TestClassify:
    def test_extended(self):
        ch = ac.ACChannel(m=1.0, coupling=-0.3, l=0, zeta=1)
        assert ch.gamma == pytest.approx(0.3)
        assert ch.regime is ac.ACRegime.EXTENDED

    def test_log_critical(self):
        ch = ac.ACChannel(m=1.0, coupling=-1.0, l=1, zeta=1)
        assert ch.gamma == 0.0
        assert ch.regime is ac.ACRegime.LOG_CRITICAL

    def test_regular(self):
        ch = ac.ACChannel(m=1.0, coupling=-0.3, l=2, zeta=1)
        assert ch.gamma == pytest.approx(1.7)
        assert ch.regime is ac.ACRegime.REGULAR

    def test_boundary_tolerance(self):
        assert ac.ACChannel(m=1.0, coupling=-1.0 + 1e-12, l=1, zeta=1).regime is (
            ac.ACRegime.LOG_CRITICAL
        )
        assert ac.ACChannel(m=1.0, coupling=-1.0, l=2, zeta=1).regime is (
            ac.ACRegime.REGULAR
        )


class TestWronskian:
    def test_small_gamma_limit(self):
        assert ac.ac_wronskian(channel(gamma=1e-6), -0.7) == pytest.approx(1.0, abs=1e-4)

    def test_half_gamma_consistency_with_level_equation(self):
        # at the gamma=1/2, xi=-1 level E_n=-m/2 the level equation reads
        # omega(E_n) = -xi = 1; Gamma(3/2)/Gamma(1/2) * (2m/kappa)^1 = (1/2)*2
        assert ac.ac_wronskian(channel(0.5), -0.5) == pytest.approx(1.0, rel=1e-12)

    def test_monotone_in_binding(self):
        ch = channel(0.4)
        vals = [ac.ac_wronskian(ch, e) for e in (-0.01, -0.1, -1.0, -10.0)]
        assert vals == sorted(vals, reverse=True)

    def test_domain(self):
        with pytest.raises(EnergyDomainError):
            ac.ac_wronskian(channel(0.4), 0.3)
        with pytest.raises(RegimeError):
            ac.ac_wronskian(channel(1.4), -0.3)


class TestBoundEnergy:
    def test_half_gamma_closed_form(self):
        level = ac.ac_bound_energy(channel(0.5), Extension.from_xi(-1.0))
        assert level.E_n == pytest.approx(-0.5, rel=1e-12)
        assert level.kappa == pytest.approx(1.0, rel=1e-12)
        assert level.residual <= 1e-10

    def test_residual_is_the_wronskian_mismatch(self):
        # the level's residual is |omega(E_n) + xi| of the public Wronskian,
        # bit for bit, over gamma from 1e-6 to 0.99 (log-spaced); xi stays
        # near -1, where the level at gamma = 1e-6 is inside the double range
        for i in range(121):
            g = 1e-6 * (0.99 / 1e-6) ** (i / 120)
            for m, xi in ((1.0, -1.0), (2.5, -1.0001), (0.4, -0.9999)):
                ch = channel(g, m=m)
                level = ac.ac_bound_energy(ch, Extension.from_xi(xi))
                assert level.residual == abs(ac.ac_wronskian(ch, level.E_n) + xi)

    @pytest.mark.parametrize("gamma", [0.01, 0.2, 0.25, 0.5, 0.99])
    def test_one_gamma_pass_per_level(self, monkeypatch, gamma):
        # the level and its residual share one log ratio: Gamma(1 + gamma)
        # and Gamma(1 - gamma) are computed once from 0.25 up, where the
        # kernel takes the log of their quotient, and never below, where it
        # sums the odd series
        calls = []
        original = ac.nk.gamma_fn

        def counted(x):
            calls.append(x)
            return original(x)

        monkeypatch.setattr(ac.nk, "gamma_fn", counted)
        ac.ac_bound_energy(channel(gamma), Extension.from_xi(-1.0))
        assert calls == ([1.0 + gamma, 1.0 - gamma] if gamma >= 0.25 else [])

    def test_log_critical_closed_form(self):
        ch = ac.ACChannel(m=1.0, coupling=-1.0, l=1, zeta=1)
        level = ac.ac_bound_energy(ch, Extension.from_xi(-1.0))
        assert level.E_n == pytest.approx(E0_LOG_CASE, rel=1e-12)

    def test_weak_coupling_limit(self):
        vals = [
            ac.ac_bound_energy(channel(0.3), Extension.from_xi(xi)).E_n
            for xi in (-1.0, -10.0, -100.0)
        ]
        assert vals[0] < vals[1] < vals[2] < 0.0

    def test_none_for_nonbinding_extension(self):
        for xi in (0.0, 0.7, math.inf):
            assert ac.ac_bound_energy(channel(0.5), Extension.from_xi(xi)) is None
            ch0 = ac.ACChannel(m=1.0, coupling=-1.0, l=1, zeta=1)
            assert ac.ac_bound_energy(ch0, Extension.from_xi(xi)) is None

    def test_regular_regime_error(self):
        with pytest.raises(RegimeError):
            ac.ac_bound_energy(channel(1.2), Extension.from_xi(-1.0))

    @pytest.mark.parametrize(
        "gamma, xi",
        [
            (0.001, -0.001),  # (-xi)^(-1/gamma) overflows the float power
            (0.5, -1e-300),  # E_n overflows
            (0.5, -1e300),  # E_n underflows to -0.0
            (0.0, -1e3),  # log chart: E_0 underflows
        ],
    )
    def test_level_outside_the_double_range(self, gamma, xi):
        with pytest.raises(EnergyDomainError, match=re.escape(f"gamma={gamma!r}, xi={xi!r}")):
            ac.ac_bound_energy(channel(gamma), Extension.from_xi(xi))

    def test_xi_enters_exactly(self):
        # E_n is proportional to xi^(-1/gamma) = xi^-2 at gamma = 1/2, so the
        # xi = -1e-10 level is the xi = -1 one times 1e20 to rounding; each is
        # -m/(2 xi^2) up to the kernel's Gamma(1/2)/Gamma(3/2), 2(1 - 8e-16)
        ch = channel(0.5)
        deep = ac.ac_bound_energy(ch, Extension.from_xi(-1e-10)).E_n
        unit = ac.ac_bound_energy(ch, Extension.from_xi(-1.0)).E_n
        assert deep == pytest.approx(1e20 * unit, rel=1e-15, abs=0.0)
        assert deep == pytest.approx(-5e19, rel=2e-15, abs=0.0)

    def test_mass_scaling(self):
        e1 = ac.ac_bound_energy(channel(0.35, m=1.0), Extension.from_xi(-2.2)).E_n
        e7 = ac.ac_bound_energy(channel(0.35, m=7.0), Extension.from_xi(-2.2)).E_n
        assert e7 == pytest.approx(7.0 * e1, rel=1e-12)

    def test_monotone_in_xi(self):
        # strictly monotone along xi < 0, shallow (E -> 0^-) as xi -> -inf and
        # unboundedly deep as xi -> 0^-, on both parameter charts
        ch = channel(0.6)
        vals = [
            ac.ac_bound_energy(ch, Extension.from_xi(xi)).E_n
            for xi in (-10.0, -3.0, -1.0, -0.3, -0.1)
        ]
        assert all(0.0 > vals[i] > vals[i + 1] for i in range(len(vals) - 1))
        ch0 = ac.ACChannel(m=1.0, coupling=-2.0, l=2, zeta=1)
        logs = [
            ac.ac_bound_energy(ch0, Extension.from_xi(xi)).E_n
            for xi in (-3.0, -1.0, -0.2)
        ]
        assert 0.0 > logs[0] > logs[1] > logs[2]


def test_levels_against_mpmath():
    # xi = -1, so the level is -2m (Gamma(1-gamma)/Gamma(1+gamma))^(-1/gamma)
    # with no rounding in xi: the error is that of the Gamma ratio's log
    # times 1/gamma, so a log that lost eps/gamma would show as gamma -> 0;
    # 0.3554 and 0.8783 are the worst points of 1900-point scans; the
    # cross-check bisects y = ln(kappa/m) to neighbouring doubles and reads
    # 7.6e-16 at worst here
    gammas = [10.0 ** (-k / 4) for k in range(1, 37)] + [0.1, 0.25, 0.3554, 0.5, 0.8783, 0.99]
    ext = Extension.from_xi(-1.0)
    with mpmath.workdps(30):
        for g in gammas:
            ch = channel(g, m=2.5)
            big_g = mpmath.mpf(ch.gamma)
            want = -5 * (mpmath.gamma(1 - big_g) / mpmath.gamma(1 + big_g)) ** (-1 / big_g)
            closed = ac.ac_bound_energy(ch, ext)
            assert closed.E_n == pytest.approx(float(want), rel=1e-14, abs=0.0)
            solved = routes.ac_solve_cross_check(ch, ext)
            assert solved.E_n == pytest.approx(float(want), rel=5e-15, abs=0.0)


class TestCrossCheck:
    def test_agrees_with_closed_form_on_grid(self):
        for g in (0.1, 0.3, 0.5, 0.7, 0.9):
            for xi in (-10.0, -3.0, -1.0, -0.3, -0.1):
                ch = channel(g)
                ext = Extension.from_xi(xi)
                closed = ac.ac_bound_energy(ch, ext)
                solved = routes.ac_solve_cross_check(ch, ext)
                assert solved.E_n == pytest.approx(closed.E_n, abs=1e-9 * max(1, abs(closed.E_n)))
                assert solved.residual <= 1e-10

    def test_specific_points(self):
        solved = routes.ac_solve_cross_check(channel(0.5), Extension.from_xi(-1.0))
        assert solved.E_n == pytest.approx(-0.5, abs=1e-9)
        ch = channel(0.3)
        ext = Extension.from_xi(-2.0)
        assert routes.ac_solve_cross_check(ch, ext).E_n == pytest.approx(
            ac.ac_bound_energy(ch, ext).E_n, abs=1e-9
        )


class TestSpecialLevels:
    def test_half_coupling_reduces_to_half_gamma(self):
        e0, e1 = ac.ac_special_levels(0.5, Extension.from_xi(-1.0))
        assert e0 == pytest.approx(-0.5, rel=1e-12)
        assert e1 == pytest.approx(-0.5, rel=1e-12)

    def test_degeneracy_map(self):
        ext = Extension.from_xi(-1.0)
        e0_c, _ = ac.ac_special_levels(0.3, ext)
        _, e1_mirror = ac.ac_special_levels(0.7, ext)
        assert e0_c == pytest.approx(e1_mirror, rel=1e-12)

    def test_matches_generic_formula(self):
        ext = Extension.from_xi(-1.7)
        e0, _ = ac.ac_special_levels(0.4, ext)
        level = ac.ac_bound_energy(channel(0.4), ext)
        assert e0 == pytest.approx(level.E_n, rel=1e-12)

    def test_domain(self):
        with pytest.raises(EnergyDomainError):
            ac.ac_special_levels(1.2, Extension.from_xi(-1.0))


@pytest.mark.parametrize("c, xi", [(0.001, -0.001), (0.5, -1e300)])
def test_special_levels_beyond_the_double_range(c, xi):
    # E0 overflows at c = 0.001 and underflows at xi = -1e300
    with pytest.raises(EnergyDomainError):
        ac.ac_special_levels(c, Extension.from_xi(xi))


class TestWavefunction:
    def test_unit_norm(self, semiline_integral):
        level = ac.ac_bound_energy(channel(0.5), Extension.from_xi(-1.0))
        wf = ac.ac_wavefunction(level)
        total = semiline_integral(lambda r: wf(r)[0] ** 2, decay_rate=level.kappa)
        assert total == pytest.approx(1.0, abs=1e-8)
        assert wf(1.0)[1] == 0.0

    @pytest.mark.parametrize("gamma", [0.0, 1e-10, 0.5, 0.95])
    def test_closed_form_norm_matches_quadrature(self, gamma, semiline_integral):
        level = ac.ac_bound_energy(channel(gamma, m=2.5), Extension.from_xi(-1.0))
        wf = ac.ac_wavefunction(level)
        total = semiline_integral(
            lambda r: wf(r)[0] ** 2,
            decay_rate=level.kappa,
            singular_exponent=max(0.0, 2.0 * gamma - 1.0),
        )
        assert total == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("gamma", [0.0, 1e-10, 0.5, 0.95])
    def test_normalized_without_quadrature(self, gamma):
        level = ac.ac_bound_energy(channel(gamma, m=2.5), Extension.from_xi(-1.0))
        value = ac.ac_wavefunction(level)(0.7)[0]
        assert math.isfinite(value) and value > 0.0

    def test_half_gamma_pure_exponential_shape(self):
        level = ac.ac_bound_energy(channel(0.5), Extension.from_xi(-1.0))
        wf = ac.ac_wavefunction(level)
        # K_{1/2} form: f proportional to exp(-kappa r), normalized on (0, inf)
        want_const = math.sqrt(2.0 * level.kappa)
        for r in (0.1, 0.5, 1.5, 4.0):
            assert wf(r)[0] == pytest.approx(
                want_const * math.exp(-level.kappa * r), rel=1e-9
            )

    def test_boundary_round_trip(self):
        for g, xi in ((0.1, -0.4), (0.45, -1.0), (0.8, -3.0), (0.95, -0.2)):
            ch = channel(g)
            level = ac.ac_bound_energy(ch, Extension.from_xi(xi))
            wf = ac.ac_wavefunction(level)
            assert routes.fit_ac_boundary_xi(wf, ch, level.kappa) == pytest.approx(
                xi, rel=1e-8
            )

    def test_declared_small_r_slope(self):
        level = ac.ac_bound_energy(channel(0.5), Extension.from_xi(-1.0))
        wf = ac.ac_wavefunction(level)
        radii = [1e-6 * 10 ** (2.0 * i / 12) for i in range(13)]
        xs = [math.log(r) for r in radii]
        ys = [math.log(abs(wf(r)[0])) for r in radii]
        n = len(xs)
        xbar, ybar = sum(xs) / n, sum(ys) / n
        slope = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) / sum(
            (x - xbar) ** 2 for x in xs
        )
        assert slope == pytest.approx(0.5 - 0.5, abs=1e-3)
        assert wf.small_r_exponents[0] == pytest.approx(0.0, abs=1e-12)


class TestContinuum:
    def test_omega_xi_nonzero_and_density_nonnegative(self):
        ch = channel(0.35)
        for xi in (-3.0, -1.0, 0.0, 1.5):
            ext = Extension.from_xi(xi)
            for i in range(80):
                e = 1e-3 * (2e4) ** (i / 79.0)
                w = ac.ac_omega_xi_continued(ch, ext, e)
                assert abs(w) > 0.0
                assert ac.ac_spectral_density(ch, ext, e) >= 0.0

    def test_density_domain(self):
        with pytest.raises(EnergyDomainError):
            ac.ac_omega_xi_continued(channel(0.35), Extension.from_xi(-1.0), -0.5)
