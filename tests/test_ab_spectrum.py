"""Dirac point-flux sector: channels, extension family, levels, wave functions.

Frozen fixtures: the golden bound level at (l=0, s=-1, mu=0.25, xi=-1) and the
weak-binding referee level at xi=-0.05 were pinned by high-precision root
finding on the master curve and confirmed by the ODE oracle before freezing
(see tests/test_oracle.py and the acceptance suite).
"""

import math
import random

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluxbound import ab_spectrum as ab
from fluxbound import numkernel as nk
from fluxbound import printed as pr

import routes

# frozen golden fixtures
E_GOLDEN = -0.56600199969254444  # l=0, s=-1, mu=0.25, xi=-1
E_REFEREE = 0.9990435200046799  # same channel, xi=-0.05 (weak binding at E -> +m)
XI_AT_ZERO_ENERGY = -0.47798879748612500  # -2^(1/2) Gamma(3/4)/Gamma(1/4)
GAMMA_0_25 = 3.6256099082219083119
GAMMA_0_75 = 1.2254167024651776451
K_NORM_QUARTER = 0.55536036726979578  # int_0^inf z K_{1/4}(z)^2 dz = pi/(4*2 sin(pi/4))


def channel(l=0, s=-1, mu=0.25, m=1.0):
    return ab.DiracChannel(m=m, l=l, s=s, mu=mu)


class TestFluxDecompose:
    def test_positive(self):
        assert ab.flux_decompose(2.7) == (2, pytest.approx(0.7))

    def test_integer(self):
        assert ab.flux_decompose(3.0) == (3, 0.0)

    def test_negative(self):
        n, beta = ab.flux_decompose(-1.3)
        assert n == -2
        assert beta == pytest.approx(0.7)

    @settings(max_examples=80, deadline=None)
    @given(st.floats(min_value=-50.0, max_value=50.0, allow_nan=False))
    def test_exact_recomposition(self, mu):
        n, beta = ab.flux_decompose(mu)
        assert 0.0 <= beta < 1.0
        assert n + beta == pytest.approx(mu, abs=1e-12)


class TestClassifyChannel:
    def test_extended_example(self):
        ch = channel(l=0, s=-1, mu=0.2)
        assert ch.nu_tilde == pytest.approx(-0.3)
        assert ch.nu == pytest.approx(0.3)
        assert ch.tau == 1
        assert ch.regime is ab.Regime.EXTENDED

    def test_critical_at_half_flux(self):
        ch = channel(l=0, s=-1, mu=0.5)
        assert ch.nu_tilde == 0.0
        assert ch.nu == 0.0
        with pytest.raises(ab.RegimeError):
            ch.tau
        assert ch.regime is ab.Regime.CRITICAL

    def test_degenerate_index_relation(self):
        # nu(l, s=+1, mu) = nu(l+1, s=-1, mu)
        a = channel(l=1, s=1, mu=0.4)
        b = channel(l=2, s=-1, mu=0.4)
        assert a.nu == pytest.approx(1.9)
        assert a.nu == pytest.approx(b.nu)
        assert a.regime is ab.Regime.REGULAR

    def test_half_integer_critical(self):
        assert channel(l=1, s=1, mu=0.0).regime is ab.Regime.CRITICAL
        assert channel(l=0, s=-1, mu=1.0).regime is ab.Regime.CRITICAL

    def test_j_eigenvalue(self):
        assert channel(l=2, s=-1, mu=0.1).j == pytest.approx(1.5)


class TestExtension:
    def test_theta_xi_correspondence(self):
        assert ab.Extension.from_theta(0.0).xi == 0.0
        assert math.isinf(ab.Extension.from_theta(math.pi).xi)
        assert ab.Extension.from_xi(math.inf).theta == math.pi

    def test_round_trip(self):
        for xi in (-3.0, -1.0, -0.05, 0.0, 0.7, 12.0):
            assert ab.Extension.from_xi(xi).xi == pytest.approx(xi, rel=1e-14, abs=1e-15)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            ab.Extension.from_theta(-0.1)
        with pytest.raises(ValueError):
            ab.Extension.from_theta(2.0 * math.pi)

    def test_xi_is_stored_exactly(self):
        for k in range(-300, 301):
            for xi in (10.0**k, -(10.0**k)):
                assert ab.Extension.from_xi(xi).xi == xi
        for xi in (-0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308):
            assert ab.Extension.from_xi(xi).xi == xi

    def test_infinities_are_one_extension(self):
        assert ab.Extension.from_xi(math.inf).xi == math.inf
        assert ab.Extension.from_xi(-math.inf).xi == math.inf
        assert ab.Extension(-math.inf) == ab.Extension(math.inf)

    @pytest.mark.parametrize("make", [ab.Extension, ab.Extension.from_xi, ab.Extension.from_theta])
    def test_nan_is_rejected(self, make):
        with pytest.raises(ValueError):
            make(math.nan)

    @pytest.mark.parametrize("xi", [-1e300, -2.0, -1.0, -0.0, 0.0, 1.0, 2.0, 1e300])
    def test_theta_is_derived_in_range(self, xi):
        theta = ab.Extension(xi).theta
        assert 0.0 <= theta < 2.0 * math.pi
        if abs(xi) < 10.0:  # tan loses xi as theta nears pi
            assert ab.Extension.from_theta(theta).xi == pytest.approx(xi, rel=1e-15)


class TestMasterXi:
    def test_zero_mode_limit(self):
        # beta -> 1/2 channel: nu -> 0, xi(E=0) -> -1
        ch = channel(mu=0.5 - 1e-8)
        assert ab.master_xi_of_energy(ch, 0.0) == pytest.approx(-1.0, abs=1e-7)

    def test_quarter_flux_value_at_zero_energy(self):
        ch = channel(mu=0.25)
        want = -math.sqrt(2.0) * GAMMA_0_75 / GAMMA_0_25
        got = ab.master_xi_of_energy(ch, 0.0)
        assert got == pytest.approx(want, rel=1e-13)
        assert got == pytest.approx(XI_AT_ZERO_ENERGY, rel=1e-13)

    def test_reflection_identity_on_energy_grid(self):
        cha = channel(mu=0.3)
        chb = channel(mu=0.7)
        for i in range(-9, 10):
            e = 0.1 * i
            assert ab.master_xi_of_energy(cha, e) == pytest.approx(
                ab.master_xi_of_energy(chb, -e), rel=1e-12
            )

    def test_monotone_one_signed_along_tau_energy(self):
        # d ln|xi| / d(tau E) = (2 nu tau E - m)/lambda^2 < 0: uniqueness, with
        # the orientation fixed by the ODE-oracle referee measurement
        for mu in (0.1, 0.25, 0.4, 0.75):
            ch = channel(mu=mu)
            tau = ch.tau
            previous = None
            for i in range(100):
                u = -0.98 + 1.96 * i / 99.0
                val = ab.log_abs_master_xi(ch, tau * u)
                if previous is not None:
                    assert val < previous
                previous = val

    def test_domain_errors(self):
        with pytest.raises(ab.EnergyDomainError):
            ab.master_xi_of_energy(channel(), 1.5)
        with pytest.raises(ab.RegimeError):
            ab.master_xi_of_energy(channel(mu=0.5), 0.0)


class TestSolveBoundEnergy:
    def test_zero_mode_limit_slope(self):
        # E(xi=-1) vanishes linearly in beta - 1/2 with slope 2(psi(1/2)+ln 2)
        slope = 2.0 * (-0.57721566490153287 - 2.0 * math.log(2.0) + math.log(2.0))
        for delta in (1e-6, 1e-7, 1e-8):
            level = ab.solve_bound_energy(
                channel(mu=0.5 - delta), ab.Extension.from_xi(-1.0)
            )
            assert level.E == pytest.approx(slope * delta, rel=1e-4, abs=1e-14)
        assert abs(slope) == pytest.approx(2.5407257, rel=1e-6)

    def test_golden_quarter_flux(self):
        level = ab.solve_bound_energy(channel(mu=0.25), ab.Extension.from_xi(-1.0))
        assert level.E == pytest.approx(E_GOLDEN, abs=1e-12)
        assert level.residual <= 1e-12
        assert level.lam == pytest.approx(math.sqrt(1.0 - E_GOLDEN**2), rel=1e-12)

    def test_reflected_partner(self):
        level = ab.solve_bound_energy(channel(mu=0.75), ab.Extension.from_xi(-1.0))
        assert level.E == pytest.approx(-E_GOLDEN, abs=1e-12)

    def test_referee_weak_binding(self):
        # tau=+1: xi -> 0^- pushes the level to the upper continuum edge
        level = ab.solve_bound_energy(channel(mu=0.25), ab.Extension.from_xi(-0.05))
        assert level.E == pytest.approx(E_REFEREE, abs=1e-11)
        assert level.E > 0.99

    def test_no_level_for_nonnegative_xi(self):
        assert ab.solve_bound_energy(channel(), ab.Extension.from_xi(0.0)) is None
        assert ab.solve_bound_energy(channel(), ab.Extension.from_xi(2.0)) is None
        assert ab.solve_bound_energy(channel(), ab.Extension.from_xi(math.inf)) is None

    def test_inverse_round_trip_grid(self):
        ch = channel(mu=0.35)
        for i in range(1, 20):
            e0 = -0.95 + 1.9 * i / 19.0
            xi = ab.master_xi_of_energy(ch, e0)
            level = ab.solve_bound_energy(ch, ab.Extension.from_xi(xi))
            assert level.E == pytest.approx(e0, abs=1e-9)

    def test_limits_along_xi(self):
        ch = channel(mu=0.25)  # tau = +1
        e_small = ab.solve_bound_energy(ch, ab.Extension.from_xi(-1e-6)).E
        e_large = ab.solve_bound_energy(ch, ab.Extension.from_xi(-1e6)).E
        assert e_small > 0.999
        assert e_large < -0.999

    def test_flux_periodicity_exact(self):
        ext = ab.Extension.from_xi(-0.7)
        e1 = ab.solve_bound_energy(channel(l=0, mu=0.3), ext).E
        e2 = ab.solve_bound_energy(channel(l=-1, mu=1.3), ext).E
        # identical derived indices up to flux-arithmetic rounding
        assert e2 == pytest.approx(e1, abs=1e-12)

    def test_mass_scaling(self):
        ext = ab.Extension.from_xi(-1.4)
        e1 = ab.solve_bound_energy(channel(mu=0.25, m=1.0), ext).E
        e5 = ab.solve_bound_energy(channel(mu=0.25, m=5.0), ext).E
        assert e5 == pytest.approx(5.0 * e1, rel=1e-12)


def s_form_root(nu, xi):
    """The master level at m = 1 from a 30-digit root of the s-form

        ln|xi| = (1/2 - nu) s + 2 nu ln(1 + e^s) + ln Gamma(1/2+nu)/Gamma(1/2-nu),

    s = ln((1 - u)/(1 + u)), as (u, lambda).  Newton starts at the right end
    of the bracket that the slope bounds 1/2 -+ nu put around the root, and on
    this convex curve it descends monotonically onto it."""
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
                break
        else:
            raise AssertionError(f"s-form Newton did not converge at nu={nu}, xi={xi}")
        return float(-mpmath.tanh(s / 2)), float(1 / mpmath.cosh(s / 2))


# beta = k/200 below 1/2 on both spin families (tau = +1 for s = -1, tau = -1
# for s = +1), and the weak and deep ends at a quarter flux
_GRID = {
    xi: [(l, s, k / 200.0) for k in range(1, 100) for l, s in ((0, -1), (-1, 1))]
    for xi in (-1e-3, -0.01, -0.2, -0.5, -1.0, -2.0, -5.0, -30.0, -1e3)
} | {xi: [(0, -1, 0.25)] for xi in (-1e-4, -1e-6, -1e-12, -1e20, -1e300)}


class TestLogGammaRatio:
    def test_against_mpmath(self):
        # ln Gamma(1/2+nu)/Gamma(1/2-nu) by duplication from the kernel's
        # ln Gamma(1+x)/Gamma(1-x), against mpmath at 40 + |log10 nu| digits
        # (the ratio is O(nu)) over 3000 log-uniform nu in (1e-12, 0.1) and
        # 5000 uniform in (0.1, 1/2).  These read 1.4e-15, at nu = 0.14,
        # where 2 nu lies just right of the kernel's seam at 1/4.  The
        # ratio's own odd series below nu = 0.1 with an lgamma difference
        # above it reads 2.5e-15 on the same draws, over the bound
        rng = random.Random(3002)
        nus = [10.0 ** rng.uniform(-12.0, -1.0) for _ in range(3000)]
        nus += [rng.uniform(0.1, 0.5) for _ in range(5000)]
        worst = 0.0
        for nu in nus:
            if not 0.0 < nu < 0.5:
                continue
            with mpmath.workdps(40 + int(abs(math.log10(nu)))):
                x = mpmath.mpf(nu)
                want = mpmath.loggamma(0.5 + x) - mpmath.loggamma(0.5 - x)
            worst = max(worst, float(abs((ab._log_gamma_ratio(nu) - want) / want)))
        assert worst <= 2e-15


class TestMasterLevelAgainstMpmath:
    @pytest.mark.parametrize("xi", list(_GRID))
    def test_lambda_and_energy(self, xi):
        # abs=0: a lambda of 0 or of an edge clamp's 1.4e-6 must not pass
        # against a true lambda of 1e-70
        for l, s, mu in _GRID[xi]:
            ch = channel(l=l, s=s, mu=mu)
            level = ab.solve_bound_energy(ch, ab.Extension.from_xi(xi))
            u, lam = s_form_root(ch.nu, xi)
            assert level.lam == pytest.approx(lam, rel=1e-12, abs=0.0), (l, s, mu)
            assert level.E == pytest.approx(ch.tau * u, rel=1e-12, abs=1e-15), (l, s, mu)

    @pytest.mark.parametrize("nu", [1.01e-9 * 10 ** (k / 4) for k in range(35)] + [0.1, 0.49])
    def test_near_the_zero_mode(self, nu):
        # xi = -1, where E -> 0 linearly in nu: the Gamma ratio's logarithm
        # must not cancel as nu -> 0 (nu <= 1e-9 is critical), on either side
        # of 1/2 (tau = +-1)
        for mu in (0.5 - nu, 0.5 + nu):
            ch = channel(mu=mu)
            level = ab.solve_bound_energy(ch, ab.Extension.from_xi(-1.0))
            u, lam = s_form_root(ch.nu, -1.0)
            assert level.lam == pytest.approx(lam, rel=1e-14, abs=0.0), mu
            assert level.E == pytest.approx(ch.tau * u, rel=1e-14, abs=0.0), mu


class TestPaperOmega:
    def test_finite_and_real_across_gap(self):
        ch = channel(mu=0.25)
        for i in range(-9, 10):
            val = pr.paper_omega(ch, 0.1 * i)
            assert math.isfinite(val)

    def test_sign_constant_in_energy(self):
        for mu in (0.2, 0.8):
            ch = channel(mu=mu)
            signs = {
                math.copysign(1.0, pr.paper_omega(ch, 0.1 * i)) for i in range(-9, 10)
            }
            assert len(signs) == 1

    def test_duplication_identity_vs_master(self):
        # |omega(0)/(4 s lambda)| = |master xi(0)|
        for mu, s in ((0.25, -1), (0.3, -1), (0.15, 1)):
            ch = ab.DiracChannel(m=1.0, l=0 if s == -1 else -1, s=s, mu=mu)
            if ch.regime is not ab.Regime.EXTENDED:
                continue
            lhs = abs(pr.paper_omega(ch, 0.0) / (4.0 * s * 1.0))
            rhs = abs(ab.master_xi_of_energy(ch, 0.0))
            assert lhs == pytest.approx(rhs, rel=1e-10)


class TestPaperOmegaXi:
    def test_reduces_to_omega_at_xi_zero(self):
        ch = channel(mu=0.25)
        assert pr.paper_omega_xi(ch, ab.Extension.from_xi(0.0), 0.3) == pytest.approx(
            pr.paper_omega(ch, 0.3), rel=1e-14
        )

    def test_linear_in_xi(self):
        ch = channel(mu=0.25)
        e = -0.4
        lam = math.sqrt(1 - e * e)
        w1 = pr.paper_omega_xi(ch, ab.Extension.from_xi(2.0), e)
        w2 = pr.paper_omega_xi(ch, ab.Extension.from_xi(-3.0), e)
        assert w1 - w2 == pytest.approx(4.0 * ch.s * lam * 5.0, rel=1e-12)

    def test_vanishes_at_its_own_root(self):
        # the printed Wronskian form places its gap root at positive xi for
        # s = -1 channels; comparison mode exposes exactly this discrepancy
        ch = channel(mu=0.25)

        def f(e):
            return pr.paper_omega_xi(ch, ab.Extension.from_xi(0.6), e)

        assert f(0.0) * f(0.95) < 0.0
        root = routes.bisect(f, 0.0, 0.95)
        assert abs(f(root)) <= 1e-9 * abs(pr.paper_omega(ch, root))
        g = lambda e: pr.paper_omega_xi(ch, ab.Extension.from_xi(-0.6), e)
        assert g(0.0) * g(0.95) > 0.0  # no root at xi < 0 in the printed form


class TestPaperLevelVariants:
    def test_lev0_approaches_minus_one_at_half_flux(self):
        e = 0.2
        values = []
        for beta in (0.46, 0.48, 0.49, 0.499):
            values.append(pr.paper_level_lhs(channel(mu=beta), e, "lev0"))
        diffs = [abs(v + 1.0) for v in values]
        assert diffs == sorted(diffs, reverse=True)
        assert diffs[-1] < 5e-3

    def test_lev1_at_mirror_flux_reproduces_lev0(self):
        e = 0.55
        lhs0 = pr.paper_level_lhs(channel(mu=0.3), e, "lev0")
        lhs1 = pr.paper_level_lhs(channel(mu=0.7), e, "lev1")
        assert lhs1 == pytest.approx(lhs0, rel=1e-12)

    def test_levab_vs_wronskian_root_ratio(self):
        # the two printed coefficient conventions differ by exactly 2^(2 nu)
        ch = channel(mu=0.25)
        e = -0.37
        lam = math.sqrt(1 - e * e)
        levab = pr.paper_level_lhs(ch, e, "levab")
        wr_root = -pr.paper_omega(ch, e) / (4.0 * ch.s * lam)
        assert levab / wr_root == pytest.approx(-(2.0 ** (2.0 * ch.nu)), rel=1e-12)

    def test_family_restriction(self):
        with pytest.raises(ab.RegimeError):
            pr.paper_level_lhs(ab.DiracChannel(m=1, l=1, s=-1, mu=0.25), 0.1, "lev0")
        with pytest.raises(ab.RegimeError):
            pr.paper_level_lhs(channel(mu=0.7), 0.1, "lev0")


class TestPrintedLevel:
    """printed_level's closed form against a bisection of each printed
    equation, written out here with math.gamma and evaluated in ln(lambda)."""

    @staticmethod
    def printed_equation(ch, variant, xi):
        m, nu, s = ch.m, ch.nu, ch.s
        beta = ch.flux_parts.beta
        g = math.gamma
        w = g(2 * nu) * g(-nu + (1 - s) / 2) / (g(-2 * nu) * g(nu + (1 - s) / 2))
        if variant == "wr00":  # omega_xi / (4 s lambda)
            return lambda y: w * (2 * math.exp(y) / m) ** (-2 * nu) + xi
        if variant == "levab":
            return lambda y: w * (math.exp(y) / m) ** (-2 * nu) - xi
        g0 = g(1 - 2 * beta) * g(0.5 + beta) / (g(2 * beta - 1) * g(1.5 - beta))
        if variant == "lev0":
            return lambda y: g0 * (m / math.exp(y)) ** (2 * beta - 1) - xi
        return lambda y: (1 / g0) * (m / math.exp(y)) ** (1 - 2 * beta) - xi

    @pytest.mark.parametrize(
        "variant, l, s, mu",
        [
            (v, l, s, mu)
            for v in ("wr00", "levab", "lev0", "lev1")
            for l, s in ((0, -1), (-1, 1))
            for mu in (0.3, 0.7)
            if not (v == "lev0" and mu > 0.5 or v == "lev1" and mu < 0.5)
        ],
    )
    @pytest.mark.parametrize("m", [1.0, 2.5])
    def test_closed_form_matches_brent(self, variant, l, s, mu, m):
        ch = ab.DiracChannel(m=m, l=l, s=s, mu=mu)
        for xi in (-0.05, -0.4, -1.0, -4.0):
            ext = ab.Extension.from_xi(xi)
            level = pr.printed_level(ch, ext, variant)
            f = self.printed_equation(ch, variant, ext.xi)
            lo, hi = math.log(m) - 60.0, math.log(m) - 1e-12
            if f(lo) * f(hi) > 0.0:
                assert level is None
                continue
            lam = math.exp(routes.bisect(f, lo, hi))
            sign = math.copysign(1.0, ab.solve_bound_energy(ch, ext).E)
            assert level.lam == pytest.approx(lam, rel=1e-12)
            assert level.E == pytest.approx(sign * math.sqrt(m * m - lam * lam), rel=1e-12)
            assert level.residual <= 1e-14 * abs(xi)

    def test_every_variant_has_a_level_somewhere(self):
        # levab and lev0/lev1 have roots on s = -1 channels, wr00 on s = +1;
        # wr00/levab need |xi| above the prefactor, lev0/lev1 below it
        found = {
            v: pr.printed_level(channel(l=l, s=s, mu=mu), ab.Extension.from_xi(xi), v)
            for v, l, s, mu, xi in (("wr00", -1, 1, 0.3, -1.0), ("levab", 0, -1, 0.3, -1.0),
                                    ("lev0", 0, -1, 0.3, -0.4), ("lev1", 0, -1, 0.7, -0.4))
        }
        assert all(level is not None and 0.0 < level.lam < 1.0 for level in found.values())

    def test_no_master_level_means_none(self):
        for v in ("wr00", "levab", "lev0"):
            assert pr.printed_level(channel(mu=0.3), ab.Extension.from_xi(0.5), v) is None

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            pr.printed_level(channel(), ab.Extension.from_xi(-1.0), "lev0lev1")


class TestSpectralDensity:
    def test_omega_xi_nonvanishing_on_continuum(self):
        ch = channel(mu=0.25)
        ext = ab.Extension.from_xi(-1.0)
        for i in range(60):
            e = 1.001 + (10.0 - 1.001) * i / 59.0
            assert abs(pr.omega_xi_continued(ch, ext, e)) > 0.0
            assert abs(pr.omega_xi_continued(ch, ext, -e)) > 0.0

    def test_density_nonnegative_and_continuous(self):
        ch = channel(mu=0.25)
        for xi in (-3.0, -1.0, 0.0, 0.5):
            ext = ab.Extension.from_xi(xi)
            k_lo = math.sqrt(1.001**2 - 1.0)
            k_hi = math.sqrt(100.0 - 1.0)
            ks = [k_lo * (k_hi / k_lo) ** (i / 399.0) for i in range(400)]
            dens = [
                pr.spectral_density(ch, ext, math.sqrt(1.0 + k * k))
                for k in ks
            ]
            assert min(dens) >= 0.0
            # continuity: smooth power law in k into the integrable edge
            # divergence at |E| -> m, so log-jumps on a log-k grid are small
            logjumps = [
                abs(math.log(dens[i + 1]) - math.log(dens[i])) for i in range(399)
            ]
            assert max(logjumps) < 0.1

    def test_pointwise_limit_xi_to_zero(self):
        ch = channel(mu=0.25)
        for e in (1.5, 3.0, -2.2):
            d0 = pr.spectral_density(ch, ab.Extension.from_xi(0.0), e)
            d1 = pr.spectral_density(ch, ab.Extension.from_xi(-1e-9), e)
            assert d1 == pytest.approx(d0, rel=1e-6)

    def test_gap_energies_rejected(self):
        with pytest.raises(ab.EnergyDomainError):
            pr.spectral_density(channel(), ab.Extension.from_xi(-1.0), 0.5)


class TestBoundDoublet:
    def test_zero_mode_shape(self):
        # E = 0 doublet approaches sqrt(m r) K_{1/2}(m r) (1, s); componentwise
        # deviation is O(nu) through the MacDonald orders 1/2 -+ nu
        ch = channel(mu=0.5 - 1e-8)
        level = ab.solve_bound_energy(ch, ab.Extension.from_xi(-1.0))
        doublet = ab.bound_doublet(level)
        c_ref = math.sqrt(2.0 / math.pi)  # normalizes 2*(pi/2) e^{-2r}
        for r in (0.05, 0.3, 1.0, 2.5, 6.0):
            want = c_ref * math.sqrt(math.pi / 2.0) * math.exp(-r)
            f1, f2 = doublet(r)
            assert f1 == pytest.approx(want, rel=1e-7)
            assert f2 == pytest.approx(ch.s * want, rel=1e-7)

    def test_component_orders_are_beta_and_one_minus_beta(self):
        # l+n=0, s=-1: orders {beta, 1-beta}
        ch = channel(mu=0.25)
        level = ab.solve_bound_energy(ch, ab.Extension.from_xi(-1.0))
        doublet = ab.bound_doublet(level)
        lam = level.lam
        w = ch.s * math.sqrt((1 - level.E) / (1 + level.E))
        r = 0.8
        f1, f2 = doublet(r)
        ratio = f2 / f1
        want = w * nk.bessel_k(0.75, lam * r) / nk.bessel_k(0.25, lam * r)
        assert ratio == pytest.approx(want, rel=1e-10)

    def test_satisfies_radial_system(self):
        ch = channel(mu=0.25)
        level = ab.solve_bound_energy(ch, ab.Extension.from_xi(-1.4))
        doublet = ab.bound_doublet(level)
        s, nut, e_val = ch.s, ch.nu_tilde, level.E

        def resid(r):
            h = 1e-4 * max(r, 0.3)

            def deriv(i):
                vals = [doublet(r + k * h)[i] for k in (-2, -1, 1, 2)]
                return (vals[0] - 8 * vals[1] + 8 * vals[2] - vals[3]) / (12 * h)

            f1, f2 = doublet(r)
            r1 = s * deriv(1) + (nut / r) * f2 - (e_val - 1.0) * f1
            r2 = -s * deriv(0) + (nut / r) * f1 - (e_val + 1.0) * f2
            scale = max(abs(f1), abs(f2)) * max(1.0, 1.0 / r)
            return max(abs(r1), abs(r2)) / scale

        for r in (0.4, 1.0, 2.0, 5.0):
            assert resid(r) <= 1e-6

    def test_boundary_condition_round_trip(self):
        for mu, xi in ((0.25, -1.0), (0.1, -0.3), (0.4, -2.5), (0.75, -1.0)):
            ch = channel(mu=mu)
            level = ab.solve_bound_energy(ch, ab.Extension.from_xi(xi))
            doublet = ab.bound_doublet(level)
            fitted = routes.fit_boundary_xi(doublet, ch)
            assert fitted == pytest.approx(xi, rel=1e-8, abs=1e-10)

    def test_declared_small_r_slopes(self):
        # log-log slope fit over r in [1e-6, 1e-4]; channel with well-separated
        # branch exponents so the window fit resolves 1e-3
        ch = channel(mu=0.4)  # nu = 0.1, tau = +1
        level = ab.solve_bound_energy(ch, ab.Extension.from_xi(-1.0))
        doublet = ab.bound_doublet(level)
        for comp, expo in ((0, 0.1), (1, -0.1)):
            radii = [1e-6 * 10 ** (2.0 * i / 12) for i in range(13)]
            xs = [math.log(r) for r in radii]
            ys = [math.log(abs(doublet(r)[comp])) for r in radii]
            n = len(xs)
            xbar, ybar = sum(xs) / n, sum(ys) / n
            slope = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) / sum(
                (x - xbar) ** 2 for x in xs
            )
            assert slope == pytest.approx(expo, abs=1e-3)
            assert doublet.small_r_exponents[comp] == pytest.approx(expo, abs=1e-12)

    def test_norm_closed_form(self):
        # int_0^inf z K_a(z)^2 dz = pi a / (2 sin(pi a))
        ch = channel(mu=0.25)
        level = ab.solve_bound_energy(ch, ab.Extension.from_xi(-1.0))
        lam, e_val = level.lam, level.E
        w2 = (1 - e_val) / (1 + e_val)
        i1 = math.pi * 0.25 / (2.0 * math.sin(math.pi * 0.25))
        i2 = math.pi * 0.75 / (2.0 * math.sin(math.pi * 0.75))
        assert i1 == pytest.approx(K_NORM_QUARTER, rel=1e-13)
        norm_c1_sq = lam * (i1 + w2 * i2) / lam**2
        doublet = ab.bound_doublet(level)
        r = 1.3
        f1 = doublet(r)[0]
        want = math.sqrt(lam * r) * nk.bessel_k(0.25, lam * r) / math.sqrt(norm_c1_sq)
        assert abs(f1) == pytest.approx(abs(want), rel=1e-9)

    def test_normalized_without_quadrature(self):
        for mu, xi in ((0.25, -1.0), (0.05, -5.0), (0.45, -0.2)):
            level = ab.solve_bound_energy(channel(mu=mu), ab.Extension.from_xi(xi))
            f1, f2 = ab.bound_doublet(level)(1.3)
            assert math.isfinite(f1) and math.isfinite(f2)
            assert f1 != 0.0 and f2 != 0.0

    @pytest.mark.parametrize("mu", [0.05, 0.25, 0.45, 0.55, 0.95])
    @pytest.mark.parametrize("l, s", [(0, -1), (-1, 1)])
    @pytest.mark.parametrize("xi", [-0.2, -1.0, -5.0])
    def test_unit_norm(self, mu, l, s, xi, semiline_integral):
        # (l, s) = (0, -1) and (-1, 1) share nu = |mu - 1/2| with opposite
        # tau; the closed-form norm against graded mpmath quadrature
        ch = channel(l=l, s=s, mu=mu)
        level = ab.solve_bound_energy(ch, ab.Extension.from_xi(xi))
        doublet = ab.bound_doublet(level)

        def density(r):
            f1, f2 = doublet(r)
            return f1 * f1 + f2 * f2

        norm = semiline_integral(density, level.lam, singular_exponent=2.0 * ch.nu)
        assert norm == pytest.approx(1.0, rel=1e-12)

    def test_energy_rounded_to_the_edge(self):
        # E rounds to -m exactly while lambda = 1.05e-8 m; the doublet is the
        # closed form C sqrt(lam r) (sqrt(m+E) K_1/4, s sqrt(m-E) K_3/4)
        ch = channel(mu=0.25)
        level = ab.solve_bound_energy(ch, ab.Extension.from_xi(-883873354192.0))
        assert level.E == -1.0
        assert level.lam == pytest.approx(s_form_root(ch.nu, level.xi)[1], rel=1e-12, abs=0.0)
        doublet = ab.bound_doublet(level)
        with mpmath.workdps(30):
            lam = mpmath.mpf(level.lam)
            e_val = -mpmath.sqrt(1 - lam * lam)
            w1, w2 = mpmath.sqrt(1 + e_val), mpmath.sqrt(1 - e_val)

            def norm_integral(a):
                return mpmath.pi * a / (2 * mpmath.sin(mpmath.pi * a))

            c = mpmath.sqrt(lam / (w1**2 * norm_integral(0.25) + w2**2 * norm_integral(0.75)))
            for r in (0.1, 1.0, 10.0):
                z = lam * r
                want1 = float(c * mpmath.sqrt(z) * w1 * mpmath.besselk(0.25, z))
                want2 = float(c * ch.s * mpmath.sqrt(z) * w2 * mpmath.besselk(0.75, z))
                f1, f2 = doublet(r)
                assert f1 == pytest.approx(want1, rel=1e-13, abs=0.0)
                assert f2 == pytest.approx(want2, rel=1e-13, abs=0.0)

    def test_underflowed_lambda_is_a_domain_error(self):
        level = ab.solve_bound_energy(channel(mu=0.25), ab.Extension.from_xi(-1e-300))
        assert level.lam == 0.0
        with pytest.raises(ab.EnergyDomainError):
            ab.bound_doublet(level)


class TestContinuumDoublet:
    def test_regular_regime_leading_power(self):
        ch = ab.DiracChannel(m=1.0, l=1, s=1, mu=0.4)  # nu = 1.9, regular
        doublet = ab.continuum_doublet(ch, ab.Extension.from_xi(-1.0), 1.7)
        r1, r2 = 1e-6, 4e-6
        f1a = doublet(r1)[0]
        f1b = doublet(r2)[0]
        slope = math.log(abs(f1b / f1a)) / math.log(r2 / r1)
        assert slope == pytest.approx(1.9, abs=1e-3)

    def test_xi_zero_is_regular_branch(self):
        ch = channel(mu=0.25)
        d0 = ab.continuum_doublet(ch, ab.Extension.from_xi(0.0), 1.5)
        r1, r2 = 1e-6, 4e-6
        slope = math.log(abs(d0(r2)[0] / d0(r1)[0])) / math.log(r2 / r1)
        assert slope == pytest.approx(ch.nu, abs=1e-3)

    def test_xi_infinite_is_minus_irregular_branch(self):
        ch = channel(mu=0.25)
        dinf = ab.continuum_doublet(ch, ab.Extension.from_xi(math.inf), 1.5)
        slope = math.log(abs(dinf(4e-6)[1] / dinf(1e-6)[1])) / math.log(4.0)
        assert slope == pytest.approx(-ch.nu, abs=1e-3)
        # sign: -U2 template means the irregular carrier is negative of (mr)^-nu
        assert dinf(1e-6)[1] < 0.0

    @pytest.mark.parametrize("mu", [0.1, 0.25, 0.4, 0.6, 0.75, 0.9])
    def test_pieces_lead_with_two(self, mu):
        # nu = 0.4, 0.25, 0.1 at tau = +1, then 0.1, 0.25, 0.4 at tau = -1.
        # xi = 0 gives U1, whose carrying component is 2 (m r)^nu times
        # 1 + O((k r)^2); xi = infinity gives -U2, whose companion is
        # -2 (m r)^(-nu) to the same order
        ch = channel(mu=mu, m=2.5)
        nu, carrying = ch.nu, 0 if ch.tau == 1 else 1
        r = 1e-8
        for e_val in (3.0, -5.0, 10.0):
            d0 = ab.continuum_doublet(ch, ab.Extension.from_xi(0.0), e_val)
            dinf = ab.continuum_doublet(ch, ab.Extension.from_xi(math.inf), e_val)
            assert d0(r)[carrying] / (2.5 * r) ** nu == pytest.approx(2.0, rel=1e-12)
            assert dinf(r)[1 - carrying] / (2.5 * r) ** -nu == pytest.approx(-2.0, rel=1e-12)

    def test_boundary_condition_round_trip(self):
        ch = channel(mu=0.25)
        for e_val in (1.5, -2.0):
            doublet = ab.continuum_doublet(ch, ab.Extension.from_xi(-1.0), e_val)
            assert routes.fit_boundary_xi(doublet, ch) == pytest.approx(-1.0, rel=1e-8)

    def test_solves_radial_system(self):
        ch = channel(mu=0.3)
        e_val = 2.1
        doublet = ab.continuum_doublet(ch, ab.Extension.from_xi(-0.8), e_val)
        s, nut = ch.s, ch.nu_tilde

        def resid(r):
            h = 1e-4

            def deriv(i):
                vals = [doublet(r + k * h)[i] for k in (-2, -1, 1, 2)]
                return (vals[0] - 8 * vals[1] + 8 * vals[2] - vals[3]) / (12 * h)

            f1, f2 = doublet(r)
            r1 = s * deriv(1) + (nut / r) * f2 - (e_val - 1.0) * f1
            r2 = -s * deriv(0) + (nut / r) * f1 - (e_val + 1.0) * f2
            return max(abs(r1), abs(r2)) / max(abs(f1), abs(f2))

        for r in (0.7, 1.9):
            assert resid(r) <= 1e-6

    @pytest.mark.parametrize("beta", [0.1, 0.3, 0.45])
    @pytest.mark.parametrize("xi", [-1.0, 0.0, 0.5, math.inf])
    def test_mirror_flux_swaps_components(self, beta, xi):
        # the 1 - beta channel has the opposite tau: it is the beta channel at
        # -E with its two components swapped
        ext = ab.Extension.from_xi(xi)
        for e_val in (-4.0, -1.5, 1.5, 4.0):
            d = ab.continuum_doublet(channel(mu=1.0 - beta), ext, e_val)
            mirror = ab.continuum_doublet(channel(mu=beta), ext, -e_val)
            assert d.small_r_exponents == pytest.approx(mirror.small_r_exponents[::-1], rel=1e-14)
            for r in (1e-4, 0.05, 0.4, 1.3, 3.7, 9.0):
                got, want = d(r), mirror(r)[::-1]
                scale = math.hypot(*want)
                assert abs(got[0] - want[0]) <= 1e-12 * scale
                assert abs(got[1] - want[1]) <= 1e-12 * scale

    def test_edge_energy_rejected(self):
        with pytest.raises(ab.EnergyDomainError):
            ab.continuum_doublet(channel(), ab.Extension.from_xi(-1.0), 0.9)
        with pytest.raises(ab.EnergyDomainError):
            ab.continuum_doublet(channel(), ab.Extension.from_xi(-1.0), 1.0)


class TestConjugateChannel:
    def test_involution(self):
        ch = channel(l=2, s=-1, mu=0.3)
        ext = ab.Extension.from_xi(-0.8)
        twice_ch, twice_ext = routes.conjugate_channel(*routes.conjugate_channel(ch, ext))
        assert twice_ch == ch
        assert twice_ext == ext

    def test_indices_invariant_curve_identical(self):
        ch = channel(mu=0.25)
        ext = ab.Extension.from_xi(-1.0)
        mapped, mext = routes.conjugate_channel(ch, ext)
        assert mapped.nu_tilde == -ch.nu_tilde
        assert mapped.s == -ch.s
        assert mapped.nu == ch.nu
        assert mapped.tau == ch.tau
        for e in (-0.6, 0.0, 0.4):
            assert ab.master_xi_of_energy(mapped, e) == pytest.approx(
                ab.master_xi_of_energy(ch, e), rel=1e-12
            )
        assert ab.solve_bound_energy(mapped, mext).E == pytest.approx(
            ab.solve_bound_energy(ch, ext).E, abs=1e-12
        )

    def test_zero_mode_channel_maps_to_zero_mode_channel(self):
        ch = channel(mu=0.5)  # nu = 0 critical (midgap zero-mode channel)
        mapped, _ = routes.conjugate_channel(ch, ab.Extension.from_xi(-1.0))
        assert mapped.nu == 0.0
        assert mapped.regime is ab.Regime.CRITICAL
