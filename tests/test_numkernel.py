"""Kernel tests: gamma, Bessel J/K, the closed-form K norm, the level line.

Expected values are either closed forms, high-precision reference constants,
computed by independent oracles implemented here (stdlib-lgamma series
summation for J, trapezoidal integral representation for K), or mpmath
values over the arguments the package passes.
"""

import math
import random

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fluxbound import numkernel as nk

SQRT_PI = 1.7724538509055160273
EULER = 0.5772156649015328606

# high-precision reference constants
GAMMA_0_25 = 3.6256099082219083119
GAMMA_0_75 = 1.2254167024651776451
GAMMA_0_20 = 4.5908437119988030532
J_M03_07 = 0.87739961945947696334
J_05_9003 = 0.025868827611019361101
J_123_550 = -0.021203284241018153095
J_M123_35 = 0.093689348036128191064
J_40_1000 = 0.013889378035385042345
J_M4025_990 = -0.017236340202860219958
J_025_10 = -0.20639378685517280976
J_2_1 = 0.11490348493190048047
K_0_1 = 0.42102443824070833334
K_03_75 = 0.00025058880443832809602
K_47_002 = 19380452908.118026
K_495_80 = 6.7140594220538481134e-30
K_025_25 = 0.063017158998619515583


def j_series_oracle(a: float, z: float) -> float:
    """Independent ascending-series summation using stdlib lgamma."""
    total = 0.0
    for k in range(0, 120):
        x = a + k + 1
        sign = 1.0 if x > 0 else (-1.0) ** math.ceil(-x)
        mag = (a + 2 * k) * math.log(z / 2) - math.lgamma(k + 1) - math.lgamma(x)
        total += (-1) ** k * sign * math.exp(mag)
    return total


def k_integral_oracle(a: float, z: float, h: float = 0.004) -> float:
    """Independent trapezoid evaluation of the cosh integral representation."""
    total = 0.5 * math.exp(-z)
    t = h
    while True:
        term = math.exp(-z * math.cosh(t)) * math.cosh(a * t)
        total += term
        if term < 1e-22 * total:
            break
        t += h
    return total * h


# ---------------------------------------------------------------------------
# gamma
# ---------------------------------------------------------------------------


class TestGamma:
    def test_closed_forms(self):
        assert nk.gamma_fn(1.0) == pytest.approx(1.0, rel=1e-14)
        assert nk.gamma_fn(0.5) == pytest.approx(SQRT_PI, rel=1e-13)
        assert nk.gamma_fn(-0.5) == pytest.approx(-2.0 * SQRT_PI, rel=1e-13)
        assert nk.gamma_fn(0.25) == pytest.approx(GAMMA_0_25, rel=1e-13)
        assert nk.gamma_fn(0.75) == pytest.approx(GAMMA_0_75, rel=1e-13)
        assert nk.gamma_fn(5.0) == pytest.approx(24.0, rel=1e-13)

    def test_poles_raise(self):
        for x in (0.0, -0.0, -1.0, -2.0, -17.0, -170.0, -171.0, -1e6):
            with pytest.raises(nk.PoleError):
                nk.gamma_fn(x)

    def test_reflection_identity_grid(self):
        for i in range(1, 200):
            x = i / 200.0
            if abs(x - round(x)) < 1e-12:
                continue
            val = nk.gamma_fn(x) * nk.gamma_fn(1.0 - x) * math.sin(math.pi * x) / math.pi
            assert abs(val - 1.0) <= 1e-10

    def test_accuracy_range(self):
        # against stdlib lgamma over |x| <= 30 away from poles
        for i in range(-295, 300, 7):
            x = i / 10.0 + 0.05
            if x <= 0 and abs(x - round(x)) < 1e-9:
                continue
            want = math.exp(math.lgamma(x)) * (1 if x > 0 or int(math.floor(x)) % 2 == 0 else 1)
            got = abs(nk.gamma_fn(x))
            assert got == pytest.approx(math.exp(math.lgamma(x)), rel=2e-12)

    def test_domain_errors(self):
        with pytest.raises(nk.KernelDomainError):
            nk.gamma_fn(math.nan)

    def test_overflow_raises(self):
        # |Gamma| beyond the double range: right of 171.62 and next to the
        # origin, where Gamma(x) ~ 1/x
        for x in (171.7, 200.0, 1e-320, -1e-320, 5e-324):
            with pytest.raises(OverflowError):
                nk.gamma_fn(x)

    @pytest.mark.parametrize(
        "x, want",
        [
            # mpmath values, as parsed; the last four are subnormal
            (171.6, 1.5858969096672565e308),
            (2.5e-308, 4.0000000000000004e307),
            (-0.500000000000001, -3.5449077018110318),
            (-171.5, 1.9316265431711996e-310),
            (-172.5, -1.1197835032876519e-312),
            (-176.5, -1.1940357341527994e-321),
            (-177.5, 5e-324),  # 6.73e-324, the smallest subnormal
        ],
    )
    def test_representable_values_are_finite(self, x, want):
        got = nk.gamma_fn(x)
        assert got != 0.0 and math.isfinite(got)
        # a subnormal result is good to its spacing, 4.9e-324
        assert got == pytest.approx(want, rel=1e-14, abs=4.95e-324)



# ---------------------------------------------------------------------------
# ln Gamma(1+x)/Gamma(1-x)
# ---------------------------------------------------------------------------


def log_gamma_ratio_ref(x):
    """ln Gamma(1+x)/Gamma(1-x) from mpmath at 40 + |log10 x| digits: the
    ratio is -2 euler x + O(x^3), so the lgamma difference cancels about
    |log10 x| digits."""
    with mpmath.workdps(40 + int(abs(math.log10(x)))):
        x = mpmath.mpf(x)
        return mpmath.loggamma(1 + x) - mpmath.loggamma(1 - x)


class TestLogGammaRatio:
    """The one log-Gamma ratio of the package: its odd series below the seam
    at x = 1/4, the log of a Gamma quotient from the seam up."""

    SEAM = 0.25

    def test_against_mpmath(self):
        # 20000 uniform x, 2000 log-uniform down to 1e-300 and 2000 within
        # 1e-1 ... 1e-9 of 1.  These read a worst relative error of 2.0e-16
        # below the seam and 2.5e-15 above it, just right of the seam, where
        # |L| is smallest on the log route; five other seeds of the same
        # draws read up to 2.1e-16 and 3.6e-15
        rng = random.Random(3001)
        xs = [rng.random() for _ in range(20000)]
        xs += [10.0 ** rng.uniform(-300.0, 0.0) for _ in range(2000)]
        xs += [1.0 - 10.0 ** rng.uniform(-9.0, -1.0) for _ in range(2000)]
        worst = {True: 0.0, False: 0.0}
        for x in xs:
            if not 0.0 < x < 1.0:
                continue
            want = log_gamma_ratio_ref(x)
            err = float(abs((nk.log_gamma_ratio(x) - want) / want))
            below = x < self.SEAM
            worst[below] = max(worst[below], err)
        assert worst[True] <= 2.5e-16
        assert worst[False] <= 4e-15

    def test_zero_and_tiny_arguments(self):
        # L(x) = -2 euler x + O(x^3), exactly 0 at x = 0 and into the subnormals
        assert nk.log_gamma_ratio(0.0) == 0.0
        for x in (1e-300, 2.5e-308, 1e-320, 5e-324):
            assert nk.log_gamma_ratio(x) == pytest.approx(-2.0 * EULER * x, rel=1e-15)

    def test_continuous_at_the_seam(self):
        # the two routes meet to within the log route's error
        below = math.nextafter(self.SEAM, 0.0)
        at = nk.log_gamma_ratio(self.SEAM)
        assert abs(nk.log_gamma_ratio(below) - at) <= 4e-15 * abs(at)
        assert at == pytest.approx(float(log_gamma_ratio_ref(self.SEAM)), rel=4e-15)

    @pytest.mark.parametrize("x", [1.0, 1.5, math.inf, -5e-324, -0.5, -math.inf, math.nan])
    def test_domain_errors(self, x):
        with pytest.raises(nk.KernelDomainError):
            nk.log_gamma_ratio(x)


# ---------------------------------------------------------------------------
# Bessel J
# ---------------------------------------------------------------------------


class TestBesselJ:
    """J by its closed forms, reference values, the series oracle and the
    three-term recurrence.  The recurrence grid no longer checks the method
    independently, since ``bessel_j`` is built on that recurrence; the
    independent check over the orders and arguments the continuum passes is
    ``TestAgainstMpmath.test_bessel_j_continuum_orders``."""

    def test_small_argument_limit(self):
        assert nk.bessel_j(0.0, 1e-8) == pytest.approx(1.0, abs=1e-12)

    def test_half_integer_closed_form(self):
        for z in (0.3, 2.0, 9.0, 60.0, 900.3):
            want = math.sqrt(2.0 / (math.pi * z)) * math.sin(z)
            assert nk.bessel_j(0.5, z) == pytest.approx(want, rel=1e-10, abs=1e-13)

    def test_negative_order_series_oracle(self):
        got = nk.bessel_j(-0.3, 0.7)
        assert got == pytest.approx(j_series_oracle(-0.3, 0.7), rel=1e-10)
        assert got == pytest.approx(J_M03_07, rel=1e-12)

    def test_reference_values(self):
        cases = [
            (2.0, 1.0, J_2_1),
            (0.25, 10.0, J_025_10),
            (0.5, 900.3, J_05_9003),
            (12.3, 550.0, J_123_550),
            (-12.3, 35.0, J_M123_35),
            (40.0, 1000.0, J_40_1000),
            (-40.25, 990.0, J_M4025_990),
            (44.09, 10.587, 1.1616863233891305e-23),
            (40.937, 10.2, 1.8704620018661874e-21),
        ]
        for order, z, want in cases:
            assert nk.bessel_j(order, z) == pytest.approx(want, rel=1e-10, abs=0.0)

    def test_high_order_above_the_series_crossover(self):
        # J is tiny at orders well above z; pytest.approx's default abs=1e-12
        # would hide any error there, so the check is purely relative (mpmath
        # values)
        cases = [
            (44.09, 10.587, 1.1616863233891306e-23),
            (40.937, 10.2, 1.8704620018661875e-21),
            (49.037, 10.05, 2.0631841932624244e-29),
            (25.5, 15.0, 2.860770862975686e-05),
        ]
        for order, z, want in cases:
            assert nk.bessel_j(order, z) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_negative_integer_order(self):
        assert nk.bessel_j(-3.0, 2.5) == pytest.approx(-nk.bessel_j(3.0, 2.5), rel=1e-12)
        assert nk.bessel_j(-2.0, 2.5) == pytest.approx(nk.bessel_j(2.0, 2.5), rel=1e-12)

    def test_recurrence_grid(self):
        for a in (-2.0, -1.3, -0.5, 0.3, 1.1, 2.0):
            for z in (0.01, 0.4, 2.0, 11.0, 50.0):
                jm = nk.bessel_j(a - 1.0, z)
                jp = nk.bessel_j(a + 1.0, z)
                jc = nk.bessel_j(a, z)
                maxterm = max(abs(jm), abs(jp), abs(2 * a / z * jc))
                assert abs(jm + jp - 2 * a / z * jc) <= 1e-9 * max(maxterm, 1e-30)

    def test_edges_of_the_double_range(self):
        # J_{-50.5}(1e-6) is 2.2e381 (mpmath) and J_50(1e-6) is 2.9e-380
        with pytest.raises(OverflowError):
            nk.bessel_j(-50.5, 1e-6)
        assert nk.bessel_j(50.0, 1e-6) == 0.0
        # the forward recurrence from J_0.001 multiplies by 2 f / z = 2e297
        got = nk.bessel_j(-0.999, 1e-300)
        assert math.isfinite(got)
        assert got == pytest.approx(1.0022574432763276e297, rel=1e-15)
        assert nk.bessel_j(0.3, 1e-300) == pytest.approx(9.050461476895359e-91, rel=1e-15)

    def test_pair_shares_bessel_j(self):
        # the pair's second value is bessel_j's, bit for bit, at every kind of
        # order: the continuum's, above 1, negative, integer and negative
        # integer; the first is J one order down
        for a in (0.6, 0.1, 0.5, 1.0, 0.0, -1.0, -2.0, -0.3, -1.7, 2.4, 12.3):
            for z in (1e-3, 0.4, 2.0, 11.0, 50.0):
                lower, upper = nk.bessel_j_pair(a, z)
                assert upper == nk.bessel_j(a, z)
                want = nk.bessel_j(a - 1.0, z)
                assert lower == pytest.approx(want, rel=1e-12, abs=1e-15 / math.sqrt(z))

    def test_pair_domain_and_overflow(self):
        with pytest.raises(nk.KernelDomainError):
            nk.bessel_j_pair(0.5, 0.0)
        # J_{-50.5}(1e-6) overflows as the lower member of the pair at -49.5
        with pytest.raises(OverflowError):
            nk.bessel_j_pair(-49.5, 1e-6)

    def test_domain_error(self):
        with pytest.raises(nk.KernelDomainError):
            nk.bessel_j(0.5, 0.0)
        with pytest.raises(nk.KernelDomainError):
            nk.bessel_j(0.5, -1.0)

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(min_value=-5.0, max_value=5.0),
        st.floats(min_value=0.05, max_value=9.0),
    )
    def test_matches_series_oracle_small_z(self, a, z):
        # the lgamma-based oracle cannot straddle the 1/Gamma zeros
        assume(a > 0 or abs(a - round(a)) > 1e-3)
        got = nk.bessel_j(a, z)
        want = j_series_oracle(a, z)
        assert got == pytest.approx(want, rel=5e-10, abs=1e-12)


# ---------------------------------------------------------------------------
# Bessel K
# ---------------------------------------------------------------------------


class TestBesselK:
    def test_half_integer_closed_form(self):
        for z in (0.05, 1.0, 3.0, 30.0):
            want = math.sqrt(math.pi / (2.0 * z)) * math.exp(-z)
            assert nk.bessel_k(0.5, z) == pytest.approx(want, rel=1e-11)

    def test_evenness_exact(self):
        for a, z in ((0.7, 2.0), (0.3, 0.5), (1.8, 13.0)):
            assert nk.bessel_k(-a, z) == nk.bessel_k(a, z)

    def test_integral_representation_oracle(self):
        assert nk.bessel_k(0.0, 1.0) == pytest.approx(k_integral_oracle(0.0, 1.0), rel=1e-10)
        assert nk.bessel_k(0.0, 1.0) == pytest.approx(K_0_1, rel=1e-12)
        assert nk.bessel_k(0.8, 1.4) == pytest.approx(k_integral_oracle(0.8, 1.4), rel=1e-10)

    def test_reference_values(self):
        cases = [
            (0.3, 7.5, K_03_75),
            (4.7, 0.02, K_47_002),
            (49.5, 80.0, K_495_80),
            (0.25, 2.5, K_025_25),
        ]
        for order, z, want in cases:
            assert nk.bessel_k(order, z) == pytest.approx(want, rel=1e-10, abs=0.0)

    def test_seam_continuity(self):
        from fluxbound.numkernel import _k_integral

        for a in (0.0, 0.25, 0.499, 1.3, 6.6):
            series_side = nk.bessel_k(a, 2.0)
            integral_side = _k_integral(a, 2.0)
            assert integral_side == pytest.approx(series_side, rel=2e-11)

    def test_recurrence_grid(self):
        for a in (-2.0, -1.1, -0.4, 0.25, 1.5, 2.0):
            for z in (0.01, 0.4, 2.0, 11.0, 50.0):
                km = nk.bessel_k(a - 1.0, z)
                kp = nk.bessel_k(a + 1.0, z)
                kc = nk.bessel_k(a, z)
                maxterm = max(abs(km), abs(kp), abs(2 * a / z * kc))
                assert abs(kp - km - 2 * a / z * kc) <= 1e-9 * maxterm

    def test_wronskian_with_i(self):
        # K_a(z) I_{a+1}(z) + K_{a+1}(z) I_a(z) = 1/z, with I from its series
        def i_series(a, z):
            total, term = 0.0, (z / 2) ** a / math.exp(math.lgamma(a + 1))
            for k in range(80):
                total += term
                term *= (z * z / 4) / ((k + 1) * (a + k + 1))
            return total

        for a, z in ((0.2, 0.8), (0.45, 3.1), (1.3, 6.0)):
            lhs = nk.bessel_k(a, z) * i_series(a + 1, z) + nk.bessel_k(a + 1, z) * i_series(a, z)
            assert lhs == pytest.approx(1.0 / z, rel=1e-10)

    # K over its Temme range z <= 2 at the orders of the wavefunction tables:
    # ab-wavefunction's |nu_tilde -+ s/2| for mu = 0.25 and 0.4 at (l, s) =
    # (0, -1), mu = 0.25 at (-1, 1) and mu = 0.75 at (0, 1), and the AC
    # profile's gamma = 0.15, 0.5, 0.85; repr values as the kernel gave them
    # when the series took 1/Gamma(1 +- mu) from a separate reciprocal gamma
    TEMME_Z = (1e-6, 0.01, 0.3, 1.0, 1.7, 2.0)
    TEMME_PIN = {
        0.15: ("26.990827916380017", "5.210629677379733", "1.3992957749044557",
               "0.42449973794461865", "0.1663840493026783", "0.11442624441871649"),
        0.25: ("68.10722788973493", "6.165741264139239", "1.44804263070737",
               "0.43073977444858585", "0.16797284012531927", "0.11537827684085745"),
        0.4: ("367.5937742651957", "9.010471810777922", "1.5726114220123963",
              "0.44628593983466885", "0.17190296980560066", "0.11772913317042438"),
        0.5: ("1253.31288400199", "12.408434532846933", "1.6951610563392836",
              "0.4610685044478946", "0.17560418370135844", "0.11993777196806124"),
        0.6: ("4493.024007846371", "17.81122139109175", "1.855386793918985",
              "0.4797156948928658", "0.18022546162955616", "0.12268844029732627"),
        0.75: ("32585.643058426394", "32.54345278535705", "2.1828038539659773",
               "0.5157753006959186", "0.18902094816394263", "0.1279029786291786"),
        0.85: ("126223.1957288337", "50.21823112237483", "2.4740453197463683",
               "0.5459262288750256", "0.19624280735202296", "0.13216515496216288"),
        1.75: ("48878464655.746826", "4887.683659067696", "12.362061900537256",
               "1.2044027254924639", "0.33475602968173923", "0.2113055108127414"),
    }

    @pytest.mark.parametrize("order", sorted(TEMME_PIN))
    def test_temme_range_pinned(self, order):
        got = tuple(repr(nk.bessel_k(order, z)) for z in self.TEMME_Z)
        assert got == self.TEMME_PIN[order]

    def test_domain_error(self):
        with pytest.raises(nk.KernelDomainError):
            nk.bessel_k(0.3, 0.0)

    @pytest.mark.parametrize("z", [746.0, 1e17, 1e300, math.inf])
    def test_underflows_to_zero_far_out(self, z):
        # e^-z underflows from z = 745.2; beyond about 1e17, z cosh(t) rounds
        # to z at the trapezoid's first steps, so its sum could not end
        for order in (0.0, 0.25, 1.5, 12.0):
            assert nk.bessel_k(order, z) == 0.0

    @pytest.mark.parametrize("order", [0.1, 0.25, 0.5, 0.75, 0.9])
    @pytest.mark.parametrize("z", [5e-324, 1e-323, 2.5e-308])
    def test_smallest_arguments(self, order, z):
        # z/2 underflows to 0 at the smallest subnormal, 5e-324, where the
        # series takes ln(z/2) as ln 2 - ln z; the orders are those
        # ab-wavefunction passes, and K_a grows there as Gamma(a) 2^(a-1) z^-a.
        # The series forms (z/2)^-mu as exp(mu ln(2/z)), whose rounding is
        # |mu ln z| eps relative: 4.9e-14 at worst here
        want = float(mpmath.besselk(order, mpmath.mpf(z)))
        assert nk.bessel_k(order, z) == pytest.approx(want, rel=1e-13)


# ---------------------------------------------------------------------------
# the level line
# ---------------------------------------------------------------------------


def line_root(a, b, t):
    """The root of a x + b ln(1 + e^x) = t from a 40-digit mpmath.findroot:
    Newton from the right of the root, where this convex line sends it down
    monotonically, on the line scaled by max(1, |t|) so that its residual
    check holds at every t."""
    with mpmath.workdps(40):
        a, b, t = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(t)
        scale = max(1, abs(t))

        def f(x):
            return (a * x + b * mpmath.log1p(mpmath.exp(x)) - t) / scale

        def df(x):
            return (a + b / (1 + mpmath.exp(-x))) / scale

        start = t / (a + b) if t >= 0 else t / a
        if f(start) == 0:
            return float(start)
        return float(mpmath.findroot(f, start, solver="newton", df=df, maxsteps=400))


class TestSolveLine:
    """``solve_line`` solves a x + b softplus(x) = t, the level line of both
    sectors: Dirac's a = 1/2 - nu, b = 2 nu over s, the neutral fermion's
    a = -gamma, b = 0 over y, with t over the whole double range."""

    LINES = [(0.5 - nu, 2.0 * nu) for nu in (1e-9, 1e-6, 1e-3, 0.1, 0.25, 0.4, 0.49, 0.499999)] + [
        (-gamma, 0.0) for gamma in (1e-3, 0.3, 0.5, 0.999)
    ]
    TARGETS = [0.0] + [sign * 10.0**k for k in range(-300, 301, 20) for sign in (1.0, -1.0)]

    @pytest.mark.parametrize("a, b", LINES)
    def test_matches_mpmath(self, a, b):
        # the worst of these 756 roots is 2.0 ulps off (nu = 0.4, t = 1)
        for t in self.TARGETS:
            want = line_root(a, b, t)
            got = nk.solve_line(a, b, t)
            assert abs(got - want) <= 2.5 * math.ulp(want), (t, got, want)

    def test_forms_no_offset_against_its_target(self):
        # the analytic line at nu = 0.499999, xi = -1e-6: t is formed once,
        # so the root is the 40-digit one; a Newton step that subtracted
        # ln(-xi) from the line's Gamma-ratio offset instead lands 2.7e-11 off
        nu = 0.499999
        t = math.log(1e-6) - (math.lgamma(0.5 + nu) - math.lgamma(0.5 - nu))
        got = nk.solve_line(0.5 - nu, 2.0 * nu, t)
        assert got == pytest.approx(-11.4808, abs=1e-4)
        assert abs(got - line_root(0.5 - nu, 2.0 * nu, t)) <= math.ulp(got)

    def test_flat_line_is_one_division(self):
        rng = random.Random(3)
        for _ in range(2000):
            a = -rng.uniform(1e-3, 1.0)
            t = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-300.0, 300.0)
            assert nk.solve_line(a, 0.0, t) == t / a

    @pytest.mark.parametrize(
        "a, b, t, want",
        [
            (0.25, 0.5, 1.7e308, math.inf),  # the first step overflows
            (0.25, 0.5, -1.7e308, -math.inf),
            (1e-10, 1.0, -1e300, -math.inf),  # a later step overflows
            (0.25, 0.5, math.nan, math.nan),
        ],
    )
    def test_overflowing_step_ends_the_solve(self, a, b, t, want):
        got = nk.solve_line(a, b, t)
        assert got == want or math.isnan(got) and math.isnan(want)


class TestLinearGrid:
    @pytest.mark.parametrize(
        "lo, hi, n",
        [(-1e200, -2.0, 3), (-4.0, -1.01, 5), (0.1, 0.9, 17), (1.01, 10.0, 200), (-1.5, 1.5, 61)],
    )
    def test_ends_at_lo_and_hi(self, lo, hi, n):
        # lo + (hi - lo) for the last point gives 0.0 for the first grid and
        # -1.0099999999999998 for the second
        grid = nk.linear_grid(lo, hi, n)
        assert len(grid) == n and grid[0] == lo and grid[-1] == hi
        assert grid[:-1] == [lo + (hi - lo) * i / (n - 1) for i in range(n - 1)]

    def test_random_grids_end_at_hi(self):
        rng = random.Random(5)
        for _ in range(2000):
            lo, hi = sorted(round(rng.uniform(-50.0, 50.0), rng.randint(0, 3)) for _ in range(2))
            if lo < hi:
                assert nk.linear_grid(lo, hi, rng.randint(2, 300))[-1] == hi


class TestBesselKSquareIntegral:
    @pytest.mark.parametrize("a", [0.0, 1e-10] + [0.05 * k for k in range(1, 20)])
    def test_matches_quadrature(self, a, semiline_integral):
        # graded mpmath quadrature is the independent numerical route to the
        # closed form pi a / (2 sin(pi a))
        value = semiline_integral(
            lambda z: z * nk.bessel_k(a, z) ** 2, singular_exponent=max(0.0, 2.0 * a - 1.0)
        )
        assert nk.bessel_k_square_integral(a) == pytest.approx(value, rel=1e-10)
        assert nk.bessel_k_square_integral(-a) == nk.bessel_k_square_integral(a)

    @pytest.mark.parametrize("a", [1.0, -1.3])
    def test_diverges_from_order_one(self, a):
        with pytest.raises(nk.KernelDomainError):
            nk.bessel_k_square_integral(a)


class TestAgainstMpmath:
    """Relative accuracy over the arguments the sectors pass the kernel."""

    @staticmethod
    def orders(rng, n, hi):
        # half uniform on (0, hi), half log-uniform from 1e-9
        for i in range(n):
            if i % 2:
                yield rng.uniform(0.0, hi)
            else:
                yield math.exp(rng.uniform(math.log(1e-9), math.log(hi)))

    def test_gamma(self):
        # Dirac: 1/2 +- nu (continuum norms), +-2 nu and +-nu + (1-s)/2 (the
        # printed Wronskian); AC: 1 +- gamma
        rng = random.Random(1801)
        args = []
        for nu in self.orders(rng, 200, 0.5):
            args += [0.5 + nu, 0.5 - nu, 2.0 * nu, -2.0 * nu, nu, -nu, 1.0 + nu, 1.0 - nu]
        for g in self.orders(rng, 200, 1.0):
            args += [1.0 + g, 1.0 - g]
        worst = 0.0
        with mpmath.workdps(30):
            for x in args:
                want = mpmath.gamma(mpmath.mpf(x))
                worst = max(worst, float(abs(nk.gamma_fn(x) / want - 1)))
        assert worst <= 2e-15

    def test_bessel_k_above_the_series_crossover(self):
        # the trapezoid branch; rounding the peak exponent -z cosh t* + a t*
        # alone can cost z eps relative (1.3e-13 at z = 600), and these 400
        # points read 4.2e-14
        rng = random.Random(1802)
        worst = 0.0
        for i in range(400):
            a = rng.uniform(0.0, 12.0)
            # half crowded towards the crossover at z = 2, half log-uniform
            if i % 2:
                z = 2.0 + 598.0 * rng.random() ** 2
            else:
                z = math.exp(rng.uniform(math.log(2.0), math.log(600.0)))
            if not z > 2.0:
                continue
            want = mpmath.besselk(a, z)
            worst = max(worst, float(abs(nk.bessel_k(a, z) / want - 1)))
        assert worst <= 1e-13

    def test_bessel_j_continuum_orders(self):
        # continuum_doublet asks for J at nu - 1/2, nu + 1/2, 1/2 - nu and
        # -nu - 1/2; the error is measured against the envelope
        # sqrt(2/(pi z)) where J passes through a zero.  These 1600 values
        # read 2.9e-15
        rng = random.Random(2001)
        worst = 0.0
        with mpmath.workdps(30):
            for _ in range(400):
                nu = rng.uniform(0.0, 0.5)
                z = math.exp(rng.uniform(math.log(1e-3), math.log(60.0)))
                scale = math.sqrt(2.0 / (math.pi * z))
                for a in (nu - 0.5, nu + 0.5, 0.5 - nu, -nu - 0.5):
                    want = float(mpmath.besselj(a, z))
                    err = abs(nk.bessel_j(a, z) - want) / max(abs(want), scale)
                    worst = max(worst, err)
        assert worst <= 1e-13

    def test_bessel_j_pair_continuum_orders(self):
        # continuum_doublet takes (J_{nu-1/2}, J_{nu+1/2}) from the pair at
        # nu + 1/2 and (J_{-nu-1/2}, J_{1/2-nu}) from the pair at 1/2 - nu,
        # held to the bound of test_bessel_j_continuum_orders.  These 1600
        # values read 3.2e-15
        rng = random.Random(2101)
        worst = 0.0
        with mpmath.workdps(30):
            for _ in range(400):
                nu = rng.uniform(0.0, 0.5)
                z = math.exp(rng.uniform(math.log(1e-3), math.log(60.0)))
                scale = math.sqrt(2.0 / (math.pi * z))
                for a in (nu + 0.5, 0.5 - nu):
                    for order, got in zip((mpmath.mpf(a) - 1, a), nk.bessel_j_pair(a, z)):
                        want = float(mpmath.besselj(order, z))
                        worst = max(worst, abs(got - want) / max(abs(want), scale))
        assert worst <= 1e-13
