"""Self-contained double-precision numerical kernel.

Provides the primitives everything else is built on:

* the real-argument gamma function (``gamma_fn``) and both sectors' Gamma
  ratio ln Gamma(1+x)/Gamma(1-x) (``log_gamma_ratio``),
* Bessel functions of real order (``bessel_j``, ``bessel_k``), the pair
  (J_{a-1}, J_a) from one J recurrence (``bessel_j_pair``), and the
  closed-form norm integral of K squared (``bessel_k_square_integral``),
* the root of the level line a x + b softplus(x) = t that both sectors'
  analytic levels and the oracle solve (``solve_line``), and the equally
  spaced grid of every scan and table (``linear_grid``).

Only the Python standard library is used.  Gamma is ``math.gamma`` behind
the domain and pole checks; J is
Miller's backward recurrence at every order and argument, normalized by a
Neumann sum (3.0e-15 of max(|J|, sqrt(2/(pi z))) off mpmath over the orders
the continuum passes for z up to 60), and ``bessel_j_pair`` takes J one
order down from the same ratios, so one recurrence gives both; K uses a
Temme-style cancellation-free series below z = 2 and a trapezoid rule on the
cosh integral representation above it.  K's seam is covered by a continuity test in the test suite, and
accuracy by mpmath comparisons over the arguments the package passes.  Bound
states are normalized in closed form through ``bessel_k_square_integral``, so
the kernel carries no quadrature; the tests check that identity against
mpmath's.

All functions are pure and hold no global mutable state.
"""

from __future__ import annotations

import math

__all__ = [
    "KernelDomainError",
    "PoleError",
    "ConvergenceError",
    "gamma_fn",
    "log_gamma_ratio",
    "bessel_j",
    "bessel_j_pair",
    "bessel_k",
    "bessel_k_square_integral",
    "solve_line",
    "linear_grid",
]


class KernelDomainError(ValueError):
    """Argument outside the supported domain."""


class PoleError(KernelDomainError):
    """Gamma function evaluated at a nonpositive integer."""


class ConvergenceError(RuntimeError):
    """An iteration failed to reach the requested tolerance."""


# ---------------------------------------------------------------------------
# gamma functions
# ---------------------------------------------------------------------------


def _sinpi(x: float) -> float:
    """sin(pi*x) with argument reduction done in exact float arithmetic."""
    r = x - round(x)
    s = math.sin(math.pi * r)
    return -s if (round(x) % 2) else s


def gamma_fn(x: float) -> float:
    """Gamma(x) for real x, excluding the poles at 0, -1, -2, ...

    ``math.gamma`` behind the pole check: against mpmath, the worst relative
    error over the arguments the package passes is 5.8e-16, and the tests
    hold it to 2e-15.  Raises ``OverflowError`` where |Gamma| exceeds the
    double range (x > 171.62, or |x| below about 5.6e-309); subnormal values
    are returned, and left of x = -178 Gamma underflows to +-0.0.
    """
    if x != x:
        raise KernelDomainError("gamma_fn: nan argument")
    if x <= 0.0 and x == math.floor(x):
        raise PoleError(f"gamma_fn: pole at nonpositive integer x={x}")
    return math.gamma(x)


# ln Gamma(1+x)/Gamma(1-x) = sum_j c_j x^(2j+1), with c_0 = -2 euler and
# c_j = -2 zeta(2j+1)/(2j+1) (DLMF 5.7.3); the radius is 1, and 14 terms hold
# 1e-17 relative up to _LOG_RATIO_SERIES_MAX_X
_LOG_RATIO_SERIES = (
    -1.1544313298030657, -0.8013712687730629, -0.41477110205734796, -0.2880997935376922,
    -0.22266853173912937, -0.18190803429165808, -0.1538650328227044, -0.13333741176484093,
    -0.11764795731736917, -0.10526335875923332, -0.09523814066028445, -0.08695653210608052,
    -0.08000000238428027, -0.07407407462597865,
)
_LOG_RATIO_SERIES_MAX_X = 0.25


def log_gamma_ratio(x: float) -> float:
    """L(x) = ln Gamma(1+x)/Gamma(1-x) for 0 <= x < 1: the odd series below
    x = 1/4, where the log of the ``gamma_fn`` quotient taken above would
    cancel to eps/x.  Against mpmath the worst relative error is 2.1e-16
    below the seam and 3.6e-15 just above it.  The Dirac ratio follows by
    duplication (DLMF 5.5.5): ln Gamma(1/2+nu)/Gamma(1/2-nu) = L(2 nu) - L(nu) - 4 nu ln 2.
    """
    if not 0.0 <= x < 1.0:
        raise KernelDomainError(f"log_gamma_ratio: requires 0 <= x < 1, got {x}")
    if x < _LOG_RATIO_SERIES_MAX_X:
        x2 = x * x
        acc = 0.0
        for c in reversed(_LOG_RATIO_SERIES):
            acc = acc * x2 + c
        return acc * x
    return math.log(gamma_fn(1.0 + x) / gamma_fn(1.0 - x))


# ---------------------------------------------------------------------------
# Bessel J of real order
# ---------------------------------------------------------------------------


def _miller(order: float, z: float) -> tuple[float, float]:
    """(J_order(z), J_{order+1}(z)/J_order(z)) for z > 0 and an order that is
    not a negative integer, from one backward recurrence."""
    n0 = math.floor(order)
    f = order - n0
    top = 2 * math.ceil(0.5 * (max(z, order) + 12.0 * z ** (1.0 / 3.0) + 6.0))
    # r[n] = J_{f+n}/J_{f+n-1} from J_{f+n-1} + J_{f+n+1} = 2 (f+n)/z J_{f+n},
    # with J_{f+top+1} = 0
    r = [0.0] * (top + 2)
    for n in range(top, 0, -1):
        r[n] = 1.0 / (2.0 * (f + n) / z - r[n + 1])
    # Neumann sum over J_{f+2k}/J_f; its k = 0 coefficient f Gamma(f) equals
    # g = Gamma(f+k)/k! at k = 1
    g = math.gamma(1.0 + f)
    total = g
    p = 1.0  # J_{f+2k}/J_f
    for k in range(1, top // 2 + 1):
        p *= r[2 * k - 1] * r[2 * k]
        total += (f + 2 * k) * g * p
        g *= (f + k) / (k + 1)
    val = (0.5 * z) ** f / total
    for n in range(1, n0 + 1):
        val *= r[n]
    if n0 >= 0:
        return val, r[n0 + 1]
    nxt = val * r[1]
    for j in range(-n0):
        val, nxt = 2.0 * (f - j) / z * val - nxt, val
        if math.isinf(val):
            raise OverflowError(f"bessel_j: J_{order}({z}) exceeds double range")
    return val, nxt / val


def bessel_j(order: float, z: float) -> float:
    """Bessel function J_order(z) for real order and z > 0.

    Miller's backward recurrence (Gautschi, SIAM Rev. 9, 1967; DLMF 10.74(iv)).
    With f = order - floor(order), the ratios J_{f+n}/J_{f+n-1} come down from
    a start order N = max(z, order) + 12 z^(1/3) + 6, rounded up to even,
    where J is minimal; the Neumann sum
    (z/2)^f = sum_k (f+2k) Gamma(f+k)/k! J_{f+2k} fixes J_f, and orders
    below 0 follow by the forward recurrence, in which J_{f-n} grows.  Negative
    integer orders use J_{-n} = (-1)^n J_n exactly.

    Against mpmath, |error| / max(|J|, sqrt(2/(pi z))) is at most 3.0e-15 over
    the orders ``continuum`` passes (nu -+ 1/2, +-(1/2 - nu), 0 < nu < 1/2) for
    z in [1e-6, 60], 2.8e-14 there for z in [60, 600], and 5.5e-14 for
    |order| <= 50 and z in [1e-3, 1e3].  The start is set by that measurement.
    J_{f+n} turns from oscillating to minimal over a width z^(1/3) about
    n = z (the Airy scaling), and the lowest rule that keeps these figures is
    max(z, order) + 10 z^(1/3) + 2: + 9 z^(1/3) + 2 makes them up to 15 times
    larger, and + 12 z^(1/3) alone up to 4000 times at small z.

    Designed for |order| <= 50 and 1e-6 <= z <= 1e3.  Values that overflow
    the double range raise ``OverflowError`` (J_{-50.5}(1e-6)); values that
    underflow return 0.0 (J_50(1e-6)).
    """
    if not z > 0.0:
        raise KernelDomainError(f"bessel_j: requires z > 0, got {z}")
    n0 = math.floor(order)
    if order == n0 and n0 < 0:
        val = _miller(-order, z)[0]
        return -val if n0 % 2 else val
    return _miller(order, z)[0]


def bessel_j_pair(order: float, z: float) -> tuple[float, float]:
    """(J_{order-1}(z), J_order(z)) from the recurrence of one ``bessel_j`` call.

    J_order is ``bessel_j(order, z)`` bit for bit, and
    J_{order-1} = (2 order/z - J_{order+1}/J_order) J_order takes the ratio
    from the same recurrence, in its stable (downward) direction.  Integer
    orders n <= 0 use the pair at -n and J_{-n} = (-1)^n J_n exactly.  The
    domain, accuracy and ``OverflowError`` contract are those of ``bessel_j``.
    """
    if not z > 0.0:
        raise KernelDomainError(f"bessel_j_pair: requires z > 0, got {z}")
    n0 = math.floor(order)
    if order == n0 and n0 <= 0:
        # at order -n: (J_{-n-1}, J_{-n}) = (-1)^n (-J_{n+1}, J_n)
        val, ratio = _miller(-order, z)
        val = -val if n0 % 2 else val
        return -val * ratio, val
    val, ratio = _miller(order, z)
    lower = (2.0 * order / z - ratio) * val
    if math.isinf(lower):
        raise OverflowError(f"bessel_j_pair: J_{order - 1}({z}) exceeds double range")
    return lower, val


# ---------------------------------------------------------------------------
# MacDonald function K of real order
# ---------------------------------------------------------------------------

_K_SERIES_MAX_Z = 2.0
_LN2 = math.log(2.0)

# Taylor coefficients of 1/Gamma(1+x) = 1 + c2 x + c3 x^2 + ... (A&S 6.1.34);
# only the even ones enter (1/Gamma(1-mu) - 1/Gamma(1+mu)) / (2 mu)
_RG_C2 = 0.5772156649015328606
_RG_C4 = -0.0420026350340952355
_RG_C6 = -0.0421977345555443368


def _k_temme(mu: float, z: float) -> tuple[float, float]:
    """(K_mu(z), K_{mu+1}(z)) for |mu| <= 0.5 and 0 < z <= 2 (Temme series)."""
    x2 = 0.5 * z
    # z/2 underflows to 0 for the smallest subnormal z, where ln 2 - ln z does not
    d = -math.log(x2) if x2 > 0.0 else _LN2 - math.log(z)
    e = mu * d
    pimu = math.pi * mu
    if abs(pimu) < 1e-4:
        fact = 1.0 + pimu * pimu / 6.0 + 7.0 * pimu**4 / 360.0
    else:
        fact = pimu / math.sin(pimu)
    if abs(e) < 1e-4:
        fact2 = 1.0 + e * e / 6.0 + e**4 / 120.0
    else:
        fact2 = math.sinh(e) / e
    gampl = 1.0 / gamma_fn(1.0 + mu)
    gammi = 1.0 / gamma_fn(1.0 - mu)
    if abs(mu) < 1e-3:
        mu2 = mu * mu
        gam1 = -(_RG_C2 + mu2 * (_RG_C4 + mu2 * _RG_C6))
    else:
        gam1 = (gammi - gampl) / (2.0 * mu)
    gam2 = 0.5 * (gammi + gampl)
    ff = fact * (gam1 * math.cosh(e) + gam2 * fact2 * d)
    total = ff
    ee = math.exp(e)
    p = 0.5 * ee / gampl  # (1/2) (z/2)^(-mu) Gamma(1+mu)
    q = 0.5 / (ee * gammi)  # (1/2) (z/2)^(+mu) Gamma(1-mu)
    c = 1.0
    x2sq = x2 * x2
    total1 = p
    mu2 = mu * mu
    for k in range(1, 200):
        ff = (k * ff + p + q) / (k * k - mu2)
        c *= x2sq / k
        p /= k - mu
        q /= k + mu
        delta = c * ff
        total += delta
        delta1 = c * (p - k * ff)
        total1 += delta1
        if abs(delta) < abs(total) * 1e-17:
            return total, total1 * 2.0 / z
    raise ConvergenceError("bessel_k series did not converge")


def _k_integral(a: float, z: float) -> float:
    # K_a(z) = \int_0^infty exp(-z cosh t) cosh(a t) dt, evaluated with the
    # trapezoidal rule; the integrand is even and analytic in a strip about
    # the real axis, so the rule converges geometrically in 1/h (Trefethen &
    # Weideman, SIAM Rev. 56, 2014).  The peak's width scales like
    # 1/sqrt(max(z, a)), and h = 0.2 of it holds K to 6.2e-14 relative
    # against mpmath for z in (2, 600] and a <= 12, where rounding the peak
    # exponent alone costs up to z eps.  Work relative to the peak exponent
    # to dodge premature underflow.
    a = abs(a)
    if a > z:
        t_star = math.acosh(a / z)
        peak = -z * math.cosh(t_star) + a * t_star
    else:
        t_star = 0.0
        peak = -z
    scale = math.exp(peak)
    if scale == 0.0:  # K underflows; far out z cosh(t) rounds to z, and the sum would not end
        return 0.0
    h = 0.2 / math.sqrt(max(1.0, z, a))
    acc = 0.5 * math.exp(-z - peak)  # t = 0 term: cosh(0)=1
    t = h
    while True:
        w = -z * math.cosh(t)
        # cosh(a t) = (e^{at} + e^{-at})/2 folded into exponentials
        e1 = w + a * t - peak
        e2 = w - a * t - peak
        term = 0.5 * (math.exp(e1) + math.exp(e2))
        acc += term
        if e1 < -46.0 and t > t_star:
            break
        t += h
        if t > 800.0:  # pragma: no cover
            raise ConvergenceError("bessel_k integral did not truncate")
    return acc * h * scale


def bessel_k(order: float, z: float) -> float:
    """MacDonald (modified Bessel, second kind) function K_order(z), z > 0.

    Even in the order: K_{-a} = K_{a} exactly by construction.  Values that
    overflow the double range raise ``OverflowError``; far in the exponential
    tail the result underflows to 0.0.
    """
    if not z > 0.0:
        raise KernelDomainError(f"bessel_k: requires z > 0, got {z}")
    a = abs(order)
    if z > _K_SERIES_MAX_Z:
        return _k_integral(a, z)
    nl = int(a + 0.5)
    mu = a - nl  # in [-0.5, 0.5)
    kmu, kmu1 = _k_temme(mu, z)
    if nl == 0:
        return kmu
    prev, cur = kmu, kmu1
    fac = 2.0 / z
    for j in range(1, nl):
        prev, cur = cur, prev + (mu + j) * fac * cur
        if math.isinf(cur):
            raise OverflowError(f"bessel_k: K_{a}({z}) exceeds double range")
    if math.isinf(cur):
        raise OverflowError(f"bessel_k: K_{a}({z}) exceeds double range")
    return cur


def bessel_k_square_integral(order: float) -> float:
    """int_0^inf z K_order(z)^2 dz = pi a / (2 sin(pi a)), a = |order| < 1.

    The mu = 2 case of the Mellin transform of K_a^2 (DLMF 10.43); the limit
    at a = 0 is 1/2.  The integrand behaves like z^(1 - 2a) at the origin, so
    the integral diverges for |order| >= 1.
    """
    a = abs(order)
    if not a < 1.0:
        raise KernelDomainError(
            f"bessel_k_square_integral: requires |order| < 1, got {order}"
        )
    if a == 0.0:
        return 0.5
    return 0.5 * math.pi * a / _sinpi(a)


# ---------------------------------------------------------------------------
# the level line and grids
# ---------------------------------------------------------------------------


def solve_line(a: float, b: float, t: float) -> float:
    """The x with a x + b softplus(x) = t, softplus(x) = max(x, 0) + log1p(e^-|x|).

    The level line of both sectors (b = 0 with a != 0, or b > 0 with a > 0):
    with b = 0 the root is t/a.  Otherwise the line increases with slope
    a + b sigma(x), sigma the logistic, and is convex, so every Newton step
    lands at or right of the root; from x = 0 the steps after the first
    descend onto it, and the solve stops at the first step that does not
    decrease x.  That also ends it where a step overflows to -+inf or NaN.
    The caller forms t once: a step that evaluated the line's offset and
    its target separately would cancel them against each other.
    """
    if b == 0.0:
        return t / a

    def newton(x: float) -> float:
        e = math.exp(-abs(x))
        softplus = max(x, 0.0) + math.log1p(e)
        logistic = (1.0 if x >= 0.0 else e) / (1.0 + e)
        return x - (a * x + b * softplus - t) / (a + b * logistic)

    x = newton(0.0)
    while (x_next := newton(x)) < x:
        x = x_next
    return x


def linear_grid(lo: float, hi: float, n: int) -> list[float]:
    """n >= 2 equally spaced points lo + (hi - lo) i/(n - 1), i = 0 ... n - 2,
    then hi itself: the formula's last point can round away from hi, to 0.0
    for (-1e200, -2) and an ulp off for (-4, -1.01)."""
    return [lo + (hi - lo) * i / (n - 1) for i in range(n - 1)] + [hi]
