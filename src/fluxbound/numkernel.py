"""Self-contained double-precision numerical kernel.

Provides the three primitives everything else is built on:

* real-argument gamma functions (``gamma_fn``, ``log_gamma``, ``rgamma``),
* Bessel functions of real order (``bessel_j``, ``bessel_k``) and the
  closed-form norm integral of K squared (``bessel_k_square_integral``),
* bracketed root finding (``find_root_bracketed`` on a validated ``Bracket``).

Only the Python standard library is used.  The gamma functions are
``math.gamma`` and ``math.lgamma`` behind the domain and pole checks; J uses
the ascending series below a crossover in z or at orders above 1.3 z, and the
Bessel/Schlaefli integral representation elsewhere; K uses a Temme-style
cancellation-free series below the crossover and a trapezoid rule on the cosh
integral representation above it.  Seams are covered by continuity tests in
the test suite, and accuracy by mpmath comparisons over the arguments the
package passes.  Bound states are normalized in closed form through
``bessel_k_square_integral``, so the kernel carries no quadrature; the tests
check that identity against mpmath's.

All functions are pure and hold no global mutable state (the Gauss-Legendre
node cache is append-only and thread-safe for CPython usage patterns).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

__all__ = [
    "Bracket",
    "KernelDomainError",
    "PoleError",
    "NoSignChangeError",
    "ConvergenceError",
    "gamma_fn",
    "log_gamma",
    "rgamma",
    "bessel_j",
    "bessel_k",
    "bessel_k_square_integral",
    "find_root_bracketed",
]

_EPS = 2.220446049250313e-16


class KernelDomainError(ValueError):
    """Argument outside the supported domain."""


class PoleError(KernelDomainError):
    """Gamma function evaluated at a nonpositive integer."""


class NoSignChangeError(ValueError):
    """Bracket endpoints do not straddle a sign change."""


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


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0 (``math.lgamma``), finite up to x of about 2.5e305."""
    if not x > 0.0:
        raise KernelDomainError(f"log_gamma: requires x > 0, got {x}")
    return math.lgamma(x)


def rgamma(x: float) -> float:
    """Reciprocal gamma 1/Gamma(x); entire, returns 0.0 at the poles.

    Where Gamma overflows near the origin (|x| below about 5.6e-309),
    1/Gamma(x) = x (1 + euler x + ...) rounds to x, which is returned.  Where
    Gamma underflows (left of x = -177), 1/Gamma overflows and
    ``OverflowError`` is raised.
    """
    if x <= 0.0 and x == math.floor(x):
        return 0.0
    if x > 170.0:
        # 1/Gamma underflows gracefully
        return math.exp(-log_gamma(x))
    try:
        g = gamma_fn(x)
    except OverflowError:
        return x
    r = 1.0 / g if g != 0.0 else math.inf
    if math.isinf(r):
        raise OverflowError(f"rgamma: 1/Gamma({x}) exceeds double range")
    return r


# ---------------------------------------------------------------------------
# Bessel J of real order
# ---------------------------------------------------------------------------

_J_SERIES_MAX_Z = 10.0
# above z = 10 the series still serves orders >= 1.3 z, where the Schlaefli
# integral cancels: J is far below the O(1) integrand there
_J_SERIES_MIN_ORDER_RATIO = 1.3

_gauss_cache: dict[int, tuple[list[float], list[float]]] = {}


def _gauss_legendre(n: int) -> tuple[list[float], list[float]]:
    """Nodes and weights of n-point Gauss-Legendre on [0, 1], cached."""
    cached = _gauss_cache.get(n)
    if cached is not None:
        return cached
    xs = [0.0] * n
    ws = [0.0] * n
    m = (n + 1) // 2
    for i in range(m):
        x = math.cos(math.pi * (i + 0.75) / (n + 0.5))
        for _ in range(100):
            p0, p1 = 1.0, 0.0
            for j in range(n):
                p0, p1 = ((2 * j + 1) * x * p0 - j * p1) / (j + 1), p0
            dp = n * (x * p0 - p1) / (x * x - 1.0)
            dx = p0 / dp
            x -= dx
            if abs(dx) < 1e-15:
                break
        xs[i] = 0.5 * (1.0 - x)
        xs[n - 1 - i] = 0.5 * (1.0 + x)
        w = 1.0 / ((1.0 - x * x) * dp * dp)
        ws[i] = w
        ws[n - 1 - i] = w
    _gauss_cache[n] = (xs, ws)
    return xs, ws


def _bessel_j_series(a: float, z: float) -> float:
    # ascending series sum_k (-1)^k (z/2)^(a+2k) / (k! Gamma(a+k+1))
    x = 0.5 * z
    try:
        term = x**a * rgamma(a + 1.0)
    except OverflowError:
        raise OverflowError(f"bessel_j: J_{a}({z}) exceeds double range") from None
    total = term
    x2 = x * x
    biggest = abs(term)
    k = 0
    while True:
        k += 1
        term *= -x2 / (k * (a + k))
        total += term
        biggest = max(biggest, abs(term))
        if abs(term) <= 1e-17 * (abs(total) + biggest * 1e-4) and k > x:
            break
        if k > 400:
            raise ConvergenceError("bessel_j series did not converge")
    return total


def _bessel_j_integral(a: float, z: float) -> float:
    # J_a(z) = (1/pi) \int_0^pi cos(a t - z sin t) dt
    #          - sin(a pi)/pi \int_0^infty exp(-z sinh s - a s) ds     (z > 0)
    n = int(0.85 * (z + abs(a))) + 40
    xs, ws = _gauss_legendre(n)
    acc = 0.0
    for t01, w in zip(xs, ws):
        t = math.pi * t01
        acc += w * math.cos(a * t - z * math.sin(t))
    osc = acc  # (1/pi)*pi factor: weights are for [0,1], interval is pi long
    spa = _sinpi(a)
    if spa == 0.0:
        return osc
    # second integral: log-concave integrand, integrate over geometric panels
    rate = z + a if z + a > 1.0 else 1.0
    # find truncation point: exponent below peak by 50
    phi = lambda s: -z * math.sinh(s) - a * s
    peak = 0.0
    if a < 0.0 and -a > z:
        s_star = math.acosh(-a / z)
        peak = phi(s_star)
    T = 1.0 / rate
    while phi(T) > peak - 50.0:
        T *= 2.0
        if T > 700.0:  # pragma: no cover - unreachable for supported ranges
            break
    xs16, ws16 = _gauss_legendre(16)
    lo = 0.0
    width = min(1.0 / rate, T)
    tail = 0.0
    while lo < T:
        hi = min(lo + width, T)
        seg = 0.0
        for t01, w in zip(xs16, ws16):
            s = lo + (hi - lo) * t01
            seg += w * math.exp(phi(s))
        tail += seg * (hi - lo)
        lo = hi
        width *= 2.0
    return osc - spa / math.pi * tail


def bessel_j(order: float, z: float) -> float:
    """Bessel function J_order(z) for real order and z > 0.

    Designed for |order| <= 50 and 1e-6 <= z <= 1e3; mathematically valid
    values that overflow the double range raise ``OverflowError``.
    """
    if not z > 0.0:
        raise KernelDomainError(f"bessel_j: requires z > 0, got {z}")
    if order == math.floor(order):
        n = int(order)
        if n < 0:
            val = bessel_j(float(-n), z)
            return -val if n % 2 else val
    if z <= _J_SERIES_MAX_Z or order >= _J_SERIES_MIN_ORDER_RATIO * z:
        return _bessel_j_series(order, z)
    return _bessel_j_integral(order, z)


# ---------------------------------------------------------------------------
# MacDonald function K of real order
# ---------------------------------------------------------------------------

_K_SERIES_MAX_Z = 2.0

# Taylor coefficients of 1/Gamma(1+x) = 1 + c2 x + c3 x^2 + ... (A&S 6.1.34);
# only the even ones enter (1/Gamma(1-mu) - 1/Gamma(1+mu)) / (2 mu)
_RG_C2 = 0.5772156649015328606
_RG_C4 = -0.0420026350340952355
_RG_C6 = -0.0421977345555443368


def _k_temme(mu: float, z: float) -> tuple[float, float]:
    """(K_mu(z), K_{mu+1}(z)) for |mu| <= 0.5 and 0 < z <= 2 (Temme series)."""
    x2 = 0.5 * z
    d = -math.log(x2)
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
    gampl = rgamma(1.0 + mu)  # 1/Gamma(1+mu)
    gammi = rgamma(1.0 - mu)  # 1/Gamma(1-mu)
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
    return acc * h * math.exp(peak)


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
# bracketed root finding
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Bracket:
    """A validated sign-change interval for a scalar function."""

    lo: float
    hi: float
    f_lo: float
    f_hi: float

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise ValueError(f"Bracket: lo must be < hi, got [{self.lo}, {self.hi}]")
        if not (self.f_lo * self.f_hi < 0.0 or self.f_lo == 0.0 or self.f_hi == 0.0):
            raise NoSignChangeError(
                f"Bracket: f({self.lo})={self.f_lo} and f({self.hi})={self.f_hi} "
                "do not straddle zero"
            )

    @classmethod
    def from_function(cls, f: Callable[[float], float], lo: float, hi: float) -> "Bracket":
        return cls(lo, hi, f(lo), f(hi))


def find_root_bracketed(
    f: Callable[[float], float],
    bracket: Bracket,
    tol_x: float = 1e-13,
) -> float:
    """Brent's method: bisection with secant/inverse-quadratic acceleration.

    Returns x* inside the initial bracket with f(x*) = 0 or bracket width
    below tol_x (plus the inevitable ~eps*|x| floor), within 200 iterations.
    Deterministic for fixed inputs.
    """
    a, b = bracket.lo, bracket.hi
    fa, fb = bracket.f_lo, bracket.f_hi
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    c, fc = a, fa
    d = e = b - a
    for _ in range(200):
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = 2.0 * _EPS * abs(b) + 0.5 * tol_x
        m = 0.5 * (c - b)
        if abs(m) <= tol or fb == 0.0:
            return b
        if abs(e) < tol or abs(fa) <= abs(fb):
            d = e = m
        else:
            s = fb / fa
            if a == c:
                p = 2.0 * m * s
                q = 1.0 - s
            else:
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            s, e = e, d
            if 2.0 * p < 3.0 * m * q - abs(tol * q) and p < abs(0.5 * s * q):
                d = p / q
            else:
                d = e = m
        a, fa = b, fb
        if abs(d) > tol:
            b += d
        else:
            b += tol if m > 0.0 else -tol
        fb = f(b)
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
    raise ConvergenceError("find_root_bracketed: max iterations exceeded")
