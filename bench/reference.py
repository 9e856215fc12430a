"""mpmath references for the rows the benchmark samples from its tables.

Each function evaluates a closed form of the problem at 30 significant digits,
independently of fluxbound's double-precision kernel (Lanczos gamma, Temme and
integral Bessel K): the master extension curve xi(E), the continuum spectral
density, the AC level, and the normalized MacDonald bound profiles, whose
norms follow from  int_0^inf z K_a(z)^2 dz = pi a / (2 sin(pi a)),  |a| < 1.
Channels are l = 0, m = 1 throughout.
"""

from __future__ import annotations

import mpmath as mp

mp.mp.dps = 30


def _kk_norm(a):
    """int_0^inf z K_a(z)^2 dz."""
    a = mp.mpf(a)
    return mp.mpf(1) / 2 if a == 0 else mp.pi * a / (2 * mp.sin(mp.pi * a))


def dirac_xi(nu: float, tau: int, E: float):
    """Master curve xi(E) = -sqrt((1-tau E)/(1+tau E)) G(1/2+nu)/G(1/2-nu) (2/lam)^(2 nu)."""
    nu, u = mp.mpf(nu), tau * mp.mpf(E)
    lam = mp.sqrt((1 - u) * (1 + u))
    return -mp.sqrt((1 - u) / (1 + u)) * mp.gamma(0.5 + nu) / mp.gamma(0.5 - nu) * (2 / lam) ** (2 * nu)


def dirac_level(nu: float, tau: int, xi: float):
    """Gap energy E with dirac_xi(E) = xi < 0, by bisection in u = tau*E (|xi| falls along u)."""
    lo, hi = mp.mpf(-1), mp.mpf(1)
    target = mp.log(-mp.mpf(xi))
    for _ in range(110):
        mid = (lo + hi) / 2
        if mp.log(-dirac_xi(nu, 1, mid)) > target:
            lo = mid
        else:
            hi = mid
    return tau * (lo + hi) / 2


def dirac_density(nu: float, s: int, xi: float, E: float):
    """(1/pi) Im[i / omega_xi(E + i0)] on the first-sheet rim, |E| > 1."""
    nu, E = mp.mpf(nu), mp.mpf(E)
    k = mp.sqrt(E * E - 1)
    lam_c = mp.mpc(0, -mp.sign(E)) * k
    c = (1 - s) // 2
    ratio = mp.gamma(2 * nu) * mp.gamma(-nu + c) / (mp.gamma(-2 * nu) * mp.gamma(nu + c))
    omega = ratio * (2 * lam_c) ** (-2 * nu) * 4 * s * lam_c + 4 * s * lam_c * (s * mp.mpf(xi))
    return mp.im(mp.mpc(0, 1) / omega) / mp.pi


def dirac_bound_profile(mu: float, s: int, E, r: float):
    """Normalized (f1, f2)(r) = C sqrt(lam r) (K_a1(lam r), w K_a2(lam r)) at level E."""
    nu_tilde = mp.mpf(mu) + mp.mpf(s) / 2
    a1, a2 = abs(nu_tilde - mp.mpf(s) / 2), abs(nu_tilde + mp.mpf(s) / 2)
    lam = mp.sqrt((1 - E) * (1 + E))
    w = s * mp.sqrt((1 - E) / (1 + E))
    c = mp.sqrt(lam / (_kk_norm(a1) + w * w * _kk_norm(a2)))
    z = lam * mp.mpf(r)
    return c * mp.sqrt(z) * mp.besselk(a1, z), c * w * mp.sqrt(z) * mp.besselk(a2, z)


def ac_level(gamma: float, xi: float):
    """E_n = -2 (-xi G(1-gamma)/G(1+gamma))^(-1/gamma)."""
    g = mp.mpf(gamma)
    return -2 * (-mp.mpf(xi) * mp.gamma(1 - g) / mp.gamma(1 + g)) ** (-1 / g)


def ac_profile(gamma: float, E, r: float):
    """Normalized f(r) = N sqrt(r) K_gamma(kappa r), kappa = sqrt(-2 E)."""
    kappa = mp.sqrt(-2 * E)
    n_const = kappa / mp.sqrt(_kk_norm(gamma))
    return n_const * mp.sqrt(mp.mpf(r)) * mp.besselk(gamma, kappa * mp.mpf(r))


def close(got: float, want, rel: float = 1e-8) -> bool:
    """|got - want| <= rel * |want| (finite got only)."""
    want = mp.mpf(want)
    return abs(mp.mpf(got) - want) <= rel * abs(want)
