"""The Dirac sector's Wronskian and level equations exactly as printed.

A comparison mode, not the physics: the printed gap Wronskian depends on E
only through lambda = sqrt(m^2 - E^2), so it cannot tell +E from -E, its gap
zero ("wr00") is not the master level, and the printed level equations
disagree among themselves.  They are kept verbatim so the discrepancies can
be inspected, with the master curve of ``ab_spectrum`` and the ODE oracle as
referees.  The continuum spectral density is built on the same Wronskian,
continued to the rim.  The CLI's ``--level-eq`` variants and ``ab-density``
read this module; ``ab_spectrum`` never does.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

from . import numkernel as nk
from .ab_spectrum import (
    CRITICAL_TOL,
    BoundLevel,
    DiracChannel,
    EnergyDomainError,
    Extension,
    RegimeError,
    _require_extended,
    log_abs_master_xi,
)

__all__ = [
    "paper_omega",
    "paper_omega_xi",
    "paper_level_lhs",
    "printed_level",
    "omega_xi_continued",
    "spectral_density",
]


def _wronskian_gamma_ratio(nu: float, s: int) -> float:
    # Gamma(2 nu) Gamma(-nu+(1-s)/2) / [Gamma(-2 nu) Gamma(nu+(1-s)/2)], the
    # prefactor of the printed Wronskian
    return (
        nk.gamma_fn(2.0 * nu)
        * nk.gamma_fn(-nu + 0.5 * (1 - s))
        / (nk.gamma_fn(-2.0 * nu) * nk.gamma_fn(nu + 0.5 * (1 - s)))
    )


def _printed_omega(ratio: float, nu: float, s: int, m: float, lam: complex) -> complex:
    # ratio * (2 lambda / m)^(-2 nu) * 4 s lambda with ratio =
    # _wronskian_gamma_ratio(nu, s), the same expression for a real gap
    # lambda and a complex continuum one
    return ratio * (2.0 * lam / m) ** (-2.0 * nu) * 4.0 * s * lam


def paper_omega(ch: DiracChannel, E: float) -> float:
    """The gap Wronskian exactly as printed:

    omega(E) = [Gamma(2 nu) Gamma(-nu+(1-s)/2)] / [Gamma(-2 nu) Gamma(nu+(1-s)/2)]
               * (2 lambda / m)^(-2 nu) * 4 s lambda.

    Depends on E only through lambda, so it cannot distinguish +-E; kept for
    comparison against the master curve.
    """
    _require_extended(ch, "paper_omega")
    m = ch.m
    if not abs(E) < m:
        raise EnergyDomainError(f"paper_omega: need |E| < m, got E={E}")
    nu, s = ch.nu, ch.s
    return _printed_omega(_wronskian_gamma_ratio(nu, s), nu, s, m, math.sqrt((m - E) * (m + E)))


def paper_omega_xi(ch: DiracChannel, ext: Extension, E: float) -> float:
    """omega_xi(E) = omega(E) + 4 s lambda xi, exactly as printed."""
    xi = ext.xi
    if math.isinf(xi):
        raise ValueError("paper_omega_xi: xi must be finite")
    m = ch.m
    lam = math.sqrt((m - E) * (m + E))
    return paper_omega(ch, E) + 4.0 * ch.s * lam * xi


_LEVEL_VARIANTS = ("levab", "lev0", "lev1")


def _printed_power_law(ch: DiracChannel, variant: str) -> tuple[float, float]:
    """(ratio, p) of a printed level equation ratio * (lambda/m)^p = xi.

    "levab" has the Wronskian prefactor and p = -2 nu; "lev0" and "lev1" are
    printed for one channel family only, and lev1 at beta is lev0 at 1 - beta,
    bit for bit, since 1 - beta is exact for 1/2 < beta < 1.
    """
    if variant == "levab":
        return _wronskian_gamma_ratio(ch.nu, ch.s), -2.0 * ch.nu
    n, beta = ch.flux_parts
    family = (ch.l + n == 0 and ch.s == -1) or (ch.l + n == -1 and ch.s == 1)
    if not family:
        raise RegimeError(
            "paper_level_lhs: lev0/lev1 are printed for the l+n=0, s=-1 "
            "(equivalently l+n=-1, s=+1) channels only"
        )
    if abs(beta - 0.5) < CRITICAL_TOL:
        raise nk.PoleError("paper_level_lhs: Gamma pole at beta = 1/2")
    if variant == "lev0" and not 0.0 < beta < 0.5:
        raise RegimeError("paper_level_lhs: lev0 requires 0 < beta < 1/2")
    if variant == "lev1" and not 0.5 < beta < 1.0:
        raise RegimeError("paper_level_lhs: lev1 requires 1/2 < beta < 1")
    b = beta if variant == "lev0" else 1.0 - beta
    ratio = (
        nk.gamma_fn(1.0 - 2.0 * b)
        * nk.gamma_fn(0.5 + b)
        / (nk.gamma_fn(2.0 * b - 1.0) * nk.gamma_fn(1.5 - b))
    )
    return ratio, 1.0 - 2.0 * b


def paper_level_lhs(ch: DiracChannel, E: float, variant: str) -> float:
    """Left-hand side of the printed level equations, for comparison only.

    The printed variants disagree among themselves (a 2^(2 nu) factor between
    "levab" and the Wronskian root, and an inverted lambda power in
    "lev0"/"lev1"); they are exposed verbatim so the discrepancies can be
    inspected, with the ODE oracle as referee.
    """
    if variant not in _LEVEL_VARIANTS:
        raise ValueError(f"paper_level_lhs: unknown variant {variant!r}")
    _require_extended(ch, "paper_level_lhs")
    m = ch.m
    if not abs(E) < m:
        raise EnergyDomainError(f"paper_level_lhs: need |E| < m, got E={E}")
    ratio, p = _printed_power_law(ch, variant)
    return ratio * (math.sqrt((m - E) * (m + E)) / m) ** p


def printed_level(ch: DiracChannel, ext: Extension, variant: str) -> Optional[BoundLevel]:
    """Gap level of a printed level equation in closed form, for comparison only.

    Each is a power law ratio * (lambda/scale)^p = target in lambda: "wr00"
    (omega_xi = 0) is "levab"'s with scale m/2 and target -xi, the others have
    scale m and target xi.  The printed forms see only lambda, so E takes the
    sign of the master level, read off one comparison at E = 0.  None for
    xi >= 0 or without a root with 0 < lambda < m; the residual is
    |ratio (lambda/scale)^p - target|.
    """
    if variant != "wr00" and variant not in _LEVEL_VARIANTS:
        raise ValueError(f"printed_level: unknown variant {variant!r}")
    _require_extended(ch, "printed_level")
    m, xi = ch.m, ext.xi
    if not xi < 0.0:
        return None
    ratio, p = _printed_power_law(ch, "levab" if variant == "wr00" else variant)
    scale, target = (0.5 * m, -xi) if variant == "wr00" else (m, xi)
    q = target / ratio
    # ln(lambda/scale) = ln(q)/p; above 1 it already puts lambda above m, so
    # capping it there keeps exp finite without admitting a root
    lam = scale * math.exp(min(math.log(q) / p, 1.0)) if q > 0.0 else 0.0
    if not 0.0 < lam < m:
        return None
    # |master xi| falls along u = tau*E, so the master level has u >= 0
    # exactly when |master xi(0)| >= -xi
    u_sign = 1.0 if log_abs_master_xi(ch, 0.0) >= math.log(-xi) else -1.0
    e = math.sqrt((m - lam) * (m + lam))
    residual = abs(ratio * (lam / scale) ** p - target)
    return BoundLevel(E=ch.tau * u_sign * e, lam=lam, xi=xi, channel=ch, residual=residual)


# ---------------------------------------------------------------------------
# continuum spectral density
# ---------------------------------------------------------------------------


def _continued_omega(ch: DiracChannel, ext: Extension) -> Callable[[float], complex]:
    # omega_xi_continued's checks and its Gamma ratio, once per channel and
    # extension; the returned function of E does the rest
    _require_extended(ch, "omega_xi_continued")
    xi = ext.xi
    if math.isinf(xi):
        raise ValueError("omega_xi_continued: xi must be finite")
    m, s, nu = ch.m, ch.s, ch.nu
    ratio = _wronskian_gamma_ratio(nu, s)
    xi_int = s * xi

    def omega(E: float) -> complex:
        if not abs(E) > m:
            raise EnergyDomainError(f"omega_xi_continued: need |E| > m, got E={E}")
        # (|E| - m)(|E| + m) overflows for m near the largest accepted
        # masses, and (e - 1)(e + 1) for e above about 1.3e154, where the
        # roots are taken apart
        e = abs(E) / m
        k2 = (e - 1.0) * (e + 1.0)
        k = m * (math.sqrt(k2) if k2 < math.inf else math.sqrt(e - 1.0) * math.sqrt(e + 1.0))
        lam_c = complex(0.0, -math.copysign(1.0, E)) * k
        return _printed_omega(ratio, nu, s, m, lam_c) + 4.0 * s * lam_c * xi_int

    return omega


def _density_on_rim(ch: DiracChannel, ext: Extension) -> Callable[[float], float]:
    # spectral_density as a function of E, with the checks and Gamma work of
    # _continued_omega done once; a table builds it once for all its rows
    omega = _continued_omega(ch, ext)

    def density(E: float) -> float:
        value = (1j / omega(E)).imag / math.pi
        if not math.isfinite(value):  # the CLI prints this text as its error line
            raise ValueError("spectral_density: density must be finite")
        return value

    return density


def omega_xi_continued(ch: DiracChannel, ext: Extension, E: float) -> complex:
    """omega_xi continued to the upper rim of the continuum, |E| > m.

    First-sheet branch: lambda(E + i0) = -i sign(E) sqrt(E^2 - m^2), i.e.
    lambda^(-2 nu) -> k^(-2 nu) exp(i sign(E) pi nu).  The printed Wronskian
    is combined with the channel-aligned internal parameter s*xi so that its
    gap zero sits on the bound-state side (xi < 0) for every channel.
    """
    return _continued_omega(ch, ext)(E)


def spectral_density(ch: DiracChannel, ext: Extension, E: float) -> float:
    """Continuum spectral density dsigma/dE at |E| > m.

    Evaluates (1/pi) Im[kappa / omega_xi(E+i0)] with the first-sheet branch
    above.  The energy-independent phase kappa = i is calibrated once: it is
    the constant phase the complex normalization factors of the two reference
    solutions contribute to the true Wronskian, and with it the density is a
    nonnegative, continuous spectral weight wherever omega_xi does not vanish
    (it never does on |E| > m).  A density that is not finite (omega_xi
    over- or underflows) raises ValueError.
    """
    return _density_on_rim(ch, ext)(E)
