"""Nonrelativistic neutral-fermion (Aharonov-Casher) sector.

A neutral fermion with an anomalous magnetic moment moving in the 1/r electric
field of a charged thread reduces, per angular channel, to the radial
Schroedinger problem with index gamma = |l + zeta*M*a|.  For 0 < gamma < 1 the
origin admits a one-parameter family of self-adjoint boundary conditions

    f(r) -> A [ (m r)^gamma - xi_int (m r)^(-gamma) ],   r -> 0,

and a single negative level exists exactly for reported xi < 0, with the
closed form

    E_n = -2 m ( -xi Gamma(1-gamma)/Gamma(1+gamma) )^(-1/gamma).

gamma = 0 is a separate logarithmic chart with its own closed form
E_0 = -4 m exp(2(xi - euler)); gamma >= 1 has no extension and no bound state.
The level, its residual and the Wronskian take ln Gamma(1+gamma)/Gamma(1-gamma)
from the kernel's ``log_gamma_ratio``.
The reported xi is oriented so that the bound side is xi < 0 (the raw internal
template ratio of the decaying K_gamma profile is -xi).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from . import numkernel as nk
from .ab_spectrum import (
    CRITICAL_TOL,
    EnergyDomainError,
    Extension,
    RadialDoublet,
    RegimeError,
)

__all__ = [
    "ACRegime",
    "ACChannel",
    "ACLevel",
    "EULER_GAMMA",
    "ac_wronskian",
    "ac_bound_energy",
    "ac_special_levels",
    "ac_wavefunction",
    "ac_omega_xi_continued",
    "ac_spectral_density",
]

EULER_GAMMA = 0.5772156649015328606


class ACRegime(Enum):
    EXTENDED = "extended"  # 0 < gamma < 1
    LOG_CRITICAL = "log-critical"  # gamma = 0
    REGULAR = "regular"  # gamma >= 1


def _regime(g: float) -> ACRegime:
    # the regime of index gamma = g, for ACChannel.regime and its callers
    if g < CRITICAL_TOL:
        return ACRegime.LOG_CRITICAL
    if g >= 1.0 - CRITICAL_TOL:
        return ACRegime.REGULAR
    return ACRegime.EXTENDED


@dataclass(frozen=True)
class ACChannel:
    """One angular channel of the neutral-fermion problem.

    ``coupling`` is the product M*a of the anomalous magnetic moment and the
    thread charge parameter; classification uses gamma = |l + zeta*coupling|
    alone, attractivity bookkeeping is left to the caller.
    """

    m: float
    coupling: float
    l: int
    zeta: int

    def __post_init__(self) -> None:
        if not self.m > 0.0:
            raise ValueError(f"ACChannel: m must be > 0, got {self.m}")
        if self.zeta not in (-1, 1):
            raise ValueError(f"ACChannel: zeta must be +-1, got {self.zeta}")
        if self.l != int(self.l):
            raise ValueError(f"ACChannel: l must be integer, got {self.l}")

    @property
    def gamma(self) -> float:
        return abs(self.l + self.zeta * self.coupling)

    @property
    def regime(self) -> ACRegime:
        return _regime(self.gamma)


@dataclass(frozen=True)
class ACLevel:
    """A solved negative level: E_n < 0, kappa = sqrt(-2 m E_n)."""

    E_n: float
    kappa: float
    xi: float
    channel: ACChannel
    residual: float


def _require_extended(ch: ACChannel, what: str) -> None:
    if ch.regime is not ACRegime.EXTENDED:
        raise RegimeError(
            f"{what}: channel gamma={ch.gamma:.6g} is {ch.regime.value}; "
            "requires 0 < gamma < 1"
        )


def ac_wronskian(ch: ACChannel, E_n: float) -> float:
    """omega(E_n) = Gamma(1+gamma)/Gamma(1-gamma) * (2m/kappa)^(2 gamma), E_n < 0."""
    _require_extended(ch, "ac_wronskian")
    if not E_n < 0.0:
        raise EnergyDomainError(f"ac_wronskian: need E_n < 0, got {E_n}")
    g = ch.gamma
    return _omega(math.exp(nk.log_gamma_ratio(g)), g, ch.m, E_n)


def _omega(ratio: float, g: float, m: float, E_n: float) -> float:
    # ac_wronskian without its checks, for ratio = Gamma(1+gamma)/Gamma(1-gamma)
    kappa = math.sqrt(-2.0 * m * E_n)
    return ratio * (2.0 * m / kappa) ** (2.0 * g)


def _ac_level(g: float, m: float, xi: float) -> Optional[tuple[float, float, float]]:
    # (E_n, kappa, residual) of ac_bound_energy's level at gamma = g, or None
    # where there is none: a regular gamma or xi >= 0.  A table calls it per
    # row, without the channel and level objects.
    regime = _regime(g)
    if regime is ACRegime.REGULAR or not xi < 0.0:
        return None
    log_critical = regime is ACRegime.LOG_CRITICAL
    if log_critical:
        E_n = -4.0 * m * math.exp(2.0 * (xi - EULER_GAMMA))
    else:
        # the base's Gamma ratio to the power -1/gamma, exp(ln ratio / gamma):
        # an error in the log grows by 1/gamma, so the log is taken directly
        log_ratio = nk.log_gamma_ratio(g)
        ratio_power = math.exp(log_ratio / g)
        try:
            E_n = -2.0 * m * (-xi) ** (-1.0 / g) * ratio_power
        except OverflowError:  # a float power raises where a product gives inf
            E_n = -math.inf
    kappa = math.sqrt(-2.0 * m * E_n)
    # kappa is 0 where E_n underflows and inf where E_n or kappa overflows
    if not 0.0 < kappa < math.inf:
        raise EnergyDomainError(
            f"ac_bound_energy: the level at gamma={g!r}, xi={xi!r} lies outside "
            "the double range"
        )
    # mismatch of the level equation omega(E_n) = -xi
    residual = 0.0 if log_critical else abs(_omega(math.exp(log_ratio), g, m, E_n) + xi)
    return E_n, kappa, residual


def ac_bound_energy(ch: ACChannel, ext: Extension) -> Optional[ACLevel]:
    """Closed-form bound level, or None for xi >= 0 (including xi = infinity).

    Extended:      E_n = -2m (-xi Gamma(1-gamma)/Gamma(1+gamma))^(-1/gamma)
    LogCritical:   E_0 = -4m exp(2 (xi - euler))     (separate parameter chart)
    Regular:       RegimeError (no extension, no bound state)

    The extended level takes the Gamma ratio's power -1/gamma as the exp of
    the kernel's log_gamma_ratio over gamma, so it keeps full precision as
    gamma -> 0.  A level whose E_n or kappa over- or underflows the double
    range is an EnergyDomainError.
    """
    g = ch.gamma
    if _regime(g) is ACRegime.REGULAR:
        raise RegimeError(f"ac_bound_energy: gamma={g:.6g} is regular; no bound state")
    xi = ext.xi
    level = _ac_level(g, ch.m, xi)
    if level is None:
        return None
    E_n, kappa, residual = level
    return ACLevel(E_n=E_n, kappa=kappa, xi=xi, channel=ch, residual=residual)


def ac_special_levels(c: float, ext: Extension) -> tuple[float, float]:
    """The levels of the two channel families at -M a = c in (0,1).

    Returns (E0, E1): the l = 0 level (gamma = c) and the l = 1 level
    (gamma = 1 - c), in units of m = 1, both from ac_bound_energy, so a level
    beyond the double range is an EnergyDomainError.  They satisfy the
    degeneracy E0(c) = E1(1 - c).
    """
    if not 0.0 < c < 1.0:
        raise EnergyDomainError(f"ac_special_levels: need c in (0,1), got {c}")
    if not ext.xi < 0.0:
        raise ValueError("ac_special_levels: requires finite xi < 0")
    return tuple(ac_bound_energy(ACChannel(1.0, -c, l, 1), ext).E_n for l in (0, 1))


def ac_wavefunction(level: ACLevel) -> RadialDoublet:
    """Normalized bound profile f(r) = N sqrt(m r) K_gamma(kappa r), single component.

    The second doublet slot is identically zero; the leading small-r power is
    1/2 - gamma, the subleading 1/2 + gamma, matching the domain template of
    the extension family.  The squared norm (m / kappa^2) I(gamma), with
    I(a) = int_0^inf z K_a(z)^2 dz in closed form, gives N = kappa / sqrt(m I),
    so f(r) = kappa sqrt(r / I) K_gamma(kappa r) for every mass.
    """
    g, kappa = level.channel.gamma, level.kappa
    scale = kappa / math.sqrt(nk.bessel_k_square_integral(g))

    def evaluator(r: float) -> tuple[float, float]:
        return scale * math.sqrt(r) * nk.bessel_k(g, kappa * r), 0.0

    return RadialDoublet(evaluator=evaluator, small_r_exponents=(0.5 - g, math.nan))


def ac_omega_xi_continued(ch: ACChannel, ext: Extension, E_n: float) -> complex:
    """omega_xi on the upper rim of the continuum E_n > 0.

    First-sheet branch kappa(E_n + i0) = -i sqrt(2 m E_n), i.e.
    kappa^(-2 gamma) -> k^(-2 gamma) exp(i pi gamma); never zero for E_n > 0.
    """
    _require_extended(ch, "ac_omega_xi_continued")
    xi = ext.xi
    if math.isinf(xi):
        raise ValueError("ac_omega_xi_continued: xi must be finite")
    if not E_n > 0.0:
        raise EnergyDomainError(f"ac_omega_xi_continued: need E_n > 0, got {E_n}")
    g, m = ch.gamma, ch.m
    k = math.sqrt(2.0 * m * E_n)
    ratio = math.exp(nk.log_gamma_ratio(g))
    omega_c = ratio * (2.0 * m / k) ** (2.0 * g) * cmath.exp(1j * math.pi * g)
    return omega_c + xi


def ac_spectral_density(ch: ACChannel, ext: Extension, E_n: float) -> float:
    """Continuum spectral weight (1/pi) Im[-1/omega_xi(E_n + i0)], nonnegative.

    The overall sign is the once-calibrated orientation of the reciprocal
    Wronskian (same convention role as the phase calibration in the Dirac
    sector).
    """
    w = ac_omega_xi_continued(ch, ext, E_n)
    return (-1.0 / w).imag / math.pi
