"""Relativistic 2+1D point-flux (Aharonov-Bohm) Dirac sector.

The radial problem in one angular-momentum/spin channel is the 2x2 first-order
system

    s f2' + (nu_tilde/r) f2 = (E - m) f1
   -s f1' + (nu_tilde/r) f1 = (E + m) f2,        nu_tilde = l + mu + s/2.

For 0 < nu < 1/2 (nu = |nu_tilde|) the operator admits a one-parameter family
of self-adjoint boundary conditions at the origin, labeled, as in the paper,
by xi in (-inf, inf] (-inf names the same extension as +inf).  Extension
stores xi itself; the angle theta = 2 atan(xi) is derived, and
Extension.from_theta is the one place an angle is turned into xi.  Domain
functions behave like

    F(r) -> C [ (m r)^nu  d_plus  -  xi_int (m r)^(-nu) d_minus ],   r -> 0,

where d_plus marks the component that carries the r^(+nu) power of the exact
decaying MacDonald doublet (component 1 for tau = +1, component 2 for
tau = -1, tau = s*sign(nu_tilde)), and xi_int = s*xi is the internal template
weight.  The reported xi is kept in the orientation in which bound states
exist exactly for xi < 0 and the midgap zero mode sits at xi = -1, uniformly
over all channels.

This module holds the referee-fixed physics: the master extension curve and
its levels, the normalized bound doublets and the continuum eigen-doublets.
The master curve's ln Gamma(1/2+nu)/Gamma(1/2-nu) comes by Legendre's
duplication formula from the kernel's ``log_gamma_ratio``.
The paper's Wronskian and level equations as printed, and the continuum
density built on that Wronskian, are a comparison mode and live in
``fluxbound.printed``, which reads this module; this module never reads it.

Everything here is a pure function of immutable values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, NamedTuple, Optional

from . import numkernel as nk

__all__ = [
    "Regime",
    "RegimeError",
    "EnergyDomainError",
    "FluxParts",
    "DiracChannel",
    "Extension",
    "BoundLevel",
    "RadialDoublet",
    "flux_decompose",
    "master_xi_of_energy",
    "log_abs_master_xi",
    "solve_bound_energy",
    "bound_doublet",
    "continuum_doublet",
    "CRITICAL_TOL",
]

CRITICAL_TOL = 1e-9


class Regime(Enum):
    EXTENDED = "extended"  # 0 < nu < 1/2: one-parameter extension family
    REGULAR = "regular"  # nu >= 1/2: essentially self-adjoint, continuum only
    CRITICAL = "critical"  # nu = 0 or half-integer: outside the solution family


class RegimeError(ValueError):
    """Operation requested in a regime where it is not defined."""


class EnergyDomainError(ValueError):
    """Energy outside the required range (gap vs continuum)."""


class FluxParts(NamedTuple):
    n: int
    beta: float


def flux_decompose(mu: float) -> FluxParts:
    """Split the flux as mu = n + beta with integer n = floor(mu), beta in [0,1)."""
    n = math.floor(mu)
    beta = mu - n
    if beta >= 1.0:  # guard the half-ulp corner, e.g. mu = 2 - 1e-17
        n += 1
        beta = 0.0
    return FluxParts(int(n), beta)


@dataclass(frozen=True)
class DiracChannel:
    """One angular-momentum/spin sector of the point-flux Dirac problem.

    Parameters
    ----------
    m : float
        Fermion mass; the energy unit (radii are measured in 1/m).
    l : int
        Orbital quantum number.
    s : int
        Spin label, +1 or -1.
    mu : float
        Magnetic flux in units of the flux quantum.
    """

    m: float
    l: int
    s: int
    mu: float

    def __post_init__(self) -> None:
        if not self.m > 0.0:
            raise ValueError(f"DiracChannel: m must be > 0, got {self.m}")
        if self.s not in (-1, 1):
            raise ValueError(f"DiracChannel: s must be +-1, got {self.s}")
        if self.l != int(self.l):
            raise ValueError(f"DiracChannel: l must be integer, got {self.l}")

    @property
    def nu_tilde(self) -> float:
        return self.l + self.mu + 0.5 * self.s

    @property
    def nu(self) -> float:
        return abs(self.nu_tilde)

    @property
    def j(self) -> float:
        return self.l + 0.5 * self.s

    @property
    def tau(self) -> int:
        nt = self.nu_tilde
        if nt == 0.0:
            raise RegimeError("tau undefined at nu_tilde = 0 (critical channel)")
        return self.s if nt > 0.0 else -self.s

    @property
    def flux_parts(self) -> FluxParts:
        return flux_decompose(self.mu)

    @property
    def regime(self) -> Regime:
        # exact for every finite nu, also where 2 nu overflows (an integer nu)
        nu = self.nu
        if abs(math.remainder(nu, 0.5)) < CRITICAL_TOL:
            return Regime.CRITICAL
        return Regime.EXTENDED if nu < 0.5 else Regime.REGULAR


@dataclass(frozen=True)
class Extension:
    """The paper's extension parameter xi; bound states exist exactly for xi < 0.

    +-inf is one extension, stored as +inf; theta = 2 atan(xi) mod 2pi is derived."""

    xi: float

    def __post_init__(self) -> None:
        if math.isnan(self.xi):
            raise ValueError("Extension: xi must not be NaN")
        if self.xi == -math.inf:
            object.__setattr__(self, "xi", math.inf)

    @classmethod
    def from_xi(cls, xi: float) -> "Extension":
        return cls(xi)

    @classmethod
    def from_theta(cls, theta: float) -> "Extension":
        if not 0.0 <= theta < 2.0 * math.pi:
            raise ValueError(f"Extension: theta must lie in [0, 2pi), got {theta}")
        return cls(math.inf if theta == math.pi else math.tan(0.5 * theta))

    @property
    def theta(self) -> float:
        return 2.0 * math.atan(self.xi) % (2.0 * math.pi)


@dataclass(frozen=True)
class BoundLevel:
    """A solved bound state in the mass gap."""

    E: float
    lam: float
    xi: float
    channel: DiracChannel
    residual: float


@dataclass(frozen=True)
class RadialDoublet:
    """Evaluator for a two-component radial profile (f1(r), f2(r)).

    ``small_r_exponents`` are the leading powers of each component as r -> 0
    (nan for an absent component).  Bound doublets come normalized in closed
    form (see ``bound_doublet``); continuum doublets are not normalizable.
    """

    evaluator: Callable[[float], tuple[float, float]] = field(repr=False)
    small_r_exponents: tuple[float, float]

    def __call__(self, r: float) -> tuple[float, float]:
        return self.evaluator(r)


# ---------------------------------------------------------------------------
# master extension curve and bound levels
# ---------------------------------------------------------------------------


def _require_extended(ch: DiracChannel, what: str) -> None:
    if ch.regime is not Regime.EXTENDED:
        raise RegimeError(
            f"{what}: channel nu={ch.nu:.6g} is {ch.regime.value}; "
            "requires the extended regime 0 < nu < 1/2"
        )


def _log_gamma_ratio(nu: float) -> float:
    # ln Gamma(1/2+nu)/Gamma(1/2-nu) for 0 < nu < 1/2, by Legendre's
    # duplication formula (DLMF 5.5.5) from the kernel's ln Gamma(1+x)/Gamma(1-x)
    return nk.log_gamma_ratio(2.0 * nu) - nk.log_gamma_ratio(nu) - 4.0 * nu * math.log(2.0)


def _log_abs_xi(nu: float, s: float, log_ratio: float) -> float:
    # ln|xi| of the master curve in s = ln((m - u)/(m + u)): mass-free,
    # increasing and convex, with softplus(s) = max(s, 0) + log1p(e^-|s|)
    # and log_ratio = _log_gamma_ratio(nu)
    softplus = max(s, 0.0) + math.log1p(math.exp(-abs(s)))
    return (0.5 - nu) * s + 2.0 * nu * softplus + log_ratio


def log_abs_master_xi(ch: DiracChannel, E: float) -> float:
    """ln|xi(E)| of the master curve, taken in s = ln((m - u)/(m + u)), u = tau*E,
    where it is (1/2 - nu) s + 2 nu softplus(s) + ln Gamma(1/2+nu)/Gamma(1/2-nu)."""
    _require_extended(ch, "log_abs_master_xi")
    m = ch.m
    if not abs(E) < m:
        raise EnergyDomainError(f"log_abs_master_xi: need |E| < m, got E={E}, m={m}")
    u = ch.tau * E
    nu = ch.nu
    return _log_abs_xi(nu, math.log(m - u) - math.log(m + u), _log_gamma_ratio(nu))


def master_xi_of_energy(ch: DiracChannel, E: float) -> float:
    """Extension parameter whose boundary condition the decaying doublet at E obeys.

    xi(E) = -sqrt((m - tau*E)/(m + tau*E)) * Gamma(1/2+nu)/Gamma(1/2-nu)
            * (2m/lambda)^(2 nu),        lambda = sqrt(m^2 - E^2),

    in the orientation with bound states exactly at xi < 0.  |xi| decreases
    strictly along u = tau*E, from +inf at u -> -m to 0 at u -> +m, so each
    xi < 0 is hit exactly once (bound-state uniqueness); E -> tau*m as
    xi -> 0^- and E -> -tau*m as xi -> -inf.
    """
    return -math.exp(log_abs_master_xi(ch, E))


def solve_bound_energy(ch: DiracChannel, ext: Extension) -> Optional[BoundLevel]:
    """Unique gap level with master_xi_of_energy(ch, E) = xi, or None for xi >= 0.

    In s = ln((m - u)/(m + u)) the level equation ln|master xi| = ln(-xi) is
    the increasing, convex line (1/2 - nu) s + 2 nu softplus(s) = t with
    t = ln(-xi) - ln Gamma(1/2+nu)/Gamma(1/2-nu), formed once, and the
    kernel's ``solve_line`` finds its root by Newton from s = 0, as the
    oracle does with its own t.  E = -tau m tanh(s/2), lambda = m / cosh(s/2)
    (0 only where it underflows), residual |master xi - xi| at s.
    """
    _require_extended(ch, "solve_bound_energy")
    xi = ext.xi
    if not xi < 0.0:
        return None
    m, nu = ch.m, ch.nu
    target = math.log(-xi)
    log_ratio = _log_gamma_ratio(nu)
    s = nk.solve_line(0.5 - nu, 2.0 * nu, target - log_ratio)
    half = math.exp(-0.5 * abs(s))  # lambda = m / cosh(s/2) without overflow
    E = -ch.tau * m * math.tanh(0.5 * s)
    lam = 2.0 * m * half / (1.0 + half * half)
    residual = -xi * abs(math.expm1(_log_abs_xi(nu, s, log_ratio) - target))
    return BoundLevel(E=E, lam=lam, xi=xi, channel=ch, residual=residual)


# ---------------------------------------------------------------------------
# wave functions
# ---------------------------------------------------------------------------


def _k_orders(ch: DiracChannel) -> tuple[float, float]:
    # MacDonald orders of (f1, f2): (|nu_tilde - s/2|, |nu_tilde + s/2|)
    return abs(ch.nu_tilde - 0.5 * ch.s), abs(ch.nu_tilde + 0.5 * ch.s)


def bound_doublet(level: BoundLevel) -> RadialDoublet:
    """Normalized bound-state doublet F(r) = C sqrt(lam r) (w_1 K_a(lam r), s w_2 K_b(lam r)).

    Component orders {a, b} = {|nu_tilde - s/2|, |nu_tilde + s/2|} and weights
    (w_1, w_2) = (sqrt(m+E), sqrt(m-E)) follow from row-wise substitution into
    the first-order system (equal weights hold only at E = 0).  The leading
    small-r powers are (nu, -nu) for tau = +1 and (-nu, nu) for tau = -1,
    matching the extension domain template, and the tail decays like
    exp(-lambda r).  The squared norm is (w_1^2 I(a) + w_2^2 I(b)) / lambda
    with I(a) = int_0^inf z K_a(z)^2 dz in closed form, so
    C = sqrt(lambda / (w_1^2 I(a) + w_2^2 I(b))); lambda = 0 (underflowed) has
    no decaying tail and raises EnergyDomainError.
    """
    ch = level.channel
    _require_extended(ch, "bound_doublet")
    m, s, lam, E = ch.m, ch.s, level.lam, level.E
    if lam == 0.0:
        raise EnergyDomainError(f"bound_doublet: lambda underflows to 0 at E={E!r}")
    a1, a2 = _k_orders(ch)
    # (sqrt(m+E), sqrt(m-E)) as p = sqrt(m+|E|) and lambda/p: finite at E = +-m
    p = math.sqrt(m + abs(E))
    w1, w2 = (p, lam / p) if E >= 0.0 else (lam / p, p)
    i1, i2 = nk.bessel_k_square_integral(a1), nk.bessel_k_square_integral(a2)
    c = math.sqrt(lam / (w1 * w1 * i1 + w2 * w2 * i2))
    c1, c2 = c * w1, c * s * w2

    def evaluator(r: float) -> tuple[float, float]:
        z = lam * r
        pref = math.sqrt(z)
        return c1 * pref * nk.bessel_k(a1, z), c2 * pref * nk.bessel_k(a2, z)

    nu = ch.nu
    expo = (nu, -nu) if ch.tau == 1 else (-nu, nu)
    return RadialDoublet(evaluator=evaluator, small_r_exponents=expo)


def _continuum_pieces(ch: DiracChannel, E: float):
    """Regular/irregular continuum solutions (U1-like, U2-like).

    Real on both rims of the continuum.  U1 leads with 2 (m r)^nu in the
    carrying component and U2 with 2 (m r)^(-nu) in the companion: n_reg and
    n_irr each carry a factor 2 over a unit coefficient.  Built in u = tau*E
    with the r^(+nu) carrying component first; continuum_doublet swaps the
    components of a tau = -1 channel.  Each piece takes both of its orders
    from one bessel_j_pair: J_{nu-1/2}, J_{nu+1/2} and J_{-nu-1/2}, J_{1/2-nu}.
    """
    m, s, nu = ch.m, ch.s, ch.nu
    k = math.sqrt(abs(E * E - m * m))
    u = ch.tau * E
    n_reg = 2.0 * m**nu * nk.gamma_fn(0.5 + nu) * (0.5 * k) ** (0.5 - nu)
    n_irr = 2.0 * m ** (-nu) * nk.gamma_fn(0.5 - nu) * (0.5 * k) ** (0.5 + nu)
    rho_reg = s * k / (u + m)
    rho_irr = -s * (u + m) / k

    def u1(r: float) -> tuple[float, float]:
        sq = math.sqrt(r)
        j_lo, j_hi = nk.bessel_j_pair(nu + 0.5, k * r)
        return n_reg * sq * j_lo, n_reg * rho_reg * sq * j_hi

    def u2(r: float) -> tuple[float, float]:
        sq = math.sqrt(r)
        j_lo, j_hi = nk.bessel_j_pair(0.5 - nu, k * r)
        return n_irr * rho_irr * sq * j_hi, n_irr * sq * j_lo

    return u1, u2


def continuum_doublet(ch: DiracChannel, ext: Extension, E: float) -> RadialDoublet:
    """Continuum eigen-doublet at |E| > m (the edge |E| = m is excluded numerically).

    Extended regime: U1 - (s xi) U2 in the internal template weight (xi = 0
    gives the pure regular branch, xi = infinity the pure irregular branch
    -U2); Regular regime: the regular branch alone, xi ignored.  A tau = -1
    channel is the tau = +1 one at -E with its two components swapped.  The
    doublet is twice the domain template with C = 1: the carrying component
    leads with 2 (m r)^nu and the companion with -2 s xi (m r)^(-nu) (-2 (m r)^(-nu)
    at xi = infinity).  The extension is fixed by the ratio of these two
    leading coefficients alone, so the factor 2 does not move it.
    """
    m = ch.m
    if not abs(E) > m:
        raise EnergyDomainError(
            f"continuum_doublet: need |E| > m (edge excluded), got E={E}"
        )
    regime = ch.regime
    if regime is Regime.CRITICAL:
        raise RegimeError("continuum_doublet: critical channel")
    nu = ch.nu
    u1, u2 = _continuum_pieces(ch, E)
    xi_int = 0.0 if regime is Regime.REGULAR else ch.s * ext.xi
    if xi_int == 0.0:
        evaluator = u1
        expo = (nu, nu + 1.0)
    elif math.isinf(xi_int):
        evaluator = lambda r: tuple(-v for v in u2(r))
        expo = (1.0 - nu, -nu)
    else:
        evaluator = lambda r: tuple(a - xi_int * b for a, b in zip(u1(r), u2(r)))
        expo = (nu, -nu)
    if ch.tau == -1:
        carrying_first = evaluator
        evaluator = lambda r: carrying_first(r)[::-1]
        expo = expo[::-1]
    return RadialDoublet(evaluator=evaluator, small_r_exponents=expo)
