"""Independent ODE eigensolver used to adjudicate every analytic level.

The oracle never touches the analytic level formulas: it seeds the radial
problem with the extension-family boundary template (each branch continued
by the summed Frobenius series of the ODE itself) and measures the
template's admixture of the mode that grows deep in the classically
forbidden tail, as its Wronskian with the decaying solution.  Bound levels
are the energies where that mismatch vanishes.

The extension parameter fixes the template at r = 0, and away from the
origin the radial equations hold no length but the tail decay length 1/k, so
1/k is the oracle's only length: everything is laid out in z = k*r.  The
radial Dirac coefficients are constant in the pure Aharonov-Bohm field, so
eliminating the lower component is exact: f1'' = [a(a - 1)/r^2 + lambda^2] f1
with a = s*nu_tilde and lambda^2 = 1 - E^2, the reduced Schroedinger form
u'' = [(g^2 - 1/4)/r^2 + k^2] u of the neutral-fermion sector with
g = |l + mu| and k = lambda.  In z neither that equation,
u'' = [(p^2 - 1/4)/z^2 + 1] u, nor the matching point holds the energy; the
template c_reg r^p F_p + c_irr r^-p F_-p (in r^(-1/2) u) holds it only in
its coefficients, and the mismatch is linear in the solution.  So the
mismatch at E is, to rounding,

    k^(-1/2) (c_reg k^(-p) M_reg + c_irr k^p M_irr)
        = c_irr k^(p - 1/2) M_irr (1 + rho/R),    rho = c_reg k^(-2p)/c_irr,

with M_reg and M_irr the mismatches of the branches
u_(+-p) = z^(1/2 +- p) F_(+-p)(z^2) at k = 1, F_a(z^2) = 0F1(; 1 + a; z^2/4),
and R = M_irr/M_reg their connection ratio.

**Series matching.**  M is the Wronskian a u' - a' u of a branch with the
decaying solution a(z) = e^(-z) S(z), both summed at one matching radius
z_m = 9 (``_series_match``).  The branches' Frobenius series converge at
every z, and for an index above -1 every term is positive, so nothing
cancels (DLMF 10.25.2); both are summed in one loop, as value and
z-derivative, until a term no longer changes either sum.  S is the Hankel
expansion of sqrt(2z/pi) e^z K_p(z), S = sum_k w_k z^-k with w_0 = 1 and
w_k = w_(k-1) (4p^2 - (2k - 1)^2)/(8k) (DLMF 10.40.2), summed up to its
smallest term; a' = -e^(-z) (S + sum_k k w_k z^(-k-1)).  In the Wronskian
a u' and -a' u are both positive, so nothing cancels there either.

**The truncation bound.**  Let S_L hold the L terms summed, so that w_L is
the first neglected one.  By the recurrence, a_L = e^(-z) S_L solves the
equation up to a source, a_L'' - (c/z^2 + 1) a_L = -2L w_L e^(-z) z^(-L-1)
with c = p^2 - 1/4, and the error eps = a - a_L has
W[eps, a](z_m) = 2L w_L int_(z_m)^inf z^(-L-1) e^(-2z) S(z) dz.  The part of
eps proportional to a scales both branch mismatches alike, so it cancels in
R.  The part along the growing solution sqrt(z) I_p misses M_reg, whose
branch is that solution, and enters M_irr through
I_(-p) = I_p + (2/pi) sin(p pi) K_p, so dR/R = -sin(p pi) W[eps, a], and since
S(z) <= 1 + max(w_1, 0)/z for z > 0 (DLMF 10.40(ii): the remainder after one
term has the sign of, and is smaller than, the first neglected term),

    |dR/R| <= |sin(p pi)| L |w_L| z_m^(-L-1) e^(-2 z_m) (1 + max(w_1, 0)/z_m).

At the smallest term |w_L| z_m^-L is about e^(-2 z_m), so the bound falls
like e^(-4 z_m).  Against 40-digit mpmath over 3000 p in (-1/2, 1) it holds
at every z_m from 3 to 10, where it is at most 2.3 times the worst error.
Its largest value reads 1.2e-11 at z_m = 6, 3.2e-15 at 8, 5.3e-17 at 9 and
9.1e-19 at 10, and the worst |R/R_exact - 1| 5.3e-12, 2.5e-15, 1.3e-15 and
1.4e-15 (the last two are rounding).  z_m = 9 puts the truncation 25 times
below the rounding for about two terms more per series than z_m = 8; a
shoot sums at most 43 terms in all (22 Frobenius and 19 Hankel terms at
p = 0.3).

**The level line.**  A level is where rho = -R.  rho < 0 for every xi < 0,
and R > 0, so a level solves ln|rho(x)| = ln R on the whole real line of the
sector's scan variable x, where, with softplus(x) = max(x, 0) +
log1p(e^-|x|),

    ln|rho(x)| = a x + b softplus(x) + c:

- Dirac: x = s = ln((1 - u)/(1 + u)), u = tau*E/m, a = 1/2 - nu, b = 2nu,
  c = ln(w/|xi|) - 2nu ln 2 and p = nu - tau/2, with w = 1 - 2nu for
  tau = +1 and 1/(1 + 2nu) for tau = -1, from
  ln|rho| = (1/2 - nu) ln(1 - u) - (1/2 + nu) ln(1 + u) + ln(w/|xi|);
- neutral fermion: x = y = ln(-E/m), kappa = sqrt(2 e^y) m, a = -g, b = 0,
  c = -g ln 2 - ln|xi| and p = g.

Each line is strictly monotone, so each xi < 0 has one level, the root of
a x + b softplus(x) = t with t = ln R - c.  The kernel's ``solve_line``
finds it, t/a for the neutral fermion and by convex Newton for Dirac; the
analytic Dirac level is the same solve with its own t.  The scan variables
cover the whole gap and the whole negative axis.  Both sectors run one
skeleton, ``_shoot``: one R, one solve and one conversion to E.  A level's
error is R's error over the line's slope |a + b sigma(x)| in x, sigma the
logistic, times |dE/dx|; ``OracleResult.error_bound`` states it.

The oracle stays independent of the analytic route: it uses the ODE, its
Frobenius and Hankel series, linearity and this scaling, and calls no level
formula, Gamma ratio or Bessel function.  The analytic levels solve the same
line with the Gamma-function connection ratio 2^(-2p) Gamma(1-p)/Gamma(1+p)
in place of R.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional

from . import numkernel as nk
from .ab_spectrum import DiracChannel, Extension, Regime, RegimeError
from .ac_spectrum import ACChannel, ACRegime

__all__ = [
    "ShootingConfig",
    "OracleResult",
    "dirac_shoot",
    "schrodinger_shoot",
]


@dataclass(frozen=True)
class ShootingConfig:
    """Controls for one shoot.

    diagnostics enables the error bound (see OracleResult); with it off the
    bound is NaN.  The bound costs a few operations, so the field stays only
    for the benchmark's ``ShootingConfig(diagnostics=False)`` call, until a
    change to the benchmark frees it.
    """

    diagnostics: bool = True


@dataclass(frozen=True)
class OracleResult:
    """A shot level with its error bound and the series terms it summed.

    error_bound bounds |E - E_exact| in energy units, where E is a normal
    float:

        error_bound = m (|dE/dx| dx + 2 eps |E/m|),
        dx = (B + eps (16 + 4 (|t| + |c|)))/|a + b sigma(x)| + 2 eps |x|,

    with B the connection ratio's truncation bound (see the module
    docstring), eps = 2^-52 and the rest a rounding allowance: 16 eps for
    R, 4 eps for forming t = ln R - c and solving the line, 2 eps each for
    the root and for E.  Against 50-digit mpmath over 16600 random Dirac
    and neutral-fermion levels (nu from 1e-6 to 1/2 - 1e-6, gamma from
    1e-4 to 1 - 1e-6, |xi| from e^-40 to e^40) the error read at most 0.34
    of it.  It is NaN with diagnostics off.

    terms counts the series terms the shoot summed: the Frobenius loop's
    terms, both branches at once, and the Hankel series' terms.

    match_residual is a fixed resolution of 1e-15 in the scan variable, in
    energy units: 1e-15 |dE/dx|, so 1e-15 m sech(s/2)^2/2 for Dirac and
    1e-15 |E| for the neutral fermion.  It is not a solver tolerance: the
    line's root is solved to rounding (see _shoot).

    convergence_order_estimate is always NaN: no step is refined, so no
    order can be read.  r_min_sensitivity is 0.0, or NaN with diagnostics
    off: no inner cutoff is left to halve, since the template fixes the
    solution at r = 0.  The two fields stay for the callers that build and
    read them positionally."""

    E: float
    match_residual: float
    convergence_order_estimate: float
    r_min_sensitivity: float
    error_bound: float = math.nan
    terms: int = 0


# ---------------------------------------------------------------------------
# the branch pair by series matching
# ---------------------------------------------------------------------------


# a matching radius: (z_m, (n, (z_m/2)^2/n) for the Frobenius terms,
# (k, (2k - 1)^2, 1/(8 k z_m)) for the Hankel terms, e^(-z_m)/sqrt(z_m),
# e^(-2 z_m)/z_m)
Radius = tuple[float, tuple, tuple, float, float]


def _matching_radius(z: float) -> Radius:
    """What _series_match needs of the matching radius z.  Up to z = 12 a
    match sums at most 52 terms at every |p| < 1, well inside each loop's 63
    steps."""
    return (
        z,
        tuple((n, 0.25 * z * z / n) for n in range(1, 64)),
        tuple((k, (2 * k - 1) ** 2, 0.125 / (k * z)) for k in range(1, 64)),
        math.exp(-z) / math.sqrt(z),
        math.exp(-2.0 * z) / z,
    )


# the oracle's matching radius, in units of the decay length 1/k
_RADIUS = _matching_radius(9.0)


def _series_match(p: float, radius: Radius = _RADIUS) -> tuple[float, float, int, float]:
    """(M_reg, M_irr, terms, bound) of the branches u_(+-p) at the matching
    radius z_m, for -1 < p < 1.

    M is the Wronskian a u' - a' u of the branch with the decaying solution
    a = e^(-z) S, both summed at z_m (see the module docstring).  Their
    ratio R = M_irr/M_reg is the connection ratio to within bound, the
    truncation bound on |dR/R|, and rounding.  Each M alone carries the
    decaying solution's truncation error, about e^(-2 z_m) relative (1.7e-9
    at p = 0.3), which cancels in R.  terms counts the Frobenius and Hankel
    terms summed.
    """
    z, frobenius_steps, hankel_steps, scale, trunc_scale = radius
    # the branches' series sum_n t_n and sum_n n t_n, t_n = t_(n-1) q/(n (n +- p)),
    # until a term no longer changes either sum
    t_reg = t_irr = s_reg = s_irr = 1.0
    n_reg = n_irr = 0.0
    for n, q_n in frobenius_steps:
        t_reg *= q_n / (n + p)
        t_irr *= q_n / (n - p)
        if s_irr + t_irr == s_irr and s_reg + t_reg == s_reg:
            break
        s_reg += t_reg
        s_irr += t_irr
        n_reg += n * t_reg
        n_irr += n * t_irr
    # the Hankel series S = sum_k w_k z^-k and s1 = sum_k k w_k z^-k, up to
    # the smallest term; the loop ends with w_L z^-L, the first neglected one
    fp = 4.0 * p * p
    term = s = 1.0
    s1 = 0.0
    for k, odd2, step in hankel_steps:
        neglected = term * (fp - odd2) * step
        if abs(neglected) >= abs(term):
            break
        term = neglected
        s += term
        s1 += k * term
    # a u' - a' u = e^(-z) z^(-1/2 +- p) (S d + (z S + s1) sigma) for the
    # branch's series sigma and its z-derivative's d = (1/2 +- p) sigma + 2 sum n t_n
    grow = z * s + s1
    zp = z**p
    m_reg = scale * zp * (s * ((0.5 + p) * s_reg + 2.0 * n_reg) + grow * s_reg)
    m_irr = scale / zp * (s * ((0.5 - p) * s_irr + 2.0 * n_irr) + grow * s_irr)
    s_max = 1.0 + max(fp - 1.0, 0.0) * hankel_steps[0][2]
    bound = abs(math.sin(math.pi * p)) * k * abs(neglected) * trunc_scale * s_max
    return m_reg, m_irr, n + k, bound


# ---------------------------------------------------------------------------
# the shooting skeleton
# ---------------------------------------------------------------------------


_NAN = float("nan")
_EPS = sys.float_info.epsilon
_LN2 = math.log(2.0)
_LN_MAX = math.log(sys.float_info.max)
# match_residual's fixed resolution in the scan variable
_X_RESOLUTION = 1e-15

# (a, b, c): ln|rho(x)| = a x + b softplus(x) + c over a sector's scan
# variable x (see the module docstring)
Line = tuple[float, float, float]


def _shoot(
    cfg: ShootingConfig,
    m: float,
    p: float,
    line: Line,
    to_e: Callable[[float], tuple[float, float]],
) -> Optional[OracleResult]:
    """The level of a sector with its error bound, or None where E is not
    finite.

    p and line are the sector's (see the module docstring); to_e(x) gives E/m
    and |d(E/m)/dx|.  The shoot forms R from one series match and hands the
    kernel's ``solve_line`` the line's a and b with t = ln R - c, formed
    once here.  The bound is that of OracleResult.
    """
    m_reg, m_irr, terms, r_bound = _series_match(p)
    a, b, c = line
    t = math.log(m_irr / m_reg) - c
    x = nk.solve_line(a, b, t)
    e, de_dx = to_e(x)
    if not math.isfinite(m * e):
        return None
    resid_e = m * _X_RESOLUTION * de_dx
    if not cfg.diagnostics:
        return OracleResult(m * e, resid_e, _NAN, _NAN, terms=terms)
    h = math.exp(-abs(x))
    slope = abs(a + b * (1.0 if x >= 0.0 else h) / (1.0 + h))
    dx = (r_bound + _EPS * (16.0 + 4.0 * (abs(t) + abs(c)))) / slope + 2.0 * _EPS * abs(x)
    bound = m * (de_dx * dx + 2.0 * _EPS * abs(e))
    return OracleResult(m * e, resid_e, _NAN, 0.0, bound, terms)


# ---------------------------------------------------------------------------
# Dirac shoot
# ---------------------------------------------------------------------------


def _dirac_line(ch: DiracChannel, xi: float) -> tuple[float, Line]:
    """(p, line) of the f1 component of the domain template over
    s = ln((1 - u)/(1 + u)), u = tau*E (see the module docstring).

    The template pair, built in u with the r^(+nu) carrying component first,
    is r^nu - xi_int (u + 1)/(s(2nu - 1)) r^(1 - nu) and
    (u - 1)/(s(2nu + 1)) r^(nu + 1) - xi_int r^(-nu), xi_int = s*xi, each
    branch continued by its Frobenius factor.  f1 is the carrying component
    for tau = +1 and the companion one for tau = -1 (a tau = -1 channel is
    the tau = +1 one at -E with its components swapped); in r^(-1/2) f1 its
    branches are r^(+-p) with p = nu - 1/2 or nu + 1/2, and |p| = |l + mu|.
    """
    nu = ch.nu
    w = 1.0 - 2.0 * nu if ch.tau == 1 else 1.0 / (1.0 + 2.0 * nu)
    c = math.log(w) - math.log(-xi) - 2.0 * nu * _LN2
    return nu - 0.5 * ch.tau, (0.5 - nu, 2.0 * nu, c)


def dirac_shoot(
    ch: DiracChannel, ext: Extension, cfg: ShootingConfig = ShootingConfig()
) -> Optional[OracleResult]:
    """Bound level of the Dirac channel by series matching, or None.

    Seeds f1 from the domain template with the channel-sign component
    pairing and internal weight s*xi (see _dirac_line), matches it to the
    decaying solution of its exact second-order equation
    f1'' = [a(a - 1)/r^2 + lambda^2] f1, and solves for the growing-mode
    admixture's zero over the whole line of s = ln((1 - u)/(1 + u)),
    u = tau*E/m.  Since s(E + 1) does not vanish in the gap,
    f2 = ((a/r) f1 - f1')/(s(E + 1)) decays exactly when f1 does.  Every
    xi < 0 has a level, whose E rounds to -+m where lambda falls below
    1.5e-8 m; None for xi >= 0.
    """
    if ch.regime is not Regime.EXTENDED:
        raise RegimeError("dirac_shoot: requires an extended-regime channel")
    xi = ext.xi
    if not xi < 0.0:
        return None
    tau = ch.tau

    def to_e(s: float) -> tuple[float, float]:
        # |du/ds| = sech(s/2)^2 / 2, with h = e^(-|s|/2) so that nothing overflows
        h = math.exp(-0.5 * abs(s))
        return -tau * math.tanh(0.5 * s), 2.0 * (h / (1.0 + h * h)) ** 2

    return _shoot(cfg, ch.m, *_dirac_line(ch, xi), to_e)


# ---------------------------------------------------------------------------
# Schroedinger shoot
# ---------------------------------------------------------------------------


def _ac_line(g: float, xi: float) -> tuple[float, Line]:
    """(p, line) of the domain template f ~ (m r)^g + xi (m r)^(-g) over
    y = ln(-E/m), with kappa = sqrt(2 e^y) m (see the module docstring)."""
    return g, (-g, 0.0, -g * _LN2 - math.log(-xi))


def _ac_energy(y: float) -> tuple[float, float]:
    # E/m = -e^y and |d(E/m)/dy| = e^y, infinite where e^y overflows
    e = math.exp(y) if y < _LN_MAX else math.inf
    return -e, e


def schrodinger_shoot(
    ch: ACChannel, ext: Extension, cfg: ShootingConfig = ShootingConfig()
) -> Optional[OracleResult]:
    """Negative level of the neutral-fermion channel by series matching.

    Seeds the domain template (see _ac_line), solves for ln(-E_n/m) over the
    whole real line, and reports the error bound.  Returns None for
    xi >= 0, and where -E_n overflows the double range.
    """
    if ch.regime is not ACRegime.EXTENDED:
        raise RegimeError("schrodinger_shoot: requires 0 < gamma < 1")
    xi = ext.xi
    if not xi < 0.0:
        return None
    return _shoot(cfg, ch.m, *_ac_line(ch.gamma, xi), _ac_energy)
