"""Independent ODE eigensolver used to adjudicate every analytic level.

The oracle never touches the analytic level formulas: it seeds the radial
problem with the extension-family boundary template (each branch continued
by the summed Frobenius series of the ODE itself) and measures the
template's admixture of the mode that grows deep in the classically
forbidden tail, as its cross product with the decaying asymptotic solution.
Bound levels are the energies where that mismatch vanishes.

The extension parameter fixes the template at r = 0, and away from the
origin the radial equations hold no length but the tail decay length 1/k, so
1/k is the oracle's only length: every grid is laid out in z = k*r.  One
integrator serves both sectors.  The radial Dirac coefficients are constant
in the pure Aharonov-Bohm field, so eliminating the lower component is
exact: f1'' = [a(a - 1)/r^2 + lambda^2] f1 with a = s*nu_tilde and
lambda^2 = 1 - E^2, the reduced Schroedinger form
u'' = [(g^2 - 1/4)/r^2 + k^2] u of the neutral-fermion sector with
g = |l + mu| and k = lambda.  The Frobenius series converges at every
radius, and for an index above -1 every term is positive, so nothing cancels
(DLMF 10.25.2); the template is evaluated directly out to the seed radius
z = 2, past the power-law zone where Numerov loses most.  Numerov's one
linear grid runs from there through 10 decay lengths of the tail, to
z = 12, in steps of numerov_dx (100 at the default 0.1), and the one
resolution knob is that step; the error falls as its fourth power.

The mismatch of a solution is its cross product with the decaying
asymptote at the grid's last two points, over the grid's free growth
exp(10): the growing-mode coefficient times a smooth positive scale, so no
value needs renormalizing.  Numerov's three-term form conserves the
discrete Wronskian of any two solutions exactly (Blatt, J. Comput. Phys. 1
(1967) 382), so that cross product is read at the seed instead: one sweep
carries the decaying asymptote inward from z = 12 to z = 2, the direction in
which it grows, and every solution's mismatch is its cross product with the
swept asymptote at the first two grid points.  The inward sweep damps the
error of the asymptote's tail values, so on the A3 grids a tail to z = 40
moves no level by more than 1.4e-15 m.  It takes one sweep, not one
integration per energy: in z neither the equation
u'' = [(g^2 - 1/4)/z^2 + 1] u nor the grid holds the energy, the template
c_reg r^p F_p + c_irr r^-p F_-p (in r^(-1/2) u) holds it only in its
coefficients, and the mismatch is linear in the solution.  So the mismatch
at E is, to rounding,

    k^(-1/2) (c_reg k^(-p) M_reg + c_irr k^p M_irr)
        = c_irr k^(p - 1/2) M_irr (1 + rho/R),    rho = c_reg k^(-2p)/c_irr,

with M_reg and M_irr the mismatches of the branches z^(+-p) F_(+-p) at
k = 1, both read from that one sweep, and R = M_irr/M_reg their connection
ratio.  A level is where rho = -R.  rho < 0 for every xi < 0, so a level
exists exactly when R > 0, and it solves ln|rho(x)| = ln R on the whole
real line of the sector's scan variable x, where, with softplus(x) =
max(x, 0) + log1p(e^-|x|),

    ln|rho(x)| = a x + b softplus(x) + c:

- Dirac (see _dirac_template): x = s = ln((1 - u)/(1 + u)), u = tau*E/m,
  a = 1/2 - nu, b = 2nu, c = ln(w/|xi|) - 2nu ln 2 and p = nu - tau/2, with
  w = 1 - 2nu for tau = +1 and 1/(1 + 2nu) for tau = -1, from
  ln|rho| = (1/2 - nu) ln(1 - u) - (1/2 + nu) ln(1 + u) + ln(w/|xi|);
- neutral fermion: x = y = ln(-E/m), kappa = sqrt(2 e^y) m, a = -g, b = 0,
  c = -g ln 2 - ln|xi| and p = g.

Each line is strictly monotone, so each xi < 0 has one level, the root of
a x + b softplus(x) = t with t = ln R - c.  The kernel's ``solve_line``
finds it, t/a for the neutral fermion and by convex Newton for Dirac; the
analytic Dirac level is the same solve with its own t.  The scan variables
cover the whole gap and the whole negative axis.  Both sectors run one
skeleton, ``_shoot``, which does this at the base step and, with
diagnostics on, at twice and four times it (the discretization ladder);
``OracleResult.evaluations`` counts the Numerov solutions it integrates,
one per solve, and ``OracleResult.numerov_steps`` the steps of its sweeps.

The oracle stays independent of the analytic route: it uses the ODE, its
Frobenius template (the kernel's ``frobenius_factor``), linearity and this
scaling, and calls no level formula, Gamma ratio or Bessel function.  The
analytic levels solve the same line with the Gamma-function connection
ratio 2^(-2p) Gamma(1-p)/Gamma(1+p) in place of R, so a level's error is
R's error over the line's slope in x.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from . import numkernel as nk
from .ab_spectrum import DiracChannel, Extension, Regime, RegimeError
from .ac_spectrum import ACChannel, ACRegime

__all__ = [
    "ShootingConfig",
    "OracleResult",
    "dirac_shoot",
    "schrodinger_shoot",
    "count_dirac_levels",
]


# the diagnostic ladder's probe steps, in units of numerov_dx
_LADDER = (2, 4)


@dataclass(frozen=True)
class ShootingConfig:
    """Numerical controls for one shoot.

    numerov_dx is the Numerov grid step of both sectors in units of 1/k, the
    oracle's only length, with k the tail decay constant (lambda =
    sqrt(1 - E^2) for Dirac, kappa = sqrt(-2E) for Schroedinger, in units of
    m).  At the default 0.1 a solve's one sweep takes 100 steps, from z = 12
    in to z = 2, and the golden shoots land 2.1e-10 m (Dirac) and 3.4e-9 m
    (neutral fermion) off; at 0.05 four of the 50 A3 ladders fall below the
    rounding floor and give no order.  Every integrated step stays below 1,
    and with diagnostics on the coarsest ladder rung integrates at
    4*numerov_dx, so numerov_dx lies below 0.25 (below 1 with diagnostics
    off): at 0.24 the golden shoots are 9.1e-9 m (Dirac) and 9.6e-8 m
    (neutral fermion) off.  diagnostics enables the coarsened-step re-solves
    (see _shoot).
    """

    numerov_dx: float = 0.1
    diagnostics: bool = True

    def __post_init__(self) -> None:
        coarsest = _LADDER[-1] * self.numerov_dx if self.diagnostics else self.numerov_dx
        if not (0.0 < self.numerov_dx and coarsest < 1.0):
            raise ValueError(
                "ShootingConfig: numerov_dx out of (0, 0.25) ((0, 1) with diagnostics off)"
            )


@dataclass(frozen=True)
class OracleResult:
    """A shot level with the Numerov integrations it took.

    match_residual is a fixed resolution of 1e-15 in the scan variable, in
    energy units: 1e-15 |dE/dx|, so 1e-15 m sech(s/2)^2/2 for Dirac and
    1e-15 |E| for the neutral fermion.  It is not a solver tolerance: the
    line's root is solved to rounding (see _shoot).

    evaluations counts the Numerov solutions the shoot integrates, one per
    solve (the decaying asymptote, from which both template branches read
    their mismatches): 1 with diagnostics off and 3 with them on.
    numerov_steps is the sum of its sweeps' steps: 100 at the default step
    with diagnostics off, and 175 with them on, where the ladder's two
    probes take 0.75 times the base solve's steps.

    error_estimate is Richardson's a-posteriori error of E, |E(dx) -
    E(2dx)|/15 for the Numerov step dx = numerov_dx.  The factor 15 =
    2^4 - 1 assumes order 4, whatever order the ladder observes; on the A3
    grids at the default step the orders read 3.46 to 5.80 and the estimate
    is 0.83 to 1.30 times the true error.  It is NaN with diagnostics off,
    and so are convergence_order_estimate and r_min_sensitivity.

    r_min_sensitivity is otherwise 0.0: no inner cutoff is left to halve,
    since the template fixes the solution at r = 0 and every grid is seeded
    at z = 2 whatever the energy.  The field stays for the callers and the
    CLI column that read it."""

    E: float
    match_residual: float
    convergence_order_estimate: float
    r_min_sensitivity: float
    evaluations: int = 0
    error_estimate: float = math.nan
    numerov_steps: int = 0


# ---------------------------------------------------------------------------
# template branches and the closed-form mismatch
# ---------------------------------------------------------------------------


# every grid runs from the seed radius z = _SEED_Z, where the summed template
# series hands over to Numerov, to the tail end z = _TAIL_Z, 10 decay lengths
# further out
_SEED_Z = 2.0
_TAIL_Z = 12.0


def _branch_values(p: float, z: float) -> tuple[float, float]:
    """The branch pair z^(+-p) F_(+-p)(z^2) at z on the k = 1 grid."""
    z2 = z**2
    return z**p * nk.frobenius_factor(p, z2), z**-p * nk.frobenius_factor(-p, z2)


def _branch_pair(
    p: float, dx: float, at_seed: Optional[tuple[float, float]] = None
) -> tuple[float, float]:
    """(M_reg, M_irr): the tail mismatches of the branches z^(+-p) F_(+-p)(z^2)
    on the k = 1 grid at step dx, both read at the seed from one inward
    sweep.  at_seed is the pair's value at the seed radius, the same at
    every step, which a shoot computes once for all its rungs.

    The grid runs from the seed z_0 = _SEED_Z to the tail end z_n = _TAIL_Z
    in n = _sweep_steps(dx) steps.  A branch's mismatch is its cross
    product u_n a_(n-1) - u_(n-1) a_n with the decaying asymptote
    a(z) = e^(-z) (1 + w1/z + w2/z^2) at the last two grid points, times
    the free growth's inverse exp(-(z_n - z_0)): the growing-mode
    coefficient times a smooth positive scale.  Numerov's t-form
    t_i = d_i u_i, d_i = 1 - h^2 w_i/12, conserves the discrete Wronskian
    t_(i+1) s_i - t_i s_(i+1) of any two solutions exactly, so the
    asymptote, swept inward to z_0 (see _numerov_in), gives every branch's
    mismatch as its cross product with the branch's summed series at z_0
    and z_1.  The asymptote's tail values are divided by d_(n-1) d_n, so
    that the seed's t-form cross product is the tail's in u.
    """
    n = _sweep_steps(dx)
    h = (_TAIL_Z - _SEED_Z) / n
    g2 = p * p
    c = g2 - 0.25
    hh_12 = h * h / 12.0

    def d(z: float) -> float:
        return 1.0 - hh_12 * (c / (z * z) + 1.0)

    z_b = _SEED_Z + (n - 1) * h
    w1 = (4.0 * g2 - 1.0) / 8.0
    w2 = (4.0 * g2 - 1.0) * (4.0 * g2 - 9.0) / 128.0
    scale = math.exp(-(_TAIL_Z - _SEED_Z))
    a_n = scale * math.exp(z_b - _TAIL_Z) * (1.0 + w1 / _TAIL_Z + w2 / (_TAIL_Z * _TAIL_Z))
    a_b = scale * (1.0 + w1 / z_b + w2 / (z_b * z_b))
    t_tail = (a_n / d(z_b), a_b / d(_TAIL_Z))
    t_0, t_1 = _numerov_in(c, 1.0, h, _inner_q(_SEED_Z, _TAIL_Z, n), t_tail)
    z_1 = _SEED_Z + h
    reg_0, irr_0 = _branch_values(p, _SEED_Z) if at_seed is None else at_seed
    reg_1, irr_1 = _branch_values(p, z_1)
    # U_1 T_0 - U_0 T_1, with U_i = d_i sqrt(z_i) times the branch's series
    s_0 = d(_SEED_Z) * math.sqrt(_SEED_Z) * t_1
    s_1 = d(z_1) * math.sqrt(z_1) * t_0
    return reg_1 * s_1 - reg_0 * s_0, irr_1 * s_1 - irr_0 * s_0


# mix(x) -> (k, c_reg, c_irr): the tail decay constant and the template's
# coefficients of r^p F_p and r^-p F_-p at scan variable x
Mix = Callable[[float], tuple[float, float, float]]


def _mismatch(p: float, mix: Mix, cfg: ShootingConfig) -> Callable[[float], float]:
    """x -> the template's tail mismatch at scan variable x (m = 1 units):
    the closed form k^(-1/2) (c_reg k^(-p) M_reg + c_irr k^p M_irr), read
    from the branch pair integrated once, here, at cfg's step."""
    m_reg, m_irr = _branch_pair(p, cfg.numerov_dx)

    def miss_x(x: float) -> float:
        k, c_reg, c_irr = mix(x)
        return (c_reg * k**-p * m_reg + c_irr * k**p * m_irr) / math.sqrt(k)

    return miss_x


# ---------------------------------------------------------------------------
# the shooting skeleton
# ---------------------------------------------------------------------------


_DIAG_NAN = float("nan")
_LN2 = math.log(2.0)
_LN_MAX = math.log(sys.float_info.max)
# match_residual's fixed resolution in the scan variable
_X_RESOLUTION = 1e-15
# below this |E(dx) - E(2dx)| (in units of m) the rung difference is rounding
# noise: at dx = 1e-3 on the A3 grids it reads 4.1e-16 to 6.2e-13 and the
# orders -6.9 to 0.7
_ORDER_FLOOR = 1e-11

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
    """The level of a sector with its ladder diagnostics, or None.

    p and line are the sector's (see the module docstring); to_e(x) gives E/m
    and |d(E/m)/dx|.  Each rung, the step dx and with diagnostics 2dx and 4dx,
    reads the branch pair from one sweep, forms R and hands the kernel's
    ``solve_line`` the line's a and b with t = ln R - c, formed once here.
    The pair's value at the seed radius is the same on every rung, so it is
    computed once.
    None where a rung's R is not positive or E is not finite.  The order is
    log2(|E(2dx) - E(4dx)| / |E(dx) - E(2dx)|), NaN unless the coarser
    difference is the larger and the finer is above the 1e-11 m rounding
    floor; error_estimate is |E(dx) - E(2dx)|/15 (Richardson, order 4).
    """
    factors = (1, *_LADDER) if cfg.diagnostics else (1,)
    a, b, c = line
    at_seed = _branch_values(p, _SEED_Z)
    roots = []
    steps = 0
    for factor in factors:
        dx = cfg.numerov_dx * factor
        m_reg, m_irr = _branch_pair(p, dx, at_seed)
        steps += _sweep_steps(dx)
        ratio = m_irr / m_reg
        if not ratio > 0.0:
            return None
        roots.append(nk.solve_line(a, b, math.log(ratio) - c))
    e0, de_dx = to_e(roots[0])
    if not math.isfinite(m * e0):
        return None
    # each solve integrates one solution, the decaying asymptote
    evals = len(factors)
    resid_e = m * _X_RESOLUTION * de_dx
    if not cfg.diagnostics:
        return OracleResult(m * e0, resid_e, _DIAG_NAN, _DIAG_NAN, evals, numerov_steps=steps)
    e2, e4 = (to_e(x)[0] for x in roots[1:])
    d1 = abs(e0 - e2)
    d2 = abs(e2 - e4)
    # a ladder that does not converge, or whose finer difference is
    # rounding noise, gives no order
    order = math.log2(d2 / d1) if d2 > d1 > _ORDER_FLOOR else _DIAG_NAN
    return OracleResult(m * e0, resid_e, order, 0.0, evals, m * d1 / 15.0, steps)


# ---------------------------------------------------------------------------
# Dirac shoot
# ---------------------------------------------------------------------------


# the level count's scan of s = ln((1 - u)/(1 + u)): it holds the s of the
# doubles next to u = -+1, about +-37.4
_COUNT_WINDOW = (-40.0, 40.0)
_COUNT_POINTS = 48


def _dirac_template(ch: DiracChannel, xi_int: float) -> tuple[float, Mix]:
    """(p, mix) of the f1 component of the domain template over
    s = ln((1 - u)/(1 + u)), u = tau*E.

    The template pair, built in u with the r^(+nu) carrying component first,
    is r^nu - xi_int (u + 1)/(s(2nu - 1)) r^(1 - nu) and
    (u - 1)/(s(2nu + 1)) r^(nu + 1) - xi_int r^(-nu), each branch continued
    by its Frobenius factor.  f1 is the carrying component for tau = +1 and
    the companion one for tau = -1 (a tau = -1 channel is the tau = +1 one
    at -E with its components swapped); in r^(-1/2) f1 its branches are
    r^(+-p) with p = nu - 1/2 or nu + 1/2, and |p| = |l + mu|.  The mix
    takes u + 1 = 2/(1 + e^s), u - 1 = -2/(1 + e^-s) and lambda = sech(s/2)
    from s itself, so none cancels where u rounds to -+1.
    """
    nu, s = ch.nu, ch.s

    def lam(x: float) -> float:
        return 1.0 / math.cosh(0.5 * x)

    if ch.tau == 1:
        w = -2.0 * xi_int / (s * (2.0 * nu - 1.0))
        return nu - 0.5, lambda x: (lam(x), 1.0, w / (1.0 + math.exp(x)))
    w = -2.0 / (s * (2.0 * nu + 1.0))
    return nu + 0.5, lambda x: (lam(x), w / (1.0 + math.exp(-x)), -xi_int)


def _dirac_line(ch: DiracChannel, xi: float) -> tuple[float, Line]:
    """(p, line) of the template of _dirac_template over
    s = ln((1 - u)/(1 + u)), u = tau*E (see the module docstring)."""
    nu = ch.nu
    w = 1.0 - 2.0 * nu if ch.tau == 1 else 1.0 / (1.0 + 2.0 * nu)
    c = math.log(w) - math.log(-xi) - 2.0 * nu * _LN2
    return nu - 0.5 * ch.tau, (0.5 - nu, 2.0 * nu, c)


def dirac_shoot(
    ch: DiracChannel, ext: Extension, cfg: ShootingConfig = ShootingConfig()
) -> Optional[OracleResult]:
    """Bound level of the Dirac channel from Numerov shooting, or None.

    Seeds f1 from the domain template with the channel-sign component
    pairing and internal weight s*xi (see _dirac_template), matches it to the
    tail of its exact second-order equation
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


def _sign_changes(miss: Callable[[float], float], grid: Sequence[float]) -> int:
    """Sign changes of the mismatch between neighbouring grid points; an
    exact zero changes sign with the next point."""
    f = [miss(x) for x in grid]
    return sum(1 for a, b in zip(f, f[1:]) if a == 0.0 or a * b < 0.0)


def count_dirac_levels(
    ch: DiracChannel, ext: Extension, cfg: ShootingConfig = ShootingConfig()
) -> int:
    """Number of mismatch sign changes over a 48-point scan of the gap.

    A shoot never evaluates the mismatch: the level's uniqueness rests on
    its line's monotonicity.  The count scans the closed-form mismatch
    itself, from one branch pair read from one sweep, and so checks that
    uniqueness independently.  The scan runs over s = ln((1 - u)/(1 + u)),
    u = tau*E/m, from -40 to 40, past the s of the doubles next to u = -+1
    (about +-37.4), so it counts every level whose E does not round to -+m;
    a level beyond |s| = 40 has E = -+m and is not counted."""
    if ch.regime is not Regime.EXTENDED:
        raise RegimeError("count_dirac_levels: requires an extended-regime channel")
    xi = ext.xi
    if not xi < 0.0:
        return 0
    miss_s = _mismatch(*_dirac_template(ch, ch.s * xi), cfg)
    return _sign_changes(miss_s, nk.linear_grid(*_COUNT_WINDOW, _COUNT_POINTS))


# ---------------------------------------------------------------------------
# Numerov kernel (both sectors) and Schroedinger shoot
# ---------------------------------------------------------------------------


# the grid memo's bound: a shoot's three rungs and a few more steps
_GRID_MEMO = 8


@functools.lru_cache(maxsize=_GRID_MEMO)
def _inner_q(x_first: float, x_last: float, n: int) -> tuple[float, ...]:
    """q_i = 1/x_i^2 at the inner points of the n-step grid from x_first to
    x_last, in the inward order i = n - 1, ..., 1.  The grid holds neither
    energy nor channel, so its ends and step count are the whole key."""
    h = (x_last - x_first) / n
    return tuple(1.0 / (x * x) for x in (x_first + i * h for i in range(n - 1, 0, -1)))


def _numerov_in(
    c: float, k2: float, h: float, q: Sequence[float], t_last: tuple[float, float]
) -> tuple[float, float]:
    """One solution of y'' = (c/x^2 + k2) y swept inward by Numerov, in its
    t-form t_i = (1 - h^2 w_i/12) y_i with w_i = c q_i + k2.

    q holds q_i = 1/x_i^2 at the grid's inner points, outermost first (see
    _inner_q), and t_last the solution's (t_n, t_(n-1)); returns (t_0, t_1),
    each step being t_(i-1) = B_i t_i - t_(i+1) with
    B_i = 2 + h^2 w_i/(1 - h^2 w_i/12).  Nothing is renormalized: over the
    oracle's grids, 10 decay lengths long, the decaying solution grows
    inward by about e^10.
    """
    hh = h * h
    hc, hk2 = hh * c, hh * k2
    # 1 - h^2 w_i/12 = d_k - hc_12 q_i
    d_k, hc_12 = 1.0 - hk2 / 12.0, hc / 12.0
    t_out, t = t_last
    for qi in q:
        # B_i t - t_out summed as (2 t - t_out) + (B_i - 2) t: B_i rounded
        # whole would carry h^2 w_i to ulp(2) alone, a bias that builds up
        # over the sweep where w is nearly constant
        t_out, t = t, t + t - t_out + (hc * qi + hk2) / (d_k - hc_12 * qi) * t
    return t, t_out


def _sweep_steps(dx: float) -> int:
    """Numerov steps of one sweep at step dx, counted in z from the seed
    _SEED_Z to the tail end _TAIL_Z."""
    return math.ceil((_TAIL_Z - _SEED_Z) / dx)


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
    """Negative level of the neutral-fermion channel from Numerov shooting.

    Seeds the domain template (see _ac_line), solves for ln(-E_n/m) over the
    whole real line, and reports the coarsened-step diagnostics.  Returns
    None for xi >= 0, and where -E_n overflows the double range.
    """
    if ch.regime is not ACRegime.EXTENDED:
        raise RegimeError("schrodinger_shoot: requires 0 < gamma < 1")
    xi = ext.xi
    if not xi < 0.0:
        return None
    return _shoot(cfg, ch.m, *_ac_line(ch.gamma, xi), _ac_energy)
