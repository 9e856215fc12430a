"""Independent ODE eigensolver used to adjudicate every analytic level.

The oracle never touches the analytic level formulas: it seeds the radial
problem with the extension-family boundary template (each branch continued
by the summed Frobenius series of the ODE itself), integrates outward, and
measures the admixture of the growing mode deep in the classically forbidden
tail via a cross product with the decaying asymptotic solution.  Bound
levels are roots of that mismatch in the energy.

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
z = 2, past the power-law zone where Numerov loses most, and Numerov
integrates one linear grid from there through 10 decay lengths of the tail,
to z = 12, in steps of numerov_dx (100 at the default 0.1).  An error in the
decaying solution reaches the growing-mode coefficient damped by
exp(-2(12 - z)), so on the A3 grids a tail to z = 40 moves no level by more
than 8.2e-14 m, and the one resolution knob is the step numerov_dx; the
error falls as its fourth power.

The mismatch is the growing-mode coefficient times a smooth positive scale:
the cross product divided by the free growth factor exp(10) over the grid,
which is all the solution grows by, so no value needs renormalizing.  It is
a smooth function of E with the sign of the coefficient, so Brent's
interpolation steps converge on a root in a few evaluations; dividing by the
cross product's own size would make it a step function of E that Brent can
only bisect.

A solve integrates two solutions, not one per energy.  In z the equation
u'' = [(g^2 - 1/4)/z^2 + 1] u holds no energy, and the grid holds none
either.  The template, c_reg r^p F_p + c_irr r^-p F_-p in r^(-1/2) u, is two
Frobenius branches whose coefficients alone carry the energy, and Numerov is
linear.  So the mismatch at E is, to rounding,

    k^(-1/2) (c_reg k^(-p) M_reg + c_irr k^p M_irr),

with M_reg and M_irr the mismatches of the branches z^(+-p) F_(+-p)
integrated once at k = 1: lambda^(-nu) M_reg - xi_int (u + 1)/(s(2nu - 1))
lambda^(nu - 1) M_irr for Dirac with tau = +1 (the f1 component; tau = -1
takes the companion one), kappa^(-g) M_reg - xi_int kappa^g M_irr for the
neutral fermion, each times k^(-1/2).

The mismatch changes sign at most once per window.  It is
c_irr k^(p - 1/2) M_irr (rho M_reg/M_irr + 1) with rho = c_reg k^(-2p)/c_irr;
c_irr keeps one sign over each window, and rho is strictly monotone in the
scan variable: a multiple of kappa^(-2g) for the neutral fermion, and for
Dirac, with either tau, ln|rho| = (1/2 - nu) ln(1 - u) - (1/2 + nu) ln(1 + u)
plus a constant, which decreases for the extended regime's 0 < nu < 1/2.  So
the signs at the window's two ends decide whether it holds a level.

The oracle stays independent of the analytic route: it uses the ODE, its
Frobenius template, linearity and this scaling, and calls no level formula,
Gamma ratio or Bessel function.  The analytic levels are the zeros of the
same mix with the Gamma-function connection ratio 2^(-2p) Gamma(1-p)/Gamma(1+p)
in place of M_irr/M_reg, so the oracle-equivalence check compares the
integrated connection ratio, through the shared template, with that one.

Both sectors run one skeleton, ``_shoot``: evaluate the mismatch at the two
ends of the sector's window in its scan variable (u = tau*E/m for Dirac,
y = ln(-E/m) for Schroedinger), refine the root between them with Brent, and
re-solve from brackets grown outward from that root at twice and four times
the step (the discretization ladder).  A sector supplies its template,
window and scan-variable-to-energy map.  Each shoot is a pure computation;
``OracleResult.evaluations`` counts its Numerov integrations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

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
    m).  The default 0.1 takes 100 steps from z = 2 to z = 12 and puts the
    golden shoots 2.1e-10 m (Dirac) and 3.4e-9 m (neutral fermion) off; at
    0.05 four of the 50 A3 ladders fall below the rounding floor and give no
    order.  Every integrated step stays below 1, and with diagnostics on the
    coarsest ladder rung integrates at 4*numerov_dx, so numerov_dx lies below
    0.25 (below 1 with diagnostics off): at 0.24 the golden shoots are
    9.1e-9 m (Dirac) and 9.6e-8 m (neutral fermion) off.  diagnostics
    enables the coarsened-step re-solves (see _shoot).
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

    match_residual is Brent's root tolerance 1e-12 in the scan variable,
    in energy units: 1e-12 m |dE/dx|, so 1e-12 m for Dirac and 1e-12 |E|
    for the neutral fermion.  The mismatch's own residual at the root, its
    value over its slope there, read below that tolerance in every solve
    measured, over random channels of both sectors with |xi| from 1e-4 to
    1e4.

    evaluations counts integrations over the whole shoot, diagnostic probes
    included: two (the template's two branches) per solve, so 2 with
    diagnostics off and 6 with them on (4 when the first probe finds no
    level).
    A probe's step is coarser than the base step, so the two ladder probes
    together integrate 0.75 times the base solve's Numerov steps.

    error_estimate is Richardson's a-posteriori error of E, |E(dx) -
    E(2dx)|/15 for the Numerov step dx = numerov_dx.  The factor 15 =
    2^4 - 1 assumes order 4, whatever order the ladder observes; on the A3
    grids at the default step the orders read 3.46 to 5.80 and the estimate
    is 0.83 to 1.30 times the true error.  It is NaN with diagnostics off or
    when a probe finds no level, and so are convergence_order_estimate and
    r_min_sensitivity.

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


# ---------------------------------------------------------------------------
# template branches and the closed-form mismatch
# ---------------------------------------------------------------------------


def _frobenius_factor(a: float, z2: float) -> float:
    """F_a(z^2) = 0F1(; 1 + a; z^2/4) = sum_n (z^2/4)^n / (n! (1 + a)_n).

    Series factor of the local solution r^(a+1/2) about the origin, summed
    by t_n = t_(n-1) (z^2/4) / (n (n + a)) until a term no longer changes the
    sum.  The series converges for every z, and for a > -1 every term is
    positive, so the sum carries no cancellation (DLMF 10.25.2).
    """
    q = 0.25 * z2
    term = total = 1.0
    n = 0
    while True:
        n += 1
        term *= q / (n * (n + a))
        if total + term == total:
            return total
        total += term


# every grid runs from the seed radius z = _SEED_Z, where the summed template
# series hands over to Numerov, to the tail end z = _TAIL_Z, 10 decay lengths
# further out
_SEED_Z = 2.0
_TAIL_Z = 12.0


def _branch_pair(p: float, cfg: ShootingConfig) -> tuple[float, float]:
    """(M_reg, M_irr): the mismatches of the branches z^(+-p) F_(+-p)(z^2)
    on the k = 1 grid."""

    def branch(a: float) -> Callable[[float], float]:
        return lambda z: z**a * _frobenius_factor(a, z**2)

    return _numerov_miss(abs(p), 1.0, branch(p), cfg), _numerov_miss(abs(p), 1.0, branch(-p), cfg)


# mix(x) -> (k, c_reg, c_irr): the tail decay constant and the template's
# coefficients of r^p F_p and r^-p F_-p at scan variable x
Mix = Callable[[float], tuple[float, float, float]]


def _mismatch(p: float, mix: Mix, cfg: ShootingConfig) -> Callable[[float], float]:
    """x -> the template's tail mismatch at scan variable x (m = 1 units):
    the closed form k^(-1/2) (c_reg k^(-p) M_reg + c_irr k^p M_irr), read
    from the branch pair integrated once, here, at cfg's step."""
    m_reg, m_irr = _branch_pair(p, cfg)

    def miss_x(x: float) -> float:
        k, c_reg, c_irr = mix(x)
        return (c_reg * k**-p * m_reg + c_irr * k**p * m_irr) / math.sqrt(k)

    return miss_x


# ---------------------------------------------------------------------------
# the shooting skeleton
# ---------------------------------------------------------------------------


def _scan_grid(window: tuple[float, float], n: int) -> list[float]:
    lo, hi = window
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def _sign_changes(
    miss: Callable[[float], float], grid: Sequence[float]
) -> Iterator[tuple[float, float, float, float]]:
    """Brackets (x_lo, x_hi, f_lo, f_hi) of the mismatch's sign changes over
    the grid, in order, each yielded as soon as the scan reaches its upper
    end; a grid point where the mismatch is exactly zero opens a bracket."""
    prev_x = grid[0]
    prev_f = miss(prev_x)
    for x in grid[1:]:
        fx = miss(x)
        if prev_f == 0.0 or prev_f * fx < 0.0:
            yield prev_x, x, prev_f, fx
        prev_x, prev_f = x, fx


_DIAG_NAN = float("nan")
# Brent's tolerance in the scan variable, for the base root and every probe
_ROOT_TOL = 1e-12
# a probe's bracket x0 +- w grows from w = _PROBE_START, doubling, up to the
# probe window x0 +- _PROBE_HALF_WIDTH in the scan variable, which is wide
# enough to hold the 4*dx rung's root at the coarsest accepted step
_PROBE_START = 1e-6
_PROBE_HALF_WIDTH = 1e-2
# below this |E(dx) - E(2dx)| (in units of m) the rung difference is rounding
# noise: at dx = 1e-3 it reads 2.5e-14 to 3.1e-12 and the orders -5 to 6
_ORDER_FLOOR = 1e-11


def _grow_bracket(
    miss: Callable[[float], float], x0: float, narrow: tuple[float, float]
) -> Optional[nk.Bracket]:
    """The bracket x0 +- w, clipped to the probe window narrow, of the first
    w = _PROBE_START * 2^j over which miss changes sign, or None when it
    keeps its sign out to the whole window."""
    w = _PROBE_START
    while True:
        lo, hi = max(narrow[0], x0 - w), min(narrow[1], x0 + w)
        f_lo, f_hi = miss(lo), miss(hi)
        if f_lo * f_hi <= 0.0:
            return nk.Bracket(lo, hi, f_lo, f_hi)
        if w >= _PROBE_HALF_WIDTH:
            return None
        w *= 2.0


def _shoot(
    cfg: ShootingConfig,
    m: float,
    window: tuple[float, float],
    p: float,
    mix: Mix,
    to_e: Callable[[float], tuple[float, float]],
) -> Optional[OracleResult]:
    """Bracket, refine and diagnose the level of a sector in window, or None.

    p and mix(x) are the sector's template (see _mismatch); to_e(x) gives
    E/m and |d(E/m)/dx|, which turn the root, Brent's tolerance and the
    diagnostic differences into energies.  The mismatch changes sign at most
    once over the window (see the module docstring), so its values at the
    window's two ends are Brent's bracket, and when they share a sign the
    window holds no level.

    With diagnostics on, each probe re-solves from a bracket grown outward
    from the base root x0, x0 +- 1e-6 doubling up to x0 +- 1e-2 (see
    _grow_bracket).  The ladder (dx, 2dx, 4dx) coarsens numerov_dx = dx, so
    its two probes cost 0.75 of the base solve; the order is
    log2(|E(2dx) - E(4dx)| / |E(dx) - E(2dx)|), NaN unless the ladder
    converges (the coarser difference is the larger) and the finer
    difference is above the 1e-11 m rounding floor.  error_estimate is
    |E(dx) - E(2dx)|/15, Richardson's estimate for order 4.
    """
    # each solve integrates the template's two branches
    evals = 2
    miss_x = _mismatch(p, mix, cfg)
    lo, hi = window
    f_lo, f_hi = miss_x(lo), miss_x(hi)
    if not f_lo * f_hi <= 0.0:
        return None
    x0 = nk.find_root_bracketed(miss_x, nk.Bracket(lo, hi, f_lo, f_hi), tol_x=_ROOT_TOL)
    e0, de_dx = to_e(x0)
    resid_e = m * _ROOT_TOL * de_dx
    if not cfg.diagnostics:
        return OracleResult(m * e0, resid_e, _DIAG_NAN, _DIAG_NAN, evals)
    narrow = (max(lo, x0 - _PROBE_HALF_WIDTH), min(hi, x0 + _PROBE_HALF_WIDTH))
    energies = []
    for factor in _LADDER:
        evals += 2
        probe = ShootingConfig(numerov_dx=cfg.numerov_dx * factor, diagnostics=False)
        probe_miss = _mismatch(p, mix, probe)
        bracket = _grow_bracket(probe_miss, x0, narrow)
        # a probe finds no root when its rung moves the root out of the
        # probe window: by more than 1e-2, or past the window's edge
        if bracket is None:
            return OracleResult(m * e0, resid_e, _DIAG_NAN, _DIAG_NAN, evals)
        energies.append(to_e(nk.find_root_bracketed(probe_miss, bracket, tol_x=_ROOT_TOL))[0])
    e2, e4 = energies
    d1 = abs(e0 - e2)
    d2 = abs(e2 - e4)
    # a ladder that does not converge, or whose finer difference is
    # rounding noise, gives no order
    order = math.log2(d2 / d1) if d2 > d1 > _ORDER_FLOOR else _DIAG_NAN
    return OracleResult(m * e0, resid_e, order, 0.0, evals, m * d1 / 15.0)


# ---------------------------------------------------------------------------
# Dirac shoot
# ---------------------------------------------------------------------------


_GAP_WINDOW = (-1.0 + 1e-9, 1.0 - 1e-9)
# the level count's scan points over the gap
_COUNT_POINTS = 48


def _dirac_template(ch: DiracChannel, xi_int: float) -> tuple[float, Mix]:
    """(p, mix) of the f1 component of the domain template over u = tau*E.

    The template pair, built in u with the r^(+nu) carrying component first,
    is r^nu - xi_int (u + 1)/(s(2nu - 1)) r^(1 - nu) and
    (u - 1)/(s(2nu + 1)) r^(nu + 1) - xi_int r^(-nu), each branch continued
    by its Frobenius factor.  f1 is the carrying component for tau = +1 and
    the companion one for tau = -1 (a tau = -1 channel is the tau = +1 one
    at -E with its components swapped); in r^(-1/2) f1 its branches are
    r^(+-p) with p = nu - 1/2 or nu + 1/2, and |p| = |l + mu|.
    """
    nu, s = ch.nu, ch.s

    def lam(u: float) -> float:
        return math.sqrt((1.0 - u) * (1.0 + u))

    if ch.tau == 1:
        w = -xi_int / (s * (2.0 * nu - 1.0))
        return nu - 0.5, lambda u: (lam(u), 1.0, w * (u + 1.0))
    w = 1.0 / (s * (2.0 * nu + 1.0))
    return nu + 0.5, lambda u: (lam(u), w * (u - 1.0), -xi_int)


def dirac_shoot(
    ch: DiracChannel, ext: Extension, cfg: ShootingConfig = ShootingConfig()
) -> Optional[OracleResult]:
    """Bound level of the Dirac channel from outward shooting, or None.

    Seeds f1 from the domain template with the channel-sign component
    pairing and internal weight s*xi (see _dirac_template), integrates its
    exact second-order equation f1'' = [a(a - 1)/r^2 + lambda^2] f1 into the
    tail, and root-finds the growing-mode admixture over u = tau*E in
    |u| <= 1 - 1e-9.  Since s(E + 1) does not vanish in the gap,
    f2 = ((a/r) f1 - f1')/(s(E + 1)) decays exactly when f1 does.  Returns
    None when the mismatch keeps its sign over the window (e.g. xi >= 0).
    """
    if ch.regime is not Regime.EXTENDED:
        raise RegimeError("dirac_shoot: requires an extended-regime channel")
    xi = ext.xi
    if not xi < 0.0:
        return None
    tau = ch.tau
    p, mix = _dirac_template(ch, ch.s * xi)
    return _shoot(cfg, ch.m, _GAP_WINDOW, p, mix, lambda u: (tau * u, 1.0))


def count_dirac_levels(
    ch: DiracChannel, ext: Extension, cfg: ShootingConfig = ShootingConfig()
) -> int:
    """Number of mismatch sign changes over a 48-point scan of the gap.

    A shoot reads the mismatch only at the window's ends, which holds
    because it changes sign at most once per window (see the module
    docstring); the count scans the whole gap from one pair of branch
    integrations, so it checks that uniqueness independently."""
    if ch.regime is not Regime.EXTENDED:
        raise RegimeError("count_dirac_levels: requires an extended-regime channel")
    xi = ext.xi
    if not xi < 0.0:
        return 0
    miss_u = _mismatch(*_dirac_template(ch, ch.s * xi), cfg)
    return sum(1 for _ in _sign_changes(miss_u, _scan_grid(_GAP_WINDOW, _COUNT_POINTS)))


# ---------------------------------------------------------------------------
# Numerov kernel (both sectors) and Schroedinger shoot
# ---------------------------------------------------------------------------


def _numerov_pass(
    c: float,
    k2: float,
    y0: float,
    y1: float,
    x0: float,
    h: float,
    n: int,
) -> tuple[float, float]:
    """n Numerov steps for y'' = (c/x^2 + k2) y on x = x0 + i*h from (y0, y1).

    Returns the last two values.  Nothing is renormalized: over the oracle's
    grids, 10 decay lengths long, the solution grows by about e^10.
    """
    hh = h * h
    h2_12 = hh / 12.0
    x1 = x0 + h
    w_cur = c / (x1 * x1) + k2
    t_prev = y0 * (1.0 - h2_12 * (c / (x0 * x0) + k2))
    t_cur = y1 * (1.0 - h2_12 * w_cur)
    y_prev, y_cur = y0, y1
    for i in range(2, n + 1):
        t_next = 2.0 * t_cur - t_prev + hh * w_cur * y_cur
        x = x0 + i * h
        w_next = c / (x * x) + k2
        y_next = t_next / (1.0 - h2_12 * w_next)
        t_prev, t_cur = t_cur, t_next
        y_prev, y_cur = y_cur, y_next
        w_cur = w_next
    return y_prev, y_cur


def _numerov_miss(
    g: float, k: float, seed: Callable[[float], float], cfg: ShootingConfig
) -> float:
    """Tail mismatch for u'' = [(g^2 - 1/4)/r^2 + k^2] u by Numerov.

    The grid runs from the seed radius _SEED_Z/k to the tail end _TAIL_Z/k.
    The mismatch is the cross product of the last two tail values with the
    decaying asymptote sqrt(r) K_g(k r), times exp(-k*(r_tail - r_seed)):
    the growing-mode coefficient times a smooth positive scale.

    seed(r) = r^(-1/2) u(r) is the sector's domain template, each branch
    continued by its summed Frobenius factor, which converges at every r; its
    values at the first two grid points start the grid.  Evaluating the
    series out to r_seed, instead of transporting the mixture numerically
    from deep inside the power-law zone, keeps the microscopic
    regular-branch share (relative error / r^(2 g)) exact.
    """
    r_seed, r_tail = _SEED_Z / k, _TAIL_Z / k
    # count the steps in z, so that every k takes the same n as the shared
    # branch pair at k = 1
    n = math.ceil((_TAIL_Z - _SEED_Z) / cfg.numerov_dx)
    h_r = (r_tail - r_seed) / n
    u_0 = math.sqrt(r_seed) * seed(r_seed)
    u_1 = math.sqrt(r_seed + h_r) * seed(r_seed + h_r)
    g2 = g * g
    ub, ua = _numerov_pass(g2 - 0.25, k * k, u_0, u_1, r_seed, h_r, n)
    rb = r_seed + (n - 1) * h_r
    ra = r_tail
    w1 = (4.0 * g2 - 1.0) / 8.0
    w2 = (4.0 * g2 - 1.0) * (4.0 * g2 - 9.0) / 128.0

    def asym(r: float) -> float:
        zr = k * r
        return math.exp(-k * (r - rb)) * (1.0 + w1 / zr + w2 / (zr * zr))

    num = ua * asym(rb) - ub * asym(ra)
    return num * math.exp(-k * (r_tail - r_seed))


# the neutral fermion's window in y = ln(-E/m)
_AC_WINDOW = (math.log(1e-8), math.log(1e6))


def _ac_template(g: float, xi_int: float) -> tuple[float, Mix]:
    """(p, mix) of the domain template f ~ (m r)^g - xi_int (m r)^(-g) over
    y = ln(-E), with kappa = sqrt(-2E); the seed r^(-1/2) u is f, and the
    bound side has xi_int = -xi > 0."""
    return g, lambda y: (math.sqrt(2.0 * math.exp(y)), 1.0, -xi_int)


def schrodinger_shoot(
    ch: ACChannel, ext: Extension, cfg: ShootingConfig = ShootingConfig()
) -> Optional[OracleResult]:
    """Negative level of the neutral-fermion channel from Numerov shooting.

    Seeds the domain template (see _ac_template), brackets ln(-E_n) by the
    window 1e-8 <= -E_n/m <= 1e6, root-finds the tail mismatch, and reports
    the coarsened-step diagnostics.  Returns None when the mismatch keeps
    its sign over the window (e.g. xi >= 0).
    """
    if ch.regime is not ACRegime.EXTENDED:
        raise RegimeError("schrodinger_shoot: requires 0 < gamma < 1")
    xi = ext.xi
    if not xi < 0.0:
        return None
    p, mix = _ac_template(ch.gamma, -xi)
    return _shoot(cfg, ch.m, _AC_WINDOW, p, mix, lambda y: (-math.exp(y), math.exp(y)))
