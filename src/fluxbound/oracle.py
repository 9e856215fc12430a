"""Independent ODE eigensolver used to adjudicate every analytic level.

The oracle never touches the analytic level formulas: it seeds the radial
problem at an inner cutoff with the extension-family boundary template
(each branch continued by the summed Frobenius series of the ODE itself),
integrates outward, and measures the admixture of the growing mode at an
outer radius deep in the classically forbidden tail via a cross product with
the decaying asymptotic solution.  Bound levels are roots of that mismatch in
the energy.

The mismatch is the growing-mode coefficient times a smooth positive scale:
the cross product divided by the free growth factor exp(k*(r_max - r_seed)),
with k the tail decay constant and the integrator carrying the log of every
renormalization so that the division neither under- nor overflows.  It is a
smooth function of E with the sign of the coefficient, so Brent's
interpolation steps converge on a root in a few evaluations; dividing by the
cross product's own size would make it a step function of E that Brent can
only bisect.

One integrator serves both sectors.  The radial Dirac coefficients are
constant in the pure Aharonov-Bohm field, so eliminating the lower component
is exact: f1'' = [a(a - 1)/r^2 + lambda^2] f1 with a = s*nu_tilde and
lambda^2 = 1 - E^2, the reduced Schroedinger form
u'' = [(g^2 - 1/4)/r^2 + k^2] u of the neutral-fermion sector with
g = |l + mu| and k = lambda.  The Frobenius series converges at every
radius, and for an index above -1 every term is positive, so nothing cancels
(DLMF 10.25.2); the template is evaluated directly out to the seed radius
2/k, past the power-law zone where Numerov loses most, and Numerov
integrates one linear grid from there through 10 decay lengths of the tail,
to 12/k.  An error in the decaying solution reaches the growing-mode
coefficient damped by exp(-2*k*(r_max - r)), so on the A3 grids a tail to
40/k moves no level by more than 8.2e-14 m, and the one resolution knob is
the step numerov_dx; the error falls as its fourth power.

A solve integrates two solutions, not one per energy.  In z = k*r the
equation u'' = [(g^2 - 1/4)/z^2 + 1] u holds no energy, and at the default
lengths (seed radius 2/k, r_max = 12/k, step numerov_dx/k, so 100 steps at
the default numerov_dx 0.1) the whole grid scales as 1/k.  The template,
c_reg r^p F_p + c_irr r^-p F_-p in r^(-1/2) u, is two Frobenius branches
whose coefficients alone carry the energy, and Numerov is linear.  So the
mismatch at E is, to rounding,

    k^(-1/2) (c_reg k^(-p) M_reg + c_irr k^p M_irr),

with M_reg and M_irr the mismatches of the branches z^(+-p) F_(+-p)
integrated once at k = 1: lambda^(-nu) M_reg - xi_int (u + 1)/(s(2nu - 1))
lambda^(nu - 1) M_irr for Dirac with tau = +1 (the f1 component; tau = -1
takes the companion one), kappa^(-g) M_reg - xi_int kappa^g M_irr for the
neutral fermion, each times k^(-1/2).  An explicit r_max, or an r_min above
2/k, puts a length into the grid that does not scale with 1/k; at such an
energy the solve integrates the template itself, once, and energies of the
same solve where r_min does not act still read the shared pair.

The oracle stays independent of the analytic route: it uses the ODE, its
Frobenius template, linearity and this scaling, and calls no level formula,
Gamma ratio or Bessel function.  The analytic levels are the zeros of the
same mix with the Gamma-function connection ratio 2^(-2p) Gamma(1-p)/Gamma(1+p)
in place of M_irr/M_reg, so the oracle-equivalence check compares the
integrated connection ratio, through the shared template, with that one.

Both sectors run one skeleton, ``_shoot``: scan a grid of the sector's scan
variable (u = tau*E/m for Dirac, y = ln(-E/m) for Schroedinger) for the first
sign change, refine it with Brent, and re-solve from brackets grown outward
from that root at twice and four times the step (the discretization ladder)
and at the halved inner cutoff.  A sector supplies its template, window,
scan-variable-to-energy map and tail decay bound.  Each shoot is a pure
computation; ``OracleResult.evaluations`` counts its Numerov integrations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Optional, Sequence

from . import numkernel as nk
from .ab_spectrum import DiracChannel, Extension, Regime, RegimeError
from .ac_spectrum import ACChannel, ACRegime

__all__ = [
    "ShootingConfig",
    "OracleResult",
    "ConvergenceReport",
    "dirac_shoot",
    "schrodinger_shoot",
    "count_dirac_levels",
    "convergence_study",
]


# the diagnostic ladder's probe steps, in units of numerov_dx
_LADDER = (2, 4)


@dataclass(frozen=True)
class ShootingConfig:
    """Numerical controls for one shoot.

    r_min/r_max in units of 1/m (r_max = None selects 12/k per energy, with
    k the tail decay constant: lambda = sqrt(1 - E^2) for Dirac, kappa =
    sqrt(-2E) for Schroedinger); numerov_dx is the Numerov grid step of both
    sectors in units of 1/k.  The default 0.1 takes 100 steps from the seed
    radius to 12/k and puts the golden shoots 2.1e-10 m (Dirac) and 3.5e-9 m
    (neutral fermion) off; at 0.05 four of the 50 A3 ladders fall below the
    rounding floor and give no order.  Every integrated step stays below 1,
    and with diagnostics on the coarsest ladder rung integrates at
    4*numerov_dx, so numerov_dx lies below 0.25 (below 1 with diagnostics
    off): at 0.24 the golden shoots are 9.1e-9 m (Dirac) and 9.6e-8 m
    (neutral fermion) off; energy_bracket (in units of m) overrides the
    default scan window; n_scan grid points locate the sign change;
    diagnostics enables the coarsened-step and halved-cutoff re-solves (see
    _shoot).

    r_min is a lower limit on the radius where the template series seeds the
    integration, r_seed = min(max(r_min, 2/k), 0.2*r_max), so it only
    acts when r_min > 2/k, and with r_max = None it moves the seed radius
    no further than 2.4/k.  At an energy where it acts, or at every energy
    under an explicit r_max, a solve integrates the template itself instead
    of reading its shared branch pair (see the module docstring).
    When halving r_min cannot move r_seed anywhere in the probe window, the
    r_min probe is skipped and r_min_sensitivity is exactly 0.0.
    """

    r_min: float = 1e-6
    r_max: Optional[float] = None
    energy_bracket: Optional[tuple[float, float]] = None
    n_scan: int = 48
    numerov_dx: float = 0.1
    diagnostics: bool = True

    def __post_init__(self) -> None:
        if not 0.0 < self.r_min:
            raise ValueError("ShootingConfig: r_min must be > 0")
        if self.r_max is not None and not self.r_max > self.r_min:
            raise ValueError("ShootingConfig: r_max must exceed r_min")
        coarsest = _LADDER[-1] * self.numerov_dx if self.diagnostics else self.numerov_dx
        if not (0.0 < self.numerov_dx and coarsest < 1.0):
            raise ValueError(
                "ShootingConfig: numerov_dx out of (0, 0.25) ((0, 1) with diagnostics off)"
            )


@dataclass(frozen=True)
class OracleResult:
    """A shot level with the Numerov integrations it took.

    evaluations counts integrations over the whole shoot, diagnostic probes
    included: two (the template's two branches) per solve whose grid scales
    with 1/k, so 2 for a shoot with diagnostics off and 2 more per probe,
    and one per mismatch evaluation at an energy whose grid does not.
    A probe's step is coarser than the base step, so the two ladder probes
    together integrate 0.75 times the base solve's Numerov steps.

    error_estimate is Richardson's a-posteriori error of E, |E(dx) -
    E(2dx)|/15 for the Numerov step dx = numerov_dx.  The factor 15 =
    2^4 - 1 assumes order 4, whatever order the ladder observes; on the A3
    grids at the default step the orders read 3.46 to 5.80 and the estimate
    is 0.83 to 1.30 times the true error.  It is NaN with diagnostics off or
    when a probe finds no level."""

    E: float
    match_residual: float
    convergence_order_estimate: float
    r_min_sensitivity: float
    evaluations: int = 0
    error_estimate: float = math.nan


@dataclass(frozen=True)
class ConvergenceReport:
    energies: tuple[float, ...]
    extrapolated_E: float
    observed_order: float
    monotone: bool


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


# where the grid scales with 1/k, it runs from the seed radius _SEED_Z/k,
# where the summed template series hands over to Numerov, to the tail end
# _TAIL_Z/k, 10 decay lengths further out
_SEED_Z = 2.0
_TAIL_Z = 12.0


def _r_min_acts(r_min: float, k: float) -> bool:
    """Whether r_min lifts the seed radius at decay constant k above
    _SEED_Z/k, its value on a grid that scales with 1/k (see _numerov_miss)."""
    return r_min > _SEED_Z / k


def _template_miss(
    p: float, k: float, c_reg: float, c_irr: float, cfg: ShootingConfig
) -> float:
    """_numerov_miss of the template c_reg r^p F_p + c_irr r^-p F_-p at
    decay constant k (m = 1 units), each branch r^(+-p) continued by its
    Frobenius factor F_(+-p)((k r)^2)."""

    def seed(r: float) -> float:
        z2 = (k * r) ** 2
        reg, irr = r**p * _frobenius_factor(p, z2), r**-p * _frobenius_factor(-p, z2)
        return c_reg * reg + c_irr * irr

    return _numerov_miss(abs(p), k, seed, cfg)


def _branch_pair(p: float, cfg: ShootingConfig) -> tuple[float, float]:
    """(M_reg, M_irr): the mismatches of the branches z^(+-p) F_(+-p)(z^2)
    on the k = 1 grid.  Only energies where r_min does not act read the
    pair, so it is integrated with r_min at the scale-free seed radius."""
    flat = replace(cfg, r_min=_SEED_Z)
    return _template_miss(p, 1.0, 1.0, 0.0, flat), _template_miss(p, 1.0, 0.0, 1.0, flat)


# mix(x) -> (k, c_reg, c_irr): the tail decay constant and the template's
# coefficients of r^p F_p and r^-p F_-p at scan variable x
Mix = Callable[[float], tuple[float, float, float]]


def _mismatch(
    p: float, mix: Mix, cfg: ShootingConfig, count: Callable[[int], None]
) -> Callable[[float], float]:
    """x -> the template's tail mismatch at scan variable x (m = 1 units).

    Where x's grid scales with 1/k (r_max is None and r_min does not act at
    x's k) that is the closed form k^(-1/2) (c_reg k^(-p) M_reg + c_irr k^p
    M_irr), from one branch pair shared by every such x; elsewhere the
    template is integrated at x's k.  Both give the same function of x.
    count(n) hears of every n integrations.
    """
    pair: list[tuple[float, float]] = []

    def miss_x(x: float) -> float:
        k, c_reg, c_irr = mix(x)
        if cfg.r_max is not None or _r_min_acts(cfg.r_min, k):
            count(1)
            return _template_miss(p, k, c_reg, c_irr, cfg)
        if not pair:
            count(2)
            pair.append(_branch_pair(p, cfg))
        m_reg, m_irr = pair[0]
        return (c_reg * k**-p * m_reg + c_irr * k**p * m_irr) / math.sqrt(k)

    return miss_x


# ---------------------------------------------------------------------------
# the shooting skeleton
# ---------------------------------------------------------------------------


def _scan_grid(window: tuple[float, float], n_scan: int) -> list[float]:
    lo, hi = window
    n = max(3, n_scan)
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


def _refine_root(
    miss: Callable[[float], float], lo: float, hi: float, f_lo: float, f_hi: float, tol_x: float
) -> tuple[float, float]:
    """Root plus an energy-units residual estimate (secant slope + floor)."""
    if f_lo == 0.0:
        return lo, tol_x
    bracket = nk.Bracket(lo, hi, f_lo, f_hi)
    root = nk.find_root_bracketed(miss, bracket, tol_x=tol_x)
    delta = 64.0 * tol_x
    m_val = miss(root)
    slope = (miss(min(root + delta, hi)) - miss(max(root - delta, lo))) / (2.0 * delta)
    resid = abs(m_val) / max(abs(slope), 1e-30)
    return root, max(resid, tol_x)


_DIAG_NAN = float("nan")
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
    decay_max: Callable[[tuple[float, float]], float],
) -> Optional[OracleResult]:
    """Scan, refine and diagnose the first level of a sector, or None.

    p and mix(x) are the sector's template (see _mismatch), scanned over
    window; to_e(x) gives E/m and |d(E/m)/dx|, which turn the root, its
    residual and the diagnostic differences into energies.  decay_max(window)
    is the largest tail decay constant over a window.

    With diagnostics on, each probe re-solves from a bracket grown outward
    from the base root x0, x0 +- 1e-6 doubling up to x0 +- 1e-2 (see
    _grow_bracket).  The ladder (dx, 2dx, 4dx) coarsens numerov_dx = dx, so
    its two probes cost 0.75 of the base solve; the order is
    log2(|E(2dx) - E(4dx)| / |E(dx) - E(2dx)|), NaN unless the ladder
    converges (the coarser difference is the larger) and the finer
    difference is above the 1e-11 m rounding floor.  error_estimate is
    |E(dx) - E(2dx)|/15, Richardson's estimate for order 4.  The r_min probe
    halves r_min at dx; when r_min acts at no energy up to decay_max,
    halving it cannot move any seed radius and the probe is skipped.
    """
    evals = 0

    def count(n: int) -> None:
        nonlocal evals
        evals += n

    miss_x = _mismatch(p, mix, cfg, count)
    first = next(_sign_changes(miss_x, _scan_grid(window, cfg.n_scan)), None)
    if first is None:
        return None
    x0, resid = _refine_root(miss_x, *first, tol_x=1e-12)
    e0, de_dx = to_e(x0)
    resid_e = m * resid * de_dx
    if not cfg.diagnostics:
        return OracleResult(m * e0, resid_e, _DIAG_NAN, _DIAG_NAN, evals)
    # coarsened discretization at fixed r_min -> observed order and error
    # estimate; halved inner cutoff at fixed discretization -> r_min
    # sensitivity
    narrow = (max(window[0], x0 - _PROBE_HALF_WIDTH), min(window[1], x0 + _PROBE_HALF_WIDTH))
    probe = replace(cfg, diagnostics=False)
    probes = [replace(probe, numerov_dx=cfg.numerov_dx * f) for f in _LADDER]
    if _r_min_acts(cfg.r_min, decay_max(narrow)):
        probes.append(replace(probe, r_min=cfg.r_min / 2.0))
    energies = []
    for config in probes:
        probe_miss = _mismatch(p, mix, config, count)
        bracket = _grow_bracket(probe_miss, x0, narrow)
        # a probe finds no root when its rung moves the root out of the
        # probe window: by more than 1e-2, or past the scan window's edge
        if bracket is None:
            return OracleResult(m * e0, resid_e, _DIAG_NAN, _DIAG_NAN, evals)
        energies.append(to_e(nk.find_root_bracketed(probe_miss, bracket, tol_x=1e-12))[0])
    e2, e4, *e_half_r_min = energies
    sens = abs(e0 - e_half_r_min[0]) if e_half_r_min else 0.0
    d1 = abs(e0 - e2)
    d2 = abs(e2 - e4)
    # a ladder that does not converge, or whose finer difference is
    # rounding noise, gives no order
    order = math.log2(d2 / d1) if d2 > d1 > _ORDER_FLOOR else _DIAG_NAN
    return OracleResult(m * e0, resid_e, order, m * sens, evals, m * d1 / 15.0)


# ---------------------------------------------------------------------------
# Dirac shoot
# ---------------------------------------------------------------------------


_GAP_WINDOW = (-1.0 + 1e-9, 1.0 - 1e-9)


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
    exact second-order equation f1'' = [a(a - 1)/r^2 + lambda^2] f1 to r_max,
    and root-finds the growing-mode admixture over u = tau*E.  Since
    s(E + 1) does not vanish in the gap, f2 = ((a/r) f1 - f1')/(s(E + 1))
    decays exactly when f1 does.  Returns None when the scan shows no sign
    change (e.g. xi >= 0).
    """
    if ch.regime is not Regime.EXTENDED:
        raise RegimeError("dirac_shoot: requires an extended-regime channel")
    xi = ext.xi
    if not xi < 0.0:
        return None
    m = ch.m
    tau = ch.tau
    if cfg.energy_bracket is not None:
        window = (cfg.energy_bracket[0] / m * tau, cfg.energy_bracket[1] / m * tau)
        window = (min(window), max(window))
    else:
        window = _GAP_WINDOW
    # lambda <= 1, so r_min <= 2 leaves every seed radius at 2/lambda
    p, mix = _dirac_template(ch, ch.s * xi)
    return _shoot(cfg, m, window, p, mix, lambda u: (tau * u, 1.0), lambda narrow: 1.0)


def count_dirac_levels(
    ch: DiracChannel, ext: Extension, cfg: ShootingConfig = ShootingConfig()
) -> int:
    """Number of mismatch sign changes over the whole gap (uniqueness probe).

    Unlike a shoot, whose scan stops at the first sign change, the count
    evaluates every one of the n_scan grid points; where the config's grid
    scales with 1/k, all from one pair of branch integrations."""
    if ch.regime is not Regime.EXTENDED:
        raise RegimeError("count_dirac_levels: requires an extended-regime channel")
    xi = ext.xi
    if not xi < 0.0:
        return 0
    miss_u = _mismatch(*_dirac_template(ch, ch.s * xi), cfg, lambda n: None)
    return sum(1 for _ in _sign_changes(miss_u, _scan_grid(_GAP_WINDOW, cfg.n_scan)))


# ---------------------------------------------------------------------------
# Numerov kernel (both sectors) and Schroedinger shoot
# ---------------------------------------------------------------------------


_LOG_1E250 = math.log(1e250)


def _numerov_pass(
    c: float,
    k2: float,
    y0: float,
    y1: float,
    x0: float,
    h: float,
    n: int,
) -> tuple[float, float, float]:
    """n Numerov steps for y'' = (c/x^2 + k2) y on x = x0 + i*h from (y0, y1).

    Returns the last two values and log_scale, the sum of the logs of the
    1e250 renormalizations: the true values are the returned ones times
    exp(log_scale).
    """
    hh = h * h
    h2_12 = hh / 12.0
    log_scale = 0.0
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
        if abs(y_cur) > 1e250:
            y_prev /= 1e250
            y_cur /= 1e250
            t_prev /= 1e250
            t_cur /= 1e250
            log_scale += _LOG_1E250
    return y_prev, y_cur, log_scale


def _numerov_miss(
    g: float, k: float, seed: Callable[[float], float], cfg: ShootingConfig
) -> float:
    """Tail mismatch for u'' = [(g^2 - 1/4)/r^2 + k^2] u by Numerov.

    The mismatch is the cross product of the last two tail values with the
    decaying asymptote sqrt(r) K_g(k r), times exp(-k*(r_max - r_seed)): the
    growing-mode coefficient times a smooth positive scale.

    seed(r) = r^(-1/2) u(r) is the sector's domain template, each branch
    continued by its summed Frobenius factor, which converges at every r; its
    values at the first two grid points start one linear grid from r_seed to
    r_max.  Evaluating the series out to r_seed, instead of transporting the
    mixture numerically from deep inside the power-law zone, keeps the
    microscopic regular-branch share (relative error / r^(2 g)) exact.
    """
    if cfg.r_max is None and not _r_min_acts(cfg.r_min, k):
        # the grid scales with 1/k: count its steps in z, so that every k
        # takes the same n as the shared branch pair at k = 1
        r_seed, r_max = _SEED_Z / k, _TAIL_Z / k
        n = max(8, math.ceil((_TAIL_Z - _SEED_Z) / cfg.numerov_dx))
    else:
        r_max = cfg.r_max if cfg.r_max is not None else _TAIL_Z / k
        r_seed = min(cfg.r_min if _r_min_acts(cfg.r_min, k) else _SEED_Z / k, 0.2 * r_max)
        n = max(8, math.ceil((r_max - r_seed) / (cfg.numerov_dx / k)))
    h_r = (r_max - r_seed) / n
    u_0 = math.sqrt(r_seed) * seed(r_seed)
    u_1 = math.sqrt(r_seed + h_r) * seed(r_seed + h_r)
    g2 = g * g
    ub, ua, log_scale = _numerov_pass(g2 - 0.25, k * k, u_0, u_1, r_seed, h_r, n)
    rb = r_seed + (n - 1) * h_r
    ra = r_max
    w1 = (4.0 * g2 - 1.0) / 8.0
    w2 = (4.0 * g2 - 1.0) * (4.0 * g2 - 9.0) / 128.0

    def asym(r: float) -> float:
        zr = k * r
        return math.exp(-k * (r - rb)) * (1.0 + w1 / zr + w2 / (zr * zr))

    num = ua * asym(rb) - ub * asym(ra)
    return num * math.exp(log_scale - k * (r_max - r_seed))


def _ac_template(g: float, xi_int: float) -> tuple[float, Mix]:
    """(p, mix) of the domain template f ~ (m r)^g - xi_int (m r)^(-g) over
    y = ln(-E), with kappa = sqrt(-2E); the seed r^(-1/2) u is f, and the
    bound side has xi_int = -xi > 0."""
    return g, lambda y: (math.sqrt(2.0 * math.exp(y)), 1.0, -xi_int)


def schrodinger_shoot(
    ch: ACChannel, ext: Extension, cfg: ShootingConfig = ShootingConfig()
) -> Optional[OracleResult]:
    """Negative level of the neutral-fermion channel from Numerov shooting.

    Seeds the domain template (see _ac_template), scans ln(-E_n) over the
    energy window (default E_n/m in [-1e6, -1e-8]), root-finds the tail
    mismatch, and reports nested-cutoff diagnostics.  Returns None when no
    sign change exists (e.g. xi >= 0).
    """
    if ch.regime is not ACRegime.EXTENDED:
        raise RegimeError("schrodinger_shoot: requires 0 < gamma < 1")
    xi = ext.xi
    if not xi < 0.0:
        return None
    m = ch.m
    if cfg.energy_bracket is not None:
        e_lo, e_hi = cfg.energy_bracket
        if not (e_lo < 0 and e_hi < 0):
            raise ValueError("schrodinger_shoot: energy_bracket must be negative")
        window = (math.log(-max(e_lo, e_hi) / m), math.log(-min(e_lo, e_hi) / m))
        window = (min(window), max(window))
    else:
        window = (math.log(1e-8), math.log(1e6))

    # kappa is largest at the deep end of a window
    p, mix = _ac_template(ch.gamma, -xi)
    return _shoot(
        cfg, m, window, p, mix, lambda y: (-math.exp(y), math.exp(y)), lambda w: mix(w[1])[0]
    )


# ---------------------------------------------------------------------------
# convergence studies
# ---------------------------------------------------------------------------


def convergence_study(
    ch: DiracChannel | ACChannel,
    ext: Extension,
    configs: Sequence[ShootingConfig],
) -> ConvergenceReport:
    """Richardson study over a ladder of at least three nested configs.

    The shoot follows the channel: dirac_shoot for a DiracChannel,
    schrodinger_shoot for an ACChannel; any other channel is a TypeError.
    Each rung is expected to halve r_min and refine the discretization; the
    observed order is log2 of the ratio of successive differences, and the
    extrapolated energy removes the leading error term.  Non-monotone
    difference sequences are flagged.
    """
    if len(configs) < 3:
        raise ValueError("convergence_study: need at least 3 nested configs")
    if not isinstance(ch, (DiracChannel, ACChannel)):
        raise TypeError(f"convergence_study: no shoot for a {type(ch).__name__}")
    shoot = dirac_shoot if isinstance(ch, DiracChannel) else schrodinger_shoot
    energies = []
    for cfg in configs:
        res = shoot(ch, ext, replace(cfg, diagnostics=False))
        if res is None:
            raise ValueError("convergence_study: no bound level found on a rung")
        energies.append(res.E)
    diffs = [energies[i + 1] - energies[i] for i in range(len(energies) - 1)]
    monotone = all(
        abs(diffs[i + 1]) <= abs(diffs[i]) + 1e-15 for i in range(len(diffs) - 1)
    )
    if abs(diffs[-1]) > 1e-15 and abs(diffs[-2]) > 1e-15:
        order = math.log2(abs(diffs[-2]) / abs(diffs[-1]))
        if order > 0.25:
            e_rich = energies[-1] + diffs[-1] / (2.0**order - 1.0)
        else:
            # differences at the noise floor carry no extrapolation signal
            e_rich = energies[-1]
    else:
        order = float("inf")
        e_rich = energies[-1]
    return ConvergenceReport(
        energies=tuple(energies),
        extrapolated_E=e_rich,
        observed_order=order,
        monotone=monotone,
    )
