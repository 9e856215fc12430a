"""Independent ODE eigensolver used to adjudicate every analytic level.

The oracle never touches the analytic level formulas: it seeds the radial
problem at an inner cutoff with the extension-family boundary template
(continued inward by the Frobenius series of the ODE itself), integrates
outward, and measures the admixture of the growing mode at an outer radius
deep in the classically forbidden tail via a cross product with the decaying
asymptotic solution.  Bound levels are roots of that mismatch in the energy.

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
lambda^2 = 1 - E^2.  That is the reduced Schroedinger form
u'' = [(g^2 - 1/4)/r^2 + k^2] u of the neutral-fermion sector, with
g = |a - 1/2| = |l + mu| and k = lambda, and both are integrated by Numerov,
first on a logarithmic grid through the power-law zone, then on a linear
grid through the tail.  Mismatch-function errors at the outer radius are
damped by exp(-2*k*(r_max - r)), so the dominant error is integrator
truncation, of order numerov_dx^4; the shoot therefore carries that one
resolution knob and reports nested-cutoff diagnostics.

Both sectors run one skeleton, ``_shoot``: scan a grid of the sector's scan
variable (u = tau*E/m for Dirac, y = ln(-E/m) for Schroedinger) for the first
sign change, refine it with Brent, and re-solve in a narrow window for the
discretization ladder and the halved inner cutoff.  A sector supplies only its
mismatch, window, scan-variable-to-energy map and refined configs.  Each shoot
is a pure computation.

The scan runs in two stages, since it needs only the mismatch's sign.  It
first integrates at a loose step (numerov_dx at least 0.04) up to the first
sign change; the two ends of that bracket are then integrated at the working
step, and Brent starts from their working values, so it gets the bracket a
working scan would hand it.  If the loose scan finds no sign change, or the
working signs at the ends differ from the loose ones, the working scan runs
after all.  The narrow diagnostic probes and count_dirac_levels scan at the
working step only.
``OracleResult.evaluations`` counts working integrations and
``scan_evaluations`` loose ones.
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


@dataclass(frozen=True)
class ShootingConfig:
    """Numerical controls for one shoot.

    r_min/r_max in units of 1/m (r_max = None selects 40/k per energy, with
    k the tail decay constant: lambda = sqrt(1 - E^2) for Dirac, kappa =
    sqrt(-2E) for Schroedinger); numerov_dx is the Numerov grid step of both
    sectors (logarithmic inner segment, and in units of 1/k on the linear
    tail segment), below 1: at 1 the shoot is already 5e-4 m off, and from
    about 177 the seed-radius test's exp(4*numerov_dx) overflows;
    energy_bracket (in units of m) overrides the default scan window;
    n_scan grid points locate the sign change; diagnostics enables the
    nested-cutoff re-solves.

    numerov_dx is the working setting: every reported number comes from
    integrations at it.  A shoot's first sign scan only reads signs, so it
    runs with numerov_dx coarsened to at least 0.04, and the bracket it
    finds is re-evaluated at the working step before refinement.  This floor
    is fixed, not a config field.

    r_min is a lower limit on the radius where the template series seeds the
    integration, r_seed = min(max(r_min, 0.05/k), 0.2*r_max), so it only
    acts when r_min > 0.05/k.
    When halving it cannot move r_seed anywhere in the probe window, the
    r_min probe is skipped and r_min_sensitivity is exactly 0.0.
    """

    r_min: float = 1e-6
    r_max: Optional[float] = None
    energy_bracket: Optional[tuple[float, float]] = None
    n_scan: int = 48
    numerov_dx: float = 0.01
    diagnostics: bool = True

    def __post_init__(self) -> None:
        if not 0.0 < self.r_min:
            raise ValueError("ShootingConfig: r_min must be > 0")
        if self.r_max is not None and not self.r_max > self.r_min:
            raise ValueError("ShootingConfig: r_max must exceed r_min")
        if not 0.0 < self.numerov_dx < 1.0:
            raise ValueError("ShootingConfig: numerov_dx out of (0, 1)")


@dataclass(frozen=True)
class OracleResult:
    """A shot level with the mismatch integrations it took.

    evaluations counts integrations at the working step over the whole
    shoot, diagnostic probes included: the base solve's two bracket ends and
    its refinement, plus any fallback scan, and each probe's scan and
    refinement.  scan_evaluations counts the base solve's loose sign-scan
    integrations; it is 0 when the config's numerov_dx is already at least
    as coarse as the scan's, and the one scan then counts in evaluations.  Each
    scan stops at the first sign change, so the counts cover the grid only
    up to that bracket."""

    E: float
    match_residual: float
    convergence_order_estimate: float
    r_min_sensitivity: float
    evaluations: int = 0
    scan_evaluations: int = 0


@dataclass(frozen=True)
class ConvergenceReport:
    energies: tuple[float, ...]
    extrapolated_E: float
    observed_order: float
    monotone: bool


# ---------------------------------------------------------------------------
# Dirac shoot
# ---------------------------------------------------------------------------


def _frobenius_factor(a: float, z2: float) -> float:
    """1 + z^2/(4(1+a)) + z^4/(32(1+a)(2+a)) + z^6/(384(1+a)(2+a)(3+a)).

    Series factor of the local solution r^(a+1/2) about the origin; truncation
    is below 1e-13 for |z| <= 0.05 over the index range used here.
    """
    return 1.0 + z2 / (4.0 * (1.0 + a)) * (
        1.0 + z2 / (8.0 * (2.0 + a)) * (1.0 + z2 / (12.0 * (3.0 + a)))
    )


def _dirac_seed(ch: DiracChannel, xi_int: float, r: float, E: float):
    """Frobenius continuation of the domain template to r (four terms/branch).

    The pair is built in u = tau*E with the r^(+nu) carrying component first;
    a tau = -1 channel is the tau = +1 one at -E with its components swapped,
    bit for bit, since -E - 1 = -(E + 1) in floating point.
    """
    nu, s, tau = ch.nu, ch.s, ch.tau
    u = tau * E
    z2 = (1.0 - E * E) * r * r
    reg = (
        r**nu * _frobenius_factor(nu - 0.5, z2),
        (u - 1.0) / (s * (2.0 * nu + 1.0)) * r ** (nu + 1.0) * _frobenius_factor(nu + 0.5, z2),
    )
    irr = (
        (u + 1.0) / (s * (2.0 * nu - 1.0)) * r ** (1.0 - nu) * _frobenius_factor(0.5 - nu, z2),
        r ** (-nu) * _frobenius_factor(-nu - 0.5, z2),
    )
    carrying, companion = reg[0] - xi_int * irr[0], reg[1] - xi_int * irr[1]
    return (carrying, companion) if tau == 1 else (companion, carrying)


def _dirac_miss(ch: DiracChannel, xi_int: float, cfg: ShootingConfig, E: float) -> float:
    """Growing-mode admixture at the outer matching radius (m = 1 units).

    With a = s*nu_tilde the radial system is f1' = (a/r) f1 - s(E + 1) f2,
    f2' = s(E - 1) f1 - (a/r) f2; its coefficients are constant, so
    eliminating f2 is exact: f1'' = [a(a - 1)/r^2 + lambda^2] f1, with
    lambda^2 = 1 - E^2.  That is the reduced Schroedinger form with index
    |a - 1/2| = |l + mu|.  Since s(E + 1) does not vanish in the gap, f2 =
    ((a/r) f1 - f1')/(s(E + 1)) decays exactly when f1 does, so the Numerov
    mismatch of f1, seeded from the template's f1 component, has the Dirac
    levels as its simple zeros.
    """
    lam = math.sqrt((1.0 - E) * (1.0 + E))

    def seed(r: float) -> float:
        return _dirac_seed(ch, xi_int, r, E)[0] / math.sqrt(r)

    return _numerov_miss(abs(ch.l + ch.mu), lam, seed, cfg)


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
    miss: Callable[[float], float],
    lo: float,
    hi: float,
    f_lo: float,
    f_hi: float,
    tol_x: float,
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

# numerov_dx floor for the sign scan of a shoot's base solve.  The scan needs
# only the mismatch's sign; on all 50 A3 channels the first sign change falls
# in the same grid interval at this step as at the default one, for a
# quarter of the integration cost.
_SCAN_DX = 0.04


def _shoot(
    cfg: ShootingConfig,
    m: float,
    window: tuple[float, float],
    miss: Callable[[ShootingConfig, float], float],
    to_e: Callable[[float], tuple[float, float]],
    decay_max: Callable[[tuple[float, float]], float],
) -> Optional[OracleResult]:
    """Scan, refine and diagnose the first level of a sector, or None.

    miss(config, x) is the sector's mismatch at scan variable x, scanned over
    window; to_e(x) gives E/m and |d(E/m)/dx|, which turn the root, its
    residual and the diagnostic differences into energies.  The two refined
    probes halve and quarter numerov_dx.  decay_max(window) is the largest
    tail decay constant over a probe window: when r_min <= 0.05/decay_max,
    halving r_min cannot move any seed radius and the r_min probe is skipped.

    Only the base solve scans with numerov_dx raised to _SCAN_DX (the
    two stages and their fallbacks are in the module docstring).  The narrow
    probes' window is centred on the base root, so the root sits on their
    middle grid point, and a loose scan there brackets the other side of it:
    on 256 measured shoots every probe solve fell back to the working scan.
    Each solve memoizes its mismatch per config, so evaluations counts
    working integrations and scan_evals loose ones, not calls.
    """
    evals = 0
    scan_evals = 0

    def memoized(config: ShootingConfig, loose: bool) -> Callable[[float], float]:
        memo: dict[float, float] = {}

        def miss_x(x: float) -> float:
            nonlocal evals, scan_evals
            if x not in memo:
                if loose:
                    scan_evals += 1
                else:
                    evals += 1
                memo[x] = miss(config, x)
            return memo[x]

        return miss_x

    def solve_at(
        config: ShootingConfig, win: tuple[float, float], loose_scan: bool = False
    ) -> Optional[tuple[float, float]]:
        miss_x = memoized(config, loose=False)
        grid = _scan_grid(win, config.n_scan)
        first = None
        if loose_scan and config.numerov_dx < _SCAN_DX:
            scan_cfg = replace(config, numerov_dx=_SCAN_DX)
            found = next(_sign_changes(memoized(scan_cfg, loose=True), grid), None)
            if found is not None:
                lo, hi, f_lo, f_hi = found
                w_lo, w_hi = miss_x(lo), miss_x(hi)
                if w_lo * f_lo > 0.0 and w_hi * f_hi > 0.0:
                    first = (lo, hi, w_lo, w_hi)
        if first is None:
            first = next(_sign_changes(miss_x, grid), None)
        if first is None:
            return None
        return _refine_root(miss_x, *first, tol_x=1e-12)

    base = solve_at(cfg, window, loose_scan=True)
    if base is None:
        return None
    x0, resid = base
    e0, de_dx = to_e(x0)
    resid_e = m * resid * de_dx
    if not cfg.diagnostics:
        return OracleResult(m * e0, resid_e, _DIAG_NAN, _DIAG_NAN, evals, scan_evals)
    # discretization ladder at fixed r_min -> observed order; halved inner
    # cutoff at fixed discretization -> r_min sensitivity
    narrow = (max(window[0], x0 - 1e-3), min(window[1], x0 + 1e-3))
    probe = replace(cfg, n_scan=9, diagnostics=False)
    probes = [replace(probe, numerov_dx=cfg.numerov_dx / 2**k) for k in (1, 2)]
    if cfg.r_min > 0.05 / decay_max(narrow):
        probes.append(replace(probe, r_min=cfg.r_min / 2.0))
    got = [solve_at(c, narrow) for c in probes]
    if any(g is None for g in got):  # pragma: no cover - root stays in the window
        return OracleResult(m * e0, resid_e, _DIAG_NAN, _DIAG_NAN, evals, scan_evals)
    levels = [to_e(g[0])[0] for g in got]
    sens = abs(e0 - levels[2]) if len(levels) == 3 else 0.0
    d1 = abs(e0 - levels[0])
    d2 = abs(levels[0] - levels[1])
    order = math.log2(d1 / d2) if (d1 > 1e-15 and d2 > 1e-15) else _DIAG_NAN
    return OracleResult(m * e0, resid_e, order, m * sens, evals, scan_evals)


_GAP_WINDOW = (-1.0 + 1e-9, 1.0 - 1e-9)


def dirac_shoot(
    ch: DiracChannel, ext: Extension, cfg: ShootingConfig = ShootingConfig()
) -> Optional[OracleResult]:
    """Bound level of the Dirac channel from outward shooting, or None.

    Seeds f1 from the domain template with the channel-sign component
    pairing and internal weight s*xi, integrates its exact second-order
    equation (see _dirac_miss) to r_max, and root-finds the growing-mode
    admixture over u = tau*E.  Returns None when the scan shows no sign
    change (e.g. xi >= 0).
    """
    if ch.regime is not Regime.EXTENDED:
        raise RegimeError("dirac_shoot: requires an extended-regime channel")
    xi = ext.xi
    if ext.is_infinite or xi >= 0.0:
        return None
    m = ch.m
    xi_int = ch.s * xi
    tau = ch.tau
    if cfg.energy_bracket is not None:
        window = (cfg.energy_bracket[0] / m * tau, cfg.energy_bracket[1] / m * tau)
        window = (min(window), max(window))
    else:
        window = _GAP_WINDOW
    return _shoot(
        cfg,
        m,
        window,
        lambda config, u: _dirac_miss(ch, xi_int, config, tau * u),
        lambda u: (tau * u, 1.0),
        # lambda <= 1, so r_min <= 0.05 leaves every seed radius at 0.05/lambda
        lambda narrow: 1.0,
    )


def count_dirac_levels(
    ch: DiracChannel, ext: Extension, cfg: ShootingConfig = ShootingConfig()
) -> int:
    """Number of mismatch sign changes over the whole gap (uniqueness probe).

    Unlike a shoot, whose scan stops at the first sign change, the count
    evaluates every one of the n_scan grid points."""
    if ch.regime is not Regime.EXTENDED:
        raise RegimeError("count_dirac_levels: requires an extended-regime channel")
    xi = ext.xi
    if ext.is_infinite or xi >= 0.0:
        return 0
    xi_int = ch.s * xi
    tau = ch.tau

    def miss_u(u: float) -> float:
        return _dirac_miss(ch, xi_int, cfg, tau * u)

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
    """Tail mismatch for u'' = [(g^2 - 1/4)/r^2 + k^2] u, two-segment Numerov.

    The mismatch is the cross product of the last two tail values with the
    decaying asymptote sqrt(r) K_g(k r), times exp(-k*(r_max - r_seed)): the
    growing-mode coefficient times a smooth positive scale.

    Segment 1 covers the power-law zone on a logarithmic grid via
    v(x) = e^(-x/2) u(e^x), v'' = [g^2 + k^2 e^(2x)] v, seeded from
    seed(r) = r^(-1/2) u(r), the sector's domain template continued by its
    series corrections.  Segment 2 integrates u directly on a linear grid out
    to r_max; the handoff error at the segment joint is damped by
    exp(-2 k (r_max - r_joint)) like any boundary perturbation there.
    """
    r_max = cfg.r_max if cfg.r_max is not None else 40.0 / k
    g2 = g * g
    k2 = k * k
    dx = cfg.numerov_dx
    # evaluate the template's series continuation as far out as its
    # truncation allows before integrating: transporting the mixture
    # numerically from deep inside the power-law zone would erode the
    # microscopic regular-branch share (relative error / r^(2 g))
    r_seed = min(max(cfg.r_min, 0.05 / k), 0.2 * r_max)
    r_joint = min(0.5 / k, 0.25 * r_max)
    seed_directly = r_joint <= r_seed * math.exp(4.0 * dx)
    if seed_directly:
        # the template series already reaches the tail grid: seed the linear
        # segment from two series values, no derivative handoff needed
        r_joint = r_seed
        u_j = math.sqrt(r_joint) * seed(r_joint)
        up_j = 0.0
    else:
        x0 = math.log(r_seed)
        x1 = math.log(r_joint)
        n_log = max(8, int(math.ceil((x1 - x0) / dx)))
        h_log = (x1 - x0) / n_log

        def w_log(x: float) -> float:
            return g2 + k2 * math.exp(2.0 * x)

        # integrate keeping the last three values; extract v' at the interior
        # point x_c = x1 - h with the Numerov-consistent centered formula
        hh = h_log * h_log
        h2_12 = hh / 12.0
        exp = math.exp
        y_prev, y_cur = seed(math.exp(x0)), seed(math.exp(x0 + h_log))
        w_cur = w_log(x0 + h_log)
        t_prev = y_prev * (1.0 - h2_12 * w_log(x0))
        t_cur = y_cur * (1.0 - h2_12 * w_cur)
        y_mm = y_prev
        for i in range(2, n_log + 1):
            # w at x0 + (i-1)*h_log was the previous step's w_next
            w_next = g2 + k2 * exp(2.0 * (x0 + i * h_log))
            t_next = 2.0 * t_cur - t_prev + hh * w_cur * y_cur
            y_next = t_next / (1.0 - h2_12 * w_next)
            w_cur = w_next
            t_prev, t_cur = t_cur, t_next
            y_mm, y_prev, y_cur = y_prev, y_cur, y_next
        x_c = x1 - h_log
        d_centered = (y_cur - y_mm) / (2.0 * h_log)
        f_c = w_log(x_c)
        fp_c = 2.0 * k2 * math.exp(2.0 * x_c)
        v_prime = (d_centered - h_log * h_log / 6.0 * fp_c * y_prev) / (
            1.0 + h_log * h_log / 6.0 * f_c
        )
        r_joint = math.exp(x_c)
        u_j = math.exp(0.5 * x_c) * y_prev
        up_j = math.exp(-0.5 * x_c) * (v_prime + 0.5 * y_prev)

    # linear tail segment from r_joint to r_max
    h_r = dx / k
    n_lin = max(8, int(math.ceil((r_max - r_joint) / h_r)))
    h_r = (r_max - r_joint) / n_lin
    c = g2 - 0.25
    if seed_directly:
        u_next = math.sqrt(r_joint + h_r) * seed(r_joint + h_r)
    else:
        w0 = c / (r_joint * r_joint) + k2
        wp = -2.0 * c / r_joint**3
        wpp = 6.0 * c / r_joint**4
        u2 = w0 * u_j
        u3 = wp * u_j + w0 * up_j
        u4 = wpp * u_j + 2.0 * wp * up_j + w0 * u2
        u_next = (
            u_j + h_r * up_j + h_r**2 / 2.0 * u2 + h_r**3 / 6.0 * u3 + h_r**4 / 24.0 * u4
        )
    ub, ua, log_scale = _numerov_pass(c, k2, u_j, u_next, r_joint, h_r, n_lin)
    rb = r_joint + (n_lin - 1) * h_r
    ra = r_max
    w1 = (4.0 * g2 - 1.0) / 8.0
    w2 = (4.0 * g2 - 1.0) * (4.0 * g2 - 9.0) / 128.0

    def asym(r: float) -> float:
        zr = k * r
        return math.exp(-k * (r - rb)) * (1.0 + w1 / zr + w2 / (zr * zr))

    num = ua * asym(rb) - ub * asym(ra)
    return num * math.exp(log_scale - k * (r_max - r_seed))


def _numerov_ac_miss(g: float, xi_int: float, cfg: ShootingConfig, E: float) -> float:
    """Tail mismatch of the reduced Schroedinger form at E (m = 1 units).

    kappa = sqrt(-2E); the seed is the domain template
    f ~ (m r)^g - xi_int (m r)^(-g) continued by its series corrections
    (v = f exactly on the logarithmic segment).
    """
    kappa = math.sqrt(-2.0 * E)

    def seed(r: float) -> float:
        z2 = (kappa * r) ** 2
        reg = r**g * _frobenius_factor(g, z2)
        irr = r**-g * _frobenius_factor(-g, z2)
        return reg - xi_int * irr

    return _numerov_miss(g, kappa, seed, cfg)


def schrodinger_shoot(
    ch: ACChannel, ext: Extension, cfg: ShootingConfig = ShootingConfig()
) -> Optional[OracleResult]:
    """Negative level of the neutral-fermion channel from Numerov shooting.

    Scans ln(-E_n) over the energy window (default E_n/m in [-1e6, -1e-8]),
    root-finds the tail mismatch, and reports nested-cutoff diagnostics.
    Returns None when no sign change exists (e.g. xi >= 0).
    """
    if ch.regime is not ACRegime.EXTENDED:
        raise RegimeError("schrodinger_shoot: requires 0 < gamma < 1")
    xi = ext.xi
    if ext.is_infinite or xi >= 0.0:
        return None
    m = ch.m
    g = ch.gamma
    xi_int = -xi  # AC internal template weight; bound side has xi_int > 0
    if cfg.energy_bracket is not None:
        e_lo, e_hi = cfg.energy_bracket
        if not (e_lo < 0 and e_hi < 0):
            raise ValueError("schrodinger_shoot: energy_bracket must be negative")
        window = (math.log(-max(e_lo, e_hi) / m), math.log(-min(e_lo, e_hi) / m))
        window = (min(window), max(window))
    else:
        window = (math.log(1e-8), math.log(1e6))
    return _shoot(
        cfg,
        m,
        window,
        lambda config, y: _numerov_ac_miss(g, xi_int, config, -math.exp(y)),
        lambda y: (-math.exp(y), math.exp(y)),
        # kappa is largest at the deep end of the window
        lambda narrow: math.sqrt(2.0 * math.exp(narrow[1])),
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
