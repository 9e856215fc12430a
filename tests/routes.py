"""The tests' independent numerical routes to the package's closed forms.

Each function here re-derives a closed-form result by another road: a
boundary parameter fitted from a profile's small-r coefficients, a level
found by bisection on its level equation, a channel mapped to its
radial conjugate, a tail mismatch integrated outward from the seed, a CLI
argv parsed by argparse's full top-level pass.  No CLI command uses them,
so they live beside the tests that call them rather than in the package.
"""

import math
from unittest import mock

from fluxbound import ab_spectrum as ab
from fluxbound import ac_spectrum as ac
from fluxbound import cli
from fluxbound import numkernel as nk
from fluxbound import oracle as orc

# the two radii, in units of 1/m, of fit_boundary_xi's small-r fit
_FIT_MR = (1e-7, 1e-5)


def fit_boundary_xi(doublet: ab.RadialDoublet, ch: ab.DiracChannel) -> float:
    """Recover the extension parameter from a doublet's small-r coefficients.

    Fits the r^(+nu) coefficient of the carrying component and the r^(-nu)
    coefficient of the companion at m r = 1e-7 and 1e-5 (exactly determined
    2x2 systems; the neglected series terms enter at relative 1e-10), and
    maps the internal ratio back to the reported orientation.
    """
    ab._require_extended(ch, "fit_boundary_xi")
    m, nu, tau, s = ch.m, ch.nu, ch.tau, ch.s
    ra, rb = (mr / m for mr in _FIT_MR)
    fa = doublet.evaluator(ra)
    fb = doublet.evaluator(rb)
    i_reg = 0 if tau == 1 else 1
    i_irr = 1 - i_reg

    def solve2(p: float, q: float, ya: float, yb: float) -> float:
        # [ra^p ra^q; rb^p rb^q] [c1 c2]^T = [ya yb]^T; returns c1
        a11, a12 = ra**p, ra**q
        a21, a22 = rb**p, rb**q
        det = a11 * a22 - a12 * a21
        return (ya * a22 - yb * a12) / det

    p_coef = solve2(nu, 1.0 - nu, fa[i_reg], fb[i_reg])
    q_coef = solve2(-nu, 1.0 + nu, fa[i_irr], fb[i_irr])
    xi_internal = -(q_coef / p_coef) * m ** (2.0 * nu)
    return s * xi_internal


def conjugate_channel(
    ch: ab.DiracChannel, ext: ab.Extension
) -> tuple[ab.DiracChannel, ab.Extension]:
    """Radial conjugate sector: (nu_tilde, s) -> (-nu_tilde, -s) via (l, s, mu) -> (-l, -s, -mu).

    The sigma_3 map flips the internal component ratio together with the
    orientation sign, so the reported extension parameter is unchanged; nu and
    tau are invariant and the conjugate channel shares the master xi(E) curve.
    """
    mapped = ab.DiracChannel(m=ch.m, l=-ch.l, s=-ch.s, mu=-ch.mu)
    return mapped, ext


def fit_ac_boundary_xi(doublet: ab.RadialDoublet, ch: ac.ACChannel, kappa: float) -> float:
    """Recover the extension parameter from the profile's boundary behavior.

    The single component holds both powers r^(1/2 +- gamma), so a truncated
    monomial fit degrades as gamma -> 1; instead the profile is projected on
    the exact regular/irregular local solutions at two moderate radii,
    sqrt(m r) times the template's Frobenius branches
    (m r)^(+-gamma) F_(+-gamma)((kappa r)^2), which are
    Gamma(1 +- gamma) (2m/kappa)^(+-gamma) sqrt(m r) I_(+-gamma)(kappa r).
    The raw internal ratio is then mapped back to the reported orientation
    (bound side at xi < 0).
    """
    ac._require_extended(ch, "fit_ac_boundary_xi")
    g, m = ch.gamma, ch.m

    def basis(r: float) -> tuple[float, float]:
        x2, mr = (kappa * r) ** 2, m * r
        sq = math.sqrt(mr)
        b_reg = mr**g * nk.frobenius_factor(g, x2) * sq
        b_irr = mr**-g * nk.frobenius_factor(-g, x2) * sq
        return b_reg, b_irr

    ra, rb = 0.35 / kappa, 0.85 / kappa
    a11, a12 = basis(ra)
    a21, a22 = basis(rb)
    ya = doublet.evaluator(ra)[0]
    yb = doublet.evaluator(rb)[0]
    det = a11 * a22 - a12 * a21
    p_coef = (ya * a22 - yb * a12) / det
    q_coef = (a11 * yb - a21 * ya) / det
    # the internal ratio is -q/p, and the reported xi its negative
    return q_coef / p_coef


def bisect(f, lo: float, hi: float) -> float:
    """A root of f between lo < hi, where f changes sign, by bisection until
    the midpoint is one of the two ends: f's sign change is then between
    neighbouring doubles."""
    positive_lo = f(lo) > 0.0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid > 0.0) == positive_lo:
            lo = mid
        else:
            hi = mid
    return mid


def ac_solve_cross_check(ch: ac.ACChannel, ext: ab.Extension) -> ac.ACLevel:
    """The neutral-fermion level found by bisection on the level equation.

    Solves ln omega(E_n) = ln(-xi) in y = ln(kappa/m) to neighbouring
    doubles, so it agrees with the closed form to better than 1e-9 m.
    """
    ac._require_extended(ch, "ac_solve_cross_check")
    xi = ext.xi
    if not xi < 0.0:
        raise ValueError("ac_solve_cross_check: requires finite xi < 0")
    g, m = ch.gamma, ch.m
    lng = nk.log_gamma_ratio(g)
    target = math.log(-xi)

    def h(y: float) -> float:
        # ln omega at kappa = m e^y
        return lng + 2.0 * g * (math.log(2.0) - y) - target

    y = bisect(h, -60.0, 60.0)
    kappa = m * math.exp(y)
    E_n = -kappa * kappa / (2.0 * m)
    return ac.ACLevel(
        E_n=E_n, kappa=kappa, xi=xi, channel=ch, residual=abs(ac.ac_wronskian(ch, E_n) + xi)
    )


def numerov_pass(c, k2, y0, y1, x0, h, n):
    """n Numerov steps for y'' = (c/x^2 + k2) y on x = x0 + i*h, for two
    solutions at once.

    y0 and y1 hold both solutions' values at x0 and x0 + h; returns their
    values at the last two grid points, (y_(n-1), y_n), each a pair.  Each
    step computes x, the coefficient w and the denominator 1 - h^2 w/12 once
    and applies them to both solutions.  Nothing is renormalized: over the
    oracle's grids, 10 decay lengths long, the solutions grow by about e^10.
    """
    hh = h * h
    h2_12 = hh / 12.0
    x1 = x0 + h
    w = c / (x1 * x1) + k2
    d0 = 1.0 - h2_12 * (c / (x0 * x0) + k2)
    d1 = 1.0 - h2_12 * w
    (a0, b0), (a1, b1) = y0, y1
    # t = (1 - h^2 w/12) y, advanced by t_next = 2 t - t_prev + h^2 w y
    ta0, ta1 = a0 * d0, a1 * d1
    tb0, tb1 = b0 * d0, b1 * d1
    for i in range(2, n + 1):
        hw = hh * w
        ta0, ta1 = ta1, 2.0 * ta1 - ta0 + hw * a1
        tb0, tb1 = tb1, 2.0 * tb1 - tb0 + hw * b1
        x = x0 + i * h
        w = c / (x * x) + k2
        d = 1.0 - h2_12 * w
        a0, a1 = a1, ta1 / d
        b0, b1 = b1, tb1 / d
    return (a0, b0), (a1, b1)


def numerov_miss(g, k, seed, dx):
    """Tail mismatches of two solutions of u'' = [(g^2 - 1/4)/r^2 + k^2] u,
    integrated outward in one Numerov sweep: the oracle's route before it
    swept the decaying asymptote inward.

    The grid runs from the seed radius _SEED_Z/k to the tail end _TAIL_Z/k
    in _sweep_steps(dx) steps.  Each mismatch is the cross product of the
    solution's last two tail values with the decaying asymptote
    sqrt(r) K_g(k r), times exp(-k*(r_tail - r_seed)).  seed(r) gives
    r^(-1/2) u(r) of both solutions, and its values at the first two grid
    points start the grid.
    """
    r_seed, r_tail = orc._SEED_Z / k, orc._TAIL_Z / k
    n = orc._sweep_steps(dx)
    h_r = (r_tail - r_seed) / n
    r_1 = r_seed + h_r
    a_0, b_0 = seed(r_seed)
    a_1, b_1 = seed(r_1)
    s_0, s_1 = math.sqrt(r_seed), math.sqrt(r_1)
    u_0, u_1 = (s_0 * a_0, s_0 * b_0), (s_1 * a_1, s_1 * b_1)
    g2 = g * g
    (ub_a, ub_b), (ua_a, ua_b) = numerov_pass(g2 - 0.25, k * k, u_0, u_1, r_seed, h_r, n)
    rb = r_seed + (n - 1) * h_r
    w1 = (4.0 * g2 - 1.0) / 8.0
    w2 = (4.0 * g2 - 1.0) * (4.0 * g2 - 9.0) / 128.0

    def asym(r):
        zr = k * r
        return math.exp(-k * (r - rb)) * (1.0 + w1 / zr + w2 / (zr * zr))

    asym_b, asym_a = asym(rb), asym(r_tail)
    scale = math.exp(-k * (r_tail - r_seed))
    return (ua_a * asym_b - ub_a * asym_a) * scale, (ua_b * asym_b - ub_b * asym_a) * scale


def outward_branch_pair(p, dx):
    """(M_reg, M_irr) of the branches z^(+-p) F_(+-p)(z^2) on the k = 1
    grid, both integrated outward to the tail: the reference for the
    oracle's inward _branch_pair."""
    return numerov_miss(abs(p), 1.0, lambda z: orc._branch_values(p, z), dx)


def top_level_parse_args(argv) -> cli.RunSpec:
    """``cli.parse_args`` with every parse, the config file's re-parses
    included, through argparse's full top-level pass: it hands a command's
    tokens on to the command's sub-parser and reports the tokens that
    sub-parser leaves."""

    def full_pass(argv):
        return vars(cli._build_parser()[0].parse_args(argv))

    with mock.patch.object(cli, "_parse", full_pass):
        return cli.parse_args(argv)
