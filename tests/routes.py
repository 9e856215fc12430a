"""The tests' independent numerical routes to the package's closed forms.

Each function here re-derives a closed-form result by another road: a
boundary parameter fitted from a profile's small-r coefficients, a level
found by bisection on its level equation, a channel mapped to its
radial conjugate, the origin's Frobenius series summed term by term, a
tail mismatch integrated outward from the seed, the
level count's scan of the oracle's closed-form mismatch, a level from the
oracle's line with the exact connection ratio at 50 digits, a CLI argv
parsed by argparse's full top-level pass.  No CLI command uses them,
so they live beside the tests that call them rather than in the package.
"""

import math
from typing import Callable, Sequence
from unittest import mock

import mpmath

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


def frobenius_factor(a: float, z2: float) -> float:
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
        b_reg = mr**g * frobenius_factor(g, x2) * sq
        b_irr = mr**-g * frobenius_factor(-g, x2) * sq
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
    grids of numerov_miss, 10 decay lengths long, the solutions grow by
    about e^10.
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


# numerov_miss's grid, in units of 1/k: from the seed radius, where the
# summed template series hands over to Numerov, to the tail end, 10 decay
# lengths further out
SEED_Z = 2.0
TAIL_Z = 12.0


def numerov_miss(g, k, seed, dx):
    """Tail mismatches of two solutions of u'' = [(g^2 - 1/4)/r^2 + k^2] u,
    integrated outward in one Numerov sweep: the oracle's route before it
    matched two series at one radius.

    The grid runs from the seed radius SEED_Z/k to the tail end TAIL_Z/k in
    ceil((TAIL_Z - SEED_Z)/dx) steps.  Each mismatch is the cross product of
    the solution's last two tail values with the decaying asymptote
    sqrt(r) K_g(k r), times exp(-k*(r_tail - r_seed)).  seed(r) gives
    r^(-1/2) u(r) of both solutions, and its values at the first two grid
    points start the grid.
    """
    r_seed, r_tail = SEED_Z / k, TAIL_Z / k
    n = math.ceil((TAIL_Z - SEED_Z) / dx)
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


def branch_values(p, z):
    """The branch pair z^(+-p) F_(+-p)(z^2) at z on the k = 1 grid."""
    z2 = z**2
    return z**p * frobenius_factor(p, z2), z**-p * frobenius_factor(-p, z2)


def outward_branch_pair(p, dx):
    """(M_reg, M_irr) of the branches z^(+-p) F_(+-p)(z^2) on the k = 1
    grid, both integrated outward to the tail at step dx: the Numerov
    referee for the oracle's series match."""
    return numerov_miss(abs(p), 1.0, lambda z: branch_values(p, z), dx)


# mix(x) -> (k, c_reg, c_irr): the tail decay constant and the template's
# coefficients of r^p F_p and r^-p F_-p at scan variable x
Mix = Callable[[float], tuple[float, float, float]]


def dirac_template(ch: ab.DiracChannel, xi_int: float) -> tuple[float, Mix]:
    """(p, mix) of the f1 component of the oracle's Dirac domain template
    (``oracle._dirac_line``) over s = ln((1 - u)/(1 + u)), u = tau*E, at the
    internal weight xi_int = s*xi.

    The mix takes u + 1 = 2/(1 + e^s), u - 1 = -2/(1 + e^-s) and
    lambda = sech(s/2) from s itself, so none cancels where u rounds to -+1.
    """
    nu, s = ch.nu, ch.s

    def lam(x: float) -> float:
        return 1.0 / math.cosh(0.5 * x)

    if ch.tau == 1:
        w = -2.0 * xi_int / (s * (2.0 * nu - 1.0))
        return nu - 0.5, lambda x: (lam(x), 1.0, w / (1.0 + math.exp(x)))
    w = -2.0 / (s * (2.0 * nu + 1.0))
    return nu + 0.5, lambda x: (lam(x), w / (1.0 + math.exp(-x)), -xi_int)


def mismatch(p: float, mix: Mix, pair=None) -> Callable[[float], float]:
    """x -> the template's tail mismatch at scan variable x (m = 1 units):
    the closed form k^(-1/2) (c_reg k^(-p) M_reg + c_irr k^p M_irr), with
    (M_reg, M_irr) the oracle's series match at p, or pair if given."""
    m_reg, m_irr = orc._series_match(p)[:2] if pair is None else pair

    def miss_x(x: float) -> float:
        k, c_reg, c_irr = mix(x)
        return (c_reg * k**-p * m_reg + c_irr * k**p * m_irr) / math.sqrt(k)

    return miss_x


def sign_changes(miss: Callable[[float], float], grid: Sequence[float]) -> int:
    """Sign changes of the mismatch between neighbouring grid points; an
    exact zero changes sign with the next point."""
    f = [miss(x) for x in grid]
    return sum(1 for a, b in zip(f, f[1:]) if a == 0.0 or a * b < 0.0)


# the level count's scan of s = ln((1 - u)/(1 + u)): it holds the s of the
# doubles next to u = -+1, about +-37.4
COUNT_WINDOW = (-40.0, 40.0)
COUNT_POINTS = 48


def count_dirac_levels(ch: ab.DiracChannel, ext: ab.Extension) -> int:
    """Number of mismatch sign changes over a 48-point scan of the gap.

    A shoot never evaluates the mismatch: the level's uniqueness rests on
    its line's monotonicity.  The count scans the closed-form mismatch
    itself, from the oracle's one series match, and so checks that
    uniqueness independently.  The scan runs over s = ln((1 - u)/(1 + u)),
    u = tau*E/m, from -40 to 40, past the s of the doubles next to u = -+1
    (about +-37.4), so it counts every level whose E does not round to -+m;
    a level beyond |s| = 40 has E = -+m and is not counted."""
    ab._require_extended(ch, "count_dirac_levels")
    xi = ext.xi
    if not xi < 0.0:
        return 0
    miss_s = mismatch(*dirac_template(ch, ch.s * xi))
    return sign_changes(miss_s, nk.linear_grid(*COUNT_WINDOW, COUNT_POINTS))


def exact_ratio(p):
    """The connection ratio R = 2^(-2p) Gamma(1-p)/Gamma(1+p) in mpmath, at
    the working precision."""
    q = mpmath.mpf(p)
    return 2 ** (-2 * q) * mpmath.gamma(1 - q) / mpmath.gamma(1 + q)


def exact_root(p, line):
    """The root of an oracle line a x + b softplus(x) = ln R_exact - c
    (``oracle._dirac_line``, ``oracle._ac_line``) at 50 digits, by Newton
    from x = 0: the line is convex, so the steps after the first descend
    monotonically."""
    with mpmath.workdps(50):
        a, b, c = (mpmath.mpf(v) for v in line)
        t = mpmath.log(exact_ratio(p)) - c
        if b == 0:
            return t / a
        x = mpmath.mpf(0)
        for _ in range(300):
            sp = x + mpmath.log1p(mpmath.exp(-x)) if x > 0 else mpmath.log1p(mpmath.exp(x))
            step = (a * x + b * sp - t) / (a + b / (1 + mpmath.exp(-x)))
            x -= step
            if abs(step) <= mpmath.mpf(10) ** -45 * (1 + abs(x)):
                return x
    raise AssertionError(f"no root of {line} at p={p}")


def exact_dirac_energy(ch, xi):
    """E/m of the oracle's Dirac line with the exact connection ratio."""
    with mpmath.workdps(50):
        return float(-ch.tau * mpmath.tanh(exact_root(*orc._dirac_line(ch, xi)) / 2))


def exact_ac_energy(gamma, xi):
    """E/m of the oracle's neutral-fermion line with the exact ratio."""
    with mpmath.workdps(50):
        return float(-mpmath.exp(exact_root(*orc._ac_line(gamma, xi))))


def top_level_parse_args(argv) -> cli.RunSpec:
    """``cli.parse_args`` with every parse, the config file's re-parses
    included, through argparse's full top-level pass: it hands a command's
    tokens on to the command's sub-parser and reports the tokens that
    sub-parser leaves."""

    def full_pass(argv):
        return vars(cli._build_parser()[0].parse_args(argv))

    with mock.patch.object(cli, "_parse", full_pass):
        return cli.parse_args(argv)
