"""Command-line front end: solves, sweeps, density scans, oracle checks.

Each command's contract is one row of ``_COMMANDS``: its help text, the
flags it reads besides the common ones, and its grid flag.  Other flags are
unknown, but argparse expands a unique prefix (``ac-sweep --gamma 0.5``
gives ``0.5`` to ``--gamma-grid``).  A command's argv is parsed by its own
sub-parser, the top-level parser only argv that does not start with a
command name (no command, an unknown one, ``--help``/``-h``, a leading
``--``), with the result, message and exit code of argparse's full
top-level pass.  A flat ``key = value`` config file (# comments) can
prefill any flag the command reads; each value passes that flag's type and
choices checks, and explicit flags win.

``parse_args`` then makes every usage check, in this order: one of
``--xi``/``--theta``; a mass whose square is a finite normal float; finite
``--mu``, ``--gamma``, ``--coupling``; ``--l`` within 2**53; the extension
(a NaN ``--xi`` or a ``--theta`` outside [0, 2pi), named by its flag); the
channel flag the command needs; the grid ``lo:hi:n`` (2 to 100000 points,
finite increasing bounds, no overflowing width or step product); the
``ab-wavefunction`` radius ``hi/mass``.  A failure exits 2 with one JSON
line ``{"error", "kind"}`` of kind "usage" on stderr.  What passes only
computes, and its errors are of kind "domain": critical or regular
channels, a neutral-fermion level beyond the double range, an
``ab-wavefunction`` level whose lambda underflows to 0.  Exit 1 is an
internal failure.  The oracle has no step and no length but the tail decay
length 1/k, so ``--resolution`` and ``--r-min`` are unknown flags; it
reaches every level of the double range, and ``oracle-check`` prints its
header alone where either route has no level.

The extension is the paper's xi, given by ``--xi`` and kept exactly, or by
``--theta``, converted once by ``Extension.from_theta``; ``--xi -inf`` names
the same extension as ``--xi inf``.  The ``xi`` column prints the stored xi.

Tables are CSV (17 significant digits, '\\n' line endings) or JSON, and
byte-identical for identical inputs.  Rows hold NaN only in the level
columns of a row without a level (sweeps, printed level-equation variants)
and in ``oracle-check``'s ``convergence_order``: the oracle sums two series
at one matching radius, with no step to refine, so no order can be read.
``error_bound_over_m`` is its bound on |E_oracle - E| (``OracleResult``).
The ``xi`` column holds ``inf`` for the theta = pi extension, whose rows
have no level.  JSON has no NaN or infinity and writes such cells as null.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

from . import ab_spectrum as ab
from . import ac_spectrum as ac
from . import numkernel as nk
from . import oracle as orc
from . import printed

__all__ = ["main", "parse_args", "run", "emit_table", "RunSpec"]

_SWEEP_COLUMNS = ("beta", "l", "s", "mu", "nu", "tau", "xi", "E_over_m", "lambda_over_m", "residual")
_DENSITY_COLUMNS = ("E_over_m", "density")
_WAVEFUNCTION_COLUMNS = ("r_times_m", "f1", "f2")
_AC_COLUMNS = ("gamma", "l", "zeta", "coupling", "xi", "E_over_m", "kappa_over_m", "residual")
_ORACLE_COLUMNS = (
    "E_analytic_over_m",
    "E_oracle_over_m",
    "abs_diff_over_m",
    "match_residual",
    "error_bound_over_m",
    "convergence_order",
)


class UsageError(ValueError):
    pass


_COMMON_FLAGS = ("--config", "--mass", "--xi", "--theta", "--format", "--output")
# command: (help, the flags it reads besides the common ones, its grid flag)
_COMMANDS = {
    "ab-solve": ("single Dirac bound level", ("--l", "--s", "--mu", "--level-eq"), None),
    "ab-sweep": ("bound level along a flux grid", ("--l", "--s", "--level-eq"), "--beta-grid"),
    "ab-density": ("continuum spectral density scan", ("--l", "--s", "--mu"), "--energy-grid"),
    "ab-wavefunction": ("normalized bound doublet table", ("--l", "--s", "--mu"), "--r-grid"),
    "ac-solve": ("single neutral-fermion level", ("--l", "--zeta", "--coupling", "--gamma"), None),
    "ac-sweep": ("levels along a gamma grid (l=0 family)", (), "--gamma-grid"),
    "oracle-check": (
        "ODE eigensolver vs analytic level",
        ("--l", "--s", "--mu", "--zeta", "--coupling", "--gamma", "--sector"),
        None,
    ),
}
# each flag's argparse keywords; a grid stays text until parse_args parses it
_FLAGS = {
    "--config": {"default": None, "help": "flat key=value config file"},
    "--mass": {"type": float, "default": 1.0},
    "--xi": {"type": float, "default": None},
    "--theta": {"type": float, "default": None},
    "--format": {"choices": ("csv", "json"), "default": "csv"},
    "--output": {"default": None, "help": "path, defaults to stdout"},
    "--l": {"type": int, "default": 0},
    "--s": {"type": int, "choices": (-1, 1), "default": -1},
    "--mu": {"type": float, "default": None},
    "--zeta": {"type": int, "choices": (-1, 1), "default": 1},
    "--coupling": {"type": float, "default": None, "help": "M*a product"},
    "--gamma": {"type": float, "default": None, "help": "shortcut: coupling=-gamma, l=0, zeta=1"},
    "--level-eq": {"choices": ("master", "wr00", "levab", "lev0lev1"), "default": "master"},
    "--sector": {"choices": ("ab", "ac"), "default": "ab"},
    "--beta-grid": {"required": True, "help": "lo:hi:n over the reduced flux"},
    "--energy-grid": {"required": True, "help": "lo:hi:n in units of m, |E|>m"},
    "--r-grid": {"required": True, "help": "lo:hi:n in units of 1/m"},
    "--gamma-grid": {"required": True, "help": "lo:hi:n over gamma"},
}


@dataclass(frozen=True)
class RunSpec:
    """Validated run request: command, typed parameters (with the built
    ``extension`` and each grid parsed to (lo, hi, n)), output destination."""

    command: str
    params: dict
    fmt: str
    out_path: Optional[str]


_MAX_GRID_POINTS = 100_000  # a table's rows are built in memory before they are written


def _parse_grid(text: str) -> tuple[float, float, int]:
    try:
        lo_s, hi_s, n_s = text.split(":")
        lo, hi, n = float(lo_s), float(hi_s), int(n_s)
    except ValueError as exc:
        raise UsageError(f"grid must be 'lo:hi:n', got {text!r}") from exc
    if n < 2:
        raise UsageError(f"grid needs at least 2 points, got {n}")
    if n > _MAX_GRID_POINTS:
        raise UsageError(f"grid takes at most {_MAX_GRID_POINTS} points, got {n}")
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise UsageError(f"grid bounds must be finite and increasing, got {text!r}")
    if not math.isfinite(hi - lo):
        raise UsageError(f"grid width hi - lo overflows, got {text!r}")
    if not math.isfinite((hi - lo) * (n - 2)):  # linear_grid's largest product
        raise UsageError(f"grid step product (hi - lo)*(n - 2) overflows, got {text!r}")
    return lo, hi, n


def _read_config(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    with fh:
        for lineno, line in enumerate(fh, 1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise UsageError(f"{path}:{lineno}: expected 'key = value'")
            key, val = (part.strip() for part in text.split("=", 1))
            values[key.replace("-", "_")] = val
    return values


class _Parser(argparse.ArgumentParser):
    """argparse with its failures raised as UsageError instead of printing
    usage text and exiting; subparsers inherit the class."""

    def error(self, message: str):
        raise UsageError(f"{self.prog}: {message}")


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and its {command: sub-parser} map, built on first
    use and kept for the process: parsing leaves them unchanged, and a
    process that calls main() many times would otherwise spend most of a
    short command building them again.  The top-level parser parses only
    argv that does not start with a command name (see ``_parse``)."""
    parser = _Parser(
        prog="fluxbound",
        description="Bound states and spectral densities in point-flux backgrounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, flags, grid) in _COMMANDS.items():
        p = sub.add_parser(command, help=text)
        for flag in (*_COMMON_FLAGS, *flags, grid):
            if flag:
                p.add_argument(flag, **_FLAGS[flag])
    return parser, sub.choices


def _parse(argv: list[str]) -> dict:
    """argv's values by flag name, with the command under "command".

    argparse's top-level pass would hand every token after the command to
    the command's sub-parser and report the tokens it leaves; a command's
    argv goes straight to that sub-parser, with the same report, which
    spares the top-level pass's scan of every token.  Any other argv (no
    command, an unknown one, --help/-h, a leading '--') takes the top-level
    pass."""
    parser, commands = _build_parser()
    sub = commands.get(argv[0]) if argv else None
    if sub is None:
        return vars(parser.parse_args(argv))
    namespace, extras = sub.parse_known_args(argv[1:])
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return {"command": argv[0], **vars(namespace)}


def parse_args(argv: Sequence[str]) -> RunSpec:
    """Parse argv into a RunSpec and run every usage check on it, in the
    order of the module docstring; config-file values are overridden by
    explicit flags.  A command's argv is parsed by that command's own
    sub-parser, and argparse's top-level parser parses only argv that does
    not start with a command name."""
    argv = _join_negative_values(argv)
    params = _parse(argv)
    config_path = params.pop("config")
    if config_path:
        # each value passes its flag's type and choices checks; config flags
        # go ahead of the explicit ones so that those win
        known = params.keys() - {"command"}
        flags: list[str] = []
        for key, raw in _read_config(config_path).items():
            if key not in known:
                continue
            flags.append(f"--{key.replace('_', '-')}={raw}")
            try:
                params = _parse([argv[0], *flags, *argv[1:]])
            except UsageError as exc:
                raise UsageError(
                    f"config file {config_path}: {key} = {raw!r}: {exc}"
                ) from None
            params.pop("config")
    if params["xi"] is not None and params["theta"] is not None:
        raise UsageError("give exactly one of --xi / --theta, not both")
    if params["xi"] is None and params["theta"] is None:
        raise UsageError("one of --xi / --theta is required")
    mass = params["mass"]
    if not (mass > 0.0 and sys.float_info.min <= mass * mass < math.inf):
        raise UsageError(
            f"--mass must be positive with mass**2 a finite normal float, got {mass!r}"
        )
    for flag in ("mu", "gamma", "coupling"):
        value = params.get(flag)
        if value is not None and not math.isfinite(value):
            raise UsageError(f"--{flag} must be finite, got {value!r}")
    # the channel index l + mu + s/2 (or l + zeta*coupling) is a double
    if "l" in params and not abs(params["l"]) <= 2**53:
        raise UsageError(f"--l must lie in [-2**53, 2**53], got {params['l']}")
    command = params.pop("command")
    theta = params["theta"]
    try:
        params["extension"] = (
            ab.Extension(params["xi"]) if theta is None else ab.Extension.from_theta(theta)
        )
    except ValueError as exc:
        raise UsageError(f"{'--xi' if theta is None else '--theta'}: {exc}") from None
    sector = params.get("sector")  # oracle-check reads one sector's channel flags
    if "mu" in params and sector != "ac" and params["mu"] is None:
        raise UsageError(f"{command}{' --sector ab' if sector else ''} needs --mu")
    if "gamma" in params and sector != "ab" and params["gamma"] is None:
        if params["coupling"] is None:
            raise UsageError("ac commands need --coupling (or --gamma)")
    grid = _COMMANDS[command][2]
    if grid:
        key = grid[2:].replace("-", "_")
        params[key] = lo, hi, n = _parse_grid(params[key])
        if grid == "--r-grid" and not hi / mass < math.inf:
            raise UsageError(f"--r-grid: the radius {hi!r}/m overflows at --mass {mass!r}")
    fmt = params.pop("format")
    out_path = params.pop("output")
    return RunSpec(command=command, params=params, fmt=fmt, out_path=out_path)


_NEGATIVE_VALUE = re.compile(r"-(\.?\d|inf)", re.IGNORECASE)


def _join_negative_values(argv: Sequence[str]) -> list[str]:
    """Rewrite '--flag -1e-3' as '--flag=-1e-3'.

    argparse takes a token that starts with '-' for a flag unless it is a
    plain negative number, so negative values in scientific notation, '-inf'
    and grids with a negative bound ('-1.5:1.5:61') would need the '=' form.
    Every long flag but --help takes one value, so a '-digit' or '-inf' token
    after one is its value.
    """
    out: list[str] = []
    for token in argv:
        prev = out[-1] if out else ""
        if (
            _NEGATIVE_VALUE.match(token)
            and prev.startswith("--")
            and "=" not in prev
            and not "--help".startswith(prev)
        ):
            out[-1] = f"{prev}={token}"
        else:
            out.append(token)
    return out


def emit_table(rows: list[tuple], columns: Sequence[str], fmt: str) -> bytes:
    """Serialize rows, each a tuple of cells in column order, to CSV (header
    + 17-significant-digit values) or JSON.

    A CSV row is one %-template applied to its cells: "%s" (str) for an int
    or str cell, "%.17g" (format(v, ".17g")) for any other.  Rows whose cells
    have the same types share one template.  JSON has no NaN or infinity, so
    a non-finite cell is written as null.
    """
    if fmt == "json":
        payload = [
            {
                col: v if isinstance(v, (int, str)) else float(v) if math.isfinite(v) else None
                for col, v in zip(columns, row)
            }
            for row in rows
        ]
        return (json.dumps(payload, indent=1, sort_keys=False) + "\n").encode()
    lines = [",".join(columns)]
    templates: dict[tuple, str] = {}
    for cells in rows:
        kinds = tuple(map(type, cells))
        template = templates.get(kinds)
        if template is None:
            template = templates[kinds] = ",".join(
                "%s" if isinstance(v, (int, str)) else "%.17g" for v in cells
            )
        lines.append(template % cells)
    return ("\n".join(lines) + "\n").encode()


def _sweep_row(ch: ab.DiracChannel, ext: ab.Extension, variant: str) -> tuple:
    """One sweep row; a channel outside the extended regime has no level and
    gives tau = 0 and NaN level columns."""
    extended = ch.regime is ab.Regime.EXTENDED
    n, beta = ch.flux_parts
    if variant == "lev0lev1":  # lev0 is printed for beta < 1/2, lev1 above
        variant = "lev0" if beta < 0.5 else "lev1"
    if not extended:
        level = None
    elif variant == "master":
        level = ab.solve_bound_energy(ch, ext)
    else:
        level = printed.printed_level(ch, ext, variant)
    head = (beta, ch.l, ch.s, ch.mu, ch.nu, ch.tau if extended else 0, ext.xi)
    if level is None:
        return (*head, math.nan, math.nan, math.nan)
    return (*head, level.E / ch.m, level.lam / ch.m, level.residual)


def _ac_row(g: float, l: int, zeta: int, coupling: float, m: float, xi: float) -> tuple:
    """One AC sweep row of the channel gamma = g = |l + zeta*coupling| with
    mass m at extension xi; a regular channel (gamma >= 1) has no level and
    gives NaN level columns."""
    level = ac._ac_level(g, m, xi)
    if level is None:
        return (g, l, zeta, coupling, xi, math.nan, math.nan, math.nan)
    E_n, kappa, residual = level
    return (g, l, zeta, coupling, xi, E_n / m, kappa / m, residual)


def _dirac_channel(params: dict) -> ab.DiracChannel:
    return ab.DiracChannel(m=params["mass"], l=params["l"], s=params["s"], mu=params["mu"])


def _ac_channel(params: dict) -> ac.ACChannel:
    mass = params["mass"]
    if params["gamma"] is not None:
        return ac.ACChannel(m=mass, coupling=-params["gamma"], l=0, zeta=1)
    return ac.ACChannel(
        m=mass, coupling=params["coupling"], l=params["l"], zeta=params["zeta"]
    )


def run(spec: RunSpec) -> int:
    """Execute a RunSpec, write the table, return the exit code."""
    try:
        rows, columns = _dispatch(spec)
    except ValueError as exc:  # parse_args made every usage check: the request is sound
        sys.stderr.write(json.dumps({"error": str(exc), "kind": "domain"}) + "\n")
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        sys.stderr.write(json.dumps({"error": str(exc), "kind": "internal"}) + "\n")
        return 1
    payload = emit_table(rows, columns, spec.fmt)
    if spec.out_path:
        with open(spec.out_path, "wb") as fh:
            fh.write(payload)
    else:
        sys.stdout.buffer.write(payload)
    return 0


def _dispatch(spec: RunSpec) -> tuple[list[tuple], Sequence[str]]:
    """The table of a RunSpec that parse_args checked: computes only."""
    params = spec.params
    ext = params["extension"]
    mass = params["mass"]

    if spec.command == "ab-solve":
        ch = _dirac_channel(params)
        if ch.regime is not ab.Regime.EXTENDED:
            raise ab.RegimeError(
                f"channel nu={ch.nu:.6g} is {ch.regime.value}: no extension family"
            )
        return [_sweep_row(ch, ext, params["level_eq"])], _SWEEP_COLUMNS

    if spec.command == "ab-sweep":
        variant = params["level_eq"]
        rows = [
            _sweep_row(ab.DiracChannel(m=mass, l=params["l"], s=params["s"], mu=beta), ext, variant)
            for beta in nk.linear_grid(*params["beta_grid"])
        ]
        return rows, _SWEEP_COLUMNS

    if spec.command == "ab-density":
        density = printed._density_on_rim(_dirac_channel(params), ext)
        rows = [(e, density(e * mass)) for e in nk.linear_grid(*params["energy_grid"])]
        return rows, _DENSITY_COLUMNS

    if spec.command == "ab-wavefunction":
        level = ab.solve_bound_energy(_dirac_channel(params), ext)
        if level is None:
            return [], _WAVEFUNCTION_COLUMNS
        doublet = ab.bound_doublet(level)
        rows = []
        for rm in nk.linear_grid(*params["r_grid"]):
            f1, f2 = doublet(rm / mass)
            rows.append((rm, f1, f2))
        return rows, _WAVEFUNCTION_COLUMNS

    if spec.command == "ac-solve":
        ch = _ac_channel(params)
        if ch.regime is ac.ACRegime.REGULAR:
            raise ab.RegimeError(
                f"channel gamma={ch.gamma:.6g} is regular: no extension family"
            )
        return [_ac_row(ch.gamma, ch.l, ch.zeta, ch.coupling, mass, ext.xi)], _AC_COLUMNS

    if spec.command == "ac-sweep":
        # the l = 0, zeta = 1 channel of coupling -g, whose gamma is |g|
        xi = ext.xi
        rows = [_ac_row(abs(g), 0, 1, -g, mass, xi) for g in nk.linear_grid(*params["gamma_grid"])]
        return rows, _AC_COLUMNS

    # oracle-check
    if params["sector"] == "ab":
        chd = _dirac_channel(params)
        level = ab.solve_bound_energy(chd, ext)
        e_an = None if level is None else level.E
        numeric = orc.dirac_shoot(chd, ext)
    else:
        cha = _ac_channel(params)
        ac_level = ac.ac_bound_energy(cha, ext)
        e_an = None if ac_level is None else ac_level.E_n
        numeric = orc.schrodinger_shoot(cha, ext)
    if e_an is None or numeric is None:
        return [], _ORACLE_COLUMNS
    return (
        [
            (
                e_an / mass,
                numeric.E / mass,
                abs(e_an - numeric.E) / mass,
                numeric.match_residual / mass,
                numeric.error_bound / mass,
                numeric.convergence_order_estimate,
            )
        ],
        _ORACLE_COLUMNS,
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    try:
        spec = parse_args(args)
    except UsageError as exc:
        sys.stderr.write(json.dumps({"error": str(exc), "kind": "usage"}) + "\n")
        return 2
    except SystemExit:  # --help printed its text
        return 0
    return run(spec)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
