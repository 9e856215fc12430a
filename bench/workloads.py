"""The benchmark's three workloads: seeded inputs, one request, one gate.

Each workload is a closed loop with one client: the next request starts when
the previous one has returned.  A request belongs to the Dirac/Aharonov-Bohm
sector ("ab") or to the neutral-fermion/Aharonov-Casher sector ("ac"); the
end-to-end metrics are split by sector.  Requests reach fluxbound only
through module attributes (``self.orc.dirac_shoot``), so the layer tracer's
wrappers see every call.

* ``xval-batch`` - batch cross-validation over the oracle-equivalence (A3)
  region: analytic level, then the shooting oracle with diagnostics off.
* ``oracle-check`` - the interactive ``oracle-check`` command through
  ``cli.main``, diagnostics on, two Dirac checks per AC check.
* ``tables`` - analytic front-end tables: four CLI table commands and two
  library tables (continuum and AC bound profiles on an r-grid).  The oracle
  does no work here.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from dataclasses import dataclass

import reference as ref

WORKLOADS = ("xval-batch", "oracle-check", "tables")

# A3 default-settings bound on |E_oracle - E_analytic| / m
ORACLE_TOL = 1e-5
# channels per sector in the oracle workloads; a run uses a prefix
CHANNELS = 128
# table variants per kind; the loop cycles through them, so every variant
# repeats and its bytes are compared with the first pass
TABLE_VARIANTS = 16
# rows per table checked against mpmath on the first pass
SAMPLED_ROWS = 2
# grid sizes, chosen so that each table kind takes a similar share of the time
SIZES = {
    "ab-sweep": 400,
    "ab-density": 3000,
    "ab-wavefunction": 100,
    "continuum": 360,
    "ac-sweep": 2000,
    "ac-wavefunction": 900,
}


@dataclass(frozen=True)
class Request:
    kind: str
    sector: str
    args: tuple


@dataclass(frozen=True)
class Outcome:
    """Result of one request: comparable output bytes, the gate's verdict,
    and |E_oracle - E_analytic| where the request ran the oracle."""

    output: bytes
    ok: bool
    abs_err: float = 0.0
    order_unavailable: bool = False


class _Stdout:
    """Minimal text stream with a binary ``buffer``, as ``cli.run`` writes to."""

    def __init__(self) -> None:
        self.buffer = io.BytesIO()

    def write(self, text: str) -> int:
        return self.buffer.write(text.encode())

    def flush(self) -> None:
        pass


def _radical_inverse(i: int, base: int) -> float:
    f, r = 1.0, 0.0
    while i:
        f /= base
        r += f * (i % base)
        i //= base
    return r


def _channels(rng: random.Random, n: int) -> list[tuple[float, float]]:
    """n points on the unit square: the Halton sequence (bases 2, 3) shifted
    by a seeded offset modulo 1.  Every prefix covers the square evenly, so
    a run covers the region whatever the machine speed cuts it at."""
    su, sv = rng.random(), rng.random()
    return [
        ((_radical_inverse(i, 2) + su) % 1.0, (_radical_inverse(i, 3) + sv) % 1.0)
        for i in range(1, n + 1)
    ]


def _dirac_point(u: float, v: float) -> tuple[float, float]:
    """(beta, xi): beta on [0.1,0.4] U [0.6,0.9], ln|xi| uniform on [ln 0.2, ln 5]."""
    x = 0.6 * u
    beta = 0.1 + x if x < 0.3 else 0.6 + (x - 0.3)
    xi = -math.exp(math.log(0.2) + v * (math.log(5.0) - math.log(0.2)))
    return beta, xi


def _ac_point(u: float, v: float) -> tuple[float, float]:
    """(gamma, xi): gamma on [0.25, 0.85], |xi| on [0.8, 5]."""
    return 0.25 + 0.6 * u, -(0.8 + 4.2 * v)


def _grid(lo: float, hi: float, n: int) -> list[float]:
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def _rows_bytes(rows) -> bytes:
    return "".join(",".join(repr(v) for v in row) + "\n" for row in rows).encode()


def _parse_csv(data: bytes) -> tuple[list[str], list[list[float]]]:
    lines = data.decode().splitlines()
    return lines[0].split(","), [[float(c) for c in line.split(",")] for line in lines[1:]]


class Workload:
    """Inputs of one workload for one seed, bound to fluxbound's modules."""

    def __init__(self, name: str, seed: int, modules: dict) -> None:
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}")
        self.name = name
        self.seed = seed
        self.nk = modules["numkernel"]
        self.ab = modules["ab_spectrum"]
        self.ac = modules["ac_spectrum"]
        self.orc = modules["oracle"]
        self.cli = modules["cli"]
        self.shoot_cfg = self.orc.ShootingConfig(diagnostics=False)
        rng = random.Random(f"{name}:{seed}")
        self.requests = getattr(self, "_make_" + name.replace("-", "_"))(rng)
        self._first: dict[int, bytes] = {}

    # -- inputs --------------------------------------------------------------

    def _make_xval_batch(self, rng: random.Random) -> list[Request]:
        dirac = [_dirac_point(u, v) for u, v in _channels(rng, CHANNELS)]
        ac = [_ac_point(u, v) for u, v in _channels(rng, CHANNELS)]
        out = []
        for d, a in zip(dirac, ac):
            out.append(Request("dirac-level", "ab", d))
            out.append(Request("ac-level", "ac", a))
        return out

    def _make_oracle_check(self, rng: random.Random) -> list[Request]:
        dirac = [_dirac_point(u, v) for u, v in _channels(rng, CHANNELS)]
        ac = [_ac_point(u, v) for u, v in _channels(rng, CHANNELS // 2)]
        out = []
        for i, (g, xi) in enumerate(ac):
            for beta, dxi in dirac[2 * i : 2 * i + 2]:
                argv = ("oracle-check", "--mu", repr(beta), f"--xi={dxi!r}")
                out.append(Request("oracle-check", "ab", argv))
            argv = ("oracle-check", "--sector", "ac", "--gamma", repr(g), f"--xi={xi!r}")
            out.append(Request("oracle-check", "ac", argv))
        return out

    def _make_tables(self, rng: random.Random) -> list[Request]:
        out = []
        for _ in range(TABLE_VARIANTS):
            beta, xi = _dirac_point(rng.random(), rng.random())
            g, axi = _ac_point(rng.random(), rng.random())
            band = (0.05, 0.45) if rng.random() < 0.5 else (0.55, 0.95)
            b_lo = rng.uniform(band[0], band[0] + 0.1)
            b_hi = rng.uniform(band[1] - 0.1, band[1])
            e_lo, e_hi = rng.uniform(1.01, 2.0), rng.uniform(5.0, 20.0)
            if rng.random() < 0.5:
                e_lo, e_hi = -e_hi, -e_lo
            r_lo, r_hi = rng.uniform(0.01, 0.1), rng.uniform(5.0, 15.0)
            g_lo, g_hi = rng.uniform(0.05, 0.3), rng.uniform(0.7, 0.95)
            e_cont = rng.uniform(1.05, 4.0) * (1 if rng.random() < 0.5 else -1)
            n = SIZES
            out += [
                Request("ab-sweep", "ab", (
                    "ab-sweep", "--beta-grid", f"{b_lo!r}:{b_hi!r}:{n['ab-sweep']}", f"--xi={xi!r}")),
                Request("ab-density", "ab", (
                    "ab-density", "--mu", repr(beta), f"--xi={xi!r}",
                    f"--energy-grid={e_lo!r}:{e_hi!r}:{n['ab-density']}")),
                Request("ab-wavefunction", "ab", (
                    "ab-wavefunction", "--mu", repr(beta), f"--xi={xi!r}",
                    "--r-grid", f"{r_lo!r}:{r_hi!r}:{n['ab-wavefunction']}")),
                Request("continuum", "ab", (beta, xi, e_cont, r_lo, r_hi, n["continuum"])),
                Request("ac-sweep", "ac", (
                    "ac-sweep", "--gamma-grid", f"{g_lo!r}:{g_hi!r}:{n['ac-sweep']}", f"--xi={axi!r}")),
                Request("ac-wavefunction", "ac", (g, axi, r_lo, r_hi, n["ac-wavefunction"])),
            ]
        return out

    def warm_caches(self) -> None:
        """Fill the Gauss-Legendre node cache for every order the Bessel J
        integral path can ask for on these inputs (z up to k * r_max)."""
        z_max = 0.0
        for req in self.requests:
            if req.kind == "continuum":
                _, _, e, _, r_hi, _ = req.args
                z_max = max(z_max, math.sqrt(e * e - 1.0) * r_hi)
        z = 10.5
        while z < z_max + 2.0:
            self.nk.bessel_j(0.5, z)
            z += 0.5

    # -- execution -------------------------------------------------------------

    def execute(self, req: Request):
        """Run one request; the raw result goes to ``check``."""
        ab, ac, orc = self.ab, self.ac, self.orc
        if req.kind == "dirac-level":
            beta, xi = req.args
            ch = ab.DiracChannel(m=1.0, l=0, s=-1, mu=beta)
            ext = ab.Extension.from_xi(xi)
            level = ab.solve_bound_energy(ch, ext)
            return level, orc.dirac_shoot(ch, ext, self.shoot_cfg)
        if req.kind == "ac-level":
            g, xi = req.args
            ch = ac.ACChannel(m=1.0, coupling=-g, l=0, zeta=1)
            ext = ab.Extension.from_xi(xi)
            level = ac.ac_bound_energy(ch, ext)
            return level, orc.schrodinger_shoot(ch, ext, self.shoot_cfg)
        if req.kind == "continuum":
            beta, xi, e, r_lo, r_hi, n = req.args
            ch = ab.DiracChannel(m=1.0, l=0, s=-1, mu=beta)
            doublet = ab.continuum_doublet(ch, ab.Extension.from_xi(xi), e)
            return [(r, *doublet(r)) for r in _grid(r_lo, r_hi, n)]
        if req.kind == "ac-wavefunction":
            g, xi, r_lo, r_hi, n = req.args
            ch = ac.ACChannel(m=1.0, coupling=-g, l=0, zeta=1)
            doublet = ac.ac_wavefunction(ac.ac_bound_energy(ch, ab.Extension.from_xi(xi)))
            return [(r, doublet(r)[0]) for r in _grid(r_lo, r_hi, n)]
        stdout = _Stdout()
        with contextlib.redirect_stdout(stdout):
            code = self.cli.main(list(req.args))
        return code, stdout.buffer.getvalue()

    # -- correctness gate ------------------------------------------------------

    def check(self, index: int, req: Request, result) -> Outcome:
        """Gate one request's result.  Tables must repeat byte for byte."""
        if req.kind in ("dirac-level", "ac-level"):
            level, shot = result
            if level is None or shot is None:
                return Outcome(repr(result).encode(), False)
            e_an = level.E if req.kind == "dirac-level" else level.E_n
            err = abs(shot.E - e_an)
            return Outcome(repr((e_an, shot.E)).encode(), err <= ORACLE_TOL, err)
        if req.kind == "oracle-check":
            code, data = result
            if code != 0:
                return Outcome(data, False)
            header, rows = _parse_csv(data)
            if len(rows) != 1:
                return Outcome(data, False)
            row = dict(zip(header, rows[0]))
            # nan is the oracle's marker for an order estimate whose ladder
            # differences sit at the 1e-15 floor; it is counted, not failed
            order = row.pop("convergence_order")
            if not all(math.isfinite(v) for v in row.values()) or math.isinf(order):
                return Outcome(data, False)
            err = abs(row["E_oracle_over_m"] - row["E_analytic_over_m"])
            ok = err <= ORACLE_TOL and row["abs_diff_over_m"] <= ORACLE_TOL
            return Outcome(data, ok, err, math.isnan(order))
        # tables
        if req.kind in ("continuum", "ac-wavefunction"):
            rows, data = result, _rows_bytes(result)
        else:
            code, data = result
            if code != 0:
                return Outcome(data, False)
            rows = _parse_csv(data)[1]
        key = index % len(self.requests)
        first = self._first.get(key)
        if first is not None:
            return Outcome(data, data == first)
        self._first[key] = data
        ok = bool(rows) and all(math.isfinite(v) for row in rows for v in row)
        if ok:
            rng = random.Random(f"rows:{self.seed}:{key}")
            ok = all(self._reference_row(req, row) for row in rng.sample(rows, SAMPLED_ROWS))
        return Outcome(data, ok)

    def _reference_row(self, req: Request, row) -> bool:
        """One table row against its mpmath closed form."""
        a = req.args
        if req.kind == "ab-sweep":
            nu, tau, xi, e = row[4], int(row[5]), row[6], row[7]
            return ref.close(xi, ref.dirac_xi(nu, tau, e))
        if req.kind == "ab-density":
            beta, xi = float(a[2]), float(a[3].split("=", 1)[1])
            return ref.close(row[1], ref.dirac_density(abs(beta - 0.5), -1, xi, row[0]))
        if req.kind == "ab-wavefunction":
            beta, xi = float(a[2]), float(a[3].split("=", 1)[1])
            tau = 1 if beta < 0.5 else -1
            e = ref.dirac_level(abs(beta - 0.5), tau, xi)
            f1, f2 = ref.dirac_bound_profile(beta, -1, e, row[0])
            return ref.close(row[1], f1) and ref.close(row[2], f2)
        if req.kind == "ac-sweep":
            xi = float(a[3].split("=", 1)[1])
            return ref.close(row[5], ref.ac_level(row[0], xi))
        if req.kind == "ac-wavefunction":
            g, xi = a[0], a[1]
            return ref.close(row[1], ref.ac_profile(g, ref.ac_level(g, xi), row[0]))
        return True  # continuum rows: finite and repeatable only
