"""fluxbound benchmark: seeded closed-loop workloads, gated, end to end or traced.

Run from the repository root (see bench/README.md):

    python3 bench/run.py --workload xval-batch --seed 1 --seconds 35 --trace 0

The package is imported from ``src/`` of the checkout the script sits in.
Set-up (import, cache warm-up, input generation) is repeated and its median
reported as ``setup_s``.  The loop then runs requests one at a time until
their summed time reaches ``--seconds``.  Every request passes a correctness
gate outside the timed region.  Request times are reported in units of a
calibration loop timed between requests (see ``calibrate``); the seconds are
in the summary line.  With ``--trace 1`` the loop runs under the layer
tracer and is then replayed untraced on the same requests; the replay must
give identical results, and the time difference is the tracing overhead.  The last line of stdout is one JSON object with the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import statistics
import sys
import traceback
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path[:0] = [str(BENCH_DIR), str(SRC)]

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, Outcome, Workload  # noqa: E402

LAYERS = ("numkernel", "ab_spectrum", "ac_spectrum", "oracle", "cli")
# set-ups before the loop, and again after it: a burst of host contention
# during one of the two groups cannot move the median of all of them
SETUP_REPEATS = 5
# requests in one round of each workload's request kinds (Dirac/AC pair; two
# Dirac checks and an AC check; six table kinds).  A run always ends on a
# whole round, so the mix of kinds is the same in every run, and the counters
# are read after the first round, so they repeat exactly for a seed.
ROUND = {"xval-batch": 2, "oracle-check": 3, "tables": 6}

# the calibration is re-timed when it is older than this
CAL_STALE_S = 0.25

END_TO_END = (
    ("setup_s", "s"),
    ("requests_per_cal", "1/cal"),
    ("ab_p50_cal", "cal"),
    ("ac_p50_cal", "cal"),
)
# seconds in a span per request; counts per request of the first round
PER_LAYER_SECONDS = (
    "oracle.dirac_shoot",
    "oracle.schrodinger_shoot",
    "numkernel.gamma_fn",
    "numkernel.bessel_k",
    "numkernel.bessel_j",
    "numkernel.integrate_semiline",
    "ab_spectrum.solve_bound_energy",
    "ab_spectrum.spectral_density",
    "ab_spectrum.bound_doublet",
    "ab_spectrum.continuum_doublet",
    "ab_spectrum.doublet_eval",
    "ac_spectrum.ac_bound_energy",
    "ac_spectrum.ac_wavefunction",
    "ac_spectrum.doublet_eval",
    "cli.main",
    "cli.emit_table",
)
PER_LAYER_COUNTS = (
    "numkernel.gamma_fn.calls",
    "numkernel.bessel_k.calls",
    "numkernel.bessel_j.calls",
    "numkernel.root_evals",
    "numkernel.quad_evals",
)


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in report order."""
    return (
        [
            ("oracle.scan_s", "s"),
            ("oracle.refine_s", "s"),
            ("oracle.refine_evals_per_level", "count"),
            ("oracle.levels_found_frac", "ratio"),
            ("oracle.max_abs_err", "E/m"),
        ]
        + [(f"{name}.s", "s") for name in PER_LAYER_SECONDS]
        + [(name, "count") for name in PER_LAYER_COUNTS]
        + [(f"{layer}.self_s", "s") for layer in LAYERS]
        + [("trace.overhead_frac", "ratio")]
    )


def setup(workload: str, seed: int) -> tuple[dict, Workload]:
    """Import fluxbound afresh from the checkout, generate the inputs and
    fill the package's lazy caches."""
    for name in [m for m in sys.modules if m == "fluxbound" or m.startswith("fluxbound.")]:
        del sys.modules[name]
    pkg = importlib.import_module("fluxbound")
    if Path(pkg.__file__).resolve().parent != SRC / "fluxbound":
        raise ImportError(f"fluxbound imported from {pkg.__file__}, not from {SRC}")
    modules = {layer: importlib.import_module(f"fluxbound.{layer}") for layer in LAYERS}
    wl = Workload(workload, seed, modules)
    wl.warm_caches()
    return modules, wl


@dataclass(frozen=True)
class Sample:
    sector: str
    seconds: float
    cal: float  # calibration time around the request
    outcome: Outcome

    @property
    def cals(self) -> float:
        return self.seconds / self.cal


def calibrate() -> float:
    """Seconds for a fixed pure-Python RK4 integration, median of three.

    The unit ("cal") of the end-to-end request metrics.  The host is shared,
    and bursts of contention slow all Python code on it by up to 1.6x for
    seconds to minutes.  Such a burst stretches this loop and fluxbound
    alike, so request times divided by the current calibration stay steady
    while the seconds swing.  The loop is the benchmark's own code, so a
    change to fluxbound moves only the numerator.
    """
    times = []
    for _ in range(3):
        t0 = perf_counter()
        y, v, h = 1.0, 0.0, 1e-3
        for _ in range(2000):
            a1, b1 = v, -y - 0.1 * v
            a2, b2 = v + 0.5 * h * b1, -(y + 0.5 * h * a1) - 0.1 * (v + 0.5 * h * b1)
            a3, b3 = v + 0.5 * h * b2, -(y + 0.5 * h * a2) - 0.1 * (v + 0.5 * h * b2)
            a4, b4 = v + h * b3, -(y + h * a3) - 0.1 * (v + h * b3)
            y += h / 6.0 * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
            v += h / 6.0 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def measure(wl: Workload, seconds: float, min_requests: int, at_round=None) -> list[Sample]:
    """Closed loop: run requests until their summed time reaches ``seconds``,
    at least ``min_requests`` have run and the last round is complete."""
    samples = []
    busy = 0.0
    cal, cal_at = 0.0, float("-inf")
    round_len = ROUND[wl.name]
    while busy < seconds or len(samples) < min_requests or len(samples) % round_len:
        i = len(samples)
        if perf_counter() - cal_at > CAL_STALE_S:
            cal, cal_at = calibrate(), perf_counter()
        cal_before = cal
        req = wl.requests[i % len(wl.requests)]
        t0 = perf_counter()
        try:
            result = wl.execute(req)
        except Exception:
            result = None
            traceback.print_exc()
        dt = perf_counter() - t0
        # a long request is bracketed by calibrations and takes their mean
        if perf_counter() - cal_at > CAL_STALE_S:
            cal, cal_at = calibrate(), perf_counter()
        outcome = Outcome(b"", False)
        if result is not None:
            try:
                outcome = wl.check(i, req, result)
            except Exception:
                traceback.print_exc()
        samples.append(Sample(req.sector, dt, 0.5 * (cal_before + cal), outcome))
        busy += dt
        if len(samples) == round_len and at_round is not None:
            at_round()
    return samples


def end_to_end(samples: list[Sample], round_len: int, unit: str) -> dict[str, float]:
    """Median throughput over whole rounds, and median latency per sector,
    with times in ``unit`` ("cal" or "s").

    Medians, not means: a burst of host contention slows a minority of
    rounds and requests, and would move a mean.
    """

    def t(s: Sample) -> float:
        return s.cals if unit == "cal" else s.seconds

    rounds = [samples[i : i + round_len] for i in range(0, len(samples), round_len)]
    out = {f"requests_per_{unit}": statistics.median(round_len / sum(map(t, r)) for r in rounds)}
    for sector in ("ab", "ac"):
        out[f"{sector}_p50_{unit}"] = statistics.median(t(s) for s in samples if s.sector == sector)
    return out


def per_layer(
    tracer: Tracer, round_counts: dict, round_len: int, samples: list[Sample], replay: list[Sample]
) -> dict[str, float]:
    n = len(samples)
    traced_cals = sum(s.cals for s in samples)
    replay_cals = sum(s.cals for s in replay)
    shoot_s = sum(tracer.seconds[name] for name in ("oracle.dirac_shoot", "oracle.schrodinger_shoot"))
    shoots = tracer.counts["oracle.shoots"]
    out = {
        "oracle.scan_s": (shoot_s - tracer.refine_seconds) / n,
        "oracle.refine_s": tracer.refine_seconds / n,
        "oracle.refine_evals_per_level": round_counts["oracle.refine_evals"]
        / max(1, round_counts["oracle.levels_found"]),
        "oracle.levels_found_frac": tracer.counts["oracle.levels_found"] / shoots if shoots else 0.0,
        "oracle.max_abs_err": max(s.outcome.abs_err for s in samples),
    }
    for name in PER_LAYER_SECONDS:
        out[f"{name}.s"] = tracer.seconds[name] / n
    for name in PER_LAYER_COUNTS:
        out[name] = round_counts[name] / round_len
    for layer in LAYERS:
        out[f"{layer}.self_s"] = tracer.self_seconds[layer] / n
    out["trace.overhead_frac"] = traced_cals / replay_cals - 1.0
    return out


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "fluxbound").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "absent"
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "FLUXBOUND_THREADS": os.environ.get("FLUXBOUND_THREADS", "unset"),
    }


def _git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fluxbound" / "__init__.py").is_file():
        print(f"bench: no fluxbound package under {SRC}", file=sys.stderr)
        return 2
    # the CLI's sweep pool stays at its default of one worker
    os.environ.pop("FLUXBOUND_THREADS", None)

    setup_times = []

    def timed_setup():
        t0 = perf_counter()
        result = setup(args.workload, args.seed)
        setup_times.append(perf_counter() - t0)
        return result

    for _ in range(SETUP_REPEATS):
        modules, wl = timed_setup()
    round_len = ROUND[args.workload]

    if args.trace:
        tracer = Tracer(modules)
        round_counts = {}
        with tracer:
            samples = measure(
                wl, args.seconds, round_len, lambda: round_counts.update(tracer.counter_snapshot())
            )
        replay = measure(wl, 0.0, len(samples))
        pairs = [(a.outcome, b.outcome) for a, b in zip(samples, replay)]
        mismatched = sum(a.output != b.output for a, b in pairs)
        failed = sum((not a.ok) + (not b.ok or a.output != b.output) for a, b in pairs)
        attempted = len(samples) + len(replay)
        metrics = per_layer(tracer, round_counts, round_len, samples, replay)
        units = dict(per_layer_names())
        extra = {"first_round_counts": round_counts, "replay_mismatches": mismatched}
    else:
        samples = measure(wl, args.seconds, round_len)
        failed = sum(not s.outcome.ok for s in samples)
        attempted = len(samples)
        metrics = end_to_end(samples, round_len, "cal")
        units = dict(END_TO_END)
        extra = {
            "seconds": end_to_end(samples, round_len, "s"),
            "cal_p50_s": statistics.median(s.cal for s in samples),
        }
    if not args.trace:
        for _ in range(SETUP_REPEATS):
            timed_setup()
        metrics = {"setup_s": statistics.median(setup_times), **metrics}

    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": environment(),
        "setup_runs_s": setup_times,
        "samples": {sec: sum(s.sector == sec for s in samples) for sec in ("ab", "ac")},
        "busy_s": sum(s.seconds for s in samples),
        "failed_frac": failed / attempted,
        "order_unavailable_rows": sum(s.outcome.order_unavailable for s in samples),
        **extra,
    }
    print(json.dumps(summary))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
