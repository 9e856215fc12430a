"""The benchmark's own tests: tracing changes no result, counters repeat
exactly, wrappers come off, the gate rejects wrong results, and the script
refuses to run without the package.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from spans import Tracer
from workloads import Request

BENCH = Path(__file__).resolve().parent


def _one_round(workload: str, seed: int, traced: bool):
    modules, wl = run.setup(workload, seed)
    n = run.ROUND[workload]
    if not traced:
        return [s.outcome for s in run.measure(wl, 0.0, n)], None
    tracer = Tracer(modules)
    with tracer:
        samples = run.measure(wl, 0.0, n)
    return [s.outcome for s in samples], tracer.counter_snapshot()


@pytest.mark.parametrize("workload", ["tables", "xval-batch"])
def test_traced_and_untraced_runs_give_identical_results(workload):
    plain, _ = _one_round(workload, 5, traced=False)
    traced, _ = _one_round(workload, 5, traced=True)
    assert all(o.ok for o in plain + traced)
    assert [o.output for o in plain] == [o.output for o in traced]


@pytest.mark.parametrize("workload", ["tables", "xval-batch"])
def test_counters_repeat_exactly_between_traced_runs(workload):
    _, first = _one_round(workload, 6, traced=True)
    _, second = _one_round(workload, 6, traced=True)
    assert first == second
    assert first["numkernel.gamma_fn.calls"] > 0 and first["numkernel.root_evals"] > 0


def test_wrappers_are_removed_after_tracing():
    modules, wl = run.setup("tables", 7)

    def attributes():
        return {
            (layer, name): getattr(mod, name) for layer, mod in modules.items() for name in mod.__all__
        } | {("ab_spectrum", "__call__"): modules["ab_spectrum"].RadialDoublet.__call__}

    before = attributes()
    tracer = Tracer(modules)
    with pytest.raises(RuntimeError):
        with tracer:
            assert modules["numkernel"].bessel_k is not before[("numkernel", "bessel_k")]
            run.measure(wl, 0.0, 1)
            raise RuntimeError("leave the traced block early")
    after = attributes()
    assert all(after[key] is before[key] for key in before)
    assert tracer.calls["cli.main"] == 4  # one round: four CLI tables, two library tables


def test_gate_rejects_wrong_results():
    modules, wl = run.setup("xval-batch", 8)
    req = wl.requests[0]
    level, shot = wl.execute(req)
    assert wl.check(0, req, (level, shot)).ok
    off = type(shot)(shot.E + 2e-5, shot.match_residual, shot.convergence_order_estimate, shot.r_min_sensitivity)
    assert not wl.check(0, req, (level, off)).ok
    assert not wl.check(0, req, (level, None)).ok

    _, tables = run.setup("tables", 8)
    sweep = tables.requests[0]
    code, data = tables.execute(sweep)
    assert tables.check(0, sweep, (code, data)).ok
    assert not tables.check(len(tables.requests), sweep, (code, data.replace(b"1", b"2", 1))).ok
    wrong = Request("ab-density", "ab", tables.requests[1].args)
    code, data = tables.execute(wrong)
    lines = data.decode().splitlines()
    lines[1:] = [f"{row.split(',')[0]},{float(row.split(',')[1]) * 1.001!r}" for row in lines[1:]]
    assert not tables.check(1, wrong, (code, ("\n".join(lines) + "\n").encode())).ok


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "tables", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
