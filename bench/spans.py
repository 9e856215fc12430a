"""Outside-in layer tracing: wraps the public functions of fluxbound's modules.

Every call between fluxbound's modules goes through a module attribute
(``nk.bessel_k``, ``ab.solve_bound_energy``, ``orc.dirac_shoot``), and calls
inside a module resolve through the same module globals, so replacing the
attribute with a timing wrapper catches every call without touching the
program.  Spans are aggregated in memory (count, inclusive and self seconds);
a layer's self time is its spans' time not covered by child spans.

Three kinds of wrapper carry extra counters:

* callables handed to ``find_root_bracketed`` and ``integrate_semiline`` run
  as callback spans of the calling layer, so a shoot's mismatch integrations
  count as oracle time, not as root-finder time, and each evaluation is
  counted;
* ``find_root_bracketed`` under a shoot span is the oracle's refinement;
* ``integrate_semiline`` adds its ``QuadratureResult.evaluations``.

``RadialDoublet.__call__`` is wrapped as well: bound and continuum doublets
are lazy evaluators, and their Bessel work happens when a table evaluates
them, after the constructor's span has closed.
"""

from __future__ import annotations

import inspect
from collections import Counter, defaultdict
from time import perf_counter

SHOOTS = ("oracle.dirac_shoot", "oracle.schrodinger_shoot")

# counters reported per request from the first requests of a run; they
# repeat exactly between runs of one seed
COUNTERS = (
    "numkernel.gamma_fn.calls",
    "numkernel.bessel_k.calls",
    "numkernel.bessel_j.calls",
    "numkernel.root_evals",
    "numkernel.quad_evals",
    "oracle.refine_evals",
    "oracle.shoots",
    "oracle.levels_found",
)


class Tracer:
    """Context manager that installs the wrappers and removes them on exit.

    ``modules`` maps a layer name to its module; the layer names prefix the
    span names (``numkernel.bessel_k``).
    """

    def __init__(self, modules: dict) -> None:
        self.modules = modules
        self.calls: Counter = Counter()
        self.seconds: defaultdict = defaultdict(float)
        self.self_seconds: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.refine_seconds = 0.0
        self._stack: list[list] = []  # [layer, seconds covered by children]
        self._shoot_depth = 0
        self._originals: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def __enter__(self) -> "Tracer":
        try:
            for layer, mod in self.modules.items():
                for name in mod.__all__:
                    fn = getattr(mod, name)
                    if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                        self._replace(mod, name, self._wrapper(f"{layer}.{name}", layer, fn))
            doublet = self.modules["ab_spectrum"].RadialDoublet
            self._replace(doublet, "__call__", self._doublet_wrapper(doublet.__call__))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _replace(self, owner, name: str, wrapper) -> None:
        self._originals.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def restore(self) -> None:
        while self._originals:
            owner, name, original = self._originals.pop()
            setattr(owner, name, original)

    # -- spans ---------------------------------------------------------------

    def _run(self, name: str, layer: str, fn, args, kwargs):
        stack = self._stack
        frame = [layer, 0.0]
        stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            stack.pop()
            self.calls[name] += 1
            self.seconds[name] += dt
            self.self_seconds[layer] += dt - frame[1]
            if stack:
                stack[-1][1] += dt

    def _caller_layer(self) -> str:
        return self._stack[-1][0] if self._stack else "bench"

    def _callback(self, fn, counter: str):
        """``fn`` as a span of the calling layer that counts into ``counter``."""
        layer = self._caller_layer()
        name = f"{layer}.callback"
        counts = self.counts

        def callback(*args, **kwargs):
            counts[counter] += 1
            return self._run(name, layer, fn, args, kwargs)

        return callback

    def _wrapper(self, name: str, layer: str, fn):
        if name == "numkernel.find_root_bracketed":

            def wrapper(f, *args, **kwargs):
                before = self.counts["numkernel.root_evals"]
                in_shoot = self._shoot_depth > 0
                t0 = perf_counter()
                try:
                    g = self._callback(f, "numkernel.root_evals")
                    return self._run(name, layer, fn, (g, *args), kwargs)
                finally:
                    if in_shoot:
                        self.refine_seconds += perf_counter() - t0
                        self.counts["oracle.refine_evals"] += (
                            self.counts["numkernel.root_evals"] - before
                        )

        elif name == "numkernel.integrate_semiline":

            def wrapper(f, *args, **kwargs):
                g = self._callback(f, "numkernel.quad_integrand_evals")
                result = self._run(name, layer, fn, (g, *args), kwargs)
                self.counts["numkernel.quad_evals"] += result.evaluations
                return result

        elif name in SHOOTS:

            def wrapper(*args, **kwargs):
                self._shoot_depth += 1
                try:
                    result = self._run(name, layer, fn, args, kwargs)
                finally:
                    self._shoot_depth -= 1
                self.counts["oracle.shoots"] += 1
                self.counts["oracle.levels_found"] += result is not None
                return result

        else:

            def wrapper(*args, **kwargs):
                return self._run(name, layer, fn, args, kwargs)

        return wrapper

    def _doublet_wrapper(self, call):
        def wrapper(doublet, r):
            layer = doublet.evaluator.__module__.rpartition(".")[2]
            return self._run(f"{layer}.doublet_eval", layer, call, (doublet, r), {})

        return wrapper

    # -- results -------------------------------------------------------------

    def counter_snapshot(self) -> dict[str, int]:
        """Current values of the exact-repeat counters."""
        return {
            name: self.calls[name[: -len(".calls")]] if name.endswith(".calls") else self.counts[name]
            for name in COUNTERS
        }
