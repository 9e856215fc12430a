"""Shared test set-up.

The CLI processes the tests start import the package under test: pytest's
``pythonpath`` setting reaches only the test process itself, so the source
root of the imported package is exported to child processes too.

The ``semiline_integral`` fixture is the tests' independent numerical route
to the closed-form norms of the bound states.
"""

import math
import os
from pathlib import Path

import mpmath
import pytest

import fluxbound

_SRC = str(Path(fluxbound.__file__).resolve().parents[1])
_INHERITED = os.environ.get("PYTHONPATH")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, _INHERITED)))


def _semiline_integral(f, decay_rate=1.0, singular_exponent=0.0):
    """int_0^inf f(r) dr by mpmath.quad (tanh-sinh) over the float integrand f.

    f may carry an integrable power singularity |f(r)| ~ r^(-singular_exponent)
    at the origin, singular_exponent < 1, and must decay like
    exp(-2 decay_rate r).  The domain is truncated at R = 40/decay_rate, where
    the tail is e^-80 of the integrand's scale, and graded near the origin
    with r = R t^p, p = max(2, ceil(2.5/(1 - singular_exponent))), so the
    integrand in t vanishes like t^(p(1 - singular_exponent) - 1), at least
    t^1.5, and is regular.
    """
    big_r = 40.0 / decay_rate
    p = max(2, math.ceil(2.5 / (1.0 - singular_exponent)))

    def graded(t):
        t = float(t)
        # tanh-sinh samples t so close to 0 that r underflows to 0, or that
        # f overflows; the graded integrand there is below t^1.5 and weighs
        # nothing in double precision
        try:
            r = big_r * t**p
            return f(r) * big_r * p * t ** (p - 1) if r > 0.0 else 0.0
        except OverflowError:
            return 0.0

    with mpmath.workdps(15):
        return float(mpmath.quad(graded, [0, 1]))


@pytest.fixture
def semiline_integral():
    return _semiline_integral
