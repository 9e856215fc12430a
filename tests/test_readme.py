"""README's library quick start runs as printed, so a moved or renamed
export fails here instead of breaking the docs."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start() -> str:
    section = README.read_text().split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_quick_start_runs():
    names = {}
    exec(quick_start(), names)
    level, check = names["level"], names["check"]
    # the values its comments state
    assert level.E == pytest.approx(-0.56600199969, abs=5e-12)
    assert abs(check.E - level.E) == pytest.approx(2.1e-10, rel=0.05)
