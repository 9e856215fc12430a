"""README's library quick start and command-line block run as printed, so
a moved or renamed export, command or flag fails here instead of breaking
the docs."""

import json
import re
import shlex
from pathlib import Path

import pytest

from fluxbound import cli

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
    assert check.E == level.E
    assert 0.0 < check.error_bound < 1e-14


def cli_lines() -> list[list[str]]:
    section = README.read_text().split("## Command-line interface", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.DOTALL).group(1)
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("fluxbound ")]


def documented_headers() -> set[str]:
    paragraph = README.read_text().split("Column schemas:", 1)[1].split("\n\n", 1)[0]
    return set(re.findall(r"`([A-Za-z_0-9]+(?:,[A-Za-z_0-9]+)+)`", paragraph))


def not_json(constant: str):
    # json.loads's hook for NaN, Infinity and -Infinity, which RFC 8259
    # does not allow
    raise ValueError(f"{constant} is not JSON")


def test_cli_block_runs(capsys):
    lines, documented, headers = cli_lines(), documented_headers(), set()
    for argv in lines:
        assert cli.main(argv) == 0, argv
        out, err = capsys.readouterr()
        assert err == ""
        if "--format" in argv:  # json: one object per row, keyed by column
            rows = json.loads(out, parse_constant=not_json)
            header = ",".join(rows[0])
        else:
            header, *rows = out.splitlines()
        assert rows and header in documented, (argv, header)
        headers.add(header)
    # the 7 printed lines reach every documented schema
    assert len(lines) == 7 and headers == documented
