"""Let the CLI processes the tests start import the package under test.

pytest's ``pythonpath`` setting reaches only the test process itself, so the
source root of the imported package is exported to child processes too.
"""

import os
from pathlib import Path

import fluxbound

_SRC = str(Path(fluxbound.__file__).resolve().parents[1])
_INHERITED = os.environ.get("PYTHONPATH")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, _INHERITED)))
