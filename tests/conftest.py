"""Test set-up shared by every test module.

``pyproject.toml`` puts ``src`` on this interpreter's import path; the CLI
and start-up tests also run ``topograph`` in child interpreters, which
inherit ``PYTHONPATH`` instead.  Prepending ``src`` to it lets a bare
``python -m pytest`` in a checkout run them without an install.
"""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
_paths = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
if SRC not in _paths:
    os.environ["PYTHONPATH"] = os.pathsep.join([SRC, *_paths])
