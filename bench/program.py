"""Import the nbsmell sources of the checkout this benchmark lives in.

The benchmark measures the code next to it, never an installed copy, so
``src/`` of the enclosing checkout goes first on ``sys.path``.  Importing
this module raises ``ImportError`` when those sources are missing.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if not (SRC / "nbsmell" / "__init__.py").is_file():
    raise ImportError(f"nbsmell sources not found under {SRC}")
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import nbsmell as nb  # noqa: E402

if Path(nb.__file__).resolve().parent != SRC / "nbsmell":
    raise ImportError(f"imported nbsmell from {nb.__file__}, not from {SRC}")
