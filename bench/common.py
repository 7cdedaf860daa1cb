"""Paths of the checkout, the thread pin, and the import of ``retsym`` from ``src/``.

The benchmark runs the package from the checkout it lives in, never from an
installed copy, so each entry script calls :func:`prepare` before it imports
numpy or retsym.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# The load is one process on one core: numeric libraries get one thread each.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def prepare() -> None:
    """Pin numeric threads to 1 and make ``import retsym`` load ``src/retsym``.

    Exits with an error message (status 1) when the checkout has no
    ``src/retsym`` package, so the benchmark never measures some other copy
    of the program.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    package = SRC / "retsym"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"bench: no package at {package}; run from the root of a checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import retsym

    if Path(retsym.__file__).resolve().parent != package:
        raise SystemExit(f"bench: imported retsym from {retsym.__file__}, expected {package}")
