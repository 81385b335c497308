"""Process set-up shared by the benchmark and its cloud-node launcher.

Import this before numpy: BLAS and OpenMP read their thread counts once,
when numpy loads them.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"


def pin_threads() -> None:
    """One BLAS/OpenMP thread, for this process and every child it starts:
    multi-threaded BLAS stalls the small matvecs unpredictably."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_program() -> None:
    """Puts the checkout's own sources first on the path, so the benchmark
    measures the code next to it and never an installed copy."""
    package = SRC / "yolovehicle"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no program sources at {package}")
    sys.path.insert(1, str(SRC))
    import yolovehicle
    if Path(yolovehicle.__file__).resolve().parent != package:
        sys.exit(f"perfbench: imported yolovehicle from {yolovehicle.__file__}, "
                 f"not from {package}")
