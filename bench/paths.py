"""Where the checkout is, and the environment every child process gets."""

from __future__ import annotations

import os
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def child_env() -> dict:
    """The parent's environment with every PYTHON* variable replaced by an
    absolute ``PYTHONPATH`` to this checkout's ``src``, so children find the
    package from any working directory and never an inherited relative path.

    numpy's huge-page advice for large arrays is turned off.  Where the
    kernel grants huge pages only on advice, whether it can find them depends
    on how fragmented the host's memory is at the moment.  On the host this
    was sized on, the m = 20 design ops of three in ten design_exact runs took
    about 180 ms instead of 250-290 ms, with a peak RSS of 80.5 MB instead of
    76.7 MB (the 2 MiB rounding huge pages leave), and the ten runs spread by
    0.3.  Without the advice every run gets ordinary pages."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    env["NUMPY_MADVISE_HUGEPAGE"] = "0"
    return env
