"""Paths, child-process environment and order statistics shared by the benchmark scripts.

Importing this module does not import toricstab, so the parent process
that only launches and times children stays free of the program.
"""

from __future__ import annotations

import os
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFS = HERE / "refs"
OUT = HERE / "out"

WORKLOADS = ("cli-corpus", "ladder", "lattice-oracle", "limits-faces")
LAYERS = ("cli", "corpus", "stability", "exactgeom", "moments", "optimizer", "limits")

# The tail is the highest percentile with at least this many samples beyond it.
TAIL_BEYOND = 10
MIN_SAMPLES = TAIL_BEYOND + 1


class NoProgram(RuntimeError):
    """The checkout holds no toricstab source tree to measure."""


def require_program() -> None:
    if not (SRC / "toricstab" / "__init__.py").is_file():
        raise NoProgram(f"no toricstab sources under {SRC}")


def use_program() -> None:
    """Make `import toricstab` load the checkout's sources."""
    require_program()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict[str, str]:
    """Environment of every process the benchmark starts.

    The checkout's sources come first on the import path, and numpy's BLAS
    pool is held to one thread so the load stays within two threads.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def tail(samples) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it."""
    xs = sorted(samples)
    k = len(xs) - MIN_SAMPLES
    if k < 0:
        raise ValueError(f"need at least {MIN_SAMPLES} samples, got {len(xs)}")
    return xs[k], 100.0 * (k + 1) / len(xs)


def median(xs) -> float:
    return statistics.median(xs)
