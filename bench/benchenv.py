"""Source location and environment record for the benchmark.

Imports nothing from reyex, so the entry points can check that the package
source is present before importing it.
"""

import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

def require_source():
    """Put the checkout's src/ first on sys.path, or exit 2 if it is absent.

    The benchmark must measure the source next to it, never an installed
    copy of reyex.  Native libraries are held to one thread, because the
    load is a single closed-loop batch user.
    """
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    if not (SRC / "reyex" / "__init__.py").is_file():
        sys.stderr.write("bench: no reyex source at %s\n" % (SRC,))
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))


def source_digest():
    """sha256 over the package's .py files, identifying the measured code
    where no git metadata is available."""
    h = hashlib.sha256()
    for path in sorted((SRC / "reyex").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _git_commit():
    """HEAD of the checkout, or None when the checkout is not itself the top
    of a git work tree (an exported copy, even inside another repository)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def environment():
    """Interpreter, arithmetic backends and machine facts every result carries."""
    import mpmath
    import numpy
    import scipy
    from reyex.rationals import mpq

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "mpq": "%s.%s" % (mpq.__module__, mpq.__qualname__),
        "mpmath_backend": mpmath.libmp.BACKEND,
        "mpmath": mpmath.__version__,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "commit": _git_commit(),
        "source_sha256": source_digest(),
    }
