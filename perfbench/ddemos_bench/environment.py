"""The stamp every result carries: machine, interpreter, crypto and source."""

from __future__ import annotations

import hashlib
import platform
import subprocess
from pathlib import Path
from typing import Dict, Optional

from ddemos_bench.workloads import nproc


def _cpu_model() -> Optional[str]:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _git_revision(root: Path) -> Optional[str]:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
            timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def _source_digest(src: Path) -> str:
    """SHA-256 over the program's sources, for checkouts that are not git repos."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _gmpy2_imports() -> bool:
    try:
        import gmpy2  # noqa: F401
    except ImportError:
        return False
    return True


def stamp(root: Path, seed: int) -> Dict[str, object]:
    from repro.api import ScenarioSpec
    from repro.crypto.registry import get_group

    backend = ScenarioSpec().crypto.backend
    return {
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "gmpy2": _gmpy2_imports(),
        "crypto_backend": backend,
        "group": type(get_group(backend)).__name__,
        "git_revision": _git_revision(root),
        "source_sha256": _source_digest(root / "src"),
        "seed": seed,
    }
