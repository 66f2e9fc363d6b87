"""What makes a run attributable, and the composition guard's record.

``attribution`` names the code (git commit when the checkout has one, and
always a hash of every ``.py`` file under ``src/`` and the benchmark), the
compiled backend, the host and the numeric libraries.

The composition guard keeps, per workload, run length and code hash, the
counts that must repeat exactly between runs of any seed: a later run that
differs means wall-clock time leaked into scheduling, and is marked invalid.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import platform
import sys
from pathlib import Path
from typing import Dict, Optional

import numpy as np


def code_hash(root: Path) -> str:
    """sha256 over the paths and contents of every ``.py`` file the run executes."""
    digest = hashlib.sha256()
    for top in ("src", Path(__file__).parent.name):
        for path in sorted((root / top).rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit(root: Path) -> Optional[str]:
    """HEAD's commit id read from ``.git`` inside the checkout, if there is one."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def blas_threads() -> Optional[int]:
    """Threads the loaded OpenBLAS will use, or ``None`` when it cannot be asked."""
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return None
    libraries = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for library in libraries:
        try:
            handle = ctypes.CDLL(library)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            function = getattr(handle, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return int(function())
    return None


def attribution(root: Path, seed: int) -> Dict[str, object]:
    from repro.core import compiled

    return {
        "commit": git_commit(root),
        "code_sha256": code_hash(root),
        "backend": compiled.backend(),
        "backend_error": compiled.backend_error(),
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": blas_threads(),
        "seed": seed,
        "argv": sys.argv[1:],
    }


def composition_guard(store: Path, key: str, counts: Dict[str, int]) -> Optional[str]:
    """Compare ``counts`` with the record under ``key``; record them if new.

    Returns a description of the first difference, or ``None`` when the
    counts repeat (or were recorded just now).
    """
    records = json.loads(store.read_text()) if store.exists() else {}
    previous = records.get(key)
    if previous is None:
        records[key] = counts
        store.parent.mkdir(parents=True, exist_ok=True)
        scratch = store.with_suffix(f".{os.getpid()}.tmp")
        scratch.write_text(json.dumps(records, indent=1, sort_keys=True))
        scratch.replace(store)
        return None
    for name in sorted(set(previous) | set(counts)):
        if previous.get(name) != counts.get(name):
            return f"{name} was {previous.get(name)} in an earlier run, now {counts.get(name)}"
    return None
