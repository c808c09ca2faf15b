"""The env and calibration block printed beside every result.

Copy bandwidth is measured in a child process so its large arrays never
count towards the workload's peak RSS.  The copy follows STREAM: each
array is at least four times the last-level cache, bandwidth counts one
read and one write of the array, and the best of a few repeats is kept.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

MIB = 1 << 20
#: Fallback last-level cache size when sysfs does not report one.
DEFAULT_LLC_BYTES = 105 * MIB
COPY_REPEATS = 5


def _cache_sizes() -> dict[int, int]:
    """Bytes of the largest cache at each level, from sysfs (0 if unknown)."""
    sizes: dict[int, int] = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = int((index / "level").read_text())
            kind = (index / "type").read_text().strip()
            text = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        if kind == "Instruction":
            continue
        scale = {"K": 1 << 10, "M": MIB, "G": 1 << 30}.get(text[-1:], 1)
        value = int(text.rstrip("KMG")) * scale
        sizes[level] = max(sizes.get(level, 0), value)
    return sizes


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def copy_array_bytes(quick: bool = False) -> int:
    if quick:
        return 8 * MIB
    llc = max(_cache_sizes().values(), default=0) or DEFAULT_LLC_BYTES
    return 4 * llc


def measure_copy(array_bytes: int) -> dict:
    """STREAM-style copy bandwidth in GB/s (run inside the child)."""
    import numpy as np

    n = array_bytes // 8
    src = np.ones(n)
    dst = np.zeros(n)
    best = float("inf")
    for _ in range(COPY_REPEATS):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        best = min(best, time.perf_counter() - t0)
    return {"copy_gbps": 2 * n * 8 / best / 1e9,
            "copy_array_mib": array_bytes / MIB}


def copy_bandwidth(run_py: Path, quick: bool) -> dict:
    """Run :func:`measure_copy` in a child and return its result."""
    out = subprocess.run(
        [sys.executable, str(run_py), "--calibrate-copy",
         str(copy_array_bytes(quick))],
        check=True, capture_output=True, text=True, timeout=120,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def source_hash(tree: Path) -> str:
    """blake2b over the Python sources under ``tree``: identifies the code
    under test where no git metadata is available."""
    h = hashlib.blake2b(digest_size=12)
    for path in sorted(tree.rglob("*.py")):
        h.update(str(path.relative_to(tree)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _git_sha(root: Path) -> str | None:
    """HEAD of the checkout; ``None`` when it is not a git work tree (git
    would otherwise search the directories above it)."""
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def env_block(root: Path, src: Path, bench: Path, blas_threads: int) -> dict:
    import numpy as np

    caches = _cache_sizes()
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {
        "git_sha": _git_sha(root),
        "source_hash": source_hash(src),
        "bench_hash": source_hash(bench),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_threads": blas_threads,
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "l2_bytes": caches.get(2, 0),
        "llc_bytes": max(caches.values(), default=0),
    }
