"""The environment a result was measured in, read without importing pmelab."""

from __future__ import annotations

import os
import platform
import re
import sys
from importlib import metadata

BLAS_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _git_commit(root: str):
    """HEAD of the checkout when it is a git work tree, else ``None``."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.isfile(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _package_version(name: str):
    try:
        return metadata.version(name)
    except metadata.PackageNotFoundError:
        return None


def _pmelab_version(root: str):
    try:
        with open(os.path.join(root, "src", "pmelab", "__init__.py"), encoding="utf-8") as fh:
            found = re.search(r'^__version__ = "([^"]+)"', fh.read(), re.M)
    except OSError:
        return None
    return found.group(1) if found else None


def _cpu() -> dict:
    """CPU model and cache size from ``/proc/cpuinfo`` (read only)."""
    info = {"model": None, "cache": None}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                key = key.strip()
                if key == "model name" and info["model"] is None:
                    info["model"] = value.strip()
                elif key == "cache size" and info["cache"] is None:
                    info["cache"] = value.strip()
    except OSError:
        pass
    return info


def environment(root: str) -> dict:
    return {
        "git_commit": _git_commit(root),
        "pmelab": _pmelab_version(root),
        "python": platform.python_version(),
        "numpy": _package_version("numpy"),
        "scipy": _package_version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu": _cpu(),
        "blas_env": {k: os.environ.get(k) for k in BLAS_VARS},
        "executable": os.path.basename(sys.executable),
    }
