"""Host record stamped on every result, peak resident memory, and the
clean-up of the child processes a run starts.

The host record only reads: the BLAS thread count comes from the
loaded library's getter, never its setter.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import resource
import subprocess
from pathlib import Path

#: thread-count getters of the OpenBLAS builds numpy and scipy bundle
_GETTERS = ("scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads", "openblas_get_num_threads64_",
            "openblas_get_num_threads")
_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def source_digest(src: Path) -> str:
    """sha256 over every file under ``src`` (paths and bytes, sorted).

    Identifies the measured code where no git metadata exists.
    """
    h = hashlib.sha256()
    for path in sorted(p for p in src.rglob("*")
                       if p.is_file() and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def loaded_blas() -> list[dict]:
    """Every BLAS library mapped into this process, with its threads."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "/" in line})
        paths = [p for p in paths if Path(p).name.startswith("lib")
                 and "blas" in Path(p).name.lower()]
    except OSError:
        return []
    libs = []
    for path in paths:
        entry = {"library": Path(path).name, "threads": None}
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            libs.append(entry)
            continue
        for name in _GETTERS:
            getter = getattr(lib, name, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                entry["threads"] = int(getter())
                break
        libs.append(entry)
    return libs


def host_record(root: Path, seed: int, backend: str, dtype: str) -> dict:
    """Commit, seed, CPUs, BLAS and numerics of this run."""
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": _commit(root),
        "source_sha256": source_digest(root / "src"),
        "seed": seed,
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "loaded": loaded_blas(),
                 "env": {k: os.environ.get(k) for k in _THREAD_ENV}},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "array_backend": backend,
        "dtype": dtype,
    }


def peak_rss_kb(pid: int | None = None) -> int:
    """Peak resident set (VmHWM) of ``pid`` in KiB; this process when
    ``pid`` is None.  0 when the process is gone."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def stop_children(timeout: float = 5.0) -> None:
    """Stop every child process this run started and wait for each.

    Forked workers still alive here belong to a pool that was not
    closed: they are terminated (killed if they ignore it) and joined.
    Then multiprocessing's resource tracker is stopped and waited for:
    it is a child started on the first shared-memory segment or
    semaphore, and left alone it outlives this process.
    """
    import multiprocessing as mp
    from multiprocessing import resource_tracker

    for proc in mp.active_children():
        proc.terminate()
        proc.join(timeout)
        if proc.is_alive():
            proc.kill()
            proc.join()
    # no public way to stop the tracker; _stop closes its pipe and
    # waits for the process
    resource_tracker._resource_tracker._stop()
