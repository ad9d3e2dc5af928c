"""Machine facts printed with every benchmark result.

Each probe degrades to "unknown" rather than failing the run: the
checkout the benchmark runs in need not be a git repository, and a
container may hide the CPU description.
"""

import ctypes
import glob
import os
import platform

UNKNOWN = "unknown"


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or UNKNOWN


def _openblas():
    """(configuration string, threads in use) of numpy's OpenBLAS."""
    import numpy as np
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir,
                           "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        try:
            lib = ctypes.CDLL(path)
            config = lib.scipy_openblas_get_config64_
            threads = lib.scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        config.argtypes, config.restype = [], ctypes.c_char_p
        threads.argtypes, threads.restype = [], ctypes.c_int
        return config().decode(), threads()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas.get('name')} {blas.get('version')}", UNKNOWN


def git_commit(root):
    """HEAD of the checkout, read from .git without leaving it."""
    try:
        with open(os.path.join(root, ".git", "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(root, ".git", *ref.split("/"))
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(root, ".git", "packed-refs"),
                  encoding="utf-8") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return UNKNOWN


def collect(root, extra):
    import numpy
    import scipy
    openblas, blas_threads = _openblas()
    facts = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
        "openblas_threads": blas_threads,
        "blas_thread_env": {key: os.environ[key] for key in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if key in os.environ},
        "git_commit": git_commit(root),
    }
    facts.update(extra)
    return facts
