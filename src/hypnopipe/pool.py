"""The one thread pool: channels in preprocess, tensors and roles in encode,
in scoring the conv-feature jobs (a chunk of windows, a modality and the
members that standardise it alike), and the members ``train`` trains; and
the one BLAS setting.

Their kernels (scipy's filters and resampler, numpy's einsum, matrix
products and reductions) release the GIL, so threads run them on every core
the process may use.  While the pool runs, and while ``diagnosis`` fits or
scores (``one_blas_thread``), each OpenBLAS the process has loaded runs one
thread of its own, so the members' matrix products do not oversubscribe the
cores and RFE's and the GP's small ones do not pay for a second thread.  A
host program's own count is restored after, whatever order it imported
numpy and hypnopipe in.
"""

from __future__ import annotations

import ctypes
import glob
import importlib.util
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

# numpy and scipy each bundle an OpenBLAS in "<package>.libs" beside the
# package: numpy's 64-bit-integer build names its functions with a "64_" suffix
_OPENBLAS = (("numpy", "64_"), ("scipy", ""))
_blas_lock = threading.Lock()
_blas_depth = 0
_blas_files = None          # [(path, suffix)] of each bundled OpenBLAS, found once
_blas_loaded: dict = {}     # path -> (getter, setter), once the process loads it
_blas_held: dict = {}       # path -> (setter, its count before the outermost entry)


def _loaded_openblas() -> dict:
    """``{path: (getter, setter)}`` of each bundled OpenBLAS this process has
    loaded and that exports both; one not loaded yet is looked for again at
    the next call.  Called under ``_blas_lock``."""
    global _blas_files
    if _blas_files is None:
        _blas_files = []
        for package, suffix in _OPENBLAS:
            spec = importlib.util.find_spec(package)
            if spec is not None and spec.submodule_search_locations:
                libs = os.path.join(os.path.dirname(spec.submodule_search_locations[0]),
                                    package + ".libs")
                _blas_files += [(path, suffix) for path in sorted(glob.glob(
                    os.path.join(glob.escape(libs), "libscipy_openblas*.so")))]
    for path, suffix in _blas_files:
        if path not in _blas_loaded:
            try:
                lib = ctypes.CDLL(path, os.RTLD_NOLOAD)
                _blas_loaded[path] = (getattr(lib, f"scipy_openblas_get_num_threads{suffix}"),
                                      getattr(lib, f"scipy_openblas_set_num_threads{suffix}"))
            except (OSError, AttributeError):
                pass
    return _blas_loaded


@contextmanager
def one_blas_thread():
    """Each OpenBLAS loaded at entry runs one thread inside; the outermost
    exit, also by an exception, gives each the count it had before.  Nested
    and concurrent entries share one hold."""
    global _blas_depth
    with _blas_lock:
        _blas_depth += 1
        for path, (get, set_) in _loaded_openblas().items():
            if path not in _blas_held:
                count = get()
                _blas_held[path] = (set_, count)
                if count != 1:
                    set_(1)
    try:
        yield
    finally:
        with _blas_lock:
            _blas_depth -= 1
            if not _blas_depth:
                for set_, count in _blas_held.values():
                    if count != 1:
                        set_(count)
                _blas_held.clear()


def thread_map(fn, items) -> list:
    """``[fn(item) for item in items]``, on one thread per core of the
    process's affinity mask; serial for one item or one core.  Results come
    in input order, and when items fail the exception raised is the first in
    input order, the one the serial loop raises.  BLAS runs one thread
    throughout."""
    items = list(items)
    workers = min(len(items), len(os.sched_getaffinity(0)))
    with one_blas_thread():
        if workers <= 1:
            return [fn(item) for item in items]
        with ThreadPoolExecutor(workers) as pool:
            return list(pool.map(fn, items))
