"""The one thread pool: channels in preprocess, tensors and roles in encode,
and the ensemble's members in scoring.

Their kernels (scipy's filters and resampler, numpy's einsum, matrix
products and reductions) release the GIL, so threads run them on every core
the process may use.  BLAS runs one thread of its own by default (see the
package ``__init__``), so the members' matrix products do not oversubscribe
the cores.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor


def thread_map(fn, items) -> list:
    """``[fn(item) for item in items]``, on one thread per core of the
    process's affinity mask; serial for one item or one core.  Results come
    in input order, and when items fail the exception raised is the first in
    input order, the one the serial loop raises."""
    items = list(items)
    workers = min(len(items), len(os.sched_getaffinity(0)))
    if workers <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(workers) as pool:
        return list(pool.map(fn, items))
