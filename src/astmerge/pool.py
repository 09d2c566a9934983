"""One worker pool for the encoder's sample-parallel stages.

OpenBLAS splitting a GEMM over its threads changes the output bits. The
encoder instead splits samples and MLP row slabs over Python workers while
BLAS runs one thread, so each sample runs the same operations in the same
order for every worker and BLAS thread count. The BLAS thread count is
process-wide: two forwards must not run at once in one process.
"""

from __future__ import annotations

import ctypes
import functools
import math
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager
from pathlib import Path

import numpy as np


@functools.cache
def blas_threads():
    """(get, set) for the thread count of NumPy's bundled OpenBLAS, or None."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        try:
            lib = ctypes.CDLL(str(path))
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


class SamplePool:
    """``workers`` threads, the caller among them; worker k owns scratch k."""

    def __init__(self, workers: int = 1) -> None:
        self.workers = workers
        self.executor = ThreadPoolExecutor(workers - 1) if workers > 1 else None
        self._scratch: list[dict[str, np.ndarray]] = [{} for _ in range(workers)]

    def split(self, fn, n: int) -> None:
        """fn(worker, lo, hi) on at most one contiguous range of range(n) per
        worker, the caller taking the first; worker errors are re-raised."""
        w = min(self.workers, n)
        if w < 1:
            return
        bounds = [k * n // w for k in range(w + 1)]
        futures = [self.executor.submit(fn, k, bounds[k], bounds[k + 1]) for k in range(1, w)]
        try:
            fn(0, bounds[0], bounds[1])
        finally:
            wait(futures)
        for f in futures:
            f.result()

    def scratch(self, worker: int, name: str, shape: tuple[int, ...]) -> np.ndarray:
        """Worker ``worker``'s float32 buffer ``name`` as ``shape``, kept for
        the pool's life."""
        size, store = math.prod(shape), self._scratch[worker]
        if name not in store or store[name].size < size:
            store[name] = np.empty(size, dtype=np.float32)
        return store[name][:size].reshape(shape)


def pool_plan(threads: int = 1) -> tuple[int, int]:
    """(workers, BLAS pool size to pin from) of the pool ``sample_pool(threads)``
    opens now: max(threads, BLAS pool size) workers and BLAS pinned when its
    pool is > 1; one worker and nothing to pin when BLAS cannot be pinned."""
    controls = blas_threads()
    if controls is None:
        return 1, 1
    entry = controls[0]()
    return max(threads, entry), entry


@contextmanager
def sample_pool(threads: int = 1):
    """A pool of ``pool_plan(threads)`` workers, BLAS pinned to one thread
    until exit when its pool was larger."""
    workers, entry = pool_plan(threads)
    pool = SamplePool(workers)
    if entry > 1:
        blas_threads()[1](1)
    try:
        yield pool
    finally:
        if pool.executor is not None:
            pool.executor.shutdown()
        if entry > 1:
            blas_threads()[1](entry)
