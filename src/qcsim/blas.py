"""Control of this process's BLAS thread count.

Two callers need it: the state-vector kernel runs its small GEMMs on one
thread (OpenBLAS threads even a 32x32x32 zgemm, and the threads cost more
than they save at these sizes), and sliced-contraction pool workers run
one thread each so that the processes do not oversubscribe the CPUs.

The count is read and set through ``threadpoolctl`` when it is installed,
else through the thread-count calls of the OpenBLAS library loaded in the
process.  The route is found once per process, on first use rather than at
import, since finding the OpenBLAS library reads the process's memory map.
When neither route exists, one warning is logged and BLAS keeps its
default threads.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import logging
import os

_log = logging.getLogger(__name__)

# Lists every file mapped into this process, shared libraries included.
_MAPS = "/proc/self/maps"


def _openblas_calls():
    """``(set_num_threads, get_num_threads)`` of the OpenBLAS library loaded
    in this process, or None.

    Builds differ in the symbol names: ``scipy-openblas`` (numpy's wheels)
    prefixes ``scipy_``, and 64-bit-integer builds append ``64_``.
    """
    try:
        with open(_MAPS) as maps:
            paths = sorted({
                line.split()[-1] for line in maps
                if "openblas" in os.path.basename(line.split()[-1]).lower()
            })
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                try:
                    set_threads = getattr(lib, f"{prefix}_set_num_threads{suffix}")
                    get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                except AttributeError:
                    continue
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                return set_threads, get_threads
    return None


def _threadpoolctl_calls():
    """``(set_num_threads, get_num_threads)`` over every BLAS library that
    ``threadpoolctl`` finds, or None when it is not installed."""
    try:
        from threadpoolctl import ThreadpoolController
    except ImportError:
        return None
    blas = ThreadpoolController().select(user_api="blas")

    def set_threads(n: int) -> None:
        blas.limit(limits=n)

    def get_threads() -> int:
        return max((lib["num_threads"] for lib in blas.info()), default=1)

    return set_threads, get_threads


@functools.cache
def controls():
    """``(set_num_threads, get_num_threads)`` for this process's BLAS, or
    None (warned once) when there is no route."""
    calls = _threadpoolctl_calls() or _openblas_calls()
    if calls is None:
        _log.warning(
            "no BLAS thread control found (threadpoolctl is not installed and "
            "no loaded OpenBLAS library exports a thread-count call): BLAS "
            "keeps its default threads, so state-vector GEMMs may spin idle "
            "threads and pool workers may oversubscribe the CPUs"
        )
    return calls


def limit(limits: int) -> None:
    """Set this process's BLAS thread count, where a route exists."""
    calls = controls()
    if calls is not None:
        calls[0](limits)


@contextlib.contextmanager
def single_thread():
    """Run the body on one BLAS thread, then restore the caller's count.

    The count is process-wide, so bodies running at once in several
    threads may see one another's count; that changes speed, not results."""
    calls = controls()
    before = calls[1]() if calls is not None else 1
    if before == 1:
        yield
        return
    calls[0](1)
    try:
        yield
    finally:
        calls[0](before)
