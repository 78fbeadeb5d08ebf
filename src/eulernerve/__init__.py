"""Euler-class cocycles on the nerve of SO(2p): construction and numerical
certification of the identities they satisfy."""

import os
import sys

# Process policies for every caller, set before any submodule imports numpy.
# The matrices are 2 x 2 to 6 x 6, where extra BLAS threads only add
# overhead; the pool size is read when numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

# A check allocates and frees stacks of 0.1 to a few MB many times.  glibc
# raises its mmap and trim thresholds only as far as the largest array freed
# so far, and returns the heap above them to the system, to fault it in again
# on the next call: thousands to a million minor page faults per benchmark
# run, and a speed that hangs on the size of the largest array.  Fixed
# thresholds keep that memory in the heap, whether a process enters by the
# CLI or by a library call.
if sys.platform.startswith("linux"):
    import ctypes

    _mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if _mallopt is not None:
        _M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
        _mallopt(_M_MMAP_THRESHOLD, 16 << 20)
        _mallopt(_M_TRIM_THRESHOLD, 32 << 20)

__version__ = "0.1.0"
