"""Test-session setup that must run before numpy is imported.

The covariance sweeps multiply blocks of a few rows; a multi-threaded BLAS
spends far longer synchronizing its threads on them than computing, and on
a loaded host the K=1024 sweep tests slow down by one to two orders of
magnitude. Pin every BLAS to one thread unless the caller chose otherwise.
"""

import os

for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_variable, "1")
