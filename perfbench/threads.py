"""One BLAS/OpenMP thread in every benchmark process.

Import this before numpy. The load is one single-threaded process, and
a fixed thread count also fixes the order of floating-point sums, which
the recorded output digests depend on.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
