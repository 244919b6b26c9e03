"""Test-session setup.

BLAS libraries read their thread count once, when numpy is first imported,
so it is pinned here, before any test module imports numpy.  The models
under test are small and Python-bound: extra BLAS threads only contend for
cores (a global-norm clip over a few hundred thousand gradient entries ran
hundreds of times slower with a second busy process), and the thread count
can change floating-point summation order.  Values set in the environment
win over these defaults.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
