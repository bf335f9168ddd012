"""Test-session setup: run BLAS and LAPACK on one thread.

The solves under test are small (a few hundred unknowns), so BLAS threads buy
nothing, and when the cores are shared their spin-waiting makes every LAPACK
call wait for the scheduler: on a 2-core machine, two concurrent runs of the
training tests each took about eight times as long with OpenBLAS's default
threads as with one.  pytest loads this file before any test module imports
numpy, which is when OpenBLAS reads these variables; a value already set in
the environment is kept.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
