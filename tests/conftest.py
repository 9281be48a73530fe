"""Test-process settings: BLAS runs single-threaded.

The matrix-model tests make thousands of BLAS calls on 2x2 to 7x7
matrices.  With the default thread pool those calls slow down several
times over when other processes load the host.  The variables take
effect only if they are set before numpy is first imported, and pytest
loads this file before any test module.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
