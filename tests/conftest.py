"""Test-session setup, read by pytest before any test module.

The numeric oracles in oracles.py take ranks of small matrices through
numpy; a BLAS that starts one thread per core for them contends with any
other busy process on the machine.  One thread each is set here, before
numpy is first imported, unless the environment already names a count.
"""

import os

for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
    os.environ.setdefault(name, "1")
