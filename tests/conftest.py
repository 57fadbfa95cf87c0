"""Pin BLAS to one thread for the test suite unless the caller chose a count.

pytest imports this file before any test module, so before numpy loads and
reads these variables. Two suites run side by side on a small machine under
OpenBLAS's default threading can slow each other many times over.
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
