"""Test-suite setup: BLAS threads and the hypothesis profile.

BLAS is pinned to one thread unless the caller chose a count. pytest imports
this file before any test module, so before numpy loads and reads these
variables. Two suites run side by side on a small machine under OpenBLAS's
default threading can slow each other many times over.

Every property test runs under one hypothesis profile: reproducible draws,
no per-example time limit and no example database written into the tree.
A test's own ``@settings`` sets only ``max_examples``.
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from hypothesis import settings  # noqa: E402  (after the variables above)

settings.register_profile("patchpos", deadline=None, derandomize=True, database=None)
settings.load_profile("patchpos")
