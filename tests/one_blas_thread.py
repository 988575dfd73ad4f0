"""Pytest plugin: Tier-1 runs numpy's BLAS on one thread, as ``perfbench/run.py``
does for itself.

The simulator's norm checks, one per public operation, are small BLAS
dot products, and a second BLAS thread spinning against a busy core has
stalled them; the thread count also changes a report's bits (see
README). OpenBLAS reads these variables once, when numpy is first
imported, and pytest imports numpy while it reads the ``filterwarnings``
setting, before any ``conftest.py`` runs; so ``pyproject.toml`` loads
this module with ``-p``, which pytest imports earlier. A value already
in the environment wins.
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
