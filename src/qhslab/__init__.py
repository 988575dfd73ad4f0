"""qhslab: a desk-scale laboratory for learning small DNF formulas under
the uniform distribution with a simulated quantum weak parity learner
inside a smooth booster, cross-checked against exact Fourier oracles.

The package root holds the names the README and the demos use; the rest
of the API is imported from its submodule (``qhslab.boolfn``,
``qhslab.simulator``, ``qhslab.weaklearn``, ``qhslab.boosting``,
``qhslab.sieve``, ``qhslab.checks``).
"""

from .boolfn import best_parity, heavy_coeffs, planted_parity, random_dnf, to_pm1, wht
from .boosting import boost
from .sieve import QhsConfig, learn_dnf, query_sweep
from .simulator import QueryCounter, grover_step, index_distribution, prepare_spectrum_state
from .weaklearn import SharedSample, exact_weak_parity, quantum_weak_parity

__version__ = "0.1.0"
