"""Amplitude amplification toward a marked parity set.

Tracks the marked probability through the iterate and overlays the
closed form sin((2k+1) asin sqrt(p0))^2, then runs the full search,
which measures, verifies against a labeled sample, and reports its
query bill.
"""
import math

import numpy as np

from qhslab import (QueryCounter, SharedSample, grover_step, index_distribution,
                    planted_parity, prepare_spectrum_state, quantum_weak_parity,
                    to_pm1, wht)

n, target, gamma = 10, 37, 0.125
bits = planted_parity(n, target, gamma, seed=21)
coeffs = wht(to_pm1(bits))
marked = np.abs(coeffs) >= gamma
p0 = float(np.sum(coeffs[marked] ** 2))
theta = math.asin(math.sqrt(p0))

print(f"marked set: {int(marked.sum())} parities, initial mass p0 = {p0:.5f}")
print(" k   simulated   closed form")
state = prepare_spectrum_state(bits, QueryCounter())
for k in range(0, 9):
    if k:
        grover_step(state, bits, marked, QueryCounter())
    hit = float(index_distribution(state)[marked].sum())
    print(f"{k:2d}   {hit:.7f}   {math.sin((2*k+1)*theta)**2:.7f}")

print("\nfull search with sampled verification:")
sample = SharedSample.full_cube(n, bits)
counter = QueryCounter()
hyp = quantum_weak_parity(n, gamma, 0.05, to_pm1(bits), sample, counter, np.random.default_rng(4))
print(f"found parity {hyp.a} (planted {target}), sign {hyp.sign:+d}, "
      f"estimated correlation {hyp.est_advantage:.4f}, "
      f"{counter.quantum_queries} quantum queries")
