"""The two-query spectrum sampler.

Prepares the correlation state for a noisy parity oracle and compares
the index-register measurement distribution with the squared spectrum;
the planted parity shows up with probability exactly (2 gamma)^2.
"""
import numpy as np

from qhslab import (QueryCounter, index_distribution, planted_parity, prepare_spectrum_state,
                    to_pm1, wht)

n, target, gamma = 8, 19, 0.125
bits = planted_parity(n, target, gamma, seed=3)

counter = QueryCounter()
state = prepare_spectrum_state(bits, counter)
dist = index_distribution(state)
spectrum = wht(to_pm1(bits))

print(f"planted parity {target} with agreement 1/2 + {gamma}")
print(f"queries used to prepare the state: {counter.quantum_queries}")
print(f"P[measure {target}] = {dist[target]:.10f} (expected 4 gamma^2 = {4*gamma**2})")
print(f"max |distribution - spectrum^2| = {np.max(np.abs(dist - spectrum**2)):.3e}")

rng = np.random.default_rng(0)
draws = rng.choice(dist.size, size=2000, p=dist)
print(f"\nempirical frequency of {target} over 2000 draws: "
      f"{np.mean(draws == target):.4f}")
top = np.argsort(dist)[::-1][:5]
print("five most likely outcomes:", {int(a): round(float(dist[a]), 4) for a in top})
