"""Smooth boosting around an exact weak learner.

Watches the mean weight drain stage by stage, confirms the stage
distributions stay within 3/epsilon of uniform, and measures the exact
error of the combined vote.
"""
import math

import numpy as np

from qhslab import QueryCounter, SharedSample, boost, exact_weak_parity, random_dnf

n, s, epsilon = 10, 2, 0.1
gamma = 1.0 / (8 * s + 4)
formula = random_dnf(n, s, 3, seed=5)
f_sign = formula.sign_table()

# enough shared draws to estimate every stage's mean weight within epsilon/3
draws = math.ceil(8 * math.log(1.0 / (epsilon * gamma) + 2.0) / epsilon**2)
sample = SharedSample.draw(n, draws, QueryCounter(), np.random.default_rng(0))
peaks = []


def weak_learner(g_values):
    # boost lends the weighted target g = weights * f; the weights are |g|
    peaks.append(np.abs(g_values).max())
    return exact_weak_parity(g_values, out=g_values)


combined, estimates = boost(f_sign, sample, epsilon, gamma,
                            math.ceil(2.0 / (epsilon * gamma**2)), weak_learner)
stages = len(combined.hypotheses)

print(f"boosting s={s} DNF at epsilon={epsilon}, gamma={gamma:.4f}: "
      f"{stages} stages")
print(" stage   estimate   parity   advantage   sup 2^n D_t")
for stage, (estimate, hyp, peak) in enumerate(zip(estimates, combined.hypotheses, peaks), 1):
    if stage <= 5 or stage % 25 == 0 or stage == stages:
        print(f"{stage:6d}   {estimate:.4f}   {hyp.a:6d}   {hyp.est_advantage:9.4f}"
              f"   {peak / estimate:8.2f} (cap {3/epsilon:.0f})")

error = float(np.mean(combined.sign_table(n) != f_sign))
print(f"\nexact error of the combined vote: {error:.4f} (target < {epsilon})")
