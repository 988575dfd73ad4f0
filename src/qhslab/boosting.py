"""Smooth boosting: the weight rule, the boosting loop, and majority-vote
combination.

Weights follow the fixed-margin rule with theta = gamma / (2 + gamma):
the margin of a point advances by f(x) h_t(x) - theta per stage, and
its weight is 1 below zero margin and (1 - gamma)**(margin / 2) above,
so every weight stays in (0, 1]. The loop estimates the mean weight
from one shared labeled sample and stops at 2 * epsilon / 3, so the
true mean is at most epsilon whenever the estimate stayed within its
epsilon / 3 budget. The induced stage distributions never put more than
a 3 / epsilon multiple of uniform on any point, which is the smoothness
the weak learner needs.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .boolfn import chi
from .weaklearn import SharedSample


class StageBudgetExceeded(Exception):
    """The stage cap was hit, so some weak hypothesis fell short of gamma."""


def weight_from_margin(margins, gamma: float):
    """1 below zero margin, geometric decay (1 - gamma)**(margin/2) above."""
    margins = np.asarray(margins, dtype=np.float64)
    return (1.0 - gamma) ** (np.maximum(margins, 0.0) / 2.0)


@dataclass
class CombinedHypothesis:
    """Majority vote over the accepted signed parities, one per stage."""

    hypotheses: list

    def __post_init__(self):
        if not self.hypotheses:
            raise ValueError("cannot combine an empty hypothesis list")

    def vote(self, xs):
        """Mean hypothesis value, in [-1, 1], tallied exactly per distinct parity."""
        xs = np.asarray(xs, dtype=np.int64)
        tally = Counter()
        for hyp in self.hypotheses:
            tally[hyp.a] += hyp.sign
        total = np.zeros(xs.shape, dtype=np.int64)
        for a, count in tally.items():
            total += count * chi(a, xs)
        return total / len(self.hypotheses)

    def sign_table(self, n: int) -> np.ndarray:
        """Majority sign over the cube; a tied vote resolves to +1."""
        return np.where(self.vote(np.arange(1 << n, dtype=np.int64)) >= 0.0, 1.0, -1.0)


def boost(f_sign, sample: SharedSample, epsilon: float, gamma: float, budget: int,
          weak_learner) -> tuple:
    """Smooth-boost the +-1 target table ``f_sign`` over the whole cube.

    Each stage estimates the mean weight as ``sample.counts @ weights /
    sample.size`` and stops once it is at most 2*epsilon/3; otherwise
    ``weak_learner(weights)`` returns the next :class:`WeakHypothesis`
    for the stage distribution ``weights / (2**n * estimate)``. Returns
    the majority vote and the estimates, one per accepted hypothesis
    (taken before it) plus the final one. Raises
    :class:`StageBudgetExceeded` when the estimate is still above
    2*epsilon/3 after ``budget`` stages.
    """
    if not 0.0 < epsilon < 0.5:
        raise ValueError("epsilon must lie in (0, 1/2)")
    if not 0.0 < gamma < 0.5:
        raise ValueError("gamma must lie in (0, 1/2)")
    f_sign = np.asarray(f_sign, dtype=np.float64)
    if not np.all(np.abs(f_sign) == 1.0):
        raise ValueError("f_sign must be a +-1 table")
    theta = gamma / (2.0 + gamma)
    margins = np.zeros(f_sign.size, dtype=np.float64)
    hypotheses, estimates = [], []
    # Where f_sign * h_t is -1, one bit per point and distinct signed parity:
    # runs accept few distinct parities, and float tables take 64x the memory.
    wrong = {}
    while True:
        weights = weight_from_margin(margins, gamma)
        estimates.append(float(sample.counts @ weights / sample.size))
        if estimates[-1] <= 2.0 * epsilon / 3.0:
            return CombinedHypothesis(hypotheses), estimates
        if len(hypotheses) >= budget:
            raise StageBudgetExceeded(f"estimate above 2*epsilon/3 after all {budget} stages")
        hyp = weak_learner(weights)
        hypotheses.append(hyp)
        key = (hyp.a, hyp.sign)
        if key not in wrong:
            wrong[key] = np.packbits(f_sign * hyp.values(np.arange(f_sign.size)) < 0.0)
        margins += np.where(np.unpackbits(wrong[key], count=f_sign.size),
                            -1.0 - theta, 1.0 - theta)
