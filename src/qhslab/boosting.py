"""Smooth boosting: the weight rule, the boosting loop, and majority-vote
combination.

Weights follow the fixed-margin rule with theta = gamma / (2 + gamma):
after t stages a point's margin is (2u - t) - t * theta, where u counts
the stages whose hypothesis agreed with f there, and its weight is 1
below zero margin and (1 - gamma)**(margin / 2) above, so every weight
stays in (0, 1]. The loop keeps the int32 tally 2u + [f(x) < 0], gathers
the weighted target g = w * f from a signed table of 2(t + 1) entries
into one buffer it owns and lends to the weak learner, estimates the
mean weight from one shared labeled sample and stops at 2 * epsilon / 3,
so the true mean is at most epsilon whenever the estimate stayed within its
epsilon / 3 budget. The induced stage distributions never put more than
a 3 / epsilon multiple of uniform on any point, which is the smoothness
the weak learner needs.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .weaklearn import SharedSample


class StageBudgetExceeded(Exception):
    """The stage cap was hit, so some weak hypothesis fell short of gamma."""


def weight_from_margin(margins, gamma: float):
    """1 below zero margin, geometric decay (1 - gamma)**(margin/2) above."""
    margins = np.asarray(margins, dtype=np.float64)
    return (1.0 - gamma) ** (np.maximum(margins, 0.0) / 2.0)


def tally_weights(tally, stages: int, gamma: float, out=None) -> np.ndarray:
    """The weighted target g = w * f after ``stages`` stages, gathered into
    ``out``, a float64 array of the tally's shape (a new one by default).

    ``tally`` holds 2u + [f(x) < 0], u in [0, stages] counting the stages
    that agreed with f at x. The gather reads a signed table of
    2 * (stages + 1) entries, the rule's weight w_u at 2u and -w_u at
    2u + 1, so each entry of g is w or its exact negation.
    """
    net = 2 * np.arange(stages + 1) - stages
    weights = weight_from_margin(net - stages * (gamma / (2.0 + gamma)), gamma)
    table = np.stack((weights, -weights), axis=1).ravel()
    # "clip" writes straight into out; the default "raise" mode buffers a copy
    return np.take(table, tally, out=out, mode="clip")


def agreement_bits(f_sign: np.ndarray, a: int, sign: int) -> np.ndarray:
    """Packed bits of where ``sign * chi(a, x)`` agrees in sign with ``f_sign``.

    The parity bit of ``a & x`` is 1 exactly where ``chi(a, x)`` is -1, so
    the hypothesis agrees with f where that bit differs from
    ``(f_sign > 0) xor (sign < 0)``; no signed table is built.
    """
    odd = np.bitwise_count(np.arange(f_sign.size, dtype=np.uint32) & np.uint32(a)) & 1
    return np.packbits(odd != ((f_sign > 0) ^ (sign < 0)))


def advance_tally(tally: np.ndarray, agrees: np.ndarray) -> None:
    """Add 2 to ``tally``, in place, where the packed bits ``agrees`` are set:
    one more agreeing stage, keeping the low bit that holds f's sign."""
    step = np.unpackbits(agrees, count=tally.size)
    step += step  # doubles the 0/1 bytes; numpy's uint8 shift is several times slower
    tally += step


@dataclass
class CombinedHypothesis:
    """Majority vote over the accepted signed parities, one per stage."""

    hypotheses: list

    def __post_init__(self):
        if not self.hypotheses:
            raise ValueError("cannot combine an empty hypothesis list")

    def _net_counts(self) -> Counter:
        """Net sign count per distinct parity: +1 per stage that accepted it
        positively, -1 per negative one."""
        tally = Counter()
        for hyp in self.hypotheses:
            tally[hyp.a] += hyp.sign
        return tally

    def sign_table(self, n: int) -> np.ndarray:
        """Majority sign over the cube, as float64; a tied vote resolves to +1.

        The vote total at x is the sum of the hypotheses' values there,
        ``sum(count) - 2 * sum(count * odd)`` from the net count of each
        distinct parity, with ``odd`` the parity bit of ``a & x``,
        accumulated exactly in int32.
        """
        tally = self._net_counts()
        xs = np.arange(1 << n, dtype=np.uint32)
        total = np.full(xs.size, sum(tally.values()), dtype=np.int32)
        for a, count in tally.items():
            total -= (np.bitwise_count(xs & np.uint32(a)) & 1) * np.int32(2 * count)
        return np.where(total >= 0, 1.0, -1.0)


def boost(f_sign, sample: SharedSample, epsilon: float, gamma: float, budget: int,
          weak_learner) -> tuple:
    """Smooth-boost the +-1 target table ``f_sign`` over the whole cube.

    ``f_sign`` may have any numeric dtype; it is validated once and read
    as it is, with no float copy, so a run's one signed byte per point
    (:func:`sieve.setup_run`) stays one byte per point. Each stage
    gathers the weighted target g = w * f and estimates the mean weight
    as ``(sample.counts * f_sign) @ g / sample.size``, the signed counts
    formed once per run; +-counts are exact in float64, so each product
    equals the one of ``sample.counts @ w`` exactly and the estimate has
    its bits, whatever f's dtype. The run
    stops once the estimate is at most 2*epsilon/3; otherwise
    ``weak_learner(g)`` returns the next :class:`WeakHypothesis` for the
    stage distribution ``|g| / (2**n * estimate)``. g is one float64
    buffer that the loop owns and refills from the tally every stage: the
    learner gets the same array each time, may overwrite it (the exact
    learner transforms it in place), and must copy what it keeps past its
    return. Returns the majority vote and the estimates, one per accepted
    hypothesis (taken before it) plus the final one. Raises
    :class:`StageBudgetExceeded` when the estimate is still above
    2*epsilon/3 after ``budget`` stages.
    """
    if not 0.0 < epsilon < 0.5:
        raise ValueError("epsilon must lie in (0, 1/2)")
    if not 0.0 < gamma < 0.5:
        raise ValueError("gamma must lie in (0, 1/2)")
    f_sign = np.asarray(f_sign)
    if f_sign.dtype.kind not in "iuf" or not np.all(np.abs(f_sign) == 1):
        raise ValueError("f_sign must be a numeric +-1 table")
    tally = (f_sign < 0).astype(np.int32)
    signed_counts = sample.counts * f_sign
    target = np.empty(f_sign.size)
    hypotheses, estimates = [], []
    # Where f_sign * h_t is +1, one bit per point and distinct signed parity:
    # runs accept few distinct parities, and float tables take 64x the memory.
    agrees = {}
    while True:
        tally_weights(tally, len(hypotheses), gamma, out=target)
        estimates.append(float(signed_counts @ target / sample.size))
        if estimates[-1] <= 2.0 * epsilon / 3.0:
            return CombinedHypothesis(hypotheses), estimates
        if len(hypotheses) >= budget:
            raise StageBudgetExceeded(f"estimate above 2*epsilon/3 after all {budget} stages")
        hyp = weak_learner(target)
        hypotheses.append(hyp)
        key = (hyp.a, hyp.sign)
        if key not in agrees:
            agrees[key] = agreement_bits(f_sign, *key)
        advance_tally(tally, agrees[key])
