"""Weak parity learners.

The quantum route samples parities from the simulated spectrum state,
amplified toward the set that a shared labeled sample estimates to be
heavy, and classically verifies every measured candidate against the
same sample. A signed-digit reduction extends the search from sign
oracles to (0, 1]-weighted targets, as a booster needs. Exact and
sampled classical learners provide the baselines the quantum route is
cross-checked against.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boolfn import chi, to_pm1, top_index, wht, wht_unscaled
from .simulator import QueryCounter, grover_step, index_distribution, prepare_spectrum_state


RETRIES = 4  # weighted_weak_parity passes before it gives up


class NoHeavyCoefficient(Exception):
    """No candidate parity passed verification within the attempt budget."""


@dataclass
class WeakHypothesis:
    """A signed parity: predicts sign * chi(a, x)."""

    a: int
    sign: int
    est_advantage: float  # estimated magnitude of the target correlation

    def values(self, xs):
        return self.sign * chi(self.a, xs)


def verdict(est, accept: float = 0.0, among=None) -> WeakHypothesis:
    """The signed parity (sign +1 at zero) best correlated among ``among``
    (default all) under the ``top_index`` tie rule, with its magnitude as
    advantage; :class:`NoHeavyCoefficient` when that is below ``accept``."""
    if among is None:
        a = top_index(est)
    else:  # a lone candidate (each quantum search's) skips top_index's array passes
        among = sorted(among)
        a = among[0] if len(among) == 1 else among[top_index(est[among])]
    value = est[a]
    if abs(value) < accept:
        raise NoHeavyCoefficient(f"best correlation {abs(value):g} below threshold {accept:g}")
    return WeakHypothesis(int(a), 1 if value >= 0 else -1, float(abs(value)))


def bit_threshold(big_gamma: float) -> float:
    """Per-bit search target and verification threshold of :func:`weighted_weak_parity`."""
    return big_gamma / 6.0


@dataclass
class SharedSample:
    """Uniform labeled sample stored as per-assignment multiplicities.

    ``counts[x]`` is how often assignment x was drawn and
    ``labels_sign[x]`` the oracle sign wherever the count is positive
    (zero elsewhere). The multiset form keeps every correlation estimate
    one weighted transform, independent of the number of draws. Drawing
    charges one classical query per draw; an estimate charges nothing
    further, which is the point of sharing the sample.
    """

    n: int
    counts: np.ndarray
    labels_sign: np.ndarray

    @property
    def size(self) -> int:
        return int(self.counts.sum())

    @classmethod
    def draw(cls, n, m, f_bits, counter: QueryCounter, rng) -> "SharedSample":
        """m uniform draws with replacement, labeled by the oracle."""
        if m < 1:
            raise ValueError("sample size must be positive")
        counts = rng.multinomial(int(m), np.full(1 << n, 1.0 / (1 << n))).astype(np.int64)
        signs = to_pm1(np.asarray(f_bits)).astype(np.float64)
        labels = np.where(counts > 0, signs, 0.0)
        counter.classical_queries += int(m)
        return cls(n, counts, labels)

    @classmethod
    def full_cube(cls, n, f_bits) -> "SharedSample":
        """Every assignment exactly once; the exact-sample case used by
        oracle tests (no query charge is recorded)."""
        counts = np.ones(1 << n, dtype=np.int64)
        return cls(n, counts, to_pm1(np.asarray(f_bits)).astype(np.float64))


def sample_correlations(sample: SharedSample, values) -> np.ndarray:
    """Sample correlation with every parity at once.

    Transforms the count-weighted value vector and divides by the draw
    count. This equals the per-parity sum over the sample term for term:
    the mass vector is accumulated exactly before the transform runs.
    """
    if sample.size == 0:
        raise ValueError("sample is empty")
    mass = sample.counts * np.asarray(values, dtype=np.float64)
    return wht_unscaled(mass) / sample.size


def _doubling_depths(k_max: int) -> list:
    depths = [0]
    k = 1
    while k <= k_max:
        depths.append(k)
        k *= 2
    return depths


def quantum_weak_parity(n, gamma_target, delta, g_sign, sample, counter, rng) -> WeakHypothesis:
    """Find a parity whose sample correlation with g reaches gamma_target.

    Succeeds with probability at least 1 - delta whenever some parity has
    true correlation magnitude at least 2 * gamma_target; the sample
    threshold sits at gamma_target, splitting that premise in half.

    The initial marked probability is unknown, so attempts follow the
    doubling schedule k = 0, 1, 2, 4, ... capped at ceil(1 / gamma_target).
    Every attempt at depth k is charged the oracle calls the circuit made
    to reach depth k: 2(2k + 1) with this circuit. The attempt loop repeats
    ceil(log2(1/delta)) times before giving up. ``n`` must match the
    sample's cube and ``g_sign`` must have one entry per point.
    The simulation itself extends one evolving state and caches the
    measurement distribution and the oracle tally per depth, which
    draws from exactly the same joint law as independent preparations.
    """
    if not 0.0 < gamma_target < 0.5:
        raise ValueError("gamma_target must lie in (0, 1/2)")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    g_sign = np.asarray(g_sign, dtype=np.float64)
    if n != sample.n or g_sign.shape != (1 << n,):
        raise ValueError(f"n={n} needs a sample and a target on 2**{n} points")
    est = sample_correlations(sample, g_sign)
    heavy = np.abs(est) >= gamma_target
    if not heavy.any():
        raise NoHeavyCoefficient(f"no sampled correlation reaches {gamma_target:g}")
    k_max = max(1, math.ceil(1.0 / gamma_target))
    depths = _doubling_depths(k_max)
    reps = max(1, math.ceil(math.log2(1.0 / delta)))

    bits = ((1.0 - g_sign) / 2.0).astype(np.uint8)
    scratch = QueryCounter()  # oracle calls of the shared simulation, read off per depth
    state = prepare_spectrum_state(bits, scratch)
    dists = {0: (index_distribution(state), scratch.quantum_queries)}
    deepest = 0
    for _ in range(reps):
        for k in depths:
            if k not in dists:
                while deepest < k:
                    grover_step(state, bits, heavy, scratch)
                    deepest += 1
                dists[k] = (index_distribution(state), scratch.quantum_queries)
            probs, cost = dists[k]
            counter.quantum_queries += cost
            a = int(rng.choice(probs.size, p=probs / probs.sum()))
            if heavy[a]:
                return verdict(est, among=(a,))
    raise NoHeavyCoefficient(
        f"attempt budget exhausted without a verified parity (target {gamma_target:g})")


@dataclass
class SignedDigits:
    """Exact signed-digit form of truncated weights.

    Per point, ``v = floor(2**d * M)`` is written as
    ``sum_j alpha[j] * 2**(d-1-j) + k`` with alpha entries in {-1, +1}
    and k in {-1, 0, +1}. The identity is exact in integers.
    """

    d: int
    alpha: np.ndarray  # (d, N) signs
    k: np.ndarray      # (N,)
    v: np.ndarray      # (N,) truncated integers

    def reconstruct(self) -> np.ndarray:
        weights = (1 << np.arange(self.d - 1, -1, -1, dtype=np.int64))
        return weights @ self.alpha.astype(np.int64) + self.k


def signed_digit_decompose(m_values, d: int) -> SignedDigits:
    """Decompose weights in (0, 1] at bit depth d.

    Picks the odd integer w nearest v with |w| <= 2**d - 1, assigns the
    leftover v - w to k, and derives the alpha signs greedily from w.
    """
    if d < 1:
        raise ValueError("d must be at least 1")
    m = np.asarray(m_values, dtype=np.float64)
    if np.any(m <= 0.0) or np.any(m > 1.0):
        raise ValueError("weights must lie in (0, 1]")
    v = np.floor(np.ldexp(m, d)).astype(np.int64)
    top = (1 << d) - 1
    w = np.where(v % 2 == 1, v, np.where(v + 1 <= top, v + 1, v - 1))
    k = v - w
    alpha = np.empty((d, m.size), dtype=np.int8)
    r = w.copy()
    for j in range(d):
        sign_j = np.where(r > 0, 1, -1).astype(np.int8)
        alpha[j] = sign_j
        r = r - sign_j.astype(np.int64) * (1 << (d - 1 - j))
    if np.any(r != 0) or np.any(np.abs(k) > 1):
        raise AssertionError("signed-digit decomposition failed")
    return SignedDigits(d, alpha, k, v)


def weighted_weak_parity(f_sign, m_values, big_gamma, delta, sample, counter, rng) -> WeakHypothesis:
    """Find a parity correlated with the weighted target M * f.

    Truncates the weights at depth d = ceil(log2(3 / big_gamma)) and
    splits them into sign bits; whenever some parity has weighted
    correlation at least big_gamma, one bit function carries correlation
    at least big_gamma / 3 with it, which is twice the per-bit search
    target :func:`bit_threshold`. Each distinct bit function (duplicates
    collapse, and early boosting stages produce few distinct weights) is
    searched with :func:`quantum_weak_parity`; candidates are then
    verified against the sampled weighted correlation at that same
    threshold and the best verified one is returned, ties toward the
    smaller index. The whole pass retries with fresh randomness up to
    ``RETRIES`` times before giving up.
    """
    if not 0.0 < big_gamma < 1.0:
        raise ValueError("big_gamma must lie in (0, 1)")
    f_sign = np.asarray(f_sign, dtype=np.float64)
    n = sample.n
    d = max(1, math.ceil(math.log2(3.0 / big_gamma)))
    digits = signed_digit_decompose(m_values, d)
    rows = digits.alpha.astype(np.float64) * f_sign[None, :]
    weighted_est = sample_correlations(sample, np.asarray(m_values, dtype=np.float64) * f_sign)
    gamma_bit = bit_threshold(big_gamma)

    distinct = []
    seen = set()
    for j in range(d):
        key = rows[j].tobytes()
        if key not in seen:
            seen.add(key)
            distinct.append(j)
    delta_bit = max(delta / len(distinct), 1e-12)

    for _ in range(RETRIES):
        candidates = set()
        for j in distinct:
            try:
                hyp = quantum_weak_parity(n, gamma_bit, delta_bit, rows[j], sample, counter, rng)
            except NoHeavyCoefficient:
                continue
            candidates.add(hyp.a)
        if candidates:
            try:
                return verdict(weighted_est, gamma_bit, candidates)
            except NoHeavyCoefficient:
                continue
    raise NoHeavyCoefficient(
        f"no candidate parity verified at weighted threshold {gamma_bit:g}")


def exact_weak_parity(f_sign, m_values) -> WeakHypothesis:
    """Exact argmax of the weighted correlation over the full cube.

    The oracle baseline: never fails while a heavy coefficient exists.
    """
    table = np.asarray(m_values, dtype=np.float64) * np.asarray(f_sign, dtype=np.float64)
    return verdict(wht(table))


def sampled_weak_parity(sample: SharedSample, weighted_values, accept: float) -> WeakHypothesis:
    """Argmax of the sampled weighted correlations, verified at ``accept``."""
    return verdict(sample_correlations(sample, weighted_values), accept)
