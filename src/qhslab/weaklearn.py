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

import functools
import math
from dataclasses import dataclass

import numpy as np

from .boolfn import chi, to_pm1, top_index, wht, wht_unscaled
from .simulator import (QueryCounter, batch_columns, grover_step, index_distribution,
                        prepare_spectrum_state)


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


def digit_depth(big_gamma: float) -> int:
    """Signed-digit depth of :func:`weighted_weak_parity`, the most digit rows it searches."""
    return max(1, math.ceil(math.log2(3.0 / big_gamma)))


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
        labels = np.where(counts > 0, to_pm1(f_bits), 0.0)
        counter.classical_queries += int(m)
        return cls(n, counts, labels)

    @classmethod
    def full_cube(cls, n, f_bits) -> "SharedSample":
        """Every assignment exactly once; the exact-sample case used by
        oracle tests (no query charge is recorded)."""
        counts = np.ones(1 << n, dtype=np.int64)
        return cls(n, counts, to_pm1(f_bits))


def sample_correlations(sample: SharedSample, values) -> np.ndarray:
    """Sample correlation with every parity at once, per column of a
    ``(2**n, k)`` table of values.

    Transforms the count-weighted value vector and divides by the draw
    count. This equals the per-parity sum over the sample term for term:
    the mass vector is accumulated exactly before the transform runs.
    """
    if sample.size == 0:
        raise ValueError("sample is empty")
    values = np.asarray(values, dtype=np.float64)
    mass = sample.counts.reshape((-1,) + (1,) * (values.ndim - 1)) * values
    return wht_unscaled(mass) / sample.size


@functools.lru_cache(maxsize=64)  # one entry per search target in use
def _doubling_depths(k_max: int) -> tuple:
    """0, 1, 2, 4, ... up to k_max; built once per k_max."""
    return (0,) + tuple(1 << j for j in range(k_max.bit_length()))


def choice_cdf(probs) -> np.ndarray:
    """The CDF ``Generator.choice(probs.size, p=probs / probs.sum())`` builds per call;
    ``cdf.searchsorted(rng.random(), side="right")`` then draws the index it draws.
    A 2-D ``probs`` gives each row's CDF, the same bits as the row alone."""
    cdf = np.cumsum(probs / probs.sum(axis=-1, keepdims=True), axis=-1)
    cdf /= cdf[..., -1:]
    return cdf


def fill_records(records, g_sign, sample, gamma_target) -> tuple:
    """Fill the empty search records ``records[c]`` (see
    :func:`quantum_weak_parity`) from column c of ``g_sign``, a ``(2**n, k)``
    +-1 table validated here: ``est`` and ``heavy`` from one correlation
    pass over all columns, and for every column with a heavy entry the
    depth-0 CDF and that circuit's oracle tally, from one preparation of
    all of them. A column's record is bit for bit the one it gets alone.
    Returns that preparation and its query counter, or ``(None, None)``
    when no column is heavy.
    """
    g_sign = np.asarray(g_sign, dtype=np.float64)
    if not np.all(np.abs(g_sign) == 1.0):
        raise ValueError("g_sign must be a +-1 table")
    est = sample_correlations(sample, g_sign).T
    heavy = np.abs(est) >= gamma_target
    for record, row_est, row_heavy in zip(records, est, heavy):
        record.update(est=row_est, heavy=row_heavy, dists={})
    rows = np.flatnonzero(heavy.any(axis=1))
    if not rows.size:
        return None, None
    scratch = QueryCounter()  # the circuits' oracle calls, one share per column
    state = prepare_spectrum_state((g_sign[:, rows] < 0).astype(np.uint8), scratch)
    cdfs = choice_cdf(index_distribution(state)).reshape(rows.size, -1)
    for row, cdf in zip(rows, cdfs):
        records[row]["dists"][0] = (cdf, scratch.quantum_queries // rows.size)
    return state, scratch


def quantum_weak_parity(n, gamma_target, delta, g_sign, sample, counter, rng,
                        record=None) -> WeakHypothesis:
    """Find a parity whose sample correlation with g reaches gamma_target.

    Succeeds with probability at least 1 - delta whenever some parity has
    true correlation magnitude at least 2 * gamma_target; the sample
    threshold sits at gamma_target, splitting that premise in half.

    The initial marked probability is unknown, so attempts follow the
    doubling schedule k = 0, 1, 2, 4, ... capped at ceil(1 / gamma_target).
    Every attempt at depth k is charged the oracle calls the circuit made
    to reach depth k: 2(2k + 1) with this circuit. The attempt loop repeats
    ceil(log2(1/delta)) times before giving up. ``n`` must match the
    sample's cube and ``g_sign`` must be a +-1 table with one entry per point.

    All but the draws is a function of g, the sample and gamma_target,
    kept between calls on one row in ``record`` (a dict, empty at first):
    ``est``, the ``heavy`` mask and, per depth reached, the measurement
    CDF and the oracle tally. A call that finds the record empty fills it
    through :func:`fill_records` with one column, which validates g_sign,
    and extends that preparation to the deeper depths it needs; a record
    already filled is trusted to be g's. It keeps no state; a call that
    goes deeper than its record prepares again from depth 0,
    deterministically. So every attempt is an independent draw from the
    exact distribution of a fresh preparation, billed that circuit's own
    oracle calls.
    """
    if not 0.0 < gamma_target < 0.5:
        raise ValueError("gamma_target must lie in (0, 1/2)")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    g_sign = np.asarray(g_sign, dtype=np.float64)
    if n != sample.n or g_sign.shape != (1 << n,):
        raise ValueError(f"n={n} needs a sample and a target on 2**{n} points")
    if record is None:
        record = {}
    state = None  # this call's preparation of g, extended to each depth the record lacks
    if not record:
        state, scratch = fill_records([record], g_sign[:, None], sample, gamma_target)
    est, heavy, dists = record["est"], record["heavy"], record["dists"]
    if 0 not in dists:  # fill_records prepares exactly the rows with a heavy entry
        raise NoHeavyCoefficient(f"no sampled correlation reaches {gamma_target:g}")
    k_max = max(1, math.ceil(1.0 / gamma_target))
    depths = _doubling_depths(k_max)
    reps = max(1, math.ceil(math.log2(1.0 / delta)))

    deepest, bits = 0, None
    for _ in range(reps):
        for k in depths:
            if k not in dists:
                if bits is None:
                    bits = (g_sign < 0).astype(np.uint8)
                if state is None:
                    scratch = QueryCounter()  # the circuit's oracle calls, read off per depth
                    state = prepare_spectrum_state(bits, scratch)
                while deepest < k:
                    grover_step(state, bits, heavy, scratch)
                    deepest += 1
                dists[k] = (choice_cdf(index_distribution(state)), scratch.quantum_queries)
            cdf, cost = dists[k]
            counter.quantum_queries += cost
            a = int(cdf.searchsorted(rng.random(), side="right"))
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

    Picks the odd integer w nearest v with 1 <= w <= 2**d - 1 and assigns
    the leftover v - w to k. Writing alpha_j = 2 b_j - 1 turns
    w = sum_j alpha_j 2**(d-1-j) into u = (w + 2**d - 1) / 2 = sum_j b_j
    2**(d-1-j), so alpha_j is +1 exactly where bit d-1-j of u is set.
    """
    if d < 1:
        raise ValueError("d must be at least 1")
    m = np.asarray(m_values, dtype=np.float64)
    if not np.all((m > 0.0) & (m <= 1.0)):
        raise ValueError("weights must lie in (0, 1]")
    v = np.floor(np.ldexp(m, d)).astype(np.int64)
    top = (1 << d) - 1
    w = np.where(v % 2 == 1, v, np.where(v + 1 <= top, v + 1, v - 1))
    u = (w + top) >> 1
    alpha = (((u >> np.arange(d - 1, -1, -1)[:, None]) & 1) * 2 - 1).astype(np.int8)
    digits = SignedDigits(d, alpha, v - w, v)
    if np.any(digits.reconstruct() != v) or np.any(np.abs(digits.k) > 1):
        raise AssertionError("signed-digit decomposition failed")
    return digits


def weighted_weak_parity(f_sign, m_values, big_gamma, delta, sample, counter, rng,
                         records=None) -> WeakHypothesis:
    """Find a parity correlated with the weighted target M * f.

    Truncates the weights at depth d = ceil(log2(3 / big_gamma)) and
    splits them into sign bits; whenever some parity has weighted
    correlation at least big_gamma, one bit function carries correlation
    at least big_gamma / 3 with it, which is twice the per-bit search
    target :func:`bit_threshold`. Each distinct bit function (duplicates
    collapse, and early boosting stages produce few distinct weights) is
    searched with :func:`quantum_weak_parity` at failure budget delta over
    the number of distinct rows, unfloored; candidates are then
    verified against the sampled weighted correlation at that same
    threshold and the best verified one is returned, ties toward the
    smaller index. The whole pass retries with fresh randomness up to
    ``RETRIES`` times before giving up.

    ``records`` maps a digit row's int8 bytes to its search record (see
    :func:`quantum_weak_parity`); it is sound while f_sign, the sample and
    big_gamma stay fixed, as within the run that owns it. A call keeps
    its own rows' records, reusing the previous call's, and drops the
    rest, so it holds the rows of at most two consecutive stages. The
    rows without a record are filled before any search, as the columns
    of one :func:`fill_records` call (several when they exceed
    :func:`simulator.batch_columns`).
    """
    if not 0.0 < big_gamma < 1.0:
        raise ValueError("big_gamma must lie in (0, 1)")
    f_sign = np.asarray(f_sign, dtype=np.float64)
    n = sample.n
    d = digit_depth(big_gamma)
    digits = signed_digit_decompose(m_values, d)
    weighted_est = sample_correlations(sample, np.asarray(m_values, dtype=np.float64) * f_sign)
    gamma_bit = bit_threshold(big_gamma)

    first = {}  # f is +-1, so two digit rows alpha[j] * f are equal exactly when alpha[j] are
    for j, row in enumerate(digits.alpha):
        first.setdefault(row.tobytes(), j)
    keys = list(first)
    table = digits.alpha[list(first.values())] * f_sign  # row i is the i-th distinct alpha[j] * f
    delta_bit = delta / len(keys)
    if records is None:
        records = {}
    kept = {key: records.get(key, {}) for key in keys}
    records.clear()
    records.update(kept)
    empty = [i for i, key in enumerate(keys) if not records[key]]
    width = batch_columns(n)
    for start in range(0, len(empty), width):
        batch = empty[start:start + width]
        fill_records([records[keys[i]] for i in batch], table[batch].T, sample, gamma_bit)

    for _ in range(RETRIES):
        candidates = set()
        for key, g_row in zip(keys, table):
            try:
                hyp = quantum_weak_parity(n, gamma_bit, delta_bit, g_row, sample, counter, rng,
                                          record=records[key])
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
