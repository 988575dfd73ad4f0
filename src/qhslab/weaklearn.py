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

from .boolfn import chi, top_index, wht_unscaled
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
    """Uniform sample of the cube stored as per-assignment multiplicities.

    ``counts[x]`` is how often assignment x was drawn, and ``size`` the
    number of draws, ``counts.sum()``, set once by the constructor that
    knows it. The counts are float64 holding exact integers, so products
    with float64 tables (the booster's ``counts @ weights`` every stage)
    take no cast and round as the integer form would. The learners read
    the labels off the target table itself, so the sample stores none.
    The multiset form keeps every correlation estimate one weighted
    transform, independent of the number of draws. Drawing
    charges one classical query per draw; an estimate charges nothing
    further, which is the point of sharing the sample.
    """

    n: int
    counts: np.ndarray
    size: int

    @classmethod
    def draw(cls, n, m, counter: QueryCounter, rng) -> "SharedSample":
        """m uniform draws with replacement, each charged as one oracle query."""
        if m < 1:
            raise ValueError("sample size must be positive")
        counts = rng.multinomial(int(m), np.full(1 << n, 1.0 / (1 << n))).astype(np.float64)
        counter.classical_queries += int(m)
        return cls(n, counts, int(m))

    @classmethod
    def full_cube(cls, n, f_bits) -> "SharedSample":
        """Every assignment exactly once; the exact-sample case used by
        oracle tests (no query charge is recorded). ``f_bits``, the
        target's table, must have one entry per assignment."""
        if np.shape(f_bits) != (1 << n,):
            raise ValueError(f"f_bits must have 2**{n} entries")
        return cls(n, np.ones(1 << n), 1 << n)


def sample_correlations(sample: SharedSample, values) -> np.ndarray:
    """Sample correlation with every parity at once, per column of a
    ``(2**n, k)`` table of values.

    Transforms the count-weighted value vector in place, in F order, so
    each column as it would be alone, and divides by the draw count. This
    equals the per-parity sum over the sample term for term: the mass
    vector is accumulated exactly before the transform runs. The values
    may have any numeric dtype (a 1-byte +-1 table, say); they become
    float64 only in that product, with the bits a float64 table gives.
    """
    if sample.size == 0:
        raise ValueError("sample is empty")
    values = np.asarray(values)
    mass = np.multiply(sample.counts.reshape((-1,) + (1,) * (values.ndim - 1)), values, order="F")
    wht_unscaled(mass, out=mass)
    mass /= sample.size
    return mass


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
    +-1 table of any numeric dtype, read as it is and validated here once:
    ``est`` and ``heavy`` from one correlation pass over all columns, which
    forms the float values in its own buffer, and for every column with a
    heavy entry the depth-0 CDF and that circuit's oracle tally, from one
    preparation of all of them. A column's record is bit for bit the one
    it gets alone, whatever the table's dtype. Returns that preparation and
    its query counter, or ``(None, None)`` when no column is heavy.
    """
    g_sign = np.asarray(g_sign)
    if not np.all(np.abs(g_sign) == 1):
        raise ValueError("g_sign must be a +-1 table")
    est = sample_correlations(sample, g_sign).T
    heavy = np.abs(est) >= gamma_target
    for record, row_est, row_heavy in zip(records, est, heavy):
        record.update(est=row_est, heavy=row_heavy, dists={})
    rows = np.flatnonzero(heavy.any(axis=1))
    if not rows.size:
        return None, None
    scratch = QueryCounter()  # the circuits' oracle calls, one share per column
    state = prepare_spectrum_state((g_sign[:, rows] < 0).view(np.uint8), scratch)
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
    sample's cube and ``g_sign`` must be a +-1 table with one entry per
    point, of any numeric dtype; a 1-byte table is read as it is, with no
    float64 copy.

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
    g_sign = np.asarray(g_sign)
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
                    bits = (g_sign < 0).view(np.uint8)
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
    """Exact signed-digit form of truncated weights, held as bit planes.

    Per point, ``v = floor(2**d * M)`` is written as
    ``sum_j alpha[j] * 2**(d-1-j) + k`` with alpha entries in {-1, +1}
    and k in {-1, 0, +1}. The identity is exact in integers. The digits
    are stored as ``planes``, one byte per point and digit: row j is 1
    exactly where bit d-1-j of u = (v - k + 2**d - 1) / 2 is set, and
    ``alpha`` is derived from it as ``2 * planes - 1``.
    """

    d: int
    planes: np.ndarray  # (d, N) uint8 bits of u, the highest first
    k: np.ndarray       # (N,)
    v: np.ndarray       # (N,) truncated integers

    @property
    def alpha(self) -> np.ndarray:
        """(d, N) int8 signs, ``2 * planes - 1``."""
        return self.planes.view(np.int8) * 2 - 1

    def reconstruct(self) -> np.ndarray:
        weights = (1 << np.arange(self.d - 1, -1, -1, dtype=np.int64))
        return weights @ self.alpha.astype(np.int64) + self.k


_LANE_LOW_BITS = np.uint64(0x0101010101010101)  # the low bit of each byte of a 64-bit lane


def signed_digit_decompose(m_values, d: int) -> SignedDigits:
    """Decompose weights in (0, 1] at bit depth d into the bit planes of u.

    Picks the odd integer w = min(v | 1, 2**d - 1) nearest v with
    1 <= w <= 2**d - 1 and assigns the leftover v - w to k. Writing
    alpha_j = 2 b_j - 1 turns w = sum_j alpha_j 2**(d-1-j) into
    u = (w + 2**d - 1) / 2 = sum_j b_j 2**(d-1-j), so alpha_j is +1
    exactly where bit d-1-j of u is set: the digit rows are u's d bit
    planes. They are read off u's low bytes with the bytes of eight
    points packed in one 64-bit lane, so one shift and mask moves eight
    points' bits at once. The post-condition is O(2**n): 0 <= u < 2**d
    and |v - w| <= 1, which is exactly ``reconstruct() == v`` with every
    k in range, and builds no (d, 2**n) integer table.
    """
    if d < 1:
        raise ValueError("d must be at least 1")
    m = np.asarray(m_values, dtype=np.float64)
    if not (m.min(initial=1.0) > 0.0 and m.max(initial=1.0) <= 1.0):  # a NaN fails both
        raise ValueError("weights must lie in (0, 1]")
    v = np.empty(m.shape, dtype=np.int64)
    np.multiply(m, float(1 << d), out=v, casting="unsafe")  # exact; truncation floors positives
    top = (1 << d) - 1
    w = v | 1
    np.minimum(w, top, out=w)
    k = v - w
    u = w  # u = (w + top) / 2, formed in w's buffer
    u += top
    u >>= 1
    if not (u.min(initial=0) >= 0 and u.max(initial=0) <= top
            and k.min(initial=0) >= -1 and k.max(initial=0) <= 1):
        raise AssertionError("signed-digit decomposition failed")
    bit = np.arange(d - 1, -1, -1)  # plane j is bit d-1-j of u, bit & 7 of u's byte bit >> 3
    low_bytes = u.astype("<i8", copy=False).view(np.uint8).reshape(-1, 8)[:, :(d + 7) // 8]
    lanes = np.zeros((low_bytes.shape[1], -(-u.size // 8)), dtype=np.uint64)  # row b: byte b
    lanes.view(np.uint8)[:, :u.size] = low_bytes.T
    planes = lanes[bit >> 3]
    planes >>= (bit & 7).astype(np.uint64)[:, None]
    planes &= _LANE_LOW_BITS
    return SignedDigits(d, planes.view(np.uint8)[:, :u.size], k, v)


def weighted_weak_parity(g_values, big_gamma, delta, sample, counter, rng,
                         records=None) -> WeakHypothesis:
    """Find a parity correlated with the weighted target g = M * f.

    g is the booster's lent target: its magnitude is the weight M and its
    sign f's, as M > 0 and f is +-1. Truncates the weights at depth
    d = ceil(log2(3 / big_gamma)) and splits them into sign bits
    (:func:`signed_digit_decompose`); whenever some parity has weighted
    correlation at least big_gamma, one bit function carries correlation
    at least big_gamma / 3 with it, which is twice the per-bit search
    target :func:`bit_threshold`. Each distinct bit function (duplicates
    collapse, and early boosting stages produce few distinct weights) is
    searched with :func:`quantum_weak_parity` at failure budget delta over
    the number of distinct rows, unfloored; candidates are then
    verified against the sampled weighted correlation of g at that same
    threshold and the best verified one is returned, ties toward the
    smaller index. That correlation is formed once per call, when the
    first candidates need it, so it is not held through the records'
    preparations. The whole pass retries with fresh randomness up to
    ``RETRIES`` times before giving up.

    The bit function of digit j is alpha[j] * f. Its oracle bits (where
    it is -1) are planes[j] XOR [f > 0], and the stage holds its distinct
    rows as one signed byte per point; no float table of the rows is
    built. Of the split it keeps only ``planes``, and those only until
    the distinct rows are copied out, so its int64 ``k`` and ``v`` and
    the float |g| it splits are gone before any record is filled.
    ``records`` maps a digit row's packed bit plane
    (``np.packbits``, 2**n / 8 bytes) to its search record (see
    :func:`quantum_weak_parity`); it is sound while f, the sample and
    big_gamma stay fixed, as within the run that owns it. A call keeps
    its own rows' records, reusing the previous call's, and drops the
    rest, so it holds the rows of at most two consecutive stages. The
    rows without a record are filled before any search, as the columns
    of one :func:`fill_records` call (several when they exceed
    :func:`simulator.batch_columns`).
    """
    if not 0.0 < big_gamma < 1.0:
        raise ValueError("big_gamma must lie in (0, 1)")
    g_values = np.asarray(g_values, dtype=np.float64)
    n = sample.n
    planes = signed_digit_decompose(np.abs(g_values), digit_depth(big_gamma)).planes
    gamma_bit = bit_threshold(big_gamma)

    first = {}  # f is +-1, so two digit rows alpha[j] * f are equal exactly when planes[j] are
    for j, key in enumerate(np.packbits(planes, axis=1)):
        first.setdefault(key.tobytes(), j)
    keys = list(first)
    # row i is the i-th distinct alpha[j] * f as one signed byte per point: its oracle bits
    # (where it is -1) are planes[j] XOR [f > 0], and its values 1 - 2 * those bits
    table = planes[list(first.values())].view(np.int8)
    del planes
    table ^= g_values > 0
    table *= -2
    table += 1
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

    weighted_est = None  # formed once, when the first candidates need it
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
            if weighted_est is None:
                weighted_est = sample_correlations(sample, g_values)
            try:
                return verdict(weighted_est, gamma_bit, candidates)
            except NoHeavyCoefficient:
                continue
    raise NoHeavyCoefficient(
        f"no candidate parity verified at weighted threshold {gamma_bit:g}")


def exact_weak_parity(g_values, out=None) -> WeakHypothesis:
    """Exact argmax of the correlation with the weighted target g = M * f
    over the full cube.

    The oracle baseline: never fails while a heavy coefficient exists.
    g is transformed in ``out`` (a float64 buffer of the cube's length,
    overwritten; a new array by default), in place without a copy when
    ``out is g_values``, so a caller that lends the same buffer every
    stage allocates no table per call. ``out`` then holds the unscaled
    spectrum ``wht_unscaled(g_values)``: the verdict is taken on it, and
    only the advantage is divided by 2**n. Scaling by a power of two is
    exact, so parity, sign and advantage are those of ``wht``.
    """
    spectrum = wht_unscaled(g_values, out=out)
    hyp = verdict(spectrum)
    hyp.est_advantage /= spectrum.size
    return hyp


def sampled_weak_parity(sample: SharedSample, g_values, accept: float) -> WeakHypothesis:
    """Argmax of the sampled correlations with the weighted target g,
    verified at ``accept``."""
    return verdict(sample_correlations(sample, g_values), accept)
