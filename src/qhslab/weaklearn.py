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
from .simulator import (Buffers, QueryCounter, batch_columns, grover_step, index_distribution,
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
    value = float(est[a])
    if abs(value) < accept:
        raise NoHeavyCoefficient(f"best correlation {abs(value):g} below threshold {accept:g}")
    return WeakHypothesis(int(a), 1 if value >= 0 else -1, abs(value))


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


def sample_correlations(sample: SharedSample, values, buffers: Buffers | None = None) -> np.ndarray:
    """Sample correlation with every parity at once, per column of a
    ``(2**n, k)`` table of values.

    Transforms the count-weighted value vector in place, in F order, so
    each column as it would be alone, and divides by the draw count. This
    equals the per-parity sum over the sample term for term: the mass
    vector is accumulated exactly before the transform runs. The values
    may have any numeric dtype (a 1-byte +-1 table, say); they become
    float64 only in that product, with the bits a float64 table gives.
    The result lives in the ``state`` table of ``buffers`` (new ones by
    default) and the transform's work table in their ``scratch``; it is
    valid until that table is taken again.
    """
    if sample.size == 0:
        raise ValueError("sample is empty")
    buffers = Buffers() if buffers is None else buffers
    values = np.asarray(values)
    table = buffers.take("state", values.shape[::-1]).T  # F order
    mass = np.multiply(sample.counts.reshape((-1,) + (1,) * (values.ndim - 1)), values,
                       out=table, order="F")  # iterating in C order would cost 4x at 16 columns
    wht_unscaled(mass, out=mass, scratch=buffers.take("scratch", mass.size))
    mass /= sample.size
    return mass


@functools.lru_cache(maxsize=64)  # one entry per search target in use
def _doubling_depths(k_max: int) -> tuple:
    """0, 1, 2, 4, ... up to k_max; built once per k_max."""
    return (0,) + tuple(1 << j for j in range(k_max.bit_length()))


def cdf_at(probs, counts, index) -> np.ndarray:
    """The measurement CDF of each row of ``probs``, a ``(k, 2**n)`` table
    of weights, overwritten, at a few of its indices: row i's at the next
    ``counts[i]`` entries of ``index``, increasing.

    The CDF is the one ``Generator.choice(2**n, p=p / p.sum())`` builds for
    a row p: formed here in the table itself, and its entries at ``index``
    divided by the row's last entry as ``choice`` divides the whole CDF,
    so they have its bits, in one array, row after row.
    """
    size = probs.shape[-1]
    probs /= probs.sum(axis=-1, keepdims=True)
    np.cumsum(probs, axis=-1, out=probs)
    at = np.repeat(np.arange(0, probs.size, size), counts)  # each row's first entry, then ...
    at += index  # ... each index's entry
    cdf = probs.reshape(-1).take(at)
    del at
    cdf /= np.repeat(probs[:, -1], counts)
    return cdf


def draw_heavy(ends, heavy, rng, counter: QueryCounter):
    """One measurement of a prepared circuit, from a record's ``ends[k]``
    ``(cdf, bill)`` and its ``heavy`` mask (see :func:`quantum_weak_parity`):
    charges the circuit's bill and returns the slot j that the draw ``r =
    rng.random()`` lands on when it is heavy, or None.

    The full CDF is nondecreasing and ends at exactly 1.0, and ``choice``
    draws the first index whose CDF value exceeds r. The slots are every
    heavy index and the index just below each run of consecutive heavy
    ones, so the first slot whose value exceeds r is that index when it
    is heavy, and a light slot or none when it is not: a heavy index a is
    drawn exactly when ``cdf[a - 1] <= r < cdf[a]``, and a zero-weight
    one never."""
    cdf, bill = ends
    counter.quantum_queries += bill
    j = int(cdf.searchsorted(rng.random(), "right"))
    return j if j < len(heavy) and heavy[j] else None


def fill_records(records, g_sign, sample, gamma_target, buffers: Buffers | None = None) -> tuple:
    """Fill the empty search records ``records[c]`` (see
    :func:`quantum_weak_parity`) from column c of ``g_sign``, a ``(2**n, k)``
    +-1 table of any numeric dtype, read as it is and validated here once:
    the slots' ``index``, ``heavy`` and ``est`` from one correlation pass
    over all columns, which forms the float values in its own buffer, and
    for every column with a heavy entry the depth-0 CDF at its slots and
    that circuit's oracle tally, from one preparation of all of them,
    whose CDFs are formed in its measurement table and read at the slots,
    all rows at once. The correlation table, the state and the
    measurement table live in ``buffers`` (new ones by default), so a
    caller that lends the same object to every fill allocates no 2**n
    table per fill. A record holds no array over the cube: with its CDF
    at depth 0, 19 bytes per slot up to n = 16, against 17 bytes per
    point for an estimate, a mask and a CDF over the cube. A column's
    record is bit for bit the one it gets alone, whatever the table's
    dtype. Returns that preparation and its query counter, or ``(None,
    None)`` when no column is heavy.
    """
    g_sign = np.asarray(g_sign)
    if not np.all(np.abs(g_sign) == 1):
        raise ValueError("g_sign must be a +-1 table")
    buffers = Buffers() if buffers is None else buffers
    est = sample_correlations(sample, g_sign, buffers).T  # (k, 2**n), C-contiguous
    k, size = est.shape
    mask = np.abs(est, out=buffers.take("scratch", est.shape)) >= gamma_target
    slots = mask.copy()  # the heavy indices, and the light one below each run of them
    slots[:, :-1] |= mask[:, 1:]
    flat = slots.reshape(-1).nonzero()[0]
    del slots
    heavy = mask.reshape(-1)[flat]
    values = est.reshape(-1)[flat]
    index = (flat & (size - 1)).astype(np.uint16 if size <= 1 << 16 else np.uint32)
    bounds = flat.searchsorted(np.arange(0, (k + 1) * size, size)).tolist()  # per column
    del flat
    for record, lo, hi in zip(records, bounds, bounds[1:]):
        record.update(index=index[lo:hi], heavy=heavy[lo:hi], est=values[lo:hi], ends={})
    rows = [c for c in range(k) if bounds[c + 1] > bounds[c]]
    if not rows:
        return None, None
    scratch = QueryCounter()  # the circuits' oracle calls, one share per column
    bits = g_sign.T[rows] < 0  # C-contiguous, so its transpose is the gates' layout
    state = prepare_spectrum_state(bits.T, scratch, buffers=buffers)
    dists = index_distribution(state).reshape(len(rows), -1)
    cdf = cdf_at(dists, [bounds[c + 1] - bounds[c] for c in rows], index)
    bill = scratch.quantum_queries // len(rows)
    for c in rows:
        records[c]["ends"][0] = (cdf[bounds[c]:bounds[c + 1]], bill)
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
    kept between calls on one row in ``record`` (a dict, empty at first),
    in O(|heavy|) entries over its slots, the heavy indices and the
    light index just below each run of consecutive heavy ones: their
    ``index`` in increasing order (2 bytes each up to n = 16), the mask
    ``heavy`` that picks out the heavy ones, ``est`` at them and, per
    depth reached, ``ends[k]``: the measurement CDF at the slots (see
    :func:`cdf_at`), which holds both ends of every heavy index's
    interval, and the oracle tally. A draw reads no more
    (:func:`draw_heavy`). A call that finds the record empty fills it
    through :func:`fill_records` with one column, which validates g_sign,
    and extends that preparation to the deeper depths it needs; a record
    already filled is trusted to be g's. It keeps no state; a call that
    goes deeper than its record prepares again from depth 0,
    deterministically, marking the heavy indices again. So every attempt
    is an independent draw from the exact distribution of a fresh
    preparation, billed that circuit's own oracle calls. The preparation
    a call makes, to fill its record or to go deeper than it, lives on
    buffers of the call's own, which every depth it reaches reuses.
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
    index, heavy, ends = record["index"], record["heavy"], record["ends"]
    if 0 not in ends:  # fill_records prepares exactly the rows with a heavy entry
        raise NoHeavyCoefficient(f"no sampled correlation reaches {gamma_target:g}")
    k_max = max(1, math.ceil(1.0 / gamma_target))
    depths = _doubling_depths(k_max)
    reps = max(1, math.ceil(math.log2(1.0 / delta)))

    deepest, bits = 0, None
    for _ in range(reps):
        for k in depths:
            if k not in ends:
                if bits is None:
                    bits = g_sign < 0
                    marked = np.zeros(bits.size, dtype=bool)
                    marked[index[heavy]] = True
                if state is None:
                    scratch = QueryCounter()  # the circuit's oracle calls, read off per depth
                    state = prepare_spectrum_state(bits, scratch, buffers=Buffers())
                while deepest < k:
                    grover_step(state, bits, marked, scratch)
                    deepest += 1
                dist = index_distribution(state)[None]
                ends[k] = (cdf_at(dist, [index.size], index), scratch.quantum_queries)
            j = draw_heavy(ends[k], heavy, rng, counter)
            if j is not None:
                hyp = verdict(record["est"], among=(j,))
                hyp.a = int(index[j])
                return hyp
    raise NoHeavyCoefficient(
        f"attempt budget exhausted without a verified parity (target {gamma_target:g})")


class SearchRecords(dict):
    """A run's search records, a digit row's packed bit plane -> its record
    (see :func:`weighted_weak_parity`), and the :class:`simulator.Buffers`
    that the run's stages reuse, as the booster's g is one buffer for the
    whole run."""

    def __init__(self):
        super().__init__()
        self.buffers = Buffers()


_SPLIT_INTS = tuple(np.dtype(f"<i{size}") for size in (2, 4, 8))  # 2**(d + 1) to d = 14, 30, 62


def signed_digit_decompose(m_values, d: int, buffers: Buffers | None = None) -> np.ndarray:
    """Decompose weights in (0, 1] at bit depth d, 1 <= d <= 62, into
    signed digits; returns them as the (d, 2**n) uint8 bit planes of u.

    Per point, v = floor(2**d * m) is written as sum_j alpha_j 2**(d-1-j)
    + k with every alpha_j in {-1, +1} and k in {-1, 0, +1}: w = min(v |
    1, 2**d - 1) is the odd integer nearest v with 1 <= w <= 2**d - 1,
    and k = v - w. Writing alpha_j = 2 b_j - 1 turns w = sum_j alpha_j
    2**(d-1-j) into u = (w + 2**d - 1) / 2 = sum_j b_j 2**(d-1-j), so
    alpha_j is +1 exactly where bit d-1-j of u is set: plane j, formed by
    one call that shifts u right by d-1-j into each plane and one mask of
    all planes to their low bit. The post-condition is O(2**n): 0 <= u <
    2**d and |k| <= 1, and no (d, 2**n) integer table is built. The
    integers are two rows, v (then k) and w (then u), of the narrowest
    signed type that holds 2**(d + 1), 2 bytes per point each up to
    d = 14, in the ``state`` table of ``buffers`` (new ones by default);
    the planes are the ``rows`` table, valid until it is taken again, so
    a caller that lends the same object every stage allocates neither
    after the first.
    """
    if not 1 <= d <= 62:
        raise ValueError("d must lie in [1, 62]")
    m = np.asarray(m_values, dtype=np.float64)
    if not (m.min(initial=1.0) > 0.0 and m.max(initial=1.0) <= 1.0):  # a NaN fails both
        raise ValueError("weights must lie in (0, 1]")
    buffers = Buffers() if buffers is None else buffers
    v, w = buffers.take("state", (2, m.size), _SPLIT_INTS[(d >= 15) + (d >= 31)])
    np.multiply(m, float(1 << d), out=v, casting="unsafe")  # exact; truncation floors positives
    top = (1 << d) - 1
    np.bitwise_or(v, 1, out=w)
    np.minimum(w, top, out=w)
    k = np.subtract(v, w, out=v)  # v is not read again
    u = w  # u = (w + top) / 2, formed in w's buffer
    u += top
    u >>= 1
    if not (u.min(initial=0) >= 0 and u.max(initial=0) <= top
            and k.min(initial=0) >= -1 and k.max(initial=0) <= 1):
        raise AssertionError("signed-digit decomposition failed")
    planes = buffers.take("rows", (d, m.size), np.uint8)
    shifts = np.arange(d - 1, -1, -1, dtype=u.dtype)[:, None]  # plane j is bit d-1-j of u
    np.right_shift(u, shifts, out=planes, casting="unsafe")
    planes &= 1
    return planes


def weighted_weak_parity(g_values, big_gamma, delta, sample, counter, rng,
                         records) -> WeakHypothesis:
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
    built.

    ``records``, the run's :class:`SearchRecords`, maps a digit row's
    packed bit plane (``np.packbits``, 2**n / 8 bytes) to its search
    record (see :func:`quantum_weak_parity`); it is sound while f, the
    sample and big_gamma stay fixed, as within the run that owns it. A
    call keeps its own rows' records, reusing the previous call's, and
    drops the rest, so it holds the rows of at most two consecutive
    stages. The rows without a record are filled before any search, as
    the columns of one :func:`fill_records` call (several when they
    exceed :func:`simulator.batch_columns`). The stage's tables live in
    the records' buffers: |g| is formed in their ``scratch`` table and
    split into integers in their ``state`` table and bit planes in their
    ``rows`` table (see :func:`signed_digit_decompose`). Each distinct
    plane is moved up to its rank in that table, and the rows are formed
    over it in place; after that the fills' correlation passes and
    preparations, and last the weighted correlation, reuse the ``state``
    and ``scratch`` tables. So a run's stages allocate no float table of
    the cube's size once the first has run, except where a search goes
    deeper than its record: that preparation lives on buffers of the
    search's own, as the weighted correlation may hold the ``state``
    table by then.
    """
    if not 0.0 < big_gamma < 1.0:
        raise ValueError("big_gamma must lie in (0, 1)")
    g_values = np.asarray(g_values, dtype=np.float64)
    n = sample.n
    buffers = records.buffers
    weights = np.abs(g_values, out=buffers.take("scratch", g_values.size))
    planes = signed_digit_decompose(weights, digit_depth(big_gamma), buffers)
    gamma_bit = bit_threshold(big_gamma)

    first = {}  # f is +-1, so two digit rows alpha[j] * f are equal exactly when planes[j] are
    for j, key in enumerate(np.packbits(planes, axis=1)):
        first.setdefault(key.tobytes(), j)
    keys = list(first)
    for i, j in enumerate(first.values()):  # j >= i, so no plane is overwritten before it is read
        if j != i:
            planes[i] = planes[j]
    # row i is the i-th distinct alpha[j] * f as one signed byte per point, in place of its
    # plane: its oracle bits (where it is -1) are planes[j] XOR [f > 0], and its values
    # 1 - 2 * those bits
    table = planes[:len(keys)].view(np.int8)
    table ^= g_values > 0
    table *= -2
    table += 1
    delta_bit = delta / len(keys)
    kept = {key: records.get(key, {}) for key in keys}
    records.clear()
    records.update(kept)
    empty = [i for i, key in enumerate(keys) if not records[key]]
    width = batch_columns(n)
    for start in range(0, len(empty), width):
        batch = empty[start:start + width]
        fill_records([records[keys[i]] for i in batch], table[batch].T, sample, gamma_bit, buffers)

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
            if weighted_est is None:  # the fills are done with the state table
                weighted_est = sample_correlations(sample, g_values, buffers)
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
