import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qhslab import (QhsConfig, QueryCounter, SharedSample, exact_weak_parity, planted_parity,
                    quantum_weak_parity, random_dnf, to_pm1, wht)
from qhslab import seeds, simulator, weaklearn
from qhslab.boolfn import chi, wht_unscaled
from qhslab.weaklearn import (RETRIES, NoHeavyCoefficient, WeakHypothesis, cdf_at, draw_heavy,
                              fill_records, sample_correlations, sampled_weak_parity,
                              signed_digit_decompose, verdict, weighted_weak_parity)


def parity_bits(n, b):
    return ((np.bitwise_count(np.arange(1 << n) & b)) & 1).astype(np.uint8)


def choice_cdf(probs):
    """Reference: the CDF ``Generator.choice(probs.size, p=probs / probs.sum())``
    builds per call; ``cdf.searchsorted(rng.random(), side="right")`` then draws
    the index it draws. A 2-D ``probs`` gives each row's CDF."""
    cdf = np.cumsum(probs / probs.sum(axis=-1, keepdims=True), axis=-1)
    cdf /= cdf[..., -1:]
    return cdf


def greedy_signed_digits(m_values, d):
    """Reference split: v = floor(2**d m), the odd w nearest v within
    [1, 2**d - 1], then each sign from the remainder of w, one digit
    position at a time; returns (alpha, k, v)."""
    v = np.floor(np.ldexp(np.asarray(m_values, dtype=np.float64), d)).astype(np.int64)
    top = (1 << d) - 1
    w = np.where(v % 2 == 1, v, np.where(v + 1 <= top, v + 1, v - 1))
    alpha = np.empty((d, v.size), dtype=np.int8)
    r = w.copy()
    for j in range(d):
        alpha[j] = np.where(r > 0, 1, -1)
        r = r - alpha[j].astype(np.int64) * (1 << (d - 1 - j))
    assert not np.any(r)
    return alpha, v - w, v


def test_shared_sample_draw_accounting_and_labels():
    n, m = 6, 500
    bits = random_dnf(n, 2, 3, 0).truth_table()
    counter = QueryCounter()
    sample = SharedSample.draw(n, m, counter, np.random.default_rng(1))
    assert counter.classical_queries == m
    assert sample.size == m
    assert SharedSample.full_cube(n, bits).size == 1 << n
    for wrong in (bits[:-1], bits.reshape(8, 8)):  # a table of another shape is refused
        with pytest.raises(ValueError):
            SharedSample.full_cube(n, wrong)
    # float64 counts hold the exact integers, so a weighted sum rounds as the int form's would
    for counts in (sample.counts, SharedSample.full_cube(n, bits).counts):
        assert counts.dtype == np.float64
        assert np.array_equal(counts, counts.astype(np.int64))
        weights = np.random.default_rng(3).uniform(0.0, 1.0, size=1 << n)
        assert (counts @ weights).tobytes() == (counts.astype(np.int64) @ weights).tobytes()


def test_sampled_predicate_exact_cube():
    # the heavy set quantum_weak_parity marks: |sample correlation| >= threshold
    n, b = 6, 21
    bits = parity_bits(n, b)
    sample = SharedSample.full_cube(n, bits)
    heavy = np.abs(sample_correlations(sample, to_pm1(bits).astype(float))) >= 0.5
    assert heavy[b]
    assert heavy.sum() == 1  # a zero threshold: test_quantum_weak_parity_rejects_bad_target


def test_sample_correlations_match_direct_sum_bit_for_bit():
    n, m = 8, 100
    bits = random_dnf(n, 3, 3, 7).truth_table()
    counter = QueryCounter()
    sample = SharedSample.draw(n, m, counter, np.random.default_rng(2))
    values = to_pm1(bits).astype(float)
    fast = sample_correlations(sample, values)
    # direct per-parity sum over the multiset; integer mass keeps both exact
    support = np.flatnonzero(sample.counts)
    direct = np.array([
        float(np.sum(sample.counts[support] * values[support] * chi(a, support))) / m
        for a in range(1 << n)
    ])
    assert np.array_equal(fast, direct)


def test_sampled_predicate_hoeffding_frequency():
    n, b, gamma = 8, 99, 0.125
    bits = planted_parity(n, b, gamma, seed=3)
    values = to_pm1(bits).astype(float)
    m = int(64 / gamma**2)
    hits = 0
    for rep in range(200):
        sample = SharedSample.draw(n, m, QueryCounter(), np.random.default_rng(rep))
        hits += bool(np.abs(sample_correlations(sample, values)[b]) >= gamma)
    assert hits >= 190


def test_quantum_weak_parity_exact_parity_immediate():
    n, b = 8, 140
    bits = parity_bits(n, b)
    sample = SharedSample.full_cube(n, bits)
    counter = QueryCounter()
    hyp = quantum_weak_parity(n, 0.25, 0.05, to_pm1(bits).astype(float), sample,
                              counter, np.random.default_rng(4))
    assert (hyp.a, hyp.sign, hyp.est_advantage) == (b, 1, 1.0)
    assert counter.quantum_queries == 2  # the depth-0 attempt alone


def test_verdict_is_the_one_sign_and_selection_rule():
    est = np.array([0.0, -0.5, 0.25, 0.5, -0.1])
    assert verdict(np.zeros(4)) == WeakHypothesis(0, 1, 0.0)  # sign +1 at zero
    assert verdict(est) == WeakHypothesis(1, -1, 0.5)  # |-0.5| ties 0.5: smaller index
    assert verdict(est, among={4, 3, 2}) == WeakHypothesis(3, 1, 0.5)
    assert verdict(est, 0.1, among=[4]) == WeakHypothesis(4, -1, 0.1)
    with pytest.raises(NoHeavyCoefficient):
        verdict(est, 0.3, among=[2, 4])


def test_quantum_weak_parity_bills_the_circuits_own_oracle_calls(monkeypatch):
    # a stand-in membership map that charges each application twice leaves
    # the state, hence every draw, unchanged and must double every bill
    exact = parity_bits(8, 140)
    planted = planted_parity(10, 37, 1 / 16, seed=11)
    cases = ((8, 0.25, exact, 4), (10, 1 / 16, planted, 0))  # (n, target, bits, rng seed)

    def run():
        out = []
        for n, gamma_target, bits, seed in cases:
            counter = QueryCounter()
            hyp = quantum_weak_parity(n, gamma_target, 0.01, to_pm1(bits).astype(float),
                                      SharedSample.full_cube(n, bits), counter,
                                      np.random.default_rng(seed))
            out.append((hyp.a, counter.quantum_queries))
        return out

    plain = run()
    assert plain == [(140, 2), (198, 2 + 6)]  # depth 0 alone; depth 0, then depth 1
    membership = simulator.apply_membership

    def charged_twice(state, f, counter):
        membership(state, f, counter)
        counter.quantum_queries += 1
        return state

    monkeypatch.setattr(simulator, "apply_membership", charged_twice)
    assert run() == [(a, 2 * queries) for a, queries in plain]


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 4096), st.floats(0.0, 0.9), st.integers(1, 8), st.integers(0, 2**32 - 1),
       st.integers(1, 9))
def test_cached_cdf_draws_what_generator_choice_draws(size, zero_share, power, seed, rows):
    # the searches draw on the ends of choice_cdf's intervals; if numpy's choice ever draws
    # differently, this fails here instead of moving every fingerprint
    make = np.random.default_rng(seed)
    table = make.random((rows, size)) ** power * (make.random((rows, size)) >= zero_share)
    table[np.arange(rows), make.integers(size, size=rows)] += 0.5  # some mass in every row
    probs = table[-1]
    cdf = choice_cdf(probs)
    ours, numpys = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    for _ in range(50):
        assert (int(cdf.searchsorted(ours.random(), side="right"))
                == int(numpys.choice(probs.size, p=probs / probs.sum())))
    # a batch of records takes its CDFs from the rows of one table, bit for bit the row's own
    assert choice_cdf(table).tobytes() == b"".join(choice_cdf(row).tobytes() for row in table)


class FixedDraws:
    """A generator stand-in whose ``random()`` returns the given draws in turn."""

    def __init__(self, draws):
        self.draws = iter(draws)

    def random(self):
        return next(self.draws)


@settings(max_examples=150, deadline=None)
@given(st.integers(3, 48), st.floats(0.0, 0.9), st.floats(0.0, 1.0), st.integers(1, 4),
       st.integers(0, 2**32 - 1), st.integers(1, 40))
@example(3, 0.0, 1.0, 1, 0, 2)  # every index heavy: all adjacent, the first and the last
@example(8, 0.0, 0.0, 2, 1, 6)  # light rows around the forced heavy indices: runs of one
def test_compact_draw_hits_what_the_full_cdf_draws(size, zero_share, heavy_share, rows, seed,
                                                   bill):
    # a record keeps the CDF only at its slots, the heavy indices and the index below each run
    # of them; each draw on it must land on the heavy index searchsorted finds in the full
    # CDF, or miss where that finds a light one
    make = np.random.default_rng(seed)
    table = make.random((rows, size)) * (make.random((rows, size)) >= zero_share)
    heavy = make.random((rows, size)) < heavy_share
    pair, zero = make.integers(size - 1), make.integers(size)
    heavy[0, [0, size - 1, pair, pair + 1, zero]] = True  # first, last, adjacent, zero weight
    table[0, zero] = 0.0
    table[0, (zero + 1) % size] += 0.5  # some weight in every row
    table[1:, 0] += 0.5
    slots = heavy.copy()
    slots[:, :-1] |= heavy[:, 1:]
    counts = slots.sum(axis=1)
    index = np.nonzero(slots)[1]
    at_slots = cdf_at(table.copy(), counts, index)
    bounds = np.cumsum([0, *counts])
    for row in range(rows):
        cdf = choice_cdf(table[row])
        lo, hi = bounds[row], bounds[row + 1]
        assert at_slots[lo:hi].tobytes() == cdf[index[lo:hi]].tobytes()
        ends = (at_slots[lo:hi], bill)
        # every interval end, the double just below it, and a few uniform draws
        draws = np.concatenate([cdf, np.nextafter(cdf, 0.0), [0.0], make.random(8)])
        draws = draws[draws < 1.0]
        counter = QueryCounter()
        rng = FixedDraws(draws)
        for charged, r in enumerate(draws, 1):
            a = int(cdf.searchsorted(r, side="right"))
            hit = draw_heavy(ends, heavy[row, index[lo:hi]], rng, counter)
            assert (None if hit is None else int(index[lo + hit])) == (a if heavy[row, a] else None)
            assert counter.quantum_queries == charged * bill


def test_a_filled_record_holds_a_few_words_per_heavy_index():
    """A filled n = 14 record holds at most 40 bytes per heavy index plus
    2 KB: per slot (each heavy index, and the light index below each run
    of consecutive heavy ones) its index (2 bytes), heavy mark (1),
    estimate (8) and CDF value at depth 0 (8). Measured: 4,176 bytes for
    64 heavy indices in 64 runs, one of them at index 0, so 127 slots,
    the most 64 heavy indices can need. A record that keeps the estimate,
    a heavy mask and the CDF over the whole cube held 279,787 bytes on
    the same target."""
    n = 14
    spread = 0b101010101010  # an AND of six variables none of them adjacent to another
    bits = ((np.arange(1 << n) & spread) == spread).astype(np.uint8)
    sample = SharedSample.full_cube(n, bits)  # 64 coefficients of magnitude 1/32, and 31/32
    fill_records([{}], to_pm1(bits)[:, None], sample, 1 / 32)  # first-call imports, untraced
    record = {}
    tracemalloc.start()
    try:
        fill_records([record], to_pm1(bits)[:, None], sample, 1 / 32)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    cdf, bill = record["ends"][0]
    assert record["heavy"].sum() == 64 and record["index"].size == cdf.size == 127 and bill == 2
    assert held <= 40 * 64 + 2048


def batch_of_targets(n):
    """Nine +-1 target columns on n variables: planted parities at correlation
    1/4, which reach a 1/5 target, between inner-product functions shifted by a
    parity, whose coefficients are at most 2**-(n // 2) in magnitude, which do not."""
    xs = np.arange(1 << n)
    half = n // 2
    inner = np.bitwise_count(xs & (xs >> half) & ((1 << half) - 1)) & 1
    columns = [planted_parity(n, 5 * c + 1, 1 / 8, seed=c) if c % 2 == 0
               else inner ^ parity_bits(n, 3 * c) for c in range(9)]
    return to_pm1(np.stack(columns, axis=1))


@pytest.mark.parametrize("n", [6, 9, 10])
def test_records_filled_in_one_batch_equal_one_column_records(n):
    gamma_target = 0.2
    table = batch_of_targets(n)
    sample = SharedSample.draw(n, 256 << n, QueryCounter(), np.random.default_rng(n))
    alone = []  # each column's record, filled by a search that finds it empty
    for c in range(table.shape[1]):
        record = {}
        try:
            quantum_weak_parity(n, gamma_target, 0.5, table[:, c], sample, QueryCounter(),
                                np.random.default_rng(c), record=record)
        except NoHeavyCoefficient:
            pass
        alone.append(record)
    assert {0 in record["ends"] for record in alone} == {True, False}  # both kinds occur
    for c, record in enumerate(alone):  # a record's slots: the heavy entries of the full
        est = sample_correlations(sample, table[:, c])  # estimate, and one below each run
        index, heavy = record["index"].astype(int), record["heavy"]
        assert index[heavy].tolist() == np.flatnonzero(np.abs(est) >= gamma_target).tolist()
        assert set(index[~heavy] + 1) <= set(index[heavy])  # a light slot lies below a run ...
        assert set(index[heavy] - 1) - {-1} <= set(index)  # ... and one below every run
        assert record["est"].tobytes() == est[index].tobytes()
    for k in range(1, 10):
        batch = [{} for _ in range(k)]
        fill_records(batch, table[:, :k], sample, gamma_target)
        for got, want in zip(batch, alone):
            assert got["index"].tobytes() == want["index"].tobytes()
            assert got["heavy"].tobytes() == want["heavy"].tobytes()
            assert got["est"].tobytes() == want["est"].tobytes()
            assert set(got["ends"]) <= {0} and (0 in got["ends"]) == (0 in want["ends"])
            if 0 in got["ends"]:
                (cdf, bill), (want_cdf, want_bill) = got["ends"][0], want["ends"][0]
                assert cdf.tobytes() == want_cdf.tobytes() and bill == want_bill == 2
    with pytest.raises(ValueError):
        fill_records([{}], table[:, :1] * 0.5, sample, gamma_target)


def test_quantum_weak_parity_planted_recovery_rate():
    n, b, gamma = 10, 37, 0.125
    hits = 0
    for seed in range(100):
        bits = planted_parity(n, b, gamma, 1000 + seed)
        sample = SharedSample.full_cube(n, bits)
        hyp = quantum_weak_parity(n, gamma, 0.05, to_pm1(bits).astype(float), sample,
                                  QueryCounter(), seeds.derive(seed, 7))
        assert hyp.est_advantage >= gamma  # re-checkable from the sample alone
        hits += (hyp.a == b)
    assert hits >= 90


def test_quantum_weak_parity_balanced_flat_spectrum_fails():
    # inner-product function: all 16 coefficients have magnitude exactly 1/4
    n = 4
    xs = np.arange(1 << n)
    bits = (np.bitwise_count((xs & 0b0011) & ((xs >> 2) & 0b0011)) & 1).astype(np.uint8)
    coeffs = wht(to_pm1(bits).astype(float))
    assert np.allclose(np.abs(coeffs), 0.25, atol=1e-12)
    sample = SharedSample.full_cube(n, bits)
    with pytest.raises(NoHeavyCoefficient):
        quantum_weak_parity(n, 0.3, 0.05, to_pm1(bits).astype(float), sample,
                            QueryCounter(), np.random.default_rng(5))


def test_quantum_weak_parity_rejects_bad_target():
    bits = parity_bits(4, 3)
    sample = SharedSample.full_cube(4, bits)
    for gamma_target, delta in ((0.0, 0.05), (0.5, 0.05), (1.0, 0.05),
                                (0.25, 0.0), (0.25, 1.0), (0.25, 5.0)):
        with pytest.raises(ValueError):
            quantum_weak_parity(4, gamma_target, delta, to_pm1(bits).astype(float), sample,
                                QueryCounter(), np.random.default_rng(6))
    planted = planted_parity(8, 19, 0.125, seed=7)
    planted_sample = SharedSample.full_cube(8, planted)
    for n, g_sign in ((3, to_pm1(planted)), (8, to_pm1(bits)),  # n or target off the sample's cube
                      (8, to_pm1(planted) * 0.5)):  # a target that is not +-1
        with pytest.raises(ValueError):
            quantum_weak_parity(n, 0.1, 0.05, g_sign.astype(float), planted_sample,
                                QueryCounter(), np.random.default_rng(6))


def test_signed_digits_worked_examples():
    digits = signed_digit_decompose(np.array([1.0]), 2)
    assert digits.v[0] == 4
    assert list(digits.alpha[:, 0]) == [1, 1]  # 2 + 1 = 3
    assert digits.k[0] == 1                    # 3 + 1 = 4
    digits = signed_digit_decompose(np.array([0.75]), 2)
    assert digits.v[0] == 3
    assert list(digits.alpha[:, 0]) == [1, 1]
    assert digits.k[0] == 0


def test_signed_digits_exhaustive_small_depth():
    d = 3
    values = np.minimum((np.arange((1 << d) + 1) + 0.5) / (1 << d), 1.0)
    digits = signed_digit_decompose(values, d)
    assert np.array_equal(digits.v, np.arange((1 << d) + 1))
    assert np.array_equal(digits.reconstruct(), digits.v)
    assert np.all(np.abs(digits.alpha) == 1)
    assert np.all(np.abs(digits.k) <= 1)


@st.composite
def depth_and_weights(draw):
    """A depth up to 62 and weights mixing m = 1, points of the 2**-d grid
    (where v is exact and even or odd) and arbitrary floats in (0, 1]."""
    d = draw(st.integers(1, 62))
    weight = st.one_of(st.just(1.0),
                       st.integers(1, 1 << d).map(lambda i: math.ldexp(i, -d)),
                       st.floats(0.0, 1.0, exclude_min=True))
    return d, draw(st.lists(weight, min_size=1, max_size=80))


@settings(max_examples=300, deadline=None)
@given(depth_and_weights())
@example((1, [1.0, 0.5, 0.25]))
@example((62, [1.0, 0.5, 2.0**-62, 3 * 2.0**-62, 1 - 2.0**-53, 5e-324]))
@example((9, [1.0] * 8 + [0.5] * 9))  # u past one byte, over more than eight points
def test_signed_digits_closed_form_matches_greedy_reference(case):
    """The planes are the greedy reference's digits as bits, bit for bit,
    and alpha is derived from them as 2 * planes - 1."""
    d, weights = case
    digits = signed_digit_decompose(weights, d)
    alpha, k, v = greedy_signed_digits(weights, d)
    assert digits.planes.dtype == np.uint8 and digits.planes.shape == (d, len(weights))
    assert np.array_equal(digits.planes, (alpha + 1) // 2)
    assert digits.alpha.dtype == np.int8
    assert np.array_equal(digits.alpha, 2 * digits.planes.astype(np.int8) - 1)
    assert np.array_equal(digits.k, k) and np.array_equal(digits.v, v)
    assert np.array_equal(digits.reconstruct(), v)


def test_signed_digits_validation():
    with pytest.raises(ValueError):
        signed_digit_decompose(np.array([0.0]), 2)
    with pytest.raises(ValueError):
        signed_digit_decompose(np.array([1.5]), 2)
    for d in (0, 63, 64):  # 2**63 overflows the split's int64 integers
        with pytest.raises(ValueError, match="d must lie in"):
            signed_digit_decompose(np.array([0.5]), d)
    with pytest.raises(ValueError, match="weights must lie in"):
        signed_digit_decompose(np.array([0.5, np.nan]), 3)


def test_weighted_reduces_to_plain_search_when_weights_are_one():
    n, b = 8, 77
    bits = parity_bits(n, b)
    f_sign = to_pm1(bits).astype(float)
    sample = SharedSample.full_cube(n, bits)
    big_gamma = 0.3
    counter = QueryCounter()
    hyp = weighted_weak_parity(f_sign, big_gamma, 0.05, sample,  # g = f under unit weights
                               counter, seeds.derive(0, 1))
    plain = quantum_weak_parity(n, big_gamma / 6.0, 0.05, f_sign, sample,
                                QueryCounter(), seeds.derive(0, 1))
    assert hyp.a == plain.a == b
    assert hyp.sign == 1 and hyp.est_advantage == 1.0


def test_weighted_takes_one_rows_table_for_every_digit_row_on_its_first_stage():
    n, b, big_gamma = 8, 77, 0.3  # digit depth 4
    bits = parity_bits(n, b)
    f_sign = to_pm1(bits).astype(float)
    sample = SharedSample.full_cube(n, bits)
    records = weaklearn.SearchRecords()
    tables = []
    # one distinct digit row (unit weights), then four: 1111, 1100, 1110 and 1101
    for m_values in (np.ones(1 << n), np.tile([1.0, 0.5, 0.75, 0.625], 1 << (n - 2))):
        hyp = weighted_weak_parity(m_values * f_sign, big_gamma, 0.05, sample, QueryCounter(),
                                   seeds.derive(0, 1), records=records)
        assert hyp.a == b
        tables.append(records.buffers._tables["rows"])
    assert tables[0] is tables[1]
    assert tables[0].size == weaklearn.digit_depth(big_gamma) << n


def test_weighted_searches_each_distinct_digit_row_once_in_order(monkeypatch):
    n = 6
    f_sign = to_pm1(parity_bits(n, 9)).astype(float)
    m_values = np.repeat([1.0, 0.5, 0.75, 0.5], 16)  # digits 1111, 1100, 1110 at d = 4
    digits = signed_digit_decompose(m_values, 4)
    rows = []  # the distinct rows alpha[j] * f, first occurrence first
    for row in digits.alpha * f_sign:
        if not any(np.array_equal(row, seen) for seen in rows):
            rows.append(row)
    assert len(rows) == 3
    searched = []

    def recording(n, gamma_target, delta, g_sign, sample, counter, rng, record=None):
        searched.append((delta, g_sign))
        raise NoHeavyCoefficient("recorded")

    split = weaklearn.signed_digit_decompose
    split_weights = []  # the weights the stage reads off its target g = m * f

    def recording_split(weights, d, *buffers):
        split_weights.append(weights.copy())  # the stage's buffers hold |g| until its fills
        return split(weights, d, *buffers)

    monkeypatch.setattr(weaklearn, "quantum_weak_parity", recording)
    monkeypatch.setattr(weaklearn, "signed_digit_decompose", recording_split)
    sample = SharedSample.full_cube(n, parity_bits(n, 9))
    # each row gets its unfloored share of delta, also of a stage_delta() below 1e-12
    tiny = QhsConfig(n=10, s=2, epsilon=0.1, stage_scale=4e12).stage_delta()
    for stage_delta in (0.06, tiny):
        searched.clear()
        with pytest.raises(NoHeavyCoefficient):  # d = ceil(log2(3 / 0.3)) = 4
            weighted_weak_parity(m_values * f_sign, 0.3, stage_delta, sample, QueryCounter(),
                                 seeds.derive(0, 1))
        assert len(searched) == RETRIES * len(rows)
        for (delta, g_sign), row in zip(searched, rows * RETRIES):
            assert delta == stage_delta / 3 and np.array_equal(g_sign, row)
            assert g_sign.itemsize == 1  # the rows are signed bytes, never a float table
        assert split_weights[-1].tobytes() == m_values.tobytes()  # |g| is m bit for bit


def test_weighted_candidate_meets_exact_pigeonhole_floor():
    n, b = 8, 201
    bits = parity_bits(n, b)
    f_sign = to_pm1(bits).astype(float)
    rng = np.random.default_rng(8)
    m_values = rng.uniform(0.5, 1.0, size=1 << n)
    big_gamma = 0.2
    sample = SharedSample.full_cube(n, bits)
    hyp = weighted_weak_parity(m_values * f_sign, big_gamma, 0.05, sample,
                               QueryCounter(), seeds.derive(1, 1))
    exact = wht(m_values * f_sign)
    assert abs(exact[hyp.a]) >= big_gamma / 3.0


def test_weighted_constant_weight_edge_meets_pigeonhole():
    """Weighted correlation exactly Gamma at the planted parity: some bit
    function must carry Gamma/3, and a candidate must verify."""
    n, b = 8, 33
    bits = parity_bits(n, b)
    f_sign = to_pm1(bits).astype(float)
    big_gamma = 0.125
    m_values = np.full(1 << n, big_gamma)  # exact weighted coefficient at b
    exact = wht(m_values * f_sign)
    assert abs(exact[b]) == big_gamma
    d = max(1, math.ceil(math.log2(3.0 / big_gamma)))
    digits = signed_digit_decompose(m_values, d)
    bit_best = max(
        float(np.max(np.abs(wht(digits.alpha[j].astype(float) * f_sign))))
        for j in range(d))
    assert bit_best >= big_gamma / 3.0 - 1e-12
    sample = SharedSample.full_cube(n, bits)
    hyp = weighted_weak_parity(m_values * f_sign, big_gamma, 0.05, sample,
                               QueryCounter(), seeds.derive(2, 1))
    assert abs(exact[hyp.a]) >= big_gamma / 6.0


def test_weighted_failure_when_nothing_heavy():
    n = 4
    xs = np.arange(1 << n)
    bits = (np.bitwise_count((xs & 0b0011) & ((xs >> 2) & 0b0011)) & 1).astype(np.uint8)
    f_sign = to_pm1(bits).astype(float)
    sample = SharedSample.full_cube(n, bits)
    with pytest.raises(NoHeavyCoefficient):
        # every weighted coefficient is 0.25 * 0.1; demand far more
        weighted_weak_parity(np.full(1 << n, 0.1) * f_sign, 0.9, 0.05, sample,
                             QueryCounter(), seeds.derive(3, 1))


def test_exact_weak_parity_baseline():
    n, b = 7, 66
    bits = parity_bits(n, b)
    f_sign = to_pm1(bits).astype(float)
    hyp = exact_weak_parity(f_sign)  # g = f under unit weights
    assert (hyp.a, hyp.sign, hyp.est_advantage) == (b, 1, 1.0)


def test_exact_weak_parity_fills_the_given_spectrum_buffer():
    """With ``out`` the target g is transformed in the caller's buffer, which
    then holds the unscaled spectrum, and the verdict is the one a fresh
    table gives, its advantage the normalized coefficient bit for bit. With
    ``out`` the input itself, g is transformed in place; otherwise g is left
    as it was."""
    n = 9
    f_sign = random_dnf(n, 3, 3, 11).sign_table()
    g_values = np.random.default_rng(4).uniform(0.1, 1.0, size=1 << n) * f_sign
    before = g_values.tobytes()
    spectrum = np.empty(1 << n)
    for _ in range(2):  # a buffer already holding a spectrum is overwritten
        hyp = exact_weak_parity(g_values, out=spectrum)
        assert hyp == exact_weak_parity(g_values)
        assert g_values.tobytes() == before
        assert spectrum.tobytes() == wht_unscaled(g_values).tobytes()
        assert hyp.est_advantage == abs(wht(g_values)[hyp.a])
    lent = g_values.copy()
    assert exact_weak_parity(lent, out=lent) == hyp
    assert lent.tobytes() == spectrum.tobytes()


def test_exact_vs_weighted_agree_on_random_instances():
    """Cross-oracle agreement: the advantage the searched learner reports is
    the sampled estimate of the exact spectrum value at its parity, so the
    two agree within sampling slack; the exact baseline dominates both."""
    n, m = 8, 200_000
    slack = 5.0 / math.sqrt(m)
    big_gamma = 0.05
    for trial in range(50):
        formula = random_dnf(n, 2, 3, 5000 + trial)
        f_sign = formula.sign_table()
        rng = np.random.default_rng(trial)
        m_values = rng.uniform(0.25, 1.0, size=1 << n)
        sample = SharedSample.draw(n, m, QueryCounter(), seeds.derive(trial, 9))
        found = weighted_weak_parity(m_values * f_sign, big_gamma, 0.05, sample,
                                     QueryCounter(), seeds.derive(trial, 2))
        exact = wht(m_values * f_sign)
        assert abs(found.est_advantage - abs(exact[found.a])) <= slack
        assert abs(exact[found.a]) >= big_gamma / 6.0 - slack
        best = exact_weak_parity(m_values * f_sign)
        assert best.est_advantage >= abs(exact[found.a]) - 1e-12


def test_sampled_weak_parity():
    n, b = 8, 129
    bits = parity_bits(n, b)
    f_sign = to_pm1(bits).astype(float)
    sample = SharedSample.full_cube(n, bits)
    hyp = sampled_weak_parity(sample, np.ones(1 << n) * f_sign, 0.5)
    assert (hyp.a, hyp.sign) == (b, 1)
    with pytest.raises(NoHeavyCoefficient):
        sampled_weak_parity(sample, np.zeros(1 << n), 0.5)


def test_doubling_depths_match_the_doubling_loop():
    for k_max in range(1, 600):
        depths, k = [0], 1
        while k <= k_max:
            depths.append(k)
            k *= 2
        assert weaklearn._doubling_depths(k_max) == tuple(depths)
