import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhslab import QueryCounter, SharedSample, boost, exact_weak_parity, random_dnf
from qhslab import QhsConfig, learn_dnf, seeds, sieve
from qhslab.boolfn import chi
from qhslab.boosting import (CombinedHypothesis, StageBudgetExceeded, advance_tally,
                             agreement_bits, tally_weights, weight_from_margin)
from qhslab.weaklearn import WeakHypothesis


def cube_boost(f_sign, epsilon, gamma, weak_learner, budget=None):
    """boost() with the exact cube as the shared sample. Its loop stops at
    2*epsilon/3, so pass 1.5 times the mean weight to be reached."""
    bits = (f_sign < 0).astype(np.uint8)
    n = f_sign.size.bit_length() - 1
    if budget is None:
        budget = math.ceil(2.0 / (epsilon * gamma**2))
    return boost(f_sign, SharedSample.full_cube(n, bits), epsilon, gamma, budget, weak_learner)


def recording(seen):
    """Exact weak learner over the cube that records the weighted target g
    it gets. boost() lends the same buffer every stage and the learner
    transforms it in place, so keep a copy."""
    def wl(g_values):
        seen.append(g_values.copy())
        return exact_weak_parity(g_values, out=g_values)
    return wl


def reference_weights(agreed, stages, gamma):
    """The booster's former gather: the rule's weight at every possible
    count of agreeing stages, gathered unsigned by each point's count."""
    net = 2 * np.arange(stages + 1) - stages
    table = weight_from_margin(net - stages * (gamma / (2.0 + gamma)), gamma)
    return np.take(table, agreed, mode="clip")


def reference_vote(combined, xs):
    """The majority vote whose sign ``sign_table`` gives: the mean hypothesis
    value, in [-1, 1], tallied exactly in int64 per distinct parity."""
    xs = np.asarray(xs, dtype=np.int64)
    net = Counter()
    for hyp in combined.hypotheses:
        net[hyp.a] += hyp.sign
    total = np.zeros(xs.shape, dtype=np.int64)
    for a, count in net.items():
        total += count * chi(a, xs)
    return total / len(combined.hypotheses)


def drawn_sample_size(epsilon, gamma):
    """Enough draws to estimate every stage's mean weight within epsilon/3."""
    return math.ceil(8.0 * math.log(1.0 / (epsilon * gamma) + 2.0) / epsilon**2)


def test_boost_state_theta_range():
    # one stage of a perfect learner moves every margin to 1 - theta
    n, b = 4, 5
    f_sign = chi(b, np.arange(1 << n)).astype(float)
    for gamma in (0.01, 0.1, 0.3, 0.49):
        seen = []
        cube_boost(f_sign, 0.4, gamma, recording(seen))
        theta = 1.0 - 2.0 * math.log(abs(seen[1][0])) / math.log(1.0 - gamma)
        assert abs(theta - gamma / (2.0 + gamma)) < 1e-9
        assert 0 < theta <= 0.2
    for gamma in (0.0, 0.5):
        with pytest.raises(ValueError):
            cube_boost(f_sign, 0.4, gamma, recording([]), budget=10)


def test_margin_trivials():
    # no hypothesis: margin 0 everywhere; one that agrees everywhere: 1 - theta
    n, b, gamma = 3, 3, 0.25
    f_sign = chi(b, np.arange(1 << n)).astype(float)
    seen = []
    cube_boost(f_sign, 0.3, gamma, recording(seen))
    assert np.all(seen[0] == weight_from_margin(np.zeros(1 << n), gamma) * f_sign)
    theta = gamma / (2 + gamma)
    assert np.allclose(seen[1], weight_from_margin(np.full(1 << n, 1.0 - theta), gamma) * f_sign)


def test_margin_matches_incremental_table():
    """Each stage's target is f times the rule at the integer margins, bit
    for bit, and its magnitudes stay within roundoff of the rule at a float
    margin accumulated stage by stage."""
    rng = np.random.default_rng(0)
    n, gamma = 6, 1.0 / 12
    xs = np.arange(1 << n)
    f_sign = (1 - 2 * rng.integers(0, 2, size=1 << n)).astype(float)
    theta = gamma / (2 + gamma)
    agreed = np.zeros(1 << n, dtype=np.int64)  # stages whose hypothesis agreed with f
    table = np.zeros(1 << n)
    stages = 0

    def random_wl(g_values):
        nonlocal table, stages
        exact = weight_from_margin((2 * agreed - stages) - stages * theta, gamma)
        assert g_values.tobytes() == (exact * f_sign).tobytes()
        accumulated = weight_from_margin(table, gamma)
        assert np.allclose(np.abs(g_values), accumulated, rtol=1e-12, atol=0.0)
        hyp = WeakHypothesis(int(rng.integers(0, 1 << n)), int(rng.choice([-1, 1])), 0.5)
        agreed[f_sign * hyp.values(xs) > 0] += 1
        table = table + f_sign * hyp.values(xs) - theta
        stages += 1
        return hyp

    with pytest.raises(StageBudgetExceeded):
        cube_boost(f_sign, 0.01, gamma, random_wl, budget=20)
    assert stages == 20


agreement_runs = st.integers(1, 64).flatmap(
    lambda points: st.tuples(
        st.lists(st.booleans(), min_size=points, max_size=points),
        st.lists(st.lists(st.booleans(), min_size=points, max_size=points),
                 min_size=1, max_size=200)))


@settings(max_examples=200, deadline=None)
@given(agreement_runs, st.floats(0.0, 0.5, exclude_min=True, exclude_max=True))
def test_tally_weights_are_the_rule_at_the_exact_margins(runs, gamma):
    """The tally holds 2u + [f < 0], and its gather is f times the rule at
    (2u - t) - t * theta bit for bit: the unsigned reference gather times f.
    Its magnitudes lie in (0, 1], are 1 wherever the margin is at most 0,
    and never grow with u."""
    negative, rows = runs
    theta = gamma / (2 + gamma)
    f_sign = np.where(negative, -1.0, 1.0)
    bits = np.array(rows, dtype=bool)
    tally = np.array(negative, dtype=np.int32)
    for t, row in enumerate(bits, start=1):
        advance_tally(tally, np.packbits(row))
        agreed = bits[:t].sum(axis=0)
        assert np.array_equal(tally, 2 * agreed + np.array(negative))
        margin = (2 * agreed - t) - t * theta
        g_values = tally_weights(tally, t, gamma)
        assert g_values.tobytes() == (weight_from_margin(margin, gamma) * f_sign).tobytes()
        assert g_values.tobytes() == (reference_weights(agreed, t, gamma) * f_sign).tobytes()
        weights = np.abs(g_values)
        assert np.all((weights > 0.0) & (weights <= 1.0))
        assert np.all(weights[margin <= 0.0] == 1.0)
    table = tally_weights(2 * np.arange(t + 1), t, gamma)
    assert np.all(np.diff(table) <= 0.0)
    assert tally_weights(2 * np.arange(t + 1) + 1, t, gamma).tobytes() == (-table).tobytes()


def test_boost_lends_one_writable_target_buffer():
    """Every stage gets the same writable array holding f times the
    reference gather bit for bit, whatever the previous learner left in it,
    and every estimate equals ``counts @ weights / size`` bit for bit."""
    n, gamma = 7, 1.0 / 20
    f_sign = random_dnf(n, 2, 3, 17).sign_table()
    sample = SharedSample.draw(n, 5000, QueryCounter(), seeds.derive(1, 6))
    agreed = np.zeros(1 << n, dtype=np.int64)
    lent, weights = [], []

    def wl(g_values):
        lent.append(g_values)
        assert g_values is lent[0]
        assert g_values.flags.writeable
        weights.append(reference_weights(agreed, len(lent) - 1, gamma))
        assert g_values.tobytes() == (weights[-1] * f_sign).tobytes()
        hyp = exact_weak_parity(g_values, out=g_values)
        agreed[f_sign * hyp.values(np.arange(1 << n)) > 0.0] += 1
        g_values[::2] = np.nan  # the booster reads nothing from the buffer after the call
        return hyp

    _, estimates = boost(f_sign, sample, 0.2, gamma, 2000, wl)
    weights.append(reference_weights(agreed, len(lent), gamma))
    assert len(estimates) == len(weights) == len(lent) + 1 > 10
    for estimate, w in zip(estimates, weights):
        assert estimate == float(sample.counts @ w / sample.size)


def boost_outcome(f_sign, sample, epsilon, gamma, budget):
    """The exact learner's hypotheses under :func:`boost`, then the estimates'
    bytes, or None where the stage budget ran out."""
    hypotheses = []

    def wl(g_values):
        hypotheses.append(exact_weak_parity(g_values, out=g_values))
        return hypotheses[-1]

    try:
        _, estimates = boost(f_sign, sample, epsilon, gamma, budget, wl)
    except StageBudgetExceeded:
        return hypotheses, None
    return hypotheses, np.array(estimates).tobytes()


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 9), st.integers(1, 2), st.integers(1, 4096), st.floats(0.1, 0.4),
       st.integers(0, 2**32 - 1))
def test_an_int8_target_boosts_as_its_float64_form(n, s, draws, epsilon, seed):
    """f as one signed byte per point, the form a run passes, gives the same
    hypotheses and bit-equal estimates as the same f in float64."""
    f_sign = random_dnf(n, s, min(3, n), seed).sign_table()
    sample = SharedSample.draw(n, draws, QueryCounter(), np.random.default_rng(seed))
    gamma = 1.0 / (8 * s + 4)
    wide = boost_outcome(f_sign, sample, epsilon, gamma, 300)
    assert len(wide[0]) > 0
    assert boost_outcome(f_sign.astype(np.int8), sample, epsilon, gamma, 300) == wide


@pytest.mark.parametrize("mode", ["quantum_sim", "classical_exact", "classical_sampled"])
def test_a_learner_that_spoils_the_lent_target_changes_no_report(monkeypatch, mode):
    """A weak learner that writes NaN over the whole buffer after choosing
    its parity leaves the run's report byte for byte as it was."""
    formula = random_dnf(8, 2, 3, 7)
    cfg = QhsConfig(n=8, s=2, epsilon=0.2, mode=mode, seed=3)
    clean = learn_dnf(formula, cfg)[1]

    def spoiling_boost(f_sign, sample, epsilon, gamma, budget, weak_learner):
        def spoiling(g_values):
            hyp = weak_learner(g_values)
            g_values.fill(np.nan)
            return hyp
        return boost(f_sign, sample, epsilon, gamma, budget, spoiling)

    monkeypatch.setattr(sieve, "boost", spoiling_boost)
    spoiled = learn_dnf(formula, cfg)[1]
    assert spoiled.to_json() == clean.to_json()
    assert spoiled.to_csv() == clean.to_csv()


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10).flatmap(lambda n: st.tuples(
    st.lists(st.sampled_from([-1.0, 1.0]), min_size=1 << n, max_size=1 << n),
    st.integers(0, (1 << n) - 1), st.sampled_from([-1, 1]))))
def test_agreement_bits_match_the_signed_table(args):
    """The parity-bit form packs the bits of f_sign * sign * chi(a, x) > 0."""
    values, a, sign = args
    f_sign = np.array(values)
    hyp = WeakHypothesis(a, sign, 0.5)
    want = np.packbits(f_sign * hyp.values(np.arange(f_sign.size)) > 0.0)
    assert agreement_bits(f_sign, a, sign).tobytes() == want.tobytes()


def float_margin_boost(f_sign, sample, epsilon, gamma, budget, weak_learner):
    """The booster with a float margin accumulated stage by stage, lending
    the weighted target weights * f: the reference the integer tally must
    reproduce decision for decision."""
    f_sign = np.asarray(f_sign, dtype=np.float64)
    theta = gamma / (2.0 + gamma)
    margins = np.zeros(f_sign.size)
    hypotheses, estimates = [], []
    while True:
        weights = weight_from_margin(margins, gamma)
        estimates.append(float(sample.counts @ weights / sample.size))
        if estimates[-1] <= 2.0 * epsilon / 3.0:
            return CombinedHypothesis(hypotheses), estimates
        if len(hypotheses) >= budget:
            raise StageBudgetExceeded("budget")
        hyp = weak_learner(weights * f_sign)
        hypotheses.append(hyp)
        margins += f_sign * hyp.values(np.arange(f_sign.size)) - theta


def test_exact_learner_parities_do_not_depend_on_the_margin_arithmetic(monkeypatch):
    """The exact learner picks the same signed parities, stage for stage, from
    the tally's weights as from a float margin; the ladder's n = 14 base."""
    formula = random_dnf(14, 2, 3, seeds.derive_int(0, 10, 2))
    cfg = QhsConfig(n=14, s=2, epsilon=0.1, mode="classical_exact", seed=0)
    tally = learn_dnf(formula, cfg)[1]
    monkeypatch.setattr(sieve, "boost", float_margin_boost)
    reference = learn_dnf(formula, cfg)[1]
    assert len(tally.stages) == len(reference.stages)
    assert [(r.parity, r.sign) for r in tally.stages] == [(r.parity, r.sign) for r in reference.stages]
    assert tally.termination == reference.termination == "converged"


def test_weight_rule_values():
    assert weight_from_margin(np.array([-3.0]), 0.25)[0] == 1.0
    assert weight_from_margin(np.array([0.0]), 0.25)[0] == 1.0
    assert weight_from_margin(np.array([2.0]), 0.25)[0] == 0.75
    margins = np.linspace(-5, 40, 200)
    weights = weight_from_margin(margins, 0.1)
    assert np.all((weights > 0) & (weights <= 1))


def test_combine_trivials_and_tie():
    b = 5
    single = CombinedHypothesis([WeakHypothesis(b, 1, 1.0)])
    xs = np.arange(16)
    assert np.array_equal(single.sign_table(4), chi(b, xs))
    triple = CombinedHypothesis([WeakHypothesis(b, 1, 1.0)] * 3)
    assert np.array_equal(triple.sign_table(4), chi(b, xs))
    tied = CombinedHypothesis([WeakHypothesis(0, 1, 1.0), WeakHypothesis(0, -1, 1.0)])
    assert np.all(tied.sign_table(4) == 1.0)  # vote sums to zero everywhere
    with pytest.raises(ValueError):
        CombinedHypothesis([])


def test_smoothboost_sample_perfect_learner():
    # the target is itself a parity: every stage accepts it with margin 1
    # and the vote is exact once the weights drain below epsilon
    n, b = 6, 9
    points = np.arange(1 << n)
    labels = chi(b, points).astype(float)
    combined, _ = cube_boost(labels, 1.5 * 0.1, 1.0 / 12, recording([]))
    assert {(h.a, h.sign) for h in combined.hypotheses} == {(b, 1)}
    assert np.array_equal(combined.sign_table(n), labels)


def test_smoothboost_sample_random_dnfs():
    n, epsilon = 10, 0.1
    for trial in range(5):
        s = 1 + trial % 4
        gamma = 1.0 / (8 * s + 4)
        formula = random_dnf(n, s, 3, 300 + trial)
        labels = formula.sign_table()
        seen = []
        combined, estimates = cube_boost(labels, 1.5 * epsilon, gamma, recording(seen),
                                         budget=math.ceil(2.0 / (epsilon * gamma**2)))
        err = float(np.mean(combined.sign_table(n) != labels))
        assert err < epsilon
        assert len(combined.hypotheses) <= 2.0 / (epsilon * gamma**2)
        # smoothness: 2**n D_t never exceeds 1/epsilon
        for weights, mean_weight in zip(map(np.abs, seen), estimates):
            assert weights.max() / (weights.mean()) <= 1.0 / epsilon + 1e-9
            assert abs(weights.mean() - mean_weight) < 1e-12


def test_smoothboost_sample_budget_error():
    n = 4
    labels = chi(5, np.arange(1 << n)).astype(float)

    def useless_wl(weights):
        return WeakHypothesis(0, 1, 0.0)  # constant +1 against a balanced parity

    with pytest.raises(StageBudgetExceeded):
        cube_boost(labels, 1.5 * 0.2, 0.1, useless_wl, budget=math.ceil(2.0 / (0.2 * 0.01)))


def test_smoothboost_sample_validation():
    labels = np.ones(4)
    with pytest.raises(ValueError):
        cube_boost(labels, 0.6, 0.1, recording([]), budget=10)
    with pytest.raises(ValueError):
        cube_boost(labels, 0.1, 0.0, recording([]), budget=10)
    bits = np.array([0.0, 1.0, 1.0, 0.0])  # a bit table passed where signs belong
    with pytest.raises(ValueError):
        boost(bits, SharedSample.full_cube(2, bits), 0.1, 0.1, 10, recording([]))


def test_smoothboost_filter_exact_runs():
    n, s, epsilon = 10, 3, 0.1
    gamma = 1.0 / (8 * s + 4)
    budget = math.ceil(2.0 / (epsilon * gamma**2))
    failures = 0
    for seed in range(100):
        formula = random_dnf(n, s, 3, 400 + seed)
        f_sign = formula.sign_table()
        sample = SharedSample.draw(n, drawn_sample_size(epsilon, gamma),
                                   QueryCounter(), seeds.derive(seed, 3))
        combined, _ = boost(f_sign, sample, epsilon, gamma, budget, recording([]))
        err = float(np.mean(combined.sign_table(n) != f_sign))
        failures += (err >= epsilon)
    assert failures <= 5


def test_smoothboost_filter_smoothness_and_estimates():
    n, s, epsilon = 10, 2, 0.1
    gamma = 1.0 / (8 * s + 4)
    budget = math.ceil(2.0 / (epsilon * gamma**2))
    within = 0
    total = 0
    for seed in range(10):
        formula = random_dnf(n, s, 3, 500 + seed)
        f_sign = formula.sign_table()
        sample = SharedSample.draw(n, drawn_sample_size(epsilon, gamma),
                                   QueryCounter(), seeds.derive(seed, 4))
        seen = []
        _, estimates = boost(f_sign, sample, epsilon, gamma, budget, recording(seen))
        for weights, estimate in zip(map(np.abs, seen), estimates):
            # exact sup norm of 2**n D_t with the estimated normalizer
            assert weights.max() / estimate <= 3.0 / epsilon + 1e-9
            total += 1
            within += (abs(weights.mean() - estimate) <= epsilon / 3.0)
    assert within >= 0.95 * total


def test_margin_identity_after_termination():
    """Total margin equals stages times (vote margin minus theta)."""
    n, s, epsilon = 8, 2, 0.15
    gamma = 1.0 / 20
    theta = gamma / (2 + gamma)
    formula = random_dnf(n, s, 3, 42)
    f_sign = formula.sign_table()
    xs = np.arange(1 << n)
    sample = SharedSample.draw(n, drawn_sample_size(epsilon, gamma),
                               QueryCounter(), seeds.derive(0, 5))
    combined, _ = boost(f_sign, sample, epsilon, gamma, math.ceil(2.0 / (epsilon * gamma**2)),
                        recording([]))
    stages = len(combined.hypotheses)
    total_margin = sum(f_sign * hyp.values(xs) - theta for hyp in combined.hypotheses)
    vote = reference_vote(combined, xs)
    assert np.allclose(total_margin, stages * (f_sign * vote - theta), atol=1e-10)
    weights = weight_from_margin(total_margin, gamma)
    assert np.all((weights > 0) & (weights <= 1))


signed_parities = st.lists(st.tuples(st.integers(0, 15), st.sampled_from([-1, 1])),
                           min_size=1, max_size=40)


@settings(max_examples=200, deadline=None)
@given(signed_parities, st.data())
def test_vote_tally_matches_per_hypothesis_sum(pairs, data):
    """The vote tallied per distinct parity equals a float sum over the
    hypotheses, bit for bit, and sign_table is its sign."""
    # repeat and cancel some signed parities on purpose
    pairs += [(a, data.draw(st.sampled_from([sign, -sign]))) for a, sign in pairs[:3]]
    hyps = [WeakHypothesis(a, sign, 0.5) for a, sign in pairs]
    xs = np.arange(16)
    reference = np.zeros(16)
    for hyp in hyps:
        reference += hyp.values(xs)
    reference /= len(hyps)
    combined = CombinedHypothesis(hyps)
    assert reference_vote(combined, xs).tobytes() == reference.tobytes()
    signs = np.where(reference >= 0.0, 1.0, -1.0)
    assert combined.sign_table(4).tobytes() == signs.tobytes()


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 9).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(0, (1 << n) - 1), st.sampled_from([-1, 1])),
                         min_size=1, max_size=60))), st.integers(0, 3))
def test_sign_table_is_the_sign_of_the_vote(args, repeats):
    """The int32 parity-bit tally gives the vote's sign, a tied vote +1, also
    where a parity's net count is negative or cancels to zero."""
    n, pairs = args
    pairs = pairs + [(a, -sign) for a, sign in pairs[:repeats]]  # cancel some
    pairs = pairs + [(a, -1) for a, _ in pairs[:repeats]] * 3     # drive some counts negative
    combined = CombinedHypothesis([WeakHypothesis(a, sign, 0.5) for a, sign in pairs])
    xs = np.arange(1 << n)
    want = np.where(reference_vote(combined, xs) >= 0, 1, -1)
    got = combined.sign_table(n)
    assert got.dtype == np.float64
    assert np.array_equal(got, want)


def test_sign_table_ties_resolve_to_plus_one():
    """Opposite parities cancel exactly on half the cube and tie there."""
    combined = CombinedHypothesis([WeakHypothesis(3, 1, 0.5), WeakHypothesis(5, -1, 0.5)])
    xs = np.arange(16)
    vote = reference_vote(combined, xs)
    assert np.any(vote == 0.0)
    assert np.array_equal(combined.sign_table(4), np.where(vote >= 0, 1.0, -1.0))


margins = st.lists(st.one_of(st.floats(-50, 50), st.sampled_from([0.0, -0.0, 1e-300, -1e-300])),
                   min_size=1, max_size=64)


@settings(max_examples=200, deadline=None)
@given(margins, st.floats(1e-6, 0.5, exclude_max=True))
def test_weight_rule_matches_two_branch_form(values, gamma):
    """One clipped power equals the rule with an explicit 1 below zero margin."""
    values = np.array(values)
    reference = np.where(values < 0.0, 1.0, (1.0 - gamma) ** (np.maximum(values, 0.0) / 2.0))
    weights = weight_from_margin(values, gamma)
    assert weights.tobytes() == reference.tobytes()
    assert np.all(weights[values < 0.0] == 1.0)
