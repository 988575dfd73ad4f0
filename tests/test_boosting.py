import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhslab import QueryCounter, SharedSample, boost, exact_weak_parity, random_dnf
from qhslab import seeds
from qhslab.boolfn import chi
from qhslab.boosting import CombinedHypothesis, StageBudgetExceeded, weight_from_margin
from qhslab.weaklearn import WeakHypothesis


def cube_boost(f_sign, epsilon, gamma, weak_learner, budget=None):
    """boost() with the exact cube as the shared sample. Its loop stops at
    2*epsilon/3, so pass 1.5 times the mean weight to be reached."""
    bits = (f_sign < 0).astype(np.uint8)
    n = f_sign.size.bit_length() - 1
    if budget is None:
        budget = math.ceil(2.0 / (epsilon * gamma**2))
    return boost(f_sign, SharedSample.full_cube(n, bits), epsilon, gamma, budget, weak_learner)


def recording(f_sign, seen):
    """Exact weak learner over the cube that records the weights it gets."""
    def wl(weights):
        seen.append(weights)
        return exact_weak_parity(f_sign, weights)
    return wl


def drawn_sample_size(epsilon, gamma):
    """Enough draws to estimate every stage's mean weight within epsilon/3."""
    return math.ceil(8.0 * math.log(1.0 / (epsilon * gamma) + 2.0) / epsilon**2)


def test_boost_state_theta_range():
    # one stage of a perfect learner moves every margin to 1 - theta
    n, b = 4, 5
    f_sign = chi(b, np.arange(1 << n)).astype(float)
    for gamma in (0.01, 0.1, 0.3, 0.49):
        seen = []
        cube_boost(f_sign, 0.4, gamma, recording(f_sign, seen))
        theta = 1.0 - 2.0 * math.log(seen[1][0]) / math.log(1.0 - gamma)
        assert abs(theta - gamma / (2.0 + gamma)) < 1e-9
        assert 0 < theta <= 0.2
    for gamma in (0.0, 0.5):
        with pytest.raises(ValueError):
            cube_boost(f_sign, 0.4, gamma, recording(f_sign, []), budget=10)


def test_margin_trivials():
    # no hypothesis: margin 0 everywhere; one that agrees everywhere: 1 - theta
    n, b, gamma = 3, 3, 0.25
    f_sign = chi(b, np.arange(1 << n)).astype(float)
    seen = []
    cube_boost(f_sign, 0.3, gamma, recording(f_sign, seen))
    assert np.all(seen[0] == weight_from_margin(np.zeros(1 << n), gamma))
    theta = gamma / (2 + gamma)
    assert np.allclose(seen[1], weight_from_margin(np.full(1 << n, 1.0 - theta), gamma))


def test_margin_matches_incremental_table():
    rng = np.random.default_rng(0)
    n, gamma = 6, 1.0 / 12
    xs = np.arange(1 << n)
    f_sign = (1 - 2 * rng.integers(0, 2, size=1 << n)).astype(float)
    theta = gamma / (2 + gamma)
    table = np.zeros(1 << n)
    stages = 0

    def random_wl(weights):
        nonlocal table, stages
        assert np.array_equal(weights, weight_from_margin(table, gamma))  # bit for bit
        hyp = WeakHypothesis(int(rng.integers(0, 1 << n)), int(rng.choice([-1, 1])), 0.5)
        table = table + f_sign * hyp.values(xs) - theta
        stages += 1
        return hyp

    with pytest.raises(StageBudgetExceeded):
        cube_boost(f_sign, 0.01, gamma, random_wl, budget=20)
    assert stages == 20


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
    combined, _ = cube_boost(labels, 1.5 * 0.1, 1.0 / 12, recording(labels, []))
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
        combined, estimates = cube_boost(labels, 1.5 * epsilon, gamma, recording(labels, seen),
                                         budget=math.ceil(2.0 / (epsilon * gamma**2)))
        err = float(np.mean(combined.sign_table(n) != labels))
        assert err < epsilon
        assert len(combined.hypotheses) <= 2.0 / (epsilon * gamma**2)
        # smoothness: 2**n D_t never exceeds 1/epsilon
        for weights, mean_weight in zip(seen, estimates):
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
        cube_boost(labels, 0.6, 0.1, recording(labels, []), budget=10)
    with pytest.raises(ValueError):
        cube_boost(labels, 0.1, 0.0, recording(labels, []), budget=10)
    bits = np.array([0.0, 1.0, 1.0, 0.0])  # a bit table passed where signs belong
    with pytest.raises(ValueError):
        boost(bits, SharedSample.full_cube(2, bits), 0.1, 0.1, 10, recording(bits, []))


def test_smoothboost_filter_exact_runs():
    n, s, epsilon = 10, 3, 0.1
    gamma = 1.0 / (8 * s + 4)
    budget = math.ceil(2.0 / (epsilon * gamma**2))
    failures = 0
    for seed in range(100):
        formula = random_dnf(n, s, 3, 400 + seed)
        f_sign = formula.sign_table()
        sample = SharedSample.draw(n, drawn_sample_size(epsilon, gamma), formula.truth_table(),
                                   QueryCounter(), seeds.derive(seed, 3))
        combined, _ = boost(f_sign, sample, epsilon, gamma, budget, recording(f_sign, []))
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
        sample = SharedSample.draw(n, drawn_sample_size(epsilon, gamma), formula.truth_table(),
                                   QueryCounter(), seeds.derive(seed, 4))
        seen = []
        _, estimates = boost(f_sign, sample, epsilon, gamma, budget, recording(f_sign, seen))
        for weights, estimate in zip(seen, estimates):
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
    sample = SharedSample.draw(n, drawn_sample_size(epsilon, gamma), formula.truth_table(),
                               QueryCounter(), seeds.derive(0, 5))
    combined, _ = boost(f_sign, sample, epsilon, gamma, math.ceil(2.0 / (epsilon * gamma**2)),
                        recording(f_sign, []))
    stages = len(combined.hypotheses)
    total_margin = sum(f_sign * hyp.values(xs) - theta for hyp in combined.hypotheses)
    vote = combined.vote(xs)
    assert np.allclose(total_margin, stages * (f_sign * vote - theta), atol=1e-10)
    weights = weight_from_margin(total_margin, gamma)
    assert np.all((weights > 0) & (weights <= 1))


signed_parities = st.lists(st.tuples(st.integers(0, 15), st.sampled_from([-1, 1])),
                           min_size=1, max_size=40)


@settings(max_examples=200, deadline=None)
@given(signed_parities, st.data())
def test_vote_tally_matches_per_hypothesis_sum(pairs, data):
    """The tallied vote equals a float sum over the hypotheses, bit for bit."""
    # repeat and cancel some signed parities on purpose
    pairs += [(a, data.draw(st.sampled_from([sign, -sign]))) for a, sign in pairs[:3]]
    hyps = [WeakHypothesis(a, sign, 0.5) for a, sign in pairs]
    xs = np.arange(16)
    reference = np.zeros(16)
    for hyp in hyps:
        reference += hyp.values(xs)
    reference /= len(hyps)
    combined = CombinedHypothesis(hyps)
    assert combined.vote(xs).tobytes() == reference.tobytes()
    signs = np.where(reference >= 0.0, 1.0, -1.0)
    assert combined.sign_table(4).tobytes() == signs.tobytes()


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
