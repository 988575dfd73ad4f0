import itertools
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qhslab import (best_parity, boolfn, heavy_coeffs, planted_parity, random_dnf, seeds,
                    simulator, to_pm1, wht)
from qhslab.boolfn import (DnfFormula, butterfly_axis0, chi, dnf_from_json, dnf_to_json,
                           load_dnf, mux_dnf, top_index, wht_unscaled)
from qhslab.sieve import QhsConfig, learn_dnf


def brute_force_eval(formula, x):
    """Independent evaluator: expand assignments into bit tuples."""
    bits = [(x >> i) & 1 for i in range(formula.n)]
    value = False
    for term in formula.terms:
        value = value or all(bits[v] == (0 if neg else 1) for v, neg in term)
    return int(value)


def naive_spectrum(table):
    """O(4**n) double sum, the oracle for the fast transform."""
    table = np.asarray(table, dtype=float)
    size = table.size
    out = np.zeros(size)
    for a in range(size):
        total = 0.0
        for x in range(size):
            total += table[x] * (-1) ** bin(a & x).count("1")
        out[a] = total / size
    return out


def radix2_axis0(a):
    """Reference kernel: the in-place radix-2 butterfly, one pass per index bit."""
    m = a.shape[0]
    rest = a.shape[1:]
    h = 1
    while h < m:
        a4 = a.reshape((m // (2 * h), 2, h) + rest)
        low = a4[:, 0] - a4[:, 1]
        a4[:, 0] += a4[:, 1]
        a4[:, 1] = low
        h *= 2
    return a


def test_eval_single_term():
    formula = DnfFormula(2, [[(0, False), (1, True)]])  # x0 and not x1
    table = formula.truth_table()
    assert table[0b01] == 1
    assert table[0b11] == 0
    assert table[0b00] == 0


def test_eval_empty_formula_is_false():
    formula = DnfFormula(3, [])
    assert np.array_equal(formula.truth_table(), np.zeros(8))


def test_eval_matches_brute_force():
    formulas = [DnfFormula(3, [[(0, False), (2, True)], [(1, False)]])]
    formulas += [random_dnf(6, s, 3, 60 + s) for s in (1, 2, 4)]
    for formula in formulas:
        assert np.array_equal(formula.truth_table(),
                              [brute_force_eval(formula, x) for x in range(1 << formula.n)])


def test_formula_validation():
    with pytest.raises(ValueError):
        DnfFormula(2, [[(2, False)]])
    with pytest.raises(ValueError):
        DnfFormula(2, [[(0, False), (0, True)]])


def test_to_pm1():
    assert to_pm1(0) == 1
    assert to_pm1(1) == -1
    formula = DnfFormula(3, [[(0, False)], [(1, True), (2, False)]])
    table = formula.truth_table()
    for x in range(8):
        assert to_pm1(int(table[x])) == (-1) ** brute_force_eval(formula, x)


def test_chi_basics():
    assert all(chi(0, x) == 1 for x in range(16))
    assert chi(1, 1) == -1
    xs = np.arange(4)
    assert np.array_equal(chi(0b10, xs), [1, 1, -1, -1])


def test_chi_character_identity():
    n = 4
    xs = np.arange(1 << n)
    for a in range(1 << n):
        for y in range(1 << n):
            assert np.array_equal(chi(a, xs) * chi(a, y), chi(a, xs ^ y))


def test_wht_of_parity_is_point_mass():
    n, b = 5, 19
    table = chi(b, np.arange(1 << n)).astype(float)
    coeffs = wht(table)
    want = np.zeros(1 << n)
    want[b] = 1.0
    assert np.allclose(coeffs, want, atol=1e-12)


def test_wht_of_constant():
    coeffs = wht(np.ones(16))
    assert coeffs[0] == 1.0
    assert np.allclose(coeffs[1:], 0.0, atol=1e-15)


def test_wht_matches_naive_double_sum():
    rng = np.random.default_rng(11)
    table = to_pm1(rng.integers(0, 2, size=256)).astype(float)
    assert np.allclose(wht(table), naive_spectrum(table), atol=1e-12)


def test_wht_rejects_bad_length():
    with pytest.raises(ValueError):
        wht(np.ones(12))


def transform_tolerance(n, scale):
    """Each output sums 2**n terms of magnitude at most ``scale``; 1e-13 of
    that bound is about 450 ulps, above the roundoff of any summation order
    the kernels use and far below the error of a misplaced index."""
    return 1e-13 * (1 << n) * scale


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 14), st.sampled_from([(), (4,), (2, 3)]),
       st.sampled_from([1e-3, 1.0, 1e6]), st.integers(0, 2**32))
@example(6, (), 1.0, 0)
@example(7, (), 1.0, 0)
@example(8, (), 1.0, 0)
@example(7, (4,), 1.0, 0)
@example(8, (2, 3), 1.0, 0)
@example(14, (4,), 1.0, 0)
def test_blocked_kernel_matches_radix2_reference(n, trailing, scale, seed):
    rng = np.random.default_rng(seed)
    values = scale * rng.standard_normal((1 << n,) + trailing)
    got = values.copy()
    assert butterfly_axis0(got) is got
    want = radix2_axis0(values.copy())
    assert np.allclose(got, want, rtol=0.0, atol=transform_tolerance(n, np.abs(values).max()))
    # +-1 input has integer sums, exact under any summation order
    signs = np.where(values >= 0.0, 1.0, -1.0)
    assert np.array_equal(butterfly_axis0(signs.copy()), radix2_axis0(signs.copy()))


def test_kernel_rejects_bad_layout():
    with pytest.raises(ValueError):
        butterfly_axis0(np.ones(12))
    with pytest.raises(ValueError):
        butterfly_axis0(np.ones((8, 2))[:, 0])  # strided: a reshape would copy, not write back


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 14), st.integers(0, 2**32))
@example(7, 0)
@example(8, 0)
def test_unscaled_butterfly_is_scaled_involution(n, seed):
    rng = np.random.default_rng(seed)
    table = rng.standard_normal(1 << n)
    twice = wht_unscaled(wht_unscaled(table))
    tol = transform_tolerance(n, (1 << n) * np.abs(table).max())
    assert np.allclose(twice, (1 << n) * table, rtol=0.0, atol=tol)
    block = rng.standard_normal((1 << n, 4))
    twice = butterfly_axis0(butterfly_axis0(block.copy()))
    tol = transform_tolerance(n, (1 << n) * np.abs(block).max())
    assert np.allclose(twice, (1 << n) * block, rtol=0.0, atol=tol)


def test_exact_learner_parities_do_not_depend_on_the_kernel(monkeypatch):
    """Exact-mode ties are decided by the tie rule, not by the kernel's roundoff.

    The formula has the shape of the benchmark's exact ladder base; with a
    plain argmax tie rule this run's parities differ between the kernels
    from stage 27 on.
    """
    formula = random_dnf(14, 2, 3, seeds.derive_int(0, 10, 2))
    cfg = QhsConfig(n=14, s=2, epsilon=0.1, mode="classical_exact", seed=0)
    blocked = learn_dnf(formula, cfg)[1]
    monkeypatch.setattr(boolfn, "butterfly_axis0", radix2_axis0)
    monkeypatch.setattr(simulator, "butterfly_axis0", radix2_axis0)
    radix2 = learn_dnf(formula, cfg)[1]
    assert [(r.parity, r.sign) for r in blocked.stages] == [(r.parity, r.sign) for r in radix2.stages]


def test_top_index_tie_rule():
    assert top_index([1.0, 1.0 + 1e-13]) == 0  # roundoff-sized gap: a tie, smaller index
    assert top_index([-1.0 - 1e-13, 1.0]) == 0
    assert top_index([1.0, -(1.0 + 1e-6)]) == 1  # a real gap: the larger magnitude
    assert top_index([0.0, 0.0]) == 0
    assert top_index([0.5, 2.0, 2.0 - 1e-12, 2.0]) == 1


def test_top_index_rejects_empty_and_non_finite():
    with pytest.raises(ValueError):
        top_index([])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            top_index([0.5, bad, 0.25])


def test_parseval():
    rng = np.random.default_rng(5)
    for _ in range(10):
        table = rng.uniform(-1, 1, size=1 << 7)
        coeffs = wht(table)
        assert abs(np.sum(coeffs**2) - np.mean(table**2)) < 1e-10


def test_heavy_coeffs_exact_parity():
    n, b = 4, 9
    table = chi(b, np.arange(1 << n)).astype(float)
    assert heavy_coeffs(table, 0.5) == [(b, 1.0)]
    with pytest.raises(ValueError):
        heavy_coeffs(table, 0.0)


def test_heavy_coeffs_planted_and_parseval_cap():
    n, b, gamma = 8, 77, 0.125
    bits = planted_parity(n, b, gamma, seed=2)
    table = to_pm1(bits).astype(float)
    for theta in (0.5 * gamma, gamma, 2 * gamma):
        found = heavy_coeffs(table, theta)
        assert b in [a for a, _ in found]
    rng = np.random.default_rng(8)
    for theta in (0.1, 0.25, 0.5):
        table = rng.uniform(-1, 1, size=1 << 8)
        assert len(heavy_coeffs(table, theta)) <= 1.0 / theta**2


def test_heavy_coeffs_ordering():
    table = np.zeros(8)
    # two coefficients of equal magnitude, one larger one
    table += 0.5 * chi(3, np.arange(8)) + 0.25 * chi(5, np.arange(8)) + 0.25 * chi(6, np.arange(8))
    found = heavy_coeffs(table, 0.2)
    assert [a for a, _ in found] == [3, 5, 6]
    # gaps of 1e-13 relative tie and go by index; gaps of 1e-6 do not
    xs = np.arange(16)
    table = (0.4 * chi(6, xs) + 0.25 * chi(3, xs) + 0.25 * (1 + 1e-13) * chi(5, xs)
             + 0.1 * chi(9, xs) + 0.1 * (1 + 1e-6) * chi(12, xs))
    found = heavy_coeffs(table, 0.05)
    assert [a for a, _ in found] == [6, 3, 5, 12, 9]
    assert found[0][0] == top_index(wht(table))


def test_best_parity_exact_and_hand_enumerated():
    n, b = 6, 33
    table = chi(b, np.arange(1 << n)).astype(float)
    assert best_parity(table) == (b, 1.0)
    # x0 and x1 over n=2: sign table enumerated by hand from the 4 points
    formula = DnfFormula(2, [[(0, False), (1, False)]])
    signs = formula.sign_table()
    assert list(signs) == [1.0, 1.0, 1.0, -1.0]
    by_hand = {a: sum(signs[x] * chi(a, x) for x in range(4)) / 4 for a in range(4)}
    a_best, coeff = best_parity(signs)
    assert abs(by_hand[a_best]) == max(abs(v) for v in by_hand.values())
    assert coeff == by_hand[a_best]


def test_best_parity_meets_dnf_floor():
    rng = np.random.default_rng(17)
    n = 10
    for _ in range(100):
        s = int(rng.integers(1, 9))
        formula = random_dnf(n, s, int(rng.integers(1, 4)), int(rng.integers(0, 2**63)))
        _, coeff = best_parity(formula.sign_table())
        assert abs(coeff) >= 1.0 / (2 * s + 1) - 1e-12


def test_random_dnf_seed_stability_and_shape():
    f1 = random_dnf(10, 3, 4, 123)
    f2 = random_dnf(10, 3, 4, 123)
    assert f1.to_dict() == f2.to_dict()
    assert f1.size() == 3
    assert all(len(t) == 4 and len({v for v, _ in t}) == 4 for t in f1.terms)
    assert random_dnf(6, 0, 3, 1).truth_table().sum() == 0
    with pytest.raises(ValueError):
        random_dnf(3, 2, 4, 0)


def test_random_dnf_variable_frequencies():
    n, term_len = 8, 3
    hits = np.zeros(n)
    draws = 1000
    for seed in range(draws):
        formula = random_dnf(n, 1, term_len, seed)
        for v, _ in formula.terms[0]:
            hits[v] += 1
    freq = hits / draws
    assert np.all(np.abs(freq - term_len / n) <= 0.05)


def test_mux_dnf_single_branch():
    formula = mux_dnf(1, 1, ["y1", "0"])
    assert formula.n == 2
    assert formula.terms == [[(0, False), (1, False)]]  # x0 and y1


def test_mux_dnf_shape_invariant():
    formula = mux_dnf(2, 3, ["y1", "!y3", "1", "y2"])
    assert formula.size() <= 4
    assert all(len(term) in (2, 3) for term in formula.terms)
    with pytest.raises(ValueError):
        mux_dnf(2, 3, ["y1", "zzz", "1", "y2"])
    with pytest.raises(ValueError):
        mux_dnf(2, 3, ["y1", "y4", "1", "y2"])
    with pytest.raises(ValueError):
        mux_dnf(2, 3, ["y1", "1"])


def test_mux_dnf_all_ones_is_constant_true():
    formula = mux_dnf(2, 2, ["1", "1", "1", "1"])
    assert formula.truth_table().min() == 1


def _symbol_disagreement_count(a_sym, b_sym, u):
    """Exact count of data assignments where two branch symbols differ."""
    total = 1 << u

    def values(sym):
        if sym in ("0", "1"):
            return np.full(total, int(sym))
        neg = sym.startswith("!")
        j = int((sym[1:] if neg else sym)[1:])
        bits = (np.arange(total) >> (j - 1)) & 1
        return (1 - bits) if neg else bits

    return int(np.sum(values(a_sym) != values(b_sym)))


def test_mux_dnf_disagreement_matches_branchwise_count():
    """Exhaustive truth-table diff vs the per-branch symbol computation."""
    t, u = 2, 3
    word_a = ["y1", "0", "1", "!y2"]
    word_b = ["y1", "y3", "0", "y2"]
    fa = mux_dnf(t, u, word_a).truth_table()
    fb = mux_dnf(t, u, word_b).truth_table()
    disagreements = int(np.sum(fa != fb))
    # each address value is selected by exactly one x-part; under it the
    # outputs are the branch symbols evaluated on the data variables
    expected = sum(_symbol_disagreement_count(a, b, u) for a, b in zip(word_a, word_b))
    assert disagreements == expected


def test_planted_parity_exact_correlation():
    n, b, gamma = 10, 37, 0.125
    bits = planted_parity(n, b, gamma, seed=9)
    coeff = wht(to_pm1(bits).astype(float))[b]
    assert coeff == 2 * gamma
    with pytest.raises(ValueError):
        planted_parity(6, 1, 0.21, seed=0)  # (1/2 - gamma) * 64 not integral
    for target in (-1, 16, 19):  # 19 used to plant 19 & 15
        with pytest.raises(ValueError):
            planted_parity(4, target, 0.25, seed=0)
    assert planted_parity(4, 15, 0.25, seed=0).shape == (16,)


def test_json_round_trip(tmp_path):
    formula = random_dnf(9, 4, 3, 55)
    path = tmp_path / "instance.json"
    path.write_text(dnf_to_json(formula))
    again = load_dnf(path)
    assert again.to_dict() == formula.to_dict()
    assert again.terms == formula.terms  # (int, bool) pairs, as the constructor makes them
    assert dnf_from_json(dnf_to_json(formula)).to_dict() == formula.to_dict()
    data = json.loads(path.read_text())
    assert set(data) == {"n", "terms"}


def test_table_cap_env_override():
    with pytest.raises(ValueError):
        DnfFormula(21, []).truth_table()
