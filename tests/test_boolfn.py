import itertools
import json

import numpy as np
import pytest

from qhslab import best_parity, heavy_coeffs, planted_parity, random_dnf, to_pm1, wht
from qhslab.boolfn import (DnfFormula, chi, dnf_from_json, dnf_to_json, load_dnf,
                           mux_dnf, wht_unscaled)


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


def test_unscaled_butterfly_is_scaled_involution():
    rng = np.random.default_rng(3)
    table = rng.standard_normal(1 << 6)
    twice = wht_unscaled(wht_unscaled(table))
    assert np.allclose(twice, (1 << 6) * table, atol=1e-10)


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
