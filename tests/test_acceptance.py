"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria complete. The quantum end-to-end grid is built once and shared
by the criteria that need it.
"""
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from qhslab import (QhsConfig, QueryCounter, grover_step, index_distribution, learn_dnf,
                    planted_parity, prepare_spectrum_state, random_dnf, to_pm1, wht)
from qhslab import seeds
from qhslab.boolfn import chi
from qhslab.boosting import weight_from_margin
from qhslab.weaklearn import signed_digit_decompose


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number} {name}: FAIL")
        raise
    print(f"\nACCEPTANCE {number} {name}: PASS")


GRID_EPSILON = 0.1
GRID_DELTA = 0.1
GRID_N = 10
GRID_CELLS = [(2, seed) for seed in range(10)] + [(3, seed) for seed in range(10)]


@pytest.fixture(scope="module")
def quantum_grid():
    """The 20 end-to-end quantum runs shared by criteria 6, 8 and 9."""
    runs = []
    start = time.perf_counter()
    for s, seed in GRID_CELLS:
        formula = random_dnf(GRID_N, s, 3, seeds.derive_int(seed, 10, s))
        cfg = QhsConfig(n=GRID_N, s=s, epsilon=GRID_EPSILON, delta=GRID_DELTA,
                        mode="quantum_sim", seed=seed)
        combined, report = learn_dnf(formula, cfg)
        runs.append((formula, cfg, combined, report))
    elapsed = time.perf_counter() - start
    return {"runs": runs, "elapsed": elapsed}


def stage_exact_advantages(formula, cfg, combined, report):
    """Replay a run and yield (row, exact weighted correlation at the
    accepted parity, exact mean weight) per stage."""
    f_sign = formula.sign_table()
    xs = np.arange(1 << cfg.n, dtype=np.int64)
    margins = np.zeros(1 << cfg.n)
    for row, hyp in zip(report.stages, combined.hypotheses):
        weights = weight_from_margin(margins, cfg.gamma)
        exact = abs(float(np.mean(weights * f_sign * chi(row.parity, xs))))
        yield row, exact, float(weights.mean()), float(weights.max())
        margins += f_sign * hyp.values(xs) - cfg.gamma / (2 + cfg.gamma)


def test_criterion_1_spectrum_measurement_theorem():
    with criterion(1, "spectrum-measurement theorem"):
        rng = np.random.default_rng(2024)
        start = time.perf_counter()
        for n in (4, 6, 8, 10):
            for _ in range(20):
                bits = rng.integers(0, 2, size=1 << n).astype(np.uint8)
                dist = index_distribution(prepare_spectrum_state(bits, QueryCounter()))
                want = wht(to_pm1(bits).astype(float)) ** 2
                assert np.max(np.abs(dist - want)) < 1e-10
        assert time.perf_counter() - start < 10.0


def test_criterion_2_noisy_parity_point_probability():
    with criterion(2, "noisy-parity measurement probability"):
        n, target = 10, 37
        for gamma in (0.25, 0.125, 0.0625):
            bits = planted_parity(n, target, gamma, seed=99)
            dist = index_distribution(prepare_spectrum_state(bits, QueryCounter()))
            assert abs(dist[target] - 4 * gamma**2) < 1e-10


def test_criterion_3_amplification_law():
    # squared coefficients of sign oracles are dyadic, so 0.01 and 0.05 are
    # hit by the nearest constructible mass; the law itself is then exact
    with criterion(3, "amplification sine law"):
        n, target = 12, 1001
        for wanted in (0.01, 0.05, 0.25):
            flips = round((1.0 - math.sqrt(wanted)) / 2.0 * (1 << n))
            gamma = 0.5 - flips / (1 << n)
            bits = planted_parity(n, target, gamma, seed=55)
            coeff = float(wht(to_pm1(bits).astype(float))[target])
            p0 = coeff * coeff
            assert abs(p0 - wanted) < 5e-4
            marked = np.zeros(1 << n, dtype=bool)
            marked[target] = True
            state = prepare_spectrum_state(bits, QueryCounter())
            theta = math.asin(math.sqrt(p0))
            for k in range(0, math.ceil(1.0 / math.sqrt(p0)) + 1):
                if k:
                    grover_step(state, bits, marked, QueryCounter())
                hit = float(index_distribution(state)[target])
                assert abs(hit - math.sin((2 * k + 1) * theta) ** 2) < 1e-9


def test_criterion_4_weak_parity_existence_floor():
    with criterion(4, "weak parity existence floor"):
        rng = np.random.default_rng(77)
        violations = 0
        for _ in range(200):
            n = int(rng.integers(4, 13))
            s = int(rng.integers(1, 9))
            formula = random_dnf(n, s, int(rng.integers(1, min(4, n) + 1)),
                                 int(rng.integers(0, 2**63)))
            coeffs = wht(formula.sign_table())
            if float(np.max(np.abs(coeffs))) < 1.0 / (2 * s + 1) - 1e-12:
                violations += 1
        assert violations == 0


def test_criterion_5_boosting_bounds_suite():
    with criterion(5, "smooth boosting bounds"):
        n = 10
        for epsilon in (0.05, 0.1, 0.2):
            for s in (1, 2, 4):
                for seed in range(20):
                    formula = random_dnf(n, s, 3, seeds.derive_int(seed, 11, s))
                    cfg = QhsConfig(n=n, s=s, epsilon=epsilon, mode="classical_exact",
                                    seed=seed)
                    combined, report = learn_dnf(formula, cfg)
                    assert report.final_error < epsilon
                    assert len(report.stages) <= 2.0 / (epsilon * cfg.gamma**2)
                    for row, _, exact_mean, max_weight in stage_exact_advantages(
                            formula, cfg, combined, report):
                        # estimate inside its budget, and the stage
                        # distribution within 3/epsilon of uniform
                        assert abs(row.estimate - exact_mean) <= epsilon / 3.0
                        assert max_weight / row.estimate <= 3.0 / epsilon + 1e-9


def test_criterion_6_end_to_end_quantum_runs(quantum_grid):
    with criterion(6, "end-to-end quantum-simulated learning"):
        failures = 0
        for formula, cfg, combined, report in quantum_grid["runs"]:
            failures += (report.final_error >= GRID_EPSILON)
            floor = cfg.verify_threshold - 5.0 / math.sqrt(cfg.sample_size)
            assert floor > 0
            for row, exact, _, _ in stage_exact_advantages(formula, cfg, combined, report):
                assert exact >= floor
        assert failures <= 2
        assert quantum_grid["elapsed"] < 300.0


def test_criterion_7_signed_digit_reconstruction():
    with criterion(7, "signed-digit reconstruction"):
        for d in range(1, 9):
            values = np.minimum((np.arange((1 << d) + 1) + 0.5) / (1 << d), 1.0)
            planes = signed_digit_decompose(values, d)
            assert planes.shape == (d, values.size) and np.isin(planes, (0, 1)).all()
            v = np.floor(values * (1 << d)).astype(np.int64)
            assert np.array_equal(v, np.arange((1 << d) + 1))
            w = (1 << np.arange(d - 1, -1, -1)) @ (2 * planes.astype(np.int64) - 1)
            assert np.all(np.abs(v - w) <= 1)  # v = w + k with k in {-1, 0, 1}


def test_criterion_8_mode_agreement(quantum_grid):
    with criterion(8, "classical and quantum mode agreement"):
        for formula, cfg, combined, report in quantum_grid["runs"]:
            classical_cfg = QhsConfig(n=cfg.n, s=cfg.s, epsilon=cfg.epsilon,
                                      delta=cfg.delta, mode="classical_exact",
                                      seed=cfg.seed)
            classical_combined, classical_report = learn_dnf(formula, classical_cfg)
            assert abs(classical_report.final_error - report.final_error) < cfg.epsilon
            floor = cfg.verify_threshold - 5.0 / math.sqrt(cfg.sample_size)
            for _, exact, _, _ in stage_exact_advantages(
                    formula, classical_cfg, classical_combined, classical_report):
                assert exact >= floor


def test_criterion_9_determinism(quantum_grid):
    with criterion(9, "seeded determinism"):
        formula, cfg, _, report = quantum_grid["runs"][0]
        _, again = learn_dnf(formula, cfg)
        assert again.to_json() == report.to_json()
        assert again.to_csv() == report.to_csv()
        formula2, cfg2, _, report2 = quantum_grid["runs"][11]
        _, again2 = learn_dnf(formula2, cfg2)
        assert again2.to_json() == report2.to_json()
