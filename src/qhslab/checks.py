"""Self-contained invariant suites behind the verify subcommand.

Each suite runs a batch of cross-checks against independent oracles
(dense spectra, the closed-form amplification law, exhaustive error
counts, integer reconstruction) and reports how many checks ran and
which failed. A fault hook lets the spectrum suite drop the controlled
phase gate, which must break it; that guards the suites themselves
against silently passing.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import seeds
from .boolfn import planted_parity, random_dnf, to_pm1, wht
from .boosting import weight_from_margin
from .sieve import QhsConfig, learn_dnf
from .simulator import (QueryCounter, apply_membership, cz_answer_phase, grover_step,
                        hadamard_index, index_distribution, init_state,
                        prepare_spectrum_state, x_phase)
from .weaklearn import signed_digit_decompose

FAULTS = ("drop-cz",)


@dataclass
class SuiteResult:
    name: str
    checked: int = 0
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


def _spectrum_distribution(bits: np.ndarray, fault: str | None) -> np.ndarray:
    n = int(bits.size).bit_length() - 1
    counter = QueryCounter()
    state = init_state(n)
    hadamard_index(state)
    x_phase(state)
    apply_membership(state, bits, counter)
    if fault != "drop-cz":
        cz_answer_phase(state)
    apply_membership(state, bits, counter)
    hadamard_index(state)
    return index_distribution(state)


def suite_spectrum_measurement(seed: int = 0, fault: str | None = None) -> SuiteResult:
    """Measurement distribution of the prepared state equals the squared
    sign-form spectrum, entrywise to 1e-10."""
    result = SuiteResult("spectrum-measurement")
    rng = seeds.derive(seed, seeds.VERIFY, 0)
    for n in (4, 6, 8):
        for trial in range(5):
            bits = rng.integers(0, 2, size=1 << n).astype(np.uint8)
            dist = _spectrum_distribution(bits, fault)
            want = wht(to_pm1(bits).astype(np.float64)) ** 2
            result.checked += 1
            err = float(np.max(np.abs(dist - want)))
            if err > 1e-10:
                result.failures.append(f"n={n} trial={trial}: deviation {err:.3e}")
    return result


def suite_amplification_law(seed: int = 0) -> SuiteResult:
    """Marked-set probability after k iterates matches
    sin((2k+1) asin sqrt(p0))**2 to 1e-9."""
    result = SuiteResult("amplification-law")
    n = 8
    for idx, gamma in enumerate((0.25, 0.125)):
        bits = planted_parity(n, 19, gamma, seeds.derive_int(seed, seeds.VERIFY, 1, idx))
        coeffs = wht(to_pm1(bits).astype(np.float64))
        marked = np.abs(coeffs) >= 1.8 * gamma
        p0 = float(np.sum(coeffs[marked] ** 2))
        counter = QueryCounter()
        state = prepare_spectrum_state(bits, counter)
        theta = math.asin(math.sqrt(p0))
        for k in range(0, math.ceil(1.0 / math.sqrt(p0)) + 1):
            if k > 0:
                grover_step(state, bits, marked, counter)
            hit = float(index_distribution(state)[marked].sum())
            want = math.sin((2 * k + 1) * theta) ** 2
            result.checked += 1
            if abs(hit - want) > 1e-9:
                result.failures.append(f"gamma={gamma} k={k}: |{hit:.12f} - {want:.12f}|")
    return result


def suite_boost_bounds(seed: int = 0) -> SuiteResult:
    """Exact-learner runs: final error below epsilon, stage count within
    2/(epsilon gamma**2), and every stage distribution at most 3/epsilon
    times uniform (checked exactly over the cube)."""
    result = SuiteResult("boost-bounds")
    n, epsilon = 8, 0.2
    for s in (1, 2):
        for rep in range(2):
            run_seed = seeds.derive_int(seed, seeds.VERIFY, 2, s, rep)
            formula = random_dnf(n, s, min(3, n), run_seed)
            cfg = QhsConfig(n=n, s=s, epsilon=epsilon, mode="classical_exact", seed=run_seed)
            try:
                combined, report = learn_dnf(formula, cfg)
            except Exception as exc:  # a failed run is a failed check, not a crash
                result.checked += 1
                result.failures.append(f"s={s} rep={rep}: {type(exc).__name__}: {exc}")
                continue
            result.checked += 1
            if report.final_error >= epsilon:
                result.failures.append(f"s={s} rep={rep}: error {report.final_error}")
            result.checked += 1
            bound = 2.0 / (epsilon * cfg.gamma**2)
            if len(report.stages) > bound:
                result.failures.append(f"s={s} rep={rep}: {len(report.stages)} stages > {bound:g}")
            f_sign = formula.sign_table()
            xs = np.arange(1 << n, dtype=np.int64)
            margins = np.zeros(1 << n)
            for row, hyp in zip(report.stages, combined.hypotheses):
                weights = weight_from_margin(margins, cfg.gamma)
                result.checked += 1
                if float(weights.max()) / row.estimate > 3.0 / epsilon + 1e-12:
                    result.failures.append(f"s={s} rep={rep} t={row.t}: smoothness broken")
                margins += f_sign * hyp.values(xs) - cfg.gamma / (2 + cfg.gamma)
    return result


def suite_signed_digits() -> SuiteResult:
    """Exhaustive exact reconstruction for every depth d in 1..8."""
    result = SuiteResult("signed-digits")
    for d in range(1, 9):
        values = (np.arange(0, (1 << d) + 1, dtype=np.float64) + 0.5) / (1 << d)
        values = np.minimum(values, 1.0)
        digits = signed_digit_decompose(values, d)
        result.checked += 1
        if not np.array_equal(digits.reconstruct(), digits.v):
            result.failures.append(f"d={d}: reconstruction mismatch")
        if not np.all(np.abs(digits.alpha) == 1) or np.any(np.abs(digits.k) > 1):
            result.failures.append(f"d={d}: digit range broken")
    return result


SUITES = {
    "spectrum-measurement": lambda seed, fault: suite_spectrum_measurement(seed, fault),
    "amplification-law": lambda seed, fault: suite_amplification_law(seed),
    "boost-bounds": lambda seed, fault: suite_boost_bounds(seed),
    "signed-digits": lambda seed, fault: suite_signed_digits(),
}


def run_all(seed: int = 0, fault: str | None = None, names: list | None = None) -> list:
    picked = names or list(SUITES)
    unknown = [name for name in picked if name not in SUITES]
    if unknown:
        raise ValueError(f"unknown suites: {unknown}")
    return [SUITES[name](seed, fault) for name in picked]
