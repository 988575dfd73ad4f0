"""Self-contained invariant suites behind the verify subcommand.

Each suite runs a batch of cross-checks against independent oracles
(dense spectra, the closed-form amplification law, exhaustive error
counts, integer reconstruction) and reports how many checks ran and
which failed. The suites run the production code: the spectrum suite
measures :func:`simulator.prepare_spectrum_state` and the boost-bounds
suite runs :func:`boosting.boost`. A fault swaps one library function
for a broken stand-in while the suites run, which must make some suite
fail; that guards the suites themselves against silently passing.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import seeds, simulator
from .boolfn import planted_parity, random_dnf, to_pm1, wht
from .boosting import boost
from .sieve import QhsConfig, setup_run
from .simulator import QueryCounter, grover_step, index_distribution, prepare_spectrum_state
from .weaklearn import signed_digit_decompose

# fault name -> (module, attribute, stand-in swapped in while the suites run)
FAULTS = {
    "drop-cz": (simulator, "cz_answer_phase", lambda state: state),
}


@dataclass
class SuiteResult:
    name: str
    checked: int = 0
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


def suite_spectrum_measurement(seed: int = 0) -> SuiteResult:
    """Measurement distribution of the prepared state equals the squared
    sign-form spectrum, entrywise to 1e-10."""
    result = SuiteResult("spectrum-measurement")
    rng = seeds.derive(seed, seeds.VERIFY, 0)
    for n in (4, 6, 8):
        for trial in range(5):
            bits = rng.integers(0, 2, size=1 << n).astype(np.uint8)
            dist = index_distribution(prepare_spectrum_state(bits, QueryCounter()))
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
    """Exact-learner runs of :func:`boosting.boost`: final error below
    epsilon, stage count within 2/(epsilon gamma**2), and every stage
    distribution at most 3/epsilon times uniform (checked exactly over
    the cube from the weights each stage hands the learner)."""
    result = SuiteResult("boost-bounds")
    n, epsilon = 8, 0.2
    for s in (1, 2):
        for rep in range(2):
            run_seed = seeds.derive_int(seed, seeds.VERIFY, 2, s, rep)
            formula = random_dnf(n, s, min(3, n), run_seed)
            cfg = QhsConfig(n=n, s=s, epsilon=epsilon, mode="classical_exact", seed=run_seed)
            f_sign, sample, _, learn = setup_run(formula, cfg)
            maxima = []

            def recorded(weights):
                maxima.append(float(weights.max()))
                return learn(weights)

            result.checked += 1
            try:
                combined, estimates = boost(f_sign, sample, epsilon, cfg.gamma,
                                            cfg.stage_budget, recorded)
            except Exception as exc:  # a failed run is a failed check, not a crash
                result.failures.append(f"s={s} rep={rep}: {type(exc).__name__}: {exc}")
                continue
            error = float(np.mean(combined.sign_table(n) != f_sign))
            if error >= epsilon:
                result.failures.append(f"s={s} rep={rep}: error {error}")
            result.checked += 1
            stages, bound = len(combined.hypotheses), 2.0 / (epsilon * cfg.gamma**2)
            if stages > bound:
                result.failures.append(f"s={s} rep={rep}: {stages} stages > {bound:g}")
            for t, (top, estimate) in enumerate(zip(maxima, estimates), 1):
                result.checked += 1
                if top / estimate > 3.0 / epsilon + 1e-12:
                    result.failures.append(f"s={s} rep={rep} t={t}: smoothness broken")
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
    "spectrum-measurement": suite_spectrum_measurement,
    "amplification-law": suite_amplification_law,
    "boost-bounds": suite_boost_bounds,
    "signed-digits": lambda seed: suite_signed_digits(),
}


def run_all(seed: int = 0, fault: str | None = None, names: list | None = None) -> list:
    """Run the named suites (all by default), with ``fault`` swapped in if given."""
    picked = names or list(SUITES)
    unknown = [name for name in picked if name not in SUITES]
    if unknown:
        raise ValueError(f"unknown suites: {unknown}")
    if fault is None:
        return [SUITES[name](seed) for name in picked]
    module, attr, stand_in = FAULTS[fault]
    original = getattr(module, attr)
    setattr(module, attr, stand_in)
    try:
        return run_all(seed, None, picked)
    finally:
        setattr(module, attr, original)
