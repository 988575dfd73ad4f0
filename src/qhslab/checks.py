"""Self-contained invariant suites behind the verify subcommand.

Each suite runs a batch of cross-checks against independent oracles
(dense spectra, the closed-form amplification law, exhaustive error
counts, integer reconstruction) and yields one ``(ok, message)`` pair
per check, ``ok`` stating the condition that must hold (so a NaN fails
it). :func:`collect` counts the pairs and keeps the failed messages.
The suites run the production code: the spectrum suite measures
:func:`simulator.prepare_spectrum_state` and the boost-bounds suite
runs :func:`boosting.boost`. A fault swaps one library function for a
broken stand-in while the suites run, which must make some suite fail;
that guards the suites themselves against silently passing.
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


def collect(name: str, checks) -> SuiteResult:
    """Count the ``(ok, message)`` pairs a suite yields, keeping the message
    of each pair whose ``ok`` is false. An exception that escapes the suite
    is one more failed check, so a broken layer fails the suite instead of
    crashing the run."""
    result = SuiteResult(name)
    try:
        for ok, message in checks:
            result.checked += 1
            if not ok:
                result.failures.append(message)
    except Exception as exc:
        result.checked += 1
        result.failures.append(f"raised {type(exc).__name__}: {exc}")
    return result


def suite_spectrum_measurement(seed: int = 0):
    """Measurement distribution of the prepared state equals the squared
    sign-form spectrum, entrywise to 1e-10: for one-column preparations,
    and in every column of a three-column preparation, each of whose
    columns also equals its one-column preparation bit for bit."""
    rng = seeds.derive(seed, seeds.VERIFY, 0)
    for n in (4, 6, 8):
        tables, singles = [], []
        for trial in range(5):
            bits = rng.integers(0, 2, size=1 << n).astype(np.uint8)
            state = prepare_spectrum_state(bits, QueryCounter())
            err = float(np.max(np.abs(index_distribution(state) - wht(to_pm1(bits)) ** 2)))
            yield err <= 1e-10, f"n={n} trial={trial}: deviation {err:.3e}"
            tables.append(bits)
            singles.append(state)
        k = 3
        batch = prepare_spectrum_state(np.stack(tables[:k], axis=1), QueryCounter())
        dists, columns = index_distribution(batch), batch.amps.reshape(2, k, -1)
        for c in range(k):
            err = float(np.max(np.abs(dists[c] - wht(to_pm1(tables[c])) ** 2)))
            yield err <= 1e-10, f"n={n} column {c} of {k}: deviation {err:.3e}"
            yield (columns[:, c].tobytes() == singles[c].amps.tobytes(),
                   f"n={n} column {c} of {k}: differs from its one-column preparation")


def suite_amplification_law(seed: int = 0):
    """Marked-set probability after k iterates matches
    sin((2k+1) asin sqrt(p0))**2 to 1e-9."""
    n = 8
    for idx, gamma in enumerate((0.25, 0.125)):
        bits = planted_parity(n, 19, gamma, seeds.derive_int(seed, seeds.VERIFY, 1, idx))
        coeffs = wht(to_pm1(bits))
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
            yield abs(hit - want) <= 1e-9, f"gamma={gamma} k={k}: |{hit:.12f} - {want:.12f}|"


def suite_boost_bounds(seed: int = 0):
    """Exact-learner runs of :func:`boosting.boost`: final error below
    epsilon, stage count within 2/(epsilon gamma**2), and every stage
    distribution at most 3/epsilon times uniform (checked exactly over
    the cube from the magnitudes |g| of the weighted target each stage
    hands the learner)."""
    n, epsilon = 8, 0.2
    for s in (1, 2):
        for rep in range(2):
            run_seed = seeds.derive_int(seed, seeds.VERIFY, 2, s, rep)
            formula = random_dnf(n, s, min(3, n), run_seed)
            cfg = QhsConfig(n=n, s=s, epsilon=epsilon, mode="classical_exact", seed=run_seed)
            f_sign, sample, _, learn = setup_run(formula, cfg)
            maxima = []

            def recorded(g_values):
                maxima.append(float(np.abs(g_values).max()))  # before learn overwrites g
                return learn(g_values)

            try:
                combined, estimates = boost(f_sign, sample, epsilon, cfg.gamma,
                                            cfg.stage_budget, recorded)
            except Exception as exc:  # a failed run is one failed check; the next run still runs
                yield False, f"s={s} rep={rep}: {type(exc).__name__}: {exc}"
                continue
            error = float(np.mean(combined.sign_table(n) != f_sign))
            yield error < epsilon, f"s={s} rep={rep}: error {error}"
            stages, bound = len(combined.hypotheses), 2.0 / (epsilon * cfg.gamma**2)
            yield stages <= bound, f"s={s} rep={rep}: {stages} stages > {bound:g}"
            for t, (top, estimate) in enumerate(zip(maxima, estimates), 1):
                yield (top / estimate <= 3.0 / epsilon + 1e-12,
                       f"s={s} rep={rep} t={t}: smoothness broken")


def suite_signed_digits(seed: int = 0):
    """For every depth d in 1..8, over the weights (i + 1/2) / 2**d, i <
    2**d, and 1: every bit plane entry is 0 or 1, and the signed digits
    the planes stand for, w = sum_j (2 plane_j - 1) 2**(d-1-j), lie within
    1 of v = floor(2**d m), which is computed here, not read off the
    split. The depths are fixed, so ``seed`` is unused."""
    for d in range(1, 9):
        m = np.minimum((np.arange((1 << d) + 1) + 0.5) / (1 << d), 1.0)
        planes = signed_digit_decompose(m, d)
        v = np.floor(m * (1 << d)).astype(np.int64)
        w = (1 << np.arange(d - 1, -1, -1)) @ (2 * planes.astype(np.int64) - 1)
        yield (np.isin(planes, (0, 1)).all() and np.all(np.abs(v - w) <= 1),
               f"d={d}: a plane entry outside {{0, 1}} or digits off v by more than 1")


# suite name -> seed -> the suite's (ok, message) checks
SUITES = {
    "spectrum-measurement": suite_spectrum_measurement,
    "amplification-law": suite_amplification_law,
    "boost-bounds": suite_boost_bounds,
    "signed-digits": suite_signed_digits,
}


def run_all(seed: int = 0, fault: str | None = None, names: list | None = None) -> list:
    """Run the named suites (all by default), with ``fault`` swapped in if given."""
    picked = names or list(SUITES)
    unknown = [name for name in picked if name not in SUITES]
    if unknown:
        raise ValueError(f"unknown suites: {unknown}")
    if fault is None:
        return [collect(name, SUITES[name](seed)) for name in picked]
    module, attr, stand_in = FAULTS[fault]
    original = getattr(module, attr)
    setattr(module, attr, stand_in)
    try:
        return run_all(seed, None, picked)
    finally:
        setattr(module, attr, original)
