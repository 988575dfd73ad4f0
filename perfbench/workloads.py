"""The benchmark's workloads: seeded inputs, the timed call and its checks.

A workload is an endless sequence of cells. Cell ``i`` is a pure function
of ``(seed, i)``: the same seed always yields the same inputs. Cells come
in cycles, the workload's fixed unit of work (one cell per base formula
for a learn workload, 40 searches for the search workload), and a
benchmark run times whole cycles so the mix of cells never depends on
where the clock ran out.

To keep run-to-run figures comparable across seeds, a learn cell is a
seeded isomorph of a fixed base formula: the seed draws a permutation of
the variables, a sign flip per variable and the learner seed. Stage
counts and per-run cost therefore depend on the formula's shape, which is
fixed per workload, and not on which random formula a seed happened to
draw.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from qhslab import boolfn, seeds, sieve, weaklearn
from qhslab.simulator import QueryCounter

FAILURES = (sieve.WeakLearnerFailure, sieve.StageBudgetExceeded, weaklearn.NoHeavyCoefficient)

_STREAM_TAG = 0x5EB0  # keeps benchmark streams apart from qhslab.seeds paths


def stream(seed: int, *path: int) -> np.random.Generator:
    """Generator for one input of one cell, independent of the learner's streams."""
    return np.random.default_rng([_STREAM_TAG, int(seed) & (2**63 - 1), *map(int, path)])


def relabel(formula: boolfn.DnfFormula, rng: np.random.Generator) -> boolfn.DnfFormula:
    """Isomorphic copy: permuted variables and per-variable literal signs."""
    perm = rng.permutation(formula.n)
    flip = rng.integers(0, 2, size=formula.n).astype(bool)
    terms = [[(int(perm[v]), bool(neg ^ flip[v])) for v, neg in term] for term in formula.terms]
    return boolfn.DnfFormula(formula.n, terms)


def reference_sign_table(formula: boolfn.DnfFormula) -> np.ndarray:
    """Sign table (0 -> +1, 1 -> -1) evaluated here, independently of qhslab."""
    xs = np.arange(1 << formula.n, dtype=np.int64)
    value = np.zeros(xs.size, dtype=bool)
    for term in formula.terms:
        sat = np.ones(xs.size, dtype=bool)
        for var, neg in term:
            sat &= ((xs >> var) & 1) == (0 if neg else 1)
        value |= sat
    return np.where(value, -1, 1).astype(np.int64)


@dataclass
class LearnCell:
    index: int
    formula: boolfn.DnfFormula
    cfg: sieve.QhsConfig
    want: np.ndarray  # reference sign table


@dataclass
class SearchCell:
    index: int
    n: int
    target: int
    g_sign: np.ndarray
    sample: weaklearn.SharedSample
    rng_seed: int


class LearnWorkload:
    """``learn_dnf`` runs over a cycle of (n, s, mode) base cells."""

    kind = "learn"

    def __init__(self, name, bases, epsilon=0.1, delta=0.1):
        self.name = name
        self.bases = [(n, s, mode, boolfn.random_dnf(n, s, 3, base_seed))
                      for n, s, mode, base_seed in bases]
        self.epsilon = epsilon
        self.delta = delta

    @property
    def cycle(self) -> int:
        return len(self.bases)

    def cell(self, seed: int, index: int) -> LearnCell:
        n, s, mode, base = self.bases[index % self.cycle]
        formula = relabel(base, stream(seed, index, 0))
        learner_seed = int(stream(seed, index, 1).integers(0, 2**62))
        cfg = sieve.QhsConfig(n=n, s=s, epsilon=self.epsilon, delta=self.delta,
                              mode=mode, seed=learner_seed)
        return LearnCell(index, formula, cfg, reference_sign_table(formula))

    @staticmethod
    def run(cell: LearnCell):
        """The timed call. Returns the report, or the learner's failure."""
        try:
            return sieve.learn_dnf(cell.formula, cell.cfg)[1]
        except FAILURES as exc:
            return exc

    def check(self, cell: LearnCell, report) -> list:
        """The run's guarantee, re-derived from the report alone."""
        if isinstance(report, Exception):
            return [f"{type(report).__name__}: {report}"]
        errors = []
        if report.termination != "converged":
            errors.append(f"termination {report.termination!r}")
        if not report.final_error < cell.cfg.epsilon:
            errors.append(f"final_error {report.final_error} >= epsilon {cell.cfg.epsilon}")
        xs = np.arange(1 << cell.cfg.n, dtype=np.int64)
        votes = {}
        for row in report.stages:
            votes[row.parity] = votes.get(row.parity, 0) + row.sign
        total = np.zeros(xs.size, dtype=np.int64)
        for a, weight in votes.items():
            total += weight * (1 - 2 * (np.bitwise_count(xs & a).astype(np.int64) & 1))
        error = float(np.mean(np.where(total >= 0, 1, -1) != cell.want))
        if error != report.final_error:
            errors.append(f"reported final_error {report.final_error} but the vote errs on {error}")
        return errors

    @staticmethod
    def record(report) -> dict:
        """What the fingerprint covers."""
        if isinstance(report, Exception):
            return {"failure": type(report).__name__}
        return {"parities": [row.sign * row.parity for row in report.stages],
                "totals": report.totals(), "final_error": report.final_error}

    @staticmethod
    def digest(report) -> str:
        """Byte form compared when a seed is run twice."""
        return repr(report) if isinstance(report, Exception) else report.to_json()

    @staticmethod
    def counts(report) -> dict:
        if isinstance(report, Exception):
            return {"quantum_queries": 0, "classical_queries": 0, "stages": 0}
        return report.totals()


class SearchWorkload:
    """Direct ``quantum_weak_parity`` calls on planted-parity oracles, each
    with exact correlation ``2 * gamma`` to its target and a full-cube sample."""

    kind = "search"
    # A search's cost is set by the deepest Grover depth it reaches: about
    # 40% stop by depth 2, 45% at depth 4, 10% at depth 8 and 5% at 16. With
    # 40 searches per cycle both the median and the tail (ten samples
    # beyond it, the 78th percentile) fall inside the depth-4 group rather
    # than on the edge between two groups, and a 30 s run holds about eight
    # cycles to take medians over.
    cycle = 40

    def __init__(self, name, n=14, gamma=1 / 16, gamma_target=1 / 16, delta=0.01):
        self.name = name
        self.n = n
        self.gamma = gamma
        self.gamma_target = gamma_target
        self.delta = delta

    def cell(self, seed: int, index: int) -> SearchCell:
        rng = stream(seed, index, 0)
        target = int(rng.integers(1, 1 << self.n))
        bits = boolfn.planted_parity(self.n, target, self.gamma, int(rng.integers(0, 2**62)))
        g_sign = boolfn.to_pm1(bits).astype(np.float64)
        sample = weaklearn.SharedSample.full_cube(self.n, bits)
        return SearchCell(index, self.n, target, g_sign, sample, int(rng.integers(0, 2**62)))

    def run(self, cell: SearchCell):
        """The timed call. Returns (hypothesis, queries), or the failure."""
        counter = QueryCounter()
        rng = np.random.default_rng(cell.rng_seed)
        try:
            hyp = weaklearn.quantum_weak_parity(cell.n, self.gamma_target, self.delta, cell.g_sign,
                                                cell.sample, counter, rng)
        except weaklearn.NoHeavyCoefficient as exc:
            return exc
        return hyp, counter.quantum_queries

    def check(self, cell: SearchCell, out) -> list:
        if isinstance(out, Exception):
            return [f"{type(out).__name__}: {out}"]
        hyp, _ = out
        want = 2 * self.gamma
        if (hyp.a, hyp.sign, hyp.est_advantage) != (cell.target, 1, want):
            return [f"found ({hyp.a}, {hyp.sign}, {hyp.est_advantage}); "
                    f"planted ({cell.target}, 1, {want})"]
        return []

    @staticmethod
    def record(out) -> dict:
        if isinstance(out, Exception):
            return {"failure": type(out).__name__}
        hyp, queries = out
        return {"parity": hyp.sign * hyp.a, "advantage": hyp.est_advantage, "queries": queries}

    @staticmethod
    def digest(out) -> str:
        return json.dumps(SearchWorkload.record(out), sort_keys=True)

    @staticmethod
    def counts(out) -> dict:
        queries = 0 if isinstance(out, Exception) else out[1]
        return {"quantum_queries": queries, "classical_queries": 0, "stages": 0}


def fingerprint(records) -> str:
    """sha256 over the records of a fixed set of cells."""
    text = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# Base formulas are acceptance-grid cells: random_dnf(n, s, 3,
# seeds.derive_int(grid_seed, 10, s)). The s=3 base is grid seed 1 (602
# stages) rather than seed 0 (864 stages) so one cycle fits the run budget.
WORKLOADS = {
    "quantum_n10": LearnWorkload("quantum_n10", [
        (10, 2, "quantum_sim", seeds.derive_int(0, 10, 2)),
        (10, 3, "quantum_sim", seeds.derive_int(1, 10, 3)),
    ]),
    "exact_ladder": LearnWorkload("exact_ladder", [
        (n, 2, "classical_exact", seeds.derive_int(0, 10, 2)) for n in (14, 16, 18)
    ]),
    "amplified_search": SearchWorkload("amplified_search"),
}
