"""The end-to-end learner: :func:`boosting.boost` around the configured
weak parity learner, with per-stage telemetry, query accounting, exact
final-error measurement, and grid sweeps.

One run draws a single uniform labeled sample, then repeats: estimate
the mean boosting weight from the sample, stop once it falls to
2*epsilon/3, otherwise ask the configured weak learner for a parity
correlated with the weight-scaled target and fold it into the margins.
The returned majority vote disagrees with the target on less than an
epsilon fraction of the cube (measured exactly, the cube being desk
sized) with probability controlled by delta.
"""
from __future__ import annotations

import itertools
import json
import math
import numbers
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import seeds
from .boolfn import DnfFormula, check_cap, random_dnf, to_pm1
from .boosting import StageBudgetExceeded, boost
from .simulator import QueryCounter
from .weaklearn import (NoHeavyCoefficient, SharedSample, exact_weak_parity,
                        sampled_weak_parity, weighted_weak_parity)

MODES = ("quantum_sim", "classical_exact", "classical_sampled")

REPORT_SCHEMA = 1


class WeakLearnerFailure(Exception):
    """A stage produced no verified parity: bad constants or a broken premise."""


@dataclass
class QhsConfig:
    """One run's parameters, all derived quantities exposed.

    Derivations: gamma = 1/(8s+4), big_gamma = threshold_scale * epsilon
    / (3 (2s+1)), stage budget ceil(stage_scale / (gamma**2 epsilon)),
    shared sample ceil(sample_scale * s**2 / epsilon**2). The weak
    learner's per-stage failure budget defaults to delta / (2 * budget)
    and can be overridden through wl_delta. Construction rejects a
    non-integer n or s, epsilon outside (0, 1/2) (the range
    :func:`boosting.boost` accepts), and delta or wl_delta outside (0, 1).
    """

    n: int
    s: int
    epsilon: float
    delta: float = 0.1
    mode: str = "quantum_sim"
    stage_scale: float = 4.0
    threshold_scale: float = 1.0
    sample_scale: float = 131072.0
    schedule_scale: float = 1.0
    wl_delta: float | None = None
    seed: int = 0

    def __post_init__(self):
        for name in ("n", "s"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, not {value!r}")
        check_cap(self.n)
        if self.s < 0:
            raise ValueError("s must be nonnegative")
        if not 0.0 < self.epsilon < 0.5:
            raise ValueError("epsilon must lie in (0, 1/2)")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if self.wl_delta is not None and not 0.0 < self.wl_delta < 1.0:
            raise ValueError("wl_delta must lie in (0, 1)")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")

    @property
    def gamma(self) -> float:
        return 1.0 / (8 * self.s + 4)

    @property
    def big_gamma(self) -> float:
        return self.threshold_scale * self.epsilon / (3.0 * (2 * self.s + 1))

    @property
    def stage_budget(self) -> int:
        return math.ceil(self.stage_scale / (self.gamma**2 * self.epsilon))

    @property
    def sample_size(self) -> int:
        return math.ceil(self.sample_scale * max(self.s, 1) ** 2 / self.epsilon**2)

    @property
    def verify_threshold(self) -> float:
        return self.big_gamma / 6.0

    def stage_delta(self) -> float:
        if self.wl_delta is not None:
            return self.wl_delta
        return self.delta / (2.0 * self.stage_budget)

    def to_dict(self) -> dict:
        return {
            **asdict(self),
            "derived": {
                "gamma": self.gamma,
                "big_gamma": self.big_gamma,
                "gamma_times_epsilon": self.gamma * self.epsilon,
                "stage_budget": self.stage_budget,
                "sample_size": self.sample_size,
                "verify_threshold": self.verify_threshold,
                "stage_delta": self.stage_delta(),
            },
        }


@dataclass
class StageRow:
    t: int
    estimate: float
    parity: int
    sign: int
    advantage: float
    quantum_queries: int
    classical_queries: int


CSV_COLUMNS = tuple(f.name for f in fields(StageRow))


@dataclass
class RunReport:
    """Per-stage telemetry plus the exact final error.

    Stage query columns are per-stage increments, so the totals equal
    their sums; the first stage absorbs the sample-labeling cost.
    """

    config: dict
    stages: list = field(default_factory=list)
    termination: str = ""
    final_estimate: float | None = None
    final_error: float | None = None

    def totals(self) -> dict:
        return {
            "stages": len(self.stages),
            "quantum_queries": sum(row.quantum_queries for row in self.stages),
            "classical_queries": sum(row.classical_queries for row in self.stages),
        }

    def to_dict(self) -> dict:
        return {"schema": REPORT_SCHEMA, **asdict(self), "totals": self.totals()}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    def to_csv(self) -> str:
        lines = [",".join(CSV_COLUMNS)]
        for row in self.stages:
            rec = asdict(row)
            lines.append(",".join(repr(rec[col]) if isinstance(rec[col], float) else str(rec[col])
                                  for col in CSV_COLUMNS))
        return "\n".join(lines) + "\n"


def setup_run(formula: DnfFormula, cfg: QhsConfig) -> tuple:
    """Everything a run needs before its first stage.

    Checks the formula against the config, builds its sign table, draws
    the shared sample on the ``seeds.SAMPLE_DRAW`` stream (charging it to
    a fresh counter) and builds the configured weak learner on the
    ``seeds.WEAK_LEARNER`` stream. Returns ``(f_sign, sample, counter,
    learn)``, where ``learn`` is a ``weights -> WeakHypothesis`` callable
    that looks the learners up by name at call time and raises
    :class:`WeakLearnerFailure` for a stage without a verified parity.
    """
    if formula.n != cfg.n:
        raise ValueError(f"formula has n={formula.n} but the config says n={cfg.n}")
    if formula.size() > cfg.s:
        raise ValueError(f"formula has {formula.size()} terms, above the configured s={cfg.s}")
    counter = QueryCounter()
    f_bits = formula.truth_table()
    f_sign = to_pm1(f_bits).astype(np.float64)
    sample = SharedSample.draw(cfg.n, cfg.sample_size, f_bits, counter,
                               seeds.derive(cfg.seed, seeds.SAMPLE_DRAW))
    rng = seeds.derive(cfg.seed, seeds.WEAK_LEARNER)
    stages = itertools.count(1)

    def learn(weights):
        t = next(stages)
        try:
            if cfg.mode == "classical_exact":
                return exact_weak_parity(f_sign, weights)
            if cfg.mode == "classical_sampled":
                return sampled_weak_parity(sample, weights * f_sign, cfg.verify_threshold)
            return weighted_weak_parity(f_sign, weights, cfg.big_gamma, cfg.stage_delta(),
                                        sample, counter, rng, cfg.schedule_scale)
        except NoHeavyCoefficient as exc:
            raise WeakLearnerFailure(f"stage {t}: {exc}") from exc

    return f_sign, sample, counter, learn


def learn_dnf(formula: DnfFormula, cfg: QhsConfig) -> tuple:
    """Run the full learner on one formula; returns (hypothesis, report).

    Raises :class:`WeakLearnerFailure` when a stage yields no verified
    parity and :class:`StageBudgetExceeded` when the estimate never
    reaches 2*epsilon/3 within the stage budget.
    """
    f_sign, sample, counter, learn = setup_run(formula, cfg)
    spent = [(0, 0)]  # query totals after each stage; stage 1 absorbs the sample draw

    def stage(weights):
        hyp = learn(weights)
        spent.append((counter.quantum_queries, counter.classical_queries))
        return hyp

    combined, estimates = boost(f_sign, sample, cfg.epsilon, cfg.gamma, cfg.stage_budget, stage)
    rows = [StageRow(t, estimate, hyp.a, hyp.sign, hyp.est_advantage, q - prev_q, c - prev_c)
            for t, (estimate, hyp, (prev_q, prev_c), (q, c))
            in enumerate(zip(estimates, combined.hypotheses, spent, spent[1:]), 1)]
    final_error = float(np.mean(combined.sign_table(cfg.n) != f_sign))
    report = RunReport(cfg.to_dict(), rows, "converged", estimates[-1], final_error)
    return combined, report


def _sweep_cell(args: tuple) -> dict:
    n, s, epsilon, seed_index, cell_seed, mode, overrides, term_len = args
    formula = random_dnf(n, s, min(term_len, n), cell_seed)
    cfg = QhsConfig(n=n, s=s, epsilon=epsilon, mode=mode, seed=cell_seed, **overrides)
    row = {
        "n": n, "s": s, "epsilon": epsilon, "seed_index": seed_index,
        "sample_size": cfg.sample_size,
    }
    try:
        _, report = learn_dnf(formula, cfg)
    except (WeakLearnerFailure, StageBudgetExceeded) as exc:
        row.update(status=type(exc).__name__, stages=None, quantum_queries=None,
                   classical_queries=None, final_error=None)
        return row
    totals = report.totals()
    row.update(status="ok", stages=totals["stages"],
               quantum_queries=totals["quantum_queries"],
               classical_queries=totals["classical_queries"],
               final_error=report.final_error)
    return row


def _loglog_slope(xs, ys) -> float:
    return float(np.polyfit(np.log(np.asarray(xs, float)), np.log(np.asarray(ys, float)), 1)[0])


def query_sweep(grid, n_seeds: int, mode: str = "quantum_sim", base_seed: int = 0,
                overrides: dict | None = None, term_len: int = 3, jobs: int = 1) -> dict:
    """Run the learner over (n, s, epsilon) cells and fit log-log slopes.

    ``grid`` is an iterable of (n, s, epsilon). Per-cell failures are
    recorded as rows, not raised. The fits report the slope of mean
    total quantum queries against s at fixed (n, epsilon) and of mean
    total classical queries against 1/epsilon at fixed (n, s), over the
    cells with at least one successful run.
    """
    overrides = dict(overrides or {})
    cells = []
    grid = [(int(n), int(s), float(eps)) for n, s, eps in grid]
    for index, (n, s, eps) in enumerate(grid):
        for seed_index in range(n_seeds):
            cell_seed = seeds.derive_int(base_seed, seeds.SWEEP_CELL, index, seed_index)
            cells.append((n, s, eps, seed_index, cell_seed, mode, overrides, term_len))
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_sweep_cell, cells))
    else:
        rows = [_sweep_cell(cell) for cell in cells]

    def mean_total(n, s, eps, key):
        values = [row[key] for row in rows
                  if (row["n"], row["s"], row["epsilon"]) == (n, s, eps) and row["status"] == "ok"]
        return float(np.mean(values)) if values else None

    fits = {"quantum_vs_s": [], "classical_vs_inv_epsilon": []}
    for n in sorted({c[0] for c in grid}):
        for eps in sorted({c[2] for c in grid if c[0] == n}):
            ss = sorted({c[1] for c in grid if (c[0], c[2]) == (n, eps)})
            pts = [(s, mean_total(n, s, eps, "quantum_queries")) for s in ss]
            pts = [(s, q) for s, q in pts if q]
            if len(pts) >= 2:
                fits["quantum_vs_s"].append({
                    "n": n, "epsilon": eps,
                    "slope": _loglog_slope([p[0] for p in pts], [p[1] for p in pts]),
                })
        for s in sorted({c[1] for c in grid if c[0] == n}):
            eps_list = sorted({c[2] for c in grid if (c[0], c[1]) == (n, s)})
            pts = [(1.0 / eps, mean_total(n, s, eps, "classical_queries")) for eps in eps_list]
            pts = [(inv, q) for inv, q in pts if q]
            if len(pts) >= 2:
                fits["classical_vs_inv_epsilon"].append({
                    "n": n, "s": s,
                    "slope": _loglog_slope([p[0] for p in pts], [p[1] for p in pts]),
                })
    return {"rows": rows, "fits": fits}
