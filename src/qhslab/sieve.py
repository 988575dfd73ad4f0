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
import sys
from dataclasses import asdict, astuple, dataclass, field, fields

import numpy as np

from . import seeds
from .boolfn import DnfFormula, check_cap, check_random_dnf, random_dnf
from .boosting import StageBudgetExceeded, boost
from .simulator import QueryCounter
from .weaklearn import (NoHeavyCoefficient, SearchRecords, SharedSample, bit_threshold,
                        digit_depth, exact_weak_parity, sampled_weak_parity, weighted_weak_parity)

MODES = ("quantum_sim", "classical_exact", "classical_sampled")

REPORT_SCHEMA = 2  # of every JSON artifact: run report, weak result, sweep parameters


class WeakLearnerFailure(Exception):
    """A stage produced no verified parity: bad constants or a broken premise."""


@dataclass
class QhsConfig:
    """One run's parameters, all derived quantities exposed.

    Derivations: gamma = 1/(8s+4), big_gamma = threshold_scale * epsilon
    / (3 (2s+1)), stage budget ceil(stage_scale / (gamma**2 epsilon)),
    shared sample ceil(sample_scale * s**2 / epsilon**2). The weak
    learner's per-stage failure budget is delta / (2 * budget).
    Construction rejects a non-integer n or s, epsilon outside (0, 1/2)
    (the range :func:`boosting.boost` accepts), delta outside (0, 1), a
    nonpositive scale, a stage budget, sample size or big_gamma that
    overflows, a stage budget so large that ``stage_delta()`` is not
    positive, a sample size above 2**63 - 1, and in quantum_sim mode
    n = 0 (the circuit needs an index qubit), a big_gamma outside (0, 1)
    (the range :func:`weaklearn.weighted_weak_parity` accepts), a
    :func:`weaklearn.digit_depth` above 62 (the signed digits are split
    in int64), or a ``stage_delta()`` that, split over the digit rows of
    a stage, falls below the smallest normal double (each row's search
    takes the reciprocal of its budget).
    """

    n: int
    s: int
    epsilon: float
    delta: float = 0.1
    mode: str = "quantum_sim"
    stage_scale: float = 4.0
    threshold_scale: float = 1.0
    sample_scale: float = 131072.0
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
        for name in ("stage_scale", "threshold_scale", "sample_scale"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        for name in ("stage_budget", "sample_size", "big_gamma"):
            try:
                getattr(self, name)  # fails here, not partway through a run
            except (OverflowError, ZeroDivisionError):
                raise ValueError(f"{name} is not finite") from None
        if not self.stage_delta() > 0.0:
            raise ValueError("stage_budget is so large that stage_delta is 0")
        if self.sample_size > 2**63 - 1:
            raise ValueError("sample_size exceeds 2**63 - 1")
        if self.mode == "quantum_sim" and self.n < 1:
            raise ValueError("quantum_sim needs n >= 1: the circuit has no index qubit")
        if self.mode == "quantum_sim" and not 0.0 < self.big_gamma < 1.0:
            raise ValueError("threshold_scale puts big_gamma outside (0, 1)")
        if self.mode == "quantum_sim" and not self._digit_depth() <= 62:
            raise ValueError("threshold_scale puts the digit depth above 62, past int64")
        if (self.mode == "quantum_sim"
                and not self.stage_delta() / self._digit_depth() >= sys.float_info.min):
            raise ValueError("stage_delta split over the digit rows underflows")

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
        return bit_threshold(self.big_gamma)

    def stage_delta(self) -> float:
        return self.delta / (2.0 * self.stage_budget)

    def _digit_depth(self) -> float:
        """:func:`weaklearn.digit_depth` of big_gamma (inf where 3 / big_gamma overflows)."""
        try:
            return digit_depth(self.big_gamma)
        except OverflowError:
            return math.inf

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


def csv_field(value) -> str:
    """The CSV form of a value: ``repr`` for a float, empty for None, else ``str``."""
    if value is None:
        return ""
    return repr(value) if isinstance(value, float) else str(value)


def csv_text(columns, rows) -> str:
    """A header line of ``columns``, then one line per row of values."""
    lines = [",".join(columns)] + [",".join(map(csv_field, row)) for row in rows]
    return "\n".join(lines) + "\n"


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
        return csv_text(CSV_COLUMNS, map(astuple, self.stages))


def setup_run(formula: DnfFormula, cfg: QhsConfig) -> tuple:
    """Everything a run needs before its first stage.

    Checks the formula against the config, builds its sign table as one
    signed byte per point (int8 +-1, which :func:`boosting.boost` reads as
    it is), draws the shared sample on the ``seeds.SAMPLE_DRAW`` stream
    (charging it to a fresh counter) and builds the configured weak
    learner on the ``seeds.WEAK_LEARNER`` stream. Returns ``(f_sign,
    sample, counter, learn)``, where ``learn`` is a ``g -> WeakHypothesis``
    callable, g the float64 weighted target ``weights * f_sign`` as
    :func:`boosting.boost` lends it, that looks the learners up by name at
    call time and raises :class:`WeakLearnerFailure` for a stage without a
    verified parity. In ``classical_exact`` mode it transforms g in place,
    so the buffer it is given holds g's unscaled spectrum on return. In
    ``quantum_sim`` mode the learner lends every stage one
    :class:`weaklearn.SearchRecords`, with the run's buffers.
    """
    if formula.n != cfg.n:
        raise ValueError(f"formula has n={formula.n} but the config says n={cfg.n}")
    if formula.size() > cfg.s:
        raise ValueError(f"formula has {formula.size()} terms, above the configured s={cfg.s}")
    counter = QueryCounter()
    f_sign = formula.sign_table().astype(np.int8)
    sample = SharedSample.draw(cfg.n, cfg.sample_size, counter,
                               seeds.derive(cfg.seed, seeds.SAMPLE_DRAW))
    rng = seeds.derive(cfg.seed, seeds.WEAK_LEARNER)
    stages = itertools.count(1)
    records = SearchRecords()  # weighted_weak_parity's, sound for this run's f and sample

    def learn(g_values):
        t = next(stages)
        try:
            if cfg.mode == "classical_exact":
                return exact_weak_parity(g_values, out=g_values)
            if cfg.mode == "classical_sampled":
                return sampled_weak_parity(sample, g_values, cfg.verify_threshold)
            return weighted_weak_parity(g_values, cfg.big_gamma, cfg.stage_delta(), sample,
                                        counter, rng, records=records)
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

    def stage(g_values):
        hyp = learn(g_values)
        spent.append((counter.quantum_queries, counter.classical_queries))
        return hyp

    combined, estimates = boost(f_sign, sample, cfg.epsilon, cfg.gamma, cfg.stage_budget, stage)
    rows = [StageRow(t, estimate, hyp.a, hyp.sign, hyp.est_advantage, q - prev_q, c - prev_c)
            for t, (estimate, hyp, (prev_q, prev_c), (q, c))
            in enumerate(zip(estimates, combined.hypotheses, spent, spent[1:]), 1)]
    final_error = float(np.mean(combined.sign_table(cfg.n) != f_sign))
    report = RunReport(cfg.to_dict(), rows, "converged", estimates[-1], final_error)
    return combined, report


GRID_AXES = ("n", "s", "epsilon")
SWEEP_COLUMNS = GRID_AXES + ("seed_index", "status", "stages", "quantum_queries",
                             "classical_queries", "sample_size", "final_error")


def _sweep_cell(args: tuple) -> dict:
    """One row in ``SWEEP_COLUMNS`` order; a failed run's result columns are None."""
    cfg, seed_index = args
    formula = random_dnf(cfg.n, cfg.s, min(3, cfg.n), cfg.seed)
    row = dict(zip(GRID_AXES, (cfg.n, cfg.s, cfg.epsilon)), seed_index=seed_index,
               sample_size=cfg.sample_size)
    try:
        _, report = learn_dnf(formula, cfg)
    except (WeakLearnerFailure, StageBudgetExceeded) as exc:
        row["status"] = type(exc).__name__
    else:
        row.update(report.totals(), status="ok", final_error=report.final_error)
    return {col: row.get(col) for col in SWEEP_COLUMNS}


def _loglog_fits(grid, rows, key: str, axis: str, x_of=float) -> list:
    """Log-log slopes of the mean ``key`` total of successful runs against
    grid axis ``axis`` (x is ``x_of`` of its value): one fit per setting
    of the other two axes that has two or more cells with a positive x
    and a nonzero mean. A cell with x = 0 (s = 0) has no logarithm and
    is skipped, as a zero mean is."""
    i = GRID_AXES.index(axis)
    groups = {}
    for cell in sorted(set(grid)):
        totals = [row[key] for row in rows
                  if row["status"] == "ok" and tuple(row[a] for a in GRID_AXES) == cell]
        x = x_of(cell[i])
        if x > 0 and totals and (mean := np.mean(totals)):
            groups.setdefault(cell[:i] + cell[i + 1:], []).append((x, mean))
    others = GRID_AXES[:i] + GRID_AXES[i + 1:]
    return [{**dict(zip(others, group)), "slope": float(np.polyfit(*np.log(pts).T, 1)[0])}
            for group, pts in sorted(groups.items()) if len(pts) >= 2]


def query_sweep(grid, n_seeds: int, mode: str = "quantum_sim", base_seed: int = 0,
                overrides: dict | None = None, jobs: int = 1) -> dict:
    """Run the learner over (n, s, epsilon) cells and fit log-log slopes.

    ``grid`` is an iterable of (n, s, epsilon). Per-cell failures are
    recorded as rows, not raised. The fits report the slope of mean
    total quantum queries against s at fixed (n, epsilon) and of mean
    total classical queries against 1/epsilon at fixed (n, s), over the
    cells with at least one successful run. With ``jobs`` above 1 the
    runs go to a process pool of ``min(jobs, number of runs)`` workers.
    Every run's config and formula arguments are checked before the
    first run starts, so a bad cell raises ``ValueError`` having run
    nothing, as does ``n_seeds`` or ``jobs`` below 1.
    """
    if n_seeds < 1 or jobs < 1:
        raise ValueError("a sweep needs at least one seed per cell and one job")
    overrides = dict(overrides or {})
    cells = []
    grid = [(int(n), int(s), float(eps)) for n, s, eps in grid]
    for index, (n, s, eps) in enumerate(grid):
        for seed_index in range(n_seeds):
            cell_seed = seeds.derive_int(base_seed, seeds.SWEEP_CELL, index, seed_index)
            cfg = QhsConfig(n=n, s=s, epsilon=eps, mode=mode, seed=cell_seed, **overrides)
            check_random_dnf(n, s, min(3, n))
            cells.append((cfg, seed_index))
    workers = min(jobs, len(cells))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # loaded only by a pooled sweep
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_cell, cells))
    else:
        rows = [_sweep_cell(cell) for cell in cells]

    return {"rows": rows, "fits": {
        "quantum_vs_s": _loglog_fits(grid, rows, "quantum_queries", "s"),
        "classical_vs_inv_epsilon": _loglog_fits(grid, rows, "classical_queries", "epsilon",
                                                 lambda eps: 1.0 / eps),
    }}
