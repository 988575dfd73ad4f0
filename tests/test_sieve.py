import json
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qhslab import (QhsConfig, QueryCounter, SharedSample, boost, exact_weak_parity, learn_dnf,
                    query_sweep, random_dnf, to_pm1, wht)
from qhslab import seeds, sieve, weaklearn
from qhslab.boolfn import DnfFormula
from qhslab.boosting import StageBudgetExceeded, weight_from_margin
from qhslab.sieve import CSV_COLUMNS, MODES, WeakLearnerFailure
from qhslab.weaklearn import digit_depth, signed_digit_decompose


def small_cfg(**kw):
    base = dict(n=8, s=2, epsilon=0.15, mode="classical_exact", sample_scale=4096.0, seed=0)
    base.update(kw)
    return QhsConfig(**base)


def test_config_derivations():
    cfg = QhsConfig(n=10, s=3, epsilon=0.1, delta=0.1, seed=1)
    assert cfg.gamma == 1.0 / 28
    assert cfg.big_gamma == 0.1 / (3 * 7)
    assert cfg.stage_budget == math.ceil(4.0 / (cfg.gamma**2 * 0.1))
    assert cfg.sample_size == math.ceil(cfg.sample_scale * 9 / 0.01)
    assert cfg.verify_threshold == cfg.big_gamma / 6
    assert cfg.stage_delta() == 0.1 / (2 * cfg.stage_budget)


def test_config_validation():
    for bad in (dict(epsilon=0.0), dict(delta=1.5), dict(mode="wrong"), dict(n=64),
                dict(n=6.0), dict(n=True), dict(s=2.0), dict(s=False),
                dict(epsilon=0.5), dict(epsilon=0.7),
                dict(stage_scale=-1.0), dict(stage_scale=0.0), dict(sample_scale=0.0),
                dict(sample_scale=-5.0), dict(threshold_scale=0.0), dict(threshold_scale=-1.0),
                # derived sizes a run could not build
                dict(stage_scale=math.inf), dict(sample_scale=math.inf),
                dict(sample_scale=1e300), dict(epsilon=1e-200), dict(epsilon=1e-160),
                dict(sample_scale=2.0**63 / 399), dict(threshold_scale=150.0),
                dict(s=0, epsilon=0.25, threshold_scale=12.0),  # big_gamma exactly 1
                dict(stage_scale=4e304),  # stage_delta underflows to 0
                dict(stage_scale=4e302),  # a digit row's share of stage_delta is subnormal
                dict(threshold_scale=5e-324),  # big_gamma underflows to 0
                dict(threshold_scale=1e-18),  # digit depth 69: the digits overflow int64
                dict(n=0)):  # quantum_sim has no index qubit
        with pytest.raises(ValueError):
            QhsConfig(**{**dict(n=10, s=2, epsilon=0.1), **bad})
    # the edges that still build; big_gamma >= 1 is only rejected for quantum_sim
    assert QhsConfig(n=10, s=2, epsilon=0.1, sample_scale=2.0**63 / 400).sample_size == 2**63 - 2048
    assert QhsConfig(n=10, s=0, epsilon=0.25, threshold_scale=11.9).big_gamma < 1
    assert digit_depth(QhsConfig(n=10, s=2, epsilon=0.1, threshold_scale=1e-16).big_gamma) == 62
    for mode in ("classical_exact", "classical_sampled"):
        assert QhsConfig(n=10, s=2, epsilon=0.1, threshold_scale=150.0, mode=mode).big_gamma >= 1
        assert QhsConfig(n=0, s=2, epsilon=0.1, mode=mode).n == 0
        assert QhsConfig(n=10, s=2, epsilon=0.1, stage_scale=4e302, mode=mode).stage_delta() > 0


# any number, and the ranges each field accepts, to reach the derived sizes often
any_number = (st.floats(allow_nan=True, allow_infinity=True) | st.integers(-2**70, 2**1100)
              | st.booleans())
unit = st.floats(0.0, 1.0) | st.floats(0.0, 1e-150)
scale = st.floats(0.0, 1e300) | st.floats(0.0, 1e-300) | st.integers(1, 2**1100)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(-2, 70) | any_number, s=st.integers(-2, 2**1100) | any_number,
       epsilon=unit | any_number, delta=unit | any_number, stage_scale=scale | any_number,
       threshold_scale=scale | any_number, sample_scale=scale | any_number,
       mode=st.sampled_from(MODES + ("wrong",)))
@example(n=10, s=2, epsilon=0.1, delta=0.1, stage_scale=4.0, threshold_scale=2**1100,
         sample_scale=1.0, mode="quantum_sim")  # big_gamma overflows a float
@example(n=10, s=2, epsilon=0.1, delta=0.1, stage_scale=4.0, threshold_scale=2**1100,
         sample_scale=1.0, mode="classical_exact")
@example(n=10, s=2, epsilon=0.1, delta=0.1, stage_scale=4e304, threshold_scale=1.0,
         sample_scale=1.0, mode="classical_exact")  # stage_delta underflows to 0
def test_config_builds_or_raises_value_error(n, s, epsilon, delta, stage_scale,
                                             threshold_scale, sample_scale, mode):
    try:
        cfg = QhsConfig(n=n, s=s, epsilon=epsilon, delta=delta, mode=mode,
                        stage_scale=stage_scale, threshold_scale=threshold_scale,
                        sample_scale=sample_scale)
    except ValueError:
        return
    assert isinstance(cfg.stage_budget, int) and cfg.stage_budget >= 1
    assert cfg.stage_delta() > 0
    if cfg.mode == "quantum_sim":  # every digit row's search budget is a normal double
        assert cfg.stage_delta() / digit_depth(cfg.big_gamma) >= sys.float_info.min
    assert 1 <= cfg.sample_size <= 2**63 - 1
    cfg.to_dict()  # every derived quantity is computable


def test_single_literal_learned_exactly():
    # the single literal is itself a parity, found with coefficient 1 at
    # stage 1; the weight-based loop still runs until the weights drain
    formula = DnfFormula(6, [[(0, False)]])
    cfg = QhsConfig(n=6, s=1, epsilon=0.1, mode="classical_exact", seed=3)
    combined, report = learn_dnf(formula, cfg)
    assert report.final_error == 0.0
    assert report.stages[0].parity == 1
    assert report.stages[0].advantage == 1.0
    assert report.termination == "converged"
    assert all(row.parity == 1 for row in report.stages)


def test_learn_dnf_validates_inputs():
    formula = random_dnf(8, 3, 3, 0)
    with pytest.raises(ValueError):
        learn_dnf(formula, small_cfg(n=9))
    with pytest.raises(ValueError):
        learn_dnf(formula, small_cfg(s=2))  # formula has more terms than s


def test_classical_exact_grid():
    n, epsilon = 10, 0.1
    for seed in range(50):
        s = 3
        formula = random_dnf(n, s, 3, 7000 + seed)
        cfg = QhsConfig(n=n, s=s, epsilon=epsilon, mode="classical_exact",
                        sample_scale=8192.0, seed=seed)
        _, report = learn_dnf(formula, cfg)
        assert report.final_error < epsilon
        assert len(report.stages) <= 2.0 / (epsilon * cfg.gamma**2)


def test_quantum_mode_learns_and_verifies():
    n, s, epsilon = 8, 2, 0.15
    formula = random_dnf(n, s, 3, 321)
    cfg = QhsConfig(n=n, s=s, epsilon=epsilon, mode="quantum_sim", seed=5)
    combined, report = learn_dnf(formula, cfg)
    assert report.final_error < epsilon
    assert report.totals()["quantum_queries"] > 0
    # every accepted parity holds up against the exact spectrum of its stage
    f_sign = formula.sign_table()
    xs = np.arange(1 << n)
    margins = np.zeros(1 << n)
    floor = cfg.verify_threshold - 5 / math.sqrt(cfg.sample_size)
    assert floor > 0
    for row, hyp in zip(report.stages, combined.hypotheses):
        weights = weight_from_margin(margins, cfg.gamma)
        exact = wht(weights * f_sign)
        assert abs(exact[row.parity]) >= floor
        margins += f_sign * hyp.values(xs) - cfg.gamma / (2 + cfg.gamma)


def test_amplifying_quantum_run_converges(monkeypatch):
    # the one known end-to-end learn run whose searches go past depth 0
    steps = []
    step = weaklearn.grover_step

    def counting_grover_step(*args):
        steps.append(1)
        return step(*args)

    monkeypatch.setattr(weaklearn, "grover_step", counting_grover_step)
    cfg = QhsConfig(n=12, s=2, epsilon=0.2, threshold_scale=32.0, seed=0)
    _, report = learn_dnf(random_dnf(12, 2, 6, seed=5), cfg)
    assert report.termination == "converged"
    assert report.final_error < cfg.epsilon
    assert report.totals()["stages"] == 90
    assert report.totals()["quantum_queries"] == 512
    # per-stage charges follow the depth schedule 2(2k + 1), k = 0, 1, 2, 4, ...
    assert {row.quantum_queries for row in report.stages} == {2, 4, 10, 36, 38}
    assert steps


@pytest.mark.parametrize("formula, cfg, deeper", [
    (random_dnf(10, 2, 3, seeds.derive_int(0, 10, 2)), QhsConfig(n=10, s=2, epsilon=0.1, seed=0),
     False),
    (random_dnf(12, 2, 6, seed=5), QhsConfig(n=12, s=2, epsilon=0.2, threshold_scale=32.0, seed=0),
     True),
], ids=["n10", "amplifying"])
def test_row_records_change_no_decision(monkeypatch, formula, cfg, deeper):
    # the run reuses a digit row's search across consecutive stages; a fresh mapping per
    # stage reuses nothing, and both must decide alike
    f_sign = formula.sign_table()
    weighted, prepare, step = (sieve.weighted_weak_parity, weaklearn.prepare_spectrum_state,
                               weaklearn.grover_step)
    stages = []  # per stage, the oracle bits of each distinct row alpha[j] * f
    events = []  # (stage, oracle bits, prepared or stepped)

    def watched(f_sign_, weights, big_gamma, delta, sample, counter, rng, records):
        alpha = signed_digit_decompose(weights, digit_depth(big_gamma)).alpha
        rows = {key.tobytes(): ((key * f_sign) < 0).astype(np.uint8).tobytes() for key in alpha}
        previous = set(stages[-1]) if stages else set()
        stages.append(rows)
        assert set(records) <= previous
        hyp = weighted(f_sign_, weights, big_gamma, delta, sample, counter, rng, records=records)
        assert set(records) == set(rows)
        return hyp

    def watched_prepare(bits, counter):
        for column in bits.reshape(bits.shape[0], -1).T:  # a batched preparation, once per column
            events.append((len(stages) - 1, column.tobytes(), "prepare"))
        return prepare(bits, counter)

    def watched_step(state, bits, heavy, counter):
        events.append((len(stages) - 1, bits.tobytes(), "step"))
        return step(state, bits, heavy, counter)

    monkeypatch.setattr(sieve, "weighted_weak_parity", watched)
    monkeypatch.setattr(weaklearn, "prepare_spectrum_state", watched_prepare)
    monkeypatch.setattr(weaklearn, "grover_step", watched_step)
    shipped = learn_dnf(formula, cfg)[1].to_json()

    # per row, each stretch of consecutive stages that searches it prepares it once, and
    # again only to go deeper than any depth it reached before in that stretch
    start = {}  # (bits, stage) -> first stage of the stretch of consecutive stages searching it
    for t, rows in enumerate(stages):
        for bits in rows.values():
            start[bits, t] = start.get((bits, t - 1), t)
    stretches = {}  # (bits, first stage) -> the depth each preparation in the stretch reached
    for t, bits, kind in events:
        depths = stretches.setdefault((bits, start[bits, t]), [])
        if kind == "prepare":
            depths.append(0)
        else:
            depths[-1] += 1
    assert all(b > a for depths in stretches.values() for a, b in zip(depths, depths[1:]))
    assert any(first < t for (_, t), first in start.items())  # some row is searched again
    assert any(len(depths) > 1 for depths in stretches.values()) == deeper

    monkeypatch.setattr(sieve, "weighted_weak_parity",
                        lambda *args, records: weighted(*args, records={}))
    assert learn_dnf(formula, cfg)[1].to_json() == shipped
    search = weaklearn.quantum_weak_parity  # and no reuse at all, not even across retries
    monkeypatch.setattr(weaklearn, "quantum_weak_parity", lambda *args, record: search(*args))
    assert learn_dnf(formula, cfg)[1].to_json() == shipped


def test_report_structure_and_totals():
    formula = random_dnf(8, 2, 3, 1)
    cfg = small_cfg(seed=9)
    _, report = learn_dnf(formula, cfg)
    data = report.to_dict()
    assert data["schema"] == 2
    assert data["termination"] == "converged"
    assert data["final_estimate"] <= 2 * cfg.epsilon / 3
    ts = [row["t"] for row in data["stages"]]
    assert ts == sorted(ts) and len(set(ts)) == len(ts)
    assert all(row["estimate"] > 2 * cfg.epsilon / 3 for row in data["stages"])
    assert data["totals"]["quantum_queries"] == sum(r["quantum_queries"] for r in data["stages"])
    assert data["totals"]["classical_queries"] == sum(r["classical_queries"] for r in data["stages"])
    assert data["totals"]["classical_queries"] >= cfg.sample_size
    csv = report.to_csv().splitlines()
    assert csv[0] == ",".join(CSV_COLUMNS)
    assert len(csv) == 1 + len(report.stages)


def test_reports_are_reproducible():
    formula = random_dnf(8, 2, 3, 2)
    cfg = small_cfg(mode="quantum_sim", seed=11)
    _, first = learn_dnf(formula, cfg)
    _, second = learn_dnf(formula, cfg)
    assert first.to_json() == second.to_json()
    assert first.to_csv() == second.to_csv()
    _, other = learn_dnf(formula, small_cfg(mode="quantum_sim", seed=12))
    assert other.to_json() != first.to_json()


def test_estimate_mean_weight():
    """boost()'s shared-sample estimate of the mean weight, against the exact
    mean of the weights it hands the weak learner."""
    n, epsilon, gamma = 8, 0.3, 0.05
    formula = random_dnf(n, 2, 3, 3)
    bits = formula.truth_table()
    f_sign = to_pm1(bits).astype(float)
    budget = math.ceil(2.0 / (epsilon * gamma**2))

    def run(sample):
        means = []

        def wl(weights):
            means.append(float(np.mean(weights)))
            return exact_weak_parity(f_sign, weights)

        _, estimates = boost(f_sign, sample, epsilon, gamma, budget, wl)
        return estimates, means

    sample = SharedSample.draw(n, 5000, bits, QueryCounter(), seeds.derive(0, 0))
    assert run(sample)[0][0] == 1.0  # stage 1 weight is identically 1
    estimates, means = run(SharedSample.full_cube(n, bits))
    assert np.max(np.abs(np.asarray(estimates[:-1]) - means)) < 1e-12
    exact = means[5]  # after five hypotheses
    deviations = []
    for seed in range(40):
        sample = SharedSample.draw(n, 20000, bits, QueryCounter(), seeds.derive(seed, 1))
        deviations.append(abs(run(sample)[0][5] - exact))
    assert np.mean(np.asarray(deviations) <= 0.05) >= 0.95


def test_weak_learner_failure_propagates():
    formula = random_dnf(8, 2, 3, 4)
    cfg = small_cfg(mode="classical_sampled", threshold_scale=1000.0, seed=13)
    with pytest.raises(WeakLearnerFailure):
        learn_dnf(formula, cfg)


def test_stage_budget_exceeded():
    formula = random_dnf(8, 2, 3, 5)
    cfg = small_cfg(stage_scale=1e-6, seed=14)
    assert cfg.stage_budget == 1
    with pytest.raises(StageBudgetExceeded):
        learn_dnf(formula, cfg)


def test_stage_budget_allows_convergence_on_the_last_stage():
    # the single literal needs 65 stages; a budget of exactly 65 suffices
    # because the estimate is checked again after the last stage
    formula = DnfFormula(6, [[(0, False)]])
    base = dict(n=6, s=1, epsilon=0.1, mode="classical_exact", seed=3)
    gamma_sq_eps = QhsConfig(**base).gamma ** 2 * 0.1
    cfg = QhsConfig(**base, stage_scale=64.5 * gamma_sq_eps)
    assert cfg.stage_budget == 65
    _, report = learn_dnf(formula, cfg)
    assert len(report.stages) == 65 and report.termination == "converged"
    short = QhsConfig(**base, stage_scale=63.5 * gamma_sq_eps)
    assert short.stage_budget == 64
    with pytest.raises(StageBudgetExceeded):
        learn_dnf(formula, short)


def test_query_sweep_rows_fits_and_determinism():
    grid = [(8, s, eps) for s in (1, 2) for eps in (0.4, 0.2)]
    kw = dict(n_seeds=2, mode="classical_sampled", base_seed=3,
              overrides={"sample_scale": 4096.0})
    result = query_sweep(grid, **kw)
    assert len(result["rows"]) == len(grid) * 2
    ok = [row for row in result["rows"] if row["status"] == "ok"]
    assert len(ok) == len(result["rows"])
    for row in ok:
        assert row["classical_queries"] >= row["sample_size"]
        assert row["sample_size"] == math.ceil(4096.0 * row["s"] ** 2 / row["epsilon"] ** 2)
    again = query_sweep(grid, **kw)
    assert result == again
    assert result["fits"]["quantum_vs_s"] == []  # no quantum queries in this mode


@pytest.mark.parametrize("grid, mode, overrides", [
    ([(8, 1, 0.4), (24, 1, 0.4)], "classical_exact", {}),  # n past the cap
    ([(8, 2, 0.3), (8, 0, 0.3)], "quantum_sim", {"threshold_scale": 20.0}),  # big_gamma 2
    ([(8, 1, 0.4), (0, 1, 0.4)], "classical_exact", {}),  # random_dnf needs a variable
], ids=["n", "big_gamma", "formula"])
def test_query_sweep_rejects_a_bad_last_cell_before_running_any(monkeypatch, grid, mode,
                                                                overrides):
    runs = []
    monkeypatch.setattr(sieve, "learn_dnf", lambda *args: runs.append(args))
    with pytest.raises(ValueError):
        query_sweep(grid, n_seeds=2, mode=mode, overrides=overrides)
    assert runs == []


def test_query_sweep_rejects_no_seeds_or_no_jobs(monkeypatch):
    runs = []
    monkeypatch.setattr(sieve, "learn_dnf", lambda *args: runs.append(args))
    for kw in ({"n_seeds": 0}, {"n_seeds": -1}, {"n_seeds": 1, "jobs": 0}):
        with pytest.raises(ValueError):
            query_sweep([(6, 1, 0.4)], mode="classical_exact", **kw)
    assert runs == []


def test_query_sweep_quantum_monotone_in_s():
    result = query_sweep([(8, s, 0.3) for s in (1, 2, 4)], n_seeds=2,
                         mode="quantum_sim", base_seed=1,
                         overrides={"sample_scale": 8192.0})
    by_s = {}
    for row in result["rows"]:
        assert row["status"] == "ok"
        by_s.setdefault(row["s"], []).append(row["quantum_queries"])
    means = [np.mean(by_s[s]) for s in (1, 2, 4)]
    assert means[0] < means[1] < means[2]
    assert result["fits"]["quantum_vs_s"][0]["slope"] > 0


def test_query_sweep_classical_scaling_follows_formula():
    grid = [(8, 2, eps) for eps in (0.4, 0.2, 0.1)]
    result = query_sweep(grid, n_seeds=1, mode="classical_exact", base_seed=2,
                         overrides={"sample_scale": 4096.0})
    for row in result["rows"]:
        formula_size = math.ceil(4096.0 * row["s"] ** 2 / row["epsilon"] ** 2)
        assert abs(row["classical_queries"] - formula_size) <= 0.1 * formula_size
    slope = result["fits"]["classical_vs_inv_epsilon"][0]["slope"]
    assert abs(slope - 2.0) <= 0.2


def test_query_sweep_quantum_slope_window():
    # empirical fit on the desk grid; the asymptotic exponent is 3 and the
    # window is deliberately wide
    result = query_sweep([(10, s, 0.2) for s in (1, 2, 4)], n_seeds=2,
                         mode="quantum_sim", base_seed=5)
    slope = result["fits"]["quantum_vs_s"][0]["slope"]
    assert 1.5 <= slope <= 3.5


def test_query_sweep_parallel_matches_serial():
    grid = [(7, 1, 0.3), (7, 2, 0.3)]
    kw = dict(n_seeds=2, mode="classical_exact", base_seed=9,
              overrides={"sample_scale": 2048.0})
    serial = query_sweep(grid, jobs=1, **kw)
    parallel = query_sweep(grid, jobs=2, **kw)
    assert serial == parallel


def test_query_sweep_fits_skip_s_zero_cells():
    result = query_sweep([(6, s, 0.2) for s in (0, 1, 2)], n_seeds=1, mode="quantum_sim",
                         overrides={"sample_scale": 2048.0})
    rows = result["rows"]
    assert [row["s"] for row in rows] == [0, 1, 2]
    assert all(row["status"] == "ok" for row in rows)
    (fit,) = result["fits"]["quantum_vs_s"]
    q1, q2 = (rows[s]["quantum_queries"] for s in (1, 2))
    assert fit["slope"] == pytest.approx(math.log(q2 / q1) / math.log(2.0), rel=1e-9)


def test_query_sweep_pool_has_at_most_one_worker_per_run(monkeypatch):
    sizes = []

    class SerialPool:  # stands in for the process pool; starts no process
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(sieve, "ProcessPoolExecutor", SerialPool)
    kw = dict(mode="classical_exact", base_seed=9, overrides={"sample_scale": 2048.0})
    grid = [(7, 1, 0.3), (7, 2, 0.3)]
    assert query_sweep(grid, n_seeds=1, jobs=8, **kw) == query_sweep(grid, n_seeds=1, **kw)
    assert sizes == [2]
    query_sweep(grid[:1], n_seeds=1, jobs=8, **kw)  # one run needs no pool
    assert sizes == [2]


def test_query_sweep_records_failures():
    grid = [(7, 1, 0.3)]
    result = query_sweep(grid, n_seeds=1, mode="classical_sampled", base_seed=0,
                         overrides={"threshold_scale": 1000.0, "sample_scale": 2048.0})
    assert result["rows"][0]["status"] == "WeakLearnerFailure"
    assert result["rows"][0]["final_error"] is None
