"""Tests of the benchmark itself: seeded inputs, output checks, the tracer's
count invariants and self times, and refusal to run without the sources.

Run from the root of the checkout with ``python3 -m pytest perfbench -q``.
"""
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

workloads = run.import_library()
from tracer import Tracer  # noqa: E402

from qhslab import boolfn, simulator, weaklearn  # noqa: E402

SMALL_LEARN = workloads.LearnWorkload("small_learn", [(6, 1, "quantum_sim", 5), (6, 2, "quantum_sim", 7)],
                                      epsilon=0.2)
SMALL_SEARCH = workloads.SearchWorkload("small_search", n=12, gamma=1 / 8, gamma_target=1 / 8)


def traced_cycle(wl, seed):
    cells = [wl.cell(seed, j) for j in range(wl.cycle)]
    tracer = Tracer()
    start = time.perf_counter()
    with tracer:
        outs = [wl.run(cell) for cell in cells]
    wall = time.perf_counter() - start
    return cells, outs, tracer, wall


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seeded_inputs_are_deterministic(name):
    wl = workloads.WORKLOADS[name]

    def key(cell):
        if wl.kind == "learn":
            return json.dumps([cell.formula.to_dict(), cell.cfg.to_dict()])
        return json.dumps([cell.target, cell.rng_seed, cell.g_sign.tolist()])

    first = [key(wl.cell(7, j)) for j in range(wl.cycle)]
    assert first == [key(wl.cell(7, j)) for j in range(wl.cycle)]
    assert first != [key(wl.cell(8, j)) for j in range(wl.cycle)]


def test_relabel_keeps_the_spectrum():
    base = boolfn.random_dnf(8, 2, 3, 11)
    copy = workloads.relabel(base, workloads.stream(3, 0))
    want = np.sort(np.abs(boolfn.wht(base.sign_table())))
    assert np.array_equal(np.sort(np.abs(boolfn.wht(copy.sign_table()))), want)
    assert np.array_equal(workloads.reference_sign_table(copy), copy.sign_table().astype(np.int64))


@pytest.mark.parametrize("wl", [SMALL_LEARN, SMALL_SEARCH], ids=lambda wl: wl.name)
def test_trace_counts_self_times_and_outputs(wl):
    cells, outs, tracer, wall = traced_cycle(wl, 4)
    summary = tracer.summary()
    metrics = run.layer_metrics(summary, tracer.counts)
    assert run.invariant_errors(metrics) == []
    assert run.self_time_errors(summary, wall) == []
    assert all(row["self_s"] >= 0 for row in summary.values())
    assert metrics["simulator.prepare_spectrum_state.calls"] > 0
    for cell, out in zip(cells, outs):
        assert wl.check(cell, out) == []
        assert wl.digest(out) == wl.digest(wl.run(cell))  # untraced run, same output


def test_search_workload_amplifies():
    _, _, tracer, _ = traced_cycle(SMALL_SEARCH, 2)
    metrics = run.layer_metrics(tracer.summary(), tracer.counts)
    assert metrics["weaklearn.grover_steps_per_search"] > 0
    assert 0 < metrics["weaklearn.verify_yield"] <= 1
    assert metrics["weaklearn.verified_parities"] == SMALL_SEARCH.cycle


def test_learn_workload_searches_without_amplification():
    _, _, tracer, _ = traced_cycle(SMALL_LEARN, 2)
    metrics = run.layer_metrics(tracer.summary(), tracer.counts)
    assert metrics["weaklearn.weighted_weak_parity.calls"] > 0
    assert metrics["weaklearn.digit_rows_per_stage"] >= 1


def test_invariant_errors_catch_a_miscount():
    _, _, tracer, _ = traced_cycle(SMALL_SEARCH, 1)
    metrics = run.layer_metrics(tracer.summary(), tracer.counts)
    metrics["simulator.grover_step.calls"] += 1
    assert len(run.invariant_errors(metrics)) == 1


def test_uninstall_restores_every_reference():
    originals = (boolfn.butterfly_axis0, weaklearn.WeakHypothesis.__dict__["values"],
                 weaklearn.SharedSample.__dict__["draw"])
    with Tracer():
        assert simulator.butterfly_axis0 is not originals[0]
        assert simulator.butterfly_axis0 is boolfn.butterfly_axis0
    assert simulator.butterfly_axis0 is originals[0] and boolfn.butterfly_axis0 is originals[0]
    assert weaklearn.WeakHypothesis.__dict__["values"] is originals[1]
    assert weaklearn.SharedSample.__dict__["draw"] is originals[2]


def test_checks_reject_wrong_outputs():
    cell = SMALL_LEARN.cell(5, 0)
    report = SMALL_LEARN.run(cell)
    report.final_error = 0.5
    assert len(SMALL_LEARN.check(cell, report)) == 2
    cell = SMALL_SEARCH.cell(5, 0)
    hyp, queries = SMALL_SEARCH.run(cell)
    hyp.a ^= 1
    assert SMALL_SEARCH.check(cell, (hyp, queries))


def test_tail_rule():
    samples = list(range(1, 41))
    stat = run.tail(samples)
    assert (stat["value"], stat["beyond"], stat["percentile"]) == (30, 10, 75.0)
    stat = run.tail([3.0, 1.0, 2.0])
    assert (stat["value"], stat["beyond"], stat["samples"]) == (3.0, 0, 3)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "quantum_n10",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
