"""The benchmark's seed-0 fingerprints, pinned.

``perfbench/run.py`` fingerprints a workload by the records of the first
cycle of its cells at the run's seed. A change that keeps every report
keeps these three fingerprints. The workloads are loaded read-only from
``perfbench/workloads.py``, whose cells import qhslab from the path
the tests run on.
"""
import importlib.util
import pathlib
import sys

import pytest

WORKLOADS_PY = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


workloads = load_workloads()


@pytest.mark.parametrize("name, fingerprint", [
    ("quantum_n10", "aeb855b339b14e94"),
    ("exact_ladder", "4c12447d051aa7e3"),
    ("amplified_search", "5d45a9b0b9237305"),
])
def test_seed_0_benchmark_fingerprints(name, fingerprint):
    wl = workloads.WORKLOADS[name]
    outs = [wl.run(wl.cell(0, index)) for index in range(wl.cycle)]
    assert workloads.fingerprint([wl.record(out) for out in outs]) == fingerprint
