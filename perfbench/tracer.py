"""Span tracer that wraps qhslab's per-layer public functions from outside.

Installing a :class:`Tracer` replaces each target function with a wrapper
in every ``qhslab`` module that holds a reference to it (``simulator``
imports ``butterfly_axis0`` from ``boolfn``, ``sieve`` imports
``weighted_weak_parity`` from ``weaklearn``, and so on), and replaces
methods on their classes. Uninstalling puts every original back. The
library itself is never edited.

Each call records a span ``[name, parent, start_ns, end_ns, failed]`` in
memory; the parent is the span that was open when the call began. A span's
self time is its duration minus the durations of its direct children,
computed in integer nanoseconds so it is never negative through rounding.

Counters that depend on arguments (bytes and operations computed from
array shapes, attempts of a parity search) are added by hooks that see
the call's arguments. The byte and operation figures are *computed* from
shapes by the model documented on each hook, not measured with hardware
counters. On the 2-core Intel Xeon the workloads were sized on,
``/proc/cpuinfo`` reports a 300 MB last-level cache, far above every
working set here (the largest is a 1 MB statevector), so every working set
is cache-resident and no bandwidth or roofline ratio is derived from them.
"""
from __future__ import annotations

import functools
import math
import sys
import time
from collections import defaultdict

import numpy as np


def _butterfly_model(args, kwargs, counts, before):
    """n passes over the array, each reading and writing every element once
    and doing one add or subtract per element."""
    a = args[0]
    passes = int(a.shape[0]).bit_length() - 1
    counts["boolfn.butterfly_axis0.bytes_computed"] += 2 * a.nbytes * passes
    counts["boolfn.butterfly_axis0.ops_computed"] += a.size * passes


def _gate_model(touched):
    """Gate on the statevector: it reads and writes ``touched(args)`` of the
    amplitudes once, then the norm check reads the whole state once."""
    def hook(args, kwargs, counts, before):
        amps = args[0].amps
        share = touched(args)
        counts["simulator.gates.bytes_computed"] += amps.nbytes * (2.0 * share + 1.0)
        counts["simulator.gates.ops_computed"] += amps.size * (share + 1.0)
        counts["simulator.state_bytes"] = max(counts["simulator.state_bytes"], amps.nbytes)
    return hook


def _row_share(arg_index):
    """Share of index rows selected by a bit table or mask argument."""
    def share(args):
        rows = args[arg_index]
        if callable(rows):
            return 1.0
        return float(np.count_nonzero(rows)) / len(rows)
    return share


def _arg(args, kwargs, index, name, default=None):
    return args[index] if len(args) > index else kwargs.get(name, default)


def _search_before(args, kwargs):
    return _arg(args, kwargs, 5, "counter").quantum_queries


def _search_model(args, kwargs, counts, before):
    """Infer measured candidates from the queries the search charged.

    ``quantum_weak_parity`` charges 2*(2k + 1) queries per attempt and
    walks the doubling depths 0, 1, 2, 4, ... <= k_max in order, so the
    charged total fixes how many measurements were made. A search that
    returns verified its last measurement; one that raises verified none.
    """
    gamma_target = _arg(args, kwargs, 1, "gamma_target")
    scale = _arg(args, kwargs, 7, "schedule_scale", 1.0)
    charged = _arg(args, kwargs, 5, "counter").quantum_queries - before
    k_max = max(1, math.ceil(scale / gamma_target))
    depths = [0] + [1 << j for j in range(k_max.bit_length()) if (1 << j) <= k_max]
    attempts, spent = 0, 0
    while spent < charged:
        spent += 2 * (2 * depths[attempts % len(depths)] + 1)
        attempts += 1
    counts["weaklearn.measured_candidates"] += attempts


PACKAGE = "qhslab"

# counters the hooks add to, reported as zero when no hook fired
COUNTERS = ("boolfn.butterfly_axis0.bytes_computed", "boolfn.butterfly_axis0.ops_computed",
            "simulator.gates.bytes_computed", "simulator.gates.ops_computed",
            "simulator.state_bytes", "weaklearn.measured_candidates")

# (module, attribute path, hook run after the call, hook run before it)
TARGETS = (
    ("boolfn", "butterfly_axis0", _butterfly_model, None),
    ("boolfn", "wht_unscaled", None, None),
    ("boolfn", "chi", None, None),
    ("simulator", "init_state", None, None),
    ("simulator", "prepare_spectrum_state", None, None),
    ("simulator", "grover_step", None, None),
    ("simulator", "index_distribution", None, None),
    ("simulator", "hadamard_index", _gate_model(lambda args: 1.0), None),
    ("simulator", "x_phase", _gate_model(lambda args: 1.0), None),
    ("simulator", "cz_answer_phase", _gate_model(lambda args: 0.25), None),
    ("simulator", "reflect_zero_index", _gate_model(lambda args: 0.0), None),
    ("simulator", "apply_marked_phase", _gate_model(_row_share(1)), None),
    ("simulator", "apply_membership", _gate_model(_row_share(1)), None),
    ("weaklearn", "SharedSample.draw", None, None),
    ("weaklearn", "sample_correlations", None, None),
    ("weaklearn", "signed_digit_decompose", None, None),
    ("weaklearn", "quantum_weak_parity", _search_model, _search_before),
    ("weaklearn", "weighted_weak_parity", None, None),
    ("weaklearn", "exact_weak_parity", None, None),
    ("weaklearn", "WeakHypothesis.values", None, None),
    ("boosting", "weight_from_margin", None, None),
    ("boosting", "CombinedHypothesis.sign_table", None, None),
    ("sieve", "learn_dnf", None, None),
)


class Tracer:
    """Records spans and counters while installed; see the module docstring."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn, after, before_hook):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            before = before_hook(args, kwargs) if before_hook else None
            span = [name, stack[-1] if stack else -1, clock(), 0, False]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[3] = clock()
                stack.pop()
                if after:
                    after(args, kwargs, counts, before)
            return result

        return traced

    def install(self) -> "Tracer":
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [mod for key, mod in list(sys.modules.items())
                   if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for module_name, path, after, before in TARGETS:
            home = sys.modules[f"{PACKAGE}.{module_name}"]
            name = f"{module_name}.{path}"
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(home, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__, after, before))
                else:
                    new = self._wrap(name, raw, after, before)
                self._restore.append((cls, attr, raw))
                setattr(cls, attr, new)
                continue
            orig = getattr(home, path)
            new = self._wrap(name, orig, after, before)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._restore.append((mod, attr, orig))
                        setattr(mod, attr, new)
        return self

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def reset(self) -> None:
        if self._stack:
            raise RuntimeError("cannot reset while a span is open")
        self.spans.clear()
        self.counts.clear()

    def summary(self) -> dict:
        """Per span name: calls, failed calls, total and self seconds."""
        child_ns = [0] * len(self.spans)
        for _, parent, start, end, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "fail": 0, "total_s": 0.0, "self_ns": 0})
        for index, (name, _, start, end, failed) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["fail"] += int(failed)
            row["total_s"] += (end - start) / 1e9
            row["self_ns"] += end - start - child_ns[index]
        for row in out.values():
            row["self_s"] = row.pop("self_ns") / 1e9
        return dict(out)
