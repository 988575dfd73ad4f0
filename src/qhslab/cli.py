"""Command line front end: instance generation, single runs, one-shot
weak learning, exact spectra, invariant verification, and query sweeps.

Every subcommand's output is a pure function of its inputs and the
seed. Files are written atomically (temp file plus rename). Exit codes:

    0  success
    2  invalid parameters or usage
    3  I/O failure
    4  weak-learner failure (no verified parity at some stage)
    5  stage budget exceeded
    6  verification suite failure
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from dataclasses import fields

import numpy as np

from . import seeds
from .boolfn import dnf_to_json, heavy_coeffs, load_dnf, mux_dnf, random_dnf, wht
from .boosting import StageBudgetExceeded
from .checks import FAULTS, SUITES, run_all
from .sieve import (MODES, REPORT_SCHEMA, SWEEP_COLUMNS, QhsConfig, WeakLearnerFailure, csv_field,
                    csv_text, learn_dnf, query_sweep, setup_run)
from .simulator import QueryCounter, dump_state, prepare_spectrum_state

EXIT_OK = 0
EXIT_PARAMS = 2
EXIT_IO = 3
EXIT_WEAK_LEARNER = 4
EXIT_STAGE_BUDGET = 5
EXIT_VERIFY = 6


def write_atomic(path: str, data) -> None:
    """Write ``data`` to a temp file beside ``path``, then rename it over
    ``path``; on any failure the temp file is removed and the error raised."""
    tmp = f"{path}.tmp{os.getpid()}"
    mode = "wb" if isinstance(data, bytes) else "w"
    try:
        with open(tmp, mode) as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _emit(out, text: str, note: str = "") -> None:
    """Write ``text`` to the file ``out`` and say so, or to stdout when ``out`` is unset."""
    if out:
        write_atomic(out, text)
        print(f"wrote {out}{note}")
    else:
        sys.stdout.write(text)


def _cli_mode(mode: str) -> str:
    return mode.replace("-", "_")


# the shared tuning flags besides --mode and --seed: (flag, QhsConfig field it sets, help)
TUNING_FLAGS = (("--delta", "delta", None), ("--c1", "stage_scale", "stage budget scale"),
                ("--c2", "threshold_scale", "heaviness threshold scale"),
                ("--cr", "sample_scale", "shared sample scale"))


def _tuning(args) -> dict:
    """The QhsConfig fields the shared tuning flags set, besides mode and seed."""
    return {name: getattr(args, name) for _, name, _ in TUNING_FLAGS}


def _load_run(args) -> tuple:
    """The instance and its run config; s defaults to the instance's term count."""
    formula = load_dnf(args.instance)
    s = args.s if args.s is not None else formula.size()
    cfg = QhsConfig(n=formula.n, s=s, epsilon=args.epsilon, mode=_cli_mode(args.mode),
                    seed=args.seed, **_tuning(args))
    return formula, cfg


def cmd_gen(args) -> int:
    if args.family == "random":
        if args.n is None or args.s is None:
            raise ValueError("random family needs --n and --s")
        term_len = args.term_len if args.term_len is not None else min(3, args.n)
        formula = random_dnf(args.n, args.s, term_len, args.seed)
    else:
        if args.t is None or args.u is None or args.word is None:
            raise ValueError("mux family needs --t, --u and --word")
        formula = mux_dnf(args.t, args.u, [w for w in args.word.split(",")])
    write_atomic(args.out, dnf_to_json(formula))
    print(f"wrote {args.out} ({formula.size()} terms over {formula.n} variables)")
    return EXIT_OK


def cmd_learn(args) -> int:
    _, report = learn_dnf(*_load_run(args))
    write_atomic(args.out + ".json", report.to_json())
    write_atomic(args.out + ".csv", report.to_csv())
    totals = report.totals()
    print(f"converged in {totals['stages']} stages, final error {csv_field(report.final_error)}, "
          f"{totals['quantum_queries']} quantum / {totals['classical_queries']} classical queries")
    print(f"wrote {args.out}.json and {args.out}.csv")
    return EXIT_OK


def cmd_weak(args) -> int:
    """One weak-learning call against the uniform weighting."""
    formula, cfg = _load_run(args)
    _, _, counter, learn = setup_run(formula, cfg)
    hyp = learn(np.ones(1 << cfg.n))
    payload = {
        "schema": REPORT_SCHEMA,
        "config": cfg.to_dict(),
        "parity": hyp.a,
        "sign": hyp.sign,
        "advantage": hyp.est_advantage,
        "quantum_queries": counter.quantum_queries,
        "classical_queries": counter.classical_queries,
    }
    _emit(args.out, json.dumps(payload, indent=2) + "\n")
    return EXIT_OK


def cmd_spectrum(args) -> int:
    formula = load_dnf(args.instance)
    if args.theta is not None:
        rows = heavy_coeffs(formula.sign_table(), args.theta)
    else:
        rows = list(enumerate(wht(formula.sign_table()).tolist()))
    _emit(args.out, csv_text(("parity", "coefficient"), rows), f" ({len(rows)} rows)")
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.dump_state is not None:
        rng = seeds.derive(args.seed, seeds.VERIFY, 99)
        bits = rng.integers(0, 2, size=1 << args.n).astype(np.uint8)
        state = prepare_spectrum_state(bits, QueryCounter())
        write_atomic(args.dump_state, dump_state(state))
        print(f"wrote state dump for a seeded random oracle on n={args.n} to {args.dump_state}")
    results = run_all(seed=args.seed, fault=args.inject_fault, names=args.suite or None)
    failed = 0
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"{status} {result.name}: {result.checked - len(result.failures)}/{result.checked} checks")
        for line in result.failures:
            print(f"    {line}")
        failed += len(result.failures)
    print(f"{'all suites passed' if not failed else f'{failed} checks failed'}")
    return EXIT_OK if not failed else EXIT_VERIFY


def cmd_sweep(args) -> int:
    ns = [int(v) for v in args.n.split(",")]
    ss = [int(v) for v in args.s.split(",")]
    epsilons = [float(v) for v in args.epsilon.split(",")]
    grid = [(n, s, eps) for n in ns for s in ss for eps in epsilons]
    overrides = _tuning(args)
    result = query_sweep(grid, args.seeds, mode=_cli_mode(args.mode), base_seed=args.seed,
                         overrides=overrides, jobs=args.jobs)
    write_atomic(args.out + ".csv",
                 csv_text(SWEEP_COLUMNS, (row.values() for row in result["rows"])))
    payload = {
        "schema": REPORT_SCHEMA,
        "parameters": {"n": ns, "s": ss, "epsilon": epsilons, "seeds": args.seeds,
                       "mode": _cli_mode(args.mode), "seed": args.seed, **overrides},
        "fits": result["fits"],
    }
    write_atomic(args.out + ".json", json.dumps(payload, indent=2) + "\n")
    print(f"swept {len(grid)} cells x {args.seeds} seeds; wrote {args.out}.csv and {args.out}.json")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qhslab",
        description="Desk-scale laboratory for learning small DNF formulas with a "
                    "simulated quantum weak parity learner inside a smooth booster.",
        epilog="exit codes: 0 success, 2 bad parameters, 3 I/O failure, "
               "4 weak-learner failure, 5 stage budget exceeded, 6 verification failure",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a DNF instance file")
    gen.add_argument("--family", choices=("random", "mux"), default="random")
    gen.add_argument("--n", type=int, help="variable count (random family)")
    gen.add_argument("--s", type=int, help="term count (random family)")
    gen.add_argument("--term-len", type=int, default=None, help="literals per term (default min(3, n))")
    gen.add_argument("--t", type=int, help="address variables (mux family)")
    gen.add_argument("--u", type=int, help="data variables (mux family)")
    gen.add_argument("--word", type=str,
                     help="comma-separated branch symbols from {0, 1, yJ, !yJ}, 2**t of them")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", type=str, default="instance.json")
    gen.set_defaults(func=cmd_gen)

    def add_tuning_options(p):
        default = {f.name: f.default for f in fields(QhsConfig)}
        p.add_argument("--mode", choices=[m.replace("_", "-") for m in MODES],
                       default=default["mode"].replace("_", "-"))
        p.add_argument("--seed", type=int, default=default["seed"])
        for flag, name, help_text in TUNING_FLAGS:
            p.add_argument(flag, dest=name, type=float, default=default[name], help=help_text)

    def add_run_options(p):
        p.add_argument("instance", help="path to a DNF instance file")
        p.add_argument("--s", type=int, default=None,
                       help="term budget (defaults to the instance's own term count)")
        p.add_argument("--epsilon", type=float, default=0.1)
        add_tuning_options(p)

    learn = sub.add_parser("learn", help="run the full learner on an instance")
    add_run_options(learn)
    learn.add_argument("--out", type=str, default="run", help="output prefix for .json and .csv")
    learn.set_defaults(func=cmd_learn)

    weak = sub.add_parser("weak", help="one weak-learner call under uniform weighting")
    add_run_options(weak)
    weak.add_argument("--out", type=str, default=None, help="output JSON path (default stdout)")
    weak.set_defaults(func=cmd_weak)

    spectrum = sub.add_parser("spectrum", help="exact correlation spectrum of an instance")
    spectrum.add_argument("instance")
    spectrum.add_argument("--theta", type=float, default=None,
                          help="keep only coefficients with magnitude at least theta")
    spectrum.add_argument("--out", type=str, default=None, help="output CSV path (default stdout)")
    spectrum.set_defaults(func=cmd_spectrum)

    verify = sub.add_parser("verify", help="run the invariant suites")
    verify.add_argument("--suite", action="append",
                        choices=list(SUITES),
                        help="run only the named suite (repeatable)")
    verify.add_argument("--inject-fault", choices=FAULTS, default=None,
                        help="test hook: sabotage one gate; the suites must then fail")
    verify.add_argument("--dump-state", type=str, default=None,
                        help="also write a binary state dump for debugging")
    verify.add_argument("--n", type=int, default=6, help="index qubits for --dump-state")
    verify.add_argument("--seed", type=int, default=0)
    verify.set_defaults(func=cmd_verify)

    sweep = sub.add_parser("sweep", help="grid of runs with query-count fits")
    sweep.add_argument("--n", type=str, default="10", help="comma-separated variable counts")
    sweep.add_argument("--s", type=str, default="1,2,4", help="comma-separated term counts")
    sweep.add_argument("--epsilon", type=str, default="0.4,0.2", help="comma-separated accuracies")
    sweep.add_argument("--seeds", type=int, default=3, help="runs per cell")
    add_tuning_options(sweep)
    sweep.add_argument("--jobs", type=int, default=1)
    sweep.add_argument("--out", type=str, default="sweep", help="output prefix")
    sweep.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except WeakLearnerFailure as exc:
        print(f"weak-learner failure: {exc}", file=sys.stderr)
        return EXIT_WEAK_LEARNER
    except StageBudgetExceeded as exc:
        print(f"stage budget exceeded: {exc}", file=sys.stderr)
        return EXIT_STAGE_BUDGET
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return EXIT_PARAMS


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
