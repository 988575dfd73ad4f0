import json
import pathlib
import subprocess
import sys
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from qhslab import QhsConfig, QueryCounter, checks, cli, heavy_coeffs, seeds, simulator, wht
from qhslab.boolfn import load_dnf
from qhslab.checks import SUITES, run_all
from qhslab.cli import (EXIT_IO, EXIT_OK, EXIT_PARAMS, EXIT_STAGE_BUDGET, EXIT_VERIFY,
                        EXIT_WEAK_LEARNER, build_parser, main, write_atomic)
from qhslab.simulator import load_state, prepare_spectrum_state

BUNDLED_LITERAL = (pathlib.Path(__file__).resolve().parents[1]
                   / "demos" / "instances" / "single_literal.json")


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def instance(tmp_path):
    path = tmp_path / "f.json"
    assert run_cli("gen", "--n", 8, "--s", 2, "--seed", 7, "--out", path) == EXIT_OK
    return path


@pytest.fixture()
def literal_instance(tmp_path):
    path = tmp_path / "lit.json"
    path.write_text(json.dumps({"n": 6, "terms": [[[0, 0]]]}) + "\n")
    return path


def test_gen_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli("gen", "--n", 10, "--s", 3, "--seed", 7, "--out", a) == EXIT_OK
    assert run_cli("gen", "--n", 10, "--s", 3, "--seed", 7, "--out", b) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()
    formula = load_dnf(a)
    assert formula.n == 10 and formula.size() == 3


def test_gen_mux_family(tmp_path):
    path = tmp_path / "mux.json"
    assert run_cli("gen", "--family", "mux", "--t", 2, "--u", 4,
                   "--word", "y1,0,1,!y4", "--out", path) == EXIT_OK
    formula = load_dnf(path)
    assert formula.n == 6 and formula.size() <= 4
    assert run_cli("gen", "--family", "mux", "--t", 2, "--u", 4,
                   "--word", "y9,0,1,1", "--out", path) == EXIT_PARAMS


def test_gen_rejects_negative_s_and_empty_terms(tmp_path):
    path = tmp_path / "bad.json"
    assert run_cli("gen", "--n", 6, "--s", -1, "--out", path) == EXIT_PARAMS
    assert run_cli("gen", "--n", 6, "--s", 2, "--term-len", 0, "--out", path) == EXIT_PARAMS
    assert not path.exists()


def test_gen_round_trip(tmp_path, instance):
    formula = load_dnf(instance)
    again = tmp_path / "again.json"
    again.write_text(json.dumps(formula.to_dict(), indent=2) + "\n")
    assert load_dnf(again).to_dict() == formula.to_dict()


def test_learn_classical_exact_on_bundled_literal(tmp_path):
    out = tmp_path / "run"
    code = run_cli("learn", BUNDLED_LITERAL, "--mode", "classical-exact",
                   "--epsilon", 0.1, "--seed", 3, "--out", out)
    assert code == EXIT_OK
    report = json.loads((tmp_path / "run.json").read_text())
    assert report["final_error"] == 0.0
    assert report["schema"] == 2
    csv = (tmp_path / "run.csv").read_text().splitlines()
    assert csv[0].startswith("t,estimate,parity")
    assert len(csv) == 1 + report["totals"]["stages"]


def test_learn_quantum_and_determinism(tmp_path, instance):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for out in (out1, out2):
        code = run_cli("learn", instance, "--mode", "quantum-sim", "--epsilon", 0.15,
                       "--seed", 5, "--out", out)
        assert code == EXIT_OK
    assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()
    assert (tmp_path / "r1.csv").read_bytes() == (tmp_path / "r2.csv").read_bytes()
    report = json.loads((tmp_path / "r1.json").read_text())
    assert report["totals"]["quantum_queries"] > 0
    assert report["config"]["mode"] == "quantum_sim"


def test_learn_error_exit_codes(tmp_path, instance):
    assert run_cli("learn", tmp_path / "absent.json", "--out", tmp_path / "x") == EXIT_IO
    assert run_cli("learn", instance, "--mode", "classical-sampled", "--c2", 1000.0,
                   "--epsilon", 0.15, "--out", tmp_path / "y") == EXIT_WEAK_LEARNER
    assert run_cli("learn", instance, "--mode", "classical-exact", "--c1", 1e-9,
                   "--epsilon", 0.15, "--out", tmp_path / "z") == EXIT_STAGE_BUDGET
    assert run_cli("learn", instance, "--epsilon", 7.0,
                   "--out", tmp_path / "w") == EXIT_PARAMS
    assert run_cli("learn", instance, "--c1", -1, "--out", tmp_path / "v") == EXIT_PARAMS
    assert run_cli("learn", instance, "--cr", 0, "--out", tmp_path / "u") == EXIT_PARAMS
    # derived sizes a run could not build: rejected before the sample is drawn
    for bad in (("--cr", "inf"), ("--c1", "inf"), ("--cr", 1e300), ("--epsilon", 1e-200),
                ("--c2", 1000.0)):  # big_gamma above 1 in quantum-sim mode
        assert run_cli("learn", instance, *bad, "--out", tmp_path / "t") == EXIT_PARAMS
    assert not list(tmp_path.glob("t*"))
    # instance files that crashed with a TypeError, or were read by coercion
    for i, text in enumerate(('{"n": 3, "terms": [[1]]}', '{"n": 3, "terms": 5}', "[1, 2]",
                              '{"n": 3.7, "terms": [[[0.5, 0]]]}',
                              '{"n": 3, "terms": [[[0, "0"]]]}')):
        bad = tmp_path / f"bad{i}.json"
        bad.write_text(text)
        assert run_cli("learn", bad, "--mode", "classical-exact",
                       "--out", tmp_path / "s") == EXIT_PARAMS
    assert not list(tmp_path.glob("s.*"))


def test_learn_rejects_a_digit_depth_past_int64(tmp_path, instance, capsys):
    # --c2 1e-18 puts the signed-digit depth at 69; the run used to die in stage 1
    assert run_cli("learn", instance, "--c2", 1e-18, "--out", tmp_path / "r") == EXIT_PARAMS
    assert "Traceback" not in capsys.readouterr().err
    assert not list(tmp_path.glob("r*"))


def test_weak_subcommand(tmp_path, literal_instance):
    out = tmp_path / "weak.json"
    code = run_cli("weak", literal_instance, "--mode", "quantum-sim", "--epsilon", 0.1,
                   "--seed", 2, "--out", out)
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["parity"] == 1 and payload["sign"] == 1
    assert payload["advantage"] > 0.9
    assert payload["quantum_queries"] > 0


def test_weak_error_exit_codes(tmp_path, capsys, instance):
    assert run_cli("weak", BUNDLED_LITERAL, "--mode", "classical-sampled",
                   "--c2", 1000) == EXIT_WEAK_LEARNER
    assert "weak-learner failure" in capsys.readouterr().err
    assert run_cli("weak", tmp_path / "absent.json") == EXIT_IO
    assert run_cli("weak", BUNDLED_LITERAL, "--epsilon", 0.5) == EXIT_PARAMS
    assert run_cli("weak", instance, "--s", 1) == EXIT_PARAMS  # 2 terms above s=1


def test_spectrum_subcommand(tmp_path, literal_instance):
    out = tmp_path / "spectrum.csv"
    assert run_cli("spectrum", literal_instance, "--out", out) == EXIT_OK
    rows = out.read_text().splitlines()
    assert rows[0] == "parity,coefficient"
    coeffs = {int(line.split(",")[0]): float(line.split(",")[1]) for line in rows[1:]}
    assert len(coeffs) == 64
    assert abs(sum(c * c for c in coeffs.values()) - 1.0) < 1e-10
    assert coeffs[1] == 1.0  # the literal is the single-variable parity

    formula = load_dnf(literal_instance)
    filtered = tmp_path / "heavy.csv"
    assert run_cli("spectrum", literal_instance, "--theta", 0.25, "--out", filtered) == EXIT_OK
    got = [line.split(",") for line in filtered.read_text().splitlines()[1:]]
    want = heavy_coeffs(formula.sign_table(), 0.25)
    assert [(int(a), float(c)) for a, c in got] == [(a, c) for a, c in want]
    nan_out = tmp_path / "nan.csv"
    assert run_cli("spectrum", literal_instance, "--theta", "nan", "--out", nan_out) == EXIT_PARAMS
    assert not nan_out.exists()


def test_verify_full_run_counts_every_check(capsys):
    assert run_cli("verify") == EXIT_OK
    out = capsys.readouterr().out
    for name, count in (("spectrum-measurement", 33), ("amplification-law", 8),
                        ("boost-bounds", 752), ("signed-digits", 8)):
        assert f"PASS {name}: {count}/{count} checks" in out


def test_verify_fails_on_a_nan_writing_gate(monkeypatch, capsys):
    def nan_cz(state):
        state.amps.reshape(-1, 4)[:, 3] = np.nan
        return state

    monkeypatch.setattr(simulator, "cz_answer_phase", nan_cz)
    assert run_cli("verify", "--suite", "spectrum-measurement",
                   "--suite", "amplification-law") == EXIT_VERIFY
    out = capsys.readouterr().out
    assert "FAIL spectrum-measurement" in out and "FAIL amplification-law" in out


def test_verify_counts_a_raising_suite_as_a_failed_check(monkeypatch, capsys):
    def broken(values, d):
        raise RuntimeError("digit split broken")

    monkeypatch.setattr(checks, "signed_digit_decompose", broken)
    assert run_cli("verify", "--suite", "signed-digits") == EXIT_VERIFY
    out = capsys.readouterr().out
    assert "FAIL signed-digits: 0/1 checks" in out
    assert "raised RuntimeError: digit split broken" in out


def test_verify_subcommand(tmp_path, capsys):
    assert run_cli("verify", "--suite", "signed-digits", "--suite",
                   "spectrum-measurement") == EXIT_OK
    out = capsys.readouterr().out
    assert "PASS spectrum-measurement" in out and "PASS signed-digits" in out


def test_verify_suite_choices_are_the_checks_suites():
    for name in SUITES:
        assert build_parser().parse_args(["verify", "--suite", name]).suite == [name]
    with pytest.raises(SystemExit):
        build_parser().parse_args(["verify", "--suite", "no-such-suite"])


def test_verify_fault_injection_fails(capsys):
    assert run_cli("verify", "--suite", "spectrum-measurement",
                   "--inject-fault", "drop-cz") == EXIT_VERIFY
    assert "FAIL spectrum-measurement" in capsys.readouterr().out
    gate = simulator.cz_answer_phase
    assert not all(result.passed for result in run_all(fault="drop-cz"))
    assert simulator.cz_answer_phase is gate  # the fault is undone afterwards
    assert all(result.passed for result in run_all(names=["spectrum-measurement"]))


def test_verify_dump_state(tmp_path):
    dump = tmp_path / "state.bin"
    assert run_cli("verify", "--suite", "signed-digits", "--dump-state", dump,
                   "--n", 5) == EXIT_OK
    state = load_state(dump.read_bytes())
    assert state.n == 5
    assert abs(np.linalg.norm(state.amps) - 1.0) < 1e-12
    bits = seeds.derive(0, seeds.VERIFY, 99).integers(0, 2, size=1 << 5).astype(np.uint8)
    assert np.array_equal(state.amps, prepare_spectrum_state(bits, QueryCounter()).amps)


def test_verify_dump_state_rejects_n_before_drawing_the_oracle(tmp_path):
    dump = tmp_path / "state.bin"
    for n in (0, 24):
        tracemalloc.start()
        try:
            code = run_cli("verify", "--suite", "signed-digits", "--dump-state", dump, "--n", n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_PARAMS
        assert peak < 16 << 20
    assert not list(tmp_path.iterdir())


def test_sweep_subcommand(tmp_path):
    out = tmp_path / "sweep"
    args = ("sweep", "--n", "8", "--s", "1,2", "--epsilon", "0.4,0.2", "--seeds", 2,
            "--mode", "classical-exact", "--cr", 2048.0, "--seed", 4,
            "--out", out)
    assert run_cli(*args) == EXIT_OK
    rows = (tmp_path / "sweep.csv").read_text().splitlines()
    assert len(rows) == 1 + 2 * 2 * 2  # header + cells x seeds
    first = (tmp_path / "sweep.csv").read_bytes()
    fits_first = (tmp_path / "sweep.json").read_bytes()
    assert run_cli(*args) == EXIT_OK
    assert (tmp_path / "sweep.csv").read_bytes() == first
    assert (tmp_path / "sweep.json").read_bytes() == fits_first
    assert json.loads(fits_first)["schema"] == 2


@pytest.mark.parametrize("argv", [
    ("--n", "14,24", "--s", 2, "--epsilon", 0.1, "--seeds", 1),
    ("--n", 14, "--s", "2,0", "--epsilon", 0.3, "--c2", 20),
    ("--n", 6, "--s", 1, "--seeds", 0),
    ("--n", 6, "--s", 1, "--seeds", -1),
    ("--n", 6, "--s", 1, "--jobs", 0),
], ids=["n", "s", "seeds-0", "seeds-negative", "jobs"])
def test_sweep_rejects_a_bad_flag_before_any_run(tmp_path, argv):
    assert run_cli("sweep", *argv, "--out", tmp_path / "sweep") == EXIT_PARAMS
    assert not list(tmp_path.iterdir())


def test_tuning_flag_defaults_are_the_config_defaults():
    rest = {"n", "s", "epsilon", "mode", "seed"}  # set by run options or the instance
    for argv in (["learn", "f.json"], ["weak", "f.json"], ["sweep"]):
        args = build_parser().parse_args(argv)
        tuning = cli._tuning(args)
        assert set(tuning) | rest == {f.name for f in fields(QhsConfig)}
        from_flags = QhsConfig(n=6, s=1, epsilon=0.1, mode=cli._cli_mode(args.mode),
                               seed=args.seed, **tuning)
        assert from_flags == QhsConfig(n=6, s=1, epsilon=0.1)


def test_write_atomic_removes_its_temp_file(tmp_path):
    taken = tmp_path / "taken"
    taken.mkdir()
    assert run_cli("gen", "--n", 4, "--s", 1, "--out", taken) == EXIT_IO  # rename fails
    with pytest.raises(TypeError):
        write_atomic({str(tmp_path / "text"): 12})  # write fails
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]
    write_atomic({str(tmp_path / "text"): "ok\n"})
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken", "text"]


def test_learn_and_sweep_write_both_artifacts_or_neither(tmp_path):
    # the second rename fails on a directory: the first file, already in
    # place, is removed with every temp file
    (tmp_path / "run.csv").mkdir()
    assert run_cli("learn", BUNDLED_LITERAL, "--mode", "classical-exact",
                   "--out", tmp_path / "run") == EXIT_IO
    assert [p.name for p in tmp_path.iterdir()] == ["run.csv"]
    assert not any((tmp_path / "run.csv").iterdir())
    (tmp_path / "run.csv").rmdir()
    (tmp_path / "sweep.json").mkdir()
    assert run_cli("sweep", "--n", 6, "--s", 1, "--epsilon", 0.4, "--seeds", 1,
                   "--mode", "classical-exact", "--out", tmp_path / "sweep") == EXIT_IO
    assert [p.name for p in tmp_path.iterdir()] == ["sweep.json"]
    assert not any((tmp_path / "sweep.json").iterdir())


def test_console_entry_help():
    proc = subprocess.run([sys.executable, "-m", "qhslab.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    for token in ("gen", "learn", "weak", "spectrum", "verify", "sweep", "exit codes"):
        assert token in proc.stdout
