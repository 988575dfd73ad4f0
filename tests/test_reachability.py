"""Every function and method in ``src/qhslab`` is reached by an end-to-end
path, or is listed in ``ALLOWED`` with the reason it stays.

The paths are the command line's subcommands, the amplifying learn run
and one planted quantum search. They run in a fresh interpreter under
``sys.setprofile``, which sees every Python call from the package's
import on: the kernel's Hadamard blocks are built at import. Code that
only the tests reach belongs in the tests, as a reference beside the
test that reads it.

Run as a script, ``python tests/test_reachability.py DIR`` (with the
package importable) runs the paths, writing their files under DIR, and
prints the unreached names as one JSON list.
"""
import inspect
import json
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

# "module.qualname" -> why it stays though no path below calls it
ALLOWED = {
    "boolfn.best_parity": "demo 01 and the package root use it",
    "cli.entry": "the console script qhslab",
    "simulator.load_state": "the README's documented reader for --dump-state files",
    "weaklearn.WeakHypothesis.values": "perfbench/tracer.py wraps it",
}


def defined_functions(module) -> dict:
    """``"module.qualname"`` -> code object, for each function defined at
    module level and each method (plain, class, static or property) of a
    class defined there. Methods that ``dataclass`` generates have their
    code in ``<string>``, not in the module's file, and are left out."""
    prefix = module.__name__.rsplit(".", 1)[-1]
    found = {}

    def add(name, obj):
        obj = inspect.unwrap(obj)  # functools.lru_cache keeps the function as __wrapped__
        code = getattr(obj, "__code__", None)
        if code is not None and code.co_filename == module.__file__:
            found[f"{prefix}.{name}"] = code

    for name, obj in vars(module).items():
        if inspect.isclass(obj):
            if obj.__module__ != module.__name__:
                continue
            for attr, member in vars(obj).items():
                if isinstance(member, property):
                    for part in (member.fget, member.fset, member.fdel):
                        if part is not None:
                            add(f"{name}.{attr}", part)
                elif isinstance(member, (classmethod, staticmethod)):
                    add(f"{name}.{attr}", member.__func__)
                elif inspect.isfunction(member):
                    add(f"{name}.{attr}", member)
        elif callable(obj):
            add(name, obj)
    return found


def end_to_end_paths(out: pathlib.Path) -> None:
    """Every subcommand, the amplifying learn run and a planted quantum search."""
    import numpy as np

    from qhslab import (QhsConfig, QueryCounter, SharedSample, learn_dnf, planted_parity,
                        quantum_weak_parity, random_dnf, to_pm1)
    from qhslab.cli import EXIT_OK, EXIT_VERIFY, main

    dnf, mux = out / "dnf.json", out / "mux.json"
    assert main(["gen", "--n", "7", "--s", "2", "--seed", "3", "--out", str(dnf)]) == EXIT_OK
    assert main(["gen", "--family", "mux", "--t", "2", "--u", "3", "--word", "y1,0,1,!y3",
                 "--out", str(mux)]) == EXIT_OK
    for mode in ("quantum-sim", "classical-exact", "classical-sampled"):
        for command in ("learn", "weak"):
            assert main([command, str(dnf), "--mode", mode, "--epsilon", "0.2",
                         "--out", str(out / f"{command}-{mode}")]) == EXIT_OK
    assert main(["spectrum", str(mux)]) == EXIT_OK
    assert main(["spectrum", str(mux), "--theta", "0.2", "--out", str(out / "heavy.csv")]) == EXIT_OK
    assert main(["verify", "--dump-state", str(out / "state.bin"), "--n", "4"]) == EXIT_OK
    assert main(["verify", "--inject-fault", "drop-cz"]) == EXIT_VERIFY
    assert main(["sweep", "--n", "6", "--s", "1,2", "--epsilon", "0.4", "--seeds", "1",
                 "--out", str(out / "sweep")]) == EXIT_OK
    cfg = QhsConfig(n=12, s=2, epsilon=0.2, threshold_scale=32.0, seed=0)
    assert learn_dnf(random_dnf(12, 2, 6, seed=5), cfg)[1].termination == "converged"
    n, target, gamma = 10, 37, 0.125
    bits = planted_parity(n, target, gamma, seed=21)
    hyp = quantum_weak_parity(n, gamma, 0.05, to_pm1(bits), SharedSample.full_cube(n, bits),
                              QueryCounter(), np.random.default_rng(4))
    assert hyp.a == target


def unreached(out: pathlib.Path) -> list:
    """The names :func:`defined_functions` finds that the paths never call,
    profiled from the package's import on."""
    called = {}  # id -> code object, kept alive so that no later object takes its id

    def profile(frame, event, arg):
        if event == "call":
            called[id(frame.f_code)] = frame.f_code

    sys.setprofile(profile)
    try:
        import qhslab  # noqa: F401  (its import is part of every path)
        end_to_end_paths(out)
    finally:
        sys.setprofile(None)
    from qhslab import boolfn, boosting, checks, cli, seeds, sieve, simulator, weaklearn
    defined = {}
    for module in (boolfn, boosting, checks, cli, seeds, sieve, simulator, weaklearn):
        defined.update(defined_functions(module))
    missing = sorted(set(ALLOWED) - set(defined))
    assert not missing, f"allow-listed names that no longer exist: {missing}"
    return sorted(name for name, code in defined.items() if id(code) not in called)


def test_every_src_function_is_reached_or_allow_listed(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, __file__, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    names = set(json.loads(proc.stdout.splitlines()[-1]))
    assert sorted(names - set(ALLOWED)) == [], "reached by no end-to-end path"
    assert sorted(set(ALLOWED) - names) == [], "allow-listed but now reached; drop it"


if __name__ == "__main__":
    print(json.dumps(unreached(pathlib.Path(sys.argv[1]))))
