"""Which modules each `degseq` command loads.

Every probe runs in a fresh interpreter: it imports `degseq.cli`, builds the
parser, optionally runs one command line, and reports `sys.modules`. Building
the parser must load no library module, each command loads only the modules
it runs, and nothing loads `dataclasses` or `inspect`; only `lorenz` loads
`fractions`.

The checks need no pytest: `python tests/test_imports.py` runs them all.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")

PROBE = """
import io, json, sys
import degseq.cli
degseq.cli.build_parser()
argv = json.loads(sys.argv[1])
out, sys.stdout = sys.stdout, io.StringIO()
code = degseq.cli.main(argv) if argv else None
sys.stdout = out
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""

HEAVY = {"dataclasses", "inspect", "fractions"}

# command line (each exits 0) -> degseq modules it loads besides degseq, cli and errors
COMMANDS = {
    "check 3,3,2,2": {"orders", "record", "graphs", "realizability"},
    "check 3,3,2,2 --method hh --json": {"orders", "record", "graphs", "realizability"},
    "check 4,4,1,1,1,1 --method certificate": {
        "orders", "record", "graphs", "realizability", "constructions"
    },
    "realize 3,3,2,2 --connected": {"orders", "record", "graphs", "realizability"},
    "compare 3,3,2,2 4,2,2,2": {"orders", "record"},
    "compare 3,3,2,2 4,2,2,2 --order lorenz": {"orders", "record"},
    "decompose 3,3,2,2 4,2,2,2": {"orders", "record"},
    "lorenz 3,3,2,2": {"orders", "record"},
    "lorenz 3,3,2,2 --nonnormalized": {"orders", "record"},
    "construct 6 3 --emit both --prime": {"orders", "record", "graphs", "constructions"},
    "maximal 6 2": {"orders", "record", "graphs", "realizability", "constructions", "maximal"},
}


def probe(argv: list[str]) -> dict:
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(argv)],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return json.loads(done.stdout)


def degseq_modules(modules: list[str]) -> set[str]:
    return {m.split(".", 1)[1] for m in modules if m.startswith("degseq.")}


def test_parser_loads_no_library_module():
    modules = probe([])["modules"]
    assert not HEAVY & set(modules)
    assert degseq_modules(modules) == {"cli", "errors"}


def test_each_command_loads_only_what_it_runs():
    for line, expected in COMMANDS.items():
        result = probe(line.split() + ["--quiet"])
        assert result["code"] == 0, line
        loaded = degseq_modules(result["modules"]) - {"cli", "errors"}
        assert loaded == expected, (line, loaded)
        heavy = HEAVY & set(result["modules"])
        lorenz_curve = line.startswith("lorenz") and "--nonnormalized" not in line
        assert heavy == ({"fractions"} if lorenz_curve else set()), (line, heavy)


def test_oracle_choices_match_the_library():
    import degseq.cli
    import degseq.maximal

    parser = degseq.cli.build_parser()
    subparsers = next(a for a in parser._actions if a.dest == "command")
    oracle = next(a for a in subparsers.choices["maximal"]._actions if a.dest == "oracle")
    assert tuple(oracle.choices) == degseq.maximal.ORACLES
    assert oracle.default in degseq.maximal.ORACLES


def test_every_export_resolves_to_its_definition():
    import degseq

    assert len(set(degseq.__all__)) == len(degseq.__all__) > 0
    for name in degseq.__all__:
        obj = getattr(degseq, name)
        module = sys.modules[obj.__module__]
        assert module.__name__.startswith("degseq.") and getattr(module, name) is obj, name
        assert name in dir(degseq)
    for name in ("constructions", "errors", "graphs", "maximal", "orders", "realizability"):
        assert getattr(degseq, name) is sys.modules[f"degseq.{name}"]


def test_star_import_and_unknown_names():
    namespace: dict = {}
    exec("from degseq import *", namespace)
    import degseq

    assert {name for name in namespace if name != "__builtins__"} == set(degseq.__all__)
    for name in ("no_such_name", "cli_main", "_EXPORT"):
        try:
            getattr(degseq, name)
        except AttributeError as exc:
            assert repr(name) in str(exc)
        else:
            raise AssertionError(f"degseq.{name} resolved")


if __name__ == "__main__":
    sys.path.insert(0, SRC)
    for test_name, test in list(globals().items()):
        if test_name.startswith("test_"):
            test()
            print("ok", test_name)
