"""numpy, dataclasses, inspect, multiprocessing and pickle stay off the
start-up path: importing the package and running the commands that need
only Python ints, float series below the render pool's row count
included, must load none of them. numpy costs about as much as the rest of
start-up together; dataclasses imports inspect, ast and dis, which is why
the package's records are NamedTuples. kconst needs numpy (which loads
pickle), and a pooled float series needs pickle, but both fork their
child processes without multiprocessing, which would raise their start-up
time and peak memory. Each check runs in a fresh interpreter, since this
test process has all of them loaded already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# After `import sievesum`, each command runs in turn through cli.main, as on
# a host with two usable CPUs, and which of WATCHED are loaded is recorded
# after each one. kconst comes last: it builds arrays, so it must load
# numpy, and numpy loads inspect and pickle.
WATCHED = ("numpy", "dataclasses", "inspect", "multiprocessing", "pickle")
PROBE = """
import contextlib, io, json, sys
watched = json.loads(sys.argv[2])
import sievesum
loaded = {"import sievesum": [name for name in watched if name in sys.modules]}
import sievesum.cli
sievesum.cli._usable_cpus = lambda: 2
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = sievesum.cli.main(argv)
    loaded[" ".join(argv)] = [code, [name for name in watched if name in sys.modules]]
print(json.dumps(loaded))
"""

NUMPY_FREE = [
    ["series", "--kind", "prime", "--terms", "30"],
    ["series", "--kind", "twin", "--terms", "200", "--mode", "float"],
    ["verify", "--terms", "30"],
    ["verify", "--random", "3"],
    ["brun", "--limit", "10000"],
    ["primes", "--count", "10"],
    ["primes", "--limit", "30"],
    ["primes", "--limit", "30", "--format", "json"],
    ["primes", "--limit", "100", "--twins"],
    ["primes", "--limit", "100", "--twins", "--format", "json"],
]
# above the 32,768 rows from which a float series is rendered by a pool
POOLED = ["series", "--kind", "twin", "--terms", "40000", "--mode", "float"]
KCONST = ["kconst", "--limit", "1e4"]
KCONST_SPLIT = ["kconst", "--limit", "3e7"]  # its sweep is split between two processes


def run_python(*argv: str) -> str:
    """The stdout of a fresh interpreter run with argv and src on its path."""
    path = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    result = subprocess.run(
        [sys.executable, *argv],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    return result.stdout


@pytest.fixture(scope="module")
def loaded():
    """The PROBE's record of the NUMPY_FREE commands, POOLED, KCONST and KCONST_SPLIT."""
    argv = json.dumps(NUMPY_FREE + [POOLED, KCONST, KCONST_SPLIT])
    return json.loads(run_python("-c", PROBE, argv, json.dumps(WATCHED)))


def test_numpy_loaded_only_by_array_code(loaded):
    assert "numpy" not in loaded["import sievesum"]
    code, modules = loaded[" ".join(KCONST)]
    assert (code, "numpy" in modules) == (0, True)
    for argv in NUMPY_FREE:
        code, modules = loaded[" ".join(argv)]
        assert (code, "numpy" in modules) == (0, False), argv


def test_neither_dataclasses_nor_inspect_without_numpy(loaded):
    assert loaded["import sievesum"] == []
    for argv in NUMPY_FREE:
        assert loaded[" ".join(argv)] == [0, []], argv


def test_twin_constant_does_without_numpy():
    probe = (
        "import sys; from sievesum.kconst import twin_constant; "
        "twin_constant(); print('numpy' in sys.modules)"
    )
    assert run_python("-c", probe) == "False\n"


def test_pooled_float_series_does_without_multiprocessing(loaded):
    import sievesum.cli

    assert int(POOLED[4]) >= sievesum.cli._POOL_MIN_CHUNKS * sievesum.cli._CHUNK_ROWS
    assert loaded[" ".join(POOLED)] == [0, ["pickle"]]


def test_split_kconst_does_without_multiprocessing(loaded):
    import sievesum.kconst

    assert (3 * 10**7 - 1) // 6 >= sievesum.kconst._SPLIT_MIN_CANDIDATES
    code, modules = loaded[" ".join(KCONST_SPLIT)]
    assert (code, "numpy" in modules, "multiprocessing" in modules) == (0, True, False)


# The standard modules that the package's modules import at their top level
TOP_LEVEL_IMPORTS = (
    "__future__, argparse, collections, contextlib, decimal, fractions, functools, itertools, "
    "json, math, operator, os, random, re, sys, tempfile, typing"
)


def test_cli_import_loads_only_the_package_beyond_its_top_level_imports():
    probe = (
        f"import sys, {TOP_LEVEL_IMPORTS}; before = set(sys.modules); import sievesum.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    modules = ("cli", "engine", "kconst", "series", "sieve")
    package = ["sievesum", *(f"sievesum.{module}" for module in modules)]
    assert run_python("-c", probe).split() == package
