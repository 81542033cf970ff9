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

The package's own modules load on demand too: `import sievesum` loads none
of its submodules, `import sievesum.cli` only the sieve, and each command
the submodules it runs. The package exports its names lazily, each the
object its submodule defines. Nor does `import sievesum.cli` load a
standard module that some command runs without, such as json or decimal.
"""

import importlib
import json
import os
import re
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
sievesum.sieve._usable_cpus = lambda: 2
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
    import sievesum.render

    assert int(POOLED[4]) >= sievesum.render._POOL_MIN_CHUNKS * sievesum.render._CHUNK_ROWS
    assert loaded[" ".join(POOLED)] == [0, ["pickle"]]


def test_split_kconst_does_without_multiprocessing(loaded):
    import sievesum.kconst

    assert (3 * 10**7 - 1) // 6 >= sievesum.kconst._SPLIT_MIN_CANDIDATES
    code, modules = loaded[" ".join(KCONST_SPLIT)]
    assert (code, "numpy" in modules, "multiprocessing" in modules) == (0, True, False)


# The standard modules that the package's modules import at their top level
TOP_LEVEL_IMPORTS = (
    "__future__, argparse, collections, contextlib, fractions, functools, importlib, "
    "itertools, math, operator, os, re, sys, typing"
)


def test_cli_import_loads_only_the_package_beyond_its_top_level_imports():
    probe = (
        f"import sys, {TOP_LEVEL_IMPORTS}; before = set(sys.modules); import sievesum.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    assert run_python("-c", probe).split() == ["sievesum", "sievesum.cli", "sievesum.sieve"]


# Standard modules that some command runs without: `primes` in CSV needs
# neither json nor decimal (nor fractions, which imports decimal), `kconst`
# no fractions, `verify` without --random no random, and only an --output
# file needs tempfile
DEFERRED = ("decimal", "fractions", "json", "random", "tempfile")
LOADED_DEFERRED = f"print(*[name for name in {DEFERRED!r} if name in sys.modules])"


@pytest.fixture(scope="module")
def bare():
    """Those of DEFERRED that a bare interpreter has loaded (its site may)."""
    return run_python("-c", f"import sys; {LOADED_DEFERRED}").split()


def test_cli_import_loads_no_standard_module_a_command_runs_without(bare):
    assert run_python("-c", f"import sys, sievesum.cli; {LOADED_DEFERRED}").split() == bare


# Runs cli.main(sys.argv[1:]) in a fresh interpreter, then prints its exit
# code and those of DEFERRED that it loaded and the interpreter had not.
DEFERRED_PROBE = f"""
import contextlib, io, sys
bare = set(sys.modules)
import sievesum.cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = sievesum.cli.main(sys.argv[1:])
print(code, *[name for name in {DEFERRED!r} if name in sys.modules and name not in bare])
"""


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["primes", "--limit", "100"], []),
        (["primes", "--count", "10"], []),
        (["series", "--kind", "prime", "--terms", "30"], ["decimal", "fractions"]),
        (["series", "--kind", "twin", "--terms", "200", "--mode", "float"],
         ["decimal", "fractions"]),
        (["brun", "--limit", "10000", "--format", "csv"], ["decimal", "fractions"]),
        (["verify", "--terms", "30"], ["decimal", "fractions", "json"]),
        (["verify", "--random", "2"], ["decimal", "fractions", "json", "random"]),
        (KCONST, ["decimal", "json"]),  # C2 is computed in decimal, with no fractions
    ],
    ids=" ".join,
)
def test_each_command_loads_only_the_deferred_modules_it_runs(bare, argv, loaded):
    code, *modules = run_python("-c", DEFERRED_PROBE, *argv).split()
    assert (code, modules) == ("0", [name for name in loaded if name not in bare])


LOADED_PACKAGE = "print(*sorted(name for name in sys.modules if name.startswith('sievesum')))"


def test_package_import_loads_no_submodule():
    assert run_python("-c", f"import sys, sievesum; {LOADED_PACKAGE}").split() == ["sievesum"]


# Runs one command through cli.main in a fresh interpreter, then prints its
# exit code and the package's modules then loaded.
COMMAND_PROBE = f"""
import contextlib, io, json, sys
import sievesum.cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = sievesum.cli.main(json.loads(sys.argv[1]))
print(code, end=" ")
{LOADED_PACKAGE}
"""


@pytest.mark.parametrize(
    "argv, modules",
    [
        (KCONST, ("kconst", "sieve")),
        (["series", "--kind", "prime", "--terms", "30"], ("engine", "render", "series", "sieve")),
        (["series", "--kind", "custom", "--seq", "2,3", "--terms", "2"],
         ("engine", "render", "sieve")),
        (["series", "--kind", "twin", "--terms", "200", "--mode", "float"],
         ("engine", "render", "series", "sieve")),
        (["verify", "--terms", "30"], ("checks", "engine", "series", "sieve")),
        (["verify", "--random", "3"], ("checks", "engine", "sieve")),
        (["brun", "--limit", "10000"], ("render", "series", "sieve")),
        (["mertens", "--terms", "100"], ("render", "series", "sieve")),
        (["primes", "--count", "10"], ("render", "sieve")),
        (["primes", "--limit", "100", "--twins"], ("render", "sieve")),
    ],
    ids=" ".join,
)
def test_each_command_loads_only_the_modules_it_runs(argv, modules):
    """kconst loads neither the exact engine nor the series, nor the row
    renderer or the checks; the series commands no kconst; brun and
    mertens no exact engine; only verify the checks; and primes none of
    the engine, the series and kconst."""
    code, *loaded = run_python("-c", COMMAND_PROBE, json.dumps(argv)).split()
    assert code == "0"
    assert loaded == sorted(["sievesum", "sievesum.cli", *(f"sievesum.{m}" for m in modules)])


# The names the package exports, by the submodule that defines them, as
# they were when the package imported them all eagerly
EXPORTS = {
    "engine": [
        "DepthGuardError", "ReportRow", "SeriesDefinition", "SeriesDomainError", "SeriesState",
        "advance", "check_residual_identity", "check_term_recursion", "float_rows",
        "iter_states", "report_rows",
    ],
    "kconst": [
        "DegenerateDataError", "ExtrapolationError", "PartialProduct", "ProductEstimate",
        "TwinConstant", "estimate_K", "extrapolate_aitken", "extrapolate_hl",
        "hl_tail_correction", "partial_product", "twin_constant",
    ],
    "series": [
        "EULER_GAMMA", "BrunPartial", "PrimorialValue", "TotientOfPrimorial",
        "brun_dominance_check", "brun_partial", "mertens_residual", "mertens_rows",
        "prime_definition", "prime_series", "primorial", "square_free_definition",
        "square_free_sum_float", "totient_primorial", "twin_prime_definition",
        "twin_prime_series", "twin_residual_float",
    ],
    "sieve": [
        "CapacityError", "TwinPair", "iter_primes", "nth_primes", "nth_twin_values",
        "primes_up_to", "twin_pairs_up_to", "twin_sequence_up_to",
    ],
}


def test_every_export_is_the_object_its_module_defines():
    import sievesum

    exported = {name for names in EXPORTS.values() for name in names}
    assert sorted(sievesum.__all__) == sorted(exported)
    for module, names in EXPORTS.items():
        owner = importlib.import_module(f"sievesum.{module}")
        for name in names:
            scope = {}
            exec(f"from sievesum import {name}", scope)
            assert scope[name] is getattr(owner, name), name
            assert name in dir(sievesum), name
    scope = {}
    exec("from sievesum import *", scope)
    assert set(scope) - {"__builtins__"} == exported


def test_an_unknown_name_is_an_attribute_error():
    import sievesum

    with pytest.raises(AttributeError, match="module 'sievesum' has no attribute 'no_such_name'"):
        sievesum.no_such_name
    with pytest.raises(ImportError, match="cannot import name 'no_such_name'"):
        exec("from sievesum import no_such_name", {})


def test_an_export_loads_only_its_module_and_what_that_imports():
    probe = f"import sys; from sievesum import estimate_K; {LOADED_PACKAGE}"
    assert run_python("-c", probe).split() == ["sievesum", "sievesum.kconst", "sievesum.sieve"]


def test_readme_library_sketch_runs():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    sketch = re.search(r"^## Library sketch\n\n```python\n(.*?)^```", readme, re.M | re.S)
    k_estimate, error_estimate = map(float, run_python("-c", sketch.group(1)).split())
    assert abs(k_estimate - 0.1293) < error_estimate < 0.01
