"""What a fresh interpreter loads to start the CLI.

``import tubelat`` loads no submodule, and ``import tubelat.cli`` loads
neither ``dataclasses`` (which pulls in ``inspect``, ``ast``, ``dis`` and
``tokenize``) nor any ``tubelat`` module beyond ``algebra``, ``errors``,
``serialize`` and ``value``.  Each subcommand loads exactly the modules it
runs: the searches (``tubelat.search``, ``tubelat.quadirr``) only with the
commands that search or certify, and the module layer (``tubelat.reps``,
``tubelat.pp``) only with those that read a module or a formula.
``certify`` of a canonical document loads nothing that its ``json.loads``
read does not.  The package's names load on first access, each as the
object of its home module.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
GOLDEN = SRC.parent / "tests" / "golden"
MODULE_LAYER = {"tubelat.pp", "tubelat.reps"}


def tubelat_modules(*names: str) -> set[str]:
    return {"tubelat", *(f"tubelat.{name}" for name in names)}


CLI_IMPORT = tubelat_modules("algebra", "cli", "errors", "serialize", "value")
LATTICE = CLI_IMPORT | tubelat_modules("lattice", "linalg")
EXCEPTIONAL = LATTICE | tubelat_modules("exceptional")
SEARCHES = EXCEPTIONAL | tubelat_modules("quadirr", "search")
# each re-exported name of the package, by the module it is defined in
HOMES = {
    "algebra": (
        "AlgebraSpec", "EulerData", "PathBasis", "build_c4", "derive_path_basis",
        "euler_data", "validate_spec",
    ),
    "exceptional": ("ExceptionalSet", "coordinate_bound", "enumerate_exceptional", "unit_decompose"),
    "lattice": ("DimVector", "K0Lattice", "RadicalBasis", "Slope", "mu", "radical_basis"),
    "quadirr": ("QuadIrrational", "parse_quad_irrational"),
    "search": (
        "GapCertificate", "TubeParams", "delta_for", "gap_vector", "p_bound",
        "quasisimple_bounds", "strip_pairs_above", "strip_pairs_below", "tube_parameters",
    ),
}


def run_fresh(*lines: str) -> str:
    """The stdout of ``lines``, run after ``import sys`` in a fresh
    interpreter under ``-W error``; a failed assertion there fails here."""
    code = "\n".join(["import sys", *lines])
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def modules_after(*lines: str) -> set[str]:
    """The modules a fresh interpreter holds after running ``lines``."""
    return set(run_fresh(*lines, "print(' '.join(sys.modules))").split())


def test_import_of_the_cli_loads_no_dataclasses_and_no_module_layer():
    at_start = modules_after()
    # a Python whose own start-up imports these would fail the test for nothing
    unwanted = MODULE_LAYER | ({"dataclasses", "inspect"} - at_start)
    loaded = modules_after("import tubelat.cli")
    assert not unwanted & loaded
    assert {m for m in loaded if m.startswith("tubelat")} == CLI_IMPORT


def test_import_of_the_package_loads_no_submodule():
    assert {m for m in modules_after("import tubelat") if m.startswith("tubelat")} == {"tubelat"}


@pytest.mark.parametrize(
    "case, want",
    [
        ("version", CLI_IMPORT),
        ("error-usage-no-command", CLI_IMPORT),
        ("validate-algebra", LATTICE),
        ("euler-h0-hinf", LATTICE),
        ("slope-vec", LATTICE),
        ("decompose-radical", LATTICE),
        ("omega", EXCEPTIONAL),
        ("decompose-unit", EXCEPTIONAL),
        ("gap-search-sqrt2", SEARCHES),
        ("delta-eps-1-10", SEARCHES),
        ("tube-params-eps-1-10", SEARCHES),
        ("p-bound", SEARCHES),
        ("certify-gap-sqrt2", SEARCHES),
        ("certify-tube-params", SEARCHES),
        ("slope-rep", LATTICE | tubelat_modules("reps")),
        ("hom", LATTICE | tubelat_modules("reps")),
        ("ext", LATTICE | tubelat_modules("reps")),
        ("pp-eval", LATTICE | tubelat_modules("reps", "pp")),
        ("pp-free", LATTICE | tubelat_modules("reps", "pp")),
        ("pp-pair", LATTICE | tubelat_modules("reps", "pp")),
    ],
)
def test_each_subcommand_loads_exactly_the_modules_it_runs(case, want):
    """The golden case ``case``, run through ``cli.run`` in a fresh
    interpreter, gives its stored output and loads the ``tubelat`` modules
    ``want``."""
    loaded = modules_after(
        f"sys.path.insert(0, {str(GOLDEN)!r})",
        "from regenerate import load_cases, run_case",
        f"argv = next(c['argv'] for c in load_cases() if c['name'] == {case!r})",
        "code, text = run_case(argv)",
        f"want = open({str(GOLDEN / 'expected' / f'{case}.out')!r}, encoding='utf-8').read()",
        "assert text == want, text",
    )
    assert {m for m in loaded if m.startswith("tubelat")} == want


def test_each_name_of_the_package_is_its_home_modules_object():
    run_fresh(
        "import tubelat",
        f"homes = {HOMES!r}",
        "assert tubelat.__all__ == sorted(n for names in homes.values() for n in names)",
        "for home, names in homes.items():",
        "    for name in names:",
        "        value = getattr(tubelat, name)  # read first, so the package imports the home",
        "        assert value is getattr(sys.modules[f'tubelat.{home}'], name), name",
    )


def test_star_import_binds_every_name_of_the_package():
    run_fresh(
        "from tubelat import *",
        "import tubelat",
        "assert all(globals()[name] is getattr(tubelat, name) for name in tubelat.__all__)",
    )


def test_dir_of_the_package_lists_every_name_before_it_loads():
    run_fresh(
        "import tubelat",
        "assert set(tubelat.__all__) <= set(dir(tubelat)), dir(tubelat)",
        "assert [m for m in sys.modules if m.startswith('tubelat.')] == []",
    )


def test_an_unknown_name_of_the_package_is_an_attribute_error():
    run_fresh(
        "import tubelat",
        "try:",
        "    tubelat.unit_vector",
        "except AttributeError as exc:",
        "    assert str(exc) == \"module 'tubelat' has no attribute 'unit_vector'\", exc",
        "else:",
        "    raise SystemExit('no AttributeError')",
        "assert not hasattr(tubelat, 'search')",
    )


def test_from_the_package_import_still_imports_submodules():
    run_fresh(
        "from tubelat import algebra, cli, search",
        "assert (algebra, cli, search) == tuple(",
        "    sys.modules[f'tubelat.{name}'] for name in ('algebra', 'cli', 'search')",
        ")",
        "assert search.gap_vector.__module__ == 'tubelat.search'",
    )


def test_validate_algebra_loads_no_module_layer():
    loaded = modules_after(
        "import io",
        "from tubelat.cli import run",
        "out = io.StringIO()",
        "assert run(['validate-algebra'], out) == 0, out.getvalue()",
    )
    assert "tubelat.cli" in loaded and not MODULE_LAYER & loaded


def test_module_subcommands_load_the_module_layer(tmp_path):
    rep = tmp_path / "m.json"
    rep.write_text('{"dims": [1, 0, 0, 0, 0, 0], "arrows": {}}')
    loaded = modules_after(
        "import io",
        "from tubelat.cli import run",
        "out = io.StringIO()",
        f"assert run(['hom', {str(rep)!r}, {str(rep)!r}], out) == 0, out.getvalue()",
        "assert out.getvalue() == '1\\n', out.getvalue()",
    )
    assert "tubelat.reps" in loaded


def test_certify_of_a_canonical_document_loads_no_more_than_the_json_read(tmp_path):
    """The byte path, which writes the document again, loads no module that
    the json.loads read of the same certificate does not."""
    golden = SRC.parent / "tests" / "golden" / "expected" / "gap-search-sqrt2.out"
    compact = tmp_path / "compact.json"
    compact.write_text(json.dumps(json.loads(golden.read_text(encoding="utf-8"))))
    loaded = {}
    for path, canonical in ((golden, True), (compact, False)):
        loaded[canonical] = modules_after(
            "import io",
            "from tubelat.cli import run",
            "from tubelat.search import certificate_from_canonical_text",
            "out = io.StringIO()",
            f"assert run(['certify', {str(path)!r}], out) == 0, out.getvalue()",
            f"text = open({str(path)!r}, encoding='utf-8').read()",
            f"assert (certificate_from_canonical_text(text) is not None) is {canonical}",
        )
    assert not MODULE_LAYER & loaded[True] and loaded[True] <= loaded[False]
