"""What a fresh interpreter loads to start the CLI.

``import tubelat.cli`` loads neither ``dataclasses`` (which pulls in
``inspect``, ``ast``, ``dis`` and ``tokenize``) nor the module layer
(``tubelat.reps``, ``tubelat.pp``); subcommands that read no module or
formula never load the module layer either, and ``certify`` of a canonical
document loads nothing that its ``json.loads`` read does not.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
MODULE_LAYER = {"tubelat.pp", "tubelat.reps"}


def modules_after(*lines: str) -> set[str]:
    """The modules a fresh interpreter holds after running ``lines``."""
    code = "\n".join(["import sys", *lines, "print(' '.join(sys.modules))"])
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return set(proc.stdout.split())


def test_import_of_the_cli_loads_no_dataclasses_and_no_module_layer():
    at_start = modules_after()
    # a Python whose own start-up imports these would fail the test for nothing
    unwanted = MODULE_LAYER | ({"dataclasses", "inspect"} - at_start)
    loaded = modules_after("import tubelat.cli")
    assert not unwanted & loaded
    assert {m for m in loaded if m.startswith("tubelat")} == {
        "tubelat",
        *(
            f"tubelat.{name}"
            for name in (
                "algebra", "cli", "errors", "exceptional", "lattice", "linalg",
                "quadirr", "search", "serialize", "value",
            )
        ),
    }


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
