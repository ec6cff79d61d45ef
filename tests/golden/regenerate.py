"""Rewrite the golden CLI corpus from the current source tree.

Usage, from the root of a checkout:

    python tests/golden/regenerate.py

Each case in ``cases.json`` runs through ``tubelat.cli.run`` in process, with
this directory as the working directory, so the file arguments in ``argv``
are relative to it.  The stdout of case ``name`` is written to
``expected/<name>.out`` and its exit code to ``expected/exit_codes.json``.
Cases run in file order, so a ``certify`` case may read the stored output of
an earlier case.  Regenerate only when an output is meant to change, and
review the diff.
"""

from __future__ import annotations

import io
import json
import os
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent
sys.path.insert(0, str(GOLDEN.parents[1] / "src"))


def load_cases() -> list[dict]:
    return json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


def run_case(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of one CLI call, run from the corpus directory."""
    from tubelat.cli import run

    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(GOLDEN)
    try:
        code = run(list(argv), stdout=out)
    finally:
        os.chdir(cwd)
    return code, out.getvalue()


def main() -> None:
    os.environ.pop("TUBELAT_OUTPUT_DIR", None)
    expected = GOLDEN / "expected"
    expected.mkdir(exist_ok=True)
    codes = {}
    for case in load_cases():
        code, text = run_case(case["argv"])
        (expected / f"{case['name']}.out").write_text(text, encoding="utf-8")
        codes[case["name"]] = code
    (expected / "exit_codes.json").write_text(
        json.dumps(codes, indent=2) + "\n", encoding="utf-8"
    )


if __name__ == "__main__":
    main()
