"""Byte-for-byte CLI outputs against the stored corpus in ``tests/golden/``.

Regenerate the corpus with ``python tests/golden/regenerate.py`` only when an
output is meant to change.
"""

import json
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
sys.path.insert(0, str(GOLDEN))

from regenerate import load_cases, run_case  # noqa: E402

EXIT_CODES = json.loads((GOLDEN / "expected" / "exit_codes.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", load_cases(), ids=lambda case: case["name"])
def test_golden_output(case, monkeypatch):
    monkeypatch.delenv("TUBELAT_OUTPUT_DIR", raising=False)
    code, text = run_case(case["argv"])
    expected = (GOLDEN / "expected" / f"{case['name']}.out").read_text(encoding="utf-8")
    assert (code, text) == (EXIT_CODES[case["name"]], expected)
