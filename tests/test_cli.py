import io
import json
import re
import shlex
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import tubelat
from tubelat import algebra, cli, pp, reps
from tubelat.cli import run
from tubelat.serialize import dumps_canonical
from tubelat.pp import formula_to_json
from tubelat.reps import rep_to_json

GOLDEN_OUT = Path(__file__).resolve().parent / "golden" / "expected"


def invoke(*argv):
    out = io.StringIO()
    code = run(list(argv), stdout=out)
    return code, out.getvalue()


def invoke_json(*argv):
    code, text = invoke(*argv)
    return code, json.loads(text)


def test_slope_of_h0():
    code, text = invoke("slope", "--vec", "[1,1,2,1,1,0]")
    assert code == 0
    assert text == '"0"\n'


def test_slope_of_radical_combination():
    code, doc = invoke_json("slope", "--vec", "[5,5,17,12,12,7]")
    assert code == 0 and doc == "7/5"


def test_euler_pairings():
    code, doc = invoke_json("euler", "--x", "h0", "--y", "hinf")
    assert code == 0 and doc == 2
    code, doc = invoke_json("euler", "--x", "hinf", "--y", "h0")
    assert code == 0 and doc == -2


def test_omega_document():
    code, doc = invoke_json("omega")
    assert code == 0
    assert doc["bound"] == 2
    assert doc["count"] == 24 == len(doc["elements"])
    assert [1, 0, 0, 0, 0, 0] in doc["elements"]


def test_decompose_radical_and_unit():
    code, doc = invoke_json("decompose", "--vec", "[5,5,17,12,12,7]")
    assert code == 0 and doc == {"kind": "radical", "a": 5, "b": 7}
    code, doc = invoke_json("decompose", "--vec", "[0,0,0,0,0,1]")
    assert code == 0
    assert (doc["a"], doc["b"], doc["y"]) == (-1, 1, [1, 1, 1, 0, 0, 0])
    code, doc = invoke_json("decompose", "--vec", "[1,1,1,1,1,1]")
    assert code == 1 and doc["error"] == "precondition"


def test_gap_search_document():
    code, doc = invoke_json("gap-search", "--r", "sqrt:2", "--eps", "1/10", "--k", "50")
    assert code == 0
    assert (doc["a"], doc["b"], doc["mu"], doc["slope"]) == (5, 7, 58, "7/5")
    assert doc["budget"] == 108
    assert len(doc["witnesses"]) >= 200


def test_delta_document():
    code, doc = invoke_json("delta", "--r", "sqrt:2", "--eps", "1/10")
    assert code == 0
    assert doc["eps_prime"] == "1/20"
    num, den = doc["delta"].split("/")
    assert int(num) > 0 and int(den) > 0


def test_p_bound_document():
    code, doc = invoke_json("p-bound")
    assert code == 0 and doc == {"p": 4}


def test_tube_params_document():
    code, doc = invoke_json("tube-params", "--r", "sqrt:2", "--eps", "1/10", "--d", "1")
    assert code == 0
    assert (doc["a"], doc["b"], doc["rank"], doc["k_used"]) == (5, 7, 2, 18)
    assert doc["lower_bound"] == "25"
    assert doc["certificate"]["kind"] == "gap-vector"


def test_validate_algebra():
    code, doc = invoke_json("validate-algebra")
    assert code == 0 and doc["ok"] is True
    code, doc = invoke_json("--lambda", "5/3", "validate-algebra")
    assert code == 0 and doc["ok"] is True
    code, doc = invoke_json("--lambda", "1", "validate-algebra")
    assert code == 1 and doc["error"] == "parameter-domain"


def test_validate_algebra_runs_validate_spec_once():
    # counted by code object, so every binding of the function is seen; the
    # lambda is used nowhere else, so no cached build hides a run
    runs = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is algebra.validate_spec.__code__:
            runs.append(frame)

    sys.setprofile(profile)
    try:
        code, doc = invoke_json("--lambda", "9973/7919", "validate-algebra")
    finally:
        sys.setprofile(None)
    assert code == 0 and doc["ok"] is True
    assert len(runs) == 1


def test_hom_ext_slope_on_files(tmp_path, spec, basis):
    p3 = reps.projective(basis, 2)
    s3 = reps.simple(spec, 2)
    m_file = tmp_path / "m.json"
    n_file = tmp_path / "n.json"
    m_file.write_text(json.dumps(rep_to_json(p3)))
    n_file.write_text(json.dumps(rep_to_json(s3)))
    code, doc = invoke_json("hom", str(m_file), str(n_file))
    assert code == 0 and doc == 1  # the top of P_3
    code, doc = invoke_json("ext", str(n_file), str(m_file))
    assert code == 0 and doc == reps.ext_dim(basis, s3, p3)
    h0_rep = reps.make_representation(spec, (1, 1, 2, 1, 1, 0), {})
    r_file = tmp_path / "r.json"
    r_file.write_text(json.dumps(rep_to_json(h0_rep)))
    code, doc = invoke_json("slope", str(r_file))
    assert code == 0 and doc == "0"


ZERO_2000 = str(GOLDEN_OUT.parent / "inputs" / "zero-2000.json")


@pytest.mark.parametrize(
    "argv, name",
    [(["hom", ZERO_2000, ZERO_2000], "hom-zero-2000"), (["slope", ZERO_2000], "slope-zero-2000")],
)
def test_zero_module_of_dimension_2000_ends_within_2_s(argv, name):
    # a 60-byte file: 2000-dimensional spaces, every arrow zero; reading it
    # and solving its Hom system cost the stored entries, not the dimensions
    def too_slow(signum, frame):
        pytest.fail(f"{argv[0]} ran past 2 s")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(2)
    try:
        got = invoke(*argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    exit_codes = json.loads((GOLDEN_OUT / "exit_codes.json").read_text(encoding="utf-8"))
    assert got == (exit_codes[name], (GOLDEN_OUT / f"{name}.out").read_text(encoding="utf-8"))


def test_pp_commands(tmp_path, spec, basis):
    phi = pp.arrow_divisibility(spec, "beta")
    psi = pp.zero_formula(spec, 0)
    m = reps.projective(basis, 5)
    phi_file = tmp_path / "phi.json"
    psi_file = tmp_path / "psi.json"
    m_file = tmp_path / "m.json"
    phi_file.write_text(json.dumps(formula_to_json(phi)))
    psi_file.write_text(json.dumps(formula_to_json(psi)))
    m_file.write_text(json.dumps(rep_to_json(m)))

    code, doc = invoke_json("pp-eval", str(phi_file), str(m_file))
    assert code == 0 and doc["dim"] == 1

    code, doc = invoke_json("pp-free", str(phi_file))
    assert code == 0
    assert doc["points"][0]["vertex"] == 1  # beta ends at vertex 1 on the wire

    code, doc = invoke_json("pp-pair", str(phi_file), str(psi_file), str(m_file))
    assert code == 0 and doc == {"open": True, "dim_phi": 1, "dim_psi": 0}


def test_certify_round_trip(tmp_path):
    cert_file = tmp_path / "cert.json"
    # a negative q must be printed in a form the parser reads back
    for r in ("sqrt:2", "(3-sqrt(5))/2"):
        _, text = invoke("gap-search", "--r", r, "--eps", "1/10", "--k", "50")
        cert_file.write_text(text)
        code, doc = invoke_json("certify", str(cert_file))
        assert code == 0 and doc["valid"] is True and doc["failures"] == [], r

    _, text = invoke("tube-params", "--r", "sqrt:2", "--eps", "1/10", "--d", "1")
    tube_file = tmp_path / "tube.json"
    tube_file.write_text(text)
    code, doc = invoke_json("certify", str(tube_file))
    assert code == 0 and doc["valid"] is True


# every field of each certificate kind, each missing and each set to true
WIRE_FIELDS = {
    "gap": (
        "kind", "r", "epsilon", "k", "a", "b", "slope", "mu", "budget", "mu_weights", "witnesses",
    ),
    "tube": (
        "kind", "a", "b", "slope", "rank", "k_used", "p", "d", "lower_bound", "threshold", "r",
        "epsilon", "certificate",
    ),
}
MISSING = object()
EVERY_FIELD = [
    (kind, (field,), value)
    for kind, fields in WIRE_FIELDS.items()
    for field in fields
    for value in (MISSING, True)
]


@pytest.mark.parametrize(
    "kind, where, value",
    [
        ("gap", ("witnesses", 1, "slope"), "1/0"),
        ("gap", ("witnesses", 1, "slope"), 3),
        ("gap", ("k",), 5.9),
        ("gap", ("a",), True),
        ("gap", ("mu_weights",), []),
        ("gap", ("mu_weights",), [6, 4, 99]),
        ("gap", ("r",), 5),
        ("tube", ("certificate",), []),
        ("rep", ("dims", 0), 1.9),
        ("rep", ("arrows",), []),
        *EVERY_FIELD,
    ],
    ids=[
        "slope-1/0",
        "slope-number",
        "k-float",
        "a-bool",
        "mu-weights-empty",
        "mu-weights-three",
        "r-number",
        "certificate-list",
        "dims-float",
        "arrows-list",
        *(
            f"{kind}-{where[0]}-{'missing' if value is MISSING else 'true'}"
            for kind, where, value in EVERY_FIELD
        ),
    ],
)
def test_wire_values_must_be_exact(tmp_path, spec, kind, where, value):
    if kind == "rep":
        command = "slope"
        doc = rep_to_json(reps.make_representation(spec, (1, 1, 2, 1, 1, 0), {}))
    else:
        command = "certify"
        argv = {
            "gap": ("gap-search", "--r", "sqrt:2", "--eps", "1/10", "--k", "5"),
            "tube": ("tube-params", "--r", "sqrt:2", "--eps", "1/10", "--d", "1"),
        }[kind]
        doc = json.loads(invoke(*argv)[1])
        assert tuple(sorted(doc)) == tuple(sorted(WIRE_FIELDS[kind]))
    target = doc
    for key in where[:-1]:
        target = target[key]
    if value is MISSING:
        del target[where[-1]]
    else:
        target[where[-1]] = value
    doc_file = tmp_path / "doc.json"
    doc_file.write_text(json.dumps(doc))
    code, out = invoke_json(command, str(doc_file))
    assert code == 1 and out["error"] == "spec-format"


def test_certify_rejects_mutation(tmp_path):
    _, text = invoke("gap-search", "--r", "sqrt:2", "--eps", "1/10", "--k", "50")
    doc = json.loads(text)
    doc["witnesses"][5]["slope"] = "24/17"
    bad_file = tmp_path / "bad.json"
    bad_file.write_text(json.dumps(doc))
    code, verdict = invoke_json("certify", str(bad_file))
    assert code == 1 and verdict["valid"] is False and verdict["failures"]


@pytest.mark.parametrize(
    "edit, failure",
    [
        (
            {"a": 8, "b": 11, "slope": "11/8", "lower_bound": "42"},
            "certificate pair (5,7) is not the pair (8,11)",
        ),
        ({"d": 100, "k_used": 216}, "certificate k = 18 is not k_used = 216"),
        (
            {"r": "(0+1*sqrt(201))/10"},
            "certificate r = (0+1*sqrt(2))/1 is not r = (0+1*sqrt(201))/10",
        ),
        ({"threshold": 999}, "stored threshold = 999, recomputed 4"),
    ],
    ids=["pair", "k", "r", "threshold"],
)
def test_certify_checks_a_tube_against_its_certificate(tmp_path, edit, failure):
    """Outer fields consistent among themselves but not with the valid
    certificate inside: the certificate is for another pair, gap or r; or
    a stored threshold that is not the recomputed one."""
    _, text = invoke("tube-params", "--r", "sqrt:2", "--eps", "1/10", "--d", "1")
    doc_file = tmp_path / "tube.json"
    doc_file.write_text(json.dumps({**json.loads(text), **edit}))
    code, verdict = invoke_json("certify", str(doc_file))
    assert code == 1 and verdict["valid"] is False and verdict["failures"] == [failure]


GAP_K5 = ("gap-search", "--r", "sqrt:2", "--eps", "1/10", "--k", "5")
TUBE_D1 = ("tube-params", "--r", "sqrt:2", "--eps", "1/10", "--d", "1")


def certify_edited(tmp_path, argv, edit, where=()):
    """certify's exit code and verdict on the output of ``argv`` with
    ``edit`` applied at the path ``where`` (the top level if empty)."""
    doc = json.loads(invoke(*argv)[1])
    target = doc
    for key in where:
        target = target[key]
    target.update(edit)
    doc_file = tmp_path / "doc.json"
    doc_file.write_text(json.dumps(doc))
    return invoke_json("certify", str(doc_file))


@pytest.mark.parametrize(
    "argv, where, pair",
    [(GAP_K5, (), (3, 4)), (TUBE_D1, (), (5, 7)), (TUBE_D1, ("certificate",), (5, 7))],
    ids=["gap", "tube", "tube-certificate"],
)
def test_certify_checks_each_stored_slope(tmp_path, argv, where, pair):
    (a, b), prefix = pair, "certificate " if where else ""
    code, verdict = certify_edited(tmp_path, argv, {"slope": "99"}, where)
    assert code == 1 and verdict["valid"] is False
    assert verdict["failures"] == [f"{prefix}stored slope 99 is not the slope {b}/{a} of ({a},{b})"]
    # compared by value: other spellings of the slope pass
    for text in (f"{2 * b}/{2 * a}", f" {b}/{a}"):
        code, verdict = certify_edited(tmp_path, argv, {"slope": text}, where)
        assert code == 0 and verdict["valid"] is True, text
    code, doc = certify_edited(tmp_path, argv, {"slope": "7/0/5"}, where)
    assert code == 1 and doc["error"] == "spec-format"


@pytest.mark.parametrize("where", [(), ("certificate",)], ids=["tube", "tube-certificate"])
def test_certify_answers_a_pair_with_no_slope(tmp_path, where):
    code, verdict = certify_edited(tmp_path, TUBE_D1, {"a": 0, "b": 0}, where)
    prefix = "certificate " if where else ""
    assert code == 1 and verdict["valid"] is False
    assert verdict["failures"][-1] == f"{prefix}stored slope 7/5 is given for (0,0), which has no slope"


def test_certify_unknown_kind(tmp_path):
    f = tmp_path / "junk.json"
    f.write_text('{"kind": "mystery"}')
    code, doc = invoke_json("certify", str(f))
    assert code == 1 and doc["error"] == "spec-format"


def test_malformed_json_is_reported(tmp_path):
    f = tmp_path / "broken.json"
    f.write_text("{not json")
    code, doc = invoke_json("hom", str(f), str(f))
    assert code == 1 and doc["error"] == "malformed-json"


def test_byte_stability():
    for argv in (
        ["omega"],
        ["gap-search", "--r", "sqrt:2", "--eps", "1/10", "--k", "50"],
        ["delta", "--r", "sqrt:3", "--eps", "1/16"],
        ["tube-params", "--r", "(1+sqrt(5))/2", "--eps", "1/10", "--d", "1"],
    ):
        _, first = invoke(*argv)
        _, second = invoke(*argv)
        assert first == second


def test_output_dir_override(tmp_path, monkeypatch):
    monkeypatch.setenv("TUBELAT_OUTPUT_DIR", str(tmp_path / "outs"))
    code, text = invoke("p-bound")
    assert code == 0
    copy = (tmp_path / "outs" / "p-bound.json").read_text()
    assert copy == text


def test_output_dir_that_is_a_file_is_one_io_error(tmp_path, monkeypatch):
    blocker = tmp_path / "outs"
    blocker.write_text("")
    monkeypatch.setenv("TUBELAT_OUTPUT_DIR", str(blocker))
    code, text = invoke("p-bound")
    doc = json.loads(text)  # exactly one document: no result before the error
    assert code == 1 and doc["error"] == "io"
    assert blocker.read_text() == ""


def test_out_of_memory_is_one_budget_error(monkeypatch):
    def exhaust(*args):
        raise MemoryError

    # the search itself runs out, under the subcommand's own handler
    monkeypatch.setattr(cli, "delta_for", exhaust)
    code, text = invoke("delta", "--r", "sqrt:2", "--eps", "1/10")
    doc = json.loads(text)  # exactly one document
    assert code == 1 and doc["error"] == "budget-exhausted"
    assert doc["message"].startswith("out of memory")


def test_out_of_memory_while_encoding_is_one_budget_error(monkeypatch):
    calls = []

    def dumps_exhausting_once(doc):
        calls.append(doc)
        if len(calls) == 1:
            raise MemoryError
        return dumps_canonical(doc)

    monkeypatch.setattr(cli, "dumps_canonical", dumps_exhausting_once)
    code, text = invoke("p-bound")
    doc = json.loads(text)  # exactly one document
    assert code == 1 and doc["error"] == "budget-exhausted"
    assert doc["message"] == "out of memory in p-bound"
    assert len(calls) == 2 and "error" not in calls[0]


def test_version_matches_project_metadata():
    root = Path(__file__).resolve().parents[1]
    pyproject = (root / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r'^version = "(.*)"$', pyproject, re.M).group(1) == tubelat.__version__
    assert invoke_json("--version") == (0, {"version": tubelat.__version__})


@pytest.mark.parametrize(
    "argv",
    [
        ["frob"],
        ["omega", "--bad"],
        ["gap-search", "--r", "sqrt:2", "--eps", "1/10"],
        ["--lambda"],
        ["tube-params", "--r", "sqrt:2", "--eps", "1/10", "--d", "1.5"],
    ],
)
def test_usage_errors_are_one_spec_format_document(argv, capsys):
    code, doc = invoke_json(*argv)
    assert code == 1 and doc["error"] == "spec-format"
    assert capsys.readouterr().err == ""


def test_help_still_prints_usage_and_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["gap-search", "--help"], stdout=io.StringIO())
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: tubelat gap-search")


# per subcommand, in the order of --help: a call that lacks its required
# arguments (or, for one that takes none, has one too many), the message of
# its spec-format document, and the first line of its --help
USAGE = {
    "validate-algebra": (["extra"], "unrecognized arguments: extra", "[-h]"),
    "euler": ([], "the following arguments are required: --x, --y", "[-h] --x X --y Y"),
    "slope": (["rep.json", "extra"], "unrecognized arguments: extra", "[-h] [--vec VEC] [rep]"),
    "omega": (["extra"], "unrecognized arguments: extra", "[-h]"),
    "decompose": ([], "the following arguments are required: --vec", "[-h] --vec VEC"),
    "gap-search": (
        [], "the following arguments are required: --r, --eps, --k", "[-h] --r R --eps EPS --k K"
    ),
    "delta": ([], "the following arguments are required: --r, --eps", "[-h] --r R --eps EPS"),
    "p-bound": (["extra"], "unrecognized arguments: extra", "[-h]"),
    "tube-params": (
        [], "the following arguments are required: --r, --eps, --d", "[-h] --r R --eps EPS --d D"
    ),
    "hom": ([], "the following arguments are required: m, n", "[-h] m n"),
    "ext": ([], "the following arguments are required: m, n", "[-h] m n"),
    "pp-eval": ([], "the following arguments are required: phi, m", "[-h] phi m"),
    "pp-free": ([], "the following arguments are required: phi", "[-h] phi"),
    "pp-pair": ([], "the following arguments are required: phi, psi, m", "[-h] phi psi m"),
    "certify": ([], "the following arguments are required: certificate", "[-h] certificate"),
}


@pytest.mark.parametrize("name", USAGE)
def test_each_subcommand_keeps_its_usage_error_and_help(name, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    argv, message, usage = USAGE[name]
    assert invoke(name, *argv) == (1, dumps_canonical({"error": "spec-format", "message": message}))
    with pytest.raises(SystemExit) as exc:
        run([name, "--help"], stdout=io.StringIO())
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert out.splitlines()[0] == f"usage: tubelat {name} {usage}" and err == ""


def test_subcommands_are_listed_in_order(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit):
        run(["--help"], stdout=io.StringIO())
    assert "{" + ",".join(USAGE) + "}" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv,error",
    [
        (["hom", "{dir}", "{dir}"], "io"),
        (["--algebra", "{bad}", "validate-algebra"], "malformed-json"),
        (["hom", "{bad}", "{bad}"], "malformed-json"),
    ],
)
def test_unreadable_inputs_are_named_errors(tmp_path, argv, error):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{")
    argv = [a.format(dir=tmp_path, bad=bad) for a in argv]
    code, doc = invoke_json(*argv)
    assert code == 1 and doc["error"] == error


@pytest.mark.parametrize(
    "argv,error",
    [
        (["certify", "{deep}"], "malformed-json"),
        (["--algebra", "{deep}", "validate-algebra"], "malformed-json"),
        (["hom", "{deep}", "{deep}"], "malformed-json"),
        (["pp-free", "{deep}"], "malformed-json"),
        (["euler", "--x", "[" * 5000, "--y", "h0"], "spec-format"),
        (["slope", "--vec", "[" * 5000 + "]" * 5000], "spec-format"),
    ],
    ids=["certify", "algebra", "rep", "formula", "vec-open", "vec-closed"],
)
def test_deeply_nested_json_is_a_named_error(tmp_path, argv, error):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    code, doc = invoke_json(*[a.format(deep=deep) for a in argv])
    assert code == 1 and doc["error"] == error


DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)() + 1  # one past the limit


@pytest.mark.skipif(DIGITS == 1, reason="no int-to-str digit limit")
@pytest.mark.parametrize(
    "argv,error",
    [
        (["certify", "{cert}"], "malformed-json"),
        (["hom", "{rep}", "{rep}"], "malformed-json"),
        (["slope", "--vec", "[{long},0,0,0,0,0]"], "spec-format"),
        (["certify", "{cert_eps}"], "spec-format"),
        (["slope", "{rep_entry}"], "spec-format"),
        (["--lambda", "{long}", "p-bound"], "spec-format"),
        (["--lambda", "-1/{long}", "p-bound"], "spec-format"),
        (["gap-search", "--r", "sqrt:2", "--eps", "1/{long}", "--k", "5"], "spec-format"),
        (["gap-search", "--r", "sqrt:{long}", "--eps", "1/10", "--k", "5"], "spec-format"),
        (["gap-search", "--r", "sqrt:2", "--eps", "1/10", "--k", "{long}"], "spec-format"),
        (["tube-params", "--r", "sqrt:2", "--eps", "1/10", "--d", "{long}"], "spec-format"),
    ],
    ids=["certify", "rep", "vec", "certify-epsilon", "rep-entry", "lambda",
         "lambda-negative-rational", "eps", "r", "k", "d"],
)
def test_integer_literals_past_the_digit_limit_are_named_errors(tmp_path, argv, error):
    """An integer literal longer than the interpreter converts to an int is
    one named error, not a ValueError traceback: in the canonical
    certificate's header (which the byte path gives up on as well) and its
    epsilon, in a rep file's dims and entries, in a vector, and in every
    number option; ``--k`` and ``--d`` keep argparse's usage error."""
    long = "1" * DIGITS
    golden = (GOLDEN_OUT / "gap-search-sqrt2.out").read_text(encoding="utf-8")
    assert '\n  "mu": 58,\n' in golden and '\n  "epsilon": "1/10",\n' in golden
    cert = tmp_path / "cert.json"
    cert.write_text(golden.replace('\n  "mu": 58,\n', f'\n  "mu": {long},\n'))
    cert_eps = tmp_path / "cert-eps.json"
    cert_eps.write_text(golden.replace('"epsilon": "1/10"', f'"epsilon": "1/{long}"'))
    rep = tmp_path / "rep.json"
    rep.write_text(f'{{"dims": [{long}, 0, 0, 0, 0, 0], "arrows": {{}}}}')
    rep_entry = tmp_path / "rep-entry.json"
    rep_entry.write_text(f'{{"dims": [1, 1, 2, 1, 1, 0], "arrows": {{"a12": [["{long}"], ["0"]]}}}}')
    paths = {"cert": cert, "cert_eps": cert_eps, "rep": rep, "rep_entry": rep_entry}
    code, text = invoke(*[a.format(long=long, **paths) for a in argv])
    doc = json.loads(text)
    assert code == 1 and doc["error"] == error
    if argv[-2:] in (["--k", "{long}"], ["--d", "{long}"]):
        assert doc["message"] == f"argument {argv[-2]}: invalid int value: {long!r}"


def test_rep_breaking_a_relation_is_a_validation_error(tmp_path):
    # a11.a12.beta - a21.a22.beta acts as 1 - 0 on this module
    bad = tmp_path / "bad.json"
    ones = [["1"]]
    bad.write_text(json.dumps({
        "dims": [1, 0, 1, 1, 0, 1],
        "arrows": {"a11": ones, "a12": ones, "beta": ones},
    }))
    for argv in (["hom", bad, bad], ["ext", bad, bad], ["slope", bad]):
        code, doc = invoke_json(*map(str, argv))
        assert code == 1 and doc["error"] == "validation"
        assert doc["message"].startswith("relation 1 [")


FUZZ_DOCS = {
    name: json.loads((GOLDEN_OUT / f"{name}.out").read_text(encoding="utf-8"))
    for name in ("gap-search-sqrt2", "tube-params-eps-1-10")
}
_DELETE = object()
FUZZ_VALUES = (0, -1, 10**40, -(10**40), True, "1", None, 1.5, [], {}, _DELETE)


@pytest.mark.parametrize(
    "name,field", [(name, field) for name, doc in FUZZ_DOCS.items() for field in doc]
)
def test_certify_boundary_fuzz(tmp_path, name, field):
    """Each field set to a boundary value, or deleted: certify answers with
    one JSON document, a verdict or a named error, never a traceback."""
    doc_file = tmp_path / "doc.json"
    for value in FUZZ_VALUES:
        doc = dict(FUZZ_DOCS[name])
        if value is _DELETE:
            del doc[field]
        else:
            doc[field] = value
        doc_file.write_text(json.dumps(doc))
        code, text = invoke("certify", str(doc_file))
        out = json.loads(text)
        assert code in (0, 1), (field, value)
        assert (code == 0) == (out.get("valid") is True), (field, value)


def test_certify_answers_a_budget_that_dwarfs_the_rows(tmp_path):
    """The golden certificate's rows under weights (10**30, 1) and a budget
    of 10**20, a scan of 10**20 rows at a = 0 alone: certify reads the rows
    one by one and answers with a verdict, the weights' mismatch included."""
    doc = {**FUZZ_DOCS["gap-search-sqrt2"], "mu_weights": [10**30, 1], "budget": 10**20}
    doc_file = tmp_path / "doc.json"
    doc_file.write_text(json.dumps(doc))
    code, verdict = invoke_json("certify", str(doc_file))
    assert code == 1 and verdict["valid"] is False
    assert any("weights" in failure for failure in verdict["failures"])


def test_user_algebra_file(tmp_path, spec):
    from tubelat.algebra import spec_to_json

    algebra_file = tmp_path / "alg.json"
    algebra_file.write_text(json.dumps(spec_to_json(spec)))
    code, doc = invoke_json(
        "--algebra", str(algebra_file), "euler", "--x", "h0", "--y", "hinf"
    )
    assert code == 0 and doc == 2


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "tubelat.cli", "euler", "--x", "h0", "--y", "hinf"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "2\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["gap-search", "--r", "sqrt:2", "--eps", "1e-1", "--k", "5"], "malformed rational '1e-1'"),
        (["--lambda", "2_0", "p-bound"], "malformed rational '2_0'"),
        (["--lambda", "0.5", "p-bound"], "malformed rational '0.5'"),
        (["gap-search", "--r", "sqrt:2", "--eps", "1/10", "--k", "1_0"], "argument --k: invalid int value: '1_0'"),
        (["gap-search", "--r", "sqrt:2", "--eps", "1/10", "--k", "\u0665"], "argument --k: invalid int value: '\u0665'"),
        (["tube-params", "--r", "sqrt:2", "--eps", "1/10", "--d", "\u0663"], "argument --d: invalid int value: '\u0663'"),
        (["delta", "--r", "sqrt:\u0662", "--eps", "1/10"], "cannot parse quadratic irrational 'sqrt:\u0662'"),
        (["delta", "--r", "sqrt:2", "--eps", "\u0661/\u0661\u0660"], "malformed rational '\u0661/\u0661\u0660'"),
    ],
)
def test_numbers_on_the_command_line_follow_one_grammar(argv, message):
    assert invoke_json(*argv) == (1, {"error": "spec-format", "message": message})


@pytest.mark.parametrize("name", ["h0", "p3"])
def test_numbers_in_a_module_file_follow_one_grammar(tmp_path, name):
    doc = json.loads((GOLDEN_OUT.parent / "inputs" / f"{name}.json").read_text(encoding="utf-8"))
    for bad in ("1e2", "\u0663", "1_0", "1.0"):
        label, mat = next((k, m) for k, m in sorted(doc["arrows"].items()) if m and m[0])
        edited = {**doc, "arrows": {**doc["arrows"], label: [[bad, *mat[0][1:]], *mat[1:]]}}
        path = tmp_path / "rep.json"
        path.write_text(json.dumps(edited), encoding="utf-8")
        assert invoke_json("slope", str(path)) == (
            1, {"error": "spec-format", "message": f"malformed rational {bad!r}"}
        )


@pytest.mark.parametrize(
    "spaced, joined",
    [
        (["--lambda", "-1/2", "p-bound"], ["--lambda=-1/2", "p-bound"]),
        (["gap-search", "--r", "sqrt:2", "--eps", "-1/2", "--k", "5"], ["gap-search", "--r", "sqrt:2", "--eps=-1/2", "--k", "5"]),
        (["--lambda", "-3", "p-bound"], ["--lambda=-3", "p-bound"]),
    ],
)
def test_a_negative_value_is_read_as_a_value(spaced, joined):
    code, doc = invoke_json(*spaced)
    assert (code, doc) == invoke_json(*joined)
    assert doc == {"p": 4} or doc["error"] == "precondition"


def readme_examples():
    """The ``tubelat ...`` lines of the README's command-line block, each as
    its argv and the JSON after its ``# ->``, or None where it has none."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```sh\n(tubelat --version.*?)```", readme, re.S).group(1)
    examples = []
    for line in block.splitlines():
        command, _, note = line.partition("#")
        note = note.strip()
        result = json.loads(note[2:]) if note.startswith("->") else None
        examples.append((shlex.split(command)[1:], result))
    return examples


def test_the_readme_examples_stay_true():
    examples = readme_examples()
    assert sum(result is not None for _, result in examples) == 4
    for argv, result in examples:
        if any(arg.endswith(".json") for arg in argv):
            continue
        code, text = invoke(*argv)
        assert code == 0, argv
        if result is not None:
            assert json.loads(text) == result, argv
