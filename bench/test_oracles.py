"""Tests of the benchmark's own checks: each reference computation against a
brute-force or hand-worked answer, and each check against a wrong output.

Run from the repository root: ``python3 -m pytest bench -q``.
"""

from __future__ import annotations

import io
import itertools
import json
import random
import shutil
import subprocess
import sys
from decimal import Decimal, getcontext
from fractions import Fraction
from pathlib import Path

import pytest

import oracles as O
import workloads as W

BENCH = Path(__file__).resolve().parent
R_ALL = list(W.R_VALUES.values()) + [(3, -1, 5, 2), (-1, 2, 3, 3)]


@pytest.fixture(scope="module")
def ctx():
    return W.Context(W.Program(), "2", BENCH.parent / "src").build()


def test_floor_mul_matches_high_precision_decimals():
    getcontext().prec = 60
    for p, q, d, s in R_ALL:
        value = (Decimal(p) + Decimal(q) * Decimal(d).sqrt()) / Decimal(s)
        for n in (0, 1, 2, 7, 99, 1000, 123456, -5):
            assert O.floor_mul((p, q, d, s), n) == int((value * n).to_integral_value(rounding="ROUND_FLOOR"))


def brute_gap(r, eps, k):
    """gap_vector's definition, scanning every competitor."""
    w0, w1 = O.MU_WEIGHTS
    m = w0 + w1
    while True:
        for a in range(1, (m - w1) // w0 + 1):
            if (m - w0 * a) % w1:
                continue
            b = (m - w0 * a) // w1
            s = Fraction(b, a)
            if b < 1 or not (O.r_above(r, s) and O.r_below(r, s + eps)):
                continue
            if not any(
                a2 and b2 and Fraction(b2, a2) > s and O.r_above(r, Fraction(b2, a2))
                for a2, b2 in O.budget_pairs(w0, w1, m + k)
            ):
                return a, b, m
        m += 1


@pytest.mark.parametrize("r", list(W.R_VALUES.values()))
def test_gap_oracle_matches_brute_force(r):
    for eps in (Fraction(1, 10), Fraction(1, 3)):
        for k in (0, 5, 17, 40):
            assert O.gap_oracle(r, eps, k) == brute_gap(r, eps, k)


def test_gap_oracle_matches_the_program(ctx):
    for r in W.R_VALUES.values():
        for k in (0, 50, 120):
            cert = ctx.prog.search.gap_vector(ctx.lattice, ctx.prog.quadirr.QuadIrrational(*r), W.EPS, k)
            assert (cert.a, cert.b, cert.mu) == O.gap_oracle(r, W.EPS, k)


def test_printed_form_is_the_euler_form_of_the_quiver():
    vectors = [tuple(random.Random(i).randint(-4, 4) for _ in range(6)) for i in range(500)]
    for x in vectors:
        assert 4 * O.bilinear(x, x) == O.printed_chi_times_4(x)
        assert O.bilinear(O.H0, x) + O.bilinear(x, O.H0) == 0
        assert O.bilinear(O.HINF, x) + O.bilinear(x, O.HINF) == 0
    assert O.bilinear(O.H0, O.HINF) == O.PAIRING
    assert O.EULER[5][0] == O.EULER[5][1] == 1  # the two relations


def test_exceptional_set_is_complete_and_has_chi_one():
    omega = O.exceptional_set()
    assert len(omega) == 24 and all(O.printed_chi_times_4(x) == 4 for x in omega)
    wide = [x + (0, 0) for x in itertools.product(range(-6, 7), repeat=4)]
    assert [x for x in wide if O.printed_chi_times_4(x) == 4] == omega


def test_path_counts_are_the_projective_dimensions(ctx):
    for i in range(6):
        assert list(ctx.prog.reps.projective(ctx.basis, i).dims) == O.path_counts(i)
    assert W.check_algebra(ctx) == []


def test_gap_certificate_check_rejects_tampering():
    r = W.R_VALUES["golden"]
    doc = O.gap_certificate_doc(r, W.EPS, 60)
    assert O.check_gap_certificate(doc, r, W.EPS, 60) == []
    dropped = json.loads(json.dumps(doc))
    del dropped["witnesses"][3]
    assert O.check_gap_certificate(dropped, r, W.EPS, 60)
    assert O.check_gap_certificate(dict(doc, a=doc["a"] + 1), r, W.EPS, 60)


def test_certificates_built_here_are_accepted_by_the_program(ctx, tmp_path):
    for doc in (O.gap_certificate_doc(W.R_VALUES["sqrt7/2"], W.EPS, 100), O.tube_params_doc(W.R_VALUES["sqrt2"], W.EPS, 10)):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        out = io.StringIO()
        assert ctx.prog.cli.run(["certify", str(path)], stdout=out) == 0
        assert json.loads(out.getvalue())["valid"] is True


def test_tube_params_check(ctx):
    r = W.R_VALUES["sqrt7/2"]
    doc = O.tube_params_doc(r, W.EPS, 10)
    assert O.check_tube_params(doc, r, W.EPS, 10) == []
    assert O.check_tube_params(dict(doc, lower_bound="1"), r, W.EPS, 10)
    tp = ctx.prog.search.tube_parameters(ctx.lattice, ctx.exceptional, ctx.prog.quadirr.QuadIrrational(*r), W.EPS, 10)
    assert O.check_tube_params(ctx.prog.search.tube_params_to_json(tp), r, W.EPS, 10) == []


def test_delta_property_check(ctx):
    r = W.R_VALUES["sqrt2"]
    result = ctx.prog.search.delta_for(ctx.lattice, ctx.exceptional, ctx.prog.quadirr.QuadIrrational(*r), W.EPS)
    doc = W._delta_doc(result)
    assert O.check_delta(r, W.EPS, doc, a_max=20) == []
    assert O.check_delta(r, W.EPS, dict(doc, delta=doc["eps_prime"]), a_max=20)
    wrong = dict(doc["exceptions"][0], perturbed="0")
    assert O.check_delta(r, W.EPS, dict(doc, exceptions=[wrong]), a_max=1)


def test_pp_evaluation_by_hand(ctx):
    p6 = ctx.prog.reps.rep_to_json(ctx.prog.reps.projective(ctx.basis, 5))
    s1 = {"dims": [1, 0, 0, 0, 0, 0], "arrows": {}}
    divisible = {  # exists w at vertex 3: v = beta.w, v at vertex 1
        "free": 1, "types": [1, 3], "rows": [1],
        "entries": [{"row": 0, "col": 0, "terms": [{"coeff": "1", "path": []}]},
                    {"row": 0, "col": 1, "terms": [{"coeff": "-1", "path": ["beta"]}]}],
    }
    assert O.pp_dim(p6, divisible) == 1 and O.pp_holds(p6, divisible, ["5"])
    assert O.pp_dim(s1, divisible) == 0
    assert O.pp_holds(s1, divisible, [0]) and not O.pp_holds(s1, divisible, [1])
    tautology = {"free": 1, "types": [3], "rows": [], "entries": []}
    zero = {"free": 1, "types": [3], "rows": [3], "entries": [{"row": 0, "col": 0, "terms": [{"coeff": "1", "path": []}]}]}
    assert O.pp_dim(p6, tautology) == 2 and O.pp_dim(p6, zero) == 0


def test_marked_point_check_on_a_free_realisation(ctx):
    """exists w at vertex 6: v = a11.a12.w, v at vertex 3.  Its free
    realisation is P6 marked at a11.a12, and phi(P6) is the line of that
    path, so the other path a21.a22 lies outside it."""
    pp = ctx.prog.pp
    phi = pp.make_formula(ctx.spec, 1, (2, 5), (2,), ((((1, ()),), ((-1, ("a11", "a12")),)),))
    realised = pp.pointed_to_json(pp.free_realisation(ctx.basis, phi))
    fwire = pp.formula_to_json(phi)
    point = realised["points"][0]["coords"]
    assert realised["module"]["dims"] == O.path_counts(5) and O.pp_holds(realised["module"], fwire, point)
    assert O.pp_dim(realised["module"], fwire) == 1
    other = [Fraction(1) if x == 0 else Fraction(0) for x in map(Fraction, point)]
    assert not O.pp_holds(realised["module"], fwire, other)


def run_pass(ops):
    return {op.name: op.call() for op in ops}


def test_module_checks_pass_and_catch_wrong_answers(ctx, tmp_path):
    ops = W.Modules().setup(ctx, random.Random(3), tmp_path)
    outcomes = run_pass([op for op in ops if "3" not in op.name])  # skip the slowest level
    by_name = {op.name: op for op in ops}
    for name, out in outcomes.items():
        assert by_name[name].check(out, outcomes) == [], name
    assert by_name["hom_dim[A1,B1]"].check(outcomes["hom_dim[A1,B1]"] + 1, outcomes)
    assert by_name["ext_dim[A2,B2]"].check(1, outcomes)
    skewed = dict(outcomes, **{"ext_dim[B2,A2]": outcomes["ext_dim[B2,A2]"] + 1})
    assert by_name["hom_dim[B2,A2]"].check(outcomes["hom_dim[B2,A2]"], skewed)
    space = outcomes["solution_space[phi0,C]"]
    if space:
        assert by_name["solution_space[phi0,C]"].check(space[1:], outcomes)
    assert by_name["solution_space[tautology,C]"].check(outcomes["solution_space[tautology,C]"][1:], outcomes)


def test_known_fault_checks_accept_only_the_named_error(ctx, tmp_path):
    ops = {op.name: op for op in W.Certify().setup(ctx, random.Random(1), tmp_path)}
    assert {name for name, op in ops.items() if op.fault} == {"certify[slope-1/0]", "certify[k-5.9]"}
    error = (1, json.dumps({"error": "spec-format", "message": "malformed"}))
    accepted = (0, json.dumps({"kind": "gap-vector", "valid": True, "failures": []}))
    for name in ("certify[slope-1/0]", "certify[k-5.9]"):
        assert ops[name].check(error, {}) == [] and ops[name].check(accepted, {})
    for name in ("certify[gap-312]", "certify[gap-312-tampered]", "certify[tube-d10]", "certify[tube-d10-tampered]"):
        assert ops[name].check(ops[name].call(), {}) == [], name


def test_run_without_the_program_fails(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "search", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_short_run_reports_the_contract_fields():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "certify", "--seed", "4", "--seconds", "1", "--trace", "0"],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=170,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert proc.returncode == 0 and result["correct"] is True
    assert result["attempted"] % 13 == 0 and result["failed"] * 13 <= result["attempted"] * 2
    assert set(result["metrics"]) == {"setup_s", "ops_per_s", "top_op_s", "peak_rss_mb"}


def test_manifest_matches_the_committed_file():
    import run

    assert json.loads((BENCH.parent / "BENCHMARK.json").read_text()) == run.manifest()
