"""The four workloads: their inputs, operations and output checks.

A workload's ``setup`` imports the program afresh, builds the algebra data
and writes the inputs its operations read; ``ops`` is the fixed operation
list of one pass.  Every operation is checked on the first pass against
``oracles`` or a property the method must have, and later passes must repeat
the first pass's output exactly.
"""

from __future__ import annotations

import importlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import oracles as O

# Quadratic irrationals (p, q, d, s) = (p + q*sqrt(d))/s of the search ladder.
R_VALUES = {"sqrt2": (0, 1, 2, 1), "golden": (1, 1, 5, 2), "sqrt7/2": (0, 1, 7, 2)}
EPS = Fraction(1, 10)
# The Euler form, the lattice and every search result are the same for all
# these lambda; the seed picks one so that the algebra data is not fixed.
LAMBDAS = ("2", "3", "-1", "1/2", "5/3", "-2", "7", "-3/4")


@dataclass
class Op:
    """One operation of a pass.

    ``check(outcome, outcomes)`` returns a list of problems; ``outcomes``
    holds the whole pass's outcomes by name, for checks that relate two
    operations.  A ``fault`` operation exercises a known program fault: any
    outcome other than the one ``check`` accepts counts as failed.  Later
    passes must give the same ``key(outcome)`` as the first.
    """

    name: str
    call: Callable[[], object]
    check: Callable[[object, dict], list]
    fault: bool = False
    key: Callable[[object], object] = lambda outcome: outcome


class Program:
    """The tubelat modules, imported afresh from ``sys.path``."""

    MODULES = ("algebra", "lattice", "exceptional", "quadirr", "search", "serialize", "linalg", "reps", "pp", "cli")

    def __init__(self):
        for name in [n for n in sys.modules if n == "tubelat" or n.startswith("tubelat.")]:
            del sys.modules[name]
        for name in self.MODULES:
            setattr(self, name, importlib.import_module(f"tubelat.{name}"))


@dataclass
class Context:
    prog: Program
    lam: str
    src: Path
    spec: object = None
    lattice: object = None
    exceptional: object = None
    basis: object = None

    def build(self):
        self.spec = self.prog.algebra.build_c4(self.lam)
        self.lattice = self.prog.lattice.K0Lattice.for_spec(self.spec)
        self.exceptional = self.prog.exceptional.enumerate_exceptional(self.lattice)
        self.basis = self.prog.algebra.derive_path_basis(self.spec)
        return self


def equals(want):
    """A check that the outcome is exactly ``want``."""
    return lambda out, _: [] if out == want else [f"got {out}, want {want}"]


def check_algebra(ctx: Context) -> list:
    """The program's algebra data against the printed data."""
    problems = []
    lat = ctx.lattice
    if lat.euler.euler != O.EULER:
        problems.append("Euler matrix differs from the quiver-and-relations count")
    units = [tuple(int(i == j) for j in range(6)) for i in range(6)]
    pairs = units + [tuple(a + b for a, b in zip(u, v)) for k, u in enumerate(units) for v in units[k + 1 :]]
    # A quadratic form is fixed by its values on e_i and e_i + e_j.
    if any(4 * lat.quadratic(x) != O.printed_chi_times_4(x) for x in pairs):
        problems.append("quadratic form differs from the printed sum of squares")
    if (lat.h0, lat.hinf, lat.pairing) != (O.H0, O.HINF, O.PAIRING):
        problems.append("radical vectors differ from the printed ones")
    omega = list(ctx.exceptional)
    if omega != O.exceptional_set() or any(O.printed_chi_times_4(x) != 4 for x in omega):
        problems.append("exceptional set differs from the printed form's chi = 1 set")
    cartan = [list(ctx.prog.reps.projective(ctx.basis, i).dims) for i in range(6)]
    if cartan != [O.path_counts(i) for i in range(6)]:
        problems.append("projective dimension vectors differ from the path counts")
    return problems


# ---------------------------------------------------------------------------
# search: certified slope searches, in process
# ---------------------------------------------------------------------------


def _delta_doc(result) -> dict:
    text = O.frac_text
    return {
        "delta": text(result.delta),
        "eps_prime": text(result.eps_prime),
        "exceptions": [
            {"a": e.a, "b": e.b, "y": list(e.y), "perturbed": text(e.perturbed)} for e in result.exceptions
        ],
    }


class Search:
    name = "search"
    why = "certified searches (delta_for, gap_vector, tube_parameters) over three irrationals: the integer search kernel and bracket caching show here"
    # The top operation runs three times per pass: a run holds three to four
    # passes, and a median of four samples moved by 10 % from run to run.
    top_ops = ("gap_vector[sqrt2,k=500]", "gap_vector[sqrt2,k=500]#2", "gap_vector[sqrt2,k=500]#3")
    lambdas = LAMBDAS

    def setup(self, ctx: Context, rng: random.Random, workdir: Path) -> list:
        prog, lat, ex = ctx.prog, ctx.lattice, ctx.exceptional
        ops = []
        for label, r in R_VALUES.items():
            qi = prog.quadirr.QuadIrrational(*r)
            for eps in (Fraction(1, 10), Fraction(1, 100)):
                ops.append(
                    Op(
                        f"delta_for[{label},eps={eps}]",
                        lambda qi=qi, eps=eps: prog.search.delta_for(lat, ex, qi, eps),
                        lambda out, _, r=r, eps=eps: O.check_delta(r, eps, _delta_doc(out), a_max=40),
                    )
                )
            for k in (50, 200, 500):
                name = f"gap_vector[{label},k={k}]"
                for op_name in self.top_ops if name == self.top_ops[0] else (name,):
                    ops.append(
                        Op(
                            op_name,
                            lambda qi=qi, k=k: prog.serialize.dumps_canonical(
                                prog.search.gap_certificate_to_json(prog.search.gap_vector(lat, qi, EPS, k))
                            ),
                            lambda out, _, r=r, k=k: O.check_gap_certificate(json.loads(out), r, EPS, k),
                        )
                    )
            for d in (1, 10, 50):
                ops.append(
                    Op(
                        f"tube_parameters[{label},d={d}]",
                        lambda qi=qi, d=d: prog.search.tube_parameters(lat, ex, qi, EPS, d),
                        lambda out, _, r=r, d=d: O.check_tube_params(prog.search.tube_params_to_json(out), r, EPS, d),
                    )
                )
        return ops


# ---------------------------------------------------------------------------
# certify: re-checking stored certificates through the CLI, in process
# ---------------------------------------------------------------------------


def _write_json(path: Path, doc) -> Path:
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return path


def _cli_in_process(prog, argv):
    out = io.StringIO()
    code = prog.cli.run(argv, stdout=out)
    return code, out.getvalue()


def _expect_valid(valid: bool):
    def check(out, _):
        code, text = out
        doc = json.loads(text)
        if valid and (code != 0 or doc.get("valid") is not True or doc.get("failures") != []):
            return [f"a correct certificate was not accepted: exit {code}, {text[:200]!r}"]
        if not valid and (code == 0 or doc.get("valid") is not False or not doc.get("failures")):
            return [f"a tampered certificate was not rejected: exit {code}, {text[:200]!r}"]
        return []

    return check


def _expect_spec_format(out, _):
    code, text = out
    if code != 0 and json.loads(text).get("error") == "spec-format":
        return []
    return [f"expected a spec-format error, got exit {code}: {text[:200]!r}"]


class Certify:
    name = "certify"
    why = "tubelat certify on stored gap-vector and tube-params documents up to 30k witnesses, plus tampered copies: reading and checking certificates"
    # The top operation runs twice per pass, with the seed's lambda and with
    # the default lambda = 2, for twice the samples of its median.
    top_ops = ("certify[gap-1200]", "certify[gap-1200,lambda=2]")
    lambdas = LAMBDAS

    # (name, r, k) of the gap-vector documents, named by their budgets
    GAP = (("gap-1200", "sqrt7/2", 850), ("gap-588", "sqrt2", 250), ("gap-312", "golden", 150))
    # (name, r, d) of the tube-params documents
    TUBE = (("tube-d10", "sqrt2", 10), ("tube-d100", "sqrt7/2", 100))

    def setup(self, ctx: Context, rng: random.Random, workdir: Path) -> list:
        prog = ctx.prog
        ops = []

        def certify_op(name, path, check, fault=False, lam=(f"--lambda={ctx.lam}",)):
            argv = [*lam, "certify", str(path)]
            return Op(name, lambda: _cli_in_process(prog, argv), check, fault)

        for name, label, k in self.GAP:
            doc = O.gap_certificate_doc(R_VALUES[label], EPS, k)
            path = _write_json(workdir / f"{name}.json", doc)
            ops.append(certify_op(f"certify[{name}]", path, _expect_valid(True)))
            if f"certify[{name}]" in self.top_ops:
                ops.append(certify_op(f"certify[{name},lambda=2]", path, _expect_valid(True), lam=()))
            witnesses = doc["witnesses"]
            i = rng.randrange(1, len(witnesses))
            if name == "gap-1200":
                w = witnesses[i]
                w["slope"] = O.slope_text(w["b"] + 1, max(w["a"], 1))
            elif name == "gap-588":
                del witnesses[i]
            else:
                witnesses[i]["mu"] += 1
            ops.append(certify_op(f"certify[{name}-tampered]", _write_json(workdir / f"{name}-t.json", doc), _expect_valid(False)))
            del doc, witnesses
        for name, label, d in self.TUBE:
            doc = O.tube_params_doc(R_VALUES[label], EPS, d)
            ops.append(certify_op(f"certify[{name}]", _write_json(workdir / f"{name}.json", doc), _expect_valid(True)))
            if name == "tube-d10":
                doc["lower_bound"] = O.frac_text(Fraction(doc["lower_bound"]) + 1)
            else:
                w = doc["certificate"]["witnesses"][rng.randrange(len(doc["certificate"]["witnesses"]))]
                w["mu"] += 1
            ops.append(certify_op(f"certify[{name}-tampered]", _write_json(workdir / f"{name}-t.json", doc), _expect_valid(False)))

        # Two known faults, on inputs that do not depend on the seed.  Both
        # must end in a spec-format error: a witness slope "1/0" raises
        # ZeroDivisionError out of the CLI, and "k": 5.9 is truncated to 5
        # and accepted.
        small = O.gap_certificate_doc(R_VALUES["sqrt2"], EPS, 5)
        zero = json.loads(json.dumps(small))
        zero["witnesses"][1]["slope"] = "1/0"
        ops.append(certify_op("certify[slope-1/0]", _write_json(workdir / "fault-slope.json", zero), _expect_spec_format, True))
        frac_k = dict(small, k=5.9)
        ops.append(certify_op("certify[k-5.9]", _write_json(workdir / "fault-k.json", frac_k), _expect_spec_format, True))
        return ops


# ---------------------------------------------------------------------------
# modules: Hom, Ext and pp formulas over exact rationals, in process
# ---------------------------------------------------------------------------


def direct_sum(prog, spec, modules):
    out = prog.reps.zero_rep(spec)
    for m in modules:
        out = prog.reps.direct_sum(out, m)
    return out


def quotient_by_p3(prog, spec, basis, copies: int):
    """P6^copies modulo one element at vertex 3 whose submodule is P3, so
    the quotient has projective dimension at most 1."""
    total = direct_sum(prog, spec, [prog.reps.projective(basis, 5)] * copies)
    for shift in range(4):
        # Some coefficient patterns are killed by gamma for special lambda.
        coords = tuple(Fraction((i + shift) % 3 + 1) for i in range(total.dims[2]))
        quot, _ = prog.reps.quotient_by_elements(total, [(2, coords)])
        if total.total_dim - quot.total_dim == sum(O.path_counts(2)):
            return quot
    raise RuntimeError("no generator of a copy of P3 found")


def ladder(prog, spec, basis, n: int):
    """(A_n, B_n): A_n = P6^n + P3 is projective, and B_n = P6^(n+1)/P3 has
    the projective resolution 0 -> P3 -> P6^(n+1) -> B_n -> 0."""
    a = direct_sum(prog, spec, [prog.reps.projective(basis, 5)] * n + [prog.reps.projective(basis, 2)])
    return a, quotient_by_p3(prog, spec, basis, n + 1)


def random_formula(prog, spec, basis, rng: random.Random, free_type: int):
    """A formula with one free variable of the given vertex type, up to two
    bound variables and up to two rows of random path combinations."""
    col_types = [free_type] + [rng.randrange(6) for _ in range(rng.randint(1, 2))]
    row_types = [rng.randrange(6) for _ in range(rng.randint(1, 2))]
    entries = []
    for row in row_types:
        entries.append(
            tuple(
                tuple(
                    (Fraction(rng.choice((-2, -1, 1, 2))), p)
                    for p in basis.paths_between(col, row)
                    if rng.random() < 0.6
                )
                for col in col_types
            )
        )
    return prog.pp.make_formula(spec, 1, col_types, row_types, tuple(entries))


class Modules:
    name = "modules"
    why = "hom_dim, ext_dim and pp formulas on modules of total dimension 7 to 39: exact Fraction row reduction in linalg, no search code"
    top_ops = ("ext_dim[B3,A3]",)
    # Row reduction costs depend on lambda's size, so it stays fixed here.
    lambdas = ("2",)

    def setup(self, ctx: Context, rng: random.Random, workdir: Path) -> list:
        prog, spec, basis = ctx.prog, ctx.spec, ctx.basis
        reps, pp = prog.reps, prog.pp
        proj = [reps.projective(basis, i) for i in range(6)]
        euler = O.bilinear
        ops = []

        def op(name, call, check):
            ops.append(Op(name, call, check))

        built = {}
        for n in (1, 2, 3):
            a, b = ladder(prog, spec, basis, n)
            an, bn = f"A{n}", f"B{n}"
            # Yoneda and additivity: Hom(P6^n + P3, B) = n dim B_6 + dim B_3.
            op(f"hom_dim[{an},{bn}]", lambda a=a, b=b: reps.hom_dim(a, b), equals(n * b.dims[5] + b.dims[2]))
            op(f"ext_dim[{an},{bn}]", lambda a=a, b=b: reps.ext_dim(basis, a, b), equals(0))
            hom, ext = f"hom_dim[{bn},{an}]", f"ext_dim[{bn},{an}]"

            def euler_check(out, outcomes, a=a, b=b, hom=hom, ext=ext):
                got = outcomes.get(hom), outcomes.get(ext)
                want = euler(b.dims, a.dims)
                if not all(isinstance(x, int) for x in got) or got[0] - got[1] != want:
                    return [f"hom - ext = {got} on pd <= 1, Euler form says {want}"]
                return []

            op(hom, lambda a=a, b=b: reps.hom_dim(b, a), euler_check)
            op(ext, lambda a=a, b=b: reps.ext_dim(basis, b, a), euler_check)
            built[an], built[bn] = a, b

        big = direct_sum(prog, spec, [proj[5]] * 4 + [proj[3], proj[4], proj[2]])
        for i in (2, 5):
            op(f"hom_dim[P{i + 1},C]", lambda i=i: reps.hom_dim(proj[i], big), equals(big.dims[i]))
        op("ext_dim[P6,C]", lambda: reps.ext_dim(basis, proj[5], big), equals(0))

        targets = {"P6": proj[5], "B2": built["B2"], "C": big}
        wire = {name: reps.rep_to_json(m) for name, m in targets.items()}
        t = rng.randrange(6)
        phis = [random_formula(prog, spec, basis, rng, t) for _ in range(2)]
        zeta = random_formula(prog, spec, basis, rng, t)

        def space_check(formula, module_name):
            fwire = pp.formula_to_json(formula)

            def check(out, _):
                mwire = wire[module_name]
                want = O.pp_dim(mwire, fwire)
                rows = [list(v) for v in out]
                if len(out) != want or O.rank(rows) != want:
                    return [f"solution space of dimension {len(out)}, want {want}"]
                if not all(O.pp_holds(mwire, fwire, v) for v in out):
                    return ["a basis vector does not satisfy the formula"]
                return []

            return check

        for j, phi in enumerate(phis):
            for mname, m in targets.items():
                op(f"solution_space[phi{j},{mname}]", lambda phi=phi, m=m: pp.solution_space(phi, m), space_check(phi, mname))
        taut, zero = pp.tautology(spec, t), pp.zero_formula(spec, t)
        op("solution_space[tautology,C]", lambda: pp.solution_space(taut, big), lambda out, _: [] if len(out) == big.dims[t] else ["tautology"])
        op("solution_space[zero,C]", lambda: pp.solution_space(zero, big), lambda out, _: [] if out == [] else ["zero formula"])

        pair = pp.PpPair(phi=phis[0], psi=pp.meet(phis[0], zeta))
        fphi, fpsi = pp.formula_to_json(pair.phi), pp.formula_to_json(pair.psi)
        for mname in ("B2", "C"):
            m = targets[mname]
            op(
                f"pair_open_on[{mname}]",
                lambda m=m: pp.pair_open_on(pair, m),
                lambda out, _, mname=mname: []
                if out == (O.pp_dim(wire[mname], fphi) > O.pp_dim(wire[mname], fpsi))
                else ["open/closed verdict disagrees with the dimensions"],
            )

        for j, phi in enumerate(phis + [zeta]):
            fwire = pp.formula_to_json(phi)

            def marked_point_check(out, _, fwire=fwire):
                doc = pp.pointed_to_json(out)
                coords = doc["points"][0]["coords"]
                return [] if O.pp_holds(doc["module"], fwire, coords) else ["marked point does not satisfy the formula"]

            ops.append(
                Op(
                    f"free_realisation[phi{j}]",
                    lambda phi=phi: pp.free_realisation(basis, phi),
                    marked_point_check,
                    key=pp.pointed_to_json,
                )
            )
        return ops


# ---------------------------------------------------------------------------
# cli-cold: every subcommand in a fresh interpreter
# ---------------------------------------------------------------------------


def cold_env(src: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("TUBELAT_OUTPUT_DIR", "PYTHONSTARTUP")}
    env["PYTHONPATH"] = str(src)
    return env


def run_cold(env, argv, cwd):
    """One CLI call in a fresh interpreter, as the console script makes it."""
    proc = subprocess.run(
        [sys.executable, "-c", "from tubelat.cli import main; main()", *argv],
        env=env,
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=120,
    )
    return proc.returncode, proc.stdout


def _cold_check(fn):
    """Wrap a check of the parsed JSON document of a successful call."""

    def check(out, outcomes):
        code, text = out
        if code != 0:
            return [f"exit {code}: {text[:200]!r}"]
        return fn(json.loads(text), outcomes)

    return check


def _doc(outcomes, name):
    out = outcomes.get(name)
    return json.loads(out[1]) if isinstance(out, tuple) else None


class CliCold:
    name = "cli-cold"
    why = "each of the 15 subcommands in a fresh interpreter: start-up, imports and build_c4/validate_spec, which in-process workloads pay only in set-up"
    # A cold start varies by 10 to 25 % from call to call, and a 20-second
    # run holds four passes, so the top operation runs three times per pass:
    # with the seed's lambda, with the default lambda = 2 and with lambda = 3.
    top_ops = ("validate-algebra", "validate-algebra[lambda=2]", "validate-algebra[lambda=3]")
    lambdas = LAMBDAS
    children = True

    def setup(self, ctx: Context, rng: random.Random, workdir: Path) -> list:
        prog, spec, basis = ctx.prog, ctx.spec, ctx.basis
        env = cold_env(ctx.src)
        lam = [f"--lambda={ctx.lam}"]
        ops = []

        def op(name, argv, check, lam=lam):
            ops.append(Op(name, lambda: run_cold(env, lam + argv, workdir), _cold_check(check)))

        def vec():
            return [rng.randint(-3, 3) for _ in range(6)]

        names = ("path-basis", "euler-routes", "radical-basis", "printed-radical-vectors", "quadratic-form-match", "slope-formula-match")

        def all_passed(doc, _):
            return [] if doc["ok"] and [c["name"] for c in doc["checks"] if c["passed"]] == list(names) else [f"{doc}"]

        op("validate-algebra", ["validate-algebra"], all_passed)
        x, y = vec(), vec()
        op("euler", ["euler", "--x", json.dumps(x), "--y", json.dumps(y)], equals(O.bilinear(x, y)))
        v = vec()
        while O.printed_slope(v) is None:
            v = vec()
        op("slope", ["slope", "--vec", json.dumps(v)], equals(O.slope_text(*O.printed_slope(v))))
        omega = O.exceptional_set()
        op("omega", ["omega"], lambda doc, _: [] if [tuple(e) for e in doc["elements"]] == omega and doc["count"] == 24 else ["omega"])
        a, b, e = rng.randint(-3, 3), rng.randint(-3, 3), rng.choice(omega)
        unit = [a * p + b * q + w for p, q, w in zip(O.H0, O.HINF, e)]
        op("decompose", ["decompose", "--vec", json.dumps(unit)], equals({"kind": "unit", "a": a, "b": b, "y": list(e)}))
        sqrt2 = R_VALUES["sqrt2"]
        op("gap-search", ["gap-search", "--r", "sqrt:2", "--eps", "1/10", "--k", "50"], lambda doc, _: O.check_gap_certificate(doc, sqrt2, EPS, 50))
        op("delta", ["delta", "--r", "sqrt:2", "--eps", "1/10"], lambda doc, _: O.check_delta(sqrt2, EPS, doc, a_max=20))
        op("p-bound", ["p-bound"], equals({"p": O.p_bound()}))
        op("tube-params", ["tube-params", "--r", "sqrt:2", "--eps", "1/10", "--d", "1"], lambda doc, _: O.check_tube_params(doc, sqrt2, EPS, 1))

        reps, pp = prog.reps, prog.pp
        proj = [reps.projective(basis, i) for i in range(6)]
        q = quotient_by_p3(prog, spec, basis, 1)
        n = direct_sum(prog, spec, [proj[rng.randrange(2, 6)], proj[rng.randrange(2, 6)]])
        n_wire = reps.rep_to_json(n)
        files = {"Q": _write_json(workdir / "q.json", reps.rep_to_json(q)), "N": _write_json(workdir / "n.json", n_wire)}

        def hom_minus_ext(doc, outcomes):
            hom, ext = _doc(outcomes, "hom"), _doc(outcomes, "ext")
            want = O.bilinear(q.dims, n.dims)
            if not isinstance(hom, int) or not isinstance(ext, int) or hom - ext != want:
                return [f"hom {hom} - ext {ext} on pd <= 1, Euler form says {want}"]
            return []

        op("hom", ["hom", str(files["Q"]), str(files["N"])], hom_minus_ext)
        op("ext", ["ext", str(files["Q"]), str(files["N"])], hom_minus_ext)

        t = rng.randrange(6)
        phi = random_formula(prog, spec, basis, rng, t)
        psi = pp.meet(phi, random_formula(prog, spec, basis, rng, t))
        fphi, fpsi = pp.formula_to_json(phi), pp.formula_to_json(psi)
        files["phi"] = _write_json(workdir / "phi.json", fphi)
        files["psi"] = _write_json(workdir / "psi.json", fpsi)

        def pp_eval_check(doc, _):
            vectors = [[Fraction(x) for x in vec] for vec in doc["basis"]]
            want = O.pp_dim(n_wire, fphi)
            if doc["dim"] != want or len(vectors) != want or O.rank(vectors) != want:
                return [f"pp-eval dimension {doc['dim']}, want {want}"]
            return [] if all(O.pp_holds(n_wire, fphi, v) for v in vectors) else ["pp-eval basis vector outside phi(M)"]

        op("pp-eval", ["pp-eval", str(files["phi"]), str(files["N"])], pp_eval_check)
        op(
            "pp-free",
            ["pp-free", str(files["phi"])],
            lambda doc, _: [] if O.pp_holds(doc["module"], fphi, doc["points"][0]["coords"]) else ["marked point outside phi"],
        )
        def pp_pair_check(doc, _):
            dphi, dpsi = O.pp_dim(n_wire, fphi), O.pp_dim(n_wire, fpsi)
            return equals({"open": dphi > dpsi, "dim_phi": dphi, "dim_psi": dpsi})(doc, _)

        op("pp-pair", ["pp-pair", str(files["phi"]), str(files["psi"]), str(files["N"])], pp_pair_check)
        cert = _write_json(workdir / "cert.json", O.gap_certificate_doc(sqrt2, EPS, 20))
        op("certify", ["certify", str(cert)], equals({"kind": "gap-vector", "valid": True, "failures": []}))
        op("validate-algebra[lambda=2]", ["validate-algebra"], all_passed, lam=[])
        op("validate-algebra[lambda=3]", ["validate-algebra"], all_passed, lam=["--lambda=3"])
        return ops


WORKLOADS = {w.name: w for w in (Search(), Certify(), Modules(), CliCold())}
