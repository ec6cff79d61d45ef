"""Command-line interface.

Every subcommand maps to exactly one library operation, reads exact-rational
literals ("p/q", "sqrt:d", "(p+q*sqrt(d))/s"), and prints one deterministic
JSON document to stdout.  Domain failures print a machine-readable error
object and exit nonzero.  Setting TUBELAT_OUTPUT_DIR additionally writes a
copy of the output to <dir>/<subcommand>.json.  Only ``algebra``, ``errors``
and ``serialize`` load with this module; each handler imports what it runs,
so the lattice and the exceptional set load on first use, the searches
(``search``, ``quadirr``) with the subcommands that search or certify, and the
module layer (``reps``, ``pp``) with those that read a module or a formula.
``certify`` reads its file as text: a canonical document is read by writing
it again (``certificate_from_canonical_text``), and any other by
``json.loads``, row by row.  Each subcommand is declared once, by ``_command``
on its handler, with its arguments; the parser and the dispatch read that
one table.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from contextlib import suppress
from functools import cached_property

from . import __version__
from .algebra import build_c4, derive_path_basis, spec_from_json, spec_report
from .errors import BudgetExhaustedError, PreconditionError, SpecFormatError, TubelatError
from .serialize import dumps_canonical, frac_to_str, parse_frac, parse_int_vector


def _read_text(path) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _parse_json(text):
    """The JSON document in ``text``; nesting too deep to decode, or an
    integer literal longer than the interpreter converts, is malformed."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        raise
    except RecursionError as exc:
        raise json.JSONDecodeError("nesting too deep", "", 0) from exc
    except ValueError as exc:  # the int-to-str digit limit
        raise json.JSONDecodeError("integer literal too long", "", 0) from exc


class _Context:
    """Lazily built algebra data shared by the subcommands."""

    def __init__(self, args):
        self.args = args

    @cached_property
    def spec(self):
        if self.args.algebra:
            return spec_from_json(_parse_json(_read_text(self.args.algebra)))
        return build_c4(parse_frac(self.args.lam))

    @cached_property
    def basis(self):
        return derive_path_basis(self.spec)

    @cached_property
    def lattice(self):
        from .lattice import K0Lattice
        return K0Lattice.for_spec(self.spec)

    @cached_property
    def exceptional(self):
        from .exceptional import enumerate_exceptional
        return enumerate_exceptional(self.lattice)

    def vector(self, text):
        named = {"h0": lambda: self.lattice.h0, "hinf": lambda: self.lattice.hinf}
        if text in named:
            return named[text]()
        return parse_int_vector(text, self.spec.vertex_count)

    def load_rep(self, path):
        from .reps import rep_from_json
        return rep_from_json(self.spec, _parse_json(_read_text(path)))

    def load_formula(self, path):
        from .pp import formula_from_json
        return formula_from_json(self.spec, _parse_json(_read_text(path)))


_COMMANDS: dict = {}  # name -> (handler, arguments), in the order of --help


def _arg(*names, **options):
    """One argument of a subcommand, as ``add_argument`` takes it."""
    return names, options


def _command(name: str, *arguments):
    """Declare the subcommand ``name``: the decorated handler and its
    ``_arg`` arguments, which the parser and the dispatch both read."""

    def register(handler):
        _COMMANDS[name] = handler, arguments
        return handler

    return register


_WINDOW = (_arg("--r", required=True), _arg("--eps", required=True))


def _window(ctx: _Context):
    """The irrational r and the window eps of the slope searches."""
    from .quadirr import parse_quad_irrational
    return parse_quad_irrational(ctx.args.r), parse_frac(ctx.args.eps)


@_command("validate-algebra")
def _cmd_validate_algebra(ctx: _Context) -> tuple[object, int]:
    report = spec_report(ctx.spec)
    doc = {
        "ok": report.ok,
        "checks": [
            {"name": c.name, "passed": c.passed, "detail": c.detail}
            for c in report.checks
        ],
    }
    return doc, 0 if report.ok else 1


@_command("euler", _arg("--x", required=True, help='vector: "h0", "hinf" or "[...]"'),
          _arg("--y", required=True))
def _cmd_euler(ctx: _Context) -> tuple[object, int]:
    x = ctx.vector(ctx.args.x)
    y = ctx.vector(ctx.args.y)
    return ctx.lattice.bilinear(x, y), 0


@_command("slope", _arg("--vec", default=None),
          _arg("rep", nargs="?", default=None, help="representation JSON file"))
def _cmd_slope(ctx: _Context) -> tuple[object, int]:
    if ctx.args.vec is not None:
        value = ctx.lattice.slope(ctx.vector(ctx.args.vec))
    elif ctx.args.rep is not None:
        from .reps import module_slope
        value = module_slope(ctx.lattice, ctx.load_rep(ctx.args.rep))
    else:
        raise SpecFormatError("slope needs --vec or a representation file")
    return str(value), 0


@_command("omega")
def _cmd_omega(ctx: _Context) -> tuple[object, int]:
    ex = ctx.exceptional
    return {
        "bound": ex.bound,
        "count": len(ex),
        "elements": [list(x) for x in ex],
    }, 0


@_command("decompose", _arg("--vec", required=True))
def _cmd_decompose(ctx: _Context) -> tuple[object, int]:
    x = ctx.vector(ctx.args.vec)
    chi = ctx.lattice.quadratic(x)
    if chi == 0:
        a, b = ctx.lattice.radical_decompose(x)
        return {"kind": "radical", "a": a, "b": b}, 0
    if chi == 1:
        from .exceptional import unit_decompose
        a, b, y = unit_decompose(ctx.lattice, x, ctx.exceptional)
        return {"kind": "unit", "a": a, "b": b, "y": list(y)}, 0
    raise PreconditionError(f"chi({tuple(x)}) = {chi}; need 0 or 1 to decompose")


def _int(text: str) -> int:
    """An integer option value, read by ``parse_frac`` with no "/"; any other
    text is the usage error that ``type=int`` gives."""
    if "/" not in text:
        with suppress(SpecFormatError):
            return int(parse_frac(text))
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


@_command("gap-search", *_WINDOW, _arg("--k", required=True, type=_int))
def _cmd_gap_search(ctx: _Context) -> tuple[object, int]:
    from .search import gap_certificate_to_json, gap_vector
    cert = gap_vector(ctx.lattice, *_window(ctx), ctx.args.k)
    return gap_certificate_to_json(cert), 0


@_command("delta", *_WINDOW)
def _cmd_delta(ctx: _Context) -> tuple[object, int]:
    from .search import delta_for
    result = delta_for(ctx.lattice, ctx.exceptional, *_window(ctx))
    return {
        "delta": frac_to_str(result.delta),
        "eps_prime": frac_to_str(result.eps_prime),
        "exceptions": result.exceptions,  # written by blocks from the packed view
    }, 0


@_command("p-bound")
def _cmd_p_bound(ctx: _Context) -> tuple[object, int]:
    from .search import p_bound
    return {"p": p_bound(ctx.lattice, ctx.exceptional)}, 0


@_command("tube-params", *_WINDOW, _arg("--d", required=True, type=_int))
def _cmd_tube_params(ctx: _Context) -> tuple[object, int]:
    from .search import tube_parameters, tube_params_to_json
    tp = tube_parameters(ctx.lattice, ctx.exceptional, *_window(ctx), ctx.args.d)
    return tube_params_to_json(tp), 0


@_command("hom", _arg("m"), _arg("n"))
def _cmd_hom(ctx: _Context) -> tuple[object, int]:
    from .reps import hom_dim
    return hom_dim(ctx.load_rep(ctx.args.m), ctx.load_rep(ctx.args.n)), 0


@_command("ext", _arg("m"), _arg("n"))
def _cmd_ext(ctx: _Context) -> tuple[object, int]:
    from .reps import ext_dim
    return ext_dim(ctx.basis, ctx.load_rep(ctx.args.m), ctx.load_rep(ctx.args.n)), 0


@_command("pp-eval", _arg("phi"), _arg("m"))
def _cmd_pp_eval(ctx: _Context) -> tuple[object, int]:
    from .pp import solution_space
    phi = ctx.load_formula(ctx.args.phi)
    m = ctx.load_rep(ctx.args.m)
    basis_vectors = solution_space(phi, m)
    return {
        "dim": len(basis_vectors),
        "basis": [[frac_to_str(x) for x in vec] for vec in basis_vectors],
    }, 0


@_command("pp-free", _arg("phi"))
def _cmd_pp_free(ctx: _Context) -> tuple[object, int]:
    from .pp import free_realisation, pointed_to_json
    phi = ctx.load_formula(ctx.args.phi)
    return pointed_to_json(free_realisation(ctx.basis, phi)), 0


@_command("pp-pair", _arg("phi"), _arg("psi"), _arg("m"))
def _cmd_pp_pair(ctx: _Context) -> tuple[object, int]:
    from .pp import PpPair, pair_open_on, solution_space
    phi = ctx.load_formula(ctx.args.phi)
    psi = ctx.load_formula(ctx.args.psi)
    m = ctx.load_rep(ctx.args.m)
    is_open = pair_open_on(PpPair(phi, psi), m)
    return {
        "open": is_open,
        "dim_phi": len(solution_space(phi, m)),
        "dim_psi": len(solution_space(psi, m)),
    }, 0


@_command("certify", _arg("certificate"))
def _cmd_certify(ctx: _Context) -> tuple[object, int]:
    from .search import (
        GapCertificate,
        certificate_from_canonical_text,
        certificate_from_json,
        validate_gap_certificate,
        validate_tube_params,
    )
    text = _read_text(ctx.args.certificate)
    value, stored = certificate_from_canonical_text(text), []
    if value is None:  # not canonical: read by json.loads, row by row
        value, stored = certificate_from_json(_parse_json(text))
    if isinstance(value, GapCertificate):
        failures = validate_gap_certificate(ctx.lattice, value)
    else:
        failures = validate_tube_params(ctx.lattice, ctx.exceptional, value)
    failures += stored  # the stored slopes, which only a json.loads read can get wrong
    doc = {"kind": value.kind, "valid": not failures, "failures": failures}
    return doc, 0 if not failures else 1


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ``SpecFormatError``, so that they end in the one
    error document; subparsers are made of the same class.  A negative p/q
    is a value, as argparse already takes -3 and -.5 to be; this extends the
    private ``_negative_number_matcher``, which no public API sets."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        pattern = self._negative_number_matcher.pattern + r"|^-[0-9]+/[0-9]+$"
        self._negative_number_matcher = re.compile(pattern)

    def error(self, message):
        raise SpecFormatError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tubelat",
        description="Exact lattice arithmetic and certified slope searches "
        "for the tubular algebra C(4,lambda).",
    )
    parser.add_argument(
        "--lambda",
        dest="lam",
        default="2",
        help="parameter for the built-in algebra (exact rational, not 0 or 1)",
    )
    parser.add_argument(
        "--algebra",
        default=None,
        help="JSON file with a user algebra spec (overrides --lambda)",
    )
    parser.add_argument(
        "--version", action="store_true", help='print {"version": ...} and exit'
    )
    sub = parser.add_subparsers(dest="command")
    for name, (_, arguments) in _COMMANDS.items():
        p = sub.add_parser(name)
        for names, options in arguments:
            p.add_argument(*names, **options)
    return parser


def _error_doc(exc: Exception) -> dict:
    if isinstance(exc, TubelatError):
        name = exc.name
    else:
        name = "io" if isinstance(exc, OSError) else "malformed-json"
    return {"error": name, "message": str(exc)}


def _save_copy(command: str, text: str) -> None:
    out_dir = os.environ.get("TUBELAT_OUTPUT_DIR")
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, f"{command}.json"), "w", encoding="utf-8") as fh:
            fh.write(text)


def _answer(args) -> tuple[str, int]:
    try:
        doc, code = _COMMANDS[args.command][0](_Context(args))
    except (TubelatError, OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        doc, code = _error_doc(exc), 1
    return dumps_canonical(doc), code


def run(argv=None, stdout=None) -> int:
    stdout = stdout or sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None and not args.version:
            parser.error("the following arguments are required: command")
    except SpecFormatError as exc:
        stdout.write(dumps_canonical(_error_doc(exc)))
        return 1
    if args.version:
        stdout.write(dumps_canonical({"version": __version__}))
        return 0
    try:
        text, code = _answer(args)
    except MemoryError:
        # no search has a work bound yet, so running out of memory, while
        # computing the answer or encoding it, is how an oversized one ends;
        # it still ends in one document
        exc = BudgetExhaustedError(f"out of memory in {args.command}")
        text, code = dumps_canonical(_error_doc(exc)), 1
    # the copy is written first, so that a failure to write it is the one
    # document on stdout
    try:
        _save_copy(args.command, text)
    except OSError as exc:
        text, code = dumps_canonical(_error_doc(exc)), 1
    stdout.write(text)
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
