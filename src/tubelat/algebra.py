"""Finite-dimensional path algebras with relations, as explicit data.

The built-in algebra is the six-vertex tubular algebra C(4,lambda): two
parallel length-2 paths a11.a12 and a21.a22 out of a unique source vertex,
composed with two further arrows beta, gamma, subject to

    beta  . (a11.a12 - a21.a22)          = 0
    gamma . (a11.a12 - lambda * a21.a22) = 0

(paths written in traversal order, first arrow first).  The quiver figure is
reconstructed from the standard presentation of this family and is pinned
down operationally: ``validate_spec`` checks the derived Euler form against
the printed quadratic form, radical vectors and slope formula, so a wrong
reconstruction cannot validate.

Vertices are 0-based internally and 1-based in the JSON wire format.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import (
    ConsistencyError,
    InfiniteDimensionError,
    NonConfluentRewriteError,
    ParameterDomainError,
    SpecFormatError,
    ValidationError,
)
from .serialize import frac_to_str, label, parse_frac, parse_int, read
from .value import Value

Path = tuple[str, ...]  # arrow labels in traversal order (first arrow first)
RelTerm = tuple[Fraction, Path]
Relation = tuple[RelTerm, ...]

C4_NAME = "C(4,lambda)"


class Arrow(Value):
    __slots__ = ("label", "src", "tgt")


class AlgebraSpec(Value):
    """A path algebra with relations: a name, the vertex count, a tuple of
    ``Arrow``s, a tuple of ``Relation``s and the parameter lambda."""

    __slots__ = ("name", "vertex_count", "arrows", "relations", "lam")

    def arrow_map(self) -> dict[str, Arrow]:
        return {a.label: a for a in self.arrows}

    def path_endpoints(self, path: Path, src_hint: int | None = None) -> tuple[int, int]:
        """(source, target) of a label sequence; empty paths need the hint."""
        if not path:
            if src_hint is None:
                raise SpecFormatError("trivial path needs an explicit vertex")
            return src_hint, src_hint
        amap = self.arrow_map()
        try:
            first = amap[path[0]]
        except KeyError as exc:
            raise SpecFormatError(f"unknown arrow label {path[0]!r}") from exc
        cur = first.src
        at = cur
        for label in path:
            arrow = amap.get(label)
            if arrow is None:
                raise SpecFormatError(f"unknown arrow label {label!r}")
            if arrow.src != at:
                raise SpecFormatError(f"path {'.'.join(path)} breaks at {label!r}")
            at = arrow.tgt
        return cur, at


def check_spec(spec: AlgebraSpec) -> None:
    if spec.vertex_count <= 0:
        raise SpecFormatError("vertex count must be positive")
    if spec.lam in (0, 1):
        raise ParameterDomainError("lambda must avoid 0 and 1")
    labels = [a.label for a in spec.arrows]
    if len(set(labels)) != len(labels):
        raise SpecFormatError("arrow labels must be unique")
    for a in spec.arrows:
        if not (0 <= a.src < spec.vertex_count and 0 <= a.tgt < spec.vertex_count):
            raise SpecFormatError(f"arrow {a.label!r} has an out-of-range endpoint")
    for rel in spec.relations:
        if not rel:
            raise SpecFormatError("empty relation")
        ends = None
        for coeff, path in rel:
            if not path:
                raise SpecFormatError("relations may not involve trivial paths")
            e = spec.path_endpoints(path)
            if ends is None:
                ends = e
            elif e != ends:
                raise SpecFormatError(
                    "relation mixes paths with different endpoints: "
                    f"{'.'.join(path)}"
                )


def build_c4(lam: Fraction | int | str) -> AlgebraSpec:
    """The six-vertex algebra C(4,lambda); rejects lambda in {0, 1}.

    The returned spec has already passed ``validate_spec``.
    """
    return _build_c4_cached(parse_frac(lam))


@lru_cache(maxsize=None)
def _build_c4_cached(lam: Fraction) -> AlgebraSpec:
    if lam in (0, 1):
        raise ParameterDomainError(f"lambda must avoid 0 and 1, got {lam}")
    one = Fraction(1)
    arrows = (
        Arrow("a11", 5, 3),
        Arrow("a12", 3, 2),
        Arrow("a21", 5, 4),
        Arrow("a22", 4, 2),
        Arrow("beta", 2, 0),
        Arrow("gamma", 2, 1),
    )
    relations = (
        ((one, ("a11", "a12", "beta")), (-one, ("a21", "a22", "beta"))),
        ((one, ("a11", "a12", "gamma")), (-lam, ("a21", "a22", "gamma"))),
    )
    spec = AlgebraSpec(C4_NAME, 6, arrows, relations, lam)
    check_spec(spec)
    report = spec_report(spec)
    if not report.ok:
        raise ValidationError([c.name for c in report.checks if not c.passed])
    return spec


# ---------------------------------------------------------------------------
# Rewriting and the normal-form path basis
# ---------------------------------------------------------------------------


def _monomial_key(labels: Path, rank: dict[str, int]):
    # Degree-lex; ties broken so that earlier-declared arrows sort HIGHER.
    # This orients the built-in relations to rewrite the a11.a12 branch into
    # the a21.a22 branch, which terminates and has no overlaps here.
    return (len(labels), tuple(-rank[l] for l in labels))


class PathBasis(Value, compare=("spec", "total_dimension")):
    """Normal-form path monomials of the algebra plus its rewriting system:
    ``by_pair`` maps (src, tgt) to its paths and ``rules`` holds the oriented
    relations (path, terms).  Both follow from ``spec``, so neither is
    compared or hashed."""

    __slots__ = ("spec", "by_pair", "rules", "total_dimension")

    def __init__(self, spec, by_pair, rules, total_dimension=0):
        super().__init__(spec, by_pair, rules, total_dimension)

    def paths_between(self, src: int, tgt: int) -> tuple[Path, ...]:
        return self.by_pair.get((src, tgt), ())

    def paths_from(self, src: int) -> list[tuple[int, Path]]:
        out = []
        for tgt in range(self.spec.vertex_count):
            out.extend((tgt, p) for p in self.paths_between(src, tgt))
        return out

    def reduce(self, labels: Path, coeff: Fraction = Fraction(1)) -> dict[Path, Fraction]:
        """Full normal form of ``coeff * labels`` as a {path: coefficient} map."""
        return _normal_form(self.rules, [(labels, coeff)])


def _leftmost_redex(word: Path, rules) -> tuple[int, Path, tuple[RelTerm, ...]] | None:
    for pos in range(len(word)):
        for lead, rhs in rules:
            if word[pos : pos + len(lead)] == lead:
                return pos, lead, rhs
    return None


def _normal_form(rules, items) -> dict[Path, Fraction]:
    """Rewrite a {word: coeff} combination to its normal form; terminates
    because every replacement monomial is strictly smaller in degree-lex."""
    work = list(items)
    out: dict[Path, Fraction] = {}
    while work:
        word, c = work.pop()
        hit = _leftmost_redex(word, rules)
        if hit is None:
            out[word] = out.get(word, Fraction(0)) + c
            continue
        pos, lead, rhs = hit
        for rc, rw in rhs:
            work.append((word[:pos] + rw + word[pos + len(lead):], c * rc))
    return {w: c for w, c in out.items() if c != 0}


def _orient_relations(spec: AlgebraSpec) -> tuple[tuple[Path, tuple[RelTerm, ...]], ...]:
    rank = {a.label: i for i, a in enumerate(spec.arrows)}
    rules = []
    for rel in spec.relations:
        combined: dict[Path, Fraction] = {}
        for coeff, path in rel:
            combined[path] = combined.get(path, Fraction(0)) + coeff
        combined = {p: c for p, c in combined.items() if c != 0}
        if not combined:
            continue
        lead = max(combined, key=lambda p: _monomial_key(p, rank))
        lead_c = combined.pop(lead)
        rhs = tuple(
            (-c / lead_c, p)
            for p, c in sorted(combined.items(), key=lambda kv: _monomial_key(kv[0], rank))
        )
        rules.append((lead, rhs))
    return tuple(sorted(rules, key=lambda r: (len(r[0]), r[0])))


def _check_confluence(spec: AlgebraSpec, rules) -> None:
    """Exhaustive overlap/inclusion test on the oriented rules (diamond lemma)."""

    def apply_at(word: Path, pos: int, lead: Path, rhs) -> list[tuple[Path, Fraction]]:
        return [(word[:pos] + rw + word[pos + len(lead):], rc) for rc, rw in rhs]

    for lead1, rhs1 in rules:
        for lead2, rhs2 in rules:
            # inclusion ambiguities: lead2 strictly inside lead1
            if lead1 != lead2:
                for pos in range(len(lead1) - len(lead2) + 1):
                    if lead1[pos : pos + len(lead2)] == lead2:
                        word = lead1
                        left = _normal_form(rules, apply_at(word, 0, lead1, rhs1))
                        right = _normal_form(rules, apply_at(word, pos, lead2, rhs2))
                        if left != right:
                            raise NonConfluentRewriteError(word, left, right)
            # overlap ambiguities: proper suffix of lead1 = proper prefix of lead2
            for k in range(1, min(len(lead1), len(lead2))):
                if lead1[-k:] == lead2[:k]:
                    word = lead1 + lead2[k:]
                    left = _normal_form(rules, apply_at(word, 0, lead1, rhs1))
                    right = _normal_form(rules, apply_at(word, len(lead1) - k, lead2, rhs2))
                    if left != right:
                        raise NonConfluentRewriteError(word, left, right)


def derive_path_basis(spec: AlgebraSpec) -> PathBasis:
    """Enumerate normal-form path monomials under the oriented relations.

    Words avoiding every leading monomial as a subword form a regular
    language; if such a word survives past the automaton-state bound the
    language is infinite and the algebra is reported as infinite-dimensional.
    """
    check_spec(spec)
    rules = _orient_relations(spec)
    _check_confluence(spec, rules)
    leads = [lead for lead, _ in rules]
    state_bound = spec.vertex_count * (1 + sum(len(l) for l in leads))
    arrows_out: dict[int, list[Arrow]] = {v: [] for v in range(spec.vertex_count)}
    for a in spec.arrows:
        arrows_out[a.src].append(a)

    by_pair: dict[tuple[int, int], list[Path]] = {}
    for src in range(spec.vertex_count):
        frontier: list[tuple[int, Path]] = [(src, ())]
        by_pair.setdefault((src, src), []).append(())
        length = 0
        while frontier:
            length += 1
            if length > state_bound:
                raise InfiniteDimensionError(
                    f"normal-form paths from vertex {src} exceed length "
                    f"{state_bound}; the algebra is infinite-dimensional"
                )
            nxt: list[tuple[int, Path]] = []
            for at, word in frontier:
                for arrow in arrows_out[at]:
                    new = word + (arrow.label,)
                    if any(
                        len(lead) <= len(new) and new[-len(lead):] == lead
                        for lead in leads
                    ):
                        continue
                    nxt.append((arrow.tgt, new))
                    by_pair.setdefault((src, arrow.tgt), []).append(new)
            frontier = nxt

    rank = {a.label: i for i, a in enumerate(spec.arrows)}
    ordered = {
        pair: tuple(sorted(paths, key=lambda p: (len(p), tuple(rank[l] for l in p))))
        for pair, paths in by_pair.items()
    }
    total = sum(len(v) for v in ordered.values())
    return PathBasis(spec, ordered, rules, total)


# ---------------------------------------------------------------------------
# Cartan matrix and the Euler bilinear form
# ---------------------------------------------------------------------------


class EulerData(Value):
    """Cartan matrix (entry (i,j) = #normal-form paths j -> i) and the integer
    matrix E of the bilinear form <x, y> = x^T E y, as tuples of int rows."""

    __slots__ = ("cartan", "euler")

    def bilinear(self, x, y) -> int:
        n = len(self.euler)
        if len(x) != n or len(y) != n:
            raise SpecFormatError(f"vectors must have length {n}")
        total = 0
        for i, row in enumerate(self.euler):
            xi = x[i]
            if xi:
                total += xi * sum(row[j] * y[j] for j in range(n))
        return total

    def quadratic(self, x) -> int:
        return self.bilinear(x, x)


def euler_data(spec: AlgebraSpec, basis: PathBasis) -> EulerData:
    """Compute E two independent ways and require that they agree: (a) as
    the inverse transpose of the Cartan matrix C, counted from the path
    basis, (b) by the global-dimension-2 alternating count over vertices,
    arrows and relations.  E from (b) is the inverse transpose of C exactly
    when C^T E = I, which is checked as one integer product."""
    n = spec.vertex_count
    cartan = [[len(basis.paths_between(j, i)) for j in range(n)] for i in range(n)]
    unit = [[int(i == j) for j in range(n)] for i in range(n)]
    euler = [row[:] for row in unit]
    for a in spec.arrows:
        euler[a.src][a.tgt] -= 1
    for rel in spec.relations:
        src, tgt = spec.path_endpoints(rel[0][1])
        euler[src][tgt] += 1
    # (C^T E)[i][k] is the sum over j of C[j][i] * E[j][k]
    product = [
        [sum(c[i] * e[k] for c, e in zip(cartan, euler)) for k in range(n)] for i in range(n)
    ]
    if product != unit:
        raise ConsistencyError(
            "Euler matrix routes disagree (Cartan route vs arrow/relation count); "
            "the quiver or relation data is inconsistent"
        )
    return EulerData(
        cartan=tuple(tuple(r) for r in cartan),
        euler=tuple(tuple(r) for r in euler),
    )


# ---------------------------------------------------------------------------
# Printed reference data for the built-in algebra, and validation
# ---------------------------------------------------------------------------

C4_H0 = (1, 1, 2, 1, 1, 0)
C4_HINF = (0, 0, 1, 1, 1, 1)
C4_PAIRING = 2


def c4_reference_quadratic(x) -> Fraction:
    """The printed sum-of-squares form for C(4,lambda) (lambda-independent)."""
    x1, x2, x3, x4, x5, x6 = (Fraction(v) for v in x)
    return (
        Fraction(1, 2) * (x1 - x2) ** 2
        + (x3 - Fraction(1, 2) * (x1 + x2 + x4 + x5)) ** 2
        + Fraction(1, 2) * (x4 - x5) ** 2
        + (x6 + Fraction(1, 2) * (x1 + x2 - x4 - x5)) ** 2
    )


def c4_reference_slope_pair(x) -> tuple[int, int]:
    """Numerator/denominator of the printed slope (x4+x5-x1-x2)/(x3-x6)."""
    return x[3] + x[4] - x[0] - x[1], x[2] - x[5]


class CheckResult(Value):
    __slots__ = ("name", "passed", "detail")

    def __init__(self, name, passed, detail=""):
        super().__init__(name, passed, detail)


class ValidationReport(Value):
    __slots__ = ("ok", "checks")  # checks: a tuple of CheckResult

    def failures(self) -> list[str]:
        return [c.name for c in self.checks if not c.passed]


@lru_cache(maxsize=None)
def spec_report(spec: AlgebraSpec) -> ValidationReport:
    """``validate_spec`` memoised: ``build_c4`` and ``validate-algebra`` share one run."""
    return validate_spec(spec)


def validate_spec(spec: AlgebraSpec) -> ValidationReport:
    """Check the derived data against the printed invariants.

    For the built-in C(4,lambda) this compares the derived radical vectors
    and pairing with the printed ones, and proves that the derived quadratic
    form equals the printed one and that the slope -<h0,x>/<hinf,x> equals
    the printed formula.  Both identities are equalities of quadratic forms
    (the slope one after cross-multiplying), so checking them on the 21
    polarisation vectors e_i and e_i + e_j proves them for every x.  Any
    mismatch is reported under the name of the failing check.
    """
    from .lattice import radical_basis  # local import, avoids a cycle

    checks: list[CheckResult] = []

    def record(name: str, fn) -> bool:
        try:
            detail = fn()
        except Exception as exc:  # noqa: BLE001 - every failure becomes a named check
            checks.append(CheckResult(name, False, f"{type(exc).__name__}: {exc}"))
            return False
        checks.append(CheckResult(name, True, detail or ""))
        return True

    derived: dict = {}

    def _basis():
        derived["basis"] = derive_path_basis(spec)
        return f"total dimension {derived['basis'].total_dimension}"

    def _euler():
        derived["euler"] = euler_data(spec, derived["basis"])
        return "both routes agree"

    def _radical():
        ed = derived["euler"]
        rad = radical_basis(ed)
        if ed.quadratic(rad.h0) != 0 or ed.quadratic(rad.hinf) != 0:
            raise ConsistencyError("radical vectors do not annihilate the form")
        if ed.bilinear(rad.hinf, rad.h0) != -rad.pairing:
            raise ConsistencyError("pairing is not antisymmetric")
        derived["rad"] = rad
        return f"pairing {rad.pairing}"

    ok = record("path-basis", _basis)
    ok = ok and record("euler-routes", _euler)
    ok = ok and record("radical-basis", _radical)

    if ok and spec.name == C4_NAME:
        ed = derived["euler"]
        rad = derived["rad"]

        def _printed_vectors():
            if rad.h0 != C4_H0 or rad.hinf != C4_HINF:
                raise ConsistencyError(f"derived {rad.h0}, {rad.hinf}")
            if rad.pairing != C4_PAIRING:
                raise ConsistencyError(f"pairing {rad.pairing}")
            return ""

        # e_i (i == j) and e_i + e_j (i < j); q(e_i + e_j) - q(e_i) - q(e_j)
        # is the x_i x_j coefficient of a quadratic form q.
        n = spec.vertex_count
        vectors = [
            tuple(int(k in (i, j)) for k in range(n)) for i in range(n) for j in range(i, n)
        ]
        proved = f"identity proved on the {len(vectors)} polarisation vectors"

        def _quadratic_match():
            for x in vectors:
                if ed.quadratic(x) != c4_reference_quadratic(x):
                    raise ConsistencyError(f"mismatch at {x}")
            return proved

        def _slope_match():
            for x in vectors:
                num, den = c4_reference_slope_pair(x)
                if -ed.bilinear(rad.h0, x) * den != num * ed.bilinear(rad.hinf, x):
                    raise ConsistencyError(f"mismatch at {x}")
            return proved

        record("printed-radical-vectors", _printed_vectors)
        record("quadratic-form-match", _quadratic_match)
        record("slope-formula-match", _slope_match)

    return ValidationReport(
        ok=all(c.passed for c in checks), checks=tuple(checks)
    )


# ---------------------------------------------------------------------------
# JSON wire format (vertices 1-based on the wire)
# ---------------------------------------------------------------------------


def _coeff_to_json(c: Fraction, lam: Fraction) -> str:
    if c == lam and lam not in (-1,):
        return "lambda"
    if c == -lam:
        return "-lambda"
    return frac_to_str(c)


def _coeff_from_json(text) -> Fraction | str:
    return text if text in ("lambda", "-lambda") else parse_frac(text)


def spec_to_json(spec: AlgebraSpec) -> dict:
    return {
        "name": spec.name,
        "vertices": spec.vertex_count,
        "arrows": [
            {"label": a.label, "src": a.src + 1, "tgt": a.tgt + 1} for a in spec.arrows
        ],
        "relations": [
            [
                {"coeff": _coeff_to_json(c, spec.lam), "path": list(p)}
                for c, p in rel
            ]
            for rel in spec.relations
        ],
        "lambda": frac_to_str(spec.lam),
    }


_SPEC = {
    "name?": label,
    "vertices": parse_int,
    "arrows": [{"label": label, "src": parse_int, "tgt": parse_int}],
    "relations": [[{"coeff": _coeff_from_json, "path": [label]}]],
    "lambda": parse_frac,
}


def spec_from_json(data: dict) -> AlgebraSpec:
    doc = read(_SPEC, data, "algebra spec")
    lam = doc["lambda"]
    coeff = {"lambda": lam, "-lambda": -lam}
    arrows = tuple(Arrow(a["label"], a["src"] - 1, a["tgt"] - 1) for a in doc["arrows"])
    relations = tuple(
        tuple((coeff.get(t["coeff"], t["coeff"]), t["path"]) for t in rel) for rel in doc["relations"]
    )
    spec = AlgebraSpec(doc.get("name", "user-algebra"), doc["vertices"], arrows, relations, lam)
    check_spec(spec)
    return spec
