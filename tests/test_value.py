"""The value classes: one immutable base, and what each class keeps of it.

Every case below checks equality and hash against a copy built from the
same fields (positionally and by name), inequality after one field
changes and against a look-alike of another class, refused assignment and
deletion, the ``repr`` text, and copy and pickle.  The tests after the
table check what single classes add: comparison by identity, fields left
out of the comparison, defaults and a normalising constructor.
"""

import copy
import pickle
from fractions import Fraction
from unittest import mock

import pytest

from tubelat import search, value
from tubelat.algebra import (
    AlgebraSpec,
    Arrow,
    CheckResult,
    EulerData,
    PathBasis,
    ValidationReport,
    derive_path_basis,
)
from tubelat.errors import ParameterDomainError
from tubelat.exceptional import ExceptionalSet
from tubelat.lattice import K0Lattice, RadicalBasis, Slope
from tubelat.pp import PointedModule, PpPair, tautology, zero_formula
from tubelat.quadirr import QuadIrrational
from tubelat.reps import Presentation, Representation, simple
from tubelat.search import (
    BudgetScan,
    DeltaResult,
    ExceptionRecord,
    ExceptionRows,
    GapCertificate,
    PerturbedSlopeParams,
    QuasisimpleBounds,
    TubeParams,
    delta_for,
    gap_vector,
)


def replaced(val, **changes):
    """``val`` with the named fields changed, built by its constructor."""
    values = tuple(changes.pop(name, getattr(val, name)) for name in val.__slots__)
    return type(val)(*values, **changes)


def fields(val) -> dict:
    return {name: getattr(val, name) for name in val.__slots__}


ARROW = Arrow("x", 0, 1)
SPEC = AlgebraSpec("A2", 2, (ARROW,), (), Fraction(2))
SPEC_R = (
    "AlgebraSpec(name='A2', vertex_count=2, arrows=(Arrow(label='x', src=0, tgt=1),), "
    "relations=(), lam=Fraction(2, 1))"
)
BASIS = derive_path_basis(SPEC)
EULER = EulerData(((1, 0), (1, 1)), ((1, -1), (0, 1)))
CHECK = CheckResult("confluent", True)
SQRT2 = QuadIrrational(0, 1, 2, 1)
SQRT2_R = "QuadIrrational(p=0, q=1, d=2, s=1)"
SIMPLE0, SIMPLE1 = simple(SPEC, 0), simple(SPEC, 1)
TAUT, ZERO = tautology(SPEC, 0), zero_formula(SPEC, 0)
RECORD = ExceptionRecord(1, 2, (0, 1), Fraction(3, 2))
SCAN = BudgetScan(6, 4, 10)
CERT = GapCertificate(SQRT2, Fraction(1, 10), 0, 1, 1, 10, 10, (6, 4), SCAN)
CERT_R = (
    f"GapCertificate(r={SQRT2_R}, epsilon=Fraction(1, 10), k=0, a=1, b=1, mu=10, "
    "budget=10, mu_weights=(6, 4), witnesses=BudgetScan(w0=6, w1=4, budget=10))"
)

# (value, a change of fields that makes it unequal, its repr)
CASES = {
    "Arrow": (ARROW, {"tgt": 0}, "Arrow(label='x', src=0, tgt=1)"),
    "AlgebraSpec": (SPEC, {"lam": Fraction(3)}, SPEC_R),
    "PathBasis": (
        BASIS,
        {"total_dimension": 4},
        f"PathBasis(spec={SPEC_R}, by_pair={{(0, 0): ((),), (0, 1): (('x',),), "
        "(1, 1): ((),)}, rules=(), total_dimension=3)",
    ),
    "EulerData": (
        EULER,
        {"euler": ((1, 0), (0, 1))},
        "EulerData(cartan=((1, 0), (1, 1)), euler=((1, -1), (0, 1)))",
    ),
    "CheckResult": (
        CHECK,
        {"passed": False},
        "CheckResult(name='confluent', passed=True, detail='')",
    ),
    "ValidationReport": (
        ValidationReport(True, (CHECK,)),
        {"ok": False},
        "ValidationReport(ok=True, checks=(CheckResult(name='confluent', passed=True, "
        "detail=''),))",
    ),
    "ExceptionalSet": (
        ExceptionalSet(((0, 1), (1, 0)), 2),
        {"bound": 3},
        "ExceptionalSet(elements=((0, 1), (1, 0)), bound=2)",
    ),
    "Slope": (Slope(1, 2), {"numerator": 3}, "Slope(numerator=1, denominator=2)"),
    "RadicalBasis": (
        RadicalBasis((1, 0), (1, 1), 1),
        {"pairing": 2},
        "RadicalBasis(h0=(1, 0), hinf=(1, 1), pairing=1)",
    ),
    "K0Lattice": (
        K0Lattice(EULER, (1, 0), (1, 1), 1),
        {"h0": (0, 1)},
        "K0Lattice(euler=EulerData(cartan=((1, 0), (1, 1)), euler=((1, -1), (0, 1))), "
        "h0=(1, 0), hinf=(1, 1), pairing=1)",
    ),
    "QuadIrrational": (SQRT2, {"p": 1}, SQRT2_R),
    "Presentation": (
        Presentation(SIMPLE0, SIMPLE1, ((0, 0),)),
        {"generators": ()},
        f"Presentation(cover_source=Representation(spec={SPEC_R}, dims=(1, 0)), "
        f"kernel=Representation(spec={SPEC_R}, dims=(0, 1)), generators=((0, 0),))",
    ),
    "PpFormula": (
        TAUT,
        {"free_count": 0},
        f"PpFormula(spec={SPEC_R}, free_count=1, col_types=(0,), row_types=(), entries=())",
    ),
    "PointedModule": (
        PointedModule(SIMPLE0, ((0, (Fraction(1),)),)),
        {"points": ()},
        f"PointedModule(module=Representation(spec={SPEC_R}, dims=(1, 0)), "
        "points=((0, (Fraction(1, 1),)),))",
    ),
    "PpPair": (
        PpPair(TAUT, ZERO),
        {"psi": TAUT},
        f"PpPair(phi={TAUT!r}, psi={ZERO!r})",
    ),
    "PerturbedSlopeParams": (
        PerturbedSlopeParams(Fraction(1, 2), Fraction(-1, 3), (1, 0)),
        {"y": (0, 1)},
        "PerturbedSlopeParams(gamma1=Fraction(1, 2), gamma2=Fraction(-1, 3), y=(1, 0))",
    ),
    "ExceptionRecord": (
        RECORD,
        {"perturbed": Fraction(5, 2)},
        "ExceptionRecord(a=1, b=2, y=(0, 1), perturbed=Fraction(3, 2))",
    ),
    "ExceptionRows": (
        ExceptionRows(((0, 1), (1, 0)), ((1, 2, 1, 6, 4),)),
        {"rows": ()},
        "ExceptionRows(ys=((0, 1), (1, 0)), rows=((1, 2, 1, 6, 4),))",
    ),
    "DeltaResult": (
        DeltaResult(Fraction(1, 20), Fraction(1, 6), (RECORD,)),
        {"exceptions": ()},
        "DeltaResult(delta=Fraction(1, 20), eps_prime=Fraction(1, 6), exceptions=("
        "ExceptionRecord(a=1, b=2, y=(0, 1), perturbed=Fraction(3, 2)),))",
    ),
    "GapCertificate": (CERT, {"k": 1}, CERT_R),
    "QuasisimpleBounds": (
        QuasisimpleBounds(Fraction(7), None, 2),
        {"center": Fraction(9)},
        "QuasisimpleBounds(lower=Fraction(7, 1), center=None, p=2)",
    ),
    "TubeParams": (
        TubeParams(1, 1, 2, 0, 4, 1, Fraction(25), 4, SQRT2, Fraction(1, 10), CERT),
        {"d": 2},
        "TubeParams(a=1, b=1, rank=2, k_used=0, p=4, d=1, lower_bound=Fraction(25, 1), "
        f"threshold=4, r={SQRT2_R}, epsilon=Fraction(1, 10), certificate={CERT_R})",
    ),
    "BudgetScan": (SCAN, {"budget": 12}, "BudgetScan(w0=6, w1=4, budget=10)"),
}


def all_value_classes(cls=value.Value):
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("tubelat."):
            yield sub
            yield from all_value_classes(sub)


def test_every_value_class_has_a_case():
    names = sorted(cls.__name__ for cls in all_value_classes())
    assert names == sorted([*CASES, "Representation"])
    assert len(names) == 24


@pytest.mark.parametrize("name", CASES)
def test_value_class(name):
    val, change, text = CASES[name]
    cls = type(val)
    assert cls.__name__ == name
    for twin in (cls(*fields(val).values()), cls(**fields(val))):
        assert twin == val and not twin != val
        assert hash(twin) == hash(val)
    other = replaced(val, **change)
    assert other != val and not other == val
    # never equal to an instance of another class with the same fields
    look_alike = type("LookAlike", (value.Value,), {"__slots__": cls.__slots__})
    assert look_alike(**fields(val)) != val and val != look_alike(**fields(val))
    assert val != tuple(fields(val).values())
    before = fields(val)
    for field in (*cls.__slots__, "other"):
        with pytest.raises(AttributeError):
            setattr(val, field, 0)
        with pytest.raises(AttributeError):
            delattr(val, field)
    assert fields(val) == before
    assert repr(val) == text
    twin = copy.copy(val)
    assert type(twin) is cls and twin == val and hash(twin) == hash(val)
    # a deep copy holds new Representations, which compare by identity
    for twin in (copy.deepcopy(val), pickle.loads(pickle.dumps(val))):
        assert type(twin) is cls and repr(twin) == text


def test_representation_compares_by_identity():
    rep = SIMPLE0
    twin = Representation(rep.spec, rep.dims, rep.columns)
    assert twin != rep and rep == rep and not twin == rep
    assert hash(rep) == object.__hash__(rep)
    assert len({rep, twin}) == 2
    for field in ("spec", "dims", "columns", "other"):
        with pytest.raises(AttributeError):
            setattr(rep, field, None)
    assert repr(rep) == f"Representation(spec={SPEC_R}, dims=(1, 0))"  # no matrices


def test_path_basis_compares_and_hashes_without_by_pair_and_rules():
    stripped = replaced(BASIS, by_pair={}, rules=())
    assert stripped == BASIS and hash(stripped) == hash(BASIS)
    assert PathBasis(SPEC, {}, ()).total_dimension == 0


def test_check_result_detail_defaults_to_empty():
    assert CheckResult("x", False) == CheckResult("x", False, "") == CheckResult(
        name="x", passed=False
    )
    assert CheckResult("x", False, "why").detail == "why"


def test_quad_irrational_normalises_in_its_constructor():
    # 8 = 2^2 * 2 moves 2 into q; s < 0 flips the signs; gcd 2 cancels
    want = "QuadIrrational(p=-1, q=4, d=2, s=1)"
    assert repr(QuadIrrational(2, -4, 8, -2)) == want
    assert repr(QuadIrrational(p=2, q=-4, d=8, s=-2)) == want
    assert QuadIrrational(2, -4, 8, -2) == QuadIrrational(-1, 4, 2, 1)
    for p, q, d, s in ((0, 1, 2, 0), (0, 0, 2, 1), (0, 1, 9, 1)):
        with pytest.raises(ParameterDomainError):
            QuadIrrational(p, q, d, s)


def test_gap_certificate_equals_across_a_scan_and_a_tuple(lattice):
    cert = gap_vector(lattice, SQRT2, Fraction(1, 10), 3)
    assert type(cert.witnesses) is BudgetScan
    wire = replaced(cert, witnesses=tuple(cert.witnesses))
    assert wire == cert and cert == wire and hash(wire) == hash(cert)
    assert replaced(cert, witnesses=tuple(cert.witnesses)[1:]) != cert


def test_delta_result_equals_across_a_view_and_a_tuple(lattice, exceptional_set):
    result = delta_for(lattice, exceptional_set, SQRT2, Fraction(1, 10))
    view = result.exceptions
    assert type(view) is ExceptionRows
    with mock.patch.object(search, "ExceptionRecord", side_effect=AssertionError):
        # len, and equality with a view of the same packing, build no record
        assert len(view) == len(view.rows) == 167
        assert view == delta_for(lattice, exceptional_set, SQRT2, Fraction(1, 10)).exceptions
    records = tuple(view)
    assert len(records) == 167 and all(type(rec) is ExceptionRecord for rec in records)
    assert records[0] == ExceptionRecord(2, 4, (0, 1, 1, 0, 0, 0), Fraction(7, 5))
    assert view == records and records == view and hash(view) == hash(records)
    wire = replaced(result, exceptions=records)
    assert wire == result and result == wire and hash(wire) == hash(result)
    assert replaced(result, exceptions=records[1:]) != result
    assert view != records[::-1] and view != list(records)
    assert repr(view) == f"ExceptionRows(ys={view.ys!r}, rows={view.rows!r})"
    assert repr(result) == (
        f"DeltaResult(delta={result.delta!r}, eps_prime={result.eps_prime!r}, exceptions={view!r})"
    )
    for twin in (copy.copy(view), pickle.loads(pickle.dumps(view))):
        assert type(twin) is ExceptionRows and twin == view and hash(twin) == hash(view)
        assert twin == records and repr(twin) == repr(view)
    twin = pickle.loads(pickle.dumps(result))
    assert twin == result == wire and hash(twin) == hash(wire)


def test_views_of_two_kinds_never_compare_equal():
    """Both packed tables take equality and hash from the ``View`` mixin
    alone: each view is its tuple of records, and an empty budget scan is
    not an empty exceptions view."""
    for cls in (BudgetScan, ExceptionRows):
        assert cls.__mro__[1:3] == (value.View, value.Value)
        assert "__eq__" not in vars(cls) and "__hash__" not in vars(cls)
    scan, rows = BudgetScan(3, 5, 0), ExceptionRows((), ())
    assert len(scan) == len(rows) == 0 and scan == () == rows
    assert scan != rows and rows != scan and not scan == rows
    for view in (scan, rows, BudgetScan(3, 5, 11), ExceptionRows(((0, 1),), ((1, 2, 0, 3, 4),))):
        records = tuple(view)
        assert view == records and records == view and hash(view) == hash(records)
    assert BudgetScan(3, 5, 11) != ExceptionRows(((0, 1),), ((1, 2, 0, 3, 4),))


def test_fields_are_bound_by_position_and_by_name():
    assert ExceptionRecord(1, 2, perturbed=Fraction(3, 2), y=(0, 1)) == RECORD
    assert Slope(denominator=2, numerator=1) == Slope(1, 2)
    for args, kwargs in (
        ((1,), {}),  # too few
        ((1, 2, 3), {}),  # too many
        ((1,), {"numerator": 2}),  # twice
        ((1, 2), {"sign": 1}),  # unknown
        ((), {"numerator": 1}),  # missing by name
    ):
        with pytest.raises(TypeError):
            Slope(*args, **kwargs)


def test_slope_keeps_its_order():
    assert Slope(1, 2) < Slope(1, 1) < Slope(1, 0)
    assert Slope(1, 2) <= Slope(1, 2) and not Slope(1, 0) < Slope(5, 1)


def test_replaced_changes_only_the_named_fields():
    assert replaced(RECORD) == RECORD
    assert fields(replaced(RECORD, b=5)) == {**fields(RECORD), "b": 5}
    with pytest.raises(TypeError):
        replaced(RECORD, sign=1)
