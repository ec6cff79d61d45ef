"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Stated time limits are asserted with ``time.monotonic``.
"""

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import product

import pytest

from tubelat import linalg, pp, reps
from tubelat.algebra import c4_reference_quadratic
from tubelat.exceptional import ExceptionalSet, unit_decompose
from tubelat.lattice import vec_add, vec_scale
from tubelat.quadirr import QuadIrrational, parse_quad_irrational
from tubelat.search import (
    delta_for,
    gap_certificate_to_json,
    gap_vector,
    p_bound,
    perturbed_params,
    quasisimple_bounds,
    tube_parameters,
    validate_gap_certificate,
)

from conftest import unit
from test_linalg import same_subspace, subspace_intersection, subspace_sum
from test_search import perturbed_slope

H0 = (1, 1, 2, 1, 1, 0)
HINF = (0, 0, 1, 1, 1, 1)
SQRT2 = QuadIrrational(0, 1, 2, 1)


@contextmanager
def criterion(number, description, limit=None):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"FAIL: criterion {number} - {description}")
        raise
    elapsed = time.monotonic() - start
    if limit is not None and elapsed >= limit:
        print(f"FAIL: criterion {number} - {description} (too slow: {elapsed:.2f}s)")
        raise AssertionError(f"criterion {number} exceeded {limit}s ({elapsed:.2f}s)")
    print(f"PASS: criterion {number} - {description} ({elapsed:.2f}s)")


def test_criterion_01_builtin_validation(lattice):
    with criterion(1, "built-in validation and printed form agreement", limit=1.0):
        assert lattice.quadratic(H0) == 0
        assert lattice.quadratic(HINF) == 0
        assert lattice.bilinear(H0, HINF) == 2
        assert lattice.bilinear(HINF, H0) == -2
        rng = random.Random(101)
        for _ in range(1000):
            x = tuple(rng.randint(-10, 10) for _ in range(6))
            assert Fraction(lattice.quadratic(x)) == c4_reference_quadratic(x)


def test_criterion_02_radical_invariance(lattice):
    with criterion(2, "quadratic form invariant under radical shifts"):
        rng = random.Random(102)
        for _ in range(1000):
            x = tuple(rng.randint(-50, 50) for _ in range(6))
            chi = lattice.quadratic(x)
            for h in (H0, HINF):
                assert lattice.quadratic(vec_add(x, h)) == chi
                assert lattice.quadratic(tuple(a - b for a, b in zip(x, h))) == chi


def test_criterion_03_exceptional_suite(lattice, exceptional_set):
    with criterion(3, "exceptional set: bound, closure, units, second scan", limit=10.0):
        b = exceptional_set.bound
        members = set(exceptional_set.elements)
        assert len(members) == len(exceptional_set.elements)
        for x in exceptional_set:
            assert all(abs(c) <= b for c in x)
            assert tuple(-c for c in x) in members
        for i in range(4):
            assert unit(6, i) in members
            assert tuple(-c for c in unit(6, i)) in members
        rescan = set()
        for head in product(range(b, -b - 1, -1), repeat=4):
            x = head + (0, 0)
            if lattice.quadratic(x) == 1:
                rescan.add(x)
        assert members == rescan
        assert len(exceptional_set) == len(rescan)


def test_criterion_04_unit_decomposition_round_trip(lattice, exceptional_set):
    with criterion(4, "unit decomposition round-trips on the full grid"):
        for y in exceptional_set:
            for a in range(-20, 21):
                for b in range(-20, 21):
                    x = vec_add(lattice.radical_combination(a, b), y)
                    assert unit_decompose(lattice, x, exceptional_set) == (a, b, y)


def test_criterion_05_gap_search_sqrt2(lattice):
    with criterion(5, "certified gap search at sqrt(2), eps 1/10, k 50", limit=5.0):
        cert = gap_vector(lattice, SQRT2, Fraction(1, 10), 50)
        assert (cert.a, cert.b) == (5, 7)
        assert cert.mu == 58 and cert.budget == 108
        assert str(cert.slope) == "7/5"
        # independent oracle: full scan of all a' <= 18, exact cross-multiplied
        # comparisons against sqrt(2)
        competitors = []
        strip_best = None
        for a2 in range(1, 19):
            for b2 in range(1, 2 * a2 + 2):
                if b2 * 5 > 7 * a2 and b2 * b2 < 2 * a2 * a2:
                    m = 6 * a2 + 4 * b2
                    if m <= 108:
                        competitors.append((a2, b2))
                    if strip_best is None or m < strip_best[2]:
                        strip_best = (a2, b2, m)
        assert competitors == []
        # the dimension-minimal pair in the open strip needs a' = 17
        assert strip_best == (17, 24, 198)


def test_criterion_06_certificate_soundness_fuzz(lattice, exceptional_set):
    with criterion(6, "fuzzed certificates revalidate; delta windows are sound"):
        irrationals = [
            SQRT2,
            QuadIrrational(0, 1, 3, 1),
            QuadIrrational(1, 1, 5, 2),
            QuadIrrational(0, 1, 7, 2),
        ]
        eps_pool = [
            Fraction(1, 8),
            Fraction(1, 10),
            Fraction(1, 16),
            Fraction(1, 25),
            Fraction(1, 32),
            Fraction(1, 64),
        ]
        rng = random.Random(106)
        for _ in range(100):
            r = rng.choice(irrationals)
            eps = rng.choice(eps_pool)
            k = rng.randint(0, 60)
            cert = gap_vector(lattice, r, eps, k)
            assert validate_gap_certificate(lattice, cert) == []
            for a2 in range(1, cert.budget // 6 + 1):
                for b2 in range(1, (cert.budget - 6 * a2) // 4 + 1):
                    if b2 * cert.a > cert.b * a2:
                        assert not r > Fraction(b2, a2)
        for r in irrationals:
            for eps in (Fraction(1, 10), Fraction(1, 25)):
                res = delta_for(lattice, exceptional_set, r, eps)
                assert 0 < res.delta <= eps / 2
                for _ in range(10_000):
                    a = rng.randint(1, 3000)
                    b = rng.randint(0, 3 * a)
                    y = rng.choice(exceptional_set.elements)
                    params = perturbed_params(lattice, y)
                    rho = perturbed_slope(a, b, params)
                    if rho is None:
                        continue
                    if r > rho - res.delta and r < rho + res.delta:
                        s = Fraction(b, a)
                        assert r > s - eps and r < s + eps


def test_criterion_07_dimension_estimate_arithmetic(lattice, exceptional_set):
    with criterion(7, "p bound, quasisimple bounds and tube parameters"):
        p = p_bound(lattice, exceptional_set)
        reversed_set = ExceptionalSet(
            elements=tuple(reversed(exceptional_set.elements)),
            bound=exceptional_set.bound,
        )
        assert p == p_bound(lattice, reversed_set)
        with pytest.raises(Exception):
            quasisimple_bounds(lattice, exceptional_set, 3, 4, 2)
        qb = quasisimple_bounds(lattice, exceptional_set, 5, 7, 2)
        assert qb.lower == Fraction(lattice.mu_of_pair(5, 7), 2) - p
        for d in (1, 3):
            tp = tube_parameters(lattice, exceptional_set, SQRT2, Fraction(1, 10), d)
            assert Fraction(tp.k_used, 2) - 2 * tp.p >= d
            s = Fraction(tp.b, tp.a)
            assert SQRT2 > s and SQRT2 < s + Fraction(1, 10)


def test_criterion_08_representation_laws(lattice, basis):
    with criterion(8, "hom(P_i, -) counts multiplicities; Euler identity", limit=30.0):
        rng = random.Random(108)
        projectives = [reps.projective(basis, i) for i in range(6)]
        fixtures = []
        for _ in range(100):
            m = reps.random_representation(basis, rng)
            reps.validate(m)
            fixtures.append(m)
            for i in range(6):
                assert reps.hom_dim(projectives[i], m) == m.dims[i]
        panel = [reps.simple(basis.spec, 2), reps.random_representation(basis, rng)]
        checked = 0
        for m in fixtures:
            if m.total_dim == 0 or not reps.pd_at_most_1(basis, m):
                continue
            checked += 1
            for n in panel:
                lhs = lattice.bilinear(m.dims, n.dims)
                assert lhs == reps.hom_dim(m, n) - reps.ext_dim(basis, m, n)
        assert checked >= 10


def _random_formula(spec, basis, rng, free_type=None):
    free_t = rng.randrange(spec.vertex_count) if free_type is None else free_type
    bound = rng.randint(0, 2)
    col_types = [free_t] + [rng.randrange(spec.vertex_count) for _ in range(bound)]
    rows = rng.randint(0, 2)
    row_types = [rng.randrange(spec.vertex_count) for _ in range(rows)]
    entries = []
    for r in range(rows):
        row = []
        for c in range(len(col_types)):
            combo = []
            for path in basis.paths_between(col_types[c], row_types[r]):
                if rng.random() < 0.5:
                    combo.append((Fraction(rng.choice([-2, -1, 1, 2])), path))
            row.append(tuple(combo))
        entries.append(tuple(row))
    return pp.make_formula(spec, 1, col_types, row_types, entries)


def test_criterion_09_pp_calculus(spec, basis):
    with criterion(9, "pp solution counts, lattice operations, solvability"):
        rng = random.Random(109)
        fixtures = [reps.random_representation(basis, rng) for _ in range(20)]
        formulas = [_random_formula(spec, basis, rng) for _ in range(50)]
        for phi in formulas:
            fr = pp.free_realisation(basis, phi)
            cok = pp.coker_of_point(fr)
            for n in fixtures:
                assert pp.solution_dim(phi, n) == reps.hom_dim(
                    fr.module, n
                ) - reps.hom_dim(cok, n)
        for _ in range(10):
            t = rng.randrange(6)
            phi = _random_formula(spec, basis, rng, free_type=t)
            psi = _random_formula(spec, basis, rng, free_type=t)
            for n in fixtures[:5]:
                dim = n.dims[t]
                sa = pp.solution_space(phi, n)
                sb = pp.solution_space(psi, n)
                assert same_subspace(
                    pp.solution_space(pp.meet(phi, psi), n),
                    subspace_intersection(sa, sb, dim),
                    dim,
                )
                assert same_subspace(
                    pp.solution_space(pp.plus(phi, psi), n),
                    subspace_sum(sa, sb, dim),
                    dim,
                )
        # solvability criterion, both directions, on every fixture
        for n in fixtures:
            phi = _random_formula(spec, basis, rng)
            fr = pp.free_realisation(basis, phi)
            t = phi.col_types[0]
            sol = pp.solution_space(phi, n)
            if sol:
                coeffs = [Fraction(rng.randint(-2, 2)) for _ in sol]
                target = tuple(
                    sum((c * v[i] for c, v in zip(coeffs, sol)), Fraction(0))
                    for i in range(n.dims[t])
                )
                assert reps.morphism_taking(fr.module, n, [(fr.point, (t, target))])
            for _ in range(4):
                cand = tuple(Fraction(rng.randint(-2, 2)) for _ in range(n.dims[t]))
                if not linalg.in_span(sol, list(cand), n.dims[t]):
                    assert (
                        reps.morphism_taking(fr.module, n, [(fr.point, (t, cand))])
                        is None
                    )
                    break


def test_criterion_10_pushout_laws(spec, basis):
    with criterion(10, "pushouts: identity, cokernel and meet behaviour"):
        rng = random.Random(110)
        for label in ("a11", "beta", "gamma"):
            phi = pp.arrow_divisibility(spec, label)
            t = phi.col_types[0]
            fr = pp.free_realisation(basis, phi)
            po_id = pp.pushout_pointed(fr, pp.free_realisation(basis, pp.tautology(spec, t)))
            assert po_id.module.dims == fr.module.dims
            m = reps.random_representation(basis, rng)
            lhs = pp.solution_dim(phi, m)
            rhs = reps.hom_dim(po_id.module, m) - reps.hom_dim(
                pp.coker_of_point(po_id), m
            )
            assert lhs == rhs
            po_zero = pp.pushout_pointed(
                fr, pp.free_realisation(basis, pp.zero_formula(spec, t))
            )
            assert po_zero.module.dims == pp.coker_of_point(fr).dims
            assert all(c == 0 for c in po_zero.points[0][1])
        for _ in range(6):
            t = rng.randrange(6)
            phi = _random_formula(spec, basis, rng, free_type=t)
            psi = _random_formula(spec, basis, rng, free_type=t)
            po = pp.pushout_pointed(
                pp.free_realisation(basis, phi), pp.free_realisation(basis, psi)
            )
            cok = pp.coker_of_point(po)
            both = pp.meet(phi, psi)
            for _ in range(2):
                x = reps.random_representation(basis, rng)
                assert pp.solution_dim(both, x) == reps.hom_dim(
                    po.module, x
                ) - reps.hom_dim(cok, x)


def test_criterion_11_certify_round_trip(lattice):
    with criterion(11, "certify accepts self-emitted output, rejects mutations"):
        import io

        from tubelat.cli import run
        from tubelat.search import gap_certificate_from_json

        cert = gap_vector(lattice, SQRT2, Fraction(1, 10), 50)
        data = gap_certificate_to_json(cert)
        assert validate_gap_certificate(lattice, gap_certificate_from_json(data)) == []

        witnesses = data["witnesses"]
        rejected = 0
        for i in range(100):
            mutated = [dict(w) for w in witnesses]
            slot = i % len(mutated)
            if i % 2 == 0:
                mutated[slot] = {**mutated[slot], "slope": "24/17"}
            else:
                mutated[slot] = {"a": 17, "b": 24, "mu": 198, "slope": "24/17"}
            bad = gap_certificate_from_json({**data, "witnesses": mutated})
            if validate_gap_certificate(lattice, bad):
                rejected += 1
        assert rejected == 100
