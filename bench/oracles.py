"""Reference computations the benchmark checks the program against.

Nothing here imports ``tubelat``.  Every value is derived from the printed
data of C(4,lambda) (quiver, relations, sum-of-squares form, radical
vectors) or from the definitions the program documents, with integer or
``Fraction`` arithmetic written independently of the package:

* quadratic irrationals r = (p + q*sqrt(d))/s are 4-tuples, and every
  comparison with a rational goes through ``floor_mul`` (floor(n*r) by
  ``isqrt``);
* ``gap_oracle`` finds the certified gap vector by scanning, for each budget,
  the best approximation of r from below (one ``floor_mul`` per column);
* the certificate builders write the wire format of ``tubelat certify``;
* ``rank`` and the pp-formula evaluator work on the JSON wire form of
  modules and formulas, not on the program's objects.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import ceil, gcd, isqrt

# ---------------------------------------------------------------------------
# The algebra as printed: quiver, relations, radical vectors, quadratic form
# ---------------------------------------------------------------------------

VERTICES = 6
# (label, source, target), vertices 0-based
ARROWS = (
    ("a11", 5, 3),
    ("a12", 3, 2),
    ("a21", 5, 4),
    ("a22", 4, 2),
    ("beta", 2, 0),
    ("gamma", 2, 1),
)
# beta.(a11.a12 - a21.a22) and gamma.(a11.a12 - lambda*a21.a22): (source, target)
RELATIONS = ((5, 0), (5, 1))
H0 = (1, 1, 2, 1, 1, 0)
HINF = (0, 0, 1, 1, 1, 1)
PAIRING = 2
MU_WEIGHTS = (sum(H0), sum(HINF))


def euler_matrix() -> tuple[tuple[int, ...], ...]:
    """E with <x, y> = x^T E y, for an algebra of global dimension 2:
    identity, minus one per arrow, plus one per relation (source, target)."""
    e = [[int(i == j) for j in range(VERTICES)] for i in range(VERTICES)]
    for _, src, tgt in ARROWS:
        e[src][tgt] -= 1
    for src, tgt in RELATIONS:
        e[src][tgt] += 1
    return tuple(tuple(row) for row in e)


EULER = euler_matrix()


def bilinear(x, y) -> int:
    return sum(x[i] * EULER[i][j] * y[j] for i in range(VERTICES) for j in range(VERTICES))


def printed_chi_times_4(x) -> int:
    """4 * chi(x) for the printed form
    (x1-x2)^2/2 + (x3-(x1+x2+x4+x5)/2)^2 + (x4-x5)^2/2 + (x6+(x1+x2-x4-x5)/2)^2."""
    x1, x2, x3, x4, x5, x6 = x
    return (
        2 * (x1 - x2) ** 2
        + (2 * x3 - (x1 + x2 + x4 + x5)) ** 2
        + 2 * (x4 - x5) ** 2
        + (2 * x6 + (x1 + x2 - x4 - x5)) ** 2
    )


def printed_slope(x) -> tuple[int, int] | None:
    """The printed slope (x4+x5-x1-x2)/(x3-x6) as a reduced pair with a
    positive denominator; None when the denominator vanishes."""
    num, den = x[3] + x[4] - x[0] - x[1], x[2] - x[5]
    if den == 0:
        return None
    if den < 0:
        num, den = -num, -den
    g = gcd(num, den)
    return num // g, den // g


def exceptional_set() -> list[tuple[int, ...]]:
    """All x with chi(x) = 1 and x5 = x6 = 0, lexicographic.

    With x5 = x6 = 0 each square of the printed form is at most 4 (times
    4 chi = 4), which gives |x4| <= 1, |x1 - x2| <= 1, |x1 + x2| <= 3 and
    |x3| <= 3; the box [-3, 3]^4 covers all of them.
    """
    return [
        head + (0, 0)
        for head in product(range(-3, 4), repeat=4)
        if printed_chi_times_4(head + (0, 0)) == 4
    ]


def path_counts(src: int) -> list[int]:
    """dim P_src at each vertex: quiver paths out of src (the quiver has no
    cycles) minus one per relation, the relations being independent."""
    counts = [0] * VERTICES
    stack = [src]
    while stack:
        v = stack.pop()
        counts[v] += 1
        stack.extend(tgt for _, s, tgt in ARROWS if s == v)
    for s, tgt in RELATIONS:
        if s == src:
            counts[tgt] -= 1
    return counts


def p_bound() -> int:
    """ceil of max over exceptional y of
    |(mu(<hinf,y>*h0 - <h0,y>*hinf) + mu(y)) / <h0,hinf>|."""
    best = Fraction(0)
    for y in exceptional_set():
        c0, c1 = bilinear(HINF, y), bilinear(H0, y)
        combo = sum(c0 * u - c1 * v for u, v in zip(H0, HINF))
        best = max(best, abs(Fraction(combo + sum(y), PAIRING)))
    return -(-best.numerator // best.denominator)


def quasisimple_threshold() -> int:
    return PAIRING * max(abs(bilinear(HINF, y)) for y in exceptional_set())


# ---------------------------------------------------------------------------
# Quadratic irrationals r = (p + q*sqrt(d))/s, s > 0, q != 0, d not a square
# ---------------------------------------------------------------------------


def floor_mul(r, n: int) -> int:
    """floor(n * r), exactly."""
    p, q, d, s = r
    x = n * q
    if x == 0:
        return (n * p) // s
    root = isqrt(x * x * d)  # floor(|x| sqrt(d)); never exact, d is no square
    f = root if x > 0 else -root - 1
    return (n * p + f) // s


def r_below(r, t: Fraction) -> bool:
    """r < t (never equal: r is irrational)."""
    t = Fraction(t)
    return floor_mul(r, t.denominator) < t.numerator


def r_above(r, t: Fraction) -> bool:
    return not r_below(r, t)


def r_text(r) -> str:
    """The program's canonical spelling of r, as stored in certificates."""
    p, q, d, s = r
    return f"({p}+{q}*sqrt({d}))/{s}"


def frac_text(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def slope_text(num: int, den: int) -> str:
    """Reduced b/a on the wire; "inf" when a = 0."""
    if den == 0:
        return "inf"
    g = gcd(num, den)
    return frac_text(Fraction(num // g, den // g))


# ---------------------------------------------------------------------------
# Gap vectors
# ---------------------------------------------------------------------------


def budget_pairs(w0: int, w1: int, budget: int):
    """All (a, b) != (0, 0) with a, b >= 0 and w0*a + w1*b <= budget."""
    for a in range(budget // w0 + 1):
        for b in range((budget - w0 * a) // w1 + 1):
            if a or b:
                yield a, b


def best_below(floors, w0: int, w1: int, budget: int) -> tuple[int, int] | None:
    """The largest slope b/a < r with a, b >= 1 and w0*a + w1*b <= budget, as
    (b, a); ``floors[a]`` is floor(a*r), the largest b with b/a < r."""
    best_b, best_a = 0, 1
    for a in range(1, (budget - w1) // w0 + 1):
        b = min(floors[a], (budget - w0 * a) // w1)
        if b >= 1 and b * best_a > best_b * a:
            best_b, best_a = b, a
    return (best_b, best_a) if best_b else None


def gap_oracle(r, eps: Fraction, k: int, w0: int = MU_WEIGHTS[0], w1: int = MU_WEIGHTS[1]):
    """(a, b, mu) that ``gap_vector`` must return: the pair of least total
    dimension mu (then least a) with slope in (r - eps, r) such that no pair
    within dimension mu + k has slope strictly between b/a and r.

    Such a pair has, within budget mu + k, the best slope from below, so for
    each mu only the multiple of that best slope with dimension mu can
    qualify.
    """
    eps = Fraction(eps)
    floors: list[int] = [0]
    m = w0 + w1
    while True:
        top = (m + k) // w0 + 1
        while len(floors) <= top:
            floors.append(floor_mul(r, len(floors)))
        best = best_below(floors, w0, w1, m + k)
        if best is not None:
            pb, qa = best
            g = gcd(pb, qa)
            pb, qa = pb // g, qa // g
            step = w0 * qa + w1 * pb
            if m % step == 0 and r_below(r, Fraction(pb, qa) + eps):
                t = m // step
                return t * qa, t * pb, m
        m += 1


def gap_certificate_doc(r, eps: Fraction, k: int, found=None) -> dict:
    """A gap-vector certificate in the wire format, witnesses in scan order."""
    w0, w1 = MU_WEIGHTS
    a, b, mu = found if found is not None else gap_oracle(r, eps, k)
    budget = mu + k
    return {
        "kind": "gap-vector",
        "r": r_text(r),
        "epsilon": frac_text(eps),
        "k": k,
        "a": a,
        "b": b,
        "slope": slope_text(b, a),
        "mu": mu,
        "budget": budget,
        "mu_weights": [w0, w1],
        "witnesses": [
            {"a": a2, "b": b2, "mu": w0 * a2 + w1 * b2, "slope": slope_text(b2, a2)}
            for a2, b2 in budget_pairs(w0, w1, budget)
        ],
    }


def check_gap_certificate(doc: dict, r, eps: Fraction, k: int) -> list[str]:
    """Everything a gap-vector document must say for (r, eps, k)."""
    a, b, mu = gap_oracle(r, eps, k)
    want = gap_certificate_doc(r, eps, k, (a, b, mu))
    problems = [
        f"{key}: got {doc.get(key)!r}, want {want[key]!r}"
        for key in want
        if key != "witnesses" and doc.get(key) != want[key]
    ]
    if sorted(doc.get("witnesses", []), key=lambda w: (w["a"], w["b"])) != want["witnesses"]:
        problems.append("witness list is not the full budget scan")
    return problems


def tube_params_doc(r, eps: Fraction, d: int) -> dict:
    """A tube-parameters document built without the program: k from the gap
    d and the bound p, then gap vectors on windows shrunk toward r until the
    numerator clears the quasisimple threshold."""
    p = p_bound()
    threshold = quasisimple_threshold()
    k = PAIRING * (d + 2 * p)
    eps_i = Fraction(eps)
    while True:
        a, b, mu = gap_oracle(r, eps_i, k)
        if b > threshold:
            break
        s = Fraction(b, a)
        scale = 256
        while Fraction(floor_mul(r, scale), scale) <= s:
            scale *= 4
        eps_i = Fraction(floor_mul(r, scale), scale) - s
    g = gcd(a, b)
    ra, rb = a // g, b // g
    return {
        "kind": "tube-params",
        "a": ra,
        "b": rb,
        "slope": slope_text(rb, ra),
        "rank": PAIRING,
        "k_used": k,
        "p": p,
        "d": d,
        "lower_bound": frac_text(Fraction(MU_WEIGHTS[0] * ra + MU_WEIGHTS[1] * rb, PAIRING) - p),
        "threshold": threshold,
        "r": r_text(r),
        "epsilon": frac_text(eps),
        "certificate": gap_certificate_doc(r, eps_i, k, (a, b, mu)),
    }


def check_tube_params(doc: dict, r, eps: Fraction, d: int) -> list[str]:
    """Properties any correct tube-parameters answer for (r, eps, d) has."""
    problems = []
    p = p_bound()
    a, b = doc["a"], doc["b"]
    expect = {
        "kind": "tube-params",
        "rank": PAIRING,
        "p": p,
        "d": d,
        "k_used": PAIRING * (d + 2 * p),
        "threshold": quasisimple_threshold(),
        "r": r_text(r),
        "epsilon": frac_text(eps),
        "slope": slope_text(b, a),
        "lower_bound": frac_text(Fraction(MU_WEIGHTS[0] * a + MU_WEIGHTS[1] * b, PAIRING) - p),
    }
    problems += [
        f"{key}: got {doc.get(key)!r}, want {value!r}"
        for key, value in expect.items()
        if doc.get(key) != value
    ]
    if gcd(a, b) != 1 or b <= expect["threshold"]:
        problems.append(f"pair ({a}, {b}) is not coprime above the threshold")
    if not (r_above(r, Fraction(b, a)) and r_below(r, Fraction(b, a) + Fraction(eps))):
        problems.append(f"slope {b}/{a} is not in (r - eps, r)")
    cert = doc["certificate"]
    problems += check_gap_certificate(cert, r, Fraction(cert["epsilon"]), doc["k_used"])
    if Fraction(cert["b"], cert["a"]) != Fraction(b, a):
        problems.append("certificate pair does not reduce to the returned slope")
    return problems


# ---------------------------------------------------------------------------
# Window shrinking: the delta_for property
# ---------------------------------------------------------------------------


def within(r, t: Fraction, width: Fraction) -> bool:
    """|t - r| < width."""
    return r_below(r, t + width) and r_above(r, t - width)


def check_delta(r, eps: Fraction, doc: dict, a_max: int, margin: int = 8) -> list[str]:
    """Check a ``delta`` answer exactly: 0 < delta <= eps/2, and for every
    exceptional y and every pair in a box around the ray of slope r
    (1 <= a <= a_max), a perturbed slope within delta of r forces the raw
    slope b/a within eps of r.  Listed exceptions must escape the eps window
    with the stated perturbed slope."""
    eps = Fraction(eps)
    delta = Fraction(doc["delta"])
    problems = []
    if Fraction(doc["eps_prime"]) != eps / 2 or not 0 < delta <= eps / 2:
        problems.append(f"delta {delta} / eps' {doc['eps_prime']} out of range")
    omega = exceptional_set()
    for e in doc["exceptions"]:
        x = tuple(e["a"] * u + e["b"] * v + w for u, v, w in zip(H0, HINF, e["y"]))
        slope = printed_slope(x)
        if tuple(e["y"]) not in omega or slope is None or Fraction(*slope) != Fraction(e["perturbed"]):
            problems.append(f"exception {e} has the wrong perturbed slope")
        elif within(r, Fraction(e["b"], e["a"]), eps):
            problems.append(f"exception {e} has its raw slope inside the window")
    for a in range(1, a_max + 1):
        centre = floor_mul(r, a)
        reach = margin + ceil(2 * eps * a)
        raw_ok = {}
        for y in omega:
            for b in range(max(0, centre - reach), centre + reach + 1):
                x = tuple(a * u + b * v + w for u, v, w in zip(H0, HINF, y))
                slope = printed_slope(x)
                if slope is None or not within(r, Fraction(*slope), delta):
                    continue
                if b not in raw_ok:
                    raw_ok[b] = within(r, Fraction(b, a), eps)
                if not raw_ok[b]:
                    problems.append(f"pair ({a}, {b}) with y = {y} breaks delta")
    return problems


# ---------------------------------------------------------------------------
# Exact linear algebra and pp formulas on the JSON wire form
# ---------------------------------------------------------------------------


def rank(rows) -> int:
    """Rank of a list of rows of Fractions, by plain Gaussian elimination."""
    rows = [list(r) for r in rows if any(r)]
    rk = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        pivot = next((i for i in range(rk, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[rk], rows[pivot] = rows[pivot], rows[rk]
        head = rows[rk]
        for i in range(rk + 1, len(rows)):
            if rows[i][c] != 0:
                f = rows[i][c] / head[c]
                rows[i] = [x - f * y for x, y in zip(rows[i], head)]
        rk += 1
    return rk


def _mat(text_rows) -> list[list[Fraction]]:
    return [[Fraction(x) for x in row] for row in text_rows]


def _mat_mul(a, b, inner: int, cols: int):
    return [[sum((row[k] * b[k][j] for k in range(inner)), Fraction(0)) for j in range(cols)] for row in a]


def path_matrix(module: dict, path, src: int) -> list[list[Fraction]]:
    """dims(tgt) x dims(src) matrix of a path (arrow labels in traversal
    order) acting on a module in wire form; zero maps where arrows are absent."""
    dims = module["dims"]
    ends = {label: (s, t) for label, s, t in ARROWS}
    mat = [[Fraction(int(i == j)) for j in range(dims[src])] for i in range(dims[src])]
    for label in path:
        s, t = ends[label]
        arrow = _mat(module["arrows"].get(label, [[0] * dims[s] for _ in range(dims[t])]))
        mat = _mat_mul(arrow, mat, dims[s], dims[src])
    return mat


def formula_blocks(module: dict, formula: dict):
    """(H_free, H_bound): the formula's matrix evaluated on the module, split
    into the free and the bound variable columns."""
    dims = module["dims"]
    types = [t - 1 for t in formula["types"]]
    rows = [t - 1 for t in formula["rows"]]
    free = formula["free"]
    widths = [dims[t] for t in types]
    offsets = [sum(widths[:c]) for c in range(len(widths))]
    total = sum(widths)
    big = []
    for r, row_type in enumerate(rows):
        block = [[Fraction(0)] * total for _ in range(dims[row_type])]
        for e in formula["entries"]:
            if e["row"] != r:
                continue
            c = e["col"]
            for term in e["terms"]:
                pm = path_matrix(module, term["path"], types[c])
                coeff = Fraction(term["coeff"])
                for i in range(dims[row_type]):
                    for j in range(widths[c]):
                        block[i][offsets[c] + j] += coeff * pm[i][j]
        big.extend(block)
    split = sum(widths[:free])
    return [row[:split] for row in big], [row[split:] for row in big], split


def pp_dim(module: dict, formula: dict) -> int:
    """dim phi(M) = (free width) - rank[H_f H_b] + rank H_b."""
    hf, hb, nf = formula_blocks(module, formula)
    return nf - rank([f + b for f, b in zip(hf, hb)]) + rank(hb)


def pp_holds(module: dict, formula: dict, point) -> bool:
    """Whether the free-block vector ``point`` lies in phi(M): H_f v must be
    in the column span of H_b."""
    hf, hb, _ = formula_blocks(module, formula)
    v = [Fraction(x) for x in point]
    image = [sum((row[j] * v[j] for j in range(len(v))), Fraction(0)) for row in hf]
    return rank([b + [y] for b, y in zip(hb, image)]) == rank(hb)
