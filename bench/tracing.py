"""Traced runs: spans around the program's public functions, and probes.

``Recorder.install`` replaces each function in ``SPANS`` (in every tubelat
module that binds it) by a wrapper that records a span (name, start, end,
parent, trace id) and, for some, a count taken from the result.  Spans and
counts stay in memory and are written out when the run ends; per-layer totals
and self times are derived from them.  Nothing is wrapped in untraced runs.

Functions too hot to wrap (called hundreds of thousands of times per pass)
are timed per call by ``micro_probes`` instead; ``linalg.rref`` and the
interpreter-level CLI figures have probes of their own, as do span metrics
that the workload's passes never reach (``probe_ops``).
"""

from __future__ import annotations

import io
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import oracles as O
from clock import timed

SQRT2 = (0, 1, 2, 1)

# (module, attribute, span name); strip_pairs_above/below share one name.
SPANS = (
    ("algebra", "validate_spec", "algebra.validate_spec"),
    ("algebra", "derive_path_basis", "algebra.derive_path_basis"),
    ("algebra", "euler_data", "algebra.euler_data"),
    ("lattice", "K0Lattice.for_spec", "lattice.for_spec"),
    ("exceptional", "enumerate_exceptional", "exceptional.enumerate_exceptional"),
    ("search", "gap_vector", "search.gap_vector"),
    ("search", "delta_for", "search.delta_for"),
    ("search", "strip_pairs_above", "search.strip_pairs"),
    ("search", "strip_pairs_below", "search.strip_pairs"),
    ("search", "tube_parameters", "search.tube_parameters"),
    ("search", "validate_gap_certificate", "search.validate_gap_certificate"),
    ("search", "gap_certificate_from_json", "search.gap_certificate_from_json"),
    ("serialize", "dumps_canonical", "serialize.dumps_canonical"),
    ("reps", "hom_dim", "reps.hom_dim"),
    ("reps", "ext_dim", "reps.ext_dim"),
    ("reps", "projective_cover_presentation", "reps.projective_cover_presentation"),
    ("pp", "solution_space", "pp.solution_space"),
    ("pp", "free_realisation", "pp.free_realisation"),
    ("pp", "pair_open_on", "pp.pair_open_on"),
    ("cli", "run", "cli.run"),
)
SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in SPANS))

# span name -> (count name, amount taken from the result)
COUNTERS = {
    "search.gap_vector": ("search.witnesses", lambda result: len(result.witnesses)),
    "search.gap_certificate_from_json": ("search.witnesses", lambda result: len(result.witnesses)),
    "search.delta_for": ("search.delta_exceptions", lambda result: len(result.exceptions)),
    "serialize.dumps_canonical": ("serialize.output_bytes", len),
}
COUNT_NAMES = tuple(dict.fromkeys(name for name, _ in COUNTERS.values()))
MICRO_METRICS = ("lattice.slope_from_ratio_us", "quadirr.cmp_fraction_us", "quadirr.distance_lower_bound_us")
COLD_SUBCOMMANDS = (
    "validate-algebra", "euler", "slope", "omega", "decompose", "gap-search", "delta", "p-bound",
    "tube-params", "hom", "ext", "pp-eval", "pp-free", "pp-pair", "certify",
)


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for name in SPAN_NAMES:
        out += [(f"{name}_ms", "ms"), (f"{name}_self_ms", "ms")]
    out += [(name, "count") for name in COUNT_NAMES]
    out += [(name, "us") for name in MICRO_METRICS]
    out += [("linalg.rref_ms", "ms"), ("cli.import_ms", "ms")]
    out += [(f"cli.cold.{sub}_ms", "ms") for sub in COLD_SUBCOMMANDS]
    out += [("trace.overhead_pct", "%")]
    return out


class Recorder:
    """Spans and counts of a traced run, kept in memory."""

    def __init__(self):
        self.spans: list = []  # [name, start_ns, end_ns, parent index, trace id]
        self.counts: list = []  # (trace id, name, amount)
        self.trace_id = None
        self._stack: list[int] = []
        self._patches: list = []

    def span(self, name, fn, *args, **kwargs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter_ns(), None, parent, self.trace_id])
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter_ns()

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            if counter is not None:
                self.counts.append((self.trace_id, counter[0], counter[1](result)))
            return result

        return traced

    def install(self, prog):
        modules = [m for n, m in sys.modules.items() if n == "tubelat" or n.startswith("tubelat.")]
        for module_name, attr, name in SPANS:
            module = getattr(prog, module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._patches.append((cls, meth, original))
                setattr(cls, meth, staticmethod(self._wrap(name, original.__func__)))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patches.append((m, key, original))
                        setattr(m, key, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def totals(self, trace_ids) -> dict:
        """Per trace-id group: {name: [inclusive ns, self ns]} plus counts.

        ``trace_ids`` maps a trace id to its group (a pass).  A span nested in
        a span of the same name adds to its self time only, so recursion is
        not counted twice.
        """
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        groups: dict = {}
        for i, (name, start, end, parent, tid) in enumerate(self.spans):
            if tid not in trace_ids:
                continue
            acc = groups.setdefault(trace_ids[tid], {})
            entry = acc.setdefault(name, [0, 0])
            nested = False
            p = parent
            while p is not None:
                if self.spans[p][0] == name:
                    nested = True
                    break
                p = self.spans[p][3]
            if not nested:
                entry[0] += end - start
            entry[1] += end - start - child_ns[i]
        for tid, name, amount in self.counts:
            if tid in trace_ids:
                acc = groups.setdefault(trace_ids[tid], {})
                acc[name] = acc.get(name, 0) + amount
        return groups

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": self.counts}


def median_over(groups: dict, scale: dict, key, index=None):
    """Median over groups of one figure; times are scaled by the group's
    factor, counts are not."""
    values = [
        g.get(key, [0, 0])[index] * scale[gid] if index is not None else g.get(key, 0)
        for gid, g in groups.items()
    ]
    return statistics.median(values) if values else 0


def layer_values(recorder: Recorder, passes: tuple[dict, dict], probes: tuple[dict, dict]) -> tuple[dict, dict]:
    """Span and count metrics: the median per pass over the workload's traced
    passes, or over probe passes for those the workload never reaches.  Each
    of ``passes`` and ``probes`` is (trace id -> group, group -> scale factor).
    Returns the values and the source of each."""
    work, probe = recorder.totals(passes[0]), recorder.totals(probes[0])
    values, source = {}, {}
    for name in SPAN_NAMES:
        groups, scale = (work, passes[1]) if median_over(work, passes[1], name, 0) > 0 else (probe, probes[1])
        source[name] = "workload" if groups is work else "probe"
        values[f"{name}_ms"] = median_over(groups, scale, name, 0) / 1e6
        values[f"{name}_self_ms"] = median_over(groups, scale, name, 1) / 1e6
    for name in COUNT_NAMES:
        groups = work if median_over(work, passes[1], name) > 0 else probe
        source[name] = "workload" if groups is work else "probe"
        values[name] = median_over(groups, {}, name)
    return values, source


# ---------------------------------------------------------------------------
# Probes
# ---------------------------------------------------------------------------


def per_call_us(batch, n: int, repeats: int = 7) -> float:
    """Median over ``repeats`` batches of the scaled time per call, in
    microseconds."""
    return statistics.median(timed(batch) for _ in range(repeats)) / n * 1e6


def micro_probes(prog) -> dict:
    """Per-call times of the hottest public functions on the arguments the
    searches give them: slopes of a budget scan, and rationals near sqrt 2."""
    slope = prog.lattice.Slope
    sqrt2 = prog.quadirr.QuadIrrational(0, 1, 2, 1)
    pairs = list(O.budget_pairs(*O.MU_WEIGHTS, 600))
    fracs = [Fraction(b, a) for a, b in pairs if a]
    near = [Fraction(O.floor_mul(SQRT2, n), n) for n in range(100, 400)]
    return {
        "lattice.slope_from_ratio_us": per_call_us(lambda: [slope.from_ratio(b, a) for a, b in pairs], len(pairs)),
        "quadirr.cmp_fraction_us": per_call_us(lambda: [sqrt2.cmp_fraction(t) for t in fracs], len(fracs)),
        "quadirr.distance_lower_bound_us": per_call_us(
            lambda: [sqrt2.distance_lower_bound(t) for t in near], len(near)
        ),
    }


def intertwiner_rows(m: dict, n: dict) -> tuple[list, int]:
    """The linear system f_v . M(arrow) = N(arrow) . f_u for Hom(M, N), from
    modules in wire form: unknowns are the entries of the blocks f_v."""
    md, nd = m["dims"], n["dims"]
    offsets = [sum(md[u] * nd[u] for u in range(v)) for v in range(O.VERTICES)]
    total = sum(md[v] * nd[v] for v in range(O.VERTICES))
    rows = []
    for label, u, v in O.ARROWS:
        a = [[Fraction(x) for x in row] for row in m["arrows"].get(label, [])]
        b = [[Fraction(x) for x in row] for row in n["arrows"].get(label, [])]
        for i in range(nd[v]):
            for j in range(md[u]):
                row = [Fraction(0)] * total
                for t in range(md[v]):
                    row[offsets[v] + i * md[v] + t] += a[t][j]
                for s in range(nd[u]):
                    row[offsets[u] + s * md[u] + j] -= b[i][s]
                if any(row):
                    rows.append(row)
    return rows, total


def rref_probe_ms(prog, systems, repeats: int = 3) -> float:
    """Median time of one ``linalg.rref`` call over the given systems."""
    times = [timed(prog.linalg.rref, rows, total) for _ in range(repeats) for rows, total in systems]
    return statistics.median(times) * 1e3


def cold_import_ms(env, cwd, repeats: int = 5) -> float:
    """Importing tubelat.cli in a fresh interpreter, minus a bare start."""

    def start(code):
        subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd, check=True, timeout=120)

    bare, full = [], []
    for _ in range(repeats):
        bare.append(timed(start, "pass"))
        full.append(timed(start, "import tubelat.cli"))
    return (statistics.median(full) - statistics.median(bare)) * 1e3


def probe_ops(prog, ctx, workdir: Path, modules: dict) -> list:
    """One small call to every spanned function, for span metrics that a
    workload's passes do not reach."""
    search, reps, pp = prog.search, prog.reps, prog.pp
    lat, ex, spec, basis = ctx.lattice, ctx.exceptional, ctx.spec, ctx.basis
    sqrt2 = prog.quadirr.QuadIrrational(*SQRT2)
    eps = Fraction(1, 10)
    cert = search.gap_vector(lat, sqrt2, eps, 50)
    doc = search.gap_certificate_to_json(cert)
    path = workdir / "probe-cert.json"
    path.write_text(prog.serialize.dumps_canonical(doc), encoding="utf-8")
    a, b = modules["A1"], modules["B1"]
    phi = pp.arrow_divisibility(spec, "beta")
    pair = pp.PpPair(phi=phi, psi=pp.meet(phi, pp.zero_formula(spec, 0)))
    return [
        lambda: prog.algebra.validate_spec(spec),
        lambda: prog.algebra.derive_path_basis(spec),
        lambda: prog.algebra.euler_data(spec, basis),
        lambda: prog.lattice.K0Lattice.for_spec(spec),
        lambda: prog.exceptional.enumerate_exceptional(lat),
        lambda: search.gap_vector(lat, sqrt2, eps, 50),
        lambda: search.delta_for(lat, ex, sqrt2, eps),
        lambda: search.tube_parameters(lat, ex, sqrt2, eps, 1),
        lambda: search.validate_gap_certificate(lat, cert),
        lambda: search.gap_certificate_from_json(doc),
        lambda: prog.serialize.dumps_canonical(doc),
        lambda: reps.hom_dim(a, b),
        lambda: reps.ext_dim(basis, b, a),
        lambda: pp.solution_space(phi, b),
        lambda: pp.pair_open_on(pair, b),
        lambda: pp.free_realisation(basis, phi),
        lambda: prog.cli.run(["certify", str(path)], stdout=io.StringIO()),
    ]
