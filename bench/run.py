"""Benchmark of tubelat: four workloads, end-to-end metrics, traced layers.

Run from the root of a checkout (the program is imported from ``src/``):

    python3 bench/run.py --workload search --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --write-manifest      # regenerate BENCHMARK.json

One process, one client, a closed loop: each pass runs the workload's fixed
operation list once, in order, and passes repeat until ``--seconds`` have
gone by.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  A
traced run also writes its spans to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from clock import CALIBRATION_REFERENCE_S, calibrate, scaled, timed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORK_DIR = ROOT / ".bench_work"

RUN_SECONDS = 20
SETUP_REPEATS = 5
MIN_PASSES = 3
PROBE_PASSES = 3
# A pass calibrates before an operation when this much has passed since the
# last calibration.
CALIBRATE_EVERY_S = 0.05

# (name, unit, better, bound): bound is the share of the parent's median by
# which the metric may worsen before a change counts as a regression.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.2),
    ("top_op_s", "s", "lower", 0.24),
    ("peak_rss_mb", "MB", "lower", 0.1),
)


def manifest() -> dict:
    import tracing
    from workloads import WORKLOADS

    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        # Every per-layer figure is a time, an amount of work or an overhead.
        "per_layer": [{"name": n, "unit": u, "better": "lower"} for n, u in tracing.per_layer_metrics()],
    }


class Failure:
    """The outcome of an operation that raised."""

    def __init__(self, exc: BaseException):
        self.message = f"{type(exc).__name__}: {exc}"


def set_up(workload, seed: int, workdir: Path):
    """Import the program afresh, build the algebra data and the workload's
    inputs, ``SETUP_REPEATS`` times.  Returns the last context and operation
    list, the median set-up time and what ``check_algebra`` finds wrong."""
    from workloads import Context, Program, check_algebra

    times = []
    for i in range(SETUP_REPEATS):
        rng = random.Random(seed)
        lam = rng.choice(workload.lambdas)
        target = workdir / f"setup{i}"
        target.mkdir(parents=True)
        before = calibrate()
        t0 = time.perf_counter()
        ctx = Context(Program(), lam, SRC).build()
        ops = workload.setup(ctx, rng, target)
        times.append(scaled(time.perf_counter() - t0, before, calibrate()))
        if i + 1 < SETUP_REPEATS:
            shutil.rmtree(target)
    loaded = Path(ctx.prog.cli.__file__).resolve()
    if SRC.resolve() not in loaded.parents:
        raise SystemExit(f"tubelat was imported from {loaded}, not from {SRC}")
    return ctx, ops, statistics.median(times), check_algebra(ctx)


def run_passes(ops, seconds: float, recorder=None, prog=None) -> dict:
    """Whole passes until ``seconds`` have gone by.  With a recorder, every
    second pass is traced."""
    times = {op.name: [] for op in ops}
    traced = {op.name: [] for op in ops}
    raw = {op.name: [] for op in ops}
    first, problems, failures, pass_ids, pass_scale, calibrations = {}, [], {}, {}, {}, []
    failed = passes = 0
    start = time.perf_counter()
    min_passes = MIN_PASSES * (2 if recorder else 1)
    while passes < min_passes or time.perf_counter() - start < seconds:
        tracing_on = recorder is not None and passes % 2 == 1
        if tracing_on:
            recorder.install(prog)
        outcomes, samples, cals = {}, [], [calibrate()]
        last = time.perf_counter()
        for op in ops:
            if time.perf_counter() - last >= CALIBRATE_EVERY_S:
                cals.append(calibrate())
                last = time.perf_counter()
            t0 = time.perf_counter()
            try:
                if tracing_on:
                    recorder.trace_id = f"pass{passes}:{op.name}"
                    pass_ids[recorder.trace_id] = passes
                    out = recorder.span("op", op.call)
                else:
                    out = op.call()
            except Exception as exc:  # counted as a failed operation
                out = Failure(exc)
            samples.append((op.name, time.perf_counter() - t0, len(cals) - 1))
            outcomes[op.name] = out
        cals.append(calibrate())
        if tracing_on:
            recorder.uninstall()
        pass_scale[passes] = CALIBRATION_REFERENCE_S / statistics.mean(cals)
        for name, seconds_taken, i in samples:
            (traced if tracing_on else times)[name].append(scaled(seconds_taken, cals[i], cals[i + 1]))
            if not tracing_on:
                raw[name].append(seconds_taken)
        calibrations += cals
        for op in ops:
            out = outcomes[op.name]
            if isinstance(out, Failure):
                failed += 1
                failures.setdefault(op.name, out.message)
                continue
            try:
                found = op.check(out, outcomes) if op.fault or op.name not in first else []
            except Exception as exc:  # a malformed output is a wrong output
                found = [f"check raised {type(exc).__name__}: {exc}"]
            if op.fault:
                if found:
                    failed += 1
                    failures.setdefault(op.name, found[0])
            elif op.name not in first:
                problems += [f"{op.name}: {p}" for p in found]
                first[op.name] = op.key(out)
            elif op.key(out) != first[op.name]:
                problems.append(f"{op.name}: output differs from the first pass")
        passes += 1
    return {
        "times": times,
        "traced": traced,
        "raw": raw,
        "calibration_s": statistics.median(calibrations),
        "passes": passes,
        "failed": failed,
        "failures": failures,
        "problems": problems,
        "pass_ids": pass_ids,
        "pass_scale": pass_scale,
    }


def pass_seconds(times: dict) -> float:
    """A pass's time as the sum of each operation's median time."""
    return sum(statistics.median(ts) for ts in times.values())


def end_to_end(workload, ops, run, setup_s) -> dict:
    who = resource.RUSAGE_CHILDREN if getattr(workload, "children", False) else resource.RUSAGE_SELF
    return {
        "setup_s": setup_s,
        "ops_per_s": len(ops) / pass_seconds(run["times"]),
        "top_op_s": statistics.median(sample for name in workload.top_ops for sample in run["times"][name]),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }


def per_layer(workload, ctx, run, recorder, workdir: Path) -> tuple[dict, dict]:
    """Every per-layer metric of a traced run (see tracing.py), and the
    source of each span metric."""
    import tracing
    from workloads import WORKLOADS, cold_env, ladder

    prog = ctx.prog
    modules = {}
    for n in (1, 3):
        modules[f"A{n}"], modules[f"B{n}"] = ladder(prog, ctx.spec, ctx.basis, n)
    probes = tracing.probe_ops(prog, ctx, workdir, modules)
    probe_ids, probe_scale = {}, {}
    recorder.install(prog)
    try:
        for p in range(PROBE_PASSES):
            before = calibrate()
            for i, call in enumerate(probes):
                recorder.trace_id = f"probe{p}:{i}"
                probe_ids[recorder.trace_id] = p
                recorder.span("probe", call)
            probe_scale[p] = CALIBRATION_REFERENCE_S / ((before + calibrate()) / 2)
    finally:
        recorder.uninstall()
    values, source = tracing.layer_values(
        recorder, (run["pass_ids"], run["pass_scale"]), (probe_ids, probe_scale)
    )
    values.update(tracing.micro_probes(prog))
    wire = {name: prog.reps.rep_to_json(m) for name, m in modules.items()}
    systems = [tracing.intertwiner_rows(wire["B3"], wire["A3"]), tracing.intertwiner_rows(wire["A3"], wire["B3"])]
    values["linalg.rref_ms"] = tracing.rref_probe_ms(prog, systems)
    values["cli.import_ms"] = tracing.cold_import_ms(cold_env(SRC), ROOT)
    if workload.name == "cli-cold":
        cold = {name: statistics.median(ts) for name, ts in run["times"].items()}
    else:
        cold_dir = workdir / "cold"
        cold_dir.mkdir()
        cold = {op.name: timed(op.call) for op in WORKLOADS["cli-cold"].setup(ctx, random.Random(0), cold_dir)}
    for sub in tracing.COLD_SUBCOMMANDS:
        values[f"cli.cold.{sub}_ms"] = cold[sub] * 1e3
    values["trace.overhead_pct"] = (pass_seconds(run["traced"]) / pass_seconds(run["times"]) - 1) * 100
    return values, source


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-manifest", action="store_true", help="write BENCHMARK.json and exit")
    args = parser.parse_args(argv)

    if args.write_manifest:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(manifest(), indent=2) + "\n", encoding="utf-8")
        return 0
    if not (SRC / "tubelat" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'tubelat'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    workload = WORKLOADS[args.workload]
    # One core for this process and its children, so that the calibrations
    # measure the core the operations run on.  Where that is not allowed the
    # run goes on unpinned.
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass
    workdir = WORK_DIR / f"{workload.name}-{args.seed}-{os.getpid()}"
    try:
        ctx, ops, setup_s, problems = set_up(workload, args.seed, workdir)
        recorder = tracing.Recorder() if args.trace else None
        run = run_passes(ops, args.seconds, recorder, ctx.prog)
        problems += run["problems"]
        if args.trace:
            metrics, source = per_layer(workload, ctx, run, recorder, workdir)
            units = dict(tracing.per_layer_metrics())
            OUT_DIR.mkdir(exist_ok=True)
            trace_file = OUT_DIR / f"trace-{workload.name}-seed{args.seed}.json"
            trace_file.write_text(
                json.dumps({"workload": workload.name, "seed": args.seed, "lambda": ctx.lam,
                            "passes": run["passes"], "values": metrics, "source": source, **recorder.dump()}),
                encoding="utf-8",
            )
        else:
            metrics = end_to_end(workload, ops, run, setup_s)
            units = {n: u for n, u, _, _ in END_TO_END}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK_DIR.is_dir() and not any(WORK_DIR.iterdir()):
            WORK_DIR.rmdir()
    for name, message in run["failures"].items():
        print(f"failed: {name}: {message}", file=sys.stderr)
    for problem in problems:
        print(f"wrong: {problem}", file=sys.stderr)
    print(
        f"{workload.name}: {run['passes']} passes of {len(ops)} operations, seed {args.seed}, lambda {ctx.lam}; "
        f"unscaled {len(ops) / pass_seconds(run['raw']):.4g} ops/s, top operation "
        f"{statistics.median(run['raw'][workload.top_ops[0]]):.4g} s; calibration {run['calibration_s'] * 1e3:.4g} ms"
    )
    result = {
        "correct": not problems,
        "attempted": run["passes"] * len(ops),
        "failed": run["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
