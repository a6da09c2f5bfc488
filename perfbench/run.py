#!/usr/bin/env python3
"""Benchmark for lrcodes: four seeded closed-loop workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload repair --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

With --trace 0 the last stdout line is a JSON object holding every
end-to-end metric; with --trace 1 it holds every per-layer metric, from
a traced replay of the same operations.  Each run also writes a result
file under perfbench/out/.  See perfbench/README.md for the workloads
and the metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

from tracing import FieldOpCounter, SpanTable, Tracer, span_metrics
from workloads import OUT_DIR, WORKLOADS, Recorder, SetupError, Workload, code_facts, run_cli, run_python

ROOT = Path.cwd()
LAYERS = ("bounds", "cli", "construction", "field", "goodpoly", "linalg", "repair", "verify")

# set-up repeats at least this often and for at least this long; the median is reported
SETUP_MIN_REPS = 5
SETUP_MIN_S = 1.0
SETUP_MAX_REPS = 200
COUNT_STEPS = 2
PROBE_CALLS = 5


def declared_units(trace: int) -> dict[str, str]:
    """Name -> unit of each metric BENCHMARK.json declares for this mode."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}


def import_lrcodes() -> types.SimpleNamespace:
    """The checkout's lrcodes modules; exits non-zero when the sources are absent."""
    src = ROOT / "src"
    if not (src / "lrcodes" / "__init__.py").is_file():
        sys.exit(f"perfbench: no lrcodes sources under {src}; run from the repository root")
    sys.path.insert(0, str(src))
    package = importlib.import_module("lrcodes")
    if Path(package.__file__).resolve().parent != (src / "lrcodes").resolve():
        sys.exit(f"perfbench: imported lrcodes from {package.__file__}, not from {src}")
    return types.SimpleNamespace(
        **{name: importlib.import_module(f"lrcodes.{name}") for name in LAYERS}
    )


# -- context recorded with every result ----------------------------------


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop; context only, never used to scale a metric."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc * 31 + i) % 1_000_003
    return time.perf_counter() - t0


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without leaving it; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_facts() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
    }


# -- measurement ------------------------------------------------------------


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def time_setups(wl: Workload) -> list[float]:
    times: list[float] = []
    while len(times) < SETUP_MAX_REPS and (len(times) < SETUP_MIN_REPS or sum(times) < SETUP_MIN_S):
        t0 = time.perf_counter()
        wl.setup()
        times.append(time.perf_counter() - t0)
    return times


def closed_loop(wl: Workload, seconds: float) -> int:
    """Run steps until the time is up (at least one); returns how many ran."""
    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        wl.step(i)
        i += 1
    return i


def percentile(xs: list[float], pct: int | None) -> float:
    if pct is None or len(xs) < 2:
        return max(xs)
    return statistics.quantiles(xs, n=100, method="inclusive")[pct - 1]


def end_to_end(wl: Workload, rec: Recorder, setups: list[float]) -> tuple[dict, list[str]]:
    """The end-to-end metric values, and report lines naming them as the workload does.

    This host runs in fast and slow phases that last seconds to minutes
    (a fixed loop's time varies by up to 2x), so a run's median and mean
    depend on how much of it fell in a fast phase.  The gated latency and
    throughput therefore come from high percentiles, which every run's
    slow phase sets; the median and mean are reported beside them.
    """
    op = [x for kind in wl.op_kinds for x in rec.samples.get(kind, [])]
    per_symbol = [x for kind in wl.encode_kinds for x in rec.per_symbol.get(kind, [])]
    if not op or not per_symbol:
        raise SetupError(f"no successful {wl.op_label} or encode operation to measure")
    unit, scale = wl.op_unit
    tail = f"p{wl.tail_pct}" if wl.tail_pct else "max"
    label = wl.op_label
    gated = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(children=wl.name == "cli"),
        "op_tail_ms": percentile(op, wl.tail_pct) * 1e3,
        "encode_sym_per_s": 1.0 / percentile(per_symbol, 90),
    }
    # (name as the workload states it, value, unit, samples, gated metric it reports)
    rows = [
        ("setup_s", gated["setup_s"], "s", len(setups), "setup_s"),
        ("peak_rss_mb", gated["peak_rss_mb"], "MiB", 1, "peak_rss_mb"),
        (f"{label}_{tail}_{unit}", gated["op_tail_ms"] * scale / 1e3, unit, len(op), "op_tail_ms"),
        (f"{label}_p50_{unit}", statistics.median(op) * scale, unit, len(op), ""),
        (f"{label}_per_s", len(op) / sum(op), "1/s", len(op), ""),
        ("encode_sym_per_s", gated["encode_sym_per_s"], "symbols/s", len(per_symbol), "encode_sym_per_s (at p90)"),
        ("encode_sym_per_s", 1.0 / statistics.fmean(per_symbol), "symbols/s", len(per_symbol), "(mean)"),
        ("error_rate", rec.failed / rec.attempted, "ratio", rec.attempted, "(failed / attempted)"),
    ]
    lines = [f"  {name:<18} {v:<12.6g} {u:<10} n={n:<7} {g}" for name, v, u, n, g in rows]
    if wl.tail_pct and len(op) * (100 - wl.tail_pct) / 100 < 10:
        lines.append(f"  note: fewer than 10 samples lie beyond {tail}")
    return gated, lines


class CountingRecorder(Recorder):
    """A Recorder that charges Field op counts to the kind of op running."""

    def __init__(self, counter: FieldOpCounter) -> None:
        super().__init__()
        self.counter = counter

    def run(self, kind, fn, *args, symbols=0):
        self.counter.kind = kind
        self.counter.calls[kind] += 1
        try:
            return super().run(kind, fn, *args, symbols=symbols)
        finally:
            self.counter.kind = None


def field_probes(lr, wl: Workload, seed: int) -> dict[str, float]:
    """Mean cost of one Field.mul / Field.inv on seed-drawn operands in the
    workload's largest field, and of Horner evaluation at the codeword degree."""
    q, n, k, r = max(wl.codes)
    F = lr.field.Field(q)
    rng = random.Random(f"probe:{seed}")
    pairs = [(rng.randrange(1, q), rng.randrange(1, q)) for _ in range(20_000)]
    mul, inv = F.mul, F.inv
    t0 = time.perf_counter()
    for a, b in pairs:
        mul(a, b)
    mul_ns = (time.perf_counter() - t0) / len(pairs) * 1e9
    operands = [a for a, _ in pairs[:2_000]]
    t0 = time.perf_counter()
    for a in operands:
        inv(a)
    inv_ns = (time.perf_counter() - t0) / len(operands) * 1e9
    p = lr.construction.validate_params(q, n, k, r)
    degree = p.k_prime - (-p.k_prime // p.r) - 2
    poly = [rng.randrange(q) for _ in range(degree)] + [rng.randrange(1, q)]
    points = [rng.randrange(q) for _ in range(200)]
    t0 = time.perf_counter()
    for x in points:
        lr.field.poly_eval(F, poly, x)
    eval_us = (time.perf_counter() - t0) / len(points) * 1e6
    return {"field.mul_ns": mul_ns, "field.inv_ns": inv_ns, "field.poly_eval_us": eval_us}


def cli_probes(lr, wl: Workload) -> dict[str, float]:
    """Command-line start-up without a code file, the bare import, and the
    in-process load of the workload's code file (medians)."""
    start, imports, loads = [], [], []
    for _ in range(PROBE_CALLS):
        t0 = time.perf_counter()
        proc = run_cli(ROOT, "bounds", "--n", "62", "--k", "40", "--r", "7")
        start.append(time.perf_counter() - t0)
        wl.rec.expect(proc.returncode == 0, "cli.bounds", f"exit {proc.returncode}")
        t0 = time.perf_counter()
        proc = run_python(ROOT, "import lrcodes.cli")
        imports.append(time.perf_counter() - t0)
        wl.rec.expect(proc.returncode == 0, "cli.import", f"exit {proc.returncode}")
    for _ in range(2 * PROBE_CALLS):
        t0 = time.perf_counter()
        lr.cli.load_spec_file(wl.spec_file)
        loads.append(time.perf_counter() - t0)
    return {
        "cli.start_ms": statistics.median(start) * 1e3,
        "cli.import_ms": statistics.median(imports) * 1e3,
        "cli.load_spec_ms": statistics.median(loads) * 1e3,
        "cli.spec_bytes": float(wl.spec_file.stat().st_size),
    }


CLI_METRICS = ("cli.start_ms", "cli.import_ms", "cli.load_spec_ms", "cli.spec_bytes")


def count_field_ops(lr, wl: Workload) -> tuple[dict[str, float], list[str]]:
    """Exact Field.mul / Field.inv counts per op over the first COUNT_STEPS steps."""
    counter = FieldOpCounter(lr.field.Field)
    saved = wl.rec
    wl.rec = CountingRecorder(counter)
    try:
        wl.prepare()
        with counter:
            for i in range(COUNT_STEPS):
                wl.count_step(i)
    finally:
        counted, wl.rec = wl.rec, saved
    saved.attempted += counted.attempted
    saved.failed += counted.failed
    saved.errors += counted.errors
    metrics = {
        "field.mul_per_encode": counter.per_call("encode", "mul"),
        "field.mul_per_repair": counter.per_call("repair", "mul"),
        "field.inv_per_repair": counter.per_call("repair", "inv"),
        "field.mul_per_decode": counter.per_call("decode", "mul"),
        "field.inv_per_decode": counter.per_call("decode", "inv"),
    }
    return metrics, [f"lrcodes.field.Field.{m}" for m in counter.missing]


def traced_run(lr, wl_cls, seed: int, seconds: float, result: dict) -> tuple[dict, Recorder, list[str]]:
    """Each step twice, untraced and traced, on two copies of the workload.

    Both copies draw the same seeded inputs.  Which copy goes first
    alternates, so warm-up and drift fall on both; the traced steps give
    the per-layer metrics and their extra time is the tracing overhead.
    """
    rec = Recorder()
    plain = wl_cls(lr, seed, rec, ROOT)
    traced = wl_cls(lr, seed, rec, ROOT)
    tracer = Tracer()
    tracer.attach(lr)
    plain.setup()
    plain.prepare()
    tracer.install()
    try:
        tracer.wrap("bench.setup", traced.setup)()
        traced.prepare()
    finally:
        tracer.uninstall()
    step = tracer.wrap("bench.step", traced.step)
    spent = {"plain": 0.0, "traced": 0.0}

    def run_plain(i: int) -> None:
        t0 = time.perf_counter()
        plain.step(i)
        spent["plain"] += time.perf_counter() - t0

    def run_traced(i: int) -> None:
        tracer.op = i
        tracer.install()
        t0 = time.perf_counter()
        try:
            step(i)
        finally:
            spent["traced"] += time.perf_counter() - t0
            tracer.uninstall()

    deadline = time.perf_counter() + seconds
    steps = 0
    while steps == 0 or time.perf_counter() < deadline:
        pair = (run_plain, run_traced) if steps % 2 == 0 else (run_traced, run_plain)
        for run in pair:
            run(steps)
        steps += 1

    metrics = span_metrics(SpanTable(tracer.spans), tracer.observed, steps)
    counts, missing = count_field_ops(lr, traced)
    metrics.update(counts)
    metrics.update(field_probes(lr, traced, seed))
    if traced.name == "cli":
        metrics.update(cli_probes(lr, traced))
    else:
        metrics.update({name: 0.0 for name in CLI_METRICS})
    metrics["trace.overhead_s"] = spent["traced"] - spent["plain"]
    metrics["trace.overhead_share"] = (spent["traced"] - spent["plain"]) / spent["plain"]

    spans_file = ROOT / OUT_DIR / f"{traced.name}-seed{seed}.spans.jsonl"
    with open(spans_file, "w", encoding="utf-8") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    result.update(
        steps=steps,
        untraced_steps_s=spent["plain"],
        traced_steps_s=spent["traced"],
        spans=len(tracer.spans),
        spans_file=str(spans_file.relative_to(ROOT)),
    )
    return metrics, rec, tracer.skipped + missing


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd, cwd=ROOT).returncode)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    lr = import_lrcodes()
    if args.workload == "all":
        return run_all(args)
    try:
        return run_workload(lr, args)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


def run_workload(lr, args) -> int:
    """One run of one workload; prints the report and the JSON line, writes the result file."""
    (ROOT / OUT_DIR).mkdir(parents=True, exist_ok=True)
    wl_cls = WORKLOADS[args.workload]
    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    result["machine"] = machine_facts()
    result["calibration_start_s"] = calibrate()
    result["codes"] = [code_facts(lr, code) for code in wl_cls.codes]
    lines = [f"workload {args.workload} seed {args.seed} trace {args.trace}"]
    lines += [
        f"  code (q, n, k, r) = {tuple(c['code'])}: {c['subgroup']} subgroup, "
        f"s={c['s']} t={c['t']} d={c['d']}"
        for c in result["codes"]
    ]
    units = declared_units(args.trace)
    if args.trace:
        metrics, rec, skipped = traced_run(lr, wl_cls, args.seed, args.seconds, result)
        result["skipped"] = skipped
        lines += [f"  {name:<30} {metrics.get(name, float('nan')):<14.6g} {unit}" for name, unit in units.items()]
        lines += [f"  skipped (not in this lrcodes): {ref}" for ref in skipped]
    else:
        rec = Recorder()
        wl = wl_cls(lr, args.seed, rec, ROOT)
        setups = time_setups(wl)
        wl.prepare()
        result["steps"] = closed_loop(wl, args.seconds)
        result["setup_samples_s"] = setups
        result["op_samples_s"] = {kind: rec.samples.get(kind, []) for kind in wl.op_kinds}
        metrics, report = end_to_end(wl, rec, setups)
        lines += report
    if set(metrics) != set(units):
        raise SetupError(f"measured metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json")
    out = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
    result["calibration_end_s"] = calibrate()
    lines.append(
        f"  calibration loop {result['calibration_start_s']:.3f} s at start, "
        f"{result['calibration_end_s']:.3f} s at end (context only)"
    )
    lines += [f"  failure: {e}" for e in rec.errors]
    summary = {"correct": rec.failed == 0, "attempted": rec.attempted, "failed": rec.failed, "metrics": out}
    result.update(summary)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (ROOT / OUT_DIR / name).write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    print("\n".join(lines))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
