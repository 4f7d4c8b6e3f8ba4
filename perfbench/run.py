"""Closed-loop benchmark of the arevlex CLI: one caller, no threads.

    python3 perfbench/run.py --workload ci-grid --seed 1 --seconds 40 --trace 0

Each op is one in-process call of ``arevlex.cli.main(argv)`` with stdout
captured; the harness compares it byte for byte with the stored expected
output after the pass, outside the timed region.  Pass j runs the j-th
seeded draw of the workload once (see ``workloads.py``); passes repeat
until the next one would overrun ``--seconds`` (at least one runs, so a
tangent-ladder pass of 20-25 s runs once in a 40-second budget, and its
``wall_s`` is that pass).  The package is imported from ``src/`` next to this
directory.  ``setup_s`` is the median time of a fresh import of the
package, sampled at the start of each untraced pass and about once a
second between its ops (outside the op timings and subtracted from the
pass wall); traced runs take no samples.

The untraced passes run under a :class:`pace.Pacer`, which samples the
machine's speed 50 times a second with a fixed reference chunk of
pure-Python work.  ``wall_s``, ``op_p50_ms``, ``op_p90_ms`` and
``setup_s`` are reported *at the reference speed*: each interval is
multiplied by the mean speed the pacer saw over it (an op or set-up sample
with 1 s either side), which takes the machine's slow and fast spells
out of the figures.  The figures as measured, and the mean speed, are
printed too.  Loading the stored outputs, the draw and writing the ideal
files named by ``--ideal`` (to ``.perfbench_out/<workload>/``) are the
harness's own work and are not timed.

``--trace 0`` reports the end-to-end metrics, measured with tracing off.
``--trace 1`` runs pairs of an untraced and a traced pass, at least one
pair, in alternating order, so that a drift of the machine's speed does not
show as tracing overhead.  It reports the per-layer metrics of the traced passes (medians
over passes), the tracing overhead, and fails any op whose traced stdout
differs from its untraced stdout.  On tangent-ladder one pair takes longer
than ``--seconds``.  The pass counts are printed; the last stdout line is
one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import pace
import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# Seconds between two fresh-import samples of setup_s.  A fresh import takes
# about 25 ms, and the machine has spells of 0.3-1 s in which it runs up to
# 1.6 times slower; samples taken back to back all fall in one spell.
SETUP_SPACING_S = 1.0
# An op or set-up sample is put at the reference speed with the pacer's
# samples from this long before it began to this long after it ended.  One
# chunk time is a noisy reading of the speed: with 0.25 s, the op_p50_ms of
# runs of the same ci-grid draw spread about 0.09 (quartile distance over
# median), against 0.05 with 1 s; the 45-ms ops at a tangent-ladder median
# did as well with 1 s as with 0.25 s.
SPEED_MARGIN_S = 1.0

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms", "peak_rss_mb": "MB",
}
SIZE_KEYS = ("gens", "colength", "params", "equations", "rank")


class SetupError(Exception):
    """The checkout cannot run the benchmark (missing sources or data)."""


def loaded_arevlex() -> dict:
    return {k: m for k, m in sys.modules.items() if k == "arevlex" or k.startswith("arevlex.")}


def import_arevlex():
    """Import ``arevlex.cli`` afresh from ``src/`` and return the module."""
    if not (SRC / "arevlex" / "__init__.py").is_file():
        raise SetupError(f"no arevlex package under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in loaded_arevlex():
        del sys.modules[name]
    cli = importlib.import_module("arevlex.cli")
    if Path(cli.__file__).resolve().parent != (SRC / "arevlex").resolve():
        raise SetupError(f"imported arevlex from {cli.__file__}, not from {SRC}")
    return cli


def fresh_import_seconds() -> float:
    """Time one fresh import, then put back the modules the passes run."""
    in_use = loaded_arevlex()
    t0 = time.perf_counter()
    import_arevlex()
    seconds = time.perf_counter() - t0
    for name in loaded_arevlex():
        del sys.modules[name]
    sys.modules.update(in_use)
    return seconds


def invoke(cli, argv: list[str]) -> tuple[float, int | None, str]:
    """(seconds, exit code or None on an exception, stdout) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects argv this way
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            rc = None
            traceback.print_exc()
        t1 = time.perf_counter()
    return t1 - t0, rc, out.getvalue()


@dataclass
class Pass:
    wall: float
    latencies: list[float]
    outputs: list[str] | None  # dropped once compared, so passes do not add up in the RSS
    failed: list[str]  # argv of every failed op
    layers: dict | None = None  # per-layer metrics of a traced pass
    wall_ref: float | None = None  # wall and latencies at the reference speed
    latencies_ref: list[float] | None = None


def run_pass(cli, ops, tracer=None, setup_times=None, pacer=None) -> Pass:
    """One pass over ``ops``; between ops, appends set-up samples to ``setup_times``.

    With a started ``pacer``, the time its handler takes is left out of the
    wall, the latencies and the set-up samples, and the pass also gets them
    at the reference speed (see ``pace.py``).
    """
    gc.collect()
    since = tracer.mark() if tracer is not None else None
    stolen = (lambda: pacer.stolen) if pacer is not None else (lambda: 0.0)
    latencies, starts, outputs, codes = [], [], [], []
    t0 = last_sample = time.perf_counter()
    stolen0 = stolen()
    sampling = 0.0  # time spent on set-up samples, not part of the pass
    for i, op in enumerate(ops):
        if setup_times is not None and (
                i == 0 or time.perf_counter() - last_sample >= SETUP_SPACING_S):
            s0, h0 = time.perf_counter(), stolen()
            seconds = fresh_import_seconds() - (stolen() - h0)
            if pacer is not None:
                seconds *= pacer.speed(s0, s0 + seconds, SPEED_MARGIN_S)
            setup_times.append(seconds)
            gc.collect()  # free the discarded modules here, not inside a timed op
            last_sample = time.perf_counter()
            sampling += last_sample - s0
            stolen0 += stolen() - h0
        if tracer is not None:
            tracer.op = i
        h0 = stolen()
        starts.append(time.perf_counter())
        dt, rc, out = invoke(cli, op.argv)
        latencies.append(dt - (stolen() - h0))
        outputs.append(out)
        codes.append(rc)
    t1 = time.perf_counter()
    wall = t1 - t0 - sampling - (stolen() - stolen0)
    failed = [" ".join(op.argv) for op, rc, out in zip(ops, codes, outputs)
              if rc != 0 or out != op.expected]
    layers = tracer.aggregate(since) if tracer is not None else None
    p = Pass(wall, latencies, outputs, failed, layers)
    if pacer is not None:
        p.wall_ref = wall * pacer.speed(t0, t1)
        p.latencies_ref = [dt * pacer.speed(s, s + dt, SPEED_MARGIN_S)
                           for s, dt in zip(starts, latencies)]
    return p


def run_passes(cli, ops_for, budget: float, setup_times=None, pacer=None) -> list[Pass]:
    """Passes ``ops_for(0)``, ``ops_for(1)``, ... until the next one would end
    after ``budget`` seconds; at least one."""
    start = time.perf_counter()
    passes = []
    while True:
        p = run_pass(cli, ops_for(len(passes)), None, setup_times, pacer)
        p.outputs = None
        passes.append(p)
        if time.perf_counter() - start + statistics.median(q.wall for q in passes) > budget:
            return passes


def run_traced_pass(cli, ops, tracer) -> Pass:
    tracer.install()
    try:
        return run_pass(cli, ops, tracer)
    finally:
        tracer.uninstall()


def run_pairs(cli, ops_for, budget: float, tracer) -> tuple[list[Pass], list[Pass]]:
    """Pairs of an untraced and a traced pass over ``ops_for(j)`` until the next
    pair would end after ``budget`` seconds; at least one pair.  Every other
    pair runs the traced pass first, so that a steady drift of the machine's
    speed cancels out of the differences.  An op whose traced stdout differs
    from its untraced stdout fails in the traced pass."""
    start = time.perf_counter()
    plain, traced = [], []
    while True:
        ops = ops_for(len(plain))
        if len(plain) % 2 == 0:
            p = run_pass(cli, ops)
            t = run_traced_pass(cli, ops, tracer)
        else:
            t = run_traced_pass(cli, ops, tracer)
            p = run_pass(cli, ops)
        for op, a, b in zip(ops, p.outputs, t.outputs):
            if a != b:
                argv = " ".join(op.argv)
                print(f"TRACED OUTPUT DIFFERS: arevlex {argv}")
                if argv not in t.failed:
                    t.failed.append(argv)
        p.outputs = t.outputs = None
        plain.append(p)
        traced.append(t)
        pair = statistics.median(p.wall for p in plain) + statistics.median(
            p.wall for p in traced)
        if time.perf_counter() - start + pair > budget:
            return plain, traced


def prepare_ops(workload: str, seed: int, j: int = 0):
    """Draw pass ``j``'s ops from the stored pool and write the files they read."""
    workdir = OUT / workload
    workdir.mkdir(parents=True, exist_ok=True)
    ops = workloads.build_ops(workload, seed, workdir, j)
    for op in ops:
        if op.input_file is not None:
            path, ideal = op.input_file
            path.write_text(json.dumps(ideal))
    return ops


def size_counters(ops) -> dict:
    totals = {k: sum(op.sizes.get(k, 0) for op in ops) for k in SIZE_KEYS}
    out = {f"size.{k}": v for k, v in totals.items()}
    classified = sum(op.sizes.get("classify", 0) for op in ops)
    exact = sum(op.sizes.get("exact", 0) for op in ops)
    out["classify.exact_share"] = exact / classified if classified else 0.0
    return out


def max_rss_mb() -> float:
    """The process's peak resident set so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def percentiles(samples: list[float]) -> tuple[float, float]:
    """(p50, p90), interpolated between order statistics."""
    if len(samples) == 1:
        return samples[0], samples[0]
    q = statistics.quantiles(samples, n=100, method="inclusive")
    return q[49], q[89]


def per_layer_units(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        cli = import_arevlex()
        first = prepare_ops(args.workload, args.seed)
    except (SetupError, OSError, ValueError) as exc:
        print(f"perfbench: cannot set up {args.workload}: {exc}", file=sys.stderr)
        return 2

    def ops_for(j):
        return first if j == 0 else prepare_ops(args.workload, args.seed, j)

    gc.collect()
    setup_rss = max_rss_mb()

    if args.trace:
        tr = tracing.Tracer()
        passes, traced = run_pairs(cli, ops_for, args.seconds, tr)
    else:
        setup_times = []
        with pace.Pacer() as pacer:
            passes = run_passes(cli, ops_for, args.seconds, setup_times, pacer)
    failed = sum(len(p.failed) for p in passes)
    attempted = sum(len(p.latencies) for p in passes)
    sizes = size_counters(first)
    print(f"workload {args.workload}  seed {args.seed}  ops in pass 0 {len(first)}  "
          f"peak RSS after set-up {setup_rss:.1f} MB")
    print(f"untraced passes {len(passes)}, walls (s): "
          + " ".join(f"{p.wall:.3f}" for p in passes))
    for argv in sorted({a for p in passes for a in p.failed}):
        print(f"FAILED: arevlex {argv}")

    if not args.trace:
        latencies = [x for p in passes for x in p.latencies_ref]
        p50, p90 = percentiles(latencies)
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(p.wall_ref for p in passes),
            "op_p50_ms": p50 * 1e3,
            "op_p90_ms": p90 * 1e3,
            "peak_rss_mb": max_rss_mb(),
        }
        units = END_TO_END_UNITS
        beyond = sum(1 for x in latencies if x > p90)
        raw50, raw90 = percentiles([x for p in passes for x in p.latencies])
        print(f"latency samples {len(latencies)} ({beyond} above p90), "
              f"set-up samples {len(setup_times)}")
        print(f"machine speed {statistics.fmean(pacer.speeds):.3f} of the reference "
              f"({len(pacer.speeds)} samples, {pacer.stolen:.2f} s); as measured: "
              f"wall_s {statistics.median(p.wall for p in passes):.4g}, "
              f"op_p50_ms {raw50 * 1e3:.4g}, op_p90_ms {raw90 * 1e3:.4g}")
    else:
        failed += sum(len(p.failed) for p in traced)
        attempted += sum(len(p.latencies) for p in traced)
        metrics = {k: statistics.median(p.layers[k] for p in traced) for k in traced[0].layers}
        metrics["trace.overhead_s"] = statistics.median(
            t.wall - p.wall for p, t in zip(passes, traced))
        metrics.update(sizes)
        units = {k: per_layer_units(k) for k in metrics}
        spans = OUT / args.workload / "spans.tsv"
        tr.write_spans(spans)
        layer_total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
        print(f"traced passes {len(traced)}, walls (s): "
              + " ".join(f"{p.wall:.3f}" for p in traced))
        print(f"{len(tr.span_name)} spans written to {spans}")
        print("self-time share per layer (median traced pass):")
        for layer in tracing.LAYERS[:-1]:
            s = metrics[f"{layer}.self_s"]
            print(f"  {layer:<17} {100 * s / layer_total:6.2f} %")
        print(f"note: {tracing.CACHE_NOTE}")

    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    if not args.trace:
        for name, value in sizes.items():
            print(f"{name} {value:.6g}")
    print(f"fail_ratio {failed / attempted:.6g} ({failed}/{attempted})")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
