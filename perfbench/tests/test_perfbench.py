"""Tests of the benchmark harness itself (not of arevlex).

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import make_expected  # noqa: E402
import pace  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def cheap_pool(monkeypatch, workload: str, size: int = 3) -> list[dict]:
    """Make every draw of ``workload`` take the ``size`` cheapest stored entries."""
    pool = [e for e in workloads.load_pool(workload) if not e.get("fixed")][:size]
    monkeypatch.setattr(workloads, "draw", lambda name, seed, j=0: pool)
    return pool


def bench(capsys, *args: str) -> dict:
    assert run.main(list(args)) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric(workload, trace, monkeypatch, capsys):
    cheap_pool(monkeypatch, workload)
    result = bench(capsys, "--workload", workload, "--seed", "7", "--seconds", "0.2",
                   "--trace", str(trace))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    names = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"] + SPEC["end_to_end"]}
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]


def test_missing_sources_exit_nonzero_without_result(tmp_path):
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    copy = tmp_path / "perfbench"
    for f in BENCH.rglob("*"):
        if f.is_file() and "__pycache__" not in f.parts:
            dest = copy / f.relative_to(BENCH)
            dest.parent.mkdir(parents=True, exist_ok=True)
            dest.write_bytes(f.read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ci-grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_corrupted_expected_output_counts_as_failure(monkeypatch, capsys):
    pool = cheap_pool(monkeypatch, "audit-oracle")
    pool[0] = dict(pool[0], tangent=pool[0]["tangent"].replace("rank", "rnak"))
    result = bench(capsys, "--workload", "audit-oracle", "--seed", "5", "--seconds", "0.1")
    assert not result["correct"]
    assert result["failed"] == result["attempted"] // 3  # one op of three, every pass


def _wrapped_bindings() -> list[str]:
    found = []
    for name, mod in list(sys.modules.items()):
        if name == "arevlex" or name.startswith("arevlex."):
            for attr, obj in vars(mod).items():
                if hasattr(obj, "__wrapped__"):
                    found.append(f"{name}.{attr}")
    cls = sys.modules["arevlex.ideals"].MonomialIdeal
    for prop in tracer.STABILITY_PROPERTIES:
        if hasattr(cls.__dict__[prop].func, "__wrapped__"):
            found.append(f"MonomialIdeal.{prop}")
    return found


def test_tracer_wraps_every_binding_and_restores_them():
    cli = run.import_arevlex()
    tangent = sys.modules["arevlex.tangent"]
    ideals = sys.modules["arevlex.ideals"]
    linalg = sys.modules["arevlex.linalg"]
    originals = (tangent._pommaret_raw, tangent.matrix_rank, ideals._slices)
    tr = tracer.Tracer()
    tr.install()
    try:
        # bound by name in other modules: each binding gets the same wrapper
        assert tangent._pommaret_raw is ideals._pommaret_raw
        assert tangent._pommaret_raw.__wrapped__ is originals[0]
        assert tangent.matrix_rank is linalg.rank
        assert sys.modules["arevlex.cli"].audit_tangent is sys.modules[
            "arevlex.marked_reduction"].audit_tangent
        since = tr.mark()
        _, rc, out = run.invoke(cli, ["tangent", "-d", "2,2,2", "--audit"])
        agg = tr.aggregate(since)
    finally:
        tr.uninstall()
    assert rc == 0 and "tangent_dim: 36" in out
    assert (tangent._pommaret_raw, tangent.matrix_rank, ideals._slices) == originals
    assert _wrapped_bindings() == []
    assert agg["linalg.calls"] == 4  # tangent_dim once, row_space_equal three times
    assert agg["marked_reduction.rewrites"] > 0 and agg["ideals.pommaret_calls"] > 0
    assert agg["construct.calls"] >= 1 and 0 < agg["linalg.pivot_ratio"] <= 1
    for layer in ("cli", "construct", "tangent", "linalg", "marked_reduction", "ideals"):
        assert agg[f"{layer}.self_s"] > 0, layer


def test_setup_sample_puts_back_the_modules_in_use():
    run.import_arevlex()
    in_use = run.loaded_arevlex()
    assert run.fresh_import_seconds() > 0
    assert run.loaded_arevlex() == in_use


def test_traced_run_leaves_no_wrapper_behind(monkeypatch, capsys):
    cheap_pool(monkeypatch, "ci-grid")
    assert bench(capsys, "--workload", "ci-grid", "--seed", "2", "--seconds", "0.1",
                 "--trace", "1")["correct"]
    assert _wrapped_bindings() == []


def test_pacer_samples_then_restores_the_signal_handler():
    before = signal.getsignal(signal.SIGALRM)
    with pace.Pacer() as pacer:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pace.reference_chunk()
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(pacer.speeds) >= 5 and pacer.stolen > 0
    first, last = pacer.stamps[0], pacer.stamps[-1]
    assert pacer.speed(first, last) == pytest.approx(sum(pacer.speeds) / len(pacer.speeds))
    # a window without samples widens until it holds one
    assert min(pacer.speeds) <= pacer.speed(last + 5, last + 6) <= max(pacer.speeds)


def test_untraced_pass_is_also_put_at_the_reference_speed(monkeypatch):
    cheap_pool(monkeypatch, "ci-grid")
    cli = run.import_arevlex()
    ops = run.prepare_ops("ci-grid", 3)
    setup_times: list[float] = []
    with pace.Pacer() as pacer:
        p = run.run_pass(cli, ops, setup_times=setup_times, pacer=pacer)
    assert p.failed == [] and len(setup_times) >= 1
    assert p.wall_ref > 0 and len(p.latencies_ref) == len(ops)
    assert sum(p.latencies) <= p.wall


def test_draw_is_seeded_stratified_and_keeps_fixed_entries():
    pool = workloads.load_pool("tangent-ladder")
    a = workloads.draw("tangent-ladder", 11)
    assert a == workloads.draw("tangent-ladder", 11)
    assert a != workloads.draw("tangent-ladder", 12)
    assert all(e in pool for e in a) and len(a) == 100
    rungs = [tuple(e["degrees"]) for e in a if e.get("fixed")]
    assert sorted(rungs) == sorted(make_expected.LADDER_RUNGS)
    cut = workloads.strata(50, 10, 2)
    assert cut[-2:] == [range(48, 49), range(49, 50)]
    assert [i for r in cut for i in r] == list(range(50))
    assert all(len(r) == 6 for r in cut[:-2])


def test_passes_sample_each_stratum_without_replacement():
    k, top = workloads.DRAWS["ci-grid"]  # strata of 11 or 12 lists, and 3 of one
    passes = [[e["key"] for e in workloads.draw("ci-grid", 4, j)] for j in range(12)]
    assert all(p[k - top:] == passes[0][k - top:] for p in passes)
    for s in range(k - top):
        members = [p[s] for p in passes]
        assert len(set(members[:11])) == 11 and members[0] in members[11:] + members[:11]


def test_stored_pools_pass_the_cheap_cross_checks():
    make_expected.check_goldens(make_expected.arevlex_cli)
    almost_revlex_ci = make_expected.almost_revlex_ci
    band = [e for e in workloads.load_pool("tangent-ladder") if not e.get("fixed")]
    for e in workloads.load_pool("audit-oracle")[:1] + band[:5]:
        degs = tuple(e["degrees"])
        make_expected.check_report(almost_revlex_ci(len(degs), degs),
                                   make_expected.parse_report(e["tangent"]), str(degs))
