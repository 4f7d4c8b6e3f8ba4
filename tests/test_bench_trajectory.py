"""The benchmark trajectory script, run on the repository's own BENCH_*.json files."""

from __future__ import annotations

import importlib.util
import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tools" / "bench_trajectory.py"


def load_script():
    spec = importlib.util.spec_from_file_location("bench_trajectory", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trajectory_prints_every_recorded_wall_time(capsys):
    files = sorted(ROOT.glob("BENCH_*.json"), key=lambda p: int(re.findall(r"\d+", p.name)[0]))
    assert files
    assert load_script().main([str(ROOT)]) == 0
    out = capsys.readouterr().out.splitlines()
    for workload in ("ci-grid", "tangent-ladder", "audit-oracle"):
        start = out.index(workload)
        block = []
        for line in out[start + 1:]:
            if not line.startswith("  "):
                break
            block.append(line.split())
        recorded = []
        for path in files:
            wall = json.loads(path.read_text())["end_to_end"].get(workload, {}).get("wall_s")
            if wall:
                recorded.append((path.stem, wall["parent"]["median"], wall["change"]["median"]))
        # one line per file in increasing order, then first parent -> last change
        assert [b[0] for b in block[:-1]] == [name for name, _, _ in recorded]
        for words, (_, parent, change) in zip(block, recorded):
            assert (float(words[1]), float(words[3])) == (round(parent, 4), round(change, 4))
        assert (float(block[-1][1]), float(block[-1][3])) == (
            round(recorded[0][1], 4), round(recorded[-1][2], 4))


def test_trajectory_skips_missing_workloads_and_needs_a_file(tmp_path, capsys):
    script = load_script()
    assert script.main([str(tmp_path)]) == 1
    assert "no BENCH_*.json" in capsys.readouterr().err
    wall = {"parent": {"median": 2.0}, "change": {"median": 1.0}, "change_better_pairs": 9,
            "parent_runs": [2.0] * 10}
    (tmp_path / "BENCH_3.json").write_text(json.dumps({"end_to_end": {"a": {"wall_s": wall}}}))
    (tmp_path / "BENCH_12.json").write_text(json.dumps({"end_to_end": {"b": {"wall_s": wall}}}))
    (tmp_path / "BENCH_notes.json").write_text("not read")
    assert script.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "a",
        "  BENCH_3    2.0000 ->   1.0000 s  x0.500  9/10",
        "b",
        "  BENCH_12   2.0000 ->   1.0000 s  x0.500  9/10",
    ]
