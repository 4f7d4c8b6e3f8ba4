"""Print the benchmark trajectory: ``wall_s`` per workload, parent -> change.

Reads every ``BENCH_<k>.json`` in a directory (the repository root by
default), in increasing k, and prints for each workload one line per file:
the median ``wall_s`` of the parent and of the change at the benchmark's
reference speed, their ratio, and in how many of the paired runs the change
was faster.  A last line per workload spans the first parent to the last
change.  The figures are those the files record; nothing is rerun.

    python3 tools/bench_trajectory.py [DIR]

Standard library only.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"BENCH_(\d+)\.json")


def load(directory: Path) -> list[tuple[int, dict]]:
    """(k, contents) of every BENCH_<k>.json in ``directory``, in increasing k."""
    found = [(int(m.group(1)), path) for path in directory.iterdir()
             if (m := NAME.fullmatch(path.name))]
    return [(k, json.loads(path.read_text())) for k, path in sorted(found)]


def wall(entry: dict, workload: str) -> dict | None:
    return entry.get("end_to_end", {}).get(workload, {}).get("wall_s")


def row(label: str, parent: float, change: float, wins: str = "") -> str:
    return f"  {label:<8} {parent:8.4f} -> {change:8.4f} s  x{change / parent:5.3f}  {wins}".rstrip()


def trajectory(benches: list[tuple[int, dict]]) -> list[str]:
    workloads: list[str] = []
    for _, entry in benches:
        workloads += [w for w in entry.get("end_to_end", {}) if w not in workloads]
    lines = ["wall_s medians at the reference speed: parent -> change, "
             "change/parent, pairs the change won"]
    for workload in workloads:
        lines.append(workload)
        runs = [(k, w) for k, entry in benches if (w := wall(entry, workload))]
        for k, w in runs:
            pairs = w.get("pairs") or len(w.get("parent_runs", ()))
            won = w.get("change_better_pairs")
            wins = "" if won is None else f"{won}/{pairs}" if pairs else f"{won}"
            lines.append(row(f"BENCH_{k}", w["parent"]["median"], w["change"]["median"], wins))
        if len(runs) > 1:
            (first, w0), (last, w1) = runs[0], runs[-1]
            lines.append(row(f"{first}..{last}", w0["parent"]["median"], w1["change"]["median"]))
    return lines


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    directory = Path(argv[0]) if argv else ROOT
    benches = load(directory)
    if not benches:
        print(f"no BENCH_*.json in {directory}", file=sys.stderr)
        return 1
    print("\n".join(trajectory(benches)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
