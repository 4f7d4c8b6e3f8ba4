"""Print the scale line: time and peak memory of ``tangent -d`` per degree list.

For each degree list L, runs ``python -m arevlex tangent -d L --format json``
(plus ``--audit`` when given) in a child process of its own, with the
package imported from ``src/`` next to this directory, and prints one JSON
line: the degrees, the child's exit code, its wall seconds from start to
exit, its own peak RSS in MB (from ``wait4``, so no other child counts),
the equation count and the audit line.  The last two are null when the
child fails, and the audit line is null without ``--audit``.  A failing
child's stderr passes through.

    python3 tools/scale_line.py [--audit] L1 L2 ...

Standard library only.  Exits 1 if any child exits nonzero.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
USAGE = "usage: python3 tools/scale_line.py [--audit] L1 L2 ..."


def measure(degrees: str, audit: bool) -> dict:
    """Run ``tangent -d degrees`` in a fresh child and report its cost."""
    argv = [sys.executable, "-m", "arevlex", "tangent", "-d", degrees, "--format", "json"]
    if audit:
        argv.append("--audit")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=f"{SRC}{os.pathsep}{path}" if path else str(SRC))
    start = time.perf_counter()
    child = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env)
    out = child.stdout.read()
    child.stdout.close()
    _, status, usage = os.wait4(child.pid, 0)
    seconds = time.perf_counter() - start
    child.returncode = code = os.waitstatus_to_exitcode(status)
    report = json.loads(out) if code == 0 else {}
    return {
        "degrees": degrees,
        "exit": code,
        "seconds": round(seconds, 3),
        "peak_rss_mb": round(usage.ru_maxrss / 1024, 1),  # ru_maxrss is in kB
        "equations": report.get("equations"),
        "audit": report.get("audit"),
    }


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    audit = "--audit" in argv
    lists = [a for a in argv if a != "--audit"]
    if not lists or any(a.startswith("-") for a in lists):
        print(USAGE, file=sys.stderr)
        return 1
    failed = False
    for degrees in lists:
        line = measure(degrees, audit)
        failed |= line["exit"] != 0
        print(json.dumps(line), flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
