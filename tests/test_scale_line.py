"""The scale line script: one child process and one JSON line per degree list."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tools" / "scale_line.py"


def load_script():
    spec = importlib.util.spec_from_file_location("scale_line", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(capsys, *argv):
    code = load_script().main(list(argv))
    return code, [json.loads(line) for line in capsys.readouterr().out.splitlines()]


def test_scale_line_reports_each_child(capsys):
    for flags, audit in (((), None), (("--audit",), "ok")):
        code, lines = run(capsys, *flags, "2,2,2")
        assert code == 0
        [line] = lines
        assert {k: line[k] for k in ("degrees", "exit", "equations", "audit")} == {
            "degrees": "2,2,2", "exit": 0, "equations": 32, "audit": audit}
        assert line["seconds"] > 0 and line["peak_rss_mb"] > 0


def test_scale_line_keeps_going_past_a_failing_child(capsys):
    code, lines = run(capsys, "2,x", "2,2")
    assert code == 1
    assert [(line["exit"], line["equations"]) for line in lines] == [(1, None), (0, 5)]
    assert load_script().main([]) == 1
    assert "usage:" in capsys.readouterr().err
