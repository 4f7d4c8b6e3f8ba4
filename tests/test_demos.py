"""The demo scripts print exactly what they printed when their output was pinned."""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DEMO_STDOUT_SHA256 = {
    "01_construction_walkthrough.py":
        "a28a1a736bfdd5affc81e9ef2de2debef2aed43688f406cedeca5621da2a7f08",
    "02_hilbert_tables.py":
        "3bca94c92234f80fd4cfeb15733b68fd4444fe3c3f4d5b6098c4be415950d9a4",
    "03_singular_points.py":
        "834055d9921602ffcff4fa3c2e910c7d8751c07e4c00615d6c9e32d9de5c056d",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMO_STDOUT_SHA256)


@pytest.mark.parametrize("name", sorted(DEMO_STDOUT_SHA256))
def test_demo_stdout_is_byte_identical(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True, env=env, check=True, timeout=120,
    )
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_STDOUT_SHA256[name]
