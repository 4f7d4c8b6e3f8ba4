"""Pools, seeded draws and op lists of the three benchmark workloads.

A *pool* is the finite set of inputs a workload may draw from; its expected
CLI stdout is stored in ``expected/<workload>.json.gz`` (written by
``make_expected.py``).  Entries marked ``fixed`` run in every pass.  The
others are stored in ascending order of ``cost_s``, their op time measured
once when the store was built, and cut into a fixed number of contiguous
strata of that order; the costliest few are strata of their own.  A seed
shuffles the members of every stratum, and pass ``j`` of a run takes the
``j``-th member of each (cycling in strata that have fewer).  A pass
therefore holds inputs of nearly the same total cost as any other, and the
passes of one run sample the pool without replacement, so the op latency
percentiles of a run come from far more of the pool than one pass holds.
The stored order only shapes the strata: it does not change when the code
gets faster.  The pools themselves, and the filters that bound them, are
defined in ``make_expected.py``.
"""

from __future__ import annotations

import gzip
import json
import random
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED_DIR = HERE / "expected"

WORKLOADS = ("ci-grid", "tangent-ladder", "audit-oracle")

# per workload: (entries drawn besides the fixed ones, costliest always drawn)
DRAWS = {
    "ci-grid": (60, 3),  # degree lists; each gives 2 or 3 ops
    "tangent-ladder": (94, 0),  # plus the 6 rungs: 100 ops
    "audit-oracle": (99, 3),  # plus (2,2,2): 100 ops
}


@dataclass
class Op:
    """One CLI call: its argv, the stdout it must print and the input sizes."""

    argv: list[str]
    expected: str
    sizes: dict
    input_file: tuple[Path, dict] | None = None  # (path, ideal JSON) to write first


def expected_path(workload: str) -> Path:
    return EXPECTED_DIR / f"{workload}.json.gz"


def store_pool(workload: str, pool: list[dict]):
    """Write the pool, fixed entries first: a header line, then one entry per line."""
    fixed = sum(1 for e in pool if e.get("fixed"))
    if any(e.get("fixed") for e in pool[fixed:]):
        raise ValueError("fixed entries must come first")
    lines = [json.dumps({"fixed": fixed, "rest": len(pool) - fixed})]
    lines += [json.dumps(e, separators=(",", ":")) for e in pool]
    path = expected_path(workload)
    path.parent.mkdir(exist_ok=True)
    with open(path, "wb") as raw:
        with gzip.GzipFile("", "wb", 9, raw, mtime=0) as fh:
            fh.write(("\n".join(lines) + "\n").encode())


def load_pool(workload: str) -> list[dict]:
    with gzip.open(expected_path(workload), "rt") as fh:
        next(fh)
        return [json.loads(line) for line in fh]


def strata(size: int, k: int, fixed_top: int) -> list[range]:
    """``k`` strata of ``range(size)``: the ``fixed_top`` last indices one each,
    the others cut into ``k - fixed_top`` contiguous runs of near-equal length."""
    rest, m = size - fixed_top, k - fixed_top
    if not 0 <= fixed_top <= k or m > rest:
        raise ValueError(f"cannot draw {k} of {size} with {fixed_top} fixed")
    return [range(s * rest // m, (s + 1) * rest // m) for s in range(m)] + [
        range(i, i + 1) for i in range(rest, size)]


def _csv(degrees) -> str:
    return ",".join(str(d) for d in degrees)


def draw(workload: str, seed: int, j: int = 0) -> list[dict]:
    """Pass ``j``'s entries: the ``j``-th of each seeded stratum, then the fixed ones.

    Only the drawn lines of the store are parsed, so the rest of the pool
    (about 4 MB of objects for ci-grid) never adds to the peak RSS.
    """
    rng = random.Random(f"{workload}:{seed}")
    k, top = DRAWS[workload]
    with gzip.open(expected_path(workload), "rt") as fh:
        head = json.loads(next(fh))
        nfixed = head["fixed"]
        picks = []
        for stratum in strata(head["rest"], k, top):
            members = list(stratum)
            rng.shuffle(members)
            picks.append(nfixed + members[j % len(members)])
        wanted = set(range(nfixed)) | set(picks)
        entries = {i: json.loads(line) for i, line in enumerate(fh) if i in wanted}
    return [entries[i] for i in picks + list(range(nfixed))]


def build_ops(workload: str, seed: int, workdir: Path, j: int = 0) -> list[Op]:
    """The op list of pass ``j``: the same seed always gives the same lists.

    The ops are shuffled by the seed, so that cheap and costly ones are
    spread over the pass.  Ideal files named by ``--ideal`` live in
    ``workdir``; the caller writes each ``Op.input_file`` before the pass.
    """
    ops: list[Op] = []
    for e in draw(workload, seed, j):
        s = e["sizes"]
        if workload == "ci-grid":
            L = _csv(e["degrees"])
            path = workdir / f"grid-{L}.json"
            ops.append(Op(["construct", "-d", L, "--format", "json"], e["construct"],
                          {"gens": s["gens"]}))
            ops.append(Op(["hilbert", "--ideal", str(path)], e["hilbert"],
                          {"colength": s["colength"]}, (path, json.loads(e["construct"]))))
            if e["classify"] is not None:
                ops.append(Op(["classify", "-d", L], e["classify"],
                              {k: s[k] for k in ("params", "equations", "rank", "exact")}
                              | {"classify": 1}))
        elif "degrees" in e:
            audit = ["--audit"] if workload == "audit-oracle" else []
            ops.append(Op(["tangent", "-d", _csv(e["degrees"])] + audit, e["tangent"], s))
        else:
            path = workdir / f"audit-{e['key']}.json"
            ops.append(Op(["tangent", "--ideal", str(path), "--audit"], e["tangent"], s,
                          (path, e["ideal"])))
    random.Random(f"{workload}:{seed}:{j}:order").shuffle(ops)
    return ops
