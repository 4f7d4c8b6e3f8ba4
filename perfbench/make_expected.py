"""Compute, cross-check and store the expected stdout of every pool input.

    python3 perfbench/make_expected.py            # recompute and compare
    python3 perfbench/make_expected.py --write    # recompute and store

Every pool input is run once through ``arevlex.cli.main``.  Before anything
is stored, the outputs are checked against routes independent of the code
path that printed them:

* the Hilbert table printed by ``hilbert --ideal`` against
  ``ci_hilbert_oracle`` (generating-function expansion), its sum against
  the product of the degrees, and the generator count of ``construct``
  against ``mingen_count_ci`` (telescoping double sum);
* every reported rank against a union-find rank of the +-1 rows: each
  tangent equation is C_a = 0 or C_a = C_b, so the rank is the number of
  touched parameters minus the components plus the pinned components;
* the bound sandwich lower <= tangent_dim <= upper, tangent_dim =
  params - rank, and params = the predicted |B| * D that filters the ladder;
* the goldens: the 14-generator (3,4,4) ideal and tangent dimensions
  36/147/286 at (2,2,2)/(3,3,3)/(3,4,4).

The pools are built from the test suite's generators (``tests/helpers.py``)
and the rank check reuses its union-find route (``tests/test_tangent.py``),
so this script needs the whole repository, not only the benchmark's files.

Each entry also stores ``cost_s``, the time its ops took here, once; the
non-fixed entries are stored in ascending cost order, which the stratified
draw of :mod:`workloads` relies on.  In compare mode the store matches when
every output and size agrees, whatever the costs measured this time.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from math import prod
from pathlib import Path

import run
import tracer
import workloads

sys.path.insert(0, str(run.ROOT / "tests"))
run.import_arevlex()  # the test modules below import arevlex from src/

from helpers import ci_degree_grid, ideal_with_staircase, order_ideals  # noqa: E402
from test_tangent import union_find_rank  # noqa: E402

from arevlex import (  # noqa: E402
    almost_revlex_ci,
    ci_hilbert,
    ci_hilbert_oracle,
    colength,
    ideal_from_json,
    ideal_to_json,
    is_strongly_stable,
    mingen_count_ci,
    mingen_count_formula,
    tangent_dim,
)
from arevlex import cli as arevlex_cli  # noqa: E402
from arevlex.tangent import _linear_rows  # noqa: E402

# ci-grid: the acceptance grid of CI degree lists (679 lists, 676 kept)
GRID = dict(max_vars=5, d_lo=2, d_hi=8, max_product=5000)
# Lists whose classify falls through to the exact tangent computation with
# more parameters than this are left out: (2,2,2,3,8), (2,2,6,8) and
# (3,8,8), 5.0k-7.1k params, allocate 3-4.5 MB each, against at most 2.4 MB
# for any other list.  A run drew one of them or not at about even odds, so
# they alone made the peak RSS of ci-grid runs two-valued across seeds, and
# run in every pass they lift tangent+linalg to 8 % of its self time.
# tangent-ladder measures such tangent systems, up to 2.3e5 params.
GRID_MAX_EXACT_PARAMS = 4500

# tangent-ladder: the ROADMAP rungs plus every list of a band of small ones
LADDER_RUNGS = (
    (4, 4, 4, 4),
    (3, 3, 3, 3, 3),
    (8, 8, 8),
    (6, 6, 6, 6),
    (4, 4, 4, 4, 4),
    (3, 3, 3, 3, 3, 3),
)
LADDER_MIN_VARS = 3
LADDER = dict(max_vars=6, d_lo=2, d_hi=12, max_product=5000)  # params >= prod
LADDER_BAND = (1000, 5000)  # predicted params of the band lists
LADDER_MAX_PARAMS = 250_000  # (5,5,5,5,8) has 3.1M and takes minutes

# audit-oracle: Artinian strongly stable ideals with 2 <= n <= 3, colength
# <= 12 and at most 500 oracle rewrite steps, plus the CI point (2,2,2);
# the oracle's cost explodes with colength and rewrite count
AUDIT_VARS = (2, 3)
AUDIT_MAX_COLENGTH = 12
AUDIT_MAX_REWRITES = 500
AUDIT_CI = (2, 2, 2)

GOLDEN_344 = (
    "(x1^3, x1*x2^3, x1^2*x2^2, x2^4*x3, x2^5, x2^3*x3^3, x1*x2^2*x3^3, "
    "x1^2*x2*x3^3, x2^2*x3^5, x1*x2*x3^5, x1^2*x3^5, x2*x3^7, x1*x3^7, x3^9)\n"
)
GOLDEN_TANGENT_DIMS = {(2, 2, 2): 36, (3, 3, 3): 147, (3, 4, 4): 286}


class CheckFailed(Exception):
    pass


def check(ok: bool, what: str):
    if not ok:
        raise CheckFailed(what)


def predicted_params(degrees) -> int:
    """|B| * D from the Hilbert function alone, before any ideal is built."""
    return mingen_count_formula(ci_hilbert(degrees), 0, len(degrees)) * prod(degrees)


def ladder_lists() -> list[tuple[int, ...]]:
    """Rungs plus every list of the band, ordered by predicted params."""
    lo, hi = LADDER_BAND
    keyed = [(predicted_params(d), d) for d in LADDER_RUNGS]
    for p, degs in keyed:
        if p > LADDER_MAX_PARAMS:
            raise ValueError(f"rung {degs} predicts {p} params")
    for degs in ci_degree_grid(**LADDER):
        if len(degs) >= LADDER_MIN_VARS and degs not in LADDER_RUNGS:
            p = predicted_params(degs)
            if lo <= p <= hi:
                keyed.append((p, degs))
    keyed.sort()
    return [d for _, d in keyed]


def audit_ideals() -> list[dict]:
    """Ideal JSON of every Artinian strongly stable ideal in the audit pool."""
    out = []
    for n in AUDIT_VARS:
        for S in order_ideals(n, AUDIT_MAX_COLENGTH):
            J = ideal_with_staircase(S, n)
            if not J.is_zero and is_strongly_stable(J):
                out.append(ideal_to_json(J))
    out.sort(key=lambda d: (d["vars"], d["generators"]))
    return out


def timed_call(cli, argv) -> tuple[str, float]:
    seconds, rc, out = run.invoke(cli, argv)
    check(rc == 0, f"arevlex {' '.join(argv)} exited with {rc}")
    return out, seconds


def call(cli, argv) -> str:
    return timed_call(cli, argv)[0]


def oracle_rewrites(cli, argv) -> int:
    """Rewrite steps of the full-reduction audit run by one CLI call."""
    tr = tracer.Tracer()
    tr.install()
    try:
        since = tr.mark()
        call(cli, argv)
        return tr.aggregate(since)["marked_reduction.rewrites"]
    finally:
        tr.uninstall()


def parse_report(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        key, _, value = line.partition(": ")
        out[key] = int(value) if value.lstrip("-").isdigit() else value
    return out


def check_report(J, report: dict, where: str):
    """Union-find rank, sandwich and parameter count of one tangent report."""
    rows, nparams, _ = _linear_rows(J)
    check(union_find_rank(rows) == report["rank"], f"{where}: union-find rank differs")
    check(report["params"] == nparams == len(J.min_gens) * colength(J),
          f"{where}: params != |B| * D")
    check(report["tangent_dim"] == report["params"] - report["rank"], f"{where}: dim")
    check(report["lower"] <= report["tangent_dim"] <= report["upper"],
          f"{where}: bound sandwich fails")


def tangent_sizes(report: dict, D: int) -> dict:
    return {"gens": report["params"] // D, "colength": D,
            "params": report["params"], "equations": report["equations"],
            "rank": report["rank"]}


def build_ci_grid(cli, tmp: Path) -> list[dict]:
    pool = []
    for degs in ci_degree_grid(**GRID):
        L = ",".join(map(str, degs))
        construct, cost = timed_call(cli, ["construct", "-d", L, "--format", "json"])
        path = tmp / "ideal.json"
        path.write_text(construct)
        hilbert, dt = timed_call(cli, ["hilbert", "--ideal", str(path)])
        cost += dt
        values = [int(v) for v in hilbert.split(",")]
        oracle = list(ci_hilbert_oracle(degs).values)
        while values and values[-1] == 0:
            values.pop()
        while oracle and oracle[-1] == 0:
            oracle.pop()
        check(values == oracle, f"{L}: hilbert --ideal differs from ci_hilbert_oracle")
        check(sum(values) == prod(degs), f"{L}: colength != product of degrees")
        gens = len(json.loads(construct)["generators"])
        check(gens == mingen_count_ci(degs), f"{L}: |B| != mingen_count_ci")
        sizes = {"gens": gens, "colength": prod(degs),
                 "params": 0, "equations": 0, "rank": 0, "exact": 0}
        classify = None
        if len(degs) >= 3:
            classify, dt = timed_call(cli, ["classify", "-d", L])
            cost += dt
            criterion = classify.splitlines()[1].partition(": ")[2]
            if criterion in ("exact-tangent", "none"):
                J = almost_revlex_ci(len(degs), degs)
                rep = tangent_dim(J).to_json()
                check_report(J, rep, f"classify {L}")
                check(f"tangent_dim={rep['tangent_dim']}" in classify,
                      f"{L}: classify witness disagrees with tangent_dim")
                sizes.update(params=rep["params"], equations=rep["equations"],
                             rank=rep["rank"], exact=1)
            if degs in GOLDEN_TANGENT_DIMS:
                check(f"tangent_dim={GOLDEN_TANGENT_DIMS[degs]}" in classify,
                      f"{L}: golden tangent dimension")
        pool.append({"degrees": list(degs), "construct": construct, "hilbert": hilbert,
                     "classify": classify, "sizes": sizes, "cost_s": cost})
    return [e for e in pool if e["sizes"]["params"] <= GRID_MAX_EXACT_PARAMS]


def build_tangent_ladder(cli) -> list[dict]:
    pool = []
    for degs in ladder_lists():
        L = ",".join(map(str, degs))
        out, cost = timed_call(cli, ["tangent", "-d", L])
        rep = parse_report(out)
        check(rep["params"] == predicted_params(degs),
              f"{L}: params differ from the prediction")
        check_report(almost_revlex_ci(len(degs), degs), rep, f"tangent {L}")
        pool.append({"degrees": list(degs), "tangent": out, "cost_s": cost,
                     "sizes": tangent_sizes(rep, prod(degs)),
                     "fixed": degs in LADDER_RUNGS})
    return pool


def build_audit_oracle(cli, tmp: Path) -> list[dict]:
    pool = []
    L = ",".join(map(str, AUDIT_CI))
    out, cost = timed_call(cli, ["tangent", "-d", L, "--audit"])
    rep = parse_report(out)
    check(rep["audit"] == "ok", f"{L}: audit")
    check(rep["tangent_dim"] == GOLDEN_TANGENT_DIMS[AUDIT_CI], "golden (2,2,2)")
    check_report(almost_revlex_ci(3, AUDIT_CI), rep, f"tangent {L}")
    pool.append({"degrees": list(AUDIT_CI), "tangent": out, "cost_s": cost,
                 "sizes": tangent_sizes(rep, prod(AUDIT_CI)), "fixed": True})
    for ideal in audit_ideals():
        path = tmp / "ideal.json"
        path.write_text(json.dumps(ideal))
        argv = ["tangent", "--ideal", str(path), "--audit"]
        if oracle_rewrites(cli, argv) > AUDIT_MAX_REWRITES:
            continue
        out, cost = timed_call(cli, argv)
        rep = parse_report(out)
        J = ideal_from_json(ideal)
        check(is_strongly_stable(J) and colength(J) <= AUDIT_MAX_COLENGTH,
              f"{ideal}: outside the pool filter")
        check(rep["audit"] == "ok", f"{ideal}: audit")
        check_report(J, rep, f"tangent {ideal}")
        pool.append({"ideal": ideal, "tangent": out, "cost_s": cost,
                     "sizes": tangent_sizes(rep, colength(J))})
    return pool


def check_goldens(cli):
    check(call(cli, ["construct", "-d", "3,4,4"]) == GOLDEN_344, "golden (3,4,4) ideal")
    for degs, dim in GOLDEN_TANGENT_DIMS.items():
        rep = parse_report(call(cli, ["tangent", "-d", ",".join(map(str, degs))]))
        check(rep["tangent_dim"] == dim, f"golden tangent dimension of {degs}")


def build(workload: str, cli, tmp: Path) -> list[dict]:
    """The checked pool: fixed entries first, then the rest by ascending cost."""
    if workload == "ci-grid":
        pool = build_ci_grid(cli, tmp)
    elif workload == "tangent-ladder":
        pool = build_tangent_ladder(cli)
    else:
        pool = build_audit_oracle(cli, tmp)
    pool.sort(key=lambda e: (not e.get("fixed"), e["cost_s"]))
    for i, e in enumerate(pool):
        e["key"] = i
    return pool


def outputs(pool: list[dict]) -> list[str]:
    """Everything of a pool but its measured costs and order, canonically."""
    drop = ("cost_s", "key")
    return sorted(json.dumps({k: v for k, v in e.items() if k not in drop}, sort_keys=True)
                  for e in pool)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", help="store the recomputed pools")
    args = parser.parse_args(argv)
    cli = arevlex_cli
    status = 0
    try:
        check_goldens(cli)
        with tempfile.TemporaryDirectory() as tmp:
            for workload in workloads.WORKLOADS:
                pool = build(workload, cli, Path(tmp))
                path = workloads.expected_path(workload)
                if args.write:
                    workloads.store_pool(workload, pool)
                    print(f"{workload}: {len(pool)} inputs checked and stored")
                elif outputs(pool) != outputs(workloads.load_pool(workload)):
                    print(f"{workload}: recomputed outputs differ from {path}")
                    status = 1
                else:
                    print(f"{workload}: {len(pool)} inputs checked, store matches")
    except (CheckFailed, AssertionError) as exc:
        print(f"cross-check failed: {exc}", file=sys.stderr)
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
