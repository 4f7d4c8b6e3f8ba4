"""Command-line front end: construct, hilbert, tangent, classify, verify.

The tool is a pure function of its arguments: no environment variables, no
config files, byte-identical output for identical invocations.  Exit codes:
0 success, 1 domain or validation error, 2 internal invariant failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import construct as c_mod
from . import hilbert as h_mod
from . import ideals as i_mod
from . import tangent as t_mod
from .errors import AlgebraError
from .marked_reduction import audit_tangent

# the audit's time and memory grow linearly with the equation count, about
# 9 us and 0.6 kB per equation on a 2-core VM (tools/scale_line.py with and
# without --audit on (4,4,4,4), (8,8,8) and (3^5)): 100,000 equations add
# about 0.9 s and 60 MB
AUDIT_MAX_EQUATIONS = 100_000


def _parse_degrees(text: str) -> tuple[int, ...]:
    try:
        degrees = tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise AlgebraError(f"cannot parse degree list {text!r}") from exc
    return h_mod.validate_degrees(degrees)


def _load_ideal(path: str) -> i_mod.MonomialIdeal:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise AlgebraError(f"cannot read ideal file {path}: {exc}") from exc
    return i_mod.ideal_from_json(data)


def _emit(text: str):
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _output(args, data: dict, text) -> int:
    """Print one result: ``data`` as a JSON line under ``--format json``, else
    the lines that ``text()`` returns (built only for text output)."""
    for line in [json.dumps(data)] if args.format == "json" else text():
        _emit(line)
    return 0


# ---------------------------------------------------------------------------
# subcommands


def cmd_construct(args) -> int:
    degrees = _parse_degrees(args.degrees)
    J = c_mod.almost_revlex_ci(len(degrees), degrees)
    return _output(args, i_mod.ideal_to_json(J), lambda: [i_mod.ideal_to_text(J)])


def cmd_hilbert(args) -> int:
    if args.upto is not None and args.upto < 0:
        raise AlgebraError(f"--upto must be nonnegative, got {args.upto}")
    if args.degrees:
        degrees = _parse_degrees(args.degrees)
        profile = h_mod.CIProfile.of(degrees)
        shown = args.upto if args.upto is not None else profile.m[-1]
        H = h_mod.ci_hilbert(degrees)

        def profile_lines():
            cs = [h_mod.c_index(H, s) for s in range(len(degrees))]
            rows = (("c", cs), ("m", profile.m), ("u", profile.u_bar))
            return [f"{name}: " + ",".join(map(str, vs)) for name, vs in rows]
    else:
        # without --upto, hf_of_ideal extends through the socle or regularity
        H = h_mod.hf_of_ideal(_load_ideal(args.ideal), args.upto or 0)
        if args.upto is None and H.eventual is None:
            # a default range only makes sense when the tail is known
            raise AlgebraError("--upto is required for this ideal")
        shown = H.top if args.upto is None else args.upto

        def profile_lines():
            return []
    values = H.table(shown)
    data = H.to_json() | {"values": values}
    # a cut view keeps the tail tag only if the tag still holds past the cut
    # (a constant tag from the last value shown on, as HilbertFunction asks)
    ev = H.eventual
    if ev and set(H.values[shown + (ev.kind == "zero"):]) - {ev.value}:
        data["eventual"] = None
    return _output(args, data, lambda: [",".join(map(str, values))] + profile_lines())


def cmd_tangent(args) -> int:
    if args.degrees:
        degrees = _parse_degrees(args.degrees)
        J = c_mod.almost_revlex_ci(len(degrees), degrees)
    else:
        J = _load_ideal(args.ideal)
    report = t_mod.tangent_dim(J)
    audit_line = None
    if args.audit:
        if report.equation_count <= AUDIT_MAX_EQUATIONS:
            if not audit_tangent(J, report.rank):
                print("audit: FAILED", file=sys.stderr)
                return 2
            audit_line = "ok"
        else:
            audit_line = (
                f"skipped ({report.equation_count} equations, "
                f"audit limit {AUDIT_MAX_EQUATIONS})"
            )
    if args.out:
        path = f"{args.out}.matrix.txt"
        try:
            with open(path, "w") as fh:
                fh.write(t_mod.triplet_dump(J))
        except OSError as exc:
            raise AlgebraError(f"cannot write matrix dump {path}: {exc}") from exc
    data = report.to_json()
    if audit_line is not None:
        data["audit"] = audit_line
    return _output(args, data, lambda: [f"{key}: {value}" for key, value in data.items()])


def cmd_classify(args) -> int:
    degrees = _parse_degrees(args.degrees)
    verdict = t_mod.classify_ci(degrees, exact=not args.no_exact)
    witness = " ".join(f"{k}={v}" for k, v in sorted(verdict.witness.items()))
    return _output(args, verdict.to_json(), lambda: [
        f"verdict: {verdict.verdict}",
        f"criterion: {verdict.criterion}",
        f"witness: {witness}",
    ])


def cmd_verify(args) -> int:
    degrees = _parse_degrees(args.degrees)
    n = len(degrees)
    failures = 0

    def check(name: str, ok: bool, detail: str = ""):
        nonlocal failures
        status = "ok" if ok else "FAIL"
        _emit(f"{name}: {status}" + (f" ({detail})" if detail else ""))
        failures += 0 if ok else 1

    # the battery runs on the checked basis, so it derives N(J) and stability
    # from B_J and does not read the construction's own slices
    J = i_mod.MonomialIdeal(n, c_mod.almost_revlex_ci(n, degrees).min_gens)
    check("almost-revlex", i_mod.is_almost_revlex(J))
    H = h_mod.ci_hilbert(degrees)
    check("hilbert-match", h_mod.hf_of_ideal(J, H.top).same_function(H))
    rc_ok = all(
        i_mod.reduction_number(J, s) == h_mod.c_index(H, s) for s in range(n)
    )
    check("reduction-numbers", rc_ok, "r_s = c_s for 0 <= s < n")
    direct = len(J.min_gens)
    formula = c_mod.mingen_count_formula(H, 0, n)
    double_sum = c_mod.mingen_count_ci(degrees)
    check(
        "mingen-count",
        direct == formula == double_sum,
        f"|B| = {direct} = {formula} = {double_sum}",
    )
    report = t_mod.tangent_dim(J)
    check(
        "bound-sandwich",
        report.lower_bound <= report.tangent_dim <= report.upper_bound,
        f"{report.lower_bound} <= {report.tangent_dim} <= {report.upper_bound}",
    )
    return 2 if failures else 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arevlex",
        description=(
            "Exact combinatorics of almost revlex ideals with complete "
            "intersection Hilbert functions, and tangent-space singularity "
            "tests on punctual Hilbert schemes."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("construct", help="build the almost revlex ideal")
    p.add_argument("-d", "--degrees", required=True, help="comma-separated degrees")
    add_format(p)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("hilbert", help="Hilbert function table")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("-d", "--degrees", help="comma-separated degrees")
    group.add_argument("--ideal", help="ideal JSON file")
    p.add_argument("--upto", type=int, default=None)
    add_format(p)
    p.set_defaults(func=cmd_hilbert)

    p = sub.add_parser("tangent", help="tangent-space report at an Artinian stable ideal")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("-d", "--degrees", help="comma-separated degrees")
    group.add_argument("--ideal", help="ideal JSON file")
    p.add_argument("--audit", action="store_true",
                   help="cross-check the rank by elimination and the rows "
                        "against the full symbolic reduction; skipped above "
                        f"{AUDIT_MAX_EQUATIONS} equations")
    p.add_argument("--out", default=None,
                   help="prefix for the sparse matrix dump file")
    add_format(p)
    p.set_defaults(func=cmd_tangent)

    p = sub.add_parser("classify", help="singularity cascade for a CI point")
    p.add_argument("-d", "--degrees", required=True)
    p.add_argument("--no-exact", action="store_true",
                   help="numeric criteria only, skip the tangent computation")
    add_format(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("verify", help="run the invariant battery for a degree list")
    p.add_argument("-d", "--degrees", required=True)
    p.set_defaults(func=cmd_verify)

    return parser


_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    # building the parser costs a third of a small command, so it is built
    # on the first call (not at import, to keep imports cheap) and reused
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except AlgebraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        print(f"internal invariant failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
