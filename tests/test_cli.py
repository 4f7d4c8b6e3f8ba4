"""Command-line behavior: formats, exit codes, determinism."""

from __future__ import annotations

import gzip
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from arevlex import ideal_to_json, minimalize, term
from arevlex.cli import AUDIT_MAX_EQUATIONS, main

from helpers import CURVE_GENS

# the stored ci-grid outputs of the benchmark, read here as plain data
GRID_STORE = Path(__file__).resolve().parent.parent / "perfbench" / "expected" / "ci-grid.json.gz"

# fresh interpreters import this checkout's arevlex, installed or not
SUBPROCESS_ENV = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_construct_text(capsys):
    code, out, _ = run_cli(capsys, "construct", "-d", "3,4,4")
    assert code == 0
    assert out.strip().startswith("(x1^3,")
    assert out.strip().endswith("x3^9)")
    assert len(out.strip().strip("()").split(", ")) == 14


def test_construct_json(capsys):
    code, out, _ = run_cli(capsys, "construct", "-d", "5", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data == {"vars": 1, "generators": [[5]]}


def test_construct_rejects_bad_degrees(capsys):
    code, _, err = run_cli(capsys, "construct", "-d", "4,3")
    assert code == 1
    assert "non-decreasing" in err
    code, _, err = run_cli(capsys, "construct", "-d", "1,2")
    assert code == 1


def test_hilbert_degrees(capsys):
    code, out, _ = run_cli(capsys, "hilbert", "-d", "2", "--upto", "3")
    assert code == 0
    assert out.splitlines()[0] == "1,1,0,0"
    code, out, _ = run_cli(capsys, "hilbert", "-d", "4,5,7,8", "--upto", "10")
    assert out.splitlines()[0].endswith(",120")


def test_hilbert_ideal_file(tmp_path, capsys):
    path = tmp_path / "curve.json"
    J = minimalize([term(*e) for e in CURVE_GENS])
    path.write_text(json.dumps(ideal_to_json(J)))
    code, out, _ = run_cli(capsys, "hilbert", "--ideal", str(path), "--upto", "5")
    assert code == 0
    assert out.splitlines()[0] == "1,3,6,6,5,5"


def test_hilbert_tables_stop_at_their_tail(tmp_path, capsys, monkeypatch):
    # --upto past the tail prints the CI values and then zeros, from a table
    # that stops one past the socle and an ideal with no slice past its first
    # empty one
    from arevlex import almost_revlex_ci, cli

    ci_hilbert, hf_of_ideal = cli.h_mod.ci_hilbert, cli.h_mod.hf_of_ideal
    tables, ideals = [], []
    monkeypatch.setattr(cli.h_mod, "ci_hilbert",
                        lambda *a: tables.append(ci_hilbert(*a)) or tables[-1])
    monkeypatch.setattr(cli.h_mod, "hf_of_ideal",
                        lambda J, up_to: ideals.append(J) or hf_of_ideal(J, up_to))
    expected = ",".join(["1", "3", "3", "1"] + ["0"] * 199997)
    code, out, _ = run_cli(capsys, "hilbert", "-d", "2,2,2", "--upto", "200000")
    assert code == 0 and out.splitlines()[0] == expected
    assert [len(H.values) for H in tables] == [5]
    path = tmp_path / "ideal.json"
    path.write_text(json.dumps(ideal_to_json(almost_revlex_ci(3, (2, 2, 2)))))
    code, out, _ = run_cli(capsys, "hilbert", "--ideal", str(path), "--upto", "200000")
    assert code == 0 and out == expected + "\n"
    store = ideals[0]._slice_store
    assert not store[-1] and all(store[:-1])


def test_hilbert_zero_ideal_far_out_counts_without_a_staircase(tmp_path, capsys):
    # the zero ideal in 3 variables at --upto 300: C(t+2, 2) for t = 0..300,
    # counted from the (empty) basis; building N(J) through degree 300 held
    # 4.6M terms and peaked at about 198 MB
    import tracemalloc
    from math import comb

    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"vars": 3, "generators": []}))
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "hilbert", "--ideal", str(path), "--upto", "300")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "cddcba07f7eb2ff469cdd664f64ee2f683a8afae09ef78fc52127b35d784f24b")
    assert out == ",".join(str(comb(t + 2, 2)) for t in range(301)) + "\n"
    assert peak < 2**20, peak


def test_hilbert_ideal_reads_every_stored_grid_basis(tmp_path, capsys, monkeypatch):
    # construct, then hilbert --ideal on its output, prints the stored table
    # for every list of the grid; the loader proves each stored basis by the
    # staircase recursion, so no divisor index is built and no batched
    # minimality pass runs
    from arevlex.ideals import _Divisors

    builds = passes = 0
    init, alone = _Divisors.__init__, _Divisors.alone

    def counting_init(self, terms):
        nonlocal builds
        builds += 1
        init(self, terms)

    def counting_alone(self, terms):
        nonlocal passes
        passes += 1
        return alone(self, terms)

    monkeypatch.setattr(_Divisors, "__init__", counting_init)
    monkeypatch.setattr(_Divisors, "alone", counting_alone)
    with gzip.open(GRID_STORE, "rt") as f:
        header, *entries = map(json.loads, f)
    assert len(entries) == header["fixed"] + header["rest"] == 676
    path = tmp_path / "ideal.json"
    for entry in entries:
        path.write_text(entry["construct"])
        code, out, err = run_cli(capsys, "hilbert", "--ideal", str(path))
        assert (code, out, err) == (0, entry["hilbert"], ""), entry["degrees"]
    assert builds == passes == 0


@pytest.mark.parametrize("source, tail", [
    ("2,2,2", "zero"),
    ("2,3", "zero"),
    ("3,4,4", "zero"),
    ("2,2,2,2", "zero"),
    ((3, [[2, 0, 0], [1, 1, 0], [0, 2, 0], [1, 0, 1], [0, 1, 1], [0, 0, 2]]), "zero"),
    ((2, [[2, 0], [0, 2]]), "zero"),  # Artinian, not stable
    ((3, [[2, 0, 0], [1, 1, 0], [0, 2, 0], [1, 0, 2], [0, 1, 2]]), "constant"),
    ((3, [list(g) for g in CURVE_GENS]), "constant"),  # Krull dimension 1
    ((3, [[2, 0, 0], [0, 2, 1]]), None),  # untagged
])
def test_hilbert_cut_view_tags_only_a_tail_that_holds(tmp_path, capsys, source, tail):
    # a JSON view cut at --upto k keeps the eventual tag only if the values
    # shown plus the tag are H; hf_from_json must read every view back
    from arevlex import ci_hilbert, hf_from_json, ideal_from_json

    from helpers import brute_sous_escalier

    horizon = 14
    if isinstance(source, str):
        argv = ["-d", source]
        H = ci_hilbert(tuple(map(int, source.split(","))))
        ref = [H(t) for t in range(horizon)]
    else:
        nvars, gens = source
        path = tmp_path / "ideal.json"
        path.write_text(json.dumps({"vars": nvars, "generators": gens}))
        argv = ["--ideal", str(path)]
        J = ideal_from_json({"vars": nvars, "generators": gens})
        ref = [len(brute_sous_escalier(J, t)) for t in range(horizon)]
    views = [[]] + [["--upto", str(k)] for k in range(horizon - 2)]
    for view in views if tail else views[1:]:
        code, out, err = run_cli(capsys, "hilbert", *argv, *view, "--format", "json")
        assert (code, err) == (0, ""), view
        data = json.loads(out)
        K = hf_from_json(data)
        shown = len(K.values)
        assert list(K.values) == ref[:shown], view
        holds = tail is not None and len(set(ref[shown - (tail == "constant"):])) == 1
        if not view:  # the default view covers the tail and is tagged
            assert data["eventual"]["kind"] == tail
        assert (data["eventual"] is not None) == holds, (view, data)
        if holds:
            assert [K(t) for t in range(horizon)] == ref, view


@pytest.mark.parametrize("nvars, gens, table", [
    (1, [], None),  # the zero ideal
    (3, [[2, 0, 0], [0, 2, 1]], None),  # not stable, not Artinian
    (3, [[2, 0, 0], [1, 1, 0], [0, 2, 0], [0, 1, 2]], None),  # stable only
    (2, [[2, 0], [0, 2]], "1,2,1,0"),  # not stable, Artinian
])
def test_hilbert_ideal_without_upto(tmp_path, capsys, nvars, gens, table):
    path = tmp_path / "ideal.json"
    path.write_text(json.dumps({"vars": nvars, "generators": gens}))
    code, out, err = run_cli(capsys, "hilbert", "--ideal", str(path))
    if table is None:
        assert code == 1 and out == "" and "--upto is required" in err
    else:
        assert code == 0 and out == table + "\n"


def test_hilbert_bad_file(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "hilbert", "--ideal", str(path))
    assert code == 1 and "cannot read" in err
    # a file that is not UTF-8 is unreadable too, not a decoding traceback
    path.write_bytes(b"\xff\xfe{")
    for cmd in ("hilbert", "tangent"):
        code, out, err = run_cli(capsys, cmd, "--ideal", str(path))
        assert code == 1 and out == "" and "cannot read ideal file" in err, cmd
    # an integer past the int-parsing digit limit, and nesting past the
    # recursion limit, are unreadable too, not tracebacks
    too_long = '{"vars": 1, "generators": [[' + "7" * 5000 + "]]}"
    too_deep = "[" * 100_000 + "]" * 100_000
    for text in (too_long, too_deep):
        path.write_text(text)
        code, out, err = run_cli(capsys, "hilbert", "--ideal", str(path), "--upto", "2")
        assert code == 1 and out == "" and "cannot read ideal file" in err


def test_tangent_dump_unwritable(tmp_path, capsys):
    prefix = tmp_path / "missing" / "x"
    code, out, err = run_cli(capsys, "tangent", "-d", "2,2,2", "--out", str(prefix))
    assert code == 1 and out == ""
    assert f"cannot write matrix dump {prefix}.matrix.txt" in err


def test_tangent_text(capsys):
    code, out, _ = run_cli(capsys, "tangent", "-d", "2,2,2")
    assert code == 0
    lines = dict(line.split(": ") for line in out.splitlines())
    assert lines["tangent_dim"] == "36"
    assert lines["lex_dim"] == "24"


def test_tangent_json_audit_and_dump(tmp_path, capsys):
    prefix = tmp_path / "sys"
    code, out, _ = run_cli(
        capsys, "tangent", "-d", "2,2,2", "--format", "json",
        "--audit", "--out", str(prefix),
    )
    assert code == 0
    data = json.loads(out)
    assert data["tangent_dim"] == 36 and data["audit"] == "ok"
    dump = (tmp_path / "sys.matrix.txt").read_text().splitlines()
    header = dump[0].split()
    assert header[0] == "#" and int(header[2]) == data["params"]
    assert len(dump) - 1 == sum(1 for line in dump[1:] if len(line.split()) == 3)


@pytest.mark.parametrize("degrees, header, digest", [
    ("2,2,2", "# 32 48",
     "65d2f57f6bdef779b149fde529c2f910e890ef2b2955eeae1a42a611a2b98056"),
    ("3,4,4", "# 878 672",
     "f8bbe1bd05e1905f3cd3a19f17b8ef5c66ba22f818d843ad3dae0fa08a42e5ee"),
])
def test_tangent_out_dump_bytes(tmp_path, capsys, degrees, header, digest):
    # digests of the dumps the earlier dict-row assembly wrote; the pair
    # kernel must reproduce them byte for byte
    prefix = tmp_path / "sys"
    code, out, _ = run_cli(capsys, "tangent", "-d", degrees, "--out", str(prefix))
    assert code == 0
    data = (tmp_path / "sys.matrix.txt").read_bytes()
    assert data.decode().splitlines()[0] == header
    assert hashlib.sha256(data).hexdigest() == digest
    # --out does not change stdout
    code, plain, _ = run_cli(capsys, "tangent", "-d", degrees)
    assert plain == out


@pytest.mark.parametrize("ideal", [
    {"vars": 2, "generators": [[1.5, 0], [0, 2]]},
    {"vars": 2, "generators": [[True, 0], [0, 2]]},
    {"vars": 2, "generators": [["1", 0], [0, 2]]},
    {"vars": 2.0, "generators": [[1, 0], [0, 2]]},
    {"vars": True, "generators": [[1]]},
    {"vars": 2, "generators": [3, [0, 2]]},
])
def test_ideal_file_rejects_non_integers(tmp_path, capsys, ideal):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(ideal))
    code, out, err = run_cli(capsys, "hilbert", "--ideal", str(path), "--upto", "2")
    assert code == 1 and out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("command", ["tangent", "hilbert"])
@pytest.mark.parametrize("ideal, message", [
    ({"vars": 2, "generators": "abc"}, "expected a list of exponents, got 'a'"),
    ({"vars": 2, "generators": {"a": [1, 0]}}, "expected a list of exponents, got 'a'"),
    ({"vars": 2, "generators": 5}, "malformed ideal JSON: generators must be a list, got 5"),
    ({"vars": 2, "generators": 1.5}, "malformed ideal JSON: generators must be a list, got 1.5"),
    ({"vars": 2, "generators": [[1, 0], []]}, "a term needs at least one variable"),
    ({"vars": 2, "generators": [[2, 0], [-1, 3]]}, "negative exponent in (-1, 3)"),
    ({"vars": 3, "generators": [[0, 2, 1], [1, 1, -1], [1.5, 0, 0]]},
     "negative exponent in (1, 1, -1)"),
    # this case keeps the name it had when the message was the bare field name
    pytest.param({"vars": 2}, 'malformed ideal JSON: missing "generators"',
                 id="ideal7-malformed ideal JSON: 'generators'"),
    ([[1, 0], [0, 1]], 'malformed ideal JSON: expected an object with "vars" and "generators"'),
    ({"vars": 0, "generators": [[-1]]}, "negative exponent in (-1,)"),
    ({"vars": -1, "generators": [[]]}, "a term needs at least one variable"),
    ({"vars": 0, "generators": [[1.5]]}, "expected an integer, got 1.5"),
    ({"vars": 0, "generators": [3]}, "expected a list of exponents, got 3"),
    ({"vars": -1, "generators": "ab"}, "expected a list of exponents, got 'a'"),
    ({"vars": 2, "generators": ""}, "malformed ideal JSON: generators must be a list, got ''"),
    ({"vars": 2, "generators": {}}, "malformed ideal JSON: generators must be a list, got {}"),
    ({"generators": [[1]]}, 'malformed ideal JSON: missing "vars"'),
])
def test_ideal_file_malformed_message(tmp_path, capsys, command, ideal, message):
    # the bulk checks of the loader refuse these, and the per-generator
    # parse names the first offender, in file order; a number, an empty
    # string or object has none, and is refused as no list rather than read
    # as (0); a missing field, or a file that is no object, names the fields
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(ideal))
    assert run_cli(capsys, command, "--ideal", str(path)) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("command", ["tangent", "hilbert"])
@pytest.mark.parametrize("nvars", [0, -1])
def test_ideal_file_rejects_no_variables(tmp_path, capsys, command, nvars):
    # the variable count is checked before the generators' lengths
    path = tmp_path / "empty.json"
    for gens in ([], [[1]]):
        path.write_text(json.dumps({"vars": nvars, "generators": gens}))
        code, out, err = run_cli(capsys, command, "--ideal", str(path))
        assert code == 1 and out == ""
        assert err == f"error: need at least one variable, got n={nvars}\n"


@pytest.mark.parametrize("command", ["tangent", "hilbert"])
@pytest.mark.parametrize("gens, found", [([[2, 0], [1, 1, 0], [0, 2]], 3),
                                         ([[2], [0, 2]], 1)])
def test_ideal_file_rejects_a_wrong_length_generator(tmp_path, capsys, command, gens, found):
    # one length check, in minimalize, names both variable counts
    path = tmp_path / "ragged.json"
    path.write_text(json.dumps({"vars": 2, "generators": gens}))
    code, out, err = run_cli(capsys, command, "--ideal", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: generator ")
    assert err.endswith(f" is over {found} variables, expected 2\n")


def test_hilbert_rejects_negative_upto(tmp_path, capsys):
    code, out, err = run_cli(capsys, "hilbert", "-d", "3,4", "--upto", "-1")
    assert code == 1 and out == ""
    assert "--upto must be nonnegative" in err
    path = tmp_path / "cube.json"
    path.write_text(json.dumps({"vars": 2, "generators": [[2, 0], [1, 1], [0, 2]]}))
    code, out, err = run_cli(capsys, "hilbert", "--ideal", str(path), "--upto", "-3")
    assert code == 1 and out == "" and "--upto must be nonnegative" in err
    code, out, _ = run_cli(capsys, "hilbert", "-d", "3,4", "--upto", "0")
    assert code == 0 and out.splitlines()[0] == "1"


@pytest.mark.parametrize("degrees", ["3,4,4", "4,4,4,4"])
def test_tangent_audit_runs_within_budget(capsys, degrees):
    code, out, _ = run_cli(capsys, "tangent", "-d", degrees, "--audit")
    assert code == 0
    assert out.splitlines()[-1] == "audit: ok"


def test_tangent_audit_skip_note(capsys):
    code, out, _ = run_cli(capsys, "tangent", "-d", "3,3,3,3,3,3", "--audit")
    assert code == 0
    assert "audit: skipped" in out
    assert f"(439981 equations, audit limit {AUDIT_MAX_EQUATIONS})" in out


def test_tangent_from_ideal_file(tmp_path, capsys):
    from arevlex import almost_revlex_ci

    path = tmp_path / "cube.json"
    path.write_text(json.dumps(ideal_to_json(almost_revlex_ci(3, (2, 2, 2)))))
    code, out, _ = run_cli(capsys, "tangent", "--ideal", str(path))
    assert code == 0
    assert "tangent_dim: 36" in out


def test_tangent_rejects_nonstable_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"vars": 2, "generators": [[0, 2], [3, 0]]}))
    code, _, err = run_cli(capsys, "tangent", "--ideal", str(path))
    assert code == 1 and "not stable" in err


@pytest.mark.parametrize("gens", [[[0, 0]], [[1, 0], [0, 0], [0, 3]]])
def test_tangent_names_the_unit_ideal(tmp_path, capsys, gens):
    # (1) contains every x_v, so "some variable has no pure power" would be
    # false; it is named as the unit ideal, with its empty staircase
    path = tmp_path / "unit.json"
    path.write_text(json.dumps({"vars": 2, "generators": gens}))
    for extra in ([], ["--audit"], ["--format", "json"]):
        code, out, err = run_cli(capsys, "tangent", "--ideal", str(path), *extra)
        assert (code, out) == (1, "")
        assert err == "error: ideal is the unit ideal: its staircase is empty\n"


def test_classify(capsys):
    code, out, _ = run_cli(capsys, "classify", "-d", "5,5,5")
    assert code == 0
    assert "verdict: singular" in out
    assert "criterion: sum-times-Hc1" in out
    code, out, _ = run_cli(capsys, "classify", "-d", "3,3,3", "--no-exact")
    assert "verdict: unknown" in out
    code, out, _ = run_cli(capsys, "classify", "-d", "3,3,3", "--format", "json")
    data = json.loads(out)
    assert data["verdict"] == "singular"
    assert data["certificate"]["criterion"] == "exact-tangent"
    code, _, err = run_cli(capsys, "classify", "-d", "2,3")
    assert code == 1 and "smooth" in err


def test_verify(capsys):
    code, out, _ = run_cli(capsys, "verify", "-d", "3,4,4")
    assert code == 0
    assert out.count(": ok") == 5
    code, out, _ = run_cli(capsys, "verify", "-d", "2,2,2,2")
    assert code == 0
    assert "|B| = 12 = 12 = 12" in out
    code, _, err = run_cli(capsys, "verify", "-d", "1,2")
    assert code == 1


def test_byte_determinism(capsys):
    outputs = []
    for _ in range(2):
        _, out, _ = run_cli(capsys, "classify", "-d", "4,4,4", "--format", "json")
        outputs.append(out)
    assert outputs[0] == outputs[1]
    outputs = []
    for _ in range(2):
        _, out, _ = run_cli(capsys, "tangent", "-d", "2,2,3", "--format", "json")
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_parser_reuse_keeps_calls_independent(capsys):
    # one process, one parser: an argparse error, then --audit, then a call
    # without it, which must print what a fresh process prints
    with pytest.raises(SystemExit) as info:
        main(["tangent", "-d", "2,2,2", "--no-such-option"])
    assert info.value.code == 2
    capsys.readouterr()
    code, out, _ = run_cli(capsys, "tangent", "-d", "2,2,2", "--audit")
    assert code == 0 and "audit: ok" in out
    code, out, _ = run_cli(capsys, "tangent", "-d", "2,2,2")
    assert code == 0 and "audit:" not in out
    proc = subprocess.run(
        [sys.executable, "-m", "arevlex", "tangent", "-d", "2,2,2"],
        capture_output=True, text=True, env=SUBPROCESS_ENV,
    )
    assert proc.returncode == 0
    assert out == proc.stdout


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "arevlex", "hilbert", "-d", "2", "--upto", "3"],
        capture_output=True, text=True, env=SUBPROCESS_ENV,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "1,1,0,0"


def test_byte_determinism_across_processes():
    # identical invocations in fresh interpreters with different hash seeds
    outputs = []
    for seed in ("0", "424242"):
        env = dict(SUBPROCESS_ENV, PYTHONHASHSEED=seed)
        proc = subprocess.run(
            [sys.executable, "-m", "arevlex", "tangent", "-d", "2,2,3",
             "--format", "json"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


def test_source_has_no_bare_assert():
    # invariants must still fire under python -O, which strips assert
    import ast
    from pathlib import Path

    import arevlex

    found = []
    for path in sorted(Path(arevlex.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, found


def test_source_has_no_unused_import():
    # a name a module imports but never reads is left over from a refactor;
    # __init__.py only re-exports, so it is exempt
    import ast
    from pathlib import Path

    import arevlex

    found = []
    for path in sorted(Path(arevlex.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [f"{path.name}:{line} {name}" for name, line in imported.items()
                  if name not in used]
    assert not found, found


def test_public_surface_is_the_declared_list():
    # adding or removing a public name of the package is a declared change
    import types

    import arevlex

    public = sorted(name for name, value in vars(arevlex).items()
                    if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert public == [
        "AlgebraError", "CIProfile", "ClassificationVerdict", "DimensionError",
        "DomainError", "Eventual", "HilbertFunction", "MonomialIdeal",
        "NoAlmostRevlexIdeal", "Series", "StabilityError", "TangentReport", "Term",
        "almost_revlex_ci", "almost_revlex_for", "audit_tangent",
        "border_generator_count", "c_index", "check_pardue_decrease",
        "check_symmetry", "check_unimodal_ranges", "ci_hilbert", "ci_hilbert_oracle",
        "classify_ci", "classify_stable", "cmp_degrevlex", "colength", "contains",
        "derivative", "enumerate_terms", "extend_ring", "first_expansion",
        "full_reduce", "greatest", "hf_from_json", "hf_of_ideal",
        "ideal_from_json", "ideal_to_json", "ideal_to_text", "is_almost_revlex",
        "is_quasi_stable", "is_stable",
        "is_strongly_stable", "krull_dim", "mingen_count_ci", "mingen_count_formula",
        "minimalize", "one", "oracle_rows", "pardue_truncation", "pommaret_decompose",
        "reduction_number", "regularity", "sous_escalier", "tangent_bounds",
        "tangent_dim", "term", "term_from_json", "term_from_text", "term_to_text",
        "variable", "varrho",
    ]


def test_source_has_no_orphaned_private_helper():
    # a module-level _helper, or a private method or cached property of a
    # package class, that no module of the package reads is left over from a
    # refactor; tests and the benchmark may reach into the package, but
    # cannot keep such a helper alive
    import ast
    from pathlib import Path

    import arevlex

    def private(node):
        return (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and node.name.startswith("_") and not node.name.endswith("__"))

    defined = {}
    read = set()
    for path in sorted(Path(arevlex.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            members = node.body if isinstance(node, ast.ClassDef) else []
            for helper in [node, *members]:
                if private(helper):
                    defined[helper.name] = f"{path.name}:{helper.lineno}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    found = [f"{where} {name}" for name, where in defined.items() if name not in read]
    assert not found, found


def test_instance_dict_is_written_in_three_places():
    # the cache protocol: a derived fact of an ideal is a declared cached
    # property; only the trusted builder seeds caches, the checked constructor
    # stores its basis (the Terms it was given) and index, and the staircase
    # recursion stores the stability verdict it finds and a recoded codec;
    # the Term view of the basis writes the dict of each Term it makes
    import ast
    from functools import cached_property
    from pathlib import Path

    import arevlex
    from arevlex.ideals import MonomialIdeal

    mutators = {"update", "setdefault", "pop", "popitem", "clear", "__setitem__"}
    writes: dict[str, set] = {}
    seeds = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}"
        if (isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Attribute) and node.value.attr == "__dict__"):
            key = node.slice.value if isinstance(node.slice, ast.Constant) else "?"
            writes.setdefault(where, set()).add(key)
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in mutators and isinstance(node.func.value, ast.Attribute)
                and node.func.value.attr == "__dict__"):
            writes.setdefault(where, set()).update(k.arg or "**" for k in node.keywords)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_trusted":
            seeds.update(k.arg for k in node.keywords)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for path in sorted(Path(arevlex.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), path.stem)
    assert writes == {
        "ideals._trusted": {"n", "_raw", "**"},
        "ideals.MonomialIdeal.__init__": {"n", "min_gens", "_raw", "_divisors"},
        "ideals.MonomialIdeal.min_gens": {"exponents"},
        "ideals._slices": {"_stable", "_codec"},
    }
    # what a builder seeds is a declared cache of the ideal
    cached = {name for name, value in vars(MonomialIdeal).items()
              if isinstance(value, cached_property)}
    assert seeds and seeds <= cached, seeds - cached
    assert {"_codec", "_slice_store", "_stable", "_divisors", "min_gens"} <= cached


def test_cli_reads_the_basis_as_exponent_tuples(tmp_path, capsys, monkeypatch):
    # construct, hilbert --ideal and tangent -d never read the Term view of
    # their ideal; read later, it equals the checked constructor's basis
    from dataclasses import FrozenInstanceError

    from arevlex import MonomialIdeal, Term, cli

    seen = []

    def record(module, name):
        original = getattr(module, name)

        def wrapper(J, *args):
            seen.append(J)
            return original(J, *args)
        monkeypatch.setattr(module, name, wrapper)

    record(cli.i_mod, "ideal_to_json")
    record(cli.h_mod, "hf_of_ideal")
    record(cli.t_mod, "tangent_dim")
    code, out, _ = run_cli(capsys, "construct", "-d", "3,4,4", "--format", "json")
    path = tmp_path / "J.json"
    path.write_text(out)
    assert code == 0 and run_cli(capsys, "hilbert", "--ideal", str(path))[0] == 0
    assert run_cli(capsys, "tangent", "-d", "3,4,4")[0] == 0
    assert len(seen) == 3 and seen[0] == seen[1] == seen[2]
    for J in seen:
        assert "min_gens" not in J.__dict__
        gens = J.min_gens
        assert J.__dict__["min_gens"] is gens and len(gens) == 14
        assert gens == tuple(map(Term, J._raw))
        K = MonomialIdeal(J.n, gens)
        assert K.min_gens == gens and K == J and hash(K) == hash(J)
        with pytest.raises(FrozenInstanceError):
            J.n = 4


@pytest.mark.parametrize("command", ["tangent", "classify", "verify"])
def test_tangent_below_main_component_is_an_invariant_failure(capsys, monkeypatch, command):
    # T >= nD holds at every Artinian monomial point; an inflated rank breaks it
    from arevlex import tangent as tangent_module

    true_rank = tangent_module._union_find_rank

    def inflated(J):
        rank, equations = true_rank(J)
        return rank + 13, equations

    monkeypatch.setattr(tangent_module, "_union_find_rank", inflated)
    code, _, err = run_cli(capsys, command, "-d", "2,2,2")
    assert code == 2
    assert "internal invariant failure" in err


def test_construction_move_check_is_an_invariant_failure(capsys, monkeypatch):
    # the greedy proves its basis by one move check per degree, which cannot
    # fail; a failing one is an internal fault and exits 2, also under -O
    from arevlex import construct as construct_module

    monkeypatch.setattr(construct_module, "_moves_leave", lambda gens, outside, codec: True)
    with pytest.raises(AssertionError):
        construct_module.almost_revlex_ci(3, (3, 4, 4))
    code, out, err = run_cli(capsys, "construct", "-d", "3,4,4")
    assert code == 2
    assert "internal invariant failure" in err
    assert out == ""
    script = ("import sys; from arevlex import construct, cli; "
              "construct._moves_leave = lambda gens, outside, codec: True; "
              "sys.exit(cli.main(['construct', '-d', '3,4,4']))")
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, env=SUBPROCESS_ENV)
    assert proc.returncode == 2
    assert "internal invariant failure" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("degrees", ["3,4,4", "2,2,2,2"])
def test_verify_derives_the_staircase_from_the_basis(capsys, monkeypatch, degrees):
    # the battery runs on the checked basis, so slices handed over by the
    # construction are never read: dropping a term from one changes nothing
    from arevlex import construct as construct_module

    expected = run_cli(capsys, "verify", "-d", degrees)
    build = construct_module.almost_revlex_ci

    def corrupted(n, degs):
        J = build(n, degs)
        store = J.__dict__["_slice_store"]
        assert all(type(c) is int for c in store[2])  # the coded slice
        store[2] = store[2][1:]
        return J

    monkeypatch.setattr(construct_module, "almost_revlex_ci", corrupted)
    code, out, err = run_cli(capsys, "verify", "-d", degrees)
    assert (code, out, err) == expected
    assert code == 0
    assert "hilbert-match: ok" in out.splitlines()


def test_verify_under_optimize_flag():
    outputs = []
    for flags in ([], ["-O"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "arevlex", "verify", "-d", "3,4,4"],
            capture_output=True, text=True, env=SUBPROCESS_ENV,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
