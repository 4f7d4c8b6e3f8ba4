"""Linearized marked reduction, exact tangent dimensions and classification."""

from __future__ import annotations

import copy
import gzip
import json
import random
import signal
from fractions import Fraction
from pathlib import Path

import pytest

from arevlex import (
    DomainError,
    StabilityError,
    almost_revlex_ci,
    audit_tangent,
    c_index,
    ci_hilbert,
    classify_ci,
    classify_stable,
    colength,
    is_stable,
    is_strongly_stable,
    minimalize,
    tangent_bounds,
    tangent_dim,
    term,
)
from arevlex import marked_reduction
from arevlex import tangent as tangent_module
from arevlex.linalg import rank, row_space_equal
from arevlex.tangent import (
    _linear_rows,
    rank_agrees_with_elimination,
)
from arevlex.terms import raw_key, raw_min_var

from helpers import (
    artinian_stable_ideals,
    ci_degree_grid,
    fraction_rank,
    hc1_bounds,
    hom_dim,
    random_artinian_ideal,
    random_strongly_stable,
    raw_mul_blocks,
    stream_union_find_rank,
    tangent_check_ideals,
    tuple_layout,
    untruncated_oracle_rows,
)

CI_POINTS = [(2, 2, 2), (2, 2, 3), (3, 3, 3), (3, 4, 4), (2, 2, 2, 2), (2,) * 5]

# the stored tangent-ladder outputs of the benchmark, read here as plain data
LADDER_STORE = (Path(__file__).resolve().parent.parent
                / "perfbench" / "expected" / "tangent-ladder.json.gz")


@pytest.fixture(scope="module")
def kernel_check_ideals():
    """The criterion-6 set, the six CI points and random strongly stable ideals."""
    ideals = tangent_check_ideals()
    ideals += [almost_revlex_ci(len(d), d) for d in CI_POINTS]
    rng = random.Random(4242)
    for _ in range(27):
        ideals.append(random_strongly_stable(rng, rng.randint(2, 4), rng.randint(2, 5)))
    return ideals


def test_parameters_requires_artinian_stable():
    # the kernel and the audit oracle both refuse a non-Artinian or unstable J
    for check in (tangent_dim, marked_reduction.oracle_rows):
        with pytest.raises(DomainError):
            check(minimalize([term(2, 0)]))
        with pytest.raises(StabilityError):
            check(minimalize([term(2, 0), term(0, 2)]))


def test_single_variable_point():
    J = minimalize([term(1,)])
    rep = tangent_dim(J)
    assert rep.param_count == 1 and rep.equation_count == 0
    assert rep.tangent_dim == 1 == rep.lex_dim


def test_golden_tangent_dimensions():
    for degs, dim, lex, equations, rk in [((2, 2, 2), 36, 24, 32, 12),
                                          ((3, 3, 3), 147, 81, 327, 150),
                                          ((3, 4, 4), 286, 144, 878, 386)]:
        rep = tangent_dim(almost_revlex_ci(len(degs), degs))
        assert rep.tangent_dim == dim and rep.lex_dim == lex
        assert (rep.equation_count, rep.rank) == (equations, rk)
        assert rep.tangent_dim == rep.param_count - rep.rank


def test_golden_tangent_344():
    rep = tangent_dim(almost_revlex_ci(3, (3, 4, 4)))
    assert rep.tangent_dim == 286
    assert rep.lower_bound == 140 and rep.upper_bound == 672
    assert rep.lex_dim == 144


def test_tangent_bounds_goldens():
    assert tangent_bounds(almost_revlex_ci(3, (3, 4, 4))) == (140, 672)
    assert tangent_bounds(almost_revlex_ci(3, (2, 2, 2))) == (18, 48)
    assert tangent_bounds(almost_revlex_ci(4, (2, 2, 2, 2))) == (72, 192)
    # five quadrics: 21 generators, peak value 10
    assert tangent_bounds(almost_revlex_ci(5, (2,) * 5))[0] == 210


def test_vanishing_columns():
    # parameters whose beta re-enters the ideal under the last variable
    # never appear in any equation
    rng = random.Random(77)
    ideals = [almost_revlex_ci(3, (2, 2, 2)), almost_revlex_ci(3, (2, 2, 3))]
    for _ in range(6):
        ideals.append(random_strongly_stable(rng, 3, rng.randint(2, 4)))
    for J in ideals:
        n = J.n
        rows, nparams, D = _linear_rows(J)
        touched = set()
        for row in rows:
            touched.update(row)
        from arevlex import contains, Term

        sous = list(J._staircase)
        assert D == len(sous) and nparams == len(J.min_gens) * D
        for gi in range(len(J.min_gens)):
            for i, beta in enumerate(sous):
                moved = list(beta)
                moved[n - 1] += 1
                if contains(J, Term(tuple(moved))):
                    assert gi * D + i not in touched


def test_sandwich_on_random_ideals():
    rng = random.Random(2718)
    for _ in range(12):
        n = rng.randint(2, 4)
        J = random_strongly_stable(rng, n, rng.randint(2, 4))
        rep = tangent_dim(J)
        assert rep.lower_bound <= rep.tangent_dim <= rep.upper_bound


def test_oracle_agreement_sample():
    rng = random.Random(314)
    ideals = [almost_revlex_ci(3, (2, 2, 2)), minimalize([term(3,)])]
    for _ in range(5):
        ideals.append(random_strongly_stable(rng, rng.randint(2, 3), rng.randint(2, 3)))
    for J in ideals:
        if colength(J) <= 14:
            assert audit_tangent(J, tangent_dim(J).rank)


def test_oracle_modulo_parameter_square_matches_untruncated():
    # reducing modulo (C)^2 must give the same rows as carrying every
    # monomial in the parameters, on a fixed subset small enough to run
    # untruncated
    ideals = [*artinian_stable_ideals(3, 12)[:60], almost_revlex_ci(3, (2, 2, 2))]
    for J in ideals:
        for gi, g in enumerate(J._raw):
            for j in range(1, raw_min_var(g)):
                for coeff in marked_reduction.full_reduce(J, gi, j).values():
                    assert all(len(mono) <= 1 for mono in coeff), (J, gi, j)
        assert marked_reduction.oracle_rows(J) == untruncated_oracle_rows(J), J


def test_oracle_rewrites_once_per_block(monkeypatch):
    # modulo (C)^2 only x_j * x^gamma carries a constant, so each (gamma, j)
    # block needs exactly one head decomposition
    calls = 0
    head = marked_reduction._pommaret_raw

    def counted(J, e):
        nonlocal calls
        calls += 1
        return head(J, e)

    monkeypatch.setattr(marked_reduction, "_pommaret_raw", counted)
    blocks = 0
    for J in artinian_stable_ideals(3, 12):
        marked_reduction.oracle_rows(J)
        blocks += sum(raw_min_var(g) - 1 for g in J._raw)
    assert calls == blocks


def test_oracle_rows_equal_kernel_rows_list_for_list():
    # one rewrite per block reads the kernel's equations off the remainder in
    # the kernel's own order: the same rows, not merely the same row space
    ideals = [*artinian_stable_ideals(3, 12)]
    ideals += [almost_revlex_ci(len(d), d) for d in CI_POINTS]
    for J in ideals:
        assert marked_reduction.oracle_rows(J)[0] == _linear_rows(J)[0], J


@pytest.mark.parametrize("gi, j", [
    (-1, 1),  # no generator -1
    (6, 1),  # (2,2,2) has 6 generators
    (0, 0),  # no variable x_0
    (0, 4),  # no variable x_4 in three variables
    (0, 2),  # x2 is min(x2^2), not above it
    (2, 1),  # x1^2 has no variable below its minimal one
])
def test_full_reduce_rejects_a_block_outside_the_system(gi, j):
    J = almost_revlex_ci(3, (2, 2, 2))
    assert J._raw[0] == (0, 2, 0) and J._raw[2] == (2, 0, 0)
    with pytest.raises(DomainError):
        marked_reduction.full_reduce(J, gi, j)


def test_rank_pivot_and_permutation_independence():
    rng = random.Random(11)
    J = almost_revlex_ci(3, (2, 2, 3))
    rows, nparams, _ = _linear_rows(J)
    r_min = rank(rows)
    # the min pivot on reversed columns is the max pivot on the original ones
    r_max = rank([{nparams - 1 - c: v for c, v in row.items()} for row in rows])
    assert r_min == r_max
    perm = list(range(nparams))
    rng.shuffle(perm)
    shuffled = [{perm[c]: v for c, v in row.items()} for row in rows]
    rng.shuffle(shuffled)
    assert rank(shuffled) == r_min


def union_find_rank(rows):
    """Independent rank for systems of C_a = 0 and C_a = C_b constraints.

    Every tangent equation has at most two entries with coefficients +1/-1,
    so the system is a forest of equalities plus zero-pins: its rank is
    (involved variables) - (components) + (components pinned to zero).
    """
    parent = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    zeroed = set()
    for row in rows:
        items = sorted(row.items())
        for c, v in items:
            assert v in (1, -1)
            parent.setdefault(c, c)
        if len(items) == 1:
            zeroed.add(items[0][0])
        elif len(items) == 2:
            (a, va), (b, vb) = items
            assert va == -vb  # an equality constraint
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
        else:
            raise AssertionError("tangent equations carry at most two terms")
    comps = {find(x) for x in parent}
    pinned = {find(x) for x in zeroed}
    return len(parent) - len(comps) + len(pinned)


def test_rank_agrees_with_union_find_route():
    rng = random.Random(555)
    ideals = [almost_revlex_ci(3, (2, 2, 2)), almost_revlex_ci(3, (3, 3, 3)),
              almost_revlex_ci(3, (3, 4, 4)), almost_revlex_ci(4, (2, 2, 2, 2))]
    for _ in range(8):
        ideals.append(random_strongly_stable(rng, rng.randint(2, 4), rng.randint(2, 4)))
    for J in ideals:
        rows, _, _ = _linear_rows(J)
        assert rank(rows) == union_find_rank(rows)


def test_union_find_rank_equals_elimination(kernel_check_ideals):
    # tangent_dim counts union-find merges; fraction-free elimination on the
    # same rows is the independent oracle
    for J in kernel_check_ideals:
        rows, nparams, _ = _linear_rows(J)
        rep = tangent_dim(J)
        assert rep.rank == rank(rows), J
        assert rep.equation_count == len(rows), J
        assert rep.param_count == nparams, J


def test_block_kernel_equals_stream_union_find(kernel_check_ideals):
    # the kernel applies pins in bulk per block shape and runs the find/union
    # loop over two-sided edges only; the reference runs one find/union per
    # streamed equation.  The fixture holds the six CI points; D = 256, 243
    # and 512 make pin masks wider than 64 bits
    ideals = [*kernel_check_ideals]
    ideals += [almost_revlex_ci(len(d), d) for d in [(4, 4, 4, 4), (3,) * 5, (8, 8, 8)]]
    for J in ideals:
        assert tangent_module._union_find_rank(J) == stream_union_find_rank(J), J


def test_blocks_equal_the_raw_mul_route(kernel_check_ideals):
    # _blocks builds x_j*g in place; the reference multiplies by raw_var(n, j)
    for J in [*kernel_check_ideals, almost_revlex_ci(3, (8, 8, 8))]:
        assert list(tangent_module._blocks(J)) == raw_mul_blocks(J), J


def test_ground_closure_equals_stream_on_every_small_stable_ideal():
    # every Artinian stable ideal with n <= 3 and colength <= 12, 30 of them
    # stable but not strongly stable
    ideals = artinian_stable_ideals(3, 12)
    assert any(not is_strongly_stable(J) for J in ideals)
    for J in ideals:
        assert tangent_module._union_find_rank(J) == stream_union_find_rank(J), J


def test_ground_closure_equals_stream_up_to_six_variables():
    rng = random.Random(16061)
    for _ in range(40):
        n = rng.randint(2, 6)
        J = random_strongly_stable(rng, n, rng.randint(2, 7 - n // 2), rng.randint(1, 4))
        assert tangent_module._union_find_rank(J) == stream_union_find_rank(J), J


@pytest.mark.parametrize("degrees", [(2,) * 8, (2, 2, 2, 3, 8)])
def test_ground_closure_equals_stream_on_sparse_staircases(degrees):
    # N(J) fills 1/51 and 1/4.9 of the box of its top exponents, so the
    # layout packs it tighter than a box and a term times x_j or delta'
    # often leaves N(J)
    J = almost_revlex_ci(len(degrees), degrees)
    assert tangent_module._union_find_rank(J) == stream_union_find_rank(J)


def test_layout_masks_equal_the_tuple_definition():
    # the kernel scatters each column once and shifts for k >= 2; the
    # reference ORs one bit per term of the tuple staircase and exponent
    rng = random.Random(21021)
    ideals = [J for J in artinian_stable_ideals(3, 12) if not is_strongly_stable(J)]
    for n in range(1, 7):
        ideals += [random_strongly_stable(rng, n, rng.randint(1, 7 - n // 2), rng.randint(0, 3))
                   for _ in range(6)]
        ideals += [J for J in (random_artinian_ideal(rng, n, 4) for _ in range(12))
                   if is_stable(J)]
    assert {J.n for J in ideals} == set(range(1, 7)) and not is_strongly_stable(ideals[0])
    for J in ideals:
        assert tangent_module._layout(J) == tuple_layout(J), J


def test_kernel_takes_exponents_past_one_byte():
    # x_3 reaches exponent 301 in N(J), past one byte; no byte-wide table may
    # cap them.  The reference streams the equations off the tuple staircase
    J = almost_revlex_ci(3, (2, 2, 300))
    assert max(J._columns[2]) > 255
    rank, equations = tangent_module._union_find_rank(J)
    assert (rank, equations) == stream_union_find_rank(J)
    rep = tangent_dim(J)
    assert (rep.param_count, rep.rank) == (8400, 4784)


def test_tangent_dim_builds_no_tuple_staircase():
    # the kernel reads N(J) as columns; the tuple index is built only when
    # the rows, the audit or the dump ask for it
    J = almost_revlex_ci(3, (3, 4, 4))
    assert tangent_dim(J).tangent_dim == 286
    assert "_columns" in J.__dict__ and "_staircase" not in J.__dict__


def test_tangent_dim_decomposes_no_block_alone(monkeypatch):
    # one walk decomposes every block; neither the one-term decomposition
    # nor a quotient per block may run
    from arevlex import ideals as ideals_module
    from arevlex import terms as terms_module

    def refuse(*args):
        raise AssertionError("tangent_dim must not decompose block by block")

    for module in (tangent_module, ideals_module):
        monkeypatch.setattr(module, "_pommaret_raw", refuse)
    monkeypatch.setattr(terms_module, "raw_quotient", refuse)
    assert tangent_dim(almost_revlex_ci(4, (4, 4, 4, 4))).tangent_dim == 5200
    assert tangent_dim(almost_revlex_ci(5, (3,) * 5)).tangent_dim == 7643


def test_tangent_dim_at_one_point_six_million_parameters():
    rep = tangent_dim(almost_revlex_ci(4, (8, 8, 8, 8)))
    assert (rep.rank, rep.equation_count, rep.tangent_dim) == (1345786, 4349141, 276230)


def test_tangent_dim_streams_no_equations(monkeypatch):
    def refuse(J):
        raise AssertionError("tangent_dim must not stream the equations")

    monkeypatch.setattr(tangent_module, "_equation_pairs", refuse)
    assert tangent_dim(almost_revlex_ci(3, (3, 4, 4))).tangent_dim == 286


def test_tangent_dim_matches_the_stored_ladder():
    # rungs up to 2.3e5 parameters, beyond the reach of elimination here
    with gzip.open(LADDER_STORE, "rt") as f:
        header, *entries = map(json.loads, f)
    assert len(entries) == header["fixed"] + header["rest"]
    assert {(6, 6, 6, 6), (4,) * 5, (3,) * 6} <= {tuple(e["degrees"]) for e in entries}
    keys = ("params", "equations", "rank", "tangent_dim")
    for entry in entries:
        degs = tuple(entry["degrees"])
        stored = dict(line.split(": ") for line in entry["tangent"].splitlines())
        rep = tangent_dim(almost_revlex_ci(len(degs), degs)).to_json()
        assert [rep[k] for k in keys] == [int(stored[k]) for k in keys], degs


def test_tangent_dim_at_three_million_parameters():
    rep = tangent_dim(almost_revlex_ci(5, (5, 5, 5, 5, 8)))
    assert (rep.param_count, rep.equation_count, rep.rank) == (3135000, 10342292, 2452046)


def test_rows_are_plus_minus_one_pairs(kernel_check_ideals):
    for J in kernel_check_ideals[::7]:
        rows, _, _ = _linear_rows(J)
        for row in rows:
            assert sorted(row.values()) in ([-1], [1], [-1, 1]), row


def test_staircase_order_is_degrevlex(kernel_check_ideals):
    # the kernel emits rows in N(J) order, which must be the raw_key order
    for J in kernel_check_ideals[::5]:
        sous = list(J._staircase)
        assert sous == sorted(sous, key=raw_key)


def test_tangent_dim_runs_no_elimination(monkeypatch):
    def refuse(rows):
        raise AssertionError("tangent_dim must not call linalg.rank")

    monkeypatch.setattr(tangent_module, "matrix_rank", refuse)
    assert tangent_dim(almost_revlex_ci(3, (3, 4, 4))).tangent_dim == 286


def test_rank_agrees_with_elimination():
    J = almost_revlex_ci(3, (2, 2, 3))
    rows, _, _ = _linear_rows(J)
    rank = tangent_dim(J).rank
    assert rank_agrees_with_elimination(rank, rows)
    assert not rank_agrees_with_elimination(rank, rows[: len(rows) // 2])
    assert not rank_agrees_with_elimination(rank + 1, rows)


def test_audit_fails_on_a_wrong_rank():
    # the audit checks the rank it is given, so a kernel that reported one
    # too many would be caught
    for J in (almost_revlex_ci(3, (2, 2, 2)), almost_revlex_ci(2, (3, 4))):
        rank = tangent_dim(J).rank
        assert audit_tangent(J, rank)
        assert not audit_tangent(J, rank + 1)


def test_rank_small_matrices():
    assert rank([{0: 1, 1: 1}, {0: 2, 1: 2}, {1: 1}]) == 2
    assert rank([]) == 0
    assert rank([{0: 2, 1: 4}, {0: 1, 1: 3}, {0: 0}]) == 2
    assert row_space_equal([{0: 1}, {1: 1}], [{0: 3, 1: 4}, {0: 1, 1: 1}])
    assert not row_space_equal([{0: 1}], [{1: 1}])


def random_sparse_matrix(rng) -> list[dict[int, int]]:
    """Integer rows with entries in -4..4 (zeros stored explicitly), plus
    duplicated rows and integer combinations of two rows."""
    ncols = rng.randint(1, 7)
    rows = [{c: rng.randint(-4, 4) for c in rng.sample(range(ncols), rng.randint(0, ncols))}
            for _ in range(rng.randint(0, 7))]
    for _ in range(rng.randint(0, 3) if rows else 0):
        if rng.random() < 0.5:
            rows.append(dict(rng.choice(rows)))
        else:
            r, s = rng.choice(rows), rng.choice(rows)
            u, v = rng.randint(-3, 3), rng.randint(-3, 3)
            rows.append({c: u * r.get(c, 0) + v * s.get(c, 0) for c in r.keys() | s.keys()})
    rng.shuffle(rows)
    return rows


def test_rank_equals_fraction_elimination():
    # exact-quotient steps (the pivot entry divides the row's entry) and
    # cross-multiplied ones both occur with entries in -4..4.  A step that
    # fails to clear its column never ends, so the battery runs under an
    # alarm, which turns a hang into a failure
    def hang(signum, frame):
        raise AssertionError("linalg.rank did not finish")

    rng = random.Random(2805)
    previous = signal.signal(signal.SIGALRM, hang)
    signal.setitimer(signal.ITIMER_REAL, 60)
    try:
        for _ in range(400):
            rows = random_sparse_matrix(rng)
            before = copy.deepcopy(rows)
            expected = fraction_rank(rows)
            assert rank(rows) == expected, rows
            assert rank(row for row in rows) == expected, rows
            assert rows == before, "rank mutated its input"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_full_reduce_enters_only_staircase_terms():
    # products inside J are never entered, and a coefficient that cancels
    # to nothing leaves the remainder
    for J in artinian_stable_ideals(3, 12):
        pos = J._staircase
        for gi, g in enumerate(J._raw):
            for j in range(1, raw_min_var(g)):
                for m, coeff in marked_reduction.full_reduce(J, gi, j).items():
                    assert m in pos and coeff and all(coeff.values()), (J, gi, j, m)


def test_classify_ci_goldens():
    v = classify_ci((5, 5, 5))
    assert (v.verdict, v.criterion) == ("singular", "sum-times-Hc1")
    assert v.witness["product"] == 475 and v.witness["lex_dim"] == 375
    v = classify_ci((4, 4, 4))
    assert (v.verdict, v.criterion) == ("singular", "sum-times-Hc1")
    assert v.witness["product"] == 204 and v.witness["lex_dim"] == 192
    v = classify_ci((3, 3, 3), exact=False)
    assert v.verdict == "unknown"
    v = classify_ci((3, 3, 3))
    assert (v.verdict, v.criterion) == ("singular", "exact-tangent")
    assert v.witness["tangent_dim"] == 147


def test_classify_ci_numeric_only_families():
    assert classify_ci((5,) * 5, exact=False).criterion == "numeric-criterion-(iii)"
    assert classify_ci((8,) * 4, exact=False).criterion == "numeric-criterion-(iii)"
    v = classify_ci((2, 2, 2, 2))
    assert (v.verdict, v.criterion) == ("singular", "sum-times-Hc1")
    assert v.witness["product"] == 72 and v.witness["lex_dim"] == 64
    v = classify_ci((2,) * 5)
    assert v.verdict == "singular"
    assert v.witness["product"] == 210 and v.witness["lex_dim"] == 160


def test_classify_ci_large_first_criterion():
    # a widely spread product triggers the first inequality
    v = classify_ci((10, 30, 40, 50, 60), exact=False)
    assert (v.verdict, v.criterion) == ("singular", "numeric-criterion-(i)")


def test_classify_rejects_small_n():
    with pytest.raises(DomainError):
        classify_ci((2, 2))


def test_classify_stable():
    J = almost_revlex_ci(3, (3, 4, 4))
    v = classify_stable(J)
    assert v.verdict == "unknown" and v.witness == {"lower": 140, "lex_dim": 144}
    v = classify_stable(almost_revlex_ci(5, (2,) * 5))
    assert v.verdict == "singular" and v.witness["lower"] == 210
    v = classify_stable(almost_revlex_ci(3, (2, 2, 2)))
    assert v.verdict == "unknown" and v.witness == {"lower": 18, "lex_dim": 24}
    with pytest.raises(StabilityError):
        # Artinian and stable, but not strongly stable
        classify_stable(minimalize([term(2, 0, 0), term(1, 1, 0), term(0, 2, 0),
                                    term(0, 1, 1), term(1, 0, 2), term(0, 0, 3)]))


def test_hc1_bounds():
    coarse, refined = hc1_bounds((5, 5, 5))
    assert coarse == Fraction(125, 15)
    assert refined == Fraction(55, 3)
    H = ci_hilbert((5, 5, 5))
    peak = H(c_index(H, 1))
    assert peak == 19 and peak > coarse and peak >= refined
    coarse, refined = hc1_bounds((2, 2))
    assert coarse == Fraction(1) and refined is None
    coarse, refined = hc1_bounds((4, 5, 7, 8))
    H = ci_hilbert((4, 5, 7, 8))
    peak = H(c_index(H, 1))
    assert peak == 120 and peak > coarse and peak >= refined


def test_hc1_bounds_hold_on_grid():
    from helpers import ci_degree_grid

    for degs in ci_degree_grid(5, 2, 7, 2500):
        if len(degs) < 2:
            continue
        H = ci_hilbert(degs)
        peak = H(c_index(H, 1))
        coarse, refined = hc1_bounds(degs)
        assert peak > coarse, degs
        if refined is not None:
            assert peak >= refined, degs


def test_dropped_criteria_are_implied_by_earlier_ones():
    # criterion (ii), prod(d_1..d_{n-1}) > n^3*d_n, implies criterion (i),
    # D > n*(sum d)^2, because n*d_n >= sum d; the refined bound on H(c_1)
    # never exceeds H(c_1), so refined^2 > lex implies H(c_1)^2 >= lex
    from itertools import combinations_with_replacement
    from math import prod

    from helpers import ci_degree_grid

    grid = [degs for degs in ci_degree_grid(5, 2, 8, 5000) if len(degs) >= 3]
    sweep = [degs for n, hi in [(3, 16), (4, 16), (5, 9)]
             for degs in combinations_with_replacement(range(2, hi + 1), n)]
    for degs in grid + sweep:
        n, D, total = len(degs), prod(degs), sum(degs)
        assert n**3 * degs[-1] ** 2 >= n * total**2
        H = ci_hilbert(degs)
        hc1 = H(c_index(H, 1))
        _, refined = hc1_bounds(degs)
        if refined is not None:
            assert refined <= hc1, degs
        fired_ii = prod(degs[:-1]) > n**3 * degs[-1]
        fired_refined = refined is not None and refined > 0 and refined**2 > n * D
        if fired_ii:
            assert D > n * total**2, degs
        if fired_refined:
            assert hc1 * hc1 >= n * D, degs
        if fired_ii or fired_refined:
            assert classify_ci(degs, exact=False).verdict == "singular", degs


def test_cascade_verdicts_confirmed_by_exact_tangent():
    # whenever a numeric criterion certifies singularity, the exact tangent
    # dimension certifies it too
    for degs in [(4, 4, 4), (5, 5, 5), (2, 2, 2, 2), (2, 2, 2, 2, 2)]:
        v = classify_ci(degs, exact=False)
        assert v.verdict == "singular"
        rep = tangent_dim(almost_revlex_ci(len(degs), degs))
        assert rep.tangent_dim > rep.lex_dim, degs


def test_report_json_shape():
    rep = tangent_dim(almost_revlex_ci(3, (2, 2, 2)))
    data = rep.to_json()
    assert list(data) == [
        "params", "equations", "rank", "tangent_dim", "lower", "upper", "lex_dim",
    ]
    v = classify_ci((5, 5, 5)).to_json()
    assert set(v) == {"verdict", "certificate"}
    assert set(v["certificate"]) == {"criterion", "witness"}


def test_tangent_dim_equals_hom_dimension():
    # at an Artinian stable J the marked scheme is open in the Hilbert
    # scheme, so both tangent spaces are Hom_R(J, R/J)
    ideals = list(artinian_stable_ideals(3, 12))
    assert len(ideals) == 266
    grid = list(ci_degree_grid(4, 2, 4, 60))
    assert len(grid) == 24
    ideals += [almost_revlex_ci(len(d), d) for d in grid]
    rng = random.Random(7707)
    ideals += [random_strongly_stable(rng, rng.randint(2, 4), rng.randint(3, 6), extras=3)
               for _ in range(20)]
    for J in ideals:
        assert tangent_dim(J).tangent_dim == hom_dim(J), J


# -- facts about the Hilbert scheme at monomial points -------------------------


@pytest.fixture(scope="module")
def hilbert_scheme_points(kernel_check_ideals):
    """(n, D, T) at the points of the seeded pools: every small stable ideal,
    the kernel set, strongly stable ideals up to n = 5 and CI points with
    n = 5."""
    ideals = [*artinian_stable_ideals(3, 12), *kernel_check_ideals]
    rng = random.Random(5150)
    ideals += [random_strongly_stable(rng, rng.randint(2, 5), rng.randint(2, 4))
               for _ in range(40)]
    ideals += [almost_revlex_ci(5, d) for d in ci_degree_grid(5, 2, 3, 100) if len(d) == 5]
    return [(J.n, colength(J), tangent_dim(J).tangent_dim) for J in ideals]


def test_plane_points_are_smooth_of_dimension_two_d(hilbert_scheme_points):
    # Fogarty: Hilb^D(A^2) is smooth and irreducible of dimension 2D
    plane = [(D, T) for n, D, T in hilbert_scheme_points if n == 2]
    assert len(plane) > 100
    assert all(T == 2 * D for D, T in plane)


def test_space_points_have_the_parity_of_the_colength(hilbert_scheme_points):
    # parity theorem for monomial ideals in A^3 (Maulik, Nekrasov, Okounkov,
    # Pandharipande); it fails for n = 4, so it is checked for n = 3 only
    space = [(D, T) for n, D, T in hilbert_scheme_points if n == 3]
    assert len(space) > 300
    assert all((T - D) % 2 == 0 for D, T in space)


def test_tangent_dimension_at_least_main_component(hilbert_scheme_points):
    # every Artinian monomial ideal is smoothable (distraction), so it lies
    # on the main component, of dimension nD
    assert all(T >= n * D for n, D, T in hilbert_scheme_points)
