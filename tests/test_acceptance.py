"""Acceptance suite: one test per numbered criterion, exact arithmetic throughout.

Every expected constant here was either taken from the stated criteria or
recomputed by an independent route (brute force, enumeration, the
generating-function oracle, the full symbolic reduction).  Four stated
reference constants are refuted by plain arithmetic on values that the same
criteria pin; the dedicated ``*_as_stated`` tests assert the corrected
constant, keep the refuted stated value in their docstring, and name both in
their failure message.  See the test docstrings.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one line per
criterion.
"""

from __future__ import annotations

import random
from math import comb, prod

import pytest

from arevlex import (
    NoAlmostRevlexIdeal,
    Eventual,
    HilbertFunction,
    Term,
    almost_revlex_ci,
    almost_revlex_for,
    audit_tangent,
    c_index,
    check_pardue_decrease,
    check_symmetry,
    check_unimodal_ranges,
    ci_hilbert,
    ci_hilbert_oracle,
    classify_ci,
    classify_stable,
    cmp_degrevlex,
    contains,
    derivative,
    enumerate_terms,
    first_expansion,
    hf_of_ideal,
    krull_dim,
    mingen_count_ci,
    mingen_count_formula,
    minimalize,
    reduction_number,
    tangent_bounds,
    tangent_dim,
    term,
    varrho,
)
from arevlex.cli import main as cli_main
from arevlex.tangent import _linear_rows

from helpers import (
    artinian_stable_ideals,
    brute_first_expansion,
    ci_degree_grid,
    curve_ideal,
    curve_ideal_alt,
    random_strongly_stable,
    tangent_check_ideals,
)

COUNT_GRID = list(ci_degree_grid(5, 2, 8, 5000))


@pytest.fixture(scope="module")
def constructed_grid():
    """Construct every grid ideal once; criteria 4 and 8 share it."""
    out = []
    for degs in COUNT_GRID:
        out.append((degs, almost_revlex_ci(len(degs), degs), ci_hilbert(degs)))
    return out


def note(num, text):
    print(f"[criterion {num}] PASS: {text}")


# -- criterion 1 -------------------------------------------------------------

EXPECTED_344 = (
    "(x1^3, x1*x2^3, x1^2*x2^2, x2^4*x3, x2^5, x2^3*x3^3, x1*x2^2*x3^3, "
    "x1^2*x2*x3^3, x2^2*x3^5, x1*x2*x3^5, x1^2*x3^5, x2*x3^7, x1*x3^7, x3^9)"
)


def test_criterion_01_golden_construction(capsys):
    assert cli_main(["construct", "-d", "3,4,4"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == EXPECTED_344
    with capsys.disabled():
        note(1, "construct -d 3,4,4 emits the 14 generators in degrevlex order")


# -- criterion 2 -------------------------------------------------------------

GOLDEN_TABLES = {
    (4, 5, 7, 8): {
        4: [1, 4, 10, 20, 34, 51, 70, 89, 105, 116, 120, 116, 105, 89, 70],
        3: [1, 3, 6, 10, 14, 17, 19, 19, 17, 14, 10, 6, 3, 1, 0],
    },
    (3, 4, 4): {3: [1, 3, 6, 9, 10, 9, 6, 3, 1, 0]},
    (3, 4): {2: [1, 2, 3, 3, 2, 1, 0]},
}


def test_criterion_02_golden_hilbert_tables():
    for degs, rows in GOLDEN_TABLES.items():
        for i, values in rows.items():
            assert ci_hilbert(degs, i).table(len(values) - 1) == values, (degs, i)
    # rows H' (one variable more, truncated lift) and H'' (the truncation)
    from arevlex import extend_ring

    J2 = minimalize([term(3, 0), term(2, 2)])
    assert hf_of_ideal(J2, 8).table(8) == [1, 2, 3, 3, 2, 2, 2, 2, 2]
    assert hf_of_ideal(extend_ring(J2, 3), 9).table(9) == [1, 3, 6, 9, 11, 13, 15, 17, 19, 21]
    # equal-degree power families
    for n in range(3, 8):
        H = ci_hilbert((3,) * n)
        want = {3: [1, 3, 6, 7, 6, 3, 1],
                4: [1, 4, 10, 16, 19, 16, 10, 4, 1],
                5: [1, 5, 15, 30, 45, 51, 45, 30, 15, 5, 1],
                6: [1, 6, 21, 50, 90, 126, 141, 126, 90, 50, 21, 6, 1],
                7: [1, 7, 28, 77, 161, 266, 357, 393, 357, 266, 161, 77, 28, 7, 1]}[n]
        assert H.table(len(want) - 1) == want, n
    for n in range(3, 6):
        H = ci_hilbert((4,) * n)
        want = {3: [1, 3, 6, 10, 12, 12, 10, 6, 3, 1],
                4: [1, 4, 10, 20, 31, 40, 44, 40, 31, 20, 10, 4, 1],
                5: [1, 5, 15, 35, 65, 101, 135, 155, 155, 135, 101, 65, 35, 15, 5, 1]}[n]
        assert H.table(len(want) - 1) == want, n
    for n in range(3, 14):
        assert ci_hilbert((2,) * n).table(n) == [comb(n, t) for t in range(n + 1)], n
    note(2, "CI tables for (4,5,7,8), (3,4,4), d=3, d=4 and binomial d=2 rows")


def test_criterion_02_printed_difference_row_as_stated():
    """Corrected reference constant: the stated difference row for (4,5,7,8)
    reads -9 at t=12 and -11 at t=14.  The finite difference of the H row
    that the same criterion pins is 105-116 = -11 at t=12 and 70-89 = -19 at
    t=14, and symmetry about t=10 forces Delta(12) = -Delta(9) and
    Delta(14) = -Delta(7).  Summing the stated row would give H(12) = 107 and
    H(14) = 80 instead of the pinned 105 and 70, so the corrected row ends
    -11, -16, -19."""
    H = ci_hilbert((4, 5, 7, 8))
    d = derivative(H, 1)
    got = [d(t) for t in range(15)]
    expected = [1, 3, 6, 10, 14, 17, 19, 19, 16, 11, 4, -4, -11, -16, -19]
    refuted = [1, 3, 6, 10, 14, 17, 19, 19, 16, 11, 4, -4, -9, -16, -11]
    values = GOLDEN_TABLES[(4, 5, 7, 8)][4]
    assert expected == [values[0]] + [
        values[t] - values[t - 1] for t in range(1, 15)
    ], "expected row is not the first difference of the pinned value row"
    assert got == expected, (
        f"computed difference row {got}; expected {expected} "
        f"(the stated row {refuted} is refuted by the pinned value row)"
    )


# -- criterion 3 -------------------------------------------------------------


def test_criterion_03_index_goldens():
    H = ci_hilbert((4, 5, 7, 8))
    assert [c_index(H, s) for s in (0, 1, 2)] == [20, 10, 6]
    from arevlex import CIProfile

    p = CIProfile.of((4, 5, 7, 8))
    assert p.u_bar[1:] == (3, 6, 10) and p.m[3] == 20
    J, Jalt = curve_ideal(), curve_ideal_alt()
    Hq = hf_of_ideal(J, 5)
    assert c_index(Hq, 1, 1) == 2 and c_index(Hq, 2, 1) == 2
    assert reduction_number(J, 1) == 2 and reduction_number(J, 2) == 2
    assert reduction_number(Jalt, 1) == 3 and reduction_number(Jalt, 2) == 2
    assert krull_dim(J) == 1
    assert varrho(Hq, 1) == 4
    assert mingen_count_formula(Hq, 1, 3) == 5 == 3 + 1 + 6 - 5
    assert len(J.min_gens) == 5
    note(3, "c/r/u-bar/m/varrho and the 3+1+6-5 generator count")


# -- criterion 4 -------------------------------------------------------------


def test_criterion_04_triple_agreement_on_grid(constructed_grid):
    for degs, J, H in constructed_grid:
        n = len(degs)
        direct = len(J.min_gens)
        assert direct == mingen_count_formula(H, 0, n) == mingen_count_ci(degs), degs
    golden = {(3, 4, 4): 14, (2, 2, 2, 2): 12, (2, 2, 2): 6, (5, 5, 5): 25}
    for degs, count in golden.items():
        assert len(almost_revlex_ci(len(degs), degs).min_gens) == count
    note(4, f"|B| triple agreement on {len(constructed_grid)} degree lists "
            "+ goldens 14/12/6/25")


def test_criterion_04_golden_count_two_to_the_five_as_stated():
    """Corrected reference constant: the stated golden count for (2,2,2,2,2)
    is 18, but the unique almost revlex ideal for the Hilbert function
    (1,5,10,10,5,1) has 21 minimal generators.  Greedy top-of-degree
    selection takes 5+6+5+4+1 = 21 generators in degrees 2..6; grouped by
    last variable they split 10+5+3+2+1 (x5..x1), and the stated 18 = 10+5+3
    adds only the first three groups.  The direct construction, the closed
    formula and the telescoping double sum all agree on 21."""
    count = len(almost_revlex_ci(5, (2,) * 5).min_gens)
    assert count == 21, (
        f"expected 21 minimal generators (stated 18 is refuted), got {count}"
    )


# -- criterion 5 -------------------------------------------------------------


def test_criterion_05_exact_tangent_dimensions():
    for degs, dim, lex in [((2, 2, 2), 36, 24), ((3, 3, 3), 147, 81),
                           ((3, 4, 4), 286, 144)]:
        rep = tangent_dim(almost_revlex_ci(len(degs), degs))
        assert rep.tangent_dim == dim and rep.lex_dim == lex, degs
        assert rep.tangent_dim > rep.lex_dim
    note(5, "tangent dimensions 36 > 24, 147 > 81, 286 > 144")


# -- criterion 6 -------------------------------------------------------------


def test_criterion_06_sandwich_and_vanishing_columns():
    checked = 0
    for J in tangent_check_ideals():
        rows, nparams, D = _linear_rows(J)
        rep = tangent_dim(J)
        assert rep.lower_bound <= rep.tangent_dim <= rep.upper_bound
        touched = set()
        for row in rows:
            touched.update(row)
        n = J.n
        sous = list(J._staircase)
        assert D == len(sous) and nparams == len(J.min_gens) * D
        for gi in range(len(J.min_gens)):
            for i, beta in enumerate(sous):
                shifted = list(beta)
                shifted[n - 1] += 1
                if contains(J, Term(tuple(shifted))):
                    assert gi * D + i not in touched
        checked += 1
    golden = {(3, 4, 4): 140, (2, 2, 2, 2): 72, (2, 2, 2): 18}
    for degs, lower in golden.items():
        assert tangent_bounds(almost_revlex_ci(len(degs), degs))[0] == lower
    note(6, f"bound sandwich + vanishing columns on {checked} ideals; "
            "lower-bound goldens 140/72/18")


def test_criterion_06_lower_bound_two_to_the_five_as_stated():
    """Corrected reference constant: the stated lower bound for (2,2,2,2,2)
    is 18*10 = 180, inheriting the refuted generator count 18.  With the 21
    minimal generators, 10 of them divisible by x5, the bound
    |B_J| * |{tau in B_J : x5 | tau}| is 21*10 = 210."""
    lower = tangent_bounds(almost_revlex_ci(5, (2,) * 5))[0]
    assert lower == 210, (
        f"expected lower bound 210 = 21*10 (stated 180 is refuted), got {lower}"
    )


# -- criterion 7 -------------------------------------------------------------


def test_criterion_07_full_reduction_oracle_equivalence():
    ideals = artinian_stable_ideals(3, 12)
    assert len(ideals) == 266
    for J in ideals:
        assert audit_tangent(J, tangent_dim(J).rank), J
    note(7, f"truncated linearization == full symbolic reduction on "
            f"{len(ideals)} Artinian stable ideals (n <= 3, colength <= 12)")


# -- criterion 8 -------------------------------------------------------------


def test_criterion_08_reduction_numbers_equal_c_indices(constructed_grid):
    from arevlex import CIProfile

    for degs, J, H in constructed_grid:
        n = len(degs)
        for s in range(n):
            assert reduction_number(J, s) == c_index(H, s), (degs, s)
        assert c_index(H, 1) == CIProfile.of(degs).u_bar[-1], degs
    note(8, "r_s = c_s for all 0 <= s < n and c_1 = u_bar_n on the full grid")


# -- criterion 9 -------------------------------------------------------------


def test_criterion_09_classification_regressions():
    v = classify_ci((5, 5, 5))
    assert (v.verdict, v.criterion) == ("singular", "sum-times-Hc1")
    assert v.witness["product"] == 475 and v.witness["lex_dim"] == 375
    v = classify_ci((4, 4, 4))
    assert (v.verdict, v.criterion) == ("singular", "sum-times-Hc1")
    assert v.witness["product"] == 204 and v.witness["lex_dim"] == 192
    assert classify_ci((3, 3, 3), exact=False).verdict == "unknown"
    v = classify_ci((3, 3, 3))
    assert (v.verdict, v.criterion) == ("singular", "exact-tangent")
    v4 = classify_stable(almost_revlex_ci(4, (2,) * 4))
    assert v4.verdict == "singular"
    assert v4.witness["lower"] == 72 and v4.witness["lex_dim"] == 64
    v5 = classify_stable(almost_revlex_ci(5, (2,) * 5))
    assert v5.verdict == "singular"
    assert v5.witness["lower"] > v5.witness["lex_dim"] == 160
    for degs in [(5,) * 5, (8,) * 4]:
        v = classify_ci(degs, exact=False)
        assert v.verdict == "singular" and v.criterion.startswith("numeric-criterion")
    note(9, "classification regressions incl. (5^5) and (8^4) by numeric criteria")


def test_criterion_09_lower_bound_witness_as_stated():
    """Corrected reference constant: the stated witness for (2,2,2,2,2) is
    180 > 160, inheriting the refuted generator count 18.  The lower bound is
    21*10 = 210 (21 generators, 10 divisible by x5); the singular verdict
    and the inequality direction are unchanged (210 > 160)."""
    v = classify_stable(almost_revlex_ci(5, (2,) * 5))
    assert v.witness["lower"] == 210, (
        f"expected witness 210 > 160 (stated 180 is refuted), "
        f"got {v.witness['lower']} > 160"
    )


# -- criterion 10 ------------------------------------------------------------


def test_criterion_10_existence_failure():
    H = HilbertFunction((1, 13, 12, 13, 1, 0), Eventual("zero"))
    with pytest.raises(NoAlmostRevlexIdeal) as info:
        almost_revlex_for(H)
    assert info.value.degree == 3
    note(10, "table (1,13,12,13,1) admits no almost revlex ideal (deficit at 3)")


# -- criterion 11 ------------------------------------------------------------


def test_criterion_11_property_suites():
    rng = random.Random(1101)

    # degrevlex order axioms on random triples
    def rand_term(n):
        e = [0] * n
        for _ in range(rng.randint(0, 8)):
            e[rng.randrange(n)] += 1
        return Term(tuple(e))

    for _ in range(2000):
        n = rng.randint(1, 6)
        a, b, c = (rand_term(n) for _ in range(3))
        assert cmp_degrevlex(a, b) == -cmp_degrevlex(b, a)
        if cmp_degrevlex(a, b) <= 0 and cmp_degrevlex(b, c) <= 0:
            assert cmp_degrevlex(a, c) <= 0
        if cmp_degrevlex(a, b) > 0:
            assert cmp_degrevlex(a.mul(c), b.mul(c)) > 0
        if a.degree > b.degree:
            assert cmp_degrevlex(a, b) > 0

    # expansion disjoint-union equality: exhaustive small + random stable
    for n in (2, 3):
        for socle in (2, 3):
            J = minimalize(list(enumerate_terms(n, socle)))
            for t in range(socle + 2):
                assert first_expansion(J, t) == brute_first_expansion(J, t)
    for _ in range(20):
        n = rng.randint(2, 4)
        J = random_strongly_stable(rng, n, rng.randint(2, 5))
        for t in range(J.max_gen_degree() + 2):
            exp = first_expansion(J, t)
            assert exp == brute_first_expansion(J, t)
            assert len(set(exp)) == len(exp)

    # symmetry, unimodality, difference decrease, total mass
    for degs in ci_degree_grid(5, 2, 7, 3000):
        assert check_symmetry(degs), degs
        assert check_unimodal_ranges(degs), degs
        for s in range(len(degs)):
            assert check_pardue_decrease(degs, s), (degs, s)
        assert sum(ci_hilbert(degs).table(sum(degs))) == prod(degs), degs
        assert ci_hilbert(degs).same_function(ci_hilbert_oracle(degs)), degs
    note(11, "order axioms, expansion equality, symmetry/unimodality/decrease, "
             "total mass = product of degrees")
