"""The greedy construction, uniqueness, failure reporting and generator counts."""

from __future__ import annotations


import pytest

from arevlex import (
    DomainError,
    Eventual,
    HilbertFunction,
    NoAlmostRevlexIdeal,
    Term,
    almost_revlex_ci,
    almost_revlex_for,
    border_generator_count,
    c_index,
    ci_hilbert,
    colength,
    first_expansion,
    greatest,
    hf_of_ideal,
    is_almost_revlex,
    mingen_count_ci,
    mingen_count_formula,
    minimalize,
    sous_escalier,
    term,
)
from arevlex.ideals import MonomialIdeal, _slices

from helpers import ci_degree_grid, curve_ideal, paper_lift_ci

J344_GENS = [
    term(3, 0, 0),
    term(1, 3, 0), term(2, 2, 0),
    term(0, 4, 1), term(0, 5, 0),
    term(0, 3, 3), term(1, 2, 3), term(2, 1, 3),
    term(0, 2, 5), term(1, 1, 5), term(2, 0, 5),
    term(0, 1, 7), term(1, 0, 7),
    term(0, 0, 9),
]


def test_greatest_golden():
    J = minimalize([term(3, 0, 0), term(2, 2, 0), term(1, 3, 0)])
    exp4 = first_expansion(J, 4)
    assert greatest(exp4, 2) == [term(0, 4, 1), term(0, 5, 0)]
    assert greatest(exp4, 0) == []
    Jnext = minimalize(list(J.min_gens) + [term(0, 5, 0), term(0, 4, 1)])
    exp5 = first_expansion(Jnext, 5)
    assert greatest(exp5, 3) == [term(0, 3, 3), term(1, 2, 3), term(2, 1, 3)]
    with pytest.raises(DomainError):
        greatest(exp4, len(exp4) + 1)
    with pytest.raises(DomainError):
        greatest([term(1, 0), term(2, 0)], 1)


def test_construction_golden_344():
    J = almost_revlex_ci(3, (3, 4, 4))
    assert list(J.min_gens) == J344_GENS


def test_construction_single_variable():
    assert almost_revlex_ci(1, (5,)).min_gens == (term(5,),)
    assert almost_revlex_ci(1, (2,)).min_gens == (term(2,),)
    assert almost_revlex_ci(1, (9,)).min_gens == (term(9,),)


def test_construction_small_cube():
    J = almost_revlex_ci(3, (2, 2, 2))
    assert is_almost_revlex(J)
    assert [len(sous_escalier(J, t)) for t in range(4)] == [1, 3, 3, 1]


def test_construction_validates():
    with pytest.raises(DomainError):
        almost_revlex_ci(2, (4, 3))
    with pytest.raises(DomainError):
        almost_revlex_ci(3, (2, 2))
    with pytest.raises(DomainError):
        almost_revlex_ci(2, (1, 3))


def assert_handover_matches_checked(J):
    # the greedy hands its ideal its coded slices and a stable verdict; the
    # checked constructor on the same basis derives both from B_J alone,
    # under the same exponent bound M = reg
    store = J.__dict__["_slice_store"]
    K = MonomialIdeal(J.n, J.min_gens)
    assert "_slice_store" not in K.__dict__ and "_stable" not in K.__dict__
    assert _slices(K, len(store) - 1) == store, J
    assert K._codec.M == J._codec.M == len(store) - 1 == J.max_gen_degree(), J
    assert J.__dict__["_stable"] is K._stable is True, J
    assert hf_of_ideal(J, 0) == hf_of_ideal(K, 0), J
    assert colength(J) == colength(K), J
    assert is_almost_revlex(J) and is_almost_revlex(K), J


def test_greedy_from_table_equals_ci_route():
    for degs in [(3, 4, 4), (2, 2, 2), (2, 3, 5), (2, 2, 2, 3)]:
        n = len(degs)
        H = ci_hilbert(degs)
        assert almost_revlex_for(H) == almost_revlex_ci(n, degs)
    # the production greedy against the paper's variable-by-variable lift,
    # and its handed-over staircase against the one B_J gives
    grid = list(ci_degree_grid(5, 2, 8, 5000))
    assert len(grid) == 679
    for degs in grid:
        J = almost_revlex_ci(len(degs), degs)
        assert J == paper_lift_ci(len(degs), degs), degs
        assert_handover_matches_checked(J)


def test_greedy_failure_reports_degree():
    H = HilbertFunction((1, 13, 12, 13, 1, 0), Eventual("zero"))
    with pytest.raises(NoAlmostRevlexIdeal) as info:
        almost_revlex_for(H)
    assert info.value.degree == 3


def test_greedy_power_table():
    for d in (2, 5, 9):
        H = HilbertFunction((1,) * d + (0,), Eventual("zero"))
        assert almost_revlex_for(H).min_gens == (term(d),)


def test_almost_revlex_check_of_the_greedy_is_an_invariant_failure(monkeypatch):
    # the greedy's output is almost revlex by construction, so a failing
    # check is an internal fault, raised whatever the optimization level
    import arevlex.construct as construct_module

    monkeypatch.setattr(construct_module, "is_almost_revlex", lambda J: False)
    with pytest.raises(AssertionError, match="almost revlex check"):
        almost_revlex_for(ci_hilbert((3, 4, 4)))


def test_greedy_validates_table():
    with pytest.raises(DomainError):
        almost_revlex_for(HilbertFunction((1, 2, 2), Eventual("constant", 2)))
    with pytest.raises(DomainError):
        almost_revlex_for(HilbertFunction((2, 3, 0), Eventual("zero")))
    with pytest.raises(DomainError):
        almost_revlex_for(HilbertFunction((1, 2, 0, 2, 0), Eventual("zero")))


def test_mingen_counts_golden():
    H = hf_of_ideal(curve_ideal(), 5)
    assert mingen_count_formula(H, 1, 3) == 5 == len(curve_ideal().min_gens)
    assert mingen_count_formula(ci_hilbert((3, 4, 4)), 0, 3) == 14
    assert mingen_count_ci((3, 4, 4)) == 14
    assert mingen_count_ci((5,)) == 1
    assert mingen_count_ci((5, 5, 5)) == 25
    # the five-fold quadric case: direct construction, the closed formula and
    # the double sum all give 21 generators
    assert len(almost_revlex_ci(5, (2,) * 5).min_gens) == 21
    assert mingen_count_formula(ci_hilbert((2,) * 5), 0, 5) == 21
    assert mingen_count_ci((2,) * 5) == 21


def test_three_way_count_agreement_small_grid():
    for degs in ci_degree_grid(4, 2, 6, 400):
        n = len(degs)
        J = almost_revlex_ci(n, degs)
        H = ci_hilbert(degs)
        assert len(J.min_gens) == mingen_count_formula(H, 0, n) == mingen_count_ci(degs)


def test_partial_hilbert_values_track_target():
    # rebuild degree by degree and compare partial staircase counts
    degs = (2, 3, 4)
    H = ci_hilbert(degs)
    J = almost_revlex_ci(3, degs)
    for t in range(sum(degs) - len(degs) + 2):
        partial = minimalize(
            [g for g in J.min_gens if g.degree <= t] or [], n=3
        )
        assert len(sous_escalier(partial, t)) == H(t)


def test_final_generator_is_pure_power_of_last_variable():
    for degs in ci_degree_grid(4, 2, 5, 300):
        J = almost_revlex_ci(len(degs), degs)
        top = sum(degs) - len(degs) + 1
        want = tuple(0 for _ in range(len(degs) - 1)) + (top,)
        assert J.min_gens[-1] == Term(want), degs


def test_border_count_equals_peak_value():
    for degs in ci_degree_grid(4, 2, 6, 400):
        J = almost_revlex_ci(len(degs), degs)
        H = ci_hilbert(degs)
        assert border_generator_count(J) == H(c_index(H, 1)), degs


def test_greedy_rebuilds_every_enumerated_almost_revlex_ideal():
    # across all Artinian stable ideals with n <= 3 and colength <= 10, the
    # almost revlex ones are uniquely determined by their value tables, and
    # the greedy reconstructs each from its table alone
    from helpers import artinian_stable_ideals

    by_table = {}
    for J in artinian_stable_ideals(3, 10):
        if not is_almost_revlex(J):
            continue
        H = hf_of_ideal(J, 0)
        key = (J.n, tuple(H.values))
        assert key not in by_table, (by_table.get(key), J)
        by_table[key] = J
    assert len(by_table) > 40
    for (n, values), J in by_table.items():
        table = HilbertFunction(values, Eventual("zero"))
        if table(1) != n:
            continue  # tables with degree-1 generators fix a smaller ring
        rebuilt = almost_revlex_for(table)
        assert rebuilt == J
        assert_handover_matches_checked(rebuilt)
