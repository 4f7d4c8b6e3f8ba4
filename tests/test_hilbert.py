"""Complete intersection Hilbert functions, differences and index extraction."""

from __future__ import annotations

import random
from math import prod

import pytest

from arevlex import (
    CIProfile,
    DimensionError,
    DomainError,
    Eventual,
    HilbertFunction,
    MonomialIdeal,
    Series,
    StabilityError,
    Term,
    almost_revlex_ci,
    almost_revlex_for,
    c_index,
    check_pardue_decrease,
    check_symmetry,
    check_unimodal_ranges,
    ci_hilbert,
    ci_hilbert_oracle,
    classify_ci,
    derivative,
    extend_ring,
    first_expansion,
    hf_from_json,
    hf_of_ideal,
    ideal_to_text,
    is_almost_revlex,
    is_stable,
    mingen_count_formula,
    minimalize,
    pardue_truncation,
    pommaret_decompose,
    reduction_number,
    sous_escalier,
    term,
    variable,
    varrho,
)
from arevlex.cli import main
from arevlex.hilbert import validate_degrees
from arevlex.ideals import _slices

from helpers import (
    borel_closure,
    ci_degree_grid,
    curve_ideal,
    is_revlex_ideal,
    random_monomial_ideal,
    truncate_below,
)


def curve_hf() -> HilbertFunction:
    return HilbertFunction((1, 3, 6, 6, 5, 5), Eventual("constant", 5))


def test_ci_hilbert_golden_4578():
    H = ci_hilbert((4, 5, 7, 8), 4)
    assert H.table(10) == [1, 4, 10, 20, 34, 51, 70, 89, 105, 116, 120]
    assert H(11) == 116
    H3 = ci_hilbert((4, 5, 7, 8), 3)
    assert H3.table(7) == [1, 3, 6, 10, 14, 17, 19, 19]


def test_ci_hilbert_golden_344():
    assert ci_hilbert((3, 4, 4)).table(9) == [1, 3, 6, 9, 10, 9, 6, 3, 1, 0]


def test_ci_hilbert_validates():
    with pytest.raises(DomainError):
        ci_hilbert((4, 3))
    with pytest.raises(DomainError):
        ci_hilbert((1, 2))
    with pytest.raises(DomainError):
        ci_hilbert((2, 2), i=3)


def test_ci_oracle_goldens():
    assert ci_hilbert_oracle((2, 2, 2)).table(3) == [1, 3, 3, 1]
    assert ci_hilbert_oracle((4,)).table(4) == [1, 1, 1, 1, 0]
    assert ci_hilbert_oracle((3, 3, 3)).table(6) == [1, 3, 6, 7, 6, 3, 1]


def test_ci_matches_oracle_exhaustively():
    for degs in ci_degree_grid(6, 2, 10, 10**9):
        assert ci_hilbert(degs).same_function(ci_hilbert_oracle(degs)), degs


def test_derivative_golden_row():
    H = ci_hilbert((4, 5, 7, 8), 4)
    d = derivative(H, 1)
    # finite differences of the H row above; the entry at t = 12 is
    # 105 - 116 = -11 (and by symmetry -Delta(9))
    assert [d(t) for t in range(14)] == [
        1, 3, 6, 10, 14, 17, 19, 19, 16, 11, 4, -4, -11, -16,
    ]
    assert derivative(H, 0)(7) == H(7)


def test_derivative_matches_shift_identity():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(2, 5)
        degs = tuple(sorted(rng.randint(2, 7) for _ in range(n)))
        H = ci_hilbert(degs)
        Hm = ci_hilbert(degs, n - 1)
        d = derivative(H, 1)
        for t in range(sum(degs)):
            assert d(t) == Hm(t) - Hm(t - degs[-1])


def test_series_diff_is_the_pointwise_difference():
    # diff(f)(t) = f(t) - f(t-1) with f(-1) = 0: through t = len(values), where
    # the tail enters, and 0 from there on
    rng = random.Random(2601)
    cases = [((), 0), ((), 7), ((), -3), ((4,), 0), ((4,), 4), ((2, -5), -1)]
    cases += [(tuple(rng.randint(-9, 9) for _ in range(rng.randint(0, 12))), rng.randint(-9, 9))
              for _ in range(300)]
    for values, tail in cases:
        f = Series(values, tail)
        d = f.diff()
        assert len(d.values) == len(values) + 1 and d.tail == 0, (values, tail)
        assert [d(t) for t in range(-2, len(values) + 4)] == [
            f(t) - f(t - 1) for t in range(-2, len(values) + 4)], (values, tail)


def test_c_index_goldens():
    H = ci_hilbert((4, 5, 7, 8))
    assert [c_index(H, s) for s in (0, 1, 2)] == [20, 10, 6]
    assert c_index(curve_hf(), 1, 1) == 2
    assert c_index(curve_hf(), 2, 1) == 2
    assert c_index(ci_hilbert((6,)), 0) == 5
    with pytest.raises(DomainError):
        c_index(curve_hf(), 0, 1)  # s = 0 lies below the Krull dimension 1


def test_profile_goldens():
    p = CIProfile.of((4, 5, 7, 8))
    assert p.m == (3, 7, 13, 20)
    assert p.u_bar == (0, 3, 6, 10)


def test_varrho():
    assert varrho(curve_hf(), 1) == 4
    assert varrho(HilbertFunction((1,), Eventual("constant", 1)), 1) == 0
    with pytest.raises(DomainError):
        varrho(curve_hf(), 0)


def test_varrho_matches_direct_scan():
    rng = random.Random(8)
    from helpers import random_strongly_stable

    for _ in range(30):
        J = random_strongly_stable(rng, 3, rng.randint(2, 5))
        # drop the last variable's pure power to get dimension 1
        gens = [g for g in J.min_gens if not (g.exponents[-1] and g.degree == g.exponents[-1])]
        K = minimalize(gens, J.n)
        from arevlex import is_strongly_stable, krull_dim

        if not (is_strongly_stable(K) and krull_dim(K) == 1):
            continue
        H = hf_of_ideal(K, 0)
        rho = varrho(H, 1)
        tail = H.table(H.top + 3)
        assert all(tail[j] == tail[j + 1] for j in range(rho, len(tail) - 1))
        assert rho == 0 or tail[rho - 1] != tail[rho]


def test_pardue_truncation():
    H = ci_hilbert((3, 4, 4))
    assert pardue_truncation(H, 1).table(5) == [1, 2, 3, 3, 1, 0]
    # one-variable table: truncating at order 0 returns the table itself
    H1 = ci_hilbert((5,))
    assert pardue_truncation(H1, 0).same_function(H1)
    # the truncated difference differs from the smaller CI table from degree 4 on
    H34 = ci_hilbert((3, 4))
    tr = pardue_truncation(H, 1)
    assert H34.table(3) == tr.table(3)
    assert H34.table(5) != tr.table(5)


def test_hf_of_ideal():
    J = ci_ideal_344()
    assert hf_of_ideal(J, 9).same_function(ci_hilbert((3, 4, 4)))
    J2 = minimalize([term(3, 0), term(2, 2)])
    H2 = hf_of_ideal(J2, 8)
    assert H2.table(8) == [1, 2, 3, 3, 2, 2, 2, 2, 2]
    assert H2.eventual == Eventual("constant", 2)
    J2e = extend_ring(truncate_below(J2, 4), 3)
    H2e = hf_of_ideal(J2e, 6)
    assert H2e.table(6) == [1, 3, 6, 9, 11, 13, 15]
    assert H2e.eventual is None  # dimension 2: no eventual tag
    with pytest.raises(DomainError):
        H2e(7)


def test_hf_of_zero_ideal_is_untagged():
    # strongly stable of Krull dimension n, yet a bare table even for n = 1
    for n, table in [(1, [1, 1, 1, 1]), (3, [1, 3, 6, 10])]:
        H = hf_of_ideal(minimalize([], n), 3)
        assert H.table(3) == table and H.eventual is None


def test_library_entry_points_reject_non_integers():
    with pytest.raises(DomainError):
        ci_hilbert((2.7, 3))
    with pytest.raises(DomainError):
        hf_from_json({"values": [1, 2.9, True], "eventual": None})
    with pytest.raises(DomainError):
        hf_from_json({"values": [1, 2, 2], "eventual": {"kind": "constant", "value": 2.0}})
    with pytest.raises(DomainError):
        classify_ci(("3", "3", "3"))
    for bad, message in [
        ({}, 'missing "values"'),
        ({"values": 5}, "values must be a list, got 5"),
        ({"values": [1], "eventual": "zero"}, "eventual must be an object or null, got 'zero'"),
        ({"values": [1], "eventual": {"value": 0}}, 'missing "kind"'),
        ([1, 2], 'expected an object with "values"'),
    ]:
        with pytest.raises(DomainError) as info:
            hf_from_json(bad)
        assert str(info.value) == f"malformed Hilbert function JSON: {message}", bad


def ci_ideal_344():
    from arevlex import almost_revlex_ci

    return almost_revlex_ci(3, (3, 4, 4))


def test_hf_of_curve_ideal_constant_tail():
    H = hf_of_ideal(curve_ideal(), 5)
    assert H.table(5) == [1, 3, 6, 6, 5, 5]
    assert H.eventual == Eventual("constant", 5)


def test_hf_of_ideal_caches_no_slice_past_its_tail():
    # the eventual tag gives every value past the tail, so a large up_to
    # builds no further slice of an Artinian or Krull-dimension-1 ideal
    from arevlex import regularity

    J = ci_ideal_344()
    H = hf_of_ideal(J, 10**5)
    store = J._slice_store
    assert not store[-1] and all(store[:-1])
    assert H.table(12) == ci_hilbert((3, 4, 4)).table(12) and H(10**5) == 0
    K = curve_ideal()
    H = hf_of_ideal(K, 10**5)
    assert len(K._slice_store) <= regularity(K) + 1
    assert H.table(5) == [1, 3, 6, 6, 5, 5] and H(10**5) == 5


def test_checks_on_grid():
    for degs in ci_degree_grid(5, 2, 7, 3000):
        assert check_symmetry(degs), degs
        assert check_unimodal_ranges(degs), degs
        for s in range(len(degs)):
            assert check_pardue_decrease(degs, s), (degs, s)
        assert sum(ci_hilbert(degs).table(sum(degs))) == prod(degs), degs


def test_symmetry_unfolds_to_values():
    H = ci_hilbert((4, 5, 7, 8))
    for t in range(21):
        assert H(t) == H(20 - t)
    assert H(21) == 0


def test_prefix_sum_identity_below_top_degree():
    # the full table is a prefix-sum of the one-smaller table below d_n
    for degs in [(4, 5, 7, 8), (3, 4, 4), (2, 5, 6)]:
        n = len(degs)
        H, Hm = ci_hilbert(degs), ci_hilbert(degs, n - 1)
        for t in range(degs[-1]):
            assert H(t) == sum(Hm(j) for j in range(t + 1))


def test_hf_json_roundtrip():
    for H in [ci_hilbert((3, 4, 4)), curve_hf(), HilbertFunction((1, 3), None)]:
        assert hf_from_json(H.to_json()) == H


def test_untagged_tables_reject_index_extraction():
    # a Krull-dimension-2 quotient grows linearly: no zero/constant tail
    # exists, so the table has no tag and index extraction refuses to guess
    J = extend_ring(minimalize([term(3,)]), 3)
    H = hf_of_ideal(J, 8)
    assert H.eventual is None
    with pytest.raises(DomainError):
        derivative(H, 1)
    with pytest.raises(DomainError):
        c_index(H, 2, 2)


def test_hf_past_the_top_degree_counts_the_basis():
    # past the top generator degree of a stable ideal with no tail tag, the
    # table counts J_t from B_J instead of building N(J); it must equal the
    # slice sizes of a fresh copy, zero and unit ideals included, and an
    # ideal that is not stable, or a smaller up_to, keeps its slice count
    rng = random.Random(2222)
    ideals = [minimalize([], n) for n in (1, 2, 3, 4)]
    ideals += [minimalize([term(*(0,) * n)]) for n in (2, 3, 4)]
    for _ in range(150):
        n = rng.randint(2, 4)
        seeds = [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(1, 3))]
        borel = {m for e in seeds if any(e) for m in borel_closure(e)}
        ideals.append(minimalize([Term(e) for e in borel], n) if borel else minimalize([], n))
        ideals.append(random_monomial_ideal(rng, n))
    kinds = set()
    for J in ideals:
        up_to = 14
        H = hf_of_ideal(J, up_to)
        fresh = MonomialIdeal(J.n, J.min_gens)
        slices = _slices(fresh, up_to)
        slices += [[]] * (up_to + 1 - len(slices))  # they stop at the first empty one
        assert [H(t) for t in range(up_to + 1)] == [len(s) for s in slices], J
        if H.eventual is None:
            top = J.max_gen_degree() if J.min_gens else 0
            kinds.add((is_stable(fresh), len(J._slice_store) == top + 1 < up_to + 1))
    # stable ideals stop at the top degree; the others build every slice
    assert kinds == {(True, True), (False, False)}


def test_hf_below_the_top_degree_builds_no_stability_verdict():
    # the stability verdict builds N(J) through the top generator degree, so a
    # table that stops at or below it is counted from its own slices only
    J = minimalize([term(1, 0, 0, 0), term(0, 150, 0, 0)])
    assert hf_of_ideal(J, 0).values == (1,)
    assert len(J._slice_store) == 1 and "_stable" not in J.__dict__
    assert hf_of_ideal(J, 3).values == (1, 3, 6, 10)
    assert len(J._slice_store) == 4 and "_stable" not in J.__dict__


def test_hilbert_function_validation():
    with pytest.raises(DomainError):
        HilbertFunction((1, -2), Eventual("zero"))
    with pytest.raises(DomainError):
        HilbertFunction((1, 2), Eventual("constant", 3))
    with pytest.raises(DomainError):
        Eventual("zero", 5)
    with pytest.raises(DomainError):
        Eventual("weird")


CI_222 = almost_revlex_ci(3, (2, 2, 2))
NOT_STABLE = minimalize([term(2, 0), term(0, 2)])
ZERO = minimalize([], 3)


@pytest.mark.parametrize("call, expected, text", [
    # c_index: each exit of the scan
    (lambda: c_index(curve_hf(), 0), DomainError, "c_0 is infinite"),
    (lambda: c_index(HilbertFunction((1, 3, 3, 1), Eventual("zero")), 0), 3, None),
    (lambda: c_index(HilbertFunction((0,), Eventual("zero")), 0), DomainError,
     "not positive at 0"),
    # a difference that never drops is its own truncation, constant tail included
    (lambda: pardue_truncation(curve_hf(), 0),
     HilbertFunction((1, 3, 6, 6, 5, 5, 5), Eventual("constant", 5)), None),
    # negative arguments
    (lambda: hf_of_ideal(CI_222, -1), DomainError, "nonnegative"),
    (lambda: derivative(curve_hf(), -1), DomainError, "nonnegative"),
    (lambda: pardue_truncation(curve_hf(), -1), DomainError, "nonnegative"),
    (lambda: sous_escalier(CI_222, -1), DomainError, "nonnegative"),
    (lambda: first_expansion(CI_222, -1), DomainError, "nonnegative"),
    (lambda: truncate_below(CI_222, -1), DomainError, "nonnegative"),
    (lambda: mingen_count_formula(ci_hilbert((2, 2, 2)), -1, 3), DomainError, "delta >= 0"),
    # empty or invalid inputs
    (lambda: validate_degrees(()), DomainError, "empty degree list"),
    (lambda: HilbertFunction(()), DomainError, "empty Hilbert function"),
    (lambda: Eventual("constant", -1), DomainError, "nonnegative"),
    (lambda: almost_revlex_for(HilbertFunction((1, 0), Eventual("zero"))), DomainError,
     "H\\(1\\) must be positive"),
    # ideal-level refusals
    (lambda: pommaret_decompose(NOT_STABLE, term(2, 2)), StabilityError, "stable ideals"),
    (lambda: pommaret_decompose(CI_222, term(2, 0)), DimensionError, "variable count"),
    (lambda: reduction_number(CI_222, 3), DomainError, "no variable x_0"),
    # the zero ideal
    (lambda: ZERO.max_gen_degree(), DomainError, "no generators"),
    (lambda: (ideal_to_text(ZERO), str(ZERO)), ("(0)", "(0)"), None),
    (lambda: (is_almost_revlex(ZERO), is_revlex_ideal(ZERO)), (True, True), None),
    (lambda: is_revlex_ideal(NOT_STABLE), False, None),
    (lambda: variable(3, 4), DimensionError, "out of range 1..3"),
    # the CLI: code 1, with the message on stderr
    (lambda: main(["hilbert", "-d", "3,x"]), 1, "cannot parse degree list"),
])
def test_public_refusals_and_tail_exits(capsys, call, expected, text):
    # each case reaches a refusal or a tail exit that no other test runs
    if isinstance(expected, type):
        with pytest.raises(expected, match=text):
            call()
    else:
        assert call() == expected
        if text is not None:
            assert text in capsys.readouterr().err
