"""Property tests of minimal bases, the divisor index, the first expansion and
the almost revlex construction against brute force and the paper's lift."""

from __future__ import annotations

import ast
from math import prod

import pytest

from arevlex import (
    DomainError,
    MonomialIdeal,
    Term,
    almost_revlex_ci,
    ideal_from_json,
    ideal_to_json,
    minimalize,
    term_from_text,
)
from arevlex.ideals import _Divisors, _expand_slice
from arevlex.terms import raw_divides, raw_key

from helpers import brute_minimal_basis, paper_lift_ci

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, settings = hypothesis.given, hypothesis.settings

# derandomized, so every run of the suite tries the same examples
PROFILE = settings(derandomize=True, deadline=None, database=None, max_examples=50)


@st.composite
def term_lists(draw, min_size=1):
    """Exponent tuples in one variable count, with repeats and multiples."""
    n = draw(st.integers(1, 5))
    exps = st.tuples(*[st.integers(0, 4)] * n)
    base = draw(st.lists(exps, min_size=min_size, max_size=8))
    out = list(base)
    if base:
        for e in draw(st.lists(st.sampled_from(base), max_size=4)):
            bump = draw(st.tuples(*[st.integers(0, 2)] * n))
            out.append(tuple(x + y for x, y in zip(e, bump)))
    return n, draw(st.permutations(out))


@PROFILE
@given(term_lists(), st.data())
def test_minimalize_is_idempotent_and_order_free(case, data):
    n, raw = case
    terms = [Term(e) for e in raw]
    J = minimalize(terms)
    assert J.min_gens == brute_minimal_basis(terms)
    assert minimalize(list(J.min_gens)) == J
    assert minimalize(data.draw(st.permutations(terms))) == J


@PROFILE
@given(term_lists(min_size=0), st.data())
def test_divisor_index_bits_are_exactly_the_divisors(case, data):
    n, raw = case
    index = _Divisors(raw)
    probes = data.draw(st.lists(st.tuples(*[st.integers(0, 6)] * n), max_size=10))
    for e in probes + raw:
        want = sum(1 << k for k, a in enumerate(raw) if raw_divides(a, e))
        assert index.below(e) == want
        assert (e in index) == bool(want)


@PROFILE
@given(term_lists())
def test_basis_check_raises_iff_some_pair_divides(case):
    n, raw = case
    basis = tuple(sorted({Term(e) for e in raw}, key=Term.sort_key))
    proper = [(a, b) for b in basis for a in basis if a != b and a.divides(b)]
    if not proper:
        assert MonomialIdeal(n, basis).min_gens == basis
        return
    with pytest.raises(DomainError) as info:
        MonomialIdeal(n, basis)
    a, b = (ast.literal_eval(x) for x in
            str(info.value).removeprefix("basis not minimal: ").split(" divides "))
    assert (Term(a), Term(b)) == proper[0]


@PROFILE
@given(term_lists(min_size=0))
def test_ideal_json_and_term_text_round_trips(case):
    n, raw = case
    J = minimalize([Term(e) for e in raw], n)
    assert ideal_from_json(ideal_to_json(J)) == J
    for e in raw:
        assert term_from_text(str(Term(e)), n) == Term(e)


@st.composite
def same_degree_lists(draw):
    """Increasing lists of distinct terms of one degree, the constant included."""
    n = draw(st.integers(1, 5))
    t = draw(st.integers(0, 4))
    parts = st.lists(st.integers(0, n - 1), min_size=t, max_size=t)
    raw = {tuple(p.count(i) for i in range(n)) for p in draw(st.lists(parts, max_size=12))}
    return n, sorted(raw, key=raw_key)


@PROFILE
@given(same_degree_lists())
def test_first_expansion_is_every_product_by_a_variable_at_or_below_min(case):
    n, slice_t = case
    brute = set()
    for tau in slice_t:
        low = max((i + 1 for i in range(n) if tau[i]), default=1)
        for v in range(low, n + 1):
            brute.add(tuple(x + (i == v - 1) for i, x in enumerate(tau)))
    assert _expand_slice(slice_t, n) == sorted(brute, key=raw_key)


@st.composite
def degree_lists_beyond_grid(draw):
    """Non-decreasing degree lists, n <= 7, 2 <= d <= 12, product <= 20,000,
    outside the grid n <= 5, d <= 8, product <= 5000 that Tier-1 covers."""
    n = draw(st.integers(1, 7))
    degrees = []
    for k in range(n):
        lo = degrees[-1] if degrees else 2
        # the rest of the list must still fit under the product bound
        hi = lo
        while hi < 12 and prod(degrees) * (hi + 1) ** (n - k) <= 20_000:
            hi += 1
        degrees.append(draw(st.integers(lo, hi)))
    hypothesis.assume(n > 5 or degrees[-1] > 8 or prod(degrees) > 5000)
    return tuple(degrees)


@settings(PROFILE, max_examples=25)
@given(degree_lists_beyond_grid())
def test_greedy_equals_paper_lift_beyond_grid(degrees):
    n = len(degrees)
    assert almost_revlex_ci(n, degrees) == paper_lift_ci(n, degrees)
