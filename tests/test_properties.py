"""Property tests of minimal bases, the divisor index, the term codes, the first
expansion and the almost revlex construction against brute force and the paper's
lift."""

from __future__ import annotations

import ast
import random
from bisect import bisect_left
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
from arevlex.ideals import _Codec, _Divisors, _expand_slice
from arevlex.terms import raw_divides, raw_key

from helpers import brute_minimal_basis, paper_lift_ci, raw_expand_slice

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
    want = sorted(brute, key=raw_key)
    assert raw_expand_slice(slice_t, n) == want
    codec = _Codec(n, max(map(sum, slice_t), default=0) + 1)
    coded = _expand_slice(codec.encode(slice_t), codec)
    assert codec.decode(coded) == want


def random_same_degree_terms(rng, n, M):
    """Seeded distinct terms of one degree in n variables with every exponent <= M."""
    t = rng.randint(0, M)
    out = set()
    for _ in range(rng.randint(1, 40)):
        e = [0] * n
        for _ in range(t):
            e[rng.randrange(n)] += 1
        if max(e) <= M:
            out.add(tuple(e))
    return sorted(out, key=raw_key)


def codec_cases():
    rng = random.Random(1801)
    for _ in range(400):
        n, M = rng.randint(1, 8), rng.randint(1, 9)
        yield n, _Codec(n, M), random_same_degree_terms(rng, n, M)


def test_codec_round_trips_and_orders_like_degrevlex():
    for n, codec, terms in codec_cases():
        codes = codec.encode(terms)
        assert codec.decode(codes) == terms
        # terms is increasing in raw_key, so the codes must increase too
        assert codes == sorted(codes) and len(set(codes)) == len(codes), terms
        assert codec.encode([(0,) * n]) == [codec.top]


def test_codec_step_multiplies_by_a_variable():
    for n, codec, terms in codec_cases():
        codes = codec.encode(terms)
        for i, step in enumerate(codec.steps):
            fits = [(e, c) for e, c in zip(terms, codes) if e[i] < codec.M]
            ups = [e[:i] + (e[i] + 1,) + e[i + 1 :] for e, _ in fits]
            assert codec.encode(ups) == [c - step for _, c in fits], (terms, i)


def test_codec_floor_bisects_the_suffix_the_scan_finds():
    for n, codec, terms in codec_cases():
        codes = codec.encode(terms)
        start = 0
        for i in range(n - 1, -1, -1):
            # the tuple scan: the terms free of x_{i+2..n} are a suffix
            assert all(not any(e[i + 1 :]) for e in terms[start:])
            assert not any(not any(e[i + 1 :]) for e in terms[:start])
            assert bisect_left(codes, codec.floors[i]) == start, (terms, i)
            while start < len(terms) and terms[start][i]:
                start += 1


def test_coded_expansion_equals_the_tuple_reference():
    for n, codec, terms in codec_cases():
        if max(map(max, terms)) == codec.M:
            continue  # the expansion would pass the bound
        coded = _expand_slice(codec.encode(terms), codec)
        assert codec.decode(coded) == raw_expand_slice(terms, n), terms


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
