"""Order axioms, arithmetic and enumeration for terms."""

from __future__ import annotations

import operator
import random
from math import comb

import pytest

from arevlex import (
    DimensionError,
    DomainError,
    Term,
    cmp_degrevlex,
    enumerate_terms,
    one,
    term,
    term_from_json,
    term_from_text,
    term_to_text,
    variable,
)
from arevlex.terms import raw_key, raw_mul, raw_quotient


def rand_term(rng, n, maxdeg=8):
    d = rng.randint(0, maxdeg)
    e = [0] * n
    for _ in range(d):
        e[rng.randrange(n)] += 1
    return Term(tuple(e))


def test_degrevlex_examples():
    # within one degree the term avoiding the small variables wins
    assert cmp_degrevlex(term(1, 3, 0), term(0, 4, 0)) == 1
    a = term(2, 0, 1)
    assert cmp_degrevlex(a, a) == 0
    # degree dominates
    assert cmp_degrevlex(term(0, 0, 5), term(3, 1, 0)) == 1


def test_degrevlex_mismatched_nvars():
    a, b = term(1, 0), term(1, 0, 0)
    for compare in (cmp_degrevlex, operator.lt, operator.le, operator.gt, operator.ge):
        for x, y in ((a, b), (b, a)):
            with pytest.raises(DimensionError):
                compare(x, y)


def test_comparisons_agree_with_the_sort_key():
    # every comparison reads raw_key, on pairs of equal and of unequal degree;
    # the key itself is checked against the definition: degree first, then a
    # negative last nonzero entry of a - b means a is greater
    rng = random.Random(20261020)
    for _ in range(3000):
        n = rng.randint(1, 6)
        a = rand_term(rng, n)
        b = rand_term(rng, n) if rng.random() < 0.5 else Term(
            tuple(rng.sample(a.exponents, n)))  # same degree, often equal
        ka, kb = raw_key(a.exponents), raw_key(b.exponents)
        diff = [x - y for x, y in zip(a.exponents, b.exponents) if x != y]
        want = (a.degree > b.degree) - (a.degree < b.degree) or (
            (diff[-1] < 0) - (diff[-1] > 0) if diff else 0)
        assert (ka > kb) - (ka < kb) == want
        assert cmp_degrevlex(a, b) == want
        assert (a < b, a <= b, a > b, a >= b) == (ka < kb, ka <= kb, ka > kb, ka >= kb)


def test_order_axioms_random():
    rng = random.Random(20240511)
    for _ in range(3000):
        n = rng.randint(1, 6)
        a, b, c = (rand_term(rng, n) for _ in range(3))
        sa, sb = cmp_degrevlex(a, b), cmp_degrevlex(b, a)
        assert sa == -sb  # antisymmetry
        assert (sa == 0) == (a == b)  # trichotomy with equality
        if cmp_degrevlex(a, b) <= 0 and cmp_degrevlex(b, c) <= 0:
            assert cmp_degrevlex(a, c) <= 0  # transitivity
        # multiplicativity and degree dominance
        if cmp_degrevlex(a, b) == 1:
            assert cmp_degrevlex(a.mul(c), b.mul(c)) == 1
        if a.degree > b.degree:
            assert a > b


def test_smallest_variable_power_dominates_multiples():
    # x_{n-1}^t beats x_n * tau for every tau of degree t-1
    for n in range(2, 5):
        for t in range(1, 8):
            lead = Term(tuple(t if i == n - 2 else 0 for i in range(n)))
            xn = variable(n, n)
            for tau in enumerate_terms(n, t - 1):
                assert lead > xn.mul(tau)


def test_min_max_var():
    t = term(2, 0, 2, 0)
    assert t.min_var() == 3
    assert t.max_var() == 1
    p = term(0, 0, 4)
    assert p.min_var() == p.max_var() == 3
    assert term(0, 4, 1).min_var() == 3
    with pytest.raises(DomainError):
        one(3).min_var()
    with pytest.raises(DomainError):
        one(2).max_var()


def test_mul_divides_quotient():
    assert term(1, 1, 0).mul(term(0, 1, 1)) == term(1, 2, 1)
    assert not term(2, 0).divides(term(1, 1))
    assert term(0, 0, 1).divides(term(2, 0, 5))
    assert term(2, 0, 5).quotient(term(0, 0, 1)) == term(2, 0, 4)
    with pytest.raises(ArithmeticError):
        term(1, 0).quotient(term(0, 1))
    with pytest.raises(DimensionError):
        term(1, 0).mul(term(1, 0, 0))


def test_enumerate_terms_small():
    assert enumerate_terms(2, 2) == [term(0, 2), term(1, 1), term(2, 0)]
    assert enumerate_terms(3, 0) == [one(3)]
    assert len(enumerate_terms(3, 4)) == 15


def test_enumerate_terms_sorted_and_complete():
    for n in range(1, 5):
        for t in range(7):
            out = enumerate_terms(n, t)
            assert len(out) == comb(n - 1 + t, t)
            assert len(set(out)) == len(out)
            for a, b in zip(out, out[1:]):
                assert cmp_degrevlex(a, b) == -1
    with pytest.raises(DomainError):
        enumerate_terms(0, 1)
    with pytest.raises(DomainError):
        enumerate_terms(2, -1)


def test_text_and_json_roundtrip():
    rng = random.Random(7)
    assert term_to_text(term(3, 2, 0)) == "x1^3*x2^2"
    assert term_to_text(term(1, 0, 1)) == "x1*x3"
    assert term_to_text(one(4)) == "1"
    assert term_from_text("x2^4*x3", 3) == term(0, 4, 1)
    for _ in range(200):
        n = rng.randint(1, 5)
        t = rand_term(rng, n)
        assert term_from_text(term_to_text(t), n) == t
        assert term_from_json(t.to_json()) == t
    with pytest.raises(DomainError):
        term_from_text("y2", 3)
    with pytest.raises(DimensionError):
        term_from_text("x9", 3)
    for bad in ([1.5, 0], [True, 0], ["1", 0], [1.0], (1, 0), 3):
        with pytest.raises(DomainError):
            term_from_json(bad)


def test_term_validation():
    with pytest.raises(DomainError):
        Term((1, -1))


def test_raw_arithmetic_is_elementwise():
    rng = random.Random(1717)
    for _ in range(500):
        n = rng.randint(1, 8)
        a, b = (tuple(rng.choice((0, rng.randint(0, 9))) for _ in range(n)) for _ in "ab")
        total = raw_mul(a, b)
        assert type(total) is tuple
        assert total == tuple(a[i] + b[i] for i in range(n))
        assert raw_quotient(total, a) == b and raw_quotient(total, b) == a
        assert raw_quotient(a, b) == tuple(a[i] - b[i] for i in range(n))
