"""Monomial ideal bases, staircases, predicates and numeric invariants."""

from __future__ import annotations

import ast
import random
import time
from itertools import chain, count

import pytest

from arevlex import (
    DimensionError,
    DomainError,
    MonomialIdeal,
    StabilityError,
    Term,
    almost_revlex_ci,
    border_generator_count,
    colength,
    contains,
    enumerate_terms,
    extend_ring,
    first_expansion,
    ideal_from_json,
    ideal_to_json,
    ideal_to_text,
    is_almost_revlex,
    is_quasi_stable,
    is_stable,
    is_strongly_stable,
    krull_dim,
    minimalize,
    one,
    pommaret_decompose,
    reduction_number,
    regularity,
    sous_escalier,
    term,
)
from arevlex import terms as terms_module
from arevlex.ideals import (
    _Codec,
    _Divisors,
    _expand_slice,
    _moves_leave,
    _remove_sorted,
    _slices,
    _trusted,
)
from arevlex.terms import raw_divides, raw_key

from helpers import (
    artinian_stable_ideals,
    brute_first_expansion,
    brute_is_almost_revlex,
    brute_is_quasi_stable,
    brute_is_stable,
    brute_is_strongly_stable,
    brute_minimal_basis,
    brute_moves_leave,
    brute_pommaret_candidates,
    brute_sous_escalier,
    curve_ideal,
    curve_ideal_alt,
    ideal_with_staircase,
    is_revlex_ideal,
    order_ideals,
    random_artinian_ideal,
    random_monomial_ideal,
    random_strongly_stable,
    truncate_below,
)


def test_minimalize_drops_multiples_and_sorts():
    J = minimalize([term(2, 0), term(2, 1), term(0, 3)])
    assert J.min_gens == (term(2, 0), term(0, 3))
    assert minimalize([term(3,)]).min_gens == (term(3,),)


def test_minimalize_curve_generators_already_minimal():
    J = curve_ideal_alt()
    assert len(J.min_gens) == 6


def test_minimalize_empty_is_zero_ideal():
    Z = minimalize([], n=3)
    assert Z.is_zero
    with pytest.raises(DomainError):
        colength(Z)
    with pytest.raises(DimensionError):
        minimalize([])


def test_ideal_invariants_enforced():
    with pytest.raises(DomainError):
        MonomialIdeal(2, (term(2, 0), term(2, 1)))  # not minimal
    with pytest.raises(DomainError):
        MonomialIdeal(2, (term(0, 3), term(2, 0)))  # not sorted


def test_basis_checks_match_brute_force():
    # seeded random generator lists with duplicates and multiples; the oracle
    # compares every pair with Term.divides and never calls minimalize
    rng = random.Random(5150)
    rejected = 0
    for _ in range(1500):
        n = rng.randint(1, 5)
        pool = [tuple(rng.randint(0, 4) for _ in range(n)) for _ in range(rng.randint(1, 8))]
        for _ in range(rng.randint(0, 3)):
            e = rng.choice(pool)
            pool.append(rng.choice([e, tuple(x + rng.randint(0, 2) for x in e)]))
        terms = [Term(e) for e in pool]
        expected = brute_minimal_basis(terms)
        J = minimalize(terms)
        assert J.min_gens == expected
        # the index itself, built in random order with multiples included
        index = _Divisors(rng.sample(pool, len(pool)))
        for m in enumerate_terms(n, rng.randint(0, 6)):
            assert contains(J, m) == any(g.divides(m) for g in expected)
            assert index.divides(m.exponents) == contains(J, m)
        # the sorted distinct list is a valid basis exactly when it is minimal
        basis = tuple(sorted(set(terms), key=Term.sort_key))
        proper = [(a, b) for b in basis for a in basis if a != b and a.divides(b)]
        if not proper:
            assert MonomialIdeal(n, basis).min_gens == expected
            continue
        rejected += 1
        with pytest.raises(DomainError) as info:
            MonomialIdeal(n, basis)
        a, b = (ast.literal_eval(x) for x in
                str(info.value).removeprefix("basis not minimal: ").split(" divides "))
        assert a != b and Term(a).divides(Term(b))
        # named: the first generator with a divisor, and its first divisor
        assert (Term(a), Term(b)) == proper[0]
    assert min(rejected, 1500 - rejected) > 100


def test_basis_checks_make_no_pairwise_scan(monkeypatch):
    # the greedy proves its basis minimal by its move check and never asks
    # the divisor index, nor does minimalize, whose staircase recursion
    # proves this stable Artinian list; the checked constructor answers
    # divisibility for every candidate in one batched pass of the index,
    # with no per-term query.  A pairwise scan makes 375k divisibility tests
    # on this basis
    scans = queries = passes = 0

    def counting_divides(a, b):
        nonlocal scans
        scans += 1
        return raw_divides(a, b)

    below, alone = _Divisors.below, _Divisors.alone

    def counting_below(self, e):
        nonlocal queries
        queries += 1
        return below(self, e)

    def counting_alone(self, terms):
        nonlocal passes
        passes += 1
        return alone(self, terms)

    monkeypatch.setattr(terms_module, "raw_divides", counting_divides)
    monkeypatch.setattr(_Divisors, "below", counting_below)
    monkeypatch.setattr(_Divisors, "alone", counting_alone)
    J = almost_revlex_ci(5, (5, 5, 5, 5, 8))
    assert len(J.min_gens) == 627
    assert scans < len(J.min_gens)
    assert queries == passes == 0
    for build, want in ((lambda: minimalize(list(J.min_gens)), 0),
                        (lambda: MonomialIdeal(5, J.min_gens), 1)):
        scans = queries = passes = 0
        assert build() == J
        assert scans < len(J.min_gens)
        assert queries == 0
        assert passes == want


def test_minimalize_indexes_the_kept_basis():
    # after dropping duplicates and multiples, the returned ideal carries the
    # basis the checked constructor builds from the kept terms; its index is
    # handed over by the divisor route or, for a stable list with a pure power
    # of every variable (the recursion route), built on first use
    rng = random.Random(1515)
    dropped = 0
    for _ in range(300):
        n = rng.randint(1, 4)
        pool = [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(1, 6))]
        pool += [tuple(x + rng.randint(0, 2) for x in rng.choice(pool)) for _ in range(3)]
        terms = [Term(e) for e in pool]
        expected = brute_minimal_basis(terms)
        J = minimalize(terms)
        assert J.min_gens == expected
        dropped += len(set(pool)) > len(expected)
        assert J == MonomialIdeal(n, J.min_gens)
        assert hash(J) == hash(MonomialIdeal(n, J.min_gens))
        assert [J._divisors.below(b) for b in J._raw] == [1 << k for k in range(len(J._raw))]
        for t in range(7):
            for m in enumerate_terms(n, t):
                assert contains(J, m) == any(g.divides(m) for g in expected), (J, m)
    assert dropped > 100


def test_direct_construction_checks_every_basis():
    # only minimalize skips the basis checks; a basis passed in directly is
    # checked for length, order and minimality
    with pytest.raises(DomainError, match="not strictly increasing"):
        MonomialIdeal(2, (term(0, 3), term(2, 0)))
    with pytest.raises(DomainError, match="not strictly increasing"):
        MonomialIdeal(2, (term(2, 0), term(2, 0)))
    with pytest.raises(DomainError, match=r"basis not minimal: \(2, 0\) divides \(2, 1\)"):
        MonomialIdeal(2, (term(2, 0), term(2, 1)))
    with pytest.raises(DimensionError, match="wrong variable count"):
        MonomialIdeal(3, (term(2, 0, 0), term(0, 3)))
    J = almost_revlex_ci(4, (3, 3, 4, 5))
    assert MonomialIdeal(J.n, J.min_gens) == J
    with pytest.raises(DomainError, match="basis not minimal"):
        MonomialIdeal(J.n, tuple(sorted(J.min_gens + (J.min_gens[0] * term(0, 0, 0, 1),),
                                        key=Term.sort_key)))


def test_huge_exponents_stay_fast():
    # the index is keyed by the distinct exponents, never by their range
    start = time.perf_counter()
    for n in (2, 3):
        gens = [Term((10**9,) + (0,) * (n - 1)), Term((0, 10**9) + (0,) * (n - 2))]
        J = minimalize(gens)
        assert MonomialIdeal(n, J.min_gens) == J
        assert contains(J, Term((10**9, 1) + (0,) * (n - 2)))
        assert not contains(J, Term((10**9 - 1, 10**9 - 1) + (0,) * (n - 2)))
        assert is_quasi_stable(J)
    assert time.perf_counter() - start < 0.5


def test_loader_matches_brute_force():
    # ideal_from_json checks and sorts a generator list in bulk and keeps its
    # minimal terms in one batched pass; it must agree, in basis, equality
    # and hash, with the brute-force basis, with minimalize over Terms and
    # with the checked constructor, which names the first non-minimal term
    # and its first divisor in degrevlex order
    rng = random.Random(2020)
    cases = [(2, [[10**9, 0], [0, 10**9]]), (3, [[0, 10**9, 0], [10**9, 0, 0]])]
    for _ in range(600):
        n = rng.randint(1, 6)
        pool = [[rng.randint(0, 6) for _ in range(n)] for _ in range(rng.randint(1, 10))]
        pool += [[min(6, x + rng.randint(0, 2)) for x in rng.choice(pool)]
                 for _ in range(rng.randint(0, 3))]
        pool += [list(g) for g in rng.sample(pool, rng.randint(0, min(3, len(pool))))]
        order = rng.choice(("shuffled", "sorted", "basis"))
        if order == "shuffled":
            rng.shuffle(pool)
        elif order == "sorted":
            pool.sort(key=lambda g: raw_key(tuple(g)))
        else:
            pool = [list(g.exponents) for g in brute_minimal_basis([Term(tuple(g)) for g in pool])]
        cases.append((n, pool))
    orders = set()
    for n, gens in cases:
        terms = [Term(tuple(g)) for g in gens]
        J = ideal_from_json({"vars": n, "generators": gens})
        expected = brute_minimal_basis(terms)
        assert J.min_gens == expected
        assert all(type(g.exponents) is tuple for g in J.min_gens)
        K, L = minimalize(terms, n), MonomialIdeal(n, expected)
        assert J == K == L and hash(J) == hash(K) == hash(L)
        distinct = sorted(set(terms), key=Term.sort_key)
        orders.add((distinct == terms, len(distinct) > len(expected)))
        if len(distinct) > len(expected):
            b = next(b for b in distinct if b not in expected)
            a = next(a for a in distinct if a != b and a.divides(b))
            with pytest.raises(DomainError) as info:
                MonomialIdeal(n, tuple(distinct))
            assert str(info.value) == f"basis not minimal: {a.exponents} divides {b.exponents}"
    # in order or not, minimal or not: every path of the loader ran
    assert orders == {(True, True), (True, False), (False, True), (False, False)}


def test_loader_proves_stable_artinian_lists_by_the_recursion(monkeypatch):
    # a list with a pure power of every variable runs the staircase
    # recursion: a candidate in the first expansion is a minimal generator,
    # one outside it a multiple, and the move check decides stability.  The
    # loader and minimalize take the same route for each list and seed the
    # same caches, and either gives the brute-force basis; a stable list
    # builds no divisor index and carries the codec, slices, verdict and pure
    # powers that a checked ideal on its basis computes; a non-stable or
    # non-Artinian list, one holding 1 and one whose staircase outgrows the
    # recursion's budget take the index route and carry it
    builds = 0
    init = _Divisors.__init__

    def counting_init(self, terms):
        nonlocal builds
        builds += 1
        init(self, terms)

    monkeypatch.setattr(_Divisors, "__init__", counting_init)
    rng = random.Random(2424)
    stable = [almost_revlex_ci(len(d), d) for d in
              [(2,), (5,), (2, 2), (2, 5), (3, 4), (2, 2, 2), (2, 3, 4), (3, 3, 3), (2, 2, 2, 3)]]
    stable += [random_strongly_stable(rng, n, rng.randint(1, 5)) for n in (1, 2, 3, 4)
               for _ in range(15)]
    stable += artinian_stable_ideals(3, 6)
    others = [random_artinian_ideal(rng, n) for n in (1, 2, 3) for _ in range(40)]
    others += [random_monomial_ideal(rng, n) for n in (2, 3, 4) for _ in range(20)]
    others += [minimalize([one(n)]) for n in (1, 2, 3)]
    big = MonomialIdeal(2, (term(1, 0), term(0, 10**9)))  # stable, colength 10^9
    others.append(big)

    def candidates(J, with_one=False):
        pool = [g.exponents for g in J.min_gens]
        for _ in range(rng.randint(0, 4)):  # multiples, some past the pure powers
            pool.append(tuple(x + rng.randint(0, 2) for x in rng.choice(pool)))
        pool += rng.sample(pool, rng.randint(0, min(3, len(pool))))
        pool += [(0,) * J.n] * with_one
        if rng.random() < 0.75:
            rng.shuffle(pool)
        else:
            pool.sort(key=raw_key)
        return pool

    seen = set()
    for J0 in stable + others:
        n = J0.n
        pool = candidates(J0, with_one=J0 in others and rng.random() < 0.1)
        terms = [Term(e) for e in pool]
        F = MonomialIdeal(n, brute_minimal_basis(terms))
        # (big's stability check alone would expand 10^9 degrees)
        kind = "budget" if J0 is big else "stable" if is_stable(F) else "non-stable"
        recursion = F.is_artinian and kind == "stable"
        seeds = {"_codec", "_slice_store", "_stable", "_pure_powers"} if recursion else {"_divisors"}
        if recursion:
            _slices(F, F.max_gen_degree())
            assert F.__dict__["_stable"] is True
        seen.add("recursion" if recursion else kind)
        seen.add("Artinian" if F.is_artinian else "non-Artinian")
        for build in (lambda: ideal_from_json({"vars": n, "generators": [list(e) for e in pool]}),
                      lambda: minimalize(terms, n)):
            before = builds
            J = build()
            assert (builds == before) == recursion, (J0, pool)
            assert set(J.__dict__) == {"n", "_raw"} | seeds, (J0, pool)
            assert J.min_gens == F.min_gens and J == F and hash(J) == hash(F), (J0, pool)
            if recursion:
                assert J.__dict__["_stable"] is True
                assert (J._codec.M, J._codec.top) == (F._codec.M, F._codec.top), J
                assert J._slice_store == F._slice_store, J
                assert J._pure_powers == F._pure_powers, J
    assert seen == {"recursion", "budget", "stable", "non-stable", "Artinian", "non-Artinian"}


def test_moves_leave_equals_brute_force():
    # one comparison answers when the least generator lies above the slice,
    # since a move's code exceeds its generator's; it must agree with every
    # move decoded and looked up, on the generators and exact slices of
    # stable and non-stable ideals, and on random same-degree code lists
    # whose least generator does not lie above the slice
    rng = random.Random(2901)
    ideals = [almost_revlex_ci(len(d), d) for d in [(2,), (2, 2), (3, 4), (2, 2, 2), (2, 3, 4)]]
    ideals += [random_strongly_stable(rng, n, rng.randint(1, 4)) for n in (2, 3, 4)
               for _ in range(8)]
    ideals += [random_artinian_ideal(rng, n) for n in (1, 2, 3) for _ in range(25)]
    cases = []
    for J in ideals:
        codec, slices = J._codec, _slices(J)
        codes = codec.encode(J._raw)
        for t in range(1, len(slices)):
            gens = [c for c, g in zip(codes, J._raw) if sum(g) == t]
            if gens:
                cases.append(("slice", gens, slices[t], codec))
    for _ in range(400):
        n, M = rng.randint(2, 4), rng.randint(1, 4)
        t = rng.randint(1, n * M)
        codec = _Codec(n, M)
        terms = [m.exponents for m in enumerate_terms(n, t) if max(m.exponents) <= M]
        if len(terms) < 2:
            continue
        codes = sorted(codec.encode(rng.sample(terms, rng.randint(2, len(terms)))))
        cut = set(rng.sample(range(len(codes)), rng.randint(1, len(codes) - 1)))
        gens = [c for i, c in enumerate(codes) if i in cut]
        outside = [c for i, c in enumerate(codes) if i not in cut]
        cases.append(("random", gens, outside, codec))
    seen = set()
    for kind, gens, outside, codec in cases:
        expected = brute_moves_leave(gens, outside, codec)
        assert _moves_leave(gens, outside, codec) == expected, (kind, gens, outside)
        above = bool(outside) and gens[0] > outside[-1]
        inside = bool(outside) and outside[0] < gens[0] <= outside[-1]
        seen.add((kind, "above" if above else "inside" if inside else "other", expected))
    assert {("slice", "above", False), ("slice", "inside", True), ("slice", "inside", False),
            ("random", "inside", True), ("random", "inside", False),
            ("random", "other", True), ("random", "other", False)} <= seen
    # no generator is above its slice's top with a landing move
    assert not any(where == "above" and hit for _, where, hit in seen)


def test_remove_sorted_equals_filter():
    # a generator block that is the expansion's exact tail is cut off by one
    # list comparison; any other block is merged in.  Both must give the
    # codes left over and, per generator, whether the expansion held it
    rng = random.Random(2902)
    kinds = ("tail", "tail with one code changed", "interleaved", "absent", "empty", "all")
    cases = [(kind, sorted(2 * x for x in rng.sample(range(100), rng.randint(0, 25))))
             for kind in kinds for _ in range(80)]
    for J in [almost_revlex_ci(3, (2, 3, 4)), random_artinian_ideal(rng, 3)]:
        codec, slices = J._codec, _slices(J)
        codes = codec.encode(J._raw)
        for t in range(1, len(slices)):
            cases.append(("expansion", _expand_slice(slices[t - 1], codec),
                          [c for c, g in zip(codes, J._raw) if sum(g) == t]))
    seen = set()
    for case in cases:
        if case[0] == "expansion":
            kind, exp, gens = case
        else:
            # exp holds even codes only, so an odd code is absent from it
            kind, exp = case
            k = rng.randint(0, len(exp))
            if kind == "tail":
                gens = exp[k:]
            elif kind == "tail with one code changed":
                gens = exp[min(k, len(exp) - 2):]
                if len(gens) >= 2:
                    i = rng.randrange(len(gens) - 1)  # any code but the last
                    gens[i] -= 1
            elif kind == "interleaved":
                gens = sorted(set(rng.sample(exp, k)) | {2 * x + 1 for x in range(0, 100, 7)})
            elif kind == "absent":
                gens = sorted(rng.sample(range(1, 200, 2), rng.randint(1, 10)))
            else:
                gens = list(exp) if kind == "all" else []
        before = list(exp), list(gens)
        out, found = _remove_sorted(exp, gens)
        assert out == [c for c in exp if c not in set(gens)], (kind, exp, gens)
        assert found == [c in set(exp) for c in gens], (kind, exp, gens)
        assert (exp, gens) == before
        seen.add((kind, all(found), exp[len(exp) - len(gens):] == gens))
    assert {("tail", True, True), ("tail with one code changed", False, False),
            ("interleaved", False, False), ("absent", False, False), ("empty", True, True),
            ("all", True, True), ("expansion", True, True)} <= seen


def test_loader_routes_by_pure_powers_and_order():
    # a list with a pure power of every variable and no constant term is
    # encoded once and its order checked on integer keys; it is sorted only
    # when that check fails.  Every list, in order or not, with duplicates or
    # multiples past the largest smallest pure power, gives the brute-force
    # basis; on that route the codec's bound is the largest pure power and
    # the slices are those of the checked ideal.  A list with the constant
    # term, or missing a pure power, builds no codec at load
    rng = random.Random(2903)
    ideals = [almost_revlex_ci(len(d), d) for d in [(3,), (6,), (2, 2), (3, 5), (2, 2, 3)]]
    ideals += [random_strongly_stable(rng, n, rng.randint(1, 4)) for n in (1, 2, 3)
               for _ in range(6)]
    ideals += [random_artinian_ideal(rng, n) for n in (1, 2, 3) for _ in range(12)]
    kinds = ("sorted", "shuffled", "duplicated", "past the bound", "constant", "no pure power")
    seen = set()
    for J0 in ideals:
        n, base = J0.n, [g.exponents for g in J0.min_gens]
        M = max(J0._pure_powers.values())
        for kind in kinds:
            pool = list(base)
            if kind == "duplicated":
                pool += rng.choices(pool, k=rng.randint(1, 4))
            elif kind == "past the bound":
                for _ in range(rng.randint(1, 3)):
                    e = list(rng.choice(pool))
                    e[rng.randrange(n)] = M + rng.randint(1, 3)
                    pool.append(tuple(e))
            elif kind == "constant":
                pool.append((0,) * n)
            elif kind == "no pure power":
                v = rng.randrange(n)
                pool = [g for g in pool if g[v] == 0 or g.count(0) < n - 1]
            if kind != "sorted":
                rng.shuffle(pool)
            terms = [Term(e) for e in pool]
            J = ideal_from_json({"vars": n, "generators": [list(e) for e in pool]})
            expected = brute_minimal_basis(terms)
            assert J.min_gens == expected, (kind, pool)
            if kind in ("constant", "no pure power"):
                assert "_codec" not in J.__dict__, (kind, pool)
                continue
            F = MonomialIdeal(n, expected)
            seeded = "_codec" in J.__dict__
            assert seeded == is_stable(F), (kind, pool)
            assert J._codec.M == M == max(F._pure_powers.values()), (kind, pool)
            assert _slices(J) == _slices(F), (kind, pool)
            seen.add((kind, seeded, n == 1, pool == sorted(set(pool), key=raw_key)))
    for kind in kinds[:4]:
        assert {(kind, True, False), (kind, False, False), (kind, True, True)} <= {
            s[:3] for s in seen}, kind
    assert {s[3] for s in seen} == {True, False}


def test_ideal_needs_a_variable():
    for n in (0, -1):
        with pytest.raises(DimensionError, match=f"need at least one variable, got n={n}"):
            MonomialIdeal(n, ())
        with pytest.raises(DimensionError):
            minimalize([], n=n)


def test_contains():
    J = minimalize([term(3, 0)])
    assert contains(J, term(3, 1))
    assert not contains(J, term(2, 5))
    K = minimalize([Term(e) for e in [(3, 0, 0), (2, 1, 0), (1, 2, 0), (0, 3, 0), (2, 0, 2)]])
    assert contains(K, term(2, 0, 2))
    with pytest.raises(DimensionError):
        contains(J, term(1, 1, 1))


def test_sous_escalier_basic():
    J = minimalize([term(3,)])
    assert sous_escalier(J, 2) == [term(2,)]
    assert sous_escalier(J, 3) == []
    counts = [len(sous_escalier(curve_ideal(), t)) for t in range(6)]
    assert counts == [1, 3, 6, 6, 5, 5]


def test_sous_escalier_fast_path_agrees_with_filter():
    rng = random.Random(99)
    ideals = [curve_ideal(), curve_ideal_alt()]
    for n in (2, 3, 4):
        for _ in range(6):
            ideals.append(random_strongly_stable(rng, n, rng.randint(2, 5)))
    # non-stable ideals, non-Artinian and Artinian, and zero ideals; the
    # degrees run past the last nonzero slice
    for n in (1, 2, 3, 4):
        for _ in range(6):
            ideals.append(random_monomial_ideal(rng, n))
            ideals.append(random_artinian_ideal(rng, n))
    ideals += [minimalize([], 1), minimalize([], 3)]
    assert sum(not is_stable(J) for J in ideals) >= 20
    for J in ideals:
        if J.is_artinian:  # every pure power here has exponent <= 5
            top = J.n * 4 + 2
        else:
            top = (0 if J.is_zero else J.max_gen_degree()) + 3
        slices = _slices(J, top) if is_stable(J) else None
        if slices is not None:  # the slices stop at the first empty one
            slices += [[]] * (top + 1 - len(slices))
        decode = J._codec.decode
        for t in range(top + 1):
            want = brute_sous_escalier(J, t)
            assert sous_escalier(J, t) == want, (J, t)
            if slices is not None:
                assert [Term(e) for e in decode(slices[t])] == want, (J, t)


def test_far_degrees_of_an_artinian_ideal_stop_at_the_first_empty_slice():
    # N(J) is an order ideal, so every slice past an empty one is empty: a
    # degree far past the socle reads empty and builds no slice there, on
    # the constructed ideal and on a checked copy that builds its own
    J = almost_revlex_ci(3, (2, 2, 2))
    for K in (J, MonomialIdeal(J.n, J.min_gens)):
        start = time.perf_counter()
        assert sous_escalier(K, 10**7) == [] and first_expansion(K, 10**7) == []
        assert time.perf_counter() - start < 0.1
        assert len(K._slice_store) == 5
        assert [len(sous_escalier(K, t)) for t in range(6)] == [1, 3, 3, 1, 0, 0]


def test_staircase_caches_answer_first_on_a_fresh_ideal():
    # _codec and _slice_store are cached properties, so a fresh ideal of any
    # kind answers them before any other call, and the slices grown from
    # there are N(J); each ideal is built anew for each way of building it
    def kinds():
        for n in (1, 2, 3):
            x = [term(*((0,) * v + (1,) + (0,) * (n - v - 1))) for v in range(n)]
            yield "zero", [], n
            yield "unit", [one(n)], n
            yield "Artinian stable", [g * h for g in x for h in x], n  # (x1..xn)^2
            if n > 1:
                yield "non-Artinian stable", [x[0] * x[0]], n
        yield "Artinian non-stable", [term(2, 0), term(0, 2)], 2
        yield "non-Artinian non-stable", [term(0, 2, 0)], 3
        yield "non-Artinian stable", [term(1, 0, 0), term(0, 3, 0)], 3

    for kind, gens, n in kinds():
        builds = [("minimalize", lambda: minimalize(gens, n)),
                  ("loader", lambda: ideal_from_json({"vars": n, "generators": [
                      list(g.exponents) for g in gens]}))]
        if gens:
            builds.append(("checked", lambda: MonomialIdeal(n, minimalize(gens, n).min_gens)))
        for way, build in builds:
            J = build()
            codec, store = J._codec, J._slice_store
            # minimalize and the loader prove an Artinian stable list by the
            # recursion and hand the ideal N(J) through its top degree; any
            # other ideal starts from N(J)_0
            seeded = way != "checked" and kind == "Artinian stable"
            assert codec.M >= 1 and store[0] == ([] if kind == "unit" else [codec.top]), J
            assert len(store) == (J.max_gen_degree() + 1 if seeded else 1), (J, way)
            top = (J.max_gen_degree() if gens else 0) + 2 * codec.M + 1
            slices = _slices(J, top)
            assert J._slice_store is store, J
            for t in range(top + 1):  # past the first empty slice, all are empty
                got = [Term(e) for e in J._codec.decode(slices[t] if t < len(slices) else [])]
                assert got == brute_sous_escalier(J, t), (J, t)
            assert is_stable(J) == brute_is_stable(J) == ("non-stable" not in kind), J
            assert J.is_artinian == kind.startswith("Artinian"), J


def test_non_artinian_slices_recode_past_the_exponent_bound():
    # a non-Artinian J codes its slices under a bound taken from its top
    # generator degree; asking past it recodes the store under a larger one,
    # on (x1, x2^k), which is stable, and on (x2^k), which is not
    for n in (3, 4, 5):
        for k in (2, 3):
            x2k = term(*((0, k) + (0,) * (n - 2)))
            x1 = term(*((1,) + (0,) * (n - 1)))
            for J in (minimalize([x1, x2k]), minimalize([x2k])):
                assert is_stable(J) == (len(J.min_gens) == 2) and not J.is_artinian
                first = J._codec
                assert first.M == k
                for t in (first.M + 2, 2 * first.M + 5):
                    M = J._codec.M
                    assert sous_escalier(J, t) == brute_sous_escalier(J, t), (J, t)
                    assert J._codec.M >= t > M, (J, t)
                # the recoded store still holds every lower slice
                for t in range(2 * first.M + 5):
                    assert sous_escalier(J, t) == brute_sous_escalier(J, t), (J, t)


def test_first_expansion_golden_eleven_terms():
    J = minimalize([term(3, 0, 0), term(2, 2, 0), term(1, 3, 0)])
    got = first_expansion(J, 4)
    want = sorted(
        [
            term(0, 5, 0), term(0, 4, 1), term(2, 1, 2), term(1, 2, 2),
            term(0, 3, 2), term(2, 0, 3), term(1, 1, 3), term(0, 2, 3),
            term(0, 1, 4), term(1, 0, 4), term(0, 0, 5),
        ],
        key=Term.sort_key,
    )
    assert got == want
    by_min_var = [m.min_var() for m in got]
    assert by_min_var.count(3) == 10 and by_min_var.count(2) == 1


def test_first_expansion_requires_stability():
    J = minimalize([term(0, 2)])  # x2^2 alone is not stable
    with pytest.raises(StabilityError):
        first_expansion(J, 2)


def test_first_expansion_trivial_and_brute():
    # for J = (x1) in one variable the staircase is {1}: expanding degree 0
    # still yields x1 (nothing of degree 0 lies in J), empty from degree 1 on
    J = minimalize([term(1,)])
    assert first_expansion(J, 0) == [term(1,)]
    for t in range(1, 5):
        assert first_expansion(J, t) == []
    rng = random.Random(4)
    for n in (2, 3, 4):
        for _ in range(10):
            J = random_strongly_stable(rng, n, rng.randint(2, 5))
            for t in range(J.max_gen_degree() + 2):
                got = first_expansion(J, t)
                assert got == brute_first_expansion(J, t)
                assert sorted(got, key=Term.sort_key) == got
                assert len(set(got)) == len(got)


def test_stability_predicates_goldens():
    assert is_strongly_stable(curve_ideal())
    J = minimalize([term(0, 2)])
    assert not is_stable(J)
    assert not is_quasi_stable(minimalize([term(0, 0, 2)]))
    # quasi-stable but not stable: x1^2, x2^2 (x1*x2 missing, x1^2*x2/x2 ok)
    Q = minimalize([term(2, 0), term(0, 2)])
    assert is_quasi_stable(Q) and not is_stable(Q)


def test_stability_implication_chain():
    rng = random.Random(11)
    for n in (2, 3, 4):
        for _ in range(8):
            J = random_strongly_stable(rng, n, rng.randint(2, 5))
            assert is_strongly_stable(J)
            assert is_stable(J)
            assert is_quasi_stable(J)


def stability_test_ideals() -> list[MonomialIdeal]:
    """Random minimal ideals, most not stable, plus every Artinian ideal with
    a small staircase, which includes stable ideals that are not strongly
    stable."""
    rng = random.Random(404)
    ideals = [random_monomial_ideal(rng, rng.randint(1, 5)) for _ in range(1500)]
    for n in (2, 3, 4):
        ideals += [ideal_with_staircase(S, n) for S in order_ideals(n, 8)]
    return ideals


def test_stability_predicates_match_definitions():
    seen = set()
    for J in stability_test_ideals():
        kind = (brute_is_quasi_stable(J), brute_is_stable(J), brute_is_strongly_stable(J))
        assert (is_quasi_stable(J), is_stable(J), is_strongly_stable(J)) == kind, J
        seen.add(kind)
    assert seen == {(False, False, False), (True, False, False), (True, True, False),
                    (True, True, True)}


def test_stability_read_off_the_slices_in_either_order():
    # the slices decide stability as they go: slicing part of the way first,
    # or asking for the verdict first, gives the verdict of the definition,
    # and a non-stable ideal's slices, resumed after a partial build and
    # carried past the failing degree, are the staircase of the definition
    rng = random.Random(1505)
    unstable = 0
    for J in stability_test_ideals():
        want = brute_is_stable(J)
        top = J.max_gen_degree()
        sliced_first = MonomialIdeal(J.n, J.min_gens)
        _slices(sliced_first, rng.randrange(top) if top else 0)
        asked_first = MonomialIdeal(J.n, J.min_gens)
        assert is_stable(asked_first) == want, J
        assert is_stable(sliced_first) == want, J
        if want:
            continue
        unstable += 1
        brute = [[m.exponents for m in brute_sous_escalier(J, t)] for t in range(top + 3)]
        slices = _slices(sliced_first, top + 2)  # may recode the slices
        slices += [[]] * (top + 3 - len(slices))  # they stop at the first empty one
        decode = sliced_first._codec.decode
        assert [decode(sl) for sl in slices] == brute, J
    assert unstable > 1000


@pytest.mark.parametrize("predicate", [is_stable, is_quasi_stable, is_strongly_stable])
def test_stability_predicates_build_no_staircase(predicate):
    # each predicate is one lookup per move of B_J; none builds N(J), which
    # through the top generator degree holds 10^7 to 10^8 terms here
    gens = [[(1, 0, 0, 0), (0, 400, 0, 0)], [(0, 60, 0, 0, 0), (0, 0, 61, 0, 0)],
            [(1000, 0, 0), (0, 1000, 0), (0, 0, 1000)]]
    verdicts = []
    for raw in gens:
        J = minimalize([Term(e) for e in raw])
        verdicts.append(predicate(J))
        assert len(J._slice_store) == 1, J
    want = {is_stable: [True, False, False], is_quasi_stable: [True, False, True],
            is_strongly_stable: [True, False, False]}
    assert verdicts == want[predicate]


def test_staircase_that_contradicts_a_stable_verdict_is_an_invariant_failure():
    # (x1^2, x2^2) is not stable: the move x1*x2 of x2^2 lies in N(J)_2; a
    # stable verdict seeded against it makes the recursion raise
    J = _trusted(2, ((2, 0), (0, 2)), _stable=True)
    with pytest.raises(AssertionError):
        _slices(J, 3)


def test_almost_revlex_examples():
    J = minimalize(
        [term(0, 3, 0, 0), term(1, 2, 0, 0), term(2, 1, 0, 0), term(3, 0, 0, 0),
         term(2, 0, 2, 0)]
    )
    assert is_almost_revlex(J)
    assert not is_revlex_ideal(J)
    assert not is_almost_revlex(curve_ideal_alt())
    assert is_almost_revlex(curve_ideal())


def test_almost_revlex_brute_force_small():
    rng = random.Random(31)
    for n in (2, 3):
        for _ in range(25):
            gens = []
            for _ in range(rng.randint(1, 4)):
                d = rng.randint(1, 4)
                e = [0] * n
                for _ in range(d):
                    e[rng.randrange(n)] += 1
                gens.append(Term(tuple(e)))
            J = minimalize(gens)
            assert is_almost_revlex(J) == brute_is_almost_revlex(J)
    for J in [curve_ideal(), curve_ideal_alt()]:
        assert is_almost_revlex(J) == brute_is_almost_revlex(J)


def test_revlex_ideal_implies_almost_revlex():
    # a revlex ideal: generated by top segments degree by degree
    J = minimalize([term(2, 0), term(1, 1), term(0, 3)])
    assert is_revlex_ideal(J)
    assert is_almost_revlex(J)


def test_extend_ring():
    J = minimalize([term(3,)])
    K = extend_ring(J, 2)
    assert K.n == 2 and K.min_gens == (term(3, 0),)
    with pytest.raises(DimensionError):
        extend_ring(K, 1)
    rng = random.Random(13)
    for _ in range(10):
        J = random_strongly_stable(rng, rng.randint(1, 3), rng.randint(2, 4))
        if is_almost_revlex(J):
            assert is_almost_revlex(extend_ring(J, J.n + rng.randint(1, 2)))


def test_truncate_below():
    J = minimalize([term(3, 0), term(0, 5)])
    assert truncate_below(J, 4).min_gens == (term(3, 0),)
    J22 = minimalize([term(3, 0), term(2, 2), term(1, 4), term(0, 6)])
    assert truncate_below(J22, 4).min_gens == (term(3, 0), term(2, 2))
    assert truncate_below(J22, J22.max_gen_degree()) == J22


def test_pommaret_decompose():
    J = minimalize([term(3, 0, 0), term(2, 1, 0)])
    a, d = pommaret_decompose(J, term(2, 1, 2))
    assert (a, d) == (term(2, 1, 0), term(0, 0, 2))
    g = term(3, 0, 0)
    assert pommaret_decompose(J, g) == (g, one(3))
    with pytest.raises(DomainError):
        pommaret_decompose(J, term(0, 0, 4))


def test_pommaret_uniqueness_brute():
    rng = random.Random(5)
    for n in (2, 3, 4):
        for _ in range(6):
            J = random_strongly_stable(rng, n, rng.randint(2, 4))
            top = J.max_gen_degree() + 2
            for t in range(top + 1):
                for m in enumerate_terms(n, t):
                    if contains(J, m):
                        cands = brute_pommaret_candidates(J, m)
                        assert len(cands) == 1
                        assert pommaret_decompose(J, m) == cands[0]


def test_pommaret_rejects_terms_outside():
    rng = random.Random(7)
    ideals = [random_strongly_stable(rng, rng.randint(2, 4), rng.randint(2, 4))
              for _ in range(6)]
    ideals += artinian_stable_ideals(3, 6)
    outside = 0
    for J in ideals:
        for t in range(J.max_gen_degree() + 2):
            for m in enumerate_terms(J.n, t):
                if not any(g.divides(m) for g in J.min_gens):
                    outside += 1
                    with pytest.raises(DomainError):
                        pommaret_decompose(J, m)
    assert outside


def test_pommaret_roundtrip():
    rng = random.Random(6)
    for _ in range(8):
        J = random_strongly_stable(rng, 3, 4)
        for t in range(J.max_gen_degree() + 2):
            for m in enumerate_terms(3, t):
                if contains(J, m):
                    a, d = pommaret_decompose(J, m)
                    assert a.mul(d) == m
                    if d.degree:
                        assert d.max_var() >= a.min_var()


def test_pure_power_table_matches_the_basis():
    # the one pure-power table, against a scan of every x_j^e up to the top
    # generator degree for membership in B_J
    ideals = stability_test_ideals() + [minimalize([], 3), minimalize([one(3)])]
    ideals += [minimalize([term(1, 0, 0), term(0, k, 0)]) for k in (1, 2, 5)]
    for J in ideals:
        top = J.max_gen_degree() if J.min_gens else 0
        brute = {j: e for j in range(1, J.n + 1) for e in range(1, top + 1)
                 if Term(tuple(e if v == j else 0 for v in range(1, J.n + 1))) in J.min_gens}
        assert J._pure_powers == brute, J
        assert J.is_artinian == (len(brute) == J.n), J
    assert not minimalize([one(3)]).is_artinian  # the unit ideal has no pure power
    assert minimalize([term(1, 0, 0), term(0, 5, 0)])._pure_powers == {1: 1, 2: 5}


def test_krull_dim():
    assert krull_dim(curve_ideal()) == 1
    assert krull_dim(minimalize([term(2, 0, 0)])) == 2
    assert krull_dim(minimalize([term(1, 0), term(0, 1)])) == 0
    with pytest.raises(StabilityError):
        krull_dim(minimalize([term(0, 2)]))


def test_reduction_numbers():
    J = curve_ideal()
    assert reduction_number(J, 1) == 2
    assert reduction_number(J, 2) == 2
    Jp = curve_ideal_alt()
    assert reduction_number(Jp, 1) == 3
    assert reduction_number(Jp, 2) == 2
    assert reduction_number(minimalize([term(4,)]), 0) == 3
    with pytest.raises(DomainError):
        reduction_number(J, 0)  # below the Krull dimension
    # monotone in s above the dimension
    rng = random.Random(17)
    for _ in range(10):
        K = random_strongly_stable(rng, 4, rng.randint(2, 5))
        d = krull_dim(K)
        rs = [reduction_number(K, s) for s in range(d, 4)]
        assert all(a >= b for a, b in zip(rs, rs[1:]))


def test_regularity():
    assert regularity(minimalize([term(5,)])) == 5
    with pytest.raises(StabilityError):
        regularity(minimalize([term(0, 2)]))


def test_regularity_and_colength_of_constructed_ideals():
    from arevlex import almost_revlex_ci, c_index, hf_of_ideal

    J = almost_revlex_ci(3, (3, 4, 4))
    assert regularity(J) == 9
    assert colength(J) == 48
    assert border_generator_count(J) == 10
    assert colength(almost_revlex_ci(3, (2, 2, 2))) == 2 ** 3
    assert colength(almost_revlex_ci(4, (3, 3, 3, 3))) == 3 ** 4
    # the top positivity index sits one below the regularity
    for degs in [(3, 4, 4), (2, 2, 2), (2, 3, 5)]:
        K = almost_revlex_ci(len(degs), degs)
        assert regularity(K) - 1 == c_index(hf_of_ideal(K, 0), 0)


def test_colength():
    assert colength(minimalize([term(1, 0, 0), term(0, 1, 0), term(0, 0, 1)])) == 1
    assert colength(minimalize([term(2, 0), term(1, 1), term(0, 3)])) == 4
    with pytest.raises(DomainError):
        colength(curve_ideal())  # dimension 1, not Artinian
    rng = random.Random(23)
    for _ in range(8):
        J = random_strongly_stable(rng, 3, rng.randint(2, 5))
        assert colength(J) == sum(
            len(brute_sous_escalier(J, t)) for t in range(J.max_gen_degree() + 1)
        )
    for n in (1, 2, 3):
        for _ in range(6):
            J = random_artinian_ideal(rng, n)
            assert colength(J) == sum(
                len(brute_sous_escalier(J, t)) for t in range(n * 4 + 1)
            )


def test_staircase_index_reaches_past_the_top_generator_degree():
    # N(x1^3, x2^3) holds x1^2*x2^2 in degree 4, above the top generator
    # degree 3; a non-stable J's staircase need not stop there
    rng = random.Random(3131)
    ideals = [minimalize([term(3, 0), term(0, 3)])]
    ideals += [random_artinian_ideal(rng, n) for n in (1, 2, 3) for _ in range(6)]
    reached_past = 0
    for J in ideals:
        flat = []
        for t in range(J.n * 4 + 1):  # every slice past degree 4n is empty
            flat += [m.exponents for m in brute_sous_escalier(J, t)]
        assert flat == sorted(flat, key=raw_key)
        assert list(J._staircase) == flat
        assert list(J._staircase.values()) == list(range(len(flat)))
        assert colength(J) == len(flat)
        reached_past += sum(flat[-1]) > J.max_gen_degree()
    assert reached_past >= 2


def test_staircase_is_the_one_column_decode_zipped():
    # colength reads the cached columns of N(J); the tuple index is built
    # from them only when asked for, and equals a decode of the coded slices
    rng = random.Random(2121)
    ideals = [almost_revlex_ci(3, (3, 4, 4)), almost_revlex_ci(3, (2, 2, 300))]
    ideals += [random_artinian_ideal(rng, n) for n in (1, 2, 3, 4) for _ in range(4)]
    for J in ideals:
        D = colength(J)
        assert "_staircase" not in J.__dict__
        assert [len(col) for col in J._columns] == [D] * J.n
        codes = list(chain.from_iterable(_slices(J)))
        assert J._staircase == dict(zip(J._codec.decode(codes), count())), J
        assert len(J._staircase) == D


def test_border_generator_count_matches_colon_ideal():
    # in one variable the pure power is itself divisible by the last variable
    assert border_generator_count(minimalize([term(4,)])) == 1
    assert border_generator_count(minimalize([term(4, 0)])) == 0
    for J in artinian_stable_ideals(3, 9):
        n = J.n
        count = 0
        t = 0
        while True:
            layer = sous_escalier(J, t)
            if not layer and t > 0:
                break
            for beta in layer:
                shifted = list(beta.exponents)
                shifted[n - 1] += 1
                if contains(J, Term(tuple(shifted))):
                    count += 1
            t += 1
        assert border_generator_count(J) == count


def test_sous_escalier_tail_decreases_once_inside_last_variable():
    # once a slice has no term free of x_n, later slices shrink
    rng = random.Random(41)
    for _ in range(10):
        J = random_strongly_stable(rng, 3, rng.randint(2, 5))
        top = J.max_gen_degree() + 3
        slices = [sous_escalier(J, t) for t in range(top)]
        for ell in range(top - 1):
            if all(m.exponents[-1] > 0 for m in slices[ell]):
                for t in range(ell, top - 1):
                    assert all(m.exponents[-1] > 0 for m in slices[t])
                    assert len(slices[t]) >= len(slices[t + 1])
                break


def test_text_and_json():
    J = minimalize([term(3, 0), term(2, 2)])
    assert ideal_to_text(J) == "(x1^3, x1^2*x2^2)"
    assert ideal_from_json(ideal_to_json(J)) == J
    # JSON input is normalized
    K = ideal_from_json({"vars": 2, "generators": [[2, 0], [2, 1]]})
    assert K.min_gens == (term(2, 0),)
    with pytest.raises(DomainError):
        ideal_from_json({"vars": 2})
    with pytest.raises(DimensionError):
        ideal_from_json({"vars": 2, "generators": [[1, 0, 0]]})
    for bad_vars in (2.0, True, "2"):
        with pytest.raises(DomainError):
            ideal_from_json({"vars": bad_vars, "generators": [[2, 0], [0, 2]]})
