"""Shared brute-force oracles and ideal generators for the test suite.

Everything here recomputes library results from definitions, as literally
as possible, so the fast implementations are checked against independent
code paths.
"""

from __future__ import annotations

import functools
import itertools
import random
from bisect import insort
from fractions import Fraction
from math import comb, prod
from operator import le

from arevlex import (
    DomainError,
    MonomialIdeal,
    NoAlmostRevlexIdeal,
    Term,
    almost_revlex_ci,
    ci_hilbert,
    colength,
    contains,
    derivative,
    enumerate_terms,
    minimalize,
)
from arevlex.hilbert import validate_degrees
from arevlex.ideals import _pommaret_raw, _slices
from arevlex.tangent import _equation_pairs
from arevlex.terms import raw_key, raw_min_var, raw_mul, raw_var


def raw_expand_slice(slice_t: list[tuple[int, ...]], n: int) -> list[tuple[int, ...]]:
    """First expansion of an increasing same-degree list of exponent tuples.

    The reference for the coded ``ideals._expand_slice``.  Block v, x_v times
    the terms whose smallest variable is x_v or above, multiplies a suffix of
    the list: every term divisible by a variable below x_v precedes every
    term that is not.  One forward scan finds where each suffix starts, and
    the blocks for v = n..1 concatenate in increasing order.
    """
    out: list[tuple[int, ...]] = []
    start, size = 0, len(slice_t)
    for i in range(n - 1, -1, -1):
        out += [tau[:i] + (tau[i] + 1,) + tau[i + 1 :] for tau in slice_t[start:]]
        # drop the terms divisible by x_{i+1} from the suffix
        while start < size and slice_t[start][i]:
            start += 1
    return out


def brute_first_expansion(J: MonomialIdeal, t: int) -> list[Term]:
    """T_{t+1} minus {x_i * sigma : sigma in J_t}, straight from the definition."""
    n = J.n
    ideal_t = [m for m in enumerate_terms(n, t) if contains(J, m)]
    forbidden = set()
    for sigma in ideal_t:
        for j in range(1, n + 1):
            e = list(sigma.exponents)
            e[j - 1] += 1
            forbidden.add(tuple(e))
    return [m for m in enumerate_terms(n, t + 1) if m.exponents not in forbidden]


@functools.cache
def _terms_of_degree(n: int, t: int) -> tuple[tuple[tuple[int, ...], Term], ...]:
    """(exponent tuple, term) for every term of degree t, built once per (n, t)."""
    return tuple((m.exponents, m) for m in enumerate_terms(n, t))


def brute_sous_escalier(J: MonomialIdeal, t: int) -> list[Term]:
    """N(J)_t by definition: every degree-t term that no minimal generator divides.

    Each generator of degree <= t strikes the terms it divides, exponent by
    exponent on the raw tuples, from what the ones before it left.
    """
    left = _terms_of_degree(J.n, t)
    for g in J._raw:
        if sum(g) <= t:
            left = [p for p in left if not all(map(le, g, p[0]))]
    return [m for _, m in left]


def hom_dim(J: MonomialIdeal) -> int:
    """dim_K Hom_R(J, R/J) of an Artinian monomial J, one multidegree at a time.

    A homomorphism of multidegree a sends each generator g to c_g x^(g+a),
    which vanishes unless g+a lies in N(J): those generators are live, and
    every nonzero piece has a = beta - g for some beta in N(J).  The syzygy
    of g and h forces c_g = c_h when lcm(g, h)+a lies in N(J), a side that
    is not live counting as zero.  The piece's dimension is the number of
    classes of live generators that these equalities keep apart from zero.
    N(J) is read off :func:`brute_sous_escalier` only.
    """
    if not J.is_artinian:
        raise DomainError("Hom dimension needs an Artinian ideal")
    sous = set()
    for t in itertools.count():
        slice_t = brute_sous_escalier(J, t)
        if not slice_t:
            break
        sous.update(m.exponents for m in slice_t)
    gens = [g.exponents for g in J.min_gens]
    live: dict[tuple[int, ...], list[int]] = {}
    for beta in sous:
        for k, g in enumerate(gens):
            live.setdefault(tuple(b - x for b, x in zip(beta, g)), []).append(k)
    zero = len(gens)
    total = 0
    for a, ks in live.items():
        parent = list(range(zero + 1))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for k in ks:
            for h, g in enumerate(gens):
                lcm_a = tuple(max(x, y) + z for x, y, z in zip(gens[k], g, a))
                if h != k and lcm_a in sous:
                    parent[find(k)] = find(h if h in ks else zero)
        total += len({find(k) for k in ks} - {find(zero)})
    return total


def brute_is_almost_revlex(J: MonomialIdeal) -> bool:
    for g in J.min_gens:
        for m in enumerate_terms(J.n, g.degree):
            if m > g and not contains(J, m):
                return False
    return True


def _in_ideal(J: MonomialIdeal, e) -> bool:
    m = Term(tuple(e))
    return any(g.divides(m) for g in J.min_gens)


def brute_is_stable(J: MonomialIdeal) -> bool:
    """x_j * g / x_min(g) in J for every generator g and every j < min(g).

    Generators suffice: a term of J is g*w, and moving its smallest variable
    either moves one of w (leaving g) or the smallest variable of g.
    """
    for g in J.min_gens:
        if g.degree == 0:
            continue
        k = g.min_var()
        for j in range(1, k):
            e = list(g.exponents)
            e[k - 1] -= 1
            e[j - 1] += 1
            if not _in_ideal(J, e):
                return False
    return True


def brute_is_strongly_stable(J: MonomialIdeal) -> bool:
    """x_j * g / x_i in J for every generator g, every x_i dividing g and j < i."""
    for g in J.min_gens:
        for i in range(1, J.n + 1):
            if not g.exponents[i - 1]:
                continue
            for j in range(1, i):
                e = list(g.exponents)
                e[i - 1] -= 1
                e[j - 1] += 1
                if not _in_ideal(J, e):
                    return False
    return True


def brute_is_quasi_stable(J: MonomialIdeal) -> bool:
    """x_j^s * g / x_min(g) in J for some s > 0, every generator g and j < min(g).

    Membership only grows with s, and a generator dividing some x_j^s * sigma
    divides it once s reaches the generator's degree, so s runs up to the
    largest generator degree.
    """
    top = max((g.degree for g in J.min_gens), default=0)
    for g in J.min_gens:
        if g.degree == 0:
            continue
        k = g.min_var()
        for j in range(1, k):
            ok = False
            for s in range(1, top + 1):
                e = list(g.exponents)
                e[k - 1] -= 1
                e[j - 1] += s
                if _in_ideal(J, e):
                    ok = True
                    break
            if not ok:
                return False
    return True


def brute_minimal_basis(terms: list[Term]) -> tuple[Term, ...]:
    """The terms that no other listed term divides, deduplicated and sorted."""
    distinct = set(terms)
    return tuple(sorted(
        (b for b in distinct if not any(a != b and a.divides(b) for a in distinct)),
        key=Term.sort_key,
    ))


def brute_moves_leave(gens: list[int], outside: list[int], codec) -> bool:
    """True iff a move x_j*g/x_min(g), j < min(g), of a coded generator is a coded
    term of ``outside``: both decoded, every move formed, looked up in a set."""
    terms = set(codec.decode(outside))
    for g in codec.decode(gens):
        k = raw_min_var(g)
        for j in range(1, k):
            move = list(g)
            move[j - 1] += 1
            move[k - 1] -= 1
            if tuple(move) in terms:
                return True
    return False


def random_monomial_ideal(rng, n: int, max_exp: int = 3, max_gens: int = 5) -> MonomialIdeal:
    """The ideal of a few random terms in n variables with exponents <= max_exp."""
    gens = [Term(tuple(rng.randint(0, max_exp) for _ in range(n)))
            for _ in range(rng.randint(1, max_gens))]
    return minimalize(gens, n)


def random_artinian_ideal(rng, n: int, max_power: int = 5) -> MonomialIdeal:
    """A random proper monomial ideal plus a pure power x_i^a, a <= max_power, of each x_i.

    Its staircase lies under that of the pure powers, so every slice past
    degree n*(max_power - 1) is empty.
    """
    powers = [Term(tuple(rng.randint(1, max_power) if k == i else 0 for k in range(n)))
              for i in range(n)]
    gens = [g for g in random_monomial_ideal(rng, n).min_gens if g.degree]
    return minimalize(gens + powers, n)


def untruncated_mul_param(poly: dict, pid: int, sign: int) -> dict:
    """sign * C[pid] * poly in Z[C], keys being sorted tuples of parameter ids."""
    out = {}
    for mono, c in poly.items():
        lst = list(mono)
        insort(lst, pid)
        out[tuple(lst)] = sign * c
    return out


def untruncated_oracle_rows(J: MonomialIdeal):
    """The rows of ``marked_reduction.oracle_rows``, reducing in Z[C] itself.

    Every x_j * f_g is rewritten until its whole support lies in N(J), each
    rewrite carrying the full coefficient, of any degree in the parameters,
    times one parameter.  The degree-one slices of the remainder
    coefficients, in increasing degrevlex order of their monomials, are the
    rows.  Nothing is truncated, so this is the reference for the reduction
    modulo (C)^2; its cost limits it to small ideals.
    """
    gens = J._raw
    sous = list(J._staircase)
    sset = set(sous)
    col = {(a, b): i for i, (a, b) in enumerate(
        (a, b) for a in range(len(gens)) for b in sous)}

    def add(poly, m, coeff):
        dest = poly.setdefault(m, {})
        for mono, c in coeff.items():
            c += dest.get(mono, 0)
            if c:
                dest[mono] = c
            else:
                dest.pop(mono, None)

    rows = []
    for gi, g in enumerate(gens):
        for j in range(1, raw_min_var(g)):
            xj = raw_var(J.n, j)
            poly = {raw_mul(xj, g): {(): 1}}
            for b in sous:
                add(poly, raw_mul(xj, b), {(col[(gi, b)],): 1})
            while True:
                inside = [m for m, c in poly.items() if c and m not in sset]
                if not inside:
                    break
                target = max(inside, key=raw_key)
                coeff = poly.pop(target)
                ai, delta = _pommaret_raw(J, target)
                assert raw_mul(gens[ai], delta) == target, (J, target)
                for b in sous:
                    add(poly, raw_mul(delta, b),
                        untruncated_mul_param(coeff, col[(ai, b)], -1))
            for m in sorted(poly, key=raw_key):
                lin = {mono[0]: c for mono, c in poly[m].items() if len(mono) == 1}
                if lin:
                    rows.append(lin)
    return rows, len(col)


def brute_pommaret_candidates(J: MonomialIdeal, tau: Term):
    """All (alpha, delta) splittings of tau satisfying the multiplicative-variable rule."""
    out = []
    for g in J.min_gens:
        if g.divides(tau):
            delta = tau.quotient(g)
            if delta.degree == 0 or delta.max_var() >= g.min_var():
                out.append((g, delta))
    return out


def order_ideals(n: int, max_size: int):
    """All downward-closed exponent sets of size 1..max_size in n variables."""
    frontier = {frozenset([(0,) * n])}
    yield from frontier
    for _ in range(2, max_size + 1):
        nxt = set()
        for S in frontier:
            cands = set()
            for m in S:
                for i in range(n):
                    mm = list(m)
                    mm[i] += 1
                    mm = tuple(mm)
                    if mm not in S:
                        cands.add(mm)
            for c in cands:
                if all(
                    tuple(c[k] - (1 if k == i else 0) for k in range(n)) in S
                    for i in range(n)
                    if c[i]
                ):
                    nxt.add(S | {c})
        frontier = nxt
        yield from frontier


def ideal_with_staircase(S, n: int) -> MonomialIdeal:
    """The monomial ideal whose sous-escalier is the order ideal S."""
    gens = set()
    for m in S:
        for i in range(n):
            mm = list(m)
            mm[i] += 1
            mm = tuple(mm)
            if mm not in S:
                gens.add(mm)
    return minimalize([Term(g) for g in sorted(gens, key=raw_key)], n)


@functools.cache
def artinian_stable_ideals(max_vars: int, max_colength: int) -> tuple[MonomialIdeal, ...]:
    """Every Artinian stable ideal with n <= max_vars and colength <= max_colength.

    Cached, as several tests enumerate the same staircases.
    """
    from arevlex import is_stable

    out = []
    for n in range(1, max_vars + 1):
        for S in order_ideals(n, max_colength):
            J = ideal_with_staircase(S, n)
            if not J.is_zero and is_stable(J):
                out.append(J)
    return tuple(out)


def borel_closure(e: tuple[int, ...]) -> set[tuple[int, ...]]:
    """All terms obtained by repeatedly moving one exponent to a larger variable."""
    seen = {e}
    stack = [e]
    while stack:
        cur = stack.pop()
        for i in range(len(e)):
            if not cur[i]:
                continue
            for j in range(i):
                m = list(cur)
                m[i] -= 1
                m[j] += 1
                m = tuple(m)
                if m not in seen:
                    seen.add(m)
                    stack.append(m)
    return seen


def random_strongly_stable(rng, n: int, socle: int, extras: int = 2) -> MonomialIdeal:
    """A random Artinian strongly stable ideal: m^socle plus a few Borel closures."""
    gens = {tuple(e.exponents) for e in enumerate_terms(n, socle)}
    for _ in range(extras):
        d = rng.randint(1, socle - 1) if socle > 1 else 1
        e = [0] * n
        for _ in range(d):
            e[rng.randrange(n)] += 1
        gens |= borel_closure(tuple(e))
    return minimalize([Term(g) for g in sorted(gens, key=raw_key)], n)


def ci_degree_grid(max_vars: int, d_lo: int, d_hi: int, max_product: int):
    """Non-decreasing degree lists with bounded product, smallest first."""
    for n in range(1, max_vars + 1):
        for degs in itertools.combinations_with_replacement(range(d_lo, d_hi + 1), n):
            if prod(degs) <= max_product:
                yield degs


# facts of the paper that the package itself does not need: the bounds on
# H(c_1) that the singularity cascade no longer tests, the revlex predicate
# and the truncation of the paper's induction


def hc1_bounds(degrees) -> tuple[Fraction, Fraction | None]:
    """Coarse and refined lower bounds for the peak value H(c_1), as rationals.

    The refined bound subtracts the binomial head and tail of the table and
    is reported as None when its denominator is nonpositive.
    """
    degrees = validate_degrees(degrees)
    n = len(degrees)
    D = prod(degrees)
    coarse = Fraction(D, sum(degrees))
    den = sum(degrees) - n + 1 - 2 * degrees[0]
    if den <= 0:
        return coarse, None
    refined = Fraction(D - 2 * comb(n + degrees[0] - 1, degrees[0] - 1), den)
    return coarse, refined


def is_revlex_ideal(J: MonomialIdeal) -> bool:
    """True iff J_t is a revlex segment for every t up to the regularity."""
    if J.is_zero:
        return True
    if not J._stable:
        return False
    reg = J.max_gen_degree()
    slices = _slices(J, reg)
    decode = J._codec.decode
    # J_t is a segment iff N(J)_t is exactly the bottom of the degree slice.
    for t in range(reg + 1):
        bottom = [m.exponents for m in enumerate_terms(J.n, t)[: len(slices[t])]]
        if bottom != decode(slices[t]):
            return False
    return True


def truncate_below(J: MonomialIdeal, t: int) -> MonomialIdeal:
    """The ideal generated by the minimal generators of degree <= t."""
    if t < 0:
        raise DomainError("truncation degree must be nonnegative")
    return MonomialIdeal(J.n, tuple(g for g in J.min_gens if g.degree <= t))


def paper_lift_ci(n: int, degrees) -> MonomialIdeal:
    """The almost revlex CI ideal by the paper's induction on the variables.

    The partial ideal in i-1 variables is truncated at d_i, extended to i
    variables, completed at degree d_i by the single largest missing term,
    and then grown degree by degree, each time adjoining the greatest
    -Delta^{s+1}H^[i](t) terms of the current first expansion, where
    s = i - min(N_{t-1}) is read off the smallest variable of the staircase.
    Raises AssertionError if a partial Hilbert value drifts from H^[i].
    """
    degrees = validate_degrees(degrees)
    if len(degrees) != n:
        raise DomainError(f"expected {n} degrees, got {len(degrees)}")
    gens: list[tuple[int, ...]] = [(degrees[0],)]
    d_top = sum(degrees) - n + 1
    for i in range(2, n + 1):
        d_i = degrees[i - 1]
        d_next = degrees[i] if i < n else d_top
        H = ci_hilbert(degrees[:i])
        # extend the ring by one (smaller) variable and rebuild the slices
        gens = [g + (0,) for g in gens]
        inside = set(gens)
        cur = [(0,) * i]
        for _ in range(d_i):
            cur = [m for m in raw_expand_slice(cur, i) if m not in inside]
        # single greatest term completes degree d_i
        gens.append(cur[-1])
        cur = cur[:-1]
        for t in range(d_i + 1, d_next + 1):
            if not cur:
                break  # ideal already Artinian-complete; nothing outside to expand
            s = i - min(raw_min_var(m) for m in cur)
            exp = raw_expand_slice(cur, i)
            h = -derivative(H, s + 1)(t)
            if h < 0:
                raise NoAlmostRevlexIdeal(t)
            if h > len(exp):
                raise DomainError(f"expansion at degree {t} too small for the table")
            gens.extend(exp[len(exp) - h :])
            cur = exp[: len(exp) - h]
        # loop invariant: the partial ideal already has the right values
        if len(cur) != H(d_next):
            raise AssertionError("partial Hilbert value drifted")
    gens.sort(key=raw_key)
    return MonomialIdeal(n, tuple(Term(g) for g in gens))


def tangent_check_ideals() -> list[MonomialIdeal]:
    """The criterion-6 set: 300 small CI points and strongly stable ideals, plus goldens."""
    ideals = [almost_revlex_ci(len(d), d)
              for d in ci_degree_grid(4, 2, 12, 200)]
    rng = random.Random(60601)
    while len(ideals) < 300:
        n = rng.randint(2, 4)
        J = random_strongly_stable(rng, n, rng.randint(2, 5))
        if colength(J) <= 200:
            ideals.append(J)
    ideals += [almost_revlex_ci(len(d), d)
               for d in [(3, 4, 4), (2,) * 4, (2,) * 5]]
    return ideals


def raw_mul_blocks(J: MonomialIdeal) -> list[tuple]:
    """(gi, ai, j, delta') for every block (gi, j), the reference for ``tangent._blocks``.

    Forms x_j*g as ``raw_mul(raw_var(n, j), g)``, as the audit oracle
    ``marked_reduction.full_reduce`` does, and splits it by its head.
    """
    out = []
    for gi, g in enumerate(J._raw):
        for j in range(1, raw_min_var(g)):
            target = raw_mul(raw_var(J.n, j), g)
            ai, delta = _pommaret_raw(J, target)
            assert raw_mul(J._raw[ai], delta) == target, (J, target)
            out.append((gi, ai, j, delta))
    return out


def tuple_layout(J: MonomialIdeal) -> tuple[list[int], int, list[list[int]]]:
    """(stride, size, at_least) as ``tangent._layout`` defines them, from the tuple staircase.

    Strides from x_n down, each one past the largest cell so far; at_least[v][k]
    ORs 1 << cell(m) over the terms m of N(J) with m_v >= k, term by term,
    for k = 1 .. max + 1, after -1 for k = 0.
    """
    terms = list(J._staircase)
    stride, cells = [0] * J.n, [0] * len(terms)
    for v in reversed(range(J.n)):
        stride[v] = max(cells) + 1
        cells = [c + m[v] * stride[v] for c, m in zip(cells, terms)]
    assert len(set(cells)) == len(cells), "the layout must be injective"
    at_least = []
    for v in range(J.n):
        top = max(m[v] for m in terms)
        at_least.append([-1] + [sum(1 << c for c, m in zip(cells, terms) if m[v] >= k)
                                for k in range(1, top + 2)])
    return stride, max(cells) + 1, at_least


def stream_union_find_rank(J: MonomialIdeal) -> tuple[int, int]:
    """(rank, equation count) by union-find over the streamed column pairs.

    The reference for the block-shaped kernel ``tangent._union_find_rank``:
    one find/union per equation of ``tangent._equation_pairs``, pins
    included, in stream order.  Column c is node c and one ground node
    stands for zero, so C_a = 0 joins a to the ground and C_a - C_b = 0
    joins a to b.  The rank of such a system is the number of unions that
    merge two components.
    """
    ground = len(J._raw) * colength(J)
    parent = list(range(ground + 1))
    merges = count = 0
    for a, b in _equation_pairs(J):
        count += 1
        if a < 0:
            a = ground
        if b < 0:
            b = ground
        while parent[a] != a:  # path halving
            parent[a] = parent[parent[a]]
            a = parent[a]
        while parent[b] != b:
            parent[b] = parent[parent[b]]
            b = parent[b]
        if a != b:
            parent[a] = b
            merges += 1
    return merges, count


def fraction_rank(rows) -> int:
    """Rank over Q of sparse integer rows by plain Gaussian elimination.

    The reference for the fraction-free ``linalg.rank``: the rows become
    dense lists of ``Fraction`` over the columns that occur, and each column
    in increasing order clears its entries below the pivot by division.
    """
    rows = list(rows)
    cols = sorted({c for row in rows for c in row})
    matrix = [[Fraction(row.get(c, 0)) for c in cols] for row in rows]
    rank = 0
    for j in range(len(cols)):
        pivot = next((i for i in range(rank, len(matrix)) if matrix[i][j]), None)
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        top = matrix[rank]
        for i in range(rank + 1, len(matrix)):
            if matrix[i][j]:
                f = matrix[i][j] / top[j]
                matrix[i] = [x - f * y for x, y in zip(matrix[i], top)]
        rank += 1
    return rank


# fixed ideals used across the suite: two strongly stable ideals sharing the
# Hilbert function 1,3,6,6,5,5,... of a degree-5 space curve section
CURVE_GENS = [(3, 0, 0), (2, 1, 0), (1, 2, 0), (0, 3, 0), (2, 0, 2)]
CURVE_ALT_GENS = [(3, 0, 0), (2, 1, 0), (1, 2, 0), (2, 0, 1), (0, 3, 1), (0, 4, 0)]


def curve_ideal() -> MonomialIdeal:
    return minimalize([Term(e) for e in CURVE_GENS])


def curve_ideal_alt() -> MonomialIdeal:
    return minimalize([Term(e) for e in CURVE_ALT_GENS])
