"""Monomial ideals via minimal bases, stability predicates and staircase data.

A :class:`MonomialIdeal` is the minimal monomial basis B_J plus the ambient
variable count.  Everything derived from it (sous-escalier slices, first
expansions, reduction numbers, colength, ...) is computed combinatorially
and exactly.

Membership has two routes, each the only one for its inputs:

* ``_Divisors``, a bitmask index built once from the whole exponent list of
  B_J, answers "which generators divide e?" exactly without assuming
  stability: per variable, a bisect into the sorted distinct exponents
  picks a mask of the generators whose exponent is at most e's, and the AND
  of the n masks holds the divisors of e.  Building it is the minimality
  check of the basis (b_k is minimal iff bit k alone is set for b_k, in any
  order); :func:`minimalize` makes that check once and hands its sorted
  basis and index to the ideal it returns.  The greedy construction proves
  its basis another way (see :mod:`arevlex.construct`), so its ideal
  builds the index only when something asks for divisibility.  The index
  serves :func:`contains`, the staircase of a non-stable ideal and the
  quasi-stability predicate.
* A lookup in B_J (``_gen_index``) decides membership in the expansion of
  a stable staircase, and ``MonomialIdeal._head`` walks down from a term by
  its smallest variable until it meets B_J; for a stable J this finds the
  head alpha of the unique decomposition tau = alpha*delta (P(J) = B_J) in
  O(deg tau) lookups, or shows tau is outside J.  The walk serves the
  strong stability predicate, the head decomposition and, through it, the
  tangent equations and the marked reduction.

The staircase N(J) of every monomial ideal comes from one recursion,
N(J)_t = E(N(J)_{t-1}) \\ J (``_slices``): N(J) is an order ideal, so a
term of degree t outside J has its cofactor m/x_{min(m)} in N(J)_{t-1}.
The expansion itself needs no membership test: block v, x_v times the
terms whose smallest variable is x_v or above, multiplies a suffix of the
sorted slice (``_expand_slice``).  The same recursion decides stability
(B_J is a Pommaret basis iff J is stable).  While the generators of degree
< t are stable under their moves x_j*g/x_min(g), only generators of degree
t meet the expansion, so a lookup in B_J decides, and the degree-t moves
lie in J iff they are not in the exact slice N(J)_t.  The first failing
move shows J is not stable, and later slices ask ``_Divisors``; reaching
the top generator degree shows J is stable.  So every path that reads the
slices gets the verdict for one set per generator degree, not one head
walk per move.  :func:`sous_escalier` and the Hilbert function of a
quotient read the slices.  The construction runs the same expansion and
move check, keeping a prescribed number of the smallest terms per degree
instead of filtering by J, and hands the ideal it builds its slices and
its stable verdict, so N(J) of a constructed ideal is expanded once.

Two positional indexes are built once per ideal, on first use, and
cached.  ``_gen_index`` maps each generator to its place in B_J; it is also
the set that the head walk and the stable staircase look terms up in.
``_staircase``, for an Artinian J only, maps each term of N(J) to its
place in degree-major increasing degrevlex order, read from the slices
through the first empty one, which may lie past the top generator degree
when J is not stable; its length is :func:`colength`.  The tangent kernel
and the audit oracle take their parameter columns from these two.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

from .errors import DimensionError, DomainError, StabilityError
from .terms import (
    Term,
    enumerate_terms,
    json_int,
    raw_cmp,
    raw_min_var,
    raw_quotient,
    term_from_json,
)


class _Divisors:
    """A fixed list of terms in n variables that answers "which of them divide e?".

    Built once from the whole list.  Per variable it keeps the distinct
    exponents in increasing order and, for each, a bitmask of the terms
    whose exponent is at most that value (bit k for the k-th term), so a
    query bisects once per variable and ANDs n masks.  It is exact for any
    list of terms, stable or not, in any order and with duplicates.  Memory
    is one mask of len(terms) bits per distinct exponent per variable; the
    masks are keyed by the exponents present, so their size never matters.
    """

    __slots__ = ("_axes", "_all")

    def __init__(self, terms: Sequence[tuple[int, ...]]):
        self._all = (1 << len(terms)) - 1
        self._axes = []
        for column in zip(*terms):
            at: dict[int, int] = {}
            for k, x in enumerate(column):
                at[x] = at.get(x, 0) | 1 << k
            values = sorted(at)
            # masks[i] holds the terms whose exponent is below values[i]
            masks = [0]
            for x in values:
                masks.append(masks[-1] | at[x])
            self._axes.append((values, masks))

    def below(self, e: tuple[int, ...]) -> int:
        """The bits of the terms that divide e."""
        hits = self._all
        for x, (values, masks) in zip(e, self._axes):
            hits &= masks[bisect_right(values, x)]
        return hits

    def divides(self, e: tuple[int, ...]) -> bool:
        """True iff some term of the list divides e."""
        return bool(self.below(e))

    __contains__ = divides


@dataclass(frozen=True, eq=True)
class MonomialIdeal:
    """A monomial ideal given by its minimal basis, sorted increasing degrevlex."""

    n: int
    min_gens: tuple[Term, ...]

    def __post_init__(self):
        if self.n < 1:
            raise DimensionError(f"need at least one variable, got n={self.n}")
        raw = tuple(g.exponents for g in self.min_gens)
        if any(len(e) != self.n for e in raw):
            raise DimensionError("generator over the wrong variable count")
        for i in range(1, len(raw)):
            if raw_cmp(raw[i - 1], raw[i]) >= 0:
                raise DomainError("generators not strictly increasing in degrevlex")
        # the terms are distinct, so b_k is minimal iff it alone divides b_k
        index = _Divisors(raw)
        for k, b in enumerate(raw):
            other = index.below(b) & ~(1 << k)
            if other:
                a = raw[(other & -other).bit_length() - 1]
                raise DomainError(f"basis not minimal: {a} divides {b}")
        self.__dict__["_raw"] = raw
        self.__dict__["_divisors"] = index

    @cached_property
    def _divisors(self) -> _Divisors:
        # built by the basis check, or on first use for a basis that its
        # builder proved minimal (see _trusted)
        return _Divisors(self._raw)

    # -- plumbing ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.min_gens

    def max_gen_degree(self) -> int:
        if self.is_zero:
            raise DomainError("the zero ideal has no generators")
        return sum(self._raw[-1])

    def __str__(self) -> str:
        return ideal_to_text(self)

    # -- derived flags, cached per instance --------------------------------

    @cached_property
    def _quasi_stable(self) -> bool:
        # x_j^s * g / min(g) in J for some s>0  <=>  some generator divides
        # it once the x_j exponent is allowed to grow without bound; no
        # generator's x_j exponent exceeds the top generator degree.
        top = sum(self._raw[-1]) if self._raw else 0
        for g in self._raw:
            k = raw_min_var(g) if sum(g) else 0
            if not k:
                continue
            sigma = list(g)
            sigma[k - 1] -= 1
            for j in range(1, k):
                free = sigma[j - 1]
                sigma[j - 1] = top
                if not self._divisors.divides(tuple(sigma)):
                    return False
                sigma[j - 1] = free
        return True

    @cached_property
    def _gen_index(self) -> dict[tuple[int, ...], int]:
        """{generator: its position in B_J}; also the membership set of B_J."""
        return dict(zip(self._raw, range(len(self._raw))))

    @cached_property
    def _staircase(self) -> dict[tuple[int, ...], int]:
        """{m: its position in N(J)}, degree-major increasing degrevlex, for Artinian J."""
        if not self.is_artinian:
            raise DomainError("the staircase index requires an Artinian ideal")
        return {m: i for i, m in enumerate(m for sl in _socle_slices(self, 0) for m in sl)}

    def _head(self, e: tuple[int, ...]) -> tuple[int, ...] | None:
        """The head alpha in B_J of e in a stable J, or None when e is not in J.

        In a stable J, e = alpha*delta with every variable of delta at or
        below min(alpha).  Unless e = alpha, the smallest variable of e
        divides delta, so dividing it out keeps the term in J with the same
        head; a term outside J never meets B_J and runs out of variables.
        """
        gens = self._gen_index
        cur = list(e)
        k = len(cur) - 1
        while True:
            t = tuple(cur)
            if t in gens:
                return t
            while k >= 0 and not cur[k]:
                k -= 1
            if k < 0:
                return None
            cur[k] -= 1

    @cached_property
    def _stable(self) -> bool:
        # the staircase recursion decides stability degree by degree (see
        # _slices); the last generator degree settles it either way
        _slices(self, self.max_gen_degree() if self._raw else 0)
        return self.__dict__["_stable"]

    @cached_property
    def _strongly_stable(self) -> bool:
        # strongly stable implies stable, so a failed stable check decides;
        # for stable ideals the head walk answers membership exactly
        if not self._stable:
            return False
        for g in self._raw:
            for i in range(self.n):
                if not g[i]:
                    continue
                moved = list(g)
                moved[i] -= 1
                for j in range(i):
                    moved[j] += 1
                    if self._head(tuple(moved)) is None:
                        return False
                    moved[j] -= 1
        return True

    @cached_property
    def _pure_power_vars(self) -> tuple[int, ...]:
        """1-based indices of variables having a pure-power generator."""
        out = []
        for j in range(self.n):
            for g in self._raw:
                if g[j] and sum(g) == g[j]:
                    out.append(j + 1)
                    break
        return tuple(out)

    @property
    def is_artinian(self) -> bool:
        return len(self._pure_power_vars) == self.n


# ---------------------------------------------------------------------------
# construction and membership


def minimalize(gens: list[Term], n: int | None = None) -> MonomialIdeal:
    """The ideal generated by ``gens``: divisibility-minimal, sorted basis.

    An empty generator list yields the zero ideal (empty basis); operations
    that require an Artinian ideal reject it downstream.
    """
    if not gens:
        if n is None:
            raise DimensionError("empty generator list needs an explicit n")
        return MonomialIdeal(n, ())
    nv = gens[0].nvars if n is None else n
    distinct = sorted(set(gens), key=Term.sort_key)
    for g in distinct:
        if g.nvars != nv:
            raise DimensionError(f"generator {list(g.exponents)} is over {g.nvars} "
                                 f"variables, expected {nv}")
    raw = tuple(g.exponents for g in distinct)
    index = _Divisors(raw)
    # the candidates are distinct, so b_k is minimal iff it alone divides b_k
    minimal = [index.below(e) == 1 << k for k, e in enumerate(raw)]
    if not all(minimal):
        distinct = [g for g, keep in zip(distinct, minimal) if keep]
        raw = tuple(g.exponents for g in distinct)
        index = _Divisors(raw)
    return _trusted(nv, tuple(distinct), raw, _divisors=index)


def _trusted(n: int, min_gens: tuple[Term, ...], raw: tuple[tuple[int, ...], ...],
             **derived) -> MonomialIdeal:
    """The ideal on a basis that its builder proved sorted, distinct and minimal.

    Skips the basis checks of :class:`MonomialIdeal`, which would only repeat
    that proof, and seeds the cached data the builder already holds
    (``_divisors``, ``_slice_store``, ``_stable``).  Only :func:`minimalize`
    and the greedy construction call it.
    """
    J = object.__new__(MonomialIdeal)
    J.__dict__.update(n=n, min_gens=min_gens, _raw=raw, **derived)
    return J


def contains(J: MonomialIdeal, tau: Term) -> bool:
    """True iff some minimal generator divides tau."""
    if tau.nvars != J.n:
        raise DimensionError(f"term over {tau.nvars} variables, ideal over {J.n}")
    return J._divisors.divides(tau.exponents)


# ---------------------------------------------------------------------------
# sous-escalier and first expansion


def sous_escalier(J: MonomialIdeal, t: int) -> list[Term]:
    """N(J)_t: the degree-t terms outside J, increasing degrevlex."""
    if t < 0:
        raise DomainError("degree must be nonnegative")
    return [Term(e) for e in _slices(J, t)[t]]


def _expand_slice(slice_t: list[tuple[int, ...]], n: int) -> list[tuple[int, ...]]:
    """First expansion of an increasing same-degree list of terms.

    E(N_t) is the disjoint union over v = n..1 of x_v * {tau : min(tau) >=
    x_v}.  In an increasing same-degree list every term divisible by a
    variable below x_v precedes every term that is not: the difference of
    two such terms has its last nonzero entry past position v, positive for
    the one divisible there, which is therefore smaller.  So block v is x_v
    times a suffix of the list, the suffixes shrink as v falls, and one
    forward scan finds where each starts.  Each block is sorted because the
    list is, and its terms have minimal variable x_v, so block v precedes
    block v-1 and plain concatenation is sorted.
    """
    out: list[tuple[int, ...]] = []
    start, size = 0, len(slice_t)
    for i in range(n - 1, -1, -1):
        out += [tau[:i] + (tau[i] + 1,) + tau[i + 1 :] for tau in slice_t[start:]]
        # drop the terms divisible by x_{i+1} from the suffix
        while start < size and slice_t[start][i]:
            start += 1
    return out


def _slices(J: MonomialIdeal, upto: int) -> list[list[tuple[int, ...]]]:
    """Sous-escalier slices of any monomial ideal for t = 0..upto, each sorted.

    Iterates N(J)_t = E(N(J)_{t-1}) minus J and decides stability on the way
    (see the module docstring): the verdict lands in ``J._stable`` at the
    first failing move or at the top generator degree.  The computed prefix
    is cached on the ideal and only extended.  Agreement with the
    definitions is pinned by tests.
    """
    store = J.__dict__.get("_slice_store")
    if store is None:
        zero = (0,) * J.n
        store = J.__dict__["_slice_store"] = [[] if zero in J._gen_index else [zero]]
        if not J._raw or not sum(J._raw[-1]):
            J.__dict__["_stable"] = True
    raw = J._raw
    for t in range(len(store), upto + 1):
        stable = J.__dict__.get("_stable")  # None while undecided
        inside = J._divisors if stable is False else J._gen_index
        sl = [m for m in _expand_slice(store[-1], J.n) if m not in inside]
        store.append(sl)
        if stable is None:
            lo = bisect_left(raw, t, key=sum)
            hi = bisect_left(raw, t + 1, lo, key=sum)
            if hi > lo and _moves_leave(raw[lo:hi], set(sl)):
                J.__dict__["_stable"] = False
            elif hi == len(raw):
                J.__dict__["_stable"] = True
    return store[: upto + 1]


def _moves_leave(gens, outside) -> bool:
    """True iff some move x_j*g/x_min(g), j < min(g), of a generator lies in ``outside``."""
    for g in gens:
        k = raw_min_var(g)
        moved = list(g)
        moved[k - 1] -= 1
        for j in range(k - 1):
            moved[j] += 1
            if tuple(moved) in outside:
                return True
            moved[j] -= 1
    return False


def _socle_slices(J: MonomialIdeal, up_to: int) -> list[list[tuple[int, ...]]]:
    """Slices of an Artinian J through ``up_to`` and through the first empty one.

    N(J)_{reg-1} holds the cofactor of a top-degree generator, so the first
    empty slice lies at or past the top generator degree reg; for a stable J
    it is the slice at reg.
    """
    slices = _slices(J, max(up_to, J.max_gen_degree()))
    while slices[-1]:
        slices.append(_slices(J, len(slices))[-1])
    return slices


def first_expansion(J: MonomialIdeal, t: int) -> list[Term]:
    """E(N(J)_t) for stable J: the degree-(t+1) terms not reached from J_t."""
    if not J._stable:
        raise StabilityError("first_expansion requires a stable ideal")
    if t < 0:
        raise DomainError("degree must be nonnegative")
    return [Term(e) for e in _expand_slice(_slices(J, t)[t], J.n)]


# ---------------------------------------------------------------------------
# stability hierarchy and revlex predicates


def is_quasi_stable(J: MonomialIdeal) -> bool:
    return J._quasi_stable


def is_stable(J: MonomialIdeal) -> bool:
    return J._stable


def is_strongly_stable(J: MonomialIdeal) -> bool:
    return J._strongly_stable


def is_revlex_segment(terms: list[Term]) -> bool:
    """True iff the (same-degree) terms form an upward-closed degrevlex segment."""
    if not terms:
        return True
    t = terms[0].degree
    if any(m.degree != t for m in terms):
        raise DomainError("revlex segment test requires equal degrees")
    n = terms[0].nvars
    top = enumerate_terms(n, t)[-len(set(terms)):]
    return sorted(set(terms), key=Term.sort_key) == top


def is_almost_revlex(J: MonomialIdeal) -> bool:
    """True iff every same-degree term above a minimal generator lies in J.

    Almost revlex ideals are strongly stable, so anything failing the
    stability test, which stops at the first failing degree, is rejected
    outright; for stable J the check reduces to comparing each generator
    with the top of its sous-escalier slice.
    """
    if J.is_zero:
        return True
    if not J._stable:
        return False
    reg = J.max_gen_degree()
    slices = _slices(J, reg)
    for g in J._raw:
        sl = slices[sum(g)]
        if sl and raw_cmp(sl[-1], g) > 0:
            return False
    return True


def is_revlex_ideal(J: MonomialIdeal) -> bool:
    """True iff J_t is a revlex segment for every t up to the regularity."""
    if J.is_zero:
        return True
    if not J._stable:
        return False
    reg = J.max_gen_degree()
    slices = _slices(J, reg)
    # J_t is a segment iff N(J)_t is exactly the bottom of the degree slice.
    for t in range(reg + 1):
        bottom = [m.exponents for m in enumerate_terms(J.n, t)[: len(slices[t])]]
        if bottom != slices[t]:
            return False
    return True


# ---------------------------------------------------------------------------
# ring extension and truncation


def extend_ring(J: MonomialIdeal, m: int) -> MonomialIdeal:
    """Reinterpret the generators in m >= n variables (new variables smaller)."""
    if m < J.n:
        raise DimensionError(f"cannot shrink ring from {J.n} to {m} variables")
    pad = (0,) * (m - J.n)
    return MonomialIdeal(m, tuple(Term(g + pad) for g in J._raw))


def truncate_below(J: MonomialIdeal, t: int) -> MonomialIdeal:
    """The ideal generated by the minimal generators of degree <= t."""
    if t < 0:
        raise DomainError("truncation degree must be nonnegative")
    return MonomialIdeal(J.n, tuple(g for g in J.min_gens if g.degree <= t))


# ---------------------------------------------------------------------------
# Pommaret decomposition (stable case, where P(J) = B_J)


def pommaret_decompose(J: MonomialIdeal, tau: Term) -> tuple[Term, Term]:
    """The unique alpha in B_J, delta with tau = alpha*delta, max(delta) <= min(alpha)."""
    if not J._stable:
        raise StabilityError("Pommaret decomposition implemented for stable ideals")
    if tau.nvars != J.n:
        raise DimensionError("term over the wrong variable count")
    a, d = _pommaret_raw(J, tau.exponents)
    return Term(a), Term(d)


def _pommaret_raw(
    J: MonomialIdeal, e: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # every caller has checked that J is stable, where the head is unique
    alpha = J._head(e)
    if alpha is None:
        raise DomainError(f"term {e} is not in the ideal")
    return alpha, raw_quotient(e, alpha)


# ---------------------------------------------------------------------------
# numerical invariants


def krull_dim(J: MonomialIdeal) -> int:
    """Krull dimension of R/J for strongly stable J.

    Variables carrying a pure-power generator form a prefix x1..x_{n-delta};
    delta counts the trailing variables with no pure power in J.
    """
    if not J._strongly_stable:
        raise StabilityError("Krull dimension rule requires a strongly stable ideal")
    powered = J._pure_power_vars
    if list(powered) != list(range(1, len(powered) + 1)):
        raise StabilityError("pure-power variables do not form a prefix")
    return J.n - len(powered)


def reduction_number(J: MonomialIdeal, s: int) -> int:
    """r_s = min{t : x_{n-s}^{t+1} in J}, for strongly stable J and s >= delta."""
    delta = krull_dim(J)
    if s < delta:
        raise DomainError(f"r_{s} undefined: s < delta = {delta}")
    if s > J.n - 1:
        raise DomainError(f"r_{s} undefined: no variable x_{J.n - s}")
    v = J.n - s
    best = None
    for g in J._raw:
        if g[v - 1] and sum(g) == g[v - 1]:
            best = g[v - 1] if best is None else min(best, g[v - 1])
    if best is None:
        raise AssertionError(f"no pure power of x_{v}, although s >= delta")
    return best - 1


def regularity(J: MonomialIdeal) -> int:
    """reg(J) = maximum generator degree, valid for stable ideals."""
    if not J._stable:
        raise StabilityError("max-generator-degree rule requires a stable ideal")
    return J.max_gen_degree()


def colength(J: MonomialIdeal) -> int:
    """|N(J)| = sum of the Hilbert function, for Artinian J."""
    return len(J._staircase)


def border_generator_count(J: MonomialIdeal) -> int:
    """|{tau in B_J : xn divides tau}|, which is |N(J) meet (J : xn)| for stable J."""
    return sum(1 for g in J._raw if g[-1] > 0)


# ---------------------------------------------------------------------------
# text and JSON forms


def ideal_to_text(J: MonomialIdeal) -> str:
    if J.is_zero:
        return "(0)"
    return "(" + ", ".join(str(g) for g in J.min_gens) + ")"


def ideal_to_json(J: MonomialIdeal) -> dict:
    return {"vars": J.n, "generators": [list(g.exponents) for g in J.min_gens]}


def ideal_from_json(data: dict) -> MonomialIdeal:
    try:
        n = json_int(data["vars"])
        gens = [term_from_json(g) for g in data["generators"]]
    except (KeyError, TypeError) as exc:
        raise DomainError(f"malformed ideal JSON: {exc}") from exc
    return minimalize(gens, n)
