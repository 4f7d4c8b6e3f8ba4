"""Monomial ideals via minimal bases, stability predicates and staircase data.

A :class:`MonomialIdeal` is the minimal monomial basis B_J plus the ambient
variable count.  It holds B_J as exponent tuples (``_raw``), which the
staircase, the tangent kernel and the JSON form read; ``min_gens``, the
basis as :class:`Term` objects, is built on first read (by the text form,
:func:`pommaret_decompose` or a caller) and cached.  Everything derived
from the basis (sous-escalier slices, first expansions, reduction numbers,
colength, ...) is computed combinatorially and exactly.

Membership has one route: ``_Divisors``, a bitmask index built once from
the whole exponent list of B_J, answers "which generators divide e?"
exactly without assuming stability.  Per variable, a bisect into the
sorted distinct exponents picks a mask of the generators whose exponent is
at most e's, and the AND of the n masks holds the divisors of e.  It also
checks minimality: b_k is minimal iff bit k alone is set for b_k, in any
order, and one batched pass (``_Divisors.alone``, a lazy ``map`` chain per
variable) reads that off for every term of ``_minimal`` and the checked
constructor.  :func:`minimalize` and the file loader, which checks its
generator list in bulk, both end in ``_minimal``: a list with a pure power
of every variable is proved by the staircase recursion below, and only a
list that fails it, or has no such powers, takes the index.  The greedy
construction proves its basis by the same recursion (see
:mod:`arevlex.construct`), so neither recursion's ideal builds the index
until something asks for divisibility: :func:`contains`, the staircase of
a non-stable ideal, or a stability predicate.

The predicates are their definitions (Eliahou-Kervaire): J is stable iff
it holds every move x_j*g/x_min(g), j < min(g), of each g in B_J; strongly
stable iff it also holds every adjacent move x_{i-1}*g/x_i; quasi-stable
iff it holds each move with its x_j exponent raised to the top generator
degree.  Generators suffice: a move of m = g*h moves g when min(m) =
min(g), and J holds that move times h; else it moves h, and g divides it.
So a predicate is one lookup per move and builds no staircase.
``MonomialIdeal._heads`` only decomposes: for a stable J it walks down from
each of a run of terms by its smallest variable until it meets B_J, one
lookup per variable (``_prefixes``), to the head alpha of the unique
decomposition tau = alpha*delta (P(J) = B_J).  It serves the tangent
kernel's blocks and ``_pommaret_raw``, its one-term form.

The staircase N(J) of every monomial ideal comes from one recursion,
N(J)_t = E(N(J)_{t-1}) \\ J (``_slices``): N(J) is an order ideal, so a
term of degree t outside J has its cofactor m/x_{min(m)} in N(J)_{t-1}.
The recursion runs on integer codes (``_Codec``).  Given a bound M on
every exponent it reaches and R = M + 1, code(e) = sum_v (M - e_v)*R^(v-1):
within a degree, increasing code is increasing degrevlex, x_i*e is
code(e) - R^(i-1), and the terms free of x_{v+1..n} are the codes at or
above sum_{u>v} M*R^(u-1).  So block v of the expansion, x_v times the
terms whose smallest variable is x_v or above, is one subtraction over a
suffix that one ``bisect`` finds (``_expand_slice``).  An Artinian J takes
M = its largest pure-power exponent (reg, for a stable J), which bounds
every degree; any other J takes M = its top generator degree (at least 1),
and a request past M recodes the cached slices under a larger M.

A non-stable J decodes each expanded slice and asks ``_Divisors``.  A
stable one needs no lookup (B_J is a Pommaret basis iff J is stable).
While I = (B_J in degrees < t) is stable, E(N(J)_{t-1}) is every degree-t
term outside I; those in J are I's or a degree-t generator, so the
degree-t generators, each outside I, are exactly the expanded terms in J,
and a ``bisect`` per generator removes them.  I + (degree-t generators)
stays stable iff no move x_j*g/x_min(g) of those generators, code(g) -
R^(j-1) + R^(min(g)-1), lies in the exact slice N(J)_t.  Degrevlex order
decides the common case of both tests exactly: when the generators are
the top of the expansion, as in every almost revlex ideal, one list
comparison removes them (``_remove_sorted``); and a move's code exceeds
its generator's, so when the least generator lies above the top of N(J)_t
one comparison shows no move lands (``_moves_leave``).  For an ideal known
to be stable, a generator not found or a move that lands is an invariant
failure.  Two builders run this step instead to prove a basis and hand
the ideal its slices, codec and stable verdict, so its N(J) is expanded
once: the construction, which keeps a prescribed number of the smallest
codes per degree instead of filtering by J, and ``_minimal``, which takes
the candidates an expansion holds as generators and drops the others as
multiples of lower ones.  The recursion stops at the first empty slice.
The Hilbert function counts the coded slices; :func:`sous_escalier`,
:func:`first_expansion` and ``_columns`` decode them.

The pure powers of B_J are read once into ``_pure_powers``, {j: e} for
x_j^e in B_J; being Artinian, the Krull dimension, the reduction numbers
and the codec bound M all read that table.

Positional data is built once per ideal, on first use, and cached.
``_columns``, for an Artinian J only, lists the exponents of each variable
over N(J) in degree-major increasing degrevlex order, one ``_Codec.columns``
decode of the slices through the first empty one (which may lie past the
top generator degree when J is not stable, never past the degree sum of
the pure powers); its length is
:func:`colength`, and the tangent kernel reads nothing else of N(J).
``_staircase`` maps each term of N(J) to its place, zipped from the columns
only when the equation rows, the audit oracle or the marked reduction ask
for it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from dataclasses import FrozenInstanceError
from functools import cached_property
from itertools import chain, compress, count, islice, repeat, tee
from operator import add, and_, attrgetter, eq, le, lshift, lt, mul, neg

from .errors import DimensionError, DomainError, StabilityError
from .terms import (
    Term,
    _exponents_from_json,
    json_int,
    raw_key,
    raw_max_var,
    raw_min_var,
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

    def alone(self, terms: Sequence[tuple[int, ...]]) -> list[bool]:
        """For the distinct terms the index was built from, True where no other divides.

        One pass per variable: b_k's own exponent picks its mask, and a lazy
        chain of ``map``s ANDs the masks across the columns, so only one mask
        per column is alive at a time; b_k is alone iff the AND is 1 << k.
        """
        hits = ()
        for column, (values, masks) in zip(zip(*terms), self._axes):
            col = map(dict(zip(values, islice(masks, 1, None))).__getitem__, column)
            hits = map(and_, hits, col) if hits else col
        return list(map(eq, hits, map(lshift, repeat(1), count())))

    def divides(self, e: tuple[int, ...]) -> bool:
        """True iff some term of the list divides e."""
        return bool(self.below(e))

    __contains__ = divides


class _Codec:
    """Order-preserving integer codes of the terms in n variables with exponents <= M.

    With R = M + 1, code(e) = sum_v (M - e_v) * R^(v-1), which is
    R^n - 1 - sum_v e_v * R^(v-1): x_n gives the most significant digit.
    Within one degree, increasing code is increasing degrevlex (the last
    differing exponent decides both), and x_i*e has code code(e) - R^(i-1)
    (``steps``).  The terms free of x_{v+1..n} are exactly the codes at or
    above ``floors[v-1]`` = sum_{u>v} M * R^(u-1) = R^n - R^v.
    """

    __slots__ = ("M", "R", "top", "steps", "floors")

    def __init__(self, n: int, M: int):
        R = M + 1
        self.M, self.R = M, R
        self.top = R**n - 1  # the code of the constant term
        self.steps = [R**v for v in range(n)]
        self.floors = [R**n - R * s for s in self.steps]

    def encode(self, terms: Sequence[tuple[int, ...]]) -> list[int]:
        """The codes of a list of exponent tuples."""
        top, steps = self.top, self.steps
        return [top - sum(map(mul, e, steps)) for e in terms]

    def columns(self, codes: list[int]) -> list[list[int]]:
        """The exponents of each variable over a list of codes, one list per variable."""
        top, R = self.top, self.R
        rest = [top - c for c in codes]
        return [[x // step % R for x in rest] for step in self.steps]

    def decode(self, codes: list[int]) -> list[tuple[int, ...]]:
        """The exponent tuples of a list of codes."""
        return list(zip(*self.columns(codes)))


class MonomialIdeal:
    """A monomial ideal given by its minimal basis, sorted increasing degrevlex.

    The basis is held as exponent tuples (``_raw``); ``min_gens`` is the same
    basis as :class:`Term` objects.  Ideals are immutable, and two are equal
    iff they have the same variable count and basis.
    """

    def __init__(self, n: int, min_gens: Sequence[Term]):
        if n < 1:
            raise DimensionError(f"need at least one variable, got n={n}")
        min_gens = tuple(min_gens)
        raw = tuple(map(attrgetter("exponents"), min_gens))
        if {*map(len, raw)} - {n}:
            raise DimensionError("generator over the wrong variable count")
        if not _increasing(raw):
            raise DomainError("generators not strictly increasing in degrevlex")
        # the terms are distinct, so b_k is minimal iff it alone divides b_k
        index = _Divisors(raw)
        alone = index.alone(raw)
        if not all(alone):
            k = alone.index(False)
            other = index.below(raw[k]) & ~(1 << k)
            a = raw[(other & -other).bit_length() - 1]
            raise DomainError(f"basis not minimal: {a} divides {raw[k]}")
        self.__dict__.update(n=n, min_gens=min_gens, _raw=raw, _divisors=index)

    @cached_property
    def min_gens(self) -> tuple[Term, ...]:
        """B_J as terms: given to the checked constructor, else built from
        ``_raw`` on first read, skipping the checks of :class:`Term`."""
        gens = list(map(object.__new__, repeat(Term, len(self._raw))))
        for g, e in zip(gens, self._raw):
            g.__dict__["exponents"] = e
        return tuple(gens)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.n == other.n and self._raw == other._raw

    def __hash__(self) -> int:
        return hash((self.n, self._raw))

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        return f"MonomialIdeal(n={self.n!r}, min_gens={self.min_gens!r})"

    @cached_property
    def _divisors(self) -> _Divisors:
        # built by the basis check, or on first use for a basis that its
        # builder proved minimal (see _trusted)
        return _Divisors(self._raw)

    # -- plumbing ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._raw

    def max_gen_degree(self) -> int:
        if self.is_zero:
            raise DomainError("the zero ideal has no generators")
        return sum(self._raw[-1])

    def __str__(self) -> str:
        return ideal_to_text(self)

    # -- derived flags, cached per instance --------------------------------

    def _holds_moves(self, lift: int | None = None, adjacent: bool = False) -> bool:
        """True iff ``_Divisors`` finds in J every move x_j*g/x_i of each g in B_J.

        The moves have i = min(g) and j < i, or, if ``adjacent``, x_i | g with
        1 < i < min(g) and j = i - 1 (the move at i = min(g) is of the first
        kind).  ``lift`` sets the x_j exponent of each move instead of raising it.
        """
        divides = self._divisors.divides
        for g in self._raw:
            k = raw_min_var(g) - 1 if any(g) else 0  # (1) has no moves
            for i, j in ([(i, i - 1) for i in range(1, k) if g[i]] if adjacent
                         else [(k, j) for j in range(k)]):
                e = [*g]
                e[i], e[j] = e[i] - 1, e[j] + 1 if lift is None else lift
                if not divides(tuple(e)):
                    return False
        return True

    @cached_property
    def _quasi_stable(self) -> bool:
        # x_j^s * g / min(g) lies in J for some s > 0 iff it does once the
        # x_j exponent reaches the top generator degree, past every generator's
        return self._holds_moves(lift=sum(self._raw[-1]) if self._raw else 0)

    @cached_property
    def _stable(self) -> bool:
        return self._holds_moves()

    @cached_property
    def _strongly_stable(self) -> bool:
        # chains of adjacent moves reach every x_j*m/x_i, and a move of a
        # multiple g*h moves g or h: so the moves x_{i-1}*g/x_i of B_J decide;
        # strongly stable implies stable, so a failed stable check decides
        return self._stable and self._holds_moves(adjacent=True)

    @cached_property
    def _columns(self) -> list[list[int]]:
        """The exponents of each variable over N(J), in staircase order, for Artinian J."""
        if not self.is_artinian:
            raise DomainError("the staircase index requires an Artinian ideal")
        return self._codec.columns(list(chain.from_iterable(_slices(self))))

    @cached_property
    def _staircase(self) -> dict[tuple[int, ...], int]:
        """{m: its position in N(J)}, degree-major increasing degrevlex, for Artinian J."""
        return dict(zip(zip(*self._columns), count()))

    @cached_property
    def _prefixes(self) -> dict[tuple[int, ...], tuple[int, int]]:
        """{g[:k]: (g_{k+1}, gi)} for each generator g = B_J[gi], x_{k+1} = min(g) (k = 0 for 1)."""
        return {g[:k]: (g[k], gi) for gi, g in enumerate(self._raw)
                for k in [raw_min_var(g) - 1 if any(g) else 0]}

    def _heads(self, terms):
        """For each term e of a stable J, (gi, delta) with e = B_J[gi]*delta, or None.

        In a stable J, e = alpha*delta with every variable of delta at or
        below min(alpha); unless e = alpha, dividing e by its smallest
        variable keeps the head.  That walk meets e[:k]*x_{k+1}^a, a = e_{k+1}
        down to 1, for k from the last variable down, then 1; B_J holds at most
        one such term per k (``_prefixes``), so it takes one lookup per k.  A
        term outside J gives None.  One generator walks all terms, no call each.
        It decomposes the blocks of the tangent kernel and, one term at a time,
        ``_pommaret_raw``; membership is ``_Divisors``'.
        """
        find = self._prefixes.get
        zeros = (0,) * self.n
        for e in terms:
            head = None
            for k in range(len(e) - 1, -1, -1):
                hit = find(e[:k])
                if hit is not None and hit[0] <= e[k]:
                    head = hit[1], zeros[:k] + (e[k] - hit[0],) + e[k + 1:]
                    break
            yield head

    @cached_property
    def _codec(self) -> _Codec:
        return _Codec(self.n, _bound(self))

    @cached_property
    def _slice_store(self) -> list[list[int]]:
        # the coded slices N(J)_0, N(J)_1, ... computed so far (see _slices)
        return [[] if self._raw and not any(self._raw[0]) else [self._codec.top]]

    @cached_property
    def _pure_powers(self) -> dict[int, int]:
        """{j: e} for each pure power x_j^e in B_J (a minimal basis has one per x_j at most)."""
        zeros = self.n - 1  # a pure power has one nonzero exponent
        return {raw_max_var(g): sum(g) for g in self._raw if g.count(0) == zeros}

    @property
    def is_artinian(self) -> bool:
        return len(self._pure_powers) == self.n


# ---------------------------------------------------------------------------
# construction and membership


def minimalize(gens: list[Term], n: int | None = None) -> MonomialIdeal:
    """The ideal generated by ``gens``: divisibility-minimal, sorted basis.

    An empty generator list yields the zero ideal (empty basis); operations
    that require an Artinian ideal reject it downstream.
    """
    if n is None:
        if not gens:
            raise DimensionError("empty generator list needs an explicit n")
        n = gens[0].nvars
    if n < 1:
        raise DimensionError(f"need at least one variable, got n={n}")
    raw = list(map(attrgetter("exponents"), gens))
    if {*map(len, raw)} - {n}:
        for g in sorted(set(gens), key=Term.sort_key):
            if g.nvars != n:
                raise DimensionError(f"generator {list(g.exponents)} is over {g.nvars} "
                                     f"variables, expected {n}")
    return _minimal(n, raw)


def _minimal(n: int, raw: list[tuple[int, ...]]) -> MonomialIdeal:
    """The ideal of exponent tuples over n variables, checked to be of length n.

    A list with a pure power of every variable and no constant term takes
    the smallest pure power of each variable, in any order, and M, the
    largest of them.  It drops the terms with an exponent above M
    (multiples of a pure power, and past the codec's bound) only if the
    largest exponent exceeds M, and encodes the rest once.  As every code
    lies in 0..top, the integer keys deg*(top + 1) + code strictly increase
    exactly when the terms strictly increase in degrevlex; only a list that
    fails that check is sorted, deduplicated and encoded again.  It then
    runs ``_stable_step`` up the degrees: a held candidate is a minimal
    generator, a missed one a multiple.  At the first empty slice the rest
    are multiples and the ideal gets its basis, codec, slices, stable
    verdict and pure powers.  Any other list builds no codec; it is sorted
    and deduplicated only if it does not already strictly increase
    (``_increasing``).  It, and a list that meets a failing move or whose
    staircase outgrows 64 terms per candidate (a pure power of 10^9, say),
    keeps the terms that no other divides, in one batched pass of the
    divisor index.
    """
    powers: dict[int, int] = {}
    # a pure power has n - 1 zero exponents; keep the smallest of each variable
    for g in compress(raw, map(eq, map(tuple.count, raw, repeat(0)), repeat(n - 1))):
        v, e = raw_max_var(g), sum(g)
        if e < powers.get(v, e + 1):
            powers[v] = e
    if len(powers) == n and (0,) * n not in raw:
        M = max(powers.values())
        if max(map(max, raw)) > M:
            raw = list(compress(raw, map(le, map(max, raw), repeat(M))))
        codec = _Codec(n, M)
        codes = codec.encode(raw)
        degs = list(map(sum, raw))
        keys = list(map(add, map(mul, degs, repeat(codec.top + 1)), codes))
        if not all(map(lt, keys, islice(keys, 1, None))):
            raw = sorted(set(raw), key=raw_key)
            codes, degs = codec.encode(raw), list(map(sum, raw))
        store, found, lo, budget = [[codec.top]], [], 0, 64 * len(raw)
        while store[-1]:
            hi = bisect_right(degs, len(store), lo)
            sl, held, moved = _stable_step(store[-1], codes[lo:hi], codec)
            budget -= len(sl)
            if moved or budget < 0:
                break
            store.append(sl)
            found += held
            lo = hi
        else:
            return _trusted(n, tuple(compress(raw, found)), _codec=codec, _slice_store=store,
                            _stable=True, _pure_powers=powers)
    elif not _increasing(raw):
        raw = sorted(set(raw), key=raw_key)
    index = _Divisors(raw)
    # the candidates are distinct, so b_k is minimal iff it alone divides b_k
    alone = index.alone(raw)
    if not all(alone):
        raw = list(compress(raw, alone))
        index = _Divisors(raw)
    return _trusted(n, tuple(raw), _divisors=index)


def _increasing(raw: Sequence[tuple[int, ...]]) -> bool:
    """True iff exponent tuples of one length strictly increase in degrevlex.

    The flat key (deg, -e_n, ..., -e_1) orders as ``raw_key`` does; it is
    built column by column, with no call per term, and lazily, so an
    unsorted list fails at its first descent.
    """
    keys, later = tee(zip(map(sum, raw), *[map(neg, c) for c in reversed([*zip(*raw)])]))
    next(later, None)
    return all(map(lt, keys, later))


def _trusted(n: int, raw: tuple[tuple[int, ...], ...], **seeds) -> MonomialIdeal:
    """The ideal on a basis that its builder proved sorted, distinct and minimal.

    Skips the checks of :class:`MonomialIdeal`, which would only repeat that
    proof, makes no :class:`Term` (``min_gens`` builds them on first read),
    and seeds the cached data the builder already holds (``_divisors``, or
    ``_codec``, ``_slice_store``, ``_stable`` and ``_pure_powers``).  Its two
    callers are :func:`_minimal` and the greedy construction.
    """
    J = object.__new__(MonomialIdeal)
    J.__dict__.update(n=n, _raw=raw, **seeds)
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
    # past the first empty slice the slices stop, and this reads []
    return [Term(e) for sl in _slices(J, t)[t:] for e in J._codec.decode(sl)]


def _expand_slice(slice_t: list[int], codec: _Codec) -> list[int]:
    """First expansion of an increasing same-degree list of codes.

    E(N_t) is the disjoint union over v = n..1 of x_v * {tau : min(tau) >=
    x_v}.  Block v is x_v times the codes at or above the floor of v, one
    ``bisect`` each, so the suffixes shrink as v falls.  Each block is sorted
    because the list is, and its terms have minimal variable x_v, so block v
    precedes block v-1 and plain concatenation is sorted.
    """
    out: list[int] = []
    for step, floor in zip(reversed(codec.steps), reversed(codec.floors)):
        suffix = slice_t[bisect_left(slice_t, floor):]
        if not suffix:
            break
        out += [c - step for c in suffix]
    return out


def _slices(J: MonomialIdeal, upto: int | None = None) -> list[list[int]]:
    """Coded sous-escalier slices of any monomial ideal for t = 0..upto, each sorted.

    ``upto=None`` reads an Artinian J to its end: no term of N(J) reaches
    the degree sum of the pure powers.

    Iterates N(J)_t = E(N(J)_{t-1}) minus J (see the module docstring).  It
    reads the stability verdict once, to choose a branch: a non-stable J
    asks ``_Divisors`` for every expanded term, and a stable one removes its
    generators of each degree by ``_stable_step``, where a generator not
    found or a move that lands contradicts the verdict and raises
    AssertionError.  The list ends early at the first empty slice, as N(J)
    is an order ideal and every later slice is empty too.  The codes are
    those of ``J._codec``; the computed prefix (``J._slice_store``) is only
    extended; a non-Artinian J asked past the codec's bound recodes it under
    a larger one.  Agreement with the definitions is pinned by tests.
    """
    if upto is None:
        upto = sum(J._pure_powers.values())
    store = J._slice_store
    if upto > J._codec.M and not J.is_artinian:
        # recode the slices so far under a bound at least twice as large
        old, codec = J._codec, _Codec(J.n, max(upto, 2 * J._codec.M))
        store[:] = [codec.encode(old.decode(sl)) for sl in store]
        J.__dict__["_codec"] = codec
    codec = J._codec
    raw = J._raw
    hi = bisect_left(raw, len(store), key=sum)
    stable = J._stable
    while len(store) <= upto and store[-1]:
        if not stable:
            exp = _expand_slice(store[-1], codec)
            below = J._divisors.below
            store.append([c for c, e in zip(exp, codec.decode(exp)) if not below(e)])
            continue
        lo, hi = hi, bisect_right(raw, len(store), hi, key=sum)  # B_J in this degree
        sl, found, moved = _stable_step(store[-1], codec.encode(raw[lo:hi]), codec)
        if moved or not all(found):
            raise AssertionError("the staircase of a stable ideal misses a generator "
                                 "or holds a move")
        store.append(sl)
    return store[: upto + 1]


def _bound(J: MonomialIdeal) -> int:
    """The first exponent bound M of J's codec.

    An Artinian J takes its largest pure power: no term of N(J) or B_J has a
    larger exponent of x_v than x_v's pure power, in any degree.  Otherwise
    a degree-t term has no exponent above t, and M covers the top generator
    degree; ``_slices`` recodes past it.
    """
    if J.is_artinian:
        return max(J._pure_powers.values())
    return max(sum(J._raw[-1]) if J._raw else 0, 1)


def _stable_step(prev: list[int], gens: list[int], codec: _Codec):
    """One degree t of the recursion while the ideal I of the lower generators is stable.

    ``prev`` is N(I)_{t-1} and ``gens`` the increasing codes of the degree-t
    candidates.  E(prev) is every degree-t term outside I, so a candidate it
    holds is a minimal generator and one it misses lies in I.  Returns
    N_t = E(prev) without the held codes, which candidates it held, and
    whether a move of a held one lies in N_t (then I + (held) is not stable).
    """
    sl, found = _remove_sorted(_expand_slice(prev, codec), gens)
    held = gens if all(found) else list(compress(gens, found))
    return sl, found, bool(held) and _moves_leave(held, sl, codec)


def _remove_sorted(exp: list[int], gens: list[int]) -> tuple[list[int], list[bool]]:
    """The increasing codes ``exp`` without those of the increasing ``gens``, and
    for each of ``gens`` whether ``exp`` held it.

    The generators of a degree are the greatest terms of its expansion in
    every almost revlex ideal, so ``gens`` is most often the tail of ``exp``:
    that is one list comparison, and it holds every generator at its own
    place, as the merge would find.  Any other ``gens`` is merged in, one
    ``bisect`` each.
    """
    if not gens:
        return exp, []
    k = len(exp) - len(gens)
    if exp[k:] == gens:  # (a negative k gives a tail shorter than gens)
        return exp[:k], [True] * len(gens)
    out: list[int] = []
    found: list[bool] = []
    lo = 0
    for c in gens:
        i = bisect_left(exp, c, lo)
        hit = i < len(exp) and exp[i] == c
        if hit:
            out += exp[lo:i]
            lo = i + 1
        found.append(hit)
    out += exp[lo:]
    return out, found


def _moves_leave(gens: list[int], outside: list[int], codec: _Codec) -> bool:
    """True iff some move x_j*g/x_min(g), j < min(g), of a generator lies in ``outside``.

    ``gens`` (nonempty) and ``outside`` are increasing codes of one degree.
    A move of g has code code(g) - R^(j-1) + R^(min(g)-1) > code(g) >=
    gens[0], so when ``gens[0]`` lies above ``outside[-1]`` no move can land
    and one comparison answers; the greedy construction, whose generators
    are the top of each expansion, always takes that exit.  Otherwise the
    generators with smallest variable x_{k+1} lie between two floors, and
    each move adds one shift to all of them; a shifted group whose least
    code lies above ``outside`` misses it, and any other is looked up in a
    set of ``outside``.
    """
    if not outside or gens[0] > outside[-1]:
        return False
    steps, floors, top = codec.steps, codec.floors, outside[-1]
    members = None
    for k in range(1, len(steps)):
        group = gens[bisect_left(gens, floors[k]) : bisect_left(gens, floors[k - 1])]
        if group:
            for step in steps[:k]:
                shift = steps[k] - step
                if group[0] + shift > top:
                    continue
                if members is None:
                    members = set(outside)
                if not members.isdisjoint([c + shift for c in group]):
                    return True
    return False


def first_expansion(J: MonomialIdeal, t: int) -> list[Term]:
    """E(N(J)_t) for stable J: the degree-(t+1) terms not reached from J_t."""
    if not J._stable:
        raise StabilityError("first_expansion requires a stable ideal")
    if t < 0:
        raise DomainError("degree must be nonnegative")
    # the codec then reaches degree t+1; past the first empty slice this reads []
    return [Term(e) for sl in _slices(J, t + 1)[t:t + 1]
            for e in J._codec.decode(_expand_slice(sl, J._codec))]


# ---------------------------------------------------------------------------
# stability hierarchy and the almost revlex predicate


def is_quasi_stable(J: MonomialIdeal) -> bool:
    return J._quasi_stable


def is_stable(J: MonomialIdeal) -> bool:
    return J._stable


def is_strongly_stable(J: MonomialIdeal) -> bool:
    return J._strongly_stable


def is_almost_revlex(J: MonomialIdeal) -> bool:
    """True iff every same-degree term above a minimal generator lies in J.

    Almost revlex ideals are strongly stable, so anything failing the
    stability test, one lookup per move, is rejected outright; for stable J
    the check reduces to comparing each generator with the top of its
    sous-escalier slice.
    """
    if J.is_zero:
        return True
    if not J._stable:
        return False
    reg = J.max_gen_degree()
    slices = _slices(J, reg)
    for g, c in zip(J._raw, J._codec.encode(J._raw)):
        sl = slices[sum(g)]
        if sl and sl[-1] > c:
            return False
    return True


# ---------------------------------------------------------------------------
# ring extension


def extend_ring(J: MonomialIdeal, m: int) -> MonomialIdeal:
    """Reinterpret the generators in m >= n variables (new variables smaller)."""
    if m < J.n:
        raise DimensionError(f"cannot shrink ring from {J.n} to {m} variables")
    pad = (0,) * (m - J.n)
    return MonomialIdeal(m, tuple(Term(g + pad) for g in J._raw))


# ---------------------------------------------------------------------------
# Pommaret decomposition (stable case, where P(J) = B_J)


def pommaret_decompose(J: MonomialIdeal, tau: Term) -> tuple[Term, Term]:
    """The unique alpha in B_J, delta with tau = alpha*delta, max(delta) <= min(alpha)."""
    if not J._stable:
        raise StabilityError("Pommaret decomposition implemented for stable ideals")
    if tau.nvars != J.n:
        raise DimensionError("term over the wrong variable count")
    gi, d = _pommaret_raw(J, tau.exponents)
    return J.min_gens[gi], Term(d)


def _pommaret_raw(J: MonomialIdeal, e: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    # (gi, delta) with e = B_J[gi]*delta, the one-term form of _heads; every
    # caller has checked that J is stable, where the head is unique
    (head,) = J._heads((e,))
    if head is None:
        raise DomainError(f"term {e} is not in the ideal")
    return head


# ---------------------------------------------------------------------------
# numerical invariants


def krull_dim(J: MonomialIdeal) -> int:
    """Krull dimension of R/J for strongly stable J.

    Variables carrying a pure-power generator form a prefix x1..x_{n-delta};
    delta counts the trailing variables with no pure power in J.
    """
    if not J._strongly_stable:
        raise StabilityError("Krull dimension rule requires a strongly stable ideal")
    powered = sorted(J._pure_powers)
    if powered != list(range(1, len(powered) + 1)):
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
    if v not in J._pure_powers:
        raise AssertionError(f"no pure power of x_{v}, although s >= delta")
    return J._pure_powers[v] - 1


def regularity(J: MonomialIdeal) -> int:
    """reg(J) = maximum generator degree, valid for stable ideals."""
    if not J._stable:
        raise StabilityError("max-generator-degree rule requires a stable ideal")
    return J.max_gen_degree()


def colength(J: MonomialIdeal) -> int:
    """|N(J)| = sum of the Hilbert function, for Artinian J."""
    return len(J._columns[0])


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
    return {"vars": J.n, "generators": list(map(list, J._raw))}


def ideal_from_json(data: dict) -> MonomialIdeal:
    if not isinstance(data, dict):
        raise DomainError('malformed ideal JSON: expected an object with "vars" and "generators"')
    n = json_int(_field(data, "vars", "ideal"))
    gens = _field(data, "generators", "ideal")
    raw = _exponents_from_json(gens, n)
    if raw is None:  # a list the bulk checks refuse, an empty one, or no list
        if isinstance(gens, (list, str, dict)):  # name the first offending entry
            terms = [term_from_json(g) for g in gens]
        if type(gens) is not list:
            raise DomainError(f"malformed ideal JSON: generators must be a list, got {gens!r}")
    return minimalize(terms, n) if raw is None else _minimal(n, raw)


def _field(data: dict, name: str, document: str):
    if name not in data:
        raise DomainError(f'malformed {document} JSON: missing "{name}"')
    return data[name]
