"""Construction of almost revlex ideals and minimal-generator counting.

Both constructions run one greedy loop: starting from the n variables in
degree 1, each degree t keeps the H(t) smallest terms of the first expansion
E(N_{t-1}) as the staircase N_t and adjoins the |E(N_{t-1})| - H(t) greatest
ones to the ideal.

The loop runs on the integer codes of :mod:`arevlex.ideals` under the
bound M = end, which no term through degree end exceeds, and decodes only
the generators it adjoins.  It proves its own output, so the ideal it
returns skips the basis checks of :class:`~arevlex.ideals.MonomialIdeal`
and carries its coded slices N_0..N_end, their codec and its stability
verdict.  As x_n^end is the top pure power, slices rebuilt from B_J alone
get the same bound and the same codes.

By induction on t: let I = (G_{<t}), the generators adjoined below degree
t, be stable with N(I)_{t-1} = N_{t-1}.  For a stable I the first
expansion E(N_{t-1}) is exactly the set of degree-t terms outside I, so
each adjoined term G_t is a minimal generator and N_t = N(I + (G_t))_t.
I + (G_t) is stable iff no move x_j*g/x_min(g), j < min(g), of a g in G_t
lies in N_t (the moves of G_{<t} stay in I): a lookup of their codes,
the check that ``ideals._slices`` makes.  Passing it at every t
proves the whole basis minimal and stable, and the kept slices are N(J).
The check cannot fail: a move of g is greater than g in degrevlex, and N_t
keeps only terms below every term of G_t.  ``_moves_leave`` reads exactly
that off the codes, so the check costs one comparison per degree (the
least code of G_t against the top of N_t), and it still runs in every
degree.  Like T >= nD in
:mod:`arevlex.tangent` it is an invariant, raised as AssertionError, and
so is the almost revlex check of :func:`almost_revlex_for`.

:func:`almost_revlex_ci` runs it on the complete-intersection table
``ci_hilbert(L)``; the paper proves that the almost revlex ideal exists there,
by lifting it one variable at a time and adjoining -Delta^{s+1}H^[i](t) terms
per degree, and the tests keep that lift as the reference this loop must
match.  :func:`almost_revlex_for` runs it on an arbitrary Artinian value
table; it either returns the unique almost revlex ideal with that Hilbert
function or raises :class:`NoAlmostRevlexIdeal` naming the first deficient
degree.
"""

from __future__ import annotations

from .errors import DomainError, NoAlmostRevlexIdeal
from .hilbert import (
    HilbertFunction,
    c_index,
    ci_hilbert,
    derivative,
    validate_degrees,
    varrho,
)
from .ideals import (
    MonomialIdeal,
    _Codec,
    _expand_slice,
    _moves_leave,
    _trusted,
    is_almost_revlex,
)
from .terms import Term


def greatest(terms: list[Term], h: int) -> list[Term]:
    """The top h terms of an increasing same-degree list, returned increasing."""
    if not 0 <= h <= len(terms):
        raise DomainError(f"cannot take {h} terms from a list of {len(terms)}")
    if terms:
        d = terms[0].degree
        if any(m.degree != d for m in terms):
            raise DomainError("terms must share a degree")
    return terms[len(terms) - h :]


def _greedy(n: int, H: HilbertFunction, end: int) -> MonomialIdeal:
    """Grow the ideal over degrees 2..end, keeping the H(t) smallest expanded terms.

    H must be positive below ``end`` and vanish there, so the staircase stays
    nonempty until the last degree empties it.  Raises
    :class:`NoAlmostRevlexIdeal` at the first t with H(t) > |E(N_{t-1})|.
    The ideal comes back with its slices N_0..N_end and stable, proved
    degree by degree (module docstring); a move into N_t, which that proof
    rules out, raises AssertionError.
    """
    codec = _Codec(n, end)  # no term through degree end has a larger exponent
    store = [[codec.top], _expand_slice([codec.top], codec)]  # degree 1: all variables
    gens: list[int] = []
    for t in range(2, end + 1):
        exp = _expand_slice(store[-1], codec)
        keep = H(t)
        if keep > len(exp):
            raise NoAlmostRevlexIdeal(t)
        kept, new = exp[:keep], exp[keep:]
        if new and _moves_leave(new, kept, codec):
            raise AssertionError(f"a move of a degree-{t} generator lies in the staircase")
        store.append(kept)
        # each block is increasing and of a higher degree than the last, so
        # gens stays sorted without a sort
        gens += new
    return _trusted(n, tuple(codec.decode(gens)), _codec=codec, _slice_store=store, _stable=True)


def almost_revlex_ci(n: int, degrees) -> MonomialIdeal:
    """The unique almost revlex ideal whose quotient has the CI Hilbert function."""
    degrees = validate_degrees(degrees)
    if len(degrees) != n:
        raise DomainError(f"expected {n} degrees, got {len(degrees)}")
    return _greedy(n, ci_hilbert(degrees), sum(degrees) - n + 1)


def almost_revlex_for(H: HilbertFunction) -> MonomialIdeal:
    """Greedy almost revlex ideal for an Artinian value table.

    Requires H(0) = 1 and reads the ambient variable count off H(1).
    Raises :class:`NoAlmostRevlexIdeal` at the first degree where the
    expansion is smaller than the prescribed value.
    """
    if H.eventual is None or H.eventual.kind != "zero":
        raise DomainError("table must be eventually zero (Artinian)")
    if H(0) != 1:
        raise DomainError("a cyclic quotient has H(0) = 1")
    n = H(1)
    if n < 1:
        raise DomainError("H(1) must be positive")
    top = H.top
    while H(top) == 0 and top > 0:
        top -= 1
    end = top + 1  # first vanishing degree
    for t in range(end):
        if H(t) == 0:
            raise DomainError("table vanishes and comes back; not a Hilbert function")

    J = _greedy(n, H, end)
    if not is_almost_revlex(J):
        # the greedy keeps the smallest terms of each expansion, so this
        # cannot fail: a failure is an internal fault
        raise AssertionError("greedy result failed the almost revlex check")
    return J


# ---------------------------------------------------------------------------
# minimal-generator counts straight from the Hilbert function


def mingen_count_formula(H: HilbertFunction, delta: int, n: int) -> int:
    """|B_J| for the almost revlex ideal with Hilbert function H and dimension delta."""
    if delta < 0 or n < 1:
        raise DomainError("need delta >= 0 and n >= 1")
    total = sum(
        derivative(H, s)(c_index(H, s + 1, delta)) for s in range(delta, n)
    )
    if delta > 0:
        d_prev = derivative(H, delta - 1)
        total += d_prev(c_index(H, delta, delta)) - d_prev(varrho(H, delta))
    return total


def mingen_count_ci(degrees) -> int:
    """|B| of the CI almost revlex ideal via the telescoping double sum."""
    degrees = validate_degrees(degrees)
    n = len(degrees)
    H = ci_hilbert(degrees)
    cs = [c_index(H, s) for s in range(n + 1)]
    total = 0
    for s in range(n):
        d = derivative(H, s + 1)
        for j in range(cs[s + 1] + 1, cs[s] + 1):
            total += -d(j + 1)
    return total
