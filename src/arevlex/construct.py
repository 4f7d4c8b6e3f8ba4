"""Construction of almost revlex ideals and minimal-generator counting.

:func:`almost_revlex_ci` lifts the ideal one variable at a time: the
partial ideal in i-1 variables is truncated at d_i, extended to i
variables, completed at degree d_i by the single largest missing term, and
then grown degree by degree, each time adjoining the greatest
-Delta^{s+1}H^[i](t) terms of the current first expansion.

:func:`almost_revlex_for` is the same greedy inner loop run against an
arbitrary Artinian value table; it either returns the unique almost revlex
ideal with that Hilbert function or raises :class:`NoAlmostRevlexIdeal`
naming the first deficient degree.
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
from .ideals import MonomialIdeal, _expand_slice, _extend_slices, is_almost_revlex
from .terms import Term, raw_key, raw_min_var


def greatest(terms: list[Term], h: int) -> list[Term]:
    """The top h terms of an increasing same-degree list, returned increasing."""
    if not 0 <= h <= len(terms):
        raise DomainError(f"cannot take {h} terms from a list of {len(terms)}")
    if terms:
        d = terms[0].degree
        if any(m.degree != d for m in terms):
            raise DomainError("terms must share a degree")
    return terms[len(terms) - h :]


def _greedy_run(
    n: int,
    gens: list[tuple[int, ...]],
    slice_start: list[tuple[int, ...]],
    t_start: int,
    t_end: int,
    drop_count,
) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """Grow ``gens`` over degrees t_start..t_end, taking drop_count(t, slice) tops.

    ``slice_start`` is the sous-escalier slice at degree t_start - 1; returns
    the updated generators and the slice at degree t_end.
    """
    cur = slice_start
    for t in range(t_start, t_end + 1):
        if not cur:
            break  # ideal already Artinian-complete; nothing outside to expand
        exp = _expand_slice(cur, n)
        h = drop_count(t, cur, exp)
        if h < 0:
            raise NoAlmostRevlexIdeal(t)
        if h > len(exp):
            raise DomainError(f"expansion at degree {t} too small for the table")
        if h:
            gens.extend(exp[len(exp) - h :])
            cur = exp[: len(exp) - h]
        else:
            cur = exp
    return gens, cur


def almost_revlex_ci(n: int, degrees) -> MonomialIdeal:
    """The unique almost revlex ideal whose quotient has the CI Hilbert function."""
    degrees = validate_degrees(degrees)
    if len(degrees) != n:
        raise DomainError(f"expected {n} degrees, got {len(degrees)}")
    gens: list[tuple[int, ...]] = [(degrees[0],)]
    if n == 1:
        return MonomialIdeal(1, (Term((degrees[0],)),))
    d_top = sum(degrees) - n + 1
    for i in range(2, n + 1):
        d_i = degrees[i - 1]
        d_next = degrees[i] if i < n else d_top
        H = ci_hilbert(degrees[:i], i, d_next + 1)
        # extend the ring by one (smaller) variable and rebuild the slices
        gens = [g + (0,) for g in gens]
        cur = _extend_slices([[(0,) * i]], set(gens), i, d_i)[-1]
        # single greatest term completes degree d_i
        tau = cur[-1]
        gens.append(tau)
        cur = cur[:-1]

        def drop_count(t, slice_prev, _exp, H=H, i=i):
            k = min(raw_min_var(m) for m in slice_prev)
            s = i - k
            return -derivative(H, s + 1)(t)

        gens, cur = _greedy_run(i, gens, cur, d_i + 1, d_next, drop_count)
        # loop invariant: the partial ideal already has the right values
        if len(cur) != H(d_next):
            raise AssertionError("partial Hilbert value drifted")
    gens.sort(key=raw_key)
    J = MonomialIdeal(n, tuple(Term(g) for g in gens))
    return J


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

    gens: list[tuple[int, ...]] = []
    cur = _expand_slice([(0,) * n], n)  # degree-1 slice: all variables
    gens, cur = _greedy_run(n, gens, cur, 2, end, lambda t, sl, exp: len(exp) - H(t))
    gens.sort(key=raw_key)
    J = MonomialIdeal(n, tuple(Term(g) for g in gens))
    if not is_almost_revlex(J):
        raise DomainError("greedy result failed the almost revlex check")
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
