"""Full symbolic reduction of marked polynomials; audit oracle for the tangent rows.

This module re-derives the tangent-space equations by rewriting: each
x_j * f_gamma is reduced by the head decomposition of its one term inside
J.  Unlike :mod:`arevlex.tangent`, it builds the remainder as a polynomial
and reads the equations off its coefficients instead of streaming column
pairs.  The degree-one slices of the remainder coefficients, taken block by
block in increasing degrevlex order of their monomials, are the very rows of
the direct linearization, list for list; the test suite checks that on every
small Artinian stable ideal, and the audit checks that they span the same row
space.

Coefficients live in Z[C]/(C)^2, not in Z[C].  Every rewrite multiplies a
coefficient by one parameter, and the quotient map Z[C] -> Z[C]/(C)^2 is a
ring homomorphism, so reducing every coefficient modulo (C)^2 at each step
yields exactly the constant and degree-one parts of the untruncated
remainder; :func:`oracle_rows` reads the degree-one part.  Modulo (C)^2 only
x_j * x^gamma carries a constant, and rewriting any other term inside J adds
only terms in (C)^2, so one rewrite per block is the whole reduction.  The
result is exact, not an approximation; the test suite keeps an untruncated
reduction, which rewrites until the support leaves J, as a reference on a
fixed subset.

A coefficient is a dict mapping ``()`` (the constant) or ``(pid,)`` (the
parameter with that id) to a nonzero integer.  The id of C[gens[a], b] is
a*D + pos[b], the column of :mod:`arevlex.tangent`: a comes from the head
walk and pos from the ideal's staircase index ``_staircase``, built once per
ideal, so the oracle keeps no column table of its own.
"""

from __future__ import annotations

from .errors import DomainError
from .ideals import MonomialIdeal, _pommaret_raw, colength
from .linalg import row_space_equal
from .tangent import _linear_rows, _require_artinian_stable, rank_agrees_with_elimination
from .terms import raw_key, raw_min_var, raw_mul, raw_var

CPoly = dict  # () or (pid,) -> int


def _add_term(poly: CPoly, mono: tuple[int, ...], coeff: int):
    c = poly.get(mono, 0) + coeff
    if c:
        poly[mono] = c
    else:
        poly.pop(mono, None)


def full_reduce(J: MonomialIdeal, gi: int, j: int) -> dict:
    """Remainder of x_j * f_{gens[gi]} as {x-monomial: coefficient mod (C)^2}.

    Each coefficient holds the degree-one part of the untruncated
    remainder's coefficient, keyed ``(pid,)``; the constant part is zero.
    x_j * f_gamma is x_j * x^gamma plus C[gamma, b] at x_j * b for each b in
    N(J).  Its only term with a constant coefficient is x_j * x^gamma =
    x^alpha * x^delta (the head decomposition), and rewriting it by
    x^delta * f_alpha puts -C[alpha, b] at delta * b for each b in N(J).
    Every term still inside J then has a coefficient in (C), and rewriting
    it would only add terms in (C)^2, which are zero: so this one rewrite is
    the whole reduction, and those terms drop out of the remainder: a
    product x_j * b or delta * b inside J is never entered, only those in
    N(J) are summed.  The parameter C[gens[a], b] has id a*D + (the
    position of b in N(J)), read from the ideal's staircase index, which
    is also the membership test for N(J).  The block is a generator index gi
    of B_J and a variable x_j with j below min(gens[gi]); any other block
    raises DomainError.
    """
    _require_artinian_stable(J)
    gens = J._raw
    if not 0 <= gi < len(gens):
        raise DomainError(f"generator index {gi} is not in 0..{len(gens) - 1}")
    if not 1 <= j < raw_min_var(gens[gi]):
        raise DomainError(f"x_{j} is not above min(gamma) = x_{raw_min_var(gens[gi])}")
    pos = J._staircase
    D = len(pos)
    xj = raw_var(J.n, j)
    ai, delta = _pommaret_raw(J, raw_mul(xj, gens[gi]))
    poly: dict[tuple[int, ...], CPoly] = {}
    for b, i in pos.items():
        m = raw_mul(xj, b)
        if m in pos:
            _add_term(poly.setdefault(m, {}), (gi * D + i,), 1)
    base = ai * D
    # subtract x^delta * f_alpha; its head cancels x_j * x^gamma exactly
    for b, i in pos.items():
        m = raw_mul(delta, b)
        if m in pos:
            _add_term(poly.setdefault(m, {}), (base + i,), -1)
    return {m: c for m, c in poly.items() if c}


def oracle_rows(J: MonomialIdeal):
    """Degree-one slices of all remainder coefficients, as sparse rows."""
    _require_artinian_stable(J)
    rows = []
    for gi, g in enumerate(J._raw):
        for j in range(1, raw_min_var(g)):
            remainder = full_reduce(J, gi, j)
            rows += [{p: c for (p,), c in remainder[m].items()}
                     for m in sorted(remainder, key=raw_key)]
    return rows, len(J._raw) * colength(J)


def audit_tangent(J: MonomialIdeal, rank: int) -> bool:
    """True iff ``rank``, the union-find rank reported for J, matches
    elimination on the truncated linearization, and that linearization
    spans the oracle's row space."""
    rows_fast, _, _ = _linear_rows(J)
    if not rank_agrees_with_elimination(rank, rows_fast):
        return False
    return row_space_equal(rows_fast, oracle_rows(J)[0])
