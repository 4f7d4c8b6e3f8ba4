"""Full symbolic reduction of marked polynomials; audit oracle for the tangent rows.

This module re-derives the tangent-space equations by rewriting: each
x_j * f_gamma is rewritten by the head decompositions until no term
inside J has a constant coefficient.  Unlike :mod:`arevlex.tangent`, it
does not decide up front which products land back inside J; the
rewriting loop finds them.  The degree-one slice of every remainder
coefficient must span the same row space as the direct linearization;
the acceptance suite checks that on every small Artinian stable ideal.

Coefficients live in Z[C]/(C)^2, not in Z[C].  Every rewrite multiplies a
coefficient by one parameter, and the quotient map Z[C] -> Z[C]/(C)^2 is a
ring homomorphism, so reducing every coefficient modulo (C)^2 at each step
yields exactly the constant and degree-one parts of the untruncated
remainder.  Those are the only parts read: the constant part by the
flatness check, the degree-one part by :func:`oracle_rows`.  Modulo (C)^2
a rewrite of a term c * x^tau adds only c's constant times one parameter
per tail term, so a term inside J whose coefficient has no constant adds
nothing when rewritten: the loop drops it instead.  The result is exact,
not an approximation; the test suite keeps an untruncated reduction as a
reference on a fixed subset.

A coefficient is a dict mapping ``()`` (the constant) or ``(pid,)`` (the
parameter with that id) to a nonzero integer.  The id of C[gens[a], b] is
a*D + pos[b], the column of :mod:`arevlex.tangent`: a comes from the
ideal's generator index ``_gen_index`` and pos from its staircase index
``_staircase``, both built once per ideal, so the oracle keeps no column
table of its own.
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

    Each coefficient holds the constant and degree-one parts of the
    untruncated remainder's coefficient, keyed ``()`` and ``(pid,)``.  Only
    a term inside J whose coefficient has a constant c0 is rewritten: it
    becomes -c0 * C[alpha, b] at delta * b for each b in N(J), where
    x^alpha * x^delta is its head decomposition.  Rewriting the degree-one
    part of a coefficient gives terms in (C)^2, which are zero, so every
    term still inside J when no constant is left drops out of the
    remainder.  The loop always rewrites the degrevlex-greatest such term,
    which makes the run deterministic; the remainder itself is unique
    whatever the strategy.  The parameter C[gens[a], b] has id a*D + (the
    position of b in N(J)), read from the ideal's staircase index.
    """
    _require_artinian_stable(J)
    pos = J._staircase
    D = len(pos)
    xj = raw_var(J.n, j)

    poly: dict[tuple[int, ...], CPoly] = {raw_mul(xj, J._raw[gi]): {(): 1}}
    for b, i in pos.items():
        _add_term(poly.setdefault(raw_mul(xj, b), {}), (gi * D + i,), 1)

    while True:
        heads = [m for m, c in poly.items() if () in c and m not in pos]
        if not heads:
            break
        target = max(heads, key=raw_key)
        c0 = poly.pop(target)[()]
        alpha, delta = _pommaret_raw(J, target)
        base = J._gen_index[alpha] * D
        # subtract c0 * x^delta * f_alpha; the head cancels target exactly
        for b, i in pos.items():
            _add_term(poly.setdefault(raw_mul(delta, b), {}), (base + i,), -c0)
    remainder = {m: c for m, c in poly.items() if c and m in pos}
    for c in remainder.values():
        if () in c:
            raise DomainError("remainder has a constant coefficient; not a flat point")
    return remainder


def oracle_rows(J: MonomialIdeal):
    """Degree-one slices of all remainder coefficients, as sparse rows."""
    _require_artinian_stable(J)
    rows = []
    for gi, g in enumerate(J._raw):
        for j in range(1, raw_min_var(g)):
            remainder = full_reduce(J, gi, j)
            for m in sorted(remainder, key=raw_key):
                lin = {mono[0]: c for mono, c in remainder[m].items() if len(mono) == 1}
                if lin:
                    rows.append(lin)
    return rows, len(J._raw) * colength(J)


def audit_tangent(J: MonomialIdeal) -> bool:
    """True iff the union-find rank matches elimination on the truncated
    linearization, and that linearization spans the oracle's row space."""
    rows_fast, n_fast, _ = _linear_rows(J)
    if not rank_agrees_with_elimination(J, rows_fast):
        return False
    rows_full, n_full = oracle_rows(J)
    if n_fast != n_full:
        return False
    return row_space_equal(rows_fast, rows_full)
