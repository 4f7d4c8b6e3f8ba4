"""Exact rank of sparse integer matrices by fraction-free elimination.

Rows are dicts mapping column index to an integer.  Every intermediate
entry stays an exact integer, so the rank is the rank over the rationals.
A row is reduced by the pivot row p whose pivot column c is the row's
smallest column, with a = p[c] and b = row[c].  The fraction-free step is
a * row - b * p.  When a divides b, the step is row - (b // a) * p
instead: that is the fraction-free row divided by the nonzero integer a, so
it spans the same line, clears column c as well, and keeps the entries
small without a multiplication.  Only when a does not divide b is the row
cross-multiplied.  A pivot row is stored divided by its content (the gcd
of its entries).  Input rows are never mutated: a step writes to a copy of
the row, and a row with no zero entry and content 1 becomes a pivot as it
is.
"""

from __future__ import annotations

from math import gcd


def rank(rows) -> int:
    """Rank over Q of the matrix whose rows are sparse integer dicts.

    The smallest column index of a row becomes its pivot.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        if 0 in row.values():
            row = {c: v for c, v in row.items() if v}
        while row:
            c = min(row)
            p = pivots.get(c)
            if p is None:
                g = gcd(*row.values())
                pivots[c] = {k: v // g for k, v in row.items()} if g > 1 else row
                break
            a, b = p[c], row[c]
            if b % a:
                new = {k: v * a for k, v in row.items()}
            else:
                new, b = row.copy(), b // a
            for k, v in p.items():
                w = new.get(k, 0) - v * b
                if w:
                    new[k] = w
                else:
                    del new[k]
            row = new
    return len(pivots)


def row_space_equal(rows_a: list[dict[int, int]], rows_b: list[dict[int, int]]) -> bool:
    """True iff the two row collections span the same subspace over Q."""
    ra = rank(rows_a)
    rb = rank(rows_b)
    return ra == rb == rank(list(rows_a) + list(rows_b))
