"""Exact rank of sparse integer matrices by fraction-free elimination.

Rows are dicts mapping column index to a nonzero integer.  Elimination uses
cross-multiplication followed by content (gcd) removal, so every
intermediate entry stays an exact integer; the rank equals the rank over
the rationals.
"""

from __future__ import annotations

from math import gcd


def _normalize(row: dict[int, int]) -> dict[int, int]:
    g = 0
    for v in row.values():
        g = gcd(g, v)
    if g > 1:
        return {c: v // g for c, v in row.items()}
    return row


def rank(rows) -> int:
    """Rank over Q of the matrix whose rows are sparse integer dicts.

    The smallest column index of a row becomes its pivot.
    """
    pivots: dict[int, dict[int, int]] = {}
    r = 0
    for row in rows:
        row = {c: v for c, v in row.items() if v}
        while row:
            c = min(row)
            p = pivots.get(c)
            if p is None:
                pivots[c] = _normalize(row)
                r += 1
                break
            a, b = p[c], row[c]
            new = {k: v * a for k, v in row.items()}
            for k, v in p.items():
                w = new.get(k, 0) - v * b
                if w:
                    new[k] = w
                else:
                    new.pop(k, None)
            row = new
    return r


def row_space_equal(rows_a: list[dict[int, int]], rows_b: list[dict[int, int]]) -> bool:
    """True iff the two row collections span the same subspace over Q."""
    ra = rank(rows_a)
    rb = rank(rows_b)
    return ra == rb == rank(list(rows_a) + list(rows_b))
