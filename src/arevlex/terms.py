"""Terms of a polynomial ring and the degrevlex order with x1 > x2 > ... > xn.

Terms are exponent vectors.  Variables are indexed 1..n and x1 is the
*largest* variable in the order; the constant term is the all-zeros vector.
Degrevlex compares total degree first and breaks ties by the sign of the
last nonzero entry of the exponent difference (negative means greater).

The tuple-level helpers (``raw_*``) are used by the rest of the library in
hot loops; :class:`Term` is the hashable value type exposed to callers.
``raw_key`` is the one degrevlex comparator: the order of :class:`Term`,
:func:`cmp_degrevlex` and every sort compare its keys.

A generator list read from JSON is checked in bulk (``_exponents_from_json``:
one pass per check over the whole list); only a list that fails a check
goes through :func:`term_from_json` term by term, which names the first
offender.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import total_ordering
from itertools import chain
from math import comb
from operator import add, neg, sub

from .errors import DimensionError, DomainError

# ---------------------------------------------------------------------------
# tuple-level kernel


def raw_key(e: tuple[int, ...]):
    """Sort key realizing increasing degrevlex on exponent tuples.

    a < b in degrevlex iff deg a < deg b, or degrees tie and the last
    nonzero entry of a-b is positive; reversing and negating the exponents
    turns that comparison into plain lexicographic order on tuples.
    """
    return (sum(e), tuple(map(neg, reversed(e))))


def raw_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(add, a, b))


def raw_divides(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    for x, y in zip(a, b):
        if x > y:
            return False
    return True


def raw_quotient(b: tuple[int, ...], a: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(sub, b, a))


def raw_min_var(e: tuple[int, ...]) -> int:
    """1-based index of the smallest variable dividing e (largest index)."""
    for i in range(len(e) - 1, -1, -1):
        if e[i]:
            return i + 1
    raise DomainError("the constant term has no minimal variable")


def raw_max_var(e: tuple[int, ...]) -> int:
    for i, x in enumerate(e):
        if x:
            return i + 1
    raise DomainError("the constant term has no maximal variable")


def raw_var(n: int, j: int) -> tuple[int, ...]:
    """Exponent tuple of the variable x_j in n variables."""
    e = [0] * n
    e[j - 1] = 1
    return tuple(e)


def raw_terms_of_degree(n: int, t: int) -> list[tuple[int, ...]]:
    """All exponent tuples of length n and total degree t, increasing degrevlex."""
    if n == 1:
        return [(t,)]
    out = []
    for e1 in range(t + 1):
        for rest in raw_terms_of_degree(n - 1, t - e1):
            out.append((e1,) + rest)
    out.sort(key=raw_key)
    return out


# ---------------------------------------------------------------------------
# public value type


@total_ordering
@dataclass(frozen=True)
class Term:
    """A term (power product), identified with its exponent vector.

    Terms over the same variable count are ordered by degrevlex, through
    :meth:`sort_key`; comparing terms over different counts raises
    :class:`DimensionError`.
    """

    exponents: tuple[int, ...]

    def __post_init__(self):
        if len(self.exponents) < 1:
            raise DimensionError("a term needs at least one variable")
        if min(self.exponents) < 0:
            raise DomainError(f"negative exponent in {self.exponents}")
        if not isinstance(self.exponents, tuple):
            object.__setattr__(self, "exponents", tuple(self.exponents))

    # -- basic data

    @property
    def nvars(self) -> int:
        return len(self.exponents)

    @property
    def degree(self) -> int:
        return sum(self.exponents)

    def min_var(self) -> int:
        """Index of the smallest variable occurring (xn is smallest)."""
        return raw_min_var(self.exponents)

    def max_var(self) -> int:
        """Index of the largest variable occurring (x1 is largest)."""
        return raw_max_var(self.exponents)

    # -- arithmetic

    def _check_dim(self, other: "Term"):
        if self.nvars != other.nvars:
            raise DimensionError(
                f"terms over {self.nvars} and {other.nvars} variables"
            )

    def mul(self, other: "Term") -> "Term":
        self._check_dim(other)
        return Term(raw_mul(self.exponents, other.exponents))

    __mul__ = mul

    def divides(self, other: "Term") -> bool:
        self._check_dim(other)
        return raw_divides(self.exponents, other.exponents)

    def quotient(self, divisor: "Term") -> "Term":
        self._check_dim(divisor)
        if not raw_divides(divisor.exponents, self.exponents):
            raise ArithmeticError(f"{divisor} does not divide {self}")
        return Term(raw_quotient(self.exponents, divisor.exponents))

    # -- order

    def sort_key(self):
        return raw_key(self.exponents)

    def __lt__(self, other: "Term") -> bool:
        self._check_dim(other)
        return self.sort_key() < other.sort_key()

    # -- text and JSON forms

    def __str__(self) -> str:
        return term_to_text(self)

    def __repr__(self) -> str:
        return f"Term({self.exponents!r})"

    def to_json(self) -> list[int]:
        return list(self.exponents)


def term(*exponents: int) -> Term:
    """Shorthand constructor: term(2, 0, 1) is x1^2*x3."""
    return Term(tuple(exponents))


def variable(n: int, j: int) -> Term:
    """The variable x_j as a term in n variables."""
    if not 1 <= j <= n:
        raise DimensionError(f"variable index {j} out of range 1..{n}")
    return Term(raw_var(n, j))


def one(n: int) -> Term:
    """The constant term 1 in n variables."""
    return Term((0,) * n)


def cmp_degrevlex(a: Term, b: Term) -> int:
    """Compare two terms, returning -1, 0 or 1 (less, equal, greater)."""
    a._check_dim(b)
    ka, kb = a.sort_key(), b.sort_key()
    return (ka > kb) - (ka < kb)


def enumerate_terms(n: int, t: int) -> list[Term]:
    """All C(n-1+t, t) terms of degree t, strictly increasing in degrevlex."""
    if n < 1:
        raise DomainError(f"need at least one variable, got n={n}")
    if t < 0:
        raise DomainError(f"degree must be nonnegative, got t={t}")
    out = [Term(e) for e in raw_terms_of_degree(n, t)]
    if len(out) != comb(n - 1 + t, t):
        raise AssertionError(f"{len(out)} terms of degree {t} in {n} variables")
    return out


# ---------------------------------------------------------------------------
# text format: x1^3*x2^2 (caret powers, '*' separators, exponent 1 elided)

_TERM_FACTOR = re.compile(r"^x(\d+)(?:\^(\d+))?$")


def term_to_text(t: Term) -> str:
    if t.degree == 0:
        return "1"
    parts = []
    for i, e in enumerate(t.exponents):
        if e == 1:
            parts.append(f"x{i + 1}")
        elif e > 1:
            parts.append(f"x{i + 1}^{e}")
    return "*".join(parts)


def term_from_text(text: str, n: int) -> Term:
    """Parse the text form back into a term over n variables."""
    text = text.strip()
    if text == "1":
        return one(n)
    exps = [0] * n
    for factor in text.split("*"):
        m = _TERM_FACTOR.match(factor.strip())
        if m is None:
            raise DomainError(f"cannot parse term factor {factor!r}")
        idx, power = int(m.group(1)), int(m.group(2) or 1)
        if not 1 <= idx <= n:
            raise DimensionError(f"variable x{idx} out of range for n={n}")
        exps[idx - 1] += power
    return Term(tuple(exps))


def json_int(x) -> int:
    """``x`` itself if it is a JSON integer; floats, strings and booleans are refused."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise DomainError(f"expected an integer, got {x!r}")
    return x


def term_from_json(data: list[int]) -> Term:
    if not isinstance(data, list):
        raise DomainError(f"expected a list of exponents, got {data!r}")
    # one type check for the whole list; the loop only names the first offender
    if not {*map(type, data)} <= {int}:
        for x in data:
            json_int(x)
    return Term(tuple(data))


def _exponents_from_json(gens, n: int) -> list[tuple[int, ...]] | None:
    """``gens`` as exponent tuples if it is a nonempty list of lists of n >= 1
    nonnegative JSON integers each, else None (the caller then parses term by
    term, which names the first offender)."""
    flat = chain.from_iterable
    if (n >= 1 and type(gens) is list and {*map(type, gens)} == {list}
            and {*map(len, gens)} == {n} and {*map(type, flat(gens))} == {int}
            and min(flat(gens)) >= 0):
        return list(map(tuple, gens))
    return None
