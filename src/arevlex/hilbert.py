"""Hilbert functions of complete intersections and of monomial quotients.

Tables are closed: a :class:`HilbertFunction` stores its values on an
initial segment together with an explicit eventual behavior (zero beyond
the table, constant beyond the table, or unspecified).  Finite differences
are first-class signed tables (:class:`Series`); only HilbertFunction
enforces nonnegativity.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import accumulate
from math import comb
from operator import sub

from .errors import DomainError
from .ideals import MonomialIdeal, _field, _slices, is_strongly_stable
from .terms import json_int, raw_min_var


@dataclass(frozen=True)
class Series:
    """An integer-valued function on t >= 0 that is constant from len(values) on."""

    values: tuple[int, ...]
    tail: int = 0

    def __call__(self, t: int) -> int:
        if t < 0:
            return 0
        if t < len(self.values):
            return self.values[t]
        return self.tail

    def diff(self) -> "Series":
        """One finite difference, with f(-1) treated as 0 (so diff(0) = f(0))."""
        return Series(tuple(map(sub, self.values + (self.tail,), (0,) + self.values)), 0)

    def diff_n(self, s: int) -> "Series":
        out = self
        for _ in range(s):
            out = out.diff()
        return out


@dataclass(frozen=True)
class Eventual:
    kind: str  # "zero" | "constant"
    value: int = 0

    def __post_init__(self):
        if self.kind not in ("zero", "constant"):
            raise DomainError(f"unknown eventual kind {self.kind!r}")
        if self.kind == "zero" and self.value != 0:
            raise DomainError("eventual zero carries value 0")
        if self.value < 0:
            raise DomainError("eventual constant must be nonnegative")


@dataclass(frozen=True)
class HilbertFunction:
    """Value table on t = 0..T plus the behavior beyond T (None = unknown)."""

    values: tuple[int, ...]
    eventual: Eventual | None = None

    def __post_init__(self):
        if not self.values:
            raise DomainError("empty Hilbert function table")
        if any(v < 0 for v in self.values):
            raise DomainError("Hilbert function values must be nonnegative")
        if self.eventual is not None and self.eventual.kind == "constant":
            if self.values[-1] != self.eventual.value:
                raise DomainError("constant tail must match the last table value")

    def __call__(self, t: int) -> int:
        if t < 0:
            return 0
        if t < len(self.values):
            return self.values[t]
        if self.eventual is None:
            raise DomainError(f"value at t={t} not covered by the table")
        return self.eventual.value

    @property
    def top(self) -> int:
        """Largest index covered by the table."""
        return len(self.values) - 1

    def table(self, upto: int) -> list[int]:
        return [self(t) for t in range(upto + 1)]

    def as_series(self) -> Series:
        if self.eventual is None:
            raise DomainError("eventual behavior unspecified; cannot extend table")
        return Series(self.values, self.eventual.value)

    def same_function(self, other: "HilbertFunction") -> bool:
        """Equality as functions on all of t >= 0 (requires known tails)."""
        a, b = self.as_series(), other.as_series()
        hi = max(len(a.values), len(b.values))
        return a.tail == b.tail and all(a(t) == b(t) for t in range(hi))

    def to_json(self) -> dict:
        ev = None
        if self.eventual is not None:
            ev = {"kind": self.eventual.kind, "value": self.eventual.value}
        return {"values": list(self.values), "eventual": ev}


def hf_from_json(data: dict) -> HilbertFunction:
    if not isinstance(data, dict):
        raise DomainError('malformed Hilbert function JSON: expected an object with "values"')
    ev = data.get("eventual")
    if ev is not None and not isinstance(ev, dict):
        raise DomainError(
            f"malformed Hilbert function JSON: eventual must be an object or null, got {ev!r}")
    eventual = None if ev is None else Eventual(
        _field(ev, "kind", "Hilbert function"), json_int(ev.get("value", 0)))
    values = _field(data, "values", "Hilbert function")
    if type(values) is not list:
        raise DomainError(f"malformed Hilbert function JSON: values must be a list, got {values!r}")
    return HilbertFunction(tuple(map(json_int, values)), eventual)


# ---------------------------------------------------------------------------
# complete intersection profiles


@dataclass(frozen=True)
class CIProfile:
    """Socle bounds m_i and peak indices u_bar_i of a degree sequence."""

    degrees: tuple[int, ...]
    m: tuple[int, ...]
    u_bar: tuple[int, ...]

    @classmethod
    def of(cls, degrees) -> "CIProfile":
        degrees = validate_degrees(degrees)
        m = tuple(sum(degrees[:i]) - i for i in range(1, len(degrees) + 1))
        u_bar = (0,) + tuple(
            min(m[i] // 2, m[i - 1]) for i in range(1, len(degrees))
        )
        return cls(degrees, m, u_bar)


def validate_degrees(degrees) -> tuple[int, ...]:
    degrees = tuple(json_int(d) for d in degrees)
    if not degrees:
        raise DomainError("empty degree list")
    if degrees[0] < 2:
        raise DomainError("degrees must all be at least 2")
    if any(degrees[i] > degrees[i + 1] for i in range(len(degrees) - 1)):
        raise DomainError("degrees must be non-decreasing")
    return degrees


# ---------------------------------------------------------------------------
# Hilbert function of a complete intersection


def ci_hilbert(degrees, i: int | None = None) -> HilbertFunction:
    """H^[i] of a complete intersection cut by forms of the first i degrees.

    Built by the hypersurface-section recurrence
    H^[i](t) = sum_{j<=t} H^[i-1](j) - sum_{j<=t-d_i} H^[i-1](j),
    starting from H^[1] = 1 on [0, d_1).  The table always covers the socle,
    so the eventual-zero tag is valid.
    """
    degrees = validate_degrees(degrees)
    if i is None:
        i = len(degrees)
    if not 1 <= i <= len(degrees):
        raise DomainError(f"index i={i} out of range 1..{len(degrees)}")
    top = sum(degrees[:i]) - i + 1
    vals = [1 if t < degrees[0] else 0 for t in range(top + 1)]
    for k in range(2, i + 1):
        d = degrees[k - 1]
        pref = list(accumulate(vals))
        vals = [pref[t] - (pref[t - d] if t >= d else 0) for t in range(top + 1)]
    return HilbertFunction(tuple(vals), Eventual("zero"))


def ci_hilbert_oracle(degrees) -> HilbertFunction:
    """Independent route: coefficients of prod (1 - z^d_i) / (1 - z)^n.

    The numerator is expanded by exact convolution and the denominator is
    cleared by n rounds of prefix summation.  Exists solely to cross-check
    :func:`ci_hilbert`.
    """
    degrees = validate_degrees(degrees)
    n = len(degrees)
    m_n = sum(degrees) - n
    top = m_n + 1
    num = [1]
    for d in degrees:
        new = [0] * (len(num) + d)
        for k, c in enumerate(num):
            new[k] += c
            new[k + d] -= c
        num = new
    vals = (num + [0] * (top + 1))[: top + 1]
    for _ in range(n):
        vals = list(accumulate(vals))
    if any(v < 0 for v in vals):
        raise DomainError("oracle produced a negative value; invalid degrees")
    return HilbertFunction(tuple(vals), Eventual("zero"))


# ---------------------------------------------------------------------------
# derivatives and index extraction


def derivative(H: HilbertFunction, s: int) -> Series:
    """The s-th finite difference as a signed table; s = 0 returns H itself."""
    if s < 0:
        raise DomainError("derivative order must be nonnegative")
    return H.as_series().diff_n(s)


def c_index(H: HilbertFunction, s: int, delta: int = 0) -> int:
    """c_s(H) = max{c : the s-th difference is positive on all of [0, c]}."""
    if s < delta:
        raise DomainError(f"c_{s} undefined below the Krull dimension {delta}")
    d = derivative(H, s)
    limit = len(d.values)
    for j in range(limit):
        if d(j) <= 0:
            if j == 0:
                raise DomainError("difference not positive at 0; no valid index")
            return j - 1
    if d.tail > 0:
        raise DomainError(f"the {s}-th difference never drops; c_{s} is infinite")
    return limit - 1


def varrho(H: HilbertFunction, delta: int) -> int:
    """First index from which the (delta-1)-th difference is constant."""
    if delta < 1:
        raise DomainError("varrho requires positive Krull dimension")
    d = derivative(H, delta - 1)
    rho = 0
    for j in range(len(d.values)):
        if d(j) != d(j + 1):
            rho = j + 1
    return rho


def pardue_truncation(H: HilbertFunction, s: int) -> HilbertFunction:
    """|Delta^s H|: the s-th difference while all earlier values stay positive, then 0."""
    if s < 0:
        raise DomainError("order must be nonnegative")
    d = derivative(H, s)
    vals = []
    for j in range(len(d.values) + 1):
        if d(j) <= 0:
            vals.append(0)
            return HilbertFunction(tuple(vals), Eventual("zero"))
        vals.append(d(j))
    # never dropped: the truncation is the difference itself, tail included
    return HilbertFunction(tuple(vals), Eventual("constant", d.tail))


# ---------------------------------------------------------------------------
# Hilbert functions of monomial quotients


def hf_of_ideal(J: MonomialIdeal, up_to: int) -> HilbertFunction:
    """Table of |N(J)_t| with the eventual behavior inferred when possible.

    Artinian ideals get an eventual-zero tag (table through the first empty
    slice), nonzero strongly stable ideals of Krull dimension one an
    eventual-constant tag (through the regularity); ``up_to`` sizes only
    the bare table of any other ideal.  Past the top generator degree of a
    stable one, the table counts J_t from B_J (P(J) = B_J, so g spans the
    degree-t terms g*delta with delta in x_{m(g)}..x_n, m(g) = min(g)):
    H(t) = C(t+n-1, n-1) - sum_g C(t - deg g + n - m(g), n - m(g)).
    """
    if up_to < 0:
        raise DomainError("up_to must be nonnegative")
    if J.is_artinian:
        counts = [len(s) for s in _slices(J)]
        return HilbertFunction(tuple(counts), Eventual("zero"))
    # Krull dimension one needs n-1 pure powers; count them before the
    # stability check, which builds the slices through the top degree
    if not J.is_zero and len(J._pure_powers) == J.n - 1 and is_strongly_stable(J):
        counts = [len(s) for s in _slices(J, J.max_gen_degree())]
        return HilbertFunction(tuple(counts), Eventual("constant", counts[-1]))
    n, top = J.n, sum(J._raw[-1]) if J._raw else 0
    # the stability verdict builds the slices through top, so ask it only past top
    if up_to <= top or not J._stable:
        return HilbertFunction(tuple(len(s) for s in _slices(J, up_to)), None)
    # 1 spans every term, as if m(1) = 1
    heads = Counter((sum(g), n - (raw_min_var(g) if any(g) else 1)) for g in J._raw)
    counts = [len(s) for s in _slices(J, top)]
    counts += [comb(t + n - 1, n - 1) - sum(k * comb(t - d + f, f) for (d, f), k in heads.items())
               for t in range(top + 1, up_to + 1)]
    return HilbertFunction(tuple(counts), None)


# ---------------------------------------------------------------------------
# statements about CI Hilbert functions, exposed as boolean diagnostics


def check_symmetry(degrees) -> bool:
    """H^[i](t) = H^[i](m_i - t) on [0, m_i] and 0 beyond, for every i."""
    profile = CIProfile.of(degrees)
    for i in range(1, len(profile.degrees) + 1):
        H = ci_hilbert(profile.degrees, i)
        m = profile.m[i - 1]
        if any(H(t) != H(m - t) for t in range(m + 1)):
            return False
        if H(m + 1) != 0 or H(m) == 0:
            return False
    return True


def check_unimodal_ranges(degrees) -> bool:
    """Strict increase on [0, u_bar_i], decrease on [u_bar_i, m_i], for every i."""
    profile = CIProfile.of(degrees)
    for i in range(1, len(profile.degrees) + 1):
        H = ci_hilbert(profile.degrees, i)
        u, m = profile.u_bar[i - 1], profile.m[i - 1]
        if any(H(t) >= H(t + 1) for t in range(u)):
            return False
        if any(H(t) < H(t + 1) for t in range(u, m)):
            return False
    return True


def check_pardue_decrease(degrees, s: int) -> bool:
    """Once the (s+1)-th difference is <= 0 within [0, c_s], it stays <= 0 there."""
    degrees = validate_degrees(degrees)
    H = ci_hilbert(degrees)
    c_s = c_index(H, s)
    d = derivative(H, s + 1)
    dropped = False
    for t in range(c_s + 1):
        if dropped and d(t) > 0:
            return False
        if d(t) <= 0:
            dropped = True
    return True
