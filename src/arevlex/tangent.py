"""Tangent space to the punctual Hilbert scheme at an Artinian stable ideal.

Every generator gamma of J carries a marked polynomial: the head term
x^gamma plus one parameter C[gamma, beta] for each sous-escalier term beta.
Multiplying by a variable above min(gamma) and rewriting by the unique
head decomposition leaves a remainder supported outside J; the degree-one
part of its coefficients is assembled here directly:

* +C[gamma, beta] on the monomial x_j*beta whenever x_j*beta stays outside J,
* -C[alpha', beta'] on delta'*beta' whenever that product stays outside J,
  where x_j*x^gamma = x^alpha' * x^delta' is the head decomposition.

Coefficients that land back inside J only contribute at quadratic order
and are dropped.  :mod:`arevlex.marked_reduction` re-derives the same rows,
list for list, by one rewrite per block modulo (C)^2; the test suite checks
that reduction against the untruncated polynomial one.

Every equation therefore has at most two entries, +1 and -1.  The equation
on a monomial m gets its +C term from at most one beta, because
x_j*beta = m fixes beta = m/x_j, and its -C term from at most one beta',
because delta'*beta' = m fixes beta' = m/delta'.  So each equation reads
C_a = 0 or C_a - C_b = 0, and the system is a graph: columns are nodes, an
equality is an edge and a pin is an edge to one extra ground node.  Its
rank is the number of edges in a spanning forest, i.e. (P + 1) minus the
number of components, whatever the order of the unions.
:func:`_union_find_rank` counts it by block shape, (j, delta'): the pins
form one ground mask per generator, a closure grounds every column that an
edge ties to the ground, and a union-find runs only on the rest, so
rank = P - T with T the number of ungrounded components.  No
elimination and no fractions.  The equations have one rendering: column
pairs (:func:`_equation_pairs`), made rows by :func:`_linear_rows` for the
``--out`` dump and the audit, where elimination checks the kernel.

The parameters are laid out generator-major, then N(J) in degree-major
increasing degrevlex: C[gens[gi], beta] is column gi*D + pos[beta], with
D = colength(J).  A :class:`MonomialIdeal` decodes N(J) once, into
``_columns`` (the exponents of each variable, in that order), and caches
it.  :func:`tangent_dim` reads only those columns, laying N(J) out and
masking it column-wise (:func:`_layout`), and takes every block's head from
one walk (``MonomialIdeal._heads``).  The rows, the dump and the audit read
``_staircase`` (term -> pos, zipped from the columns on first use), as
:mod:`arevlex.marked_reduction` does.

The tangent dimension is the parameter count minus that rank; comparing it
with n*D (the dimension of the component through the lexicographic point)
certifies singularity.  It is never below n*D, since every Artinian
monomial ideal is smoothable; :func:`tangent_dim` raises AssertionError if
it is, so an internal fault cannot pass for a smaller tangent space.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, repeat
from math import prod
from operator import add, mul

from . import construct as _construct
from .errors import DomainError, StabilityError
from .hilbert import c_index, ci_hilbert, validate_degrees
from .ideals import (
    MonomialIdeal,
    _pommaret_raw,
    border_generator_count,
    colength,
    is_quasi_stable,
    is_stable,
    is_strongly_stable,
)
from .linalg import rank as matrix_rank
from .terms import raw_min_var


@dataclass(frozen=True)
class TangentReport:
    param_count: int
    equation_count: int
    rank: int
    tangent_dim: int
    lower_bound: int
    upper_bound: int
    lex_dim: int

    def to_json(self) -> dict:
        return {
            "params": self.param_count,
            "equations": self.equation_count,
            "rank": self.rank,
            "tangent_dim": self.tangent_dim,
            "lower": self.lower_bound,
            "upper": self.upper_bound,
            "lex_dim": self.lex_dim,
        }


@dataclass(frozen=True)
class ClassificationVerdict:
    verdict: str  # "singular" | "unknown"
    criterion: str
    witness: dict

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "certificate": {"criterion": self.criterion, "witness": self.witness},
        }


# ---------------------------------------------------------------------------
# the linearized system


def _require_artinian_stable(J: MonomialIdeal):
    # (1) holds every x_v yet has no pure power in its basis: name it first
    if J._raw and not any(J._raw[0]):
        raise DomainError("ideal is the unit ideal: its staircase is empty")
    if not J.is_artinian:
        raise DomainError("ideal is not Artinian: some variable has no pure power")
    if not is_stable(J):
        raise StabilityError(f"ideal is not stable: quasi-stable={is_quasi_stable(J)}, "
                             "stable=False")


def _blocks(J: MonomialIdeal) -> list[tuple[int, int, int, tuple[int, ...]]]:
    """(gi, ai, j, delta') for every block (gi, j).

    A block is a generator gens[gi] and a variable x_j above its minimal
    variable; x_j*gens[gi] = gens[ai] * x^delta' is its head decomposition.
    One walk of ``MonomialIdeal._heads`` decomposes every block.  Order:
    generator-major, then variable.
    """
    raw = J._raw
    places = [(gi, j) for gi, g in enumerate(raw) for j in range(1, raw_min_var(g))]
    heads = J._heads([raw[gi][: j - 1] + (raw[gi][j - 1] + 1,) + raw[gi][j:]
                      for gi, j in places])
    return [(gi, ai, j, delta) for (gi, j), (ai, delta) in zip(places, heads)]


def _equation_pairs(J: MonomialIdeal):
    """Stream every linearized equation as a column pair (plus, minus).

    For the block (gi, j) of :func:`_blocks` and each m in N(J), the
    equation on m reads C[plus] - C[minus] = 0 with plus = (gi, m/x_j) and
    minus = (alpha', m/delta').  Columns are gi*D + (position of beta in
    N(J)); a side whose quotient is not a term of N(J) is -1, and m gets no
    equation when both are.  The two sides are never the same column, so
    no pair cancels: that would need alpha' = gamma and delta' = x_j, but a
    head decomposition has max(delta') >= min(alpha') and j < min(gamma).

    Blocks come one ``_pommaret_raw`` at a time and positions from ``_staircase``,
    so the dumped and audited rows share neither :func:`_blocks` nor :func:`_layout`.
    Order: generator-major, then variable, then m increasing degrevlex, the
    order in which :func:`arevlex.marked_reduction.oracle_rows` reads the
    same equations off its remainders.
    """
    pos = J._staircase
    D = len(pos)
    # div[v][i]: the position of m/x_{v+1} for the m at position i, or -1;
    # N(J) is an order ideal, so they compose to m/delta' (a trailing -1 stays)
    div = [[pos[m[:v] + (m[v] - 1,) + m[v + 1:]] if m[v] else -1 for m in pos] + [-1]
           for v in range(J.n)]
    by_delta: dict[tuple[int, ...], list[int]] = {}
    for gi, g in enumerate(J._raw):
        for j in range(1, raw_min_var(g)):
            ai, delta = _pommaret_raw(J, g[: j - 1] + (g[j - 1] + 1,) + g[j:])
            qmap = by_delta.get(delta)
            if qmap is None:
                qmap = list(range(D)) + [-1]
                for v, e in enumerate(delta):
                    for _ in range(e):
                        qmap = [div[v][i] for i in qmap]
                by_delta[delta] = qmap
            plus0, minus0 = gi * D, ai * D
            yield from [
                (plus0 + p if p >= 0 else -1, minus0 + q if q >= 0 else -1)
                for p, q in zip(div[j - 1], qmap)
                if p >= 0 or q >= 0
            ]


def _layout(J: MonomialIdeal) -> tuple[list[int], int, list[list[int]]]:
    """(stride, size, at_least): the linear layout of N(J) and its exponent masks.

    Built column by column from ``J._columns``.  Term m sits on cell
    sum(m_v * stride_v), each stride (from x_n down) one past the largest
    cell so far: no two terms share a cell, and m/x_j and m/delta' sit a
    fixed stride below m.  Bit c of at_least[v][k] marks the term on cell c
    if its x_{v+1} exponent is >= k, for k = 1 .. max + 1 (-1 for k = 0).
    k = 1 is one scatter of the cells into a bytearray of binary digits;
    k >= 2 is at_least[v][1] AND (at_least[v][k-1] << stride_v), exact as a
    multiple m of x_{v+1} in N(J) has m/x_{v+1} on cell(m) - stride_v, alone.
    """
    cols = J._columns
    stride, cells = [0] * J.n, [0] * len(cols[0])
    for v in reversed(range(J.n)):
        stride[v] = max(cells) + 1
        cells = list(map(add, cells, map(mul, cols[v], repeat(stride[v]))))
    size = max(cells) + 1
    at_least = []
    for v, col in enumerate(cols):
        digits = bytearray(b"0") * size
        # digit "1" (49) on the cell of each multiple of x_{v+1}
        any(map(digits.__setitem__, compress(cells, col), repeat(49)))
        masks = [-1, int(digits[::-1], 2)]
        for _ in range(max(col)):
            masks.append(masks[1] & masks[-1] << stride[v])
        at_least.append(masks)
    return stride, size, at_least


def _union_find_rank(J: MonomialIdeal) -> tuple[int, int]:
    """(rank, equation count) of the linearized system, by a ground closure.

    On the layout of :func:`_layout`, the masks of the terms with exponent
    >= k give each shape (j, delta') its plus pins, minus pins, two-sided
    edge ends and equation count.  Each generator's ground mask starts as
    the OR of its pins; a worklist grounds the far end of every edge whose
    near end is ground, shifting (mask AND near ends) onto the far ends,
    until no mask grows.  Only edge ends move, so none carries; masking
    after the shift would be exact too (p*x_j on the cell of a multiple m
    of x_j in N(J) means p = m/x_j) but shifts full masks.  Then an edge
    has both ends ground or neither; a dict-keyed union-find on the
    ungrounded ones leaves T = ungrounded columns - merges components
    besides the ground, and rank = P - T = grounded columns + merges.
    """
    stride, size, at_least = _layout(J)
    ground = [0] * len(J._raw)
    reach = [[] for _ in ground]  # per generator: (other generator, ends, shift)
    edges = []
    shapes, count = {}, 0
    for gi, ai, j, delta in _blocks(J):
        shape = shapes.get((j, delta))
        if shape is None:
            xj, dd = at_least[j - 1][1], -1  # delta' is never 1
            for e, masks in zip(delta, at_least):
                if e:
                    dd &= masks[min(e, len(masks) - 1)]
            both = xj & dd
            sj, sd = stride[j - 1], sum(map(mul, delta, stride))
            shape = shapes[j, delta] = (
                (xj ^ both) >> sj, (dd ^ both) >> sd, both >> sj, both >> sd,
                sj - sd, (xj | dd).bit_count())
        plus, minus, plus_ends, minus_ends, shift, neq = shape
        ground[gi] |= plus
        ground[ai] |= minus
        count += neq
        if plus_ends:
            reach[gi].append((ai, plus_ends, shift))
            reach[ai].append((gi, minus_ends, -shift))
            edges.append((gi, ai, plus_ends, shift))
    todo = set(range(len(ground)))
    while todo:
        g = todo.pop()
        for h, ends, shift in reach[g]:
            far = ground[g] & ends
            if far:
                grown = ground[h] | (far << shift if shift > 0 else far >> -shift)
                if grown != ground[h]:
                    ground[h] = grown
                    todo.add(h)
    parent: dict[int, int] = {}
    find = parent.get
    merges = 0
    for g, h, ends, shift in edges:
        loose = bin(ends ^ (ends & ground[g]))[:1:-1]
        at_g, at_h = g * size, h * size + shift
        p = loose.find("1")
        while p >= 0:
            a, b = at_g + p, at_h + p
            while (q := find(a, a)) != a:  # path halving
                parent[a] = a = find(q, q)
            while (q := find(b, b)) != b:
                parent[b] = b = find(q, q)
            if a != b:
                parent[a] = b
                merges += 1
            p = loose.find("1", p + 1)
    return sum(g.bit_count() for g in ground) + merges, count


def _linear_rows(J: MonomialIdeal):
    """All linearized equations as sparse rows over parameter indices.

    Returns (rows, param_count, D) with D = |N(J)|: the column of
    C[gens[gi], beta] is gi*D + (index of beta in N(J)).  Rows come in the
    order of :func:`_equation_pairs`; each is {plus: 1, minus: -1} minus
    absent sides.
    """
    D = colength(J)
    rows = []
    for p, q in _equation_pairs(J):
        row = {}
        if p >= 0:
            row[p] = 1
        if q >= 0:
            row[q] = -1
        rows.append(row)
    return rows, len(J._raw) * D, D


def tangent_dim(J: MonomialIdeal) -> TangentReport:
    """Exact tangent-space dimension with the generator-count bound sandwich.

    Every Artinian monomial ideal is smoothable, so its point lies on the
    main component, of dimension n*D, and the tangent dimension is at least
    n*D; a smaller count means the kernel is wrong and raises AssertionError.
    """
    lower, upper = tangent_bounds(J)
    rk, equations = _union_find_rank(J)
    dim = upper - rk
    lex = J.n * colength(J)
    if dim < lex:
        raise AssertionError(f"tangent dimension {dim} below n*D = {lex}")
    return TangentReport(
        param_count=upper,
        equation_count=equations,
        rank=rk,
        tangent_dim=dim,
        lower_bound=lower,
        upper_bound=upper,
        lex_dim=lex,
    )


def rank_agrees_with_elimination(rank: int, rows) -> bool:
    """Audit check: ``rank``, as :func:`tangent_dim` reported it, equals
    fraction-free elimination on ``rows``, the rows of :func:`_linear_rows`.
    """
    return rank == matrix_rank(rows)


def tangent_bounds(J: MonomialIdeal) -> tuple[int, int]:
    """(|B_J| * border generators, |B_J| * colength); the upper bound is the
    parameter count."""
    _require_artinian_stable(J)
    nb = len(J._raw)
    return nb * border_generator_count(J), nb * colength(J)


def triplet_dump(J: MonomialIdeal) -> str:
    """The assembled linear system in 'row col value' triplet text form."""
    rows, nparams, _ = _linear_rows(J)
    lines = [f"# {len(rows)} {nparams}"]
    for r, row in enumerate(rows):
        for c in sorted(row):
            lines.append(f"{r} {c} {row[c]}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# singularity certificates


def classify_stable(J: MonomialIdeal) -> ClassificationVerdict:
    """Sufficient lower-bound test at an Artinian strongly stable ideal."""
    _require_artinian_stable(J)
    if not is_strongly_stable(J):
        raise StabilityError("classification requires a strongly stable ideal")
    lower, _ = tangent_bounds(J)
    lex = J.n * colength(J)
    if lower > lex:
        return ClassificationVerdict(
            "singular", "lower-bound", {"lower": lower, "lex_dim": lex}
        )
    return ClassificationVerdict(
        "unknown", "lower-bound", {"lower": lower, "lex_dim": lex}
    )


def classify_ci(degrees, exact: bool = True) -> ClassificationVerdict:
    """Singularity cascade for the almost revlex point with a CI Hilbert function.

    Purely numeric criteria run first; the exact tangent computation is the
    last resort (skipped when ``exact`` is false).  A verdict of unknown
    never claims smoothness.
    """
    degrees = validate_degrees(degrees)
    n = len(degrees)
    if n < 3:
        raise DomainError(
            "need at least 3 forms: the length-2 punctual Hilbert scheme "
            "is irreducible and smooth"
        )
    D = prod(degrees)
    lex = n * D
    total = sum(degrees)

    # criterion (ii), prod(d_1..d_{n-1}) > n^3*d_n, is not tested: it gives
    # D > n^3*d_n^2 >= n*(sum d)^2, so (i) has already fired.  Nor is the
    # bound (D - 2*C(n+d_1-1, d_1-1))/(sum d - n + 1 - 2*d_1) <= H(c_1): when
    # its square beats lex, Hc1-squared has already fired.
    if D > n * total**2:
        return ClassificationVerdict(
            "singular",
            "numeric-criterion-(i)",
            {"product": D, "n_sum_sq": n * total**2},
        )
    if degrees[-1] == degrees[-2] and prod(degrees[:-2]) >= n**3:
        return ClassificationVerdict(
            "singular",
            "numeric-criterion-(iii)",
            {"head_product": prod(degrees[:-2]), "n3": n**3},
        )

    H = ci_hilbert(degrees)
    hc1 = H(c_index(H, 1))
    if hc1 * hc1 >= lex:
        return ClassificationVerdict(
            "singular", "Hc1-squared", {"hc1": hc1, "lex_dim": lex}
        )
    gens = _construct.mingen_count_formula(H, 0, n)
    if gens * hc1 > lex:
        return ClassificationVerdict(
            "singular",
            "sum-times-Hc1",
            {"mingens": gens, "hc1": hc1, "product": gens * hc1, "lex_dim": lex},
        )
    if not exact:
        return ClassificationVerdict(
            "unknown", "none", {"hc1": hc1, "mingens": gens, "lex_dim": lex}
        )
    J = _construct.almost_revlex_ci(n, degrees)
    report = tangent_dim(J)
    if report.tangent_dim > lex:
        return ClassificationVerdict(
            "singular",
            "exact-tangent",
            {"tangent_dim": report.tangent_dim, "lex_dim": lex},
        )
    return ClassificationVerdict(
        "unknown", "none", {"tangent_dim": report.tangent_dim, "lex_dim": lex}
    )
