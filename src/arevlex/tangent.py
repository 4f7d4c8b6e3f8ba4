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
list for list, by one rewrite per block modulo (C)^2; it is also the home of
:func:`~arevlex.marked_reduction.linearized_reduce`, the per-block view of
these equations.  The test suite checks that reduction against the
untruncated polynomial one.

Every equation therefore has at most two entries, +1 and -1.  The equation
on a monomial m gets its +C term from at most one beta, because
x_j*beta = m fixes beta = m/x_j, and its -C term from at most one beta',
because delta'*beta' = m fixes beta' = m/delta'.  So each equation reads
C_a = 0 or C_a - C_b = 0, and the system is a graph: columns are nodes, an
equality is an edge and a pin is an edge to one extra ground node.  Its
rank is the number of edges in a spanning forest, i.e. (P + 1) minus the
number of components, whatever the order of the unions.
:func:`_union_find_rank` counts it by block shape: the pins and edges of a
block (gamma, j) depend only on (j, delta'), so the pins are ORed in bulk
into one bitmask per generator and only the two-sided equations run a
union-find: rank = popcount of the pinned columns + the edge merges.  No
elimination and no fractions.  :func:`_equation_pairs` streams the same
blocks of :func:`_blocks` as rows, the ``--out`` dump and the audit, where
fraction-free elimination (:mod:`arevlex.linalg`) checks the kernel.

The parameters are laid out generator-major, then N(J) in degree-major
increasing degrevlex: C[gens[gi], beta] is column gi*D + pos[beta].  Both
positions come from two indexes that a :class:`MonomialIdeal` builds once
and caches, ``_gen_index`` (generator -> gi) and ``_staircase`` (term of
N(J) -> pos, with D = colength(J) its length); this module and
:mod:`arevlex.marked_reduction` read them and build no copies.

The tangent dimension is the parameter count minus that rank; comparing it
with n*D (the dimension of the component through the lexicographic point)
certifies singularity.  It is never below n*D, since every Artinian
monomial ideal is smoothable; :func:`tangent_dim` raises AssertionError if
it is, so an internal fault cannot pass for a smaller tangent space.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, prod

from . import construct as _construct
from .errors import DomainError, StabilityError
from .hilbert import c_index, ci_hilbert, validate_degrees
from .ideals import (
    MonomialIdeal,
    _pommaret_raw,
    border_generator_count,
    colength,
    is_stable,
    is_strongly_stable,
)
from .linalg import rank as matrix_rank
from .terms import Term, raw_min_var, raw_mul, raw_var


@dataclass(frozen=True)
class Parameter:
    """One coordinate C[alpha, beta] of the ambient space of the marked scheme."""

    alpha: Term
    beta: Term


@dataclass(frozen=True)
class LinearForm:
    """An integer linear functional on the parameters; no zero entries stored."""

    coefficients: tuple[tuple[Parameter, int], ...]

    def as_dict(self) -> dict[Parameter, int]:
        return dict(self.coefficients)


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
# parameters and the linearized reduction


def _require_artinian_stable(J: MonomialIdeal):
    if J.is_zero or not J.is_artinian:
        raise DomainError("operation requires an Artinian ideal")
    if not is_stable(J):
        raise StabilityError("operation requires a stable ideal")


def parameters(J: MonomialIdeal) -> list[Parameter]:
    """The |B_J| x |N(J)| parameters, generator-major, then increasing on beta."""
    _require_artinian_stable(J)
    betas = [Term(b) for b in J._staircase]
    return [Parameter(alpha, beta) for alpha in J.min_gens for beta in betas]


def _shift_maps(pos: dict[tuple[int, ...], int], n: int) -> list[list[int]]:
    """div[v][i] = position of m/x_{v+1} in N(J) for the m at position i, or -1
    if x_{v+1} does not divide m; ``pos`` is the staircase index.

    Each list carries one trailing -1, so indexing it with -1 yields -1 and
    maps compose without a guard.
    """
    div = []
    for v in range(n):
        dv = [pos[m[:v] + (m[v] - 1,) + m[v + 1 :]] if m[v] else -1 for m in pos]
        dv.append(-1)
        div.append(dv)
    return div


def _blocks(J: MonomialIdeal):
    """Yield (plus0, minus0, j, delta', pmap, qmap) for every block (gi, j).

    A block is a generator gens[gi] and a variable x_j above its minimal
    variable; x_j*gens[gi] = x^alpha' * x^delta' is its head decomposition,
    plus0 = gi*D and minus0 = (index of alpha')*D.  For the m at position i
    of N(J), pmap[i] is the position of m/x_j and qmap[i] that of m/delta',
    or -1 when the quotient is not a term of N(J).  N(J) is an order ideal,
    so m/delta' is in N(J) exactly when delta' divides m, and qmap composes
    from the one-variable maps (cached per delta').  Both maps carry one
    trailing -1.  The pair (pmap, qmap) depends on (j, delta') only.

    Order: generator-major, then variable.
    """
    gens = J._raw
    n = J.n
    D = colength(J)
    div = _shift_maps(J._staircase, n)
    by_delta: dict[tuple[int, ...], list[int]] = {}
    for gi, g in enumerate(gens):
        for j in range(1, raw_min_var(g)):
            alpha, delta = _pommaret_raw(J, raw_mul(raw_var(n, j), g))
            qmap = by_delta.get(delta)
            if qmap is None:
                qmap = list(range(D)) + [-1]
                for v, e in enumerate(delta):
                    dv = div[v]
                    for _ in range(e):
                        qmap = [dv[i] for i in qmap]
                by_delta[delta] = qmap
            yield gi * D, J._gen_index[alpha] * D, j, delta, div[j - 1], qmap


def _equation_pairs(J: MonomialIdeal):
    """Stream every linearized equation as a column pair (plus, minus).

    For the block (gi, j) of :func:`_blocks` and each m in N(J), the
    equation on m reads C[plus] - C[minus] = 0 with plus = (gi, m/x_j) and
    minus = (alpha', m/delta').  Columns are gi*D + (position of beta in
    N(J)); a side whose quotient is not a term of N(J) is -1, and m gets no
    equation when both are.  The two sides are never the same column, so
    no pair cancels: that would need alpha' = gamma and delta' = x_j, but a
    head decomposition has max(delta') >= min(alpha') and j < min(gamma).

    Order: generator-major, then variable, then m increasing degrevlex, the
    order in which :func:`arevlex.marked_reduction.oracle_rows` reads the
    same equations off its remainders.
    """
    for plus0, minus0, _, _, pmap, qmap in _blocks(J):
        yield from [
            (plus0 + p if p >= 0 else -1, minus0 + q if q >= 0 else -1)
            for p, q in zip(pmap, qmap)
            if p >= 0 or q >= 0
        ]


def _union_find_rank(J: MonomialIdeal) -> tuple[int, int]:
    """(rank, equation count) of the linearized system, block by block.

    Column c is node c and one ground node stands for zero.  Each shape
    (j, delta') is worked out once: a pin mask over N(J) per side (bit i
    for position i), the two-sided edges as two offset lists, and the
    equation count.  Every pinned column starts pointing at the ground,
    one merge each; the edges then run the find/union loop.
    """
    D = colength(J)
    pins = [0] * len(J._raw)
    shapes: dict = {}
    edges = []
    count = 0
    for plus0, minus0, j, delta, pmap, qmap in _blocks(J):
        shape = shapes.get((j, delta))
        if shape is None:
            plus_bits = bytearray(b"0") * D
            minus_bits = bytearray(b"0") * D
            ep, eq = [], []
            for p, q in zip(pmap, qmap):
                if p >= 0:
                    if q >= 0:
                        ep.append(p)
                        eq.append(q)
                    else:
                        plus_bits[p] = 49  # "1"
                elif q >= 0:
                    minus_bits[q] = 49
            shape = shapes[j, delta] = (
                int(plus_bits[::-1], 2), int(minus_bits[::-1], 2), ep, eq,
                len(ep) + plus_bits.count(49) + minus_bits.count(49),
            )
        plus_mask, minus_mask, ep, eq, neq = shape
        pins[plus0 // D] |= plus_mask
        pins[minus0 // D] |= minus_mask
        count += neq
        if ep:
            edges.append((plus0, minus0, ep, eq))
    spec = f"0{D}b"
    bits = "".join([format(mask, spec)[::-1] for mask in pins])
    ground = len(bits)
    parent = [ground if b == "1" else c for c, b in enumerate(bits)]
    parent.append(ground)
    merges = bits.count("1")
    for plus0, minus0, ep, eq in edges:
        for p, q in zip(ep, eq):
            a = plus0 + p
            b = minus0 + q
            while parent[a] != a:  # path halving
                parent[a] = parent[parent[a]]
                a = parent[a]
            while parent[b] != b:
                parent[b] = parent[parent[b]]
                b = parent[b]
            if a != b:
                parent[a] = b
                merges += 1
    return merges, count


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
    """Audit check: ``rank``, the union-find rank that :func:`tangent_dim`
    reported, equals fraction-free elimination on ``rows``.

    ``rows`` are the rows of :func:`_linear_rows`; :func:`tangent_dim`
    never runs elimination itself.
    """
    return rank == matrix_rank(rows)


def tangent_bounds(J: MonomialIdeal) -> tuple[int, int]:
    """(|B_J| * border generators, |B_J| * colength); the upper bound is the
    parameter count."""
    _require_artinian_stable(J)
    nb = len(J.min_gens)
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


def hc1_bounds(degrees) -> tuple[Fraction, Fraction | None]:
    """Coarse and refined lower bounds for the peak value H(c_1), as rationals.

    The refined bound subtracts the binomial head and tail of the table and
    is reported as None when its denominator is nonpositive.
    """
    degrees = validate_degrees(degrees)
    n = len(degrees)
    D = prod(degrees)
    coarse = Fraction(D, sum(degrees))
    den = sum(degrees) - n + 1 - 2 * degrees[0]
    if den <= 0:
        return coarse, None
    refined = Fraction(D - 2 * comb(n + degrees[0] - 1, degrees[0] - 1), den)
    return coarse, refined


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
    # refined bound of hc1_bounds: it never exceeds H(c_1), so whenever its
    # square beats lex, Hc1-squared has already fired.
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
