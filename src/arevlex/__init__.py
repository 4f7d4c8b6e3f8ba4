"""Exact combinatorics of almost revlex ideals and Hilbert scheme tangent spaces.

The package is organized around five layers:

* :mod:`arevlex.terms` -- exponent vectors and the degrevlex order;
* :mod:`arevlex.ideals` -- monomial ideals, stability predicates, staircases;
* :mod:`arevlex.hilbert` -- Hilbert functions of complete intersections and
  monomial quotients, finite differences, the c/m/u-bar/varrho indices;
* :mod:`arevlex.construct` -- the greedy construction of the almost revlex
  ideal with a prescribed Hilbert function and closed generator counts;
* :mod:`arevlex.tangent` -- linearized marked-polynomial reduction, exact
  tangent dimensions on punctual Hilbert schemes and singularity
  certificates (with :mod:`arevlex.marked_reduction` as the independent
  full-reduction audit, computed modulo the square of the parameter ideal).
"""

from .construct import (
    almost_revlex_ci,
    almost_revlex_for,
    greatest,
    mingen_count_ci,
    mingen_count_formula,
)
from .errors import (
    AlgebraError,
    DimensionError,
    DomainError,
    NoAlmostRevlexIdeal,
    StabilityError,
)
from .hilbert import (
    CIProfile,
    Eventual,
    HilbertFunction,
    Series,
    c_index,
    check_pardue_decrease,
    check_symmetry,
    check_unimodal_ranges,
    ci_hilbert,
    ci_hilbert_oracle,
    derivative,
    hf_from_json,
    hf_of_ideal,
    pardue_truncation,
    varrho,
)
from .ideals import (
    MonomialIdeal,
    border_generator_count,
    colength,
    contains,
    extend_ring,
    first_expansion,
    ideal_from_json,
    ideal_to_json,
    ideal_to_text,
    is_almost_revlex,
    is_quasi_stable,
    is_stable,
    is_strongly_stable,
    krull_dim,
    minimalize,
    pommaret_decompose,
    reduction_number,
    regularity,
    sous_escalier,
)
from .marked_reduction import audit_tangent, full_reduce, oracle_rows
from .tangent import (
    ClassificationVerdict,
    TangentReport,
    classify_ci,
    classify_stable,
    tangent_bounds,
    tangent_dim,
)
from .terms import (
    Term,
    cmp_degrevlex,
    enumerate_terms,
    one,
    term,
    term_from_json,
    term_from_text,
    term_to_text,
    variable,
)

__version__ = "0.1.0"
