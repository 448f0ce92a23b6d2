"""
Centers and twisted centers as commutants, the explicit Nilcoxeter center
basis, the trace-dual basis, and the 0-Hecke support report.

Two maps carry four systems: the commutator map x -> (T_i x - x T_i)_i and
the twisted map x -> (T_i x - x T_{n-i})_i.  Their kernels are the center
(generators suffice since they generate the algebra) and the twisted center,
computed here as exact nullspaces of the maps' rows; their images are the
commutator spans of ``quotients``, spanned by the columns.

For the Nilcoxeter algebra the center has a closed-form basis: one element
per nonzero Mobius class c, the sum of T_{w^{-1} w0} over the members w of
c, read off by rank.  The trace-dual element of a class c solves
trace(T_w * z) = 1 for w in c and 0 for every basis element outside c; one
``coordinates_in_span`` call solves it for every class.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .algebra import (
    NILCOXETER,
    ZERO_HECKE,
    AlgebraElement,
    AlgebraParams,
    _mul_ranks,
    _ranked,
    element_to_json,
    gram_matrix,
    mul_left_generator,
    mul_right_generator,
    preset_name,
)
from .linalg import (
    NonUniqueSolutionError,
    NoSolutionError,
    Subspace,
    _as_ints,
    coordinates_in_span,
    format_rational,
    nullspace,
    rank,
)
from .perm import Permutation, reduced_word, symmetric_group
from .quotients import _commutator_rows, mobius_classes

__all__ = [
    "CenterBasis",
    "center",
    "center_dim",
    "twisted_center",
    "nc_center_basis",
    "dual_center_basis",
    "multiplication_table",
    "is_central",
    "ClassFinding",
    "ConjectureReport",
    "verify_hn_conjecture",
    "conjecture_report_to_json",
    "CONJECTURE_REPORT_SCHEMA",
]

_ONE = Fraction(1)


@lru_cache(maxsize=None)
def center(n: int, params: AlgebraParams) -> Subspace:
    """Solutions of T_i z = z T_i for all generators, as a coordinate
    subspace of the n!-dimensional algebra."""
    rows = _commutator_rows(n, params, twisted=False, transpose=True)
    return nullspace(rows, symmetric_group(n).order)


def center_dim(n: int, params: AlgebraParams) -> int:
    """``center(n, params).dim`` with no basis built: n! minus the rank of
    the same rows.  ``linalg.rank`` reads it off a union-find of the rows
    with at most two entries, all the presets' rows, and eliminates only
    the longer rows of a generic pair, projected onto the forest's roots."""
    order = symmetric_group(n).order
    return order - rank(_commutator_rows(n, params, twisted=False, transpose=True), order)


@lru_cache(maxsize=None)
def twisted_center(n: int, params: AlgebraParams) -> Subspace:
    """Solutions of T_i z = z T_{n-i} for all generators."""
    rows = _commutator_rows(n, params, twisted=True, transpose=True)
    return nullspace(rows, symmetric_group(n).order)


def is_central(x: AlgebraElement) -> bool:
    return all(
        mul_left_generator(i, x) == mul_right_generator(x, i)
        for i in range(1, x.n)
    )


class CenterBasis:
    """A basis of the center, one element per nonzero Mobius class, labeled
    by the class representative."""

    def __init__(
        self,
        n: int,
        params: AlgebraParams,
        labels: tuple[Permutation, ...],
        elements: tuple[AlgebraElement, ...],
    ) -> None:
        self.n = n
        self.params = params
        self.labels = labels
        self.elements = elements

    def __len__(self) -> int:
        return len(self.elements)


def nc_center_basis(n: int) -> CenterBasis:
    """The Nilcoxeter center basis: for each nonzero class c the sum of the
    complements T_{w^{-1} w0} of its members.

    Each element is homogeneous of degree n(n-1)/2 minus the common length
    of the class members.  Since w0 o w reverses the lexicographic rank,
    w^{-1} w0 = (w0 o w)^{-1} has rank inv[n! - 1 - rank(w)].
    """
    classes = mobius_classes(n, NILCOXETER)
    table = symmetric_group(n)
    complement = [table.perms[k] for k in reversed(table.inv)]
    elements = tuple(
        AlgebraElement(n, NILCOXETER, {complement[u]: _ONE for u in ranks})
        for ranks in classes.member_ranks
    )
    return CenterBasis(n, NILCOXETER, classes.representatives, elements)


@lru_cache(maxsize=None)
def _gram(n: int, params: AlgebraParams) -> list[list[int | Fraction]]:
    """The Gram matrix, built once for the dual basis and the support report."""
    return gram_matrix(n, params)


@lru_cache(maxsize=None)
def dual_center_basis(n: int, params: AlgebraParams) -> CenterBasis:
    """For each nonzero class c, the unique central element pairing to 1
    with every member of c and to 0 with every basis element outside c.

    With the k center basis vectors Z_j scaled to primitive ints, column j
    is ``trace(T_u * Z_j)`` over the basis elements u.  The dual element of
    class l is ``sum x_j Z_j``, with x the coordinates of the class's
    indicator in the span of the columns, found for every class by one
    ``coordinates_in_span`` call.  It is unique exactly when the columns are
    independent, and exists exactly when the indicator lies in their span.

    A solve failure would contradict the duality between the center and the
    band quotient, so it aborts with diagnostics rather than degrade.
    """
    if params not in (NILCOXETER, ZERO_HECKE):
        raise ValueError(
            "dual center basis is defined for the nilcoxeter and 0-hecke presets"
        )
    classes = mobius_classes(n, params)
    reps = classes.representatives
    table = symmetric_group(n)
    central = [_as_ints(z.entries)[0] for z in center(n, params).basis]
    columns = [{} for _ in central]
    for u, gram_row in enumerate(_gram(n, params)):
        for column, z in zip(columns, central):
            if pairing := sum(gram_row[v] * c for v, c in z.items()):
                column[u] = pairing
    l = 0  # the class being solved; dependent columns fail before any is read

    def indicators():
        nonlocal l
        for l, ranks in enumerate(classes.member_ranks):
            yield dict.fromkeys(ranks, 1)

    try:
        solutions = coordinates_in_span(columns, indicators(), table.order)
    except (NoSolutionError, NonUniqueSolutionError) as exc:
        reason = {NoSolutionError: "inconsistent constraint system",
                  NonUniqueSolutionError: "solution set is positive-dimensional"}[type(exc)]
        raise type(exc)(
            f"dual element for the class of {reps[l]!r} at n={n}, "
            f"algebra {preset_name(params)}: {reason}"
        ) from exc
    elements = []
    for x in solutions:
        terms: dict[int, Fraction] = {}
        for xj, z in zip(x, central):
            for v, c in z.items():
                terms[v] = terms.get(v, 0) + xj * c
        elements.append(AlgebraElement(n, params, {table.perms[v]: c for v, c in terms.items()}))
    return CenterBasis(n, params, reps, tuple(elements))


def multiplication_table(basis: CenterBasis) -> list[list[list[Fraction]]]:
    """Entry (i, j): coordinates of elements[i] * elements[j] in the basis.

    Products of central elements are central, so coordinates exist and are
    unique; failure to solve means the basis is not what it claims to be.
    """
    if not basis.elements:
        return []
    table = symmetric_group(basis.n)
    zs = [_ranked(z) for z in basis.elements]
    # one product is held at a time: each is reduced as it is made
    products = (_mul_ranks(table, basis.params, zi, zj) for zi in zs for zj in zs)
    try:
        cells = coordinates_in_span(zs, products, table.order)
    except (NoSolutionError, NonUniqueSolutionError) as exc:
        raise RuntimeError(f"center basis at n={basis.n} is inconsistent: {exc}") from exc
    k = len(zs)
    return [cells[i : i + k] for i in range(0, k * k, k)]


# --- 0-Hecke support report --------------------------------------------------


class ClassFinding:
    def __init__(
        self,
        representative: Permutation,
        dual_element: AlgebraElement,
        complements: tuple[Permutation, ...],
        coefficients: tuple[tuple[Permutation, Fraction], ...],
        support_in_complements: bool,
        integer_coefficients: bool,
    ) -> None:
        self.representative = representative
        self.dual_element = dual_element
        self.complements = complements
        self.coefficients = coefficients
        self.support_in_complements = support_in_complements
        self.integer_coefficients = integer_coefficients


class ConjectureReport:
    def __init__(
        self,
        n: int,
        classes: tuple[ClassFinding, ...],
        unique_complement_per_crossing_number: bool,
    ) -> None:
        self.n = n
        self.classes = classes
        self.unique_complement_per_crossing_number = unique_complement_per_crossing_number


def verify_hn_conjecture(n: int) -> ConjectureReport:
    """Measure, per 0-Hecke class, whether the trace-dual central element is
    supported on the complements of the class members.

    This emits findings only; a failed inclusion is an observation about the
    basis, not an error.
    """
    params = ZERO_HECKE
    classes = mobius_classes(n, params)
    dual = dual_center_basis(n, params)
    table = symmetric_group(n)
    complement_sets = [
        [v for v, c in enumerate(row) if c == 1] for row in _gram(n, params)
    ]
    unique_per_crossing = all(
        len({table.lengths[v] for v in complement_sets[u]}) == len(complement_sets[u])
        for u in range(table.order)
    )

    findings = []
    for ranks, rep, element in zip(classes.member_ranks, dual.labels, dual.elements):
        complement_ranks = set()
        for u in ranks:
            complement_ranks.update(complement_sets[u])
        complements = sorted(
            (table.perms[v] for v in complement_ranks),
            key=lambda w: (w.length, w.image),
        )
        coefficients = tuple((v, element.coefficient(v)) for v in complements)
        support_ok = all(table.rank(w) in complement_ranks for w in element.terms)
        integer_ok = all(c.denominator == 1 for c in element.terms.values())
        findings.append(
            ClassFinding(
                representative=rep,
                dual_element=element,
                complements=tuple(complements),
                coefficients=coefficients,
                support_in_complements=support_ok,
                integer_coefficients=integer_ok,
            )
        )
    return ConjectureReport(n, tuple(findings), unique_per_crossing)


CONJECTURE_REPORT_SCHEMA = {
    "type": "object",
    "required": ["n", "classes", "unique_complement_per_crossing_number"],
    "properties": {
        "n": {"type": "integer"},
        "classes": {
            "type": "array",
            "items": {
                "type": "object",
                "required": [
                    "representative",
                    "dual_element",
                    "support_in_complements",
                    "complement_coefficients",
                    "integer_coefficients",
                ],
                "properties": {
                    "representative": {"type": "array", "items": {"type": "integer"}},
                    "dual_element": {"type": "object"},
                    "support_in_complements": {"type": "boolean"},
                    "integer_coefficients": {"type": "boolean"},
                    "complement_coefficients": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["word", "coeff"],
                            "properties": {
                                "word": {"type": "array", "items": {"type": "integer"}},
                                "coeff": {"type": "string"},
                            },
                        },
                    },
                },
            },
        },
        "unique_complement_per_crossing_number": {"type": "boolean"},
    },
}


def conjecture_report_to_json(report: ConjectureReport) -> dict:
    classes = []
    for finding in report.classes:
        classes.append(
            {
                "representative": list(reduced_word(finding.representative)),
                "dual_element": element_to_json(finding.dual_element),
                "support_in_complements": finding.support_in_complements,
                "integer_coefficients": finding.integer_coefficients,
                "complement_coefficients": [
                    {"word": list(reduced_word(v)), "coeff": format_rational(c)}
                    for v, c in finding.coefficients
                ],
            }
        )
    return {
        "n": report.n,
        "classes": classes,
        "unique_complement_per_crossing_number": report.unique_complement_per_crossing_number,
    }
