"""
Exact computation of centers of generic algebras on the symmetric group
(Nilcoxeter, 0-Hecke, group algebra) via equivalence classes of basis
elements on the Mobius band.

All arithmetic is exact rational; nothing in this package touches floating
point.
"""

from .algebra import (
    GROUP_ALGEBRA,
    NILCOXETER,
    ZERO_HECKE,
    AlgebraElement,
    AlgebraParams,
    basis_element,
    check_defining_relations,
    gram_matrix,
    involve,
    mul,
    mul_left_generator,
    mul_right_generator,
    trace,
    unit,
)
from .centers import (
    CenterBasis,
    center,
    dual_center_basis,
    multiplication_table,
    nc_center_basis,
    twisted_center,
    verify_hn_conjecture,
)
from .linalg import (
    NonUniqueSolutionError,
    NoSolutionError,
    SparseVector,
    Subspace,
    rank,
    span,
)
from .partitions import PartitionStats, center_dim_formula, expected_class_count, partitions
from .perm import (
    Permutation,
    Word,
    conjugate_by_w0,
    evaluate,
    generator,
    identity,
    longest_element,
    reduced_word,
)
from .quotients import (
    MobiusClasses,
    UnsupportedParamsError,
    class_census,
    commutator_span,
    cycle_type,
    mobius_classes,
    quotient_dim,
    twisted_commutator_span,
)

__version__ = "0.1.0"
