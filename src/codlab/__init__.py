"""Exact codegree sets of alternating groups and the exception search
that identifies which finite simple groups share codegrees with an A_n.

Everything is integer or Fraction arithmetic; no floats anywhere.
"""

from .alt_codegrees import (
    AltIrrEntry,
    CodegreeSet,
    alt_codegree_set,
    alt_degree_multiset,
    alt_irr_entries,
    min_nontrivial_codegree,
    sym_degree,
    verify_min_codegree_monotone,
)
from .catalog import (
    GroupId,
    alternating,
    class_number_bound,
    group_label,
    group_order,
    lie,
    parse_group_label,
    prime_power,
    simple_codegree_set,
    sporadic,
    sporadic_entries,
    twisted_codegree_set_2a9,
)
from .exactnum import PrimePower, factor, factorial, format_factored, is_prime
from .partitions import (
    conjugate,
    enumerate_partitions,
    hook_lengths,
    hook_product,
    is_self_conjugate,
)
from .search import (
    ExceptionRow,
    FamilyBounds,
    FamilySweepReport,
    SchurScan,
    SubsetCheck,
    VerificationReport,
    candidate_n_range,
    check_subset,
    derive_family_bounds,
    run_full_verification,
    schur_a9_size_check,
    schur_degree_equation_solutions,
    sweep_family,
    sweep_sporadic,
)

__version__ = "0.1.0"

__all__ = [
    "AltIrrEntry",
    "CodegreeSet",
    "ExceptionRow",
    "FamilyBounds",
    "FamilySweepReport",
    "GroupId",
    "PrimePower",
    "SchurScan",
    "SubsetCheck",
    "VerificationReport",
    "alt_codegree_set",
    "alt_degree_multiset",
    "alt_irr_entries",
    "alternating",
    "candidate_n_range",
    "check_subset",
    "class_number_bound",
    "conjugate",
    "derive_family_bounds",
    "enumerate_partitions",
    "factor",
    "factorial",
    "format_factored",
    "group_label",
    "group_order",
    "hook_lengths",
    "hook_product",
    "is_prime",
    "is_self_conjugate",
    "lie",
    "min_nontrivial_codegree",
    "parse_group_label",
    "prime_power",
    "run_full_verification",
    "schur_a9_size_check",
    "schur_degree_equation_solutions",
    "simple_codegree_set",
    "sporadic",
    "sporadic_entries",
    "sweep_family",
    "sweep_sporadic",
    "sym_degree",
    "twisted_codegree_set_2a9",
    "verify_min_codegree_monotone",
]
