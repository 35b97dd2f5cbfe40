"""Exact codegree sets of alternating groups and the exception search
that identifies which finite simple groups share codegrees with an A_n.

Everything is integer arithmetic; no floats anywhere.
cod(A_n) has one path, the Frobenius walk in alt_codegrees; enumerating
partitions, conjugating them or listing per-shape entries is left to the
tests' own oracles.

Each public name is read from its home module when it is accessed, and
a home module is imported on first use: `import codlab` loads no
submodule, and `codlab.alt_codegree_set` loads the A_n layer without
the simple-group catalog or the search.
"""

import sys
from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "alt_codegrees": "CodegreeSet alt_codegree_set sym_degree verify_min_codegree_monotone",
    "catalog": """GroupId alternating class_number_bound group_label group_order lie
        parse_group_label prime_power simple_codegree_set sporadic sporadic_entries
        twisted_codegree_set_2a9""",
    "exactnum": "PrimePower factor factorial format_factored is_prime",
    "partitions": "hook_product",
    "search": """ExceptionRow FamilySweepReport SchurScan SubsetCheck
        VerificationReport check_subset run_full_verification schur_a9_size_check
        schur_degree_equation_solutions sweep_family sweep_sporadic""",
}
# public name -> the submodule that defines it
_HOME = {name: f"{__name__}.{module}" for module, names in _EXPORTS.items()
         for name in names.split()}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    # Resolved on every access and never stored here, so a name always
    # reads the home module's current binding.  A home module is imported
    # only if it is not loaded yet, or is still loading and lacks the name.
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    try:
        return getattr(sys.modules[home], name)
    except (KeyError, AttributeError):
        return getattr(import_module(home), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | _HOME.keys())
