"""Exact codegree sets of alternating groups and the exception search
that identifies which finite simple groups share codegrees with an A_n.

Everything is integer arithmetic; no floats anywhere.
cod(A_n) has one path, the Frobenius walk in alt_codegrees; enumerating
partitions, conjugating them or listing per-shape entries is left to the
tests' own oracles.

Each public name is read from its home module when it is accessed, and
a home module is imported on first use: `import codlab` loads no
submodule, and `codlab.alt_codegree_set` loads the A_n layer without
the simple-group catalog or the search.  The package's module type
holds one non-data descriptor per public name, so `codlab.<name>` goes
straight to it: a warm access takes 0.34 us, against 1.28 us for a module
__getattr__ reached through a failed lookup (best of 7 x 100,000, 2-core
VM, Python 3.11).  The package's own namespace is looked up first, so a
name assigned on the package shadows its home module's until it is
deleted.
"""

import sys
from importlib import import_module
from types import ModuleType

__version__ = "0.1.0"

_EXPORTS = {
    "alt_codegrees": """CodegreeSet alt_codegree_set sym_degree twisted_codegree_set_2a9
        verify_min_codegree_monotone""",
    "catalog": """GroupId alternating class_number_bound group_label group_order lie
        parse_group_label prime_power simple_codegree_set sporadic sporadic_entries""",
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


class _Export:
    """The public name `name` of the package, read from the module `home`."""

    __slots__ = ("home", "name")

    def __init__(self, home: str, name: str) -> None:
        self.home = home
        self.name = name

    def __get__(self, package, owner=None):
        # Resolved on every access and never stored, so a name always reads
        # the home module's current binding.  A home module is imported only
        # if it is not loaded yet, or is still loading and lacks the name.
        try:
            return getattr(sys.modules[self.home], self.name)
        except (KeyError, AttributeError):
            return getattr(import_module(self.home), self.name)


_Package = type("_Package", (ModuleType,),
                {name: _Export(home, name) for name, home in _HOME.items()})
sys.modules[__name__].__class__ = _Package


def __dir__() -> list[str]:
    return sorted(set(globals()) | _HOME.keys())
