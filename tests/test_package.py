"""The package surface: lazily loaded public names and what each command imports."""

import importlib
import json
import subprocess
import sys

import pytest

import codlab

# the public names of the package, each with the module that defines it
PUBLIC = {
    "alt_codegrees": (
        "CodegreeSet", "alt_codegree_set", "sym_degree", "verify_min_codegree_monotone",
    ),
    "catalog": (
        "GroupId", "alternating", "class_number_bound", "group_label", "group_order", "lie",
        "parse_group_label", "prime_power", "simple_codegree_set", "sporadic",
        "sporadic_entries", "twisted_codegree_set_2a9",
    ),
    "exactnum": ("PrimePower", "factor", "factorial", "format_factored", "is_prime"),
    "partitions": ("hook_product",),
    "search": (
        "ExceptionRow", "FamilyBounds", "FamilySweepReport", "SchurScan", "SubsetCheck",
        "VerificationReport", "check_subset", "run_full_verification",
        "schur_a9_size_check", "schur_degree_equation_solutions", "sweep_family",
        "sweep_sporadic",
    ),
}


def fresh_modules(code: str) -> list[str]:
    """The codlab modules loaded after running code in a fresh interpreter."""
    probe = code + (
        "\nimport json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('codlab'))))\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_no_submodule():
    assert fresh_modules("import codlab") == ["codlab"]


@pytest.mark.parametrize("argv", [["cod", "5"], ["min-cod", "5", "6"]])
def test_an_tables_load_only_the_an_layer(argv):
    loaded = fresh_modules(f"from codlab.cli import main\nassert main({argv!r}) == 0")
    assert loaded == ["codlab", "codlab.alt_codegrees", "codlab.cli", "codlab.exactnum",
                      "codlab.partitions"]


def test_search_loads_catalog_and_search():
    loaded = fresh_modules("from codlab.cli import main\nassert main(['schur']) == 0")
    assert {"codlab.catalog", "codlab.search"} <= set(loaded)


def test_all_names_are_the_home_objects():
    assert sorted(codlab.__all__) == sorted(n for names in PUBLIC.values() for n in names)
    assert len(codlab.__all__) == 34
    listed = dir(codlab)
    for module, names in PUBLIC.items():
        home = importlib.import_module(f"codlab.{module}")
        for name in names:
            assert getattr(codlab, name) is getattr(home, name), name
            assert name in listed, name


def test_names_are_read_not_stored(monkeypatch):
    from codlab import search

    assert codlab.check_subset is search.check_subset
    assert "check_subset" not in vars(codlab)
    # a name follows a rebinding in its home module, and back
    monkeypatch.setattr(search, "check_subset", "rebound")
    assert codlab.check_subset == "rebound"
    monkeypatch.undo()
    assert codlab.check_subset is search.check_subset
    assert not set(vars(codlab)) & set(codlab.__all__)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'render_rows_csv'"):
        codlab.render_rows_csv
    with pytest.raises(ImportError):
        from codlab import no_such_name  # noqa: F401
