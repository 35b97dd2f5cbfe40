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
        "CodegreeSet", "alt_codegree_set", "sym_degree", "twisted_codegree_set_2a9",
        "verify_min_codegree_monotone",
    ),
    "catalog": (
        "GroupId", "alternating", "class_number_bound", "group_label", "group_order", "lie",
        "parse_group_label", "prime_power", "simple_codegree_set", "sporadic",
        "sporadic_entries",
    ),
    "exactnum": ("PrimePower", "factor", "factorial", "format_factored", "is_prime"),
    "partitions": ("hook_product",),
    "search": (
        "ExceptionRow", "FamilySweepReport", "SchurScan", "SubsetCheck",
        "VerificationReport", "check_subset", "run_full_verification",
        "schur_a9_size_check", "schur_degree_equation_solutions", "sweep_family",
        "sweep_sporadic",
    ),
}


def loaded_modules(code: str) -> set[str]:
    """The modules loaded after running code in a fresh interpreter."""
    probe = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True)
    return set(json.loads(proc.stdout.splitlines()[-1]))


def fresh_modules(code: str) -> list[str]:
    """The codlab modules loaded after running code in a fresh interpreter."""
    return sorted(m for m in loaded_modules(code) if m.startswith("codlab"))


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


@pytest.mark.parametrize("code", [
    "from codlab.cli import main\nassert main(['search', 'all']) == 0",
    "from codlab.cli import main\nassert main(['cod', '5']) == 0",
    "import codlab.cli\nfrom codlab.catalog import sporadic_entries\nsporadic_entries()",
], ids=["search-all", "cod-5", "setup-probe"])
def test_runs_load_no_reflection_machinery(code):
    # records are named tuples, so no run pays for dataclasses and inspect
    added = loaded_modules(code) - loaded_modules("pass")
    assert "codlab.cli" in added
    assert not added & {"dataclasses", "inspect"}


@pytest.mark.parametrize("code", [
    "from codlab.cli import main\nassert main(['search', 'all']) == 0",
    "import codlab.cli\nfrom codlab.catalog import sporadic_entries\nsporadic_entries()",
], ids=["search-all", "setup-probe"])
def test_runs_load_no_fraction_arithmetic(code):
    # class-number bounds are int pairs, so no run pays for fractions and decimal
    added = loaded_modules(code) - loaded_modules("pass")
    assert "codlab.catalog" in added
    assert not added & {"fractions", "decimal"}


def test_all_names_are_the_home_objects():
    assert sorted(codlab.__all__) == sorted(n for names in PUBLIC.values() for n in names)
    assert len(codlab.__all__) == 33
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
    def rebound(g, n):
        return None

    monkeypatch.setattr(search, "check_subset", rebound)
    assert codlab.check_subset is rebound
    monkeypatch.undo()
    assert codlab.check_subset is search.check_subset
    assert not set(vars(codlab)) & set(codlab.__all__)


def test_a_loaded_home_module_is_read_without_importlib(monkeypatch):
    from codlab import search

    def refuse(name):
        raise AssertionError(f"import_module({name!r})")

    monkeypatch.setattr(codlab, "import_module", refuse)
    assert codlab.check_subset is search.check_subset


def test_a_home_module_is_imported_on_first_access():
    probe = ("import sys, codlab\n"
             "assert 'codlab.search' not in sys.modules\n"
             "check = codlab.check_subset\n"
             "assert check is sys.modules['codlab.search'].check_subset\n")
    subprocess.run([sys.executable, "-c", probe], check=True)


def test_every_name_is_served_by_the_package_type():
    served = vars(type(codlab))
    assert all(name in served for name in codlab.__all__)
    assert "__getattr__" not in vars(codlab)


def test_star_import_binds_every_name():
    probe = ("import codlab\n"
             "from codlab import *\n"
             "names = [n for n in codlab.__all__ if n in globals()]\n"
             "assert len(names) == 33, names\n"
             "assert all(globals()[n] is getattr(codlab, n) for n in names)\n")
    subprocess.run([sys.executable, "-c", probe], check=True)


def test_an_assigned_name_shadows_its_home_until_deleted(monkeypatch):
    from codlab import search

    def stand_in(g, n):
        return None

    try:
        monkeypatch.setattr(codlab, "check_subset", stand_in)
        assert codlab.check_subset is stand_in
        monkeypatch.undo()  # assigns the value it saved back on the package
        assert codlab.check_subset is search.check_subset
        del codlab.check_subset
        assert "check_subset" not in vars(codlab)
        monkeypatch.setattr(search, "check_subset", stand_in)
        assert codlab.check_subset is stand_in  # read from the home module again
    finally:
        vars(codlab).pop("check_subset", None)


def test_mock_patch_shadows_a_name_and_restores_it():
    from unittest import mock

    from codlab import search

    with mock.patch("codlab.check_subset") as fake:
        assert codlab.check_subset is fake
    assert codlab.check_subset is search.check_subset
    assert "check_subset" not in vars(codlab)


def test_a_home_module_that_lacks_the_name_gives_attribute_error(monkeypatch):
    monkeypatch.setitem(sys.modules, "codlab.search", type(sys)("codlab.search"))
    with pytest.raises(AttributeError, match="check_subset"):
        codlab.check_subset
    assert not hasattr(codlab, "run_full_verification")


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'render_rows_csv'"):
        codlab.render_rows_csv
    with pytest.raises(ImportError):
        from codlab import no_such_name  # noqa: F401


# every record type of the package, each with its home module
RECORDS = {
    "alt_codegrees": ("CodegreeSet",),
    "catalog": ("GroupId", "SporadicEntry"),
    "exactnum": ("PrimePower",),
    "search": ("ExceptionRow", "FamilySweepReport", "Schur2A9Report", "SchurScan",
               "SubsetCheck", "VerificationReport"),
}
VALID_FIELDS = {
    "CodegreeSet": ("A5", 60, (1, 3, 4, 5, 12)),
    "GroupId": ("Sporadic", None, "M11"),
    "PrimePower": (2, 3),
}


def record_types():
    return [(name, getattr(importlib.import_module(f"codlab.{module}"), name))
            for module, names in RECORDS.items() for name in names]


def test_records_are_all_the_named_tuples():
    found = {name for module in RECORDS for name, obj in
             vars(importlib.import_module(f"codlab.{module}")).items()
             if isinstance(obj, type) and issubclass(obj, tuple) and hasattr(obj, "_fields")
             and obj.__module__ == f"codlab.{module}"}
    assert found == {name for name, _ in record_types()}


@pytest.mark.parametrize("name,cls", record_types())
def test_records_are_immutable_tuples_of_their_fields(name, cls):
    fields = VALID_FIELDS.get(name, tuple(range(len(cls._fields))))
    rec = cls(*fields)
    assert rec == tuple(getattr(rec, field) for field in cls._fields)
    with pytest.raises(AttributeError):
        setattr(rec, cls._fields[0], None)
    with pytest.raises(AttributeError):
        rec.not_a_field = None


def test_the_autouse_fixture_empties_every_cache_of_the_library():
    # a cache the fixture misses would carry state from one test into the
    # next, so tests would pass or fail by their order
    from codlab import alt_codegrees, catalog
    from codlab.search import run_full_verification
    from conftest import _CACHES

    run_full_verification()
    caches = {f"{mod.__name__}.{name}": obj for mod in (catalog, alt_codegrees)
              for name, obj in vars(mod).items() if hasattr(obj, "cache_clear")}
    assert caches and all(c.cache_info().currsize for c in caches.values())
    assert alt_codegrees._MEMO
    for clear in _CACHES:
        clear()
    sizes = {name: c.cache_info().currsize for name, c in caches.items()}
    assert sizes == dict.fromkeys(caches, 0)
    assert not alt_codegrees._MEMO
