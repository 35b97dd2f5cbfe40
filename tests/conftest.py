"""Fixtures shared by every suite."""

import pytest

from codlab import alt_codegrees, catalog

# Every memo of the library: the membership index of each cod(A_n) for the
# life of the process, each data file with the cod(H) sets built from it, the
# parsed group labels and the Lie order formulas.
_CACHES = (alt_codegrees._MEMO.clear, catalog._degree_records.cache_clear,
           catalog._parse_group_label.cache_clear, catalog._order_formula.cache_clear)


@pytest.fixture(autouse=True)
def empty_memos():
    # each test starts and ends with every memo empty, so a test that patches
    # the walk sees the walk run, and no test leaves a set built under a patch
    # behind
    for clear in _CACHES:
        clear()
    yield
    for clear in _CACHES:
        clear()


@pytest.fixture
def walks(monkeypatch):
    """(n_lo, n_hi) of every walk of the A_n shapes the test makes, in order."""
    ranges = []
    walk = alt_codegrees._codegree_blocks

    def recording(n_lo, n_hi):
        ranges.append((n_lo, n_hi))
        return walk(n_lo, n_hi)

    monkeypatch.setattr(alt_codegrees, "_codegree_blocks", recording)
    return ranges
