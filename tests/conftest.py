"""Fixtures shared by every suite."""

import pytest

from codlab import alt_codegrees


@pytest.fixture(autouse=True)
def empty_codegree_memo():
    # alt_codegree_set keeps each cod(A_n) for the life of the process; each
    # test starts and ends with it empty, so a test that patches the walk
    # sees the walk run, and no test leaves a set built under a patch behind
    alt_codegrees._MEMO.clear()
    yield
    alt_codegrees._MEMO.clear()


@pytest.fixture
def walks(monkeypatch):
    """(n_lo, n_hi) of every walk of the A_n shapes the test makes, in order."""
    ranges = []
    walk = alt_codegrees._frobenius_pairs

    def recording(n_lo, n_hi):
        ranges.append((n_lo, n_hi))
        return walk(n_lo, n_hi)

    monkeypatch.setattr(alt_codegrees, "_frobenius_pairs", recording)
    return ranges
