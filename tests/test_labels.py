"""Fuzzing of the group label parser.

Every string either names a group or is refused with ValueError, in
bounded time, and every label the sweep can emit parses back to its
group.
"""

import pytest
from hypothesis import given, settings, strategies as st

from codlab import catalog
from codlab.catalog import (
    LIE_FAMILIES,
    SPORADIC_LABELS,
    GroupId,
    group_label,
    parse_group_label,
    sporadic,
    sporadic_entries,
    _PACKAGED_DATA,
)
from codlab.cli import main
from codlab.search import _walk
from oracles import SWEEP_BOXES, box_points

HEADS = (
    "PSL", "PSU", "PSp", "Omega", "O+", "O-", "G2", "F4", "E6", "E7", "E8",
    "2E6", "3D4", "2B2", "2G2", "2F4", "A",
)
BIG = 10**30
small = st.integers(min_value=-3, max_value=40)
huge = st.integers(min_value=-BIG, max_value=BIG)
field_sizes = st.sampled_from([4, 8, 9, 25, 27, 32, 3**40, 2**61 - 1, 2**127 - 1])
numbers = small | field_sizes | huge
args = st.lists(numbers.map(str) | st.sampled_from(["", " ", "x", "2^3", "1e3"]), max_size=3)


def parse_or_refuse(text: str) -> None:
    """The parser's contract on one input: a GroupId that round-trips, or ValueError."""
    try:
        g = parse_group_label(text)
    except ValueError:
        return
    assert isinstance(g, GroupId)
    assert parse_group_label(group_label(g)) == g
    assert all(c.isascii() for c in text if c.isdigit()), text


@given(st.text(max_size=40))
@settings(max_examples=500, deadline=1000)
def test_arbitrary_text_parses_or_is_refused(text):
    parse_or_refuse(text)


@given(
    st.sampled_from(HEADS) | st.text(max_size=4),
    args,
    st.sampled_from([",", ", ", " ,"]),
    st.sampled_from(["", "'", " "]),
)
@settings(max_examples=1000, deadline=1000)
def test_head_with_huge_integers_parses_or_is_refused(head, values, sep, tail):
    parse_or_refuse(f"{head}({sep.join(values)}){tail}")


@given(st.sampled_from(HEADS[:-1]), small | huge, numbers)
@settings(max_examples=1000, deadline=1000)
def test_integer_labels_parse_or_are_refused(head, d, q):
    parse_or_refuse(f"{head}({d},{q})")
    parse_or_refuse(f"{head}({q})")


@pytest.mark.parametrize(
    "text", ["A" + "9" * 5000, "PSL(2," + "9" * 5000 + ")", "E8(" + "1" * 5000 + ")"],
    ids=["A-5000-digits", "PSL-5000-digits", "E8-5000-digits"],
)
def test_overlong_digit_strings_are_refused(text):
    with pytest.raises(ValueError):
        parse_group_label(text)


@pytest.mark.parametrize(
    "text", ["PSL(2,1_3)", "PSL(2,+4)", "PSL(\u0662,\u0664)", "PSL(2,\uff14)", "A\u0665"]
)
def test_numbers_are_ascii_digits(text, capsys):
    # int() would read these as 13, 4, (2, 4), 4 and 5
    with pytest.raises(ValueError, match="cannot parse group label"):
        parse_group_label(text)
    assert main(["check-subset", text, "9"]) == 2
    assert capsys.readouterr().out == ""


def test_outer_spaces_and_spaces_after_commas_are_kept():
    assert parse_group_label(" PSL(2, 13) ") == parse_group_label("PSL(2,13)")
    assert parse_group_label("A5 ") == parse_group_label("A5")


def all_sweep_points() -> list[GroupId]:
    """The sporadic groups and every point of the old sweep boxes."""
    points = [sporadic(entry.label) for entry in sporadic_entries()]
    for family, box in SWEEP_BOXES.items():
        points.extend(box_points(family, box))
    return points


def test_every_sweep_label_round_trips():
    points = all_sweep_points()
    assert len(points) == 27 + 3508
    walked = [g for family in LIE_FAMILIES for g in _walk(family)]
    assert len(walked) == 217
    for g in points + walked:
        assert parse_group_label(group_label(g)) == g, g


def test_cached_parses_equal_fresh_parses():
    # loading the data file parses each of its labels and aliases
    labels = [*map(group_label, catalog._load_catalog(_PACKAGED_DATA)), *SPORADIC_LABELS]
    assert len(labels) == 12 + 27
    cached = [parse_group_label(label) for label in labels]
    assert all(parse_group_label(label) is g for label, g in zip(labels, cached))
    catalog._parse_group_label.cache_clear()
    fresh = [parse_group_label(label) for label in labels]
    assert [type(g) for g in cached] == [GroupId] * len(labels)
    assert cached == fresh


@pytest.mark.parametrize("text", ["2.A9", "A4", "PSL(2,6)", "PSL(3,4", "PSL(2,1_3)"])
def test_a_refused_label_is_refused_on_every_call(text):
    refusals = []
    for _ in range(2):
        with pytest.raises(ValueError) as exc:
            parse_group_label(text)
        refusals.append(str(exc.value))
    assert refusals[0] == refusals[1]
