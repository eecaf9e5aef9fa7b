import re

import pytest
from hypothesis import given, settings

from test_overlaps import layouts
from twosided.graphio import (
    GraphParseError,
    dump_intervals,
    format_graph,
    parse_graph,
    parse_intervals,
)
from twosided.model import IntervalSet, Interval


def test_parse_graph_minimal():
    inst = parse_graph("3 2\n1 2\n2 3\n")
    assert inst.n_vertices == 3
    assert inst.edges == ((1, 2), (2, 3))
    assert inst.order == (1, 2, 3)


def test_parse_graph_with_order():
    inst = parse_graph("4 2\n1 3\n2 4\norder: 2 1 3 4\n")
    assert inst.order == (2, 1, 3, 4)


def test_parse_graph_round_trip():
    inst = parse_graph("4 3\n1 2\n3 4\n1 4\norder: 4 3 2 1\n")
    assert parse_graph(format_graph(inst)).edges == inst.edges
    assert parse_graph(format_graph(inst)).order == inst.order


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(layouts())
def test_format_graph_round_trips_any_layout(inst):
    back = parse_graph(format_graph(inst))
    assert (back.vertices, back.edges, back.order) == (inst.vertices, inst.edges, inst.order)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "2\n",
        "2 1\n",
        "2 1\n1 1\n",
        "2 1\n1 x\n",
        "3 1\n1 2\norder: 1 2\n",
        "2 1\n1 2\norder: 1 3\n",
        "2 1\n1 2\ntrailing junk\n",
        "1000000000 0\n",
        "x 1\n",
        "-1 0\n",
        "2 1\n1 2 3\n",
        "2 1\n1 2\norder: 1 x\n",
    ],
)
def test_parse_graph_rejects(text):
    with pytest.raises(GraphParseError):
        parse_graph(text)


def test_interval_dump_round_trip():
    s = IntervalSet(
        (Interval(1, 3, 2), Interval(2, 4, 5)),
        {(0, 1): 2},
    )
    text = dump_intervals(s)
    assert text == "0 1 3 2\n1 2 4 5\npair 0 1 2\n"
    back = parse_intervals(text)
    assert back.intervals == s.intervals
    assert dict(back.pair_weights) == {(0, 1): 2}


def test_parse_intervals_rejects_bad_ids():
    with pytest.raises(GraphParseError):
        parse_intervals("1 1 2 0\n")


@pytest.mark.parametrize(
    "text, line",
    [
        ("0 9 10 5\n0 1 2 5\n1 3 4 1\n", "0 1 2 5"),
        ("0 1 3 1\n1 2 4 1\npair 0 1 2\npair 1 0 3\n", "pair 1 0 3"),
        ("0 1 3 1\n1 2 4 x\npair 0 1 2\n", "1 2 4 x"),
        ("0 1 3 1\n1 2 4 1\npair 0 1 2.5\n", "pair 0 1 2.5"),
        ("0 1 3 1\n1 2 4 1\npair 0 1\n", "pair 0 1"),
        ("# two intervals\n\n0 1 3 1\n   \n1 2 4 1\n  # their pair\npair 0 1\n", "pair 0 1"),
    ],
    ids=[
        "duplicate-interval-id",
        "duplicate-pair",
        "non-integer-interval",
        "non-integer-pair",
        "short-pair",
        "short-pair-after-skipped-lines",
    ],
)
def test_parse_intervals_rejects_naming_the_line(text, line):
    with pytest.raises(GraphParseError, match=re.escape(repr(line))):
        parse_intervals(text)
