"""Self-time arithmetic and binding restoration of the benchmark's tracer.

Run with: python -m pytest bench
"""

import math

import pytest

from spans import END, Tracer, self_times, summarize


def span(name, start, end, parent, op=0, error=False, tag=None):
    return [name, start, end, parent, op, error, tag]


def tree():
    #  0 op           [0, 10]
    #  1   load       [1, 4]
    #  2     parse    [1.5, 2.5]
    #  3     parse    [2, 3]      overlaps its sibling (spans merged from a child process)
    #  4   compose    [3.5, 7]    overlaps load: their union is [1, 7]
    #  5     embed    [6, 8]      runs past its parent: only [6, 7] counts
    #  6   compose    [8, 9]      nested compose would not add to compose's inclusive time
    #  7     compose  [8.25, 8.75]
    return [
        span("op", 0.0, 10.0, -1),
        span("load", 1.0, 4.0, 0),
        span("parse", 1.5, 2.5, 1),
        span("parse", 2.0, 3.0, 1),
        span("compose", 3.5, 7.0, 0, tag=64),
        span("embed", 6.0, 8.0, 4, error=True),
        span("compose", 8.0, 9.0, 0, tag=8),
        span("compose", 8.25, 8.75, 6, tag=8),
    ]


def test_self_time_subtracts_the_union_of_clipped_children():
    got = self_times(tree())
    want = [
        10 - (7 - 1) - (9 - 8),  # children cover [1, 7] and [8, 9]
        3 - (3 - 1.5),           # parse children cover [1.5, 3]
        1.0,
        1.0,
        3.5 - (7 - 6),           # embed clipped to [6, 7]
        2.0,
        1 - 0.5,
        0.5,
    ]
    assert all(math.isclose(g, w) for g, w in zip(got, want)), got


def test_self_times_sum_to_the_root_when_children_nest_cleanly():
    spans = [span("op", 0.0, 5.0, -1), span("a", 1.0, 2.0, 0), span("b", 2.0, 4.0, 0),
             span("c", 2.5, 3.0, 2)]
    assert math.isclose(sum(self_times(spans)), 5.0)


def test_summarize_counts_calls_errors_and_outermost_inclusive_time():
    layers, tagged = summarize(tree())
    assert layers["parse"]["calls"] == 2
    assert math.isclose(layers["parse"]["incl_s"], 2.0)
    assert math.isclose(layers["compose"]["incl_s"], 3.5 + 1.0)  # the nested one is inside
    assert math.isclose(layers["compose"]["self_s"], 2.5 + 0.5 + 0.5)
    assert layers["embed"]["errors"] == 1 and layers["load"]["errors"] == 0
    assert tagged[("compose", 8)] == {"calls": 2, "incl_s": 1.5}
    assert tagged[("compose", 64)] == {"calls": 1, "incl_s": 3.5}


def test_absorbed_child_spans_hang_under_the_open_op():
    tracer = Tracer()
    tracer.begin_op(3)
    tracer.absorb([span("cli.main", 1.0, 2.0, -1, op=0), span("load", 1.2, 1.5, 0, op=0)])
    tracer.end_op()
    rows = tracer.spans
    assert [r[3] for r in rows] == [-1, 0, 1]
    assert {r[4] for r in rows} == {3}
    assert rows[0][END] >= rows[0][1]


def test_install_wraps_every_binding_and_uninstall_restores_them():
    qmeasure = pytest.importorskip("qmeasure")
    from qmeasure import intersubjectivity, linalg, scenario

    before = (scenario.compose, intersubjectivity.compose, linalg.is_unitary,
              intersubjectivity.is_unitary, qmeasure.observables.Pvm.__post_init__)
    tracer = Tracer()
    tracer.install(qmeasure)
    try:
        assert scenario.compose is intersubjectivity.compose is qmeasure.compose
        assert scenario.compose is not before[0]
        assert intersubjectivity.is_unitary is linalg.is_unitary is not before[2]
        tracer.begin_op(0)
        qmeasure.pvm_from_observable(qmeasure.PAULI_Z)
        tracer.end_op()
    finally:
        tracer.uninstall()
    after = (scenario.compose, intersubjectivity.compose, linalg.is_unitary,
             intersubjectivity.is_unitary, qmeasure.observables.Pvm.__post_init__)
    assert all(a is b for a, b in zip(after, before))
    names = [row[0] for row in tracer.spans]
    assert names[:2] == ["op", "observables.pvm_from_observable"]
    assert "observables.pvm_checks" in names and "linalg.spectral_decompose" in names
