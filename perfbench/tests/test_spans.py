"""Span recording and self-time arithmetic."""

import pytest

from perfbench.spans import Span, Tracer, covered, self_times, subtree


class FakeClock:
    """A clock the test advances by hand."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_covered_merges_overlaps_and_clips():
    assert covered([], 0.0, 10.0) == 0.0
    assert covered([(1.0, 3.0), (2.0, 5.0)], 0.0, 10.0) == 4.0
    assert covered([(1.0, 2.0), (4.0, 6.0)], 0.0, 10.0) == 3.0
    assert covered([(-5.0, 2.0), (8.0, 20.0)], 0.0, 10.0) == 4.0
    assert covered([(3.0, 4.0), (1.0, 9.0)], 0.0, 10.0) == 8.0
    assert covered([(11.0, 12.0)], 0.0, 10.0) == 0.0


def test_nested_spans_self_times_sum_to_root():
    clock = FakeClock()
    tracer = Tracer(clock)
    with tracer.span("root") as root:
        clock.now = 1.0
        with tracer.span("a"):
            clock.now = 2.0
            with tracer.span("b"):
                clock.now = 5.0
            clock.now = 6.0
        clock.now = 7.0
        with tracer.span("b"):
            clock.now = 9.0
        clock.now = 10.0
    own = self_times(tracer.spans)
    assert own == {"root": 3.0, "a": 2.0, "b": 5.0}
    assert sum(own.values()) == tracer.spans[root].duration


def test_overlapping_children_count_once():
    spans = [
        Span("root", 0.0, 10.0),
        Span("x", 1.0, 6.0, parent=0),
        Span("y", 4.0, 8.0, parent=0),
    ]
    own = self_times(spans)
    assert own["root"] == pytest.approx(3.0)  # 10 minus the union [1, 8]
    assert own["x"] == 5.0 and own["y"] == 4.0


def test_folded_leaf_time_leaves_the_enclosing_span():
    clock = FakeClock()
    tracer = Tracer(clock)

    def leaf():
        clock.now += 0.25
        return "hit"

    folded = tracer.wrap_folded(leaf, "leaf", hit=lambda result: result == "hit")
    with tracer.span("root"):
        clock.now = 1.0
        with tracer.span("sim"):
            folded()
            folded()
            clock.now += 1.0
    own = self_times(tracer.spans)
    assert own == {"root": 1.0, "sim": 1.0, "leaf": 0.5}
    assert tracer.counts["leaf"] == 2 and tracer.counts["leaf.hits"] == 2


def test_subtree_selects_one_tree_and_inherits_run_ids():
    clock = FakeClock()
    tracer = Tracer(clock)
    with tracer.span("setup"):
        clock.now = 1.0
    with tracer.span("rep") as rep:
        with tracer.span("run", run="run0"):
            with tracer.span("inner") as inner:
                clock.now = 2.0
    assert subtree(tracer.spans, rep) == [1, 2, 3]
    assert tracer.spans[inner].run == "run0"
    assert set(self_times(tracer.spans, subtree(tracer.spans, rep))) == {"rep", "run", "inner"}


def test_spans_must_close_in_order_and_be_closed():
    tracer = Tracer(FakeClock())
    outer = tracer.open("outer")
    tracer.open("inner")
    with pytest.raises(RuntimeError):
        tracer.close(outer)
    with pytest.raises(ValueError):
        self_times(tracer.spans)
