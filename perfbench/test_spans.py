"""Self-test of the span and call-time arithmetic and of the tracer's transparency.

Run: python3 -m pytest perfbench/test_spans.py   (or python3 perfbench/test_spans.py)
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from reference import NOMINAL_S, host_scale  # noqa: E402
from run import fast_call_seconds  # noqa: E402
from spans import Trace, instrument, self_times  # noqa: E402


def test_children_are_subtracted_from_their_parent_only():
    # root [0, 10] > child [1, 5] > grandchild [2, 4]; second child [6, 7]
    own = self_times([0.0, 1.0, 2.0, 6.0], [10.0, 5.0, 4.0, 7.0], [-1, 0, 1, 0])
    assert own == [5.0, 2.0, 2.0, 1.0]
    assert sum(own) == 10.0


def test_overlapping_children_are_merged_and_clipped():
    # children [1, 4] and [3, 6] cover [1, 6]; [9, 12] counts only up to 10
    own = self_times([0.0, 1.0, 3.0, 9.0], [10.0, 4.0, 6.0, 12.0], [-1, 0, 0, 0])
    assert own[0] == 4.0


def test_fast_call_takes_each_epochs_least_time_plus_median_overhead():
    # three seeds' calls of three epochs; outside their epochs they spent 1, 2, 4 s
    clocks = [(7.0, [1.0, 2.0, 3.0]), (8.0, [2.0, 1.0, 3.0]), (9.0, [1.0, 1.0, 3.0])]
    assert fast_call_seconds(clocks) == 1.0 + 1.0 + 3.0 + 2.0


def test_host_scale_uses_the_faster_of_the_two_kernel_timings():
    assert host_scale(2 * NOMINAL_S, 4 * NOMINAL_S) == 0.5


def test_wrapped_calls_nest_and_count_from_arguments():
    trace = Trace()

    def leaf(x):
        return x * 2

    leaf_t = trace.wrap("leaf", leaf, lambda counts, args, result: counts.update(rows=args[0]))
    root_t = trace.wrap("root", lambda: leaf_t(3) + leaf_t(4))
    assert root_t() == 14
    assert list(trace.parent) == [-1, 0, 0]
    assert trace.counts["rows"] == 7
    own = trace.self_times()
    total = trace.end[0] - trace.start[0]
    assert abs(own["root"] + own["leaf"] - total) < 1e-12


def test_span_closes_when_the_call_raises():
    trace = Trace()

    def boom():
        raise ValueError("x")

    boom_t = trace.wrap("boom", boom)
    try:
        boom_t()
    except ValueError:
        pass
    assert trace.end[0] >= trace.start[0] > 0.0
    assert trace._stack == [-1]


def test_instrument_restores_every_attribute():
    from pseudopool import cycle, metrics, training

    before = (training.encode, metrics.evaluate_epoch, cycle.PseudoRegistry.record_vote)
    try:
        with instrument(Trace()):
            assert training.encode is not before[0]
            raise KeyError("leave the block early")
    except KeyError:
        pass
    assert (training.encode, metrics.evaluate_epoch, cycle.PseudoRegistry.record_vote) == before


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
    print("ok")
