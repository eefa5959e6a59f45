"""Span recording around the calls a training run makes into each layer.

``instrument`` swaps every traced function for a wrapper at the place its
caller looks it up (``training`` imports its callees by name, ``metrics``
imports ``encode`` by name and reaches views through the ``datasets`` module,
and the registry methods live on the class), and puts the originals back on
exit. Wrappers pass arguments and results through untouched, so a traced run
must produce the same history as an untraced one.

Spans are kept in memory as parallel arrays (name, start, end, parent) and
reduced to per-layer self time after the run. Counts come only from call
arguments and results, so at a fixed seed they repeat exactly.
"""

from __future__ import annotations

import contextlib
import functools
import time
from array import array
from collections import Counter


class Trace:
    """In-memory span store for one traced training call."""

    def __init__(self) -> None:
        self.name: list[str] = []
        self.start: array = array("d")
        self.end: array = array("d")
        self.parent: array = array("l")
        self.counts: Counter = Counter()
        self._stack: list[int] = [-1]

    def wrap(self, name: str, fn, count=None):
        """Return ``fn`` recording a span per call; ``count(counts, args, result)``
        runs after the span has closed."""
        names, start, end, parent, stack = self.name, self.start, self.end, self.parent, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            names.append(name)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span counted without its children."""
        out: Counter = Counter()
        for name, seconds in zip(self.name, self_times(self.start, self.end, self.parent)):
            out[name] += seconds
        return dict(out)


def self_times(start, end, parent) -> list[float]:
    """Per span: its duration minus the part of its interval that its direct
    children cover (overlapping children are merged, and each child is
    clipped to the parent's interval)."""
    children: dict[int, list[int]] = {}
    for idx, par in enumerate(parent):
        if par >= 0:
            children.setdefault(par, []).append(idx)
    own = [end[i] - start[i] for i in range(len(start))]
    for par, kids in children.items():
        lo, hi = start[par], end[par]
        covered = 0.0
        run_start = run_end = None
        for k in sorted(kids, key=lambda i: start[i]):
            s, e = max(start[k], lo), min(end[k], hi)
            if e <= s:
                continue
            if run_end is None or s > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = s, e
            else:
                run_end = max(run_end, e)
        if run_end is not None:
            covered += run_end - run_start
        own[par] -= covered
    return own


# -- counters (arguments and results only) ----------------------------------


def _rows(x) -> int:
    return 1 if x.ndim == 1 else int(x.shape[0])


def _count_views(counts, args, result):
    counts["datasets.view_rows"] += _rows(args[0])


def _count_encode(counts, args, result):
    counts["network.encode_rows"] += _rows(args[1])


def _count_loss(counts, args, result):
    for part in args[1]:
        plain = _rows(part.inputs) if part.inputs.size else 0
        counts["network.loss_rows"] += plain + (len(part.synth) if part.synth is not None else 0)


def _count_filter(counts, args, result):
    counts["cycle.filtered_rows"] += int(args[0].labels_weak.size)
    counts["cycle.fired_rows"] += int(result.sum())


def _count_vote(counts, args, result):
    counts["cycle.vote_calls"] += 1


def _count_pool(counts, args, result):
    # gauges: the last update_pool call of the run leaves the final pool size
    counts["cycle.pool_final"] = int(result.pseudo_size)
    counts["cycle.unlabeled_rows"] = int(args[2].ids.size)


def _count_plan(counts, args, result):
    if result is not None:
        counts["augment.synth_rows"] += int(result[0].size)


@contextlib.contextmanager
def instrument(trace: Trace):
    """Wrap the layer functions for the duration of the block, then put back
    the very objects each attribute held before."""
    from pseudopool import cycle, datasets, metrics, training

    targets = [
        (training, "weak_view_batch", "datasets.views", _count_views),
        (training, "strong_view_batch", "datasets.views", _count_views),
        (datasets, "weak_view_batch", "datasets.views", _count_views),
        (training, "encode", "network.encode", _count_encode),
        (metrics, "encode", "network.encode", _count_encode),
        (training, "loss_and_grads", "network.loss_and_grads", _count_loss),
        (training, "sgd_step", "network.sgd_step", None),
        (training, "reliability_mask_batch", "cycle.filter", _count_filter),
        (cycle.PseudoRegistry, "record_vote", "cycle.vote", _count_vote),
        (cycle.PseudoRegistry, "resolve", "cycle.resolve", None),
        (training, "update_pool", "cycle.update_pool", _count_pool),
        (training, "class_distribution", "cycle.prior", None),
        (training, "update_class_stats", "augment.class_stats", None),
        (training, "minority_classes", "augment.plan", None),
        (training, "plan_synthesis", "augment.plan", _count_plan),
        (metrics, "evaluate_epoch", "metrics.evaluate_epoch", None),
        (metrics, "threshold_assignments", "metrics.threshold_assignments", None),
    ]
    saved = []
    try:
        for owner, attr, name, count in targets:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, trace.wrap(name, original, count))
        yield trace
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
