"""Benchmark of pseudopool training runs, end to end or split by layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload cpg-desk --seed 0 --seconds 20 --trace 0

``--trace 0`` sets up the workload in fresh interpreters to time set-up, then
runs training calls one after another (closed loop) for ``--seconds``, cycling
over the workload's seeds, and reports run-level metrics. Call time is built
from the per-epoch wall clocks the trainer reports and scaled by a reference
kernel timed beside it (see ``fast_call_seconds`` and ``reference``).
``--trace 1`` runs the first seed alternately untraced and traced and reports
the per-layer split of the traced calls. Every call's history is checked; the last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics. Machine notes and sample counts go on the line before it.
"""

import os

# One BLAS/OpenMP thread, fixed before numpy is first imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from checks import check_pool_prior, check_records, digest  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_PROBES = 3
# Share of a call's wall time its epoch clocks must cover for them to stand
# in for the call.
EPOCH_COVER = 0.95

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "steps_per_s": "1/s",
    "peak_rss_mb": "MB",
    "final_acc": "ratio",
    "final_macro_f1": "ratio",
    "pseudo_precision": "ratio",
    "pseudo_util": "ratio",
    "ok_rate": "ratio",
}

# per-layer metric -> span whose self time it reports
LAYER_SPANS = {
    "cycle.update_pool_s": "cycle.update_pool",
    "cycle.resolve_s": "cycle.resolve",
    "cycle.vote_s": "cycle.vote",
    "cycle.filter_s": "cycle.filter",
    "cycle.prior_s": "cycle.prior",
    "network.loss_and_grads_s": "network.loss_and_grads",
    "network.encode_s": "network.encode",
    "network.sgd_step_s": "network.sgd_step",
    "datasets.views_s": "datasets.views",
    "augment.class_stats_s": "augment.class_stats",
    "augment.plan_s": "augment.plan",
    "metrics.evaluate_epoch_s": "metrics.evaluate_epoch",
    "metrics.threshold_assignments_s": "metrics.threshold_assignments",
    "training.self_s": "training",
}
LAYER_COUNTS = (
    "cycle.vote_calls",
    "network.loss_rows",
    "network.encode_rows",
    "datasets.view_rows",
    "augment.synth_rows",
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds positive")
    return args


def machine_notes(loadavg) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict form
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')} ({blas.get('openblas configuration', '')})",
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "loadavg_at_start": list(loadavg),
        "platform": platform.platform(),
    }


def measure_setup(workload: str, seed: int) -> list[tuple[float, float]]:
    """(seconds, reference kernel seconds) of importing pseudopool and
    generating the splits, each in a fresh interpreter."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        probe = json.loads(proc.stdout.splitlines()[-1])
        times.append((probe["setup_s"], probe["reference_s"]))
    return times


class Calls:
    """Runs training calls and keeps what each produced."""

    def __init__(self, workload, splits: dict):
        self.workload = workload
        self.splits = splits
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[int, str] = {}
        self.finals: dict[int, dict] = {}
        self.seconds: list[tuple[int, float]] = []
        # seed -> (call seconds, per-epoch wall clocks) of its first call
        self.clocks: dict[int, tuple[float, list[float]]] = {}

    def run(self, seed: int, trace=None) -> float | None:
        """Seconds of one call, or None if it diverged. A call that fails a
        check still returns its seconds; it counts as failed."""
        from pseudopool.training import TrainingDiverged

        w, splits = self.workload, self.splits[seed]
        config = w.train_config(seed)
        call = w.run if trace is None else trace.wrap("training", w.run)
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            history = call(config, splits)
        except TrainingDiverged as exc:
            self.failed += 1
            self.problems.append(f"seed {seed}: {exc}")
            return None
        seconds = time.perf_counter() - t0
        self.seconds.append((seed, round(seconds, 4)))

        epochs = [report.wall_clock for report in history.reports]
        if trace is None:
            self.clocks.setdefault(seed, (seconds, epochs))
        records = history.to_records()
        problems = check_records(
            records,
            splits.spec.num_classes,
            int(splits.labeled.ids.size),
            int(splits.unlabeled.ids.size),
            config.total_epochs,
        )
        if w.method == "cpg":
            problems += check_pool_prior(history)
        d = digest(records)
        if self.digests.setdefault(seed, d) != d:
            problems.append("history digest differs from an earlier call on the same seed")
        if not EPOCH_COVER * seconds <= sum(epochs) <= seconds:
            problems.append(f"epoch clocks sum to {sum(epochs):.3f} s of a {seconds:.3f} s call")
        self.finals.setdefault(seed, records[-1])
        if problems:
            self.failed += 1
            self.problems += [f"seed {seed}: {p}" for p in problems]
        return seconds


def fast_call_seconds(clocks: list[tuple[float, list[float]]]) -> float:
    """Seconds of one training call with each epoch at its fastest.

    ``clocks`` holds one (call seconds, per-epoch wall clocks) pair per seed.
    Epoch ``e`` does like work on every seed, so the sum over ``e`` of its
    least time across seeds, plus the median time a call spends outside its
    epochs, gives the call's time on an unloaded machine. On a shared host
    each CPU drifts between a fast and a slow speed, for spells of a second to
    minutes, which moves a median of whole calls by up to a quarter from run
    to run. With calls spread over the CPUs (see ``end_to_end``), the least of
    several seeds' times for each epoch almost always falls in a fast spell;
    ``reference.host_scale`` takes out the slower drift of the whole machine.
    """
    epochs = sum(min(column) for column in zip(*(e for _, e in clocks), strict=True))
    return epochs + statistics.median(call - sum(e) for call, e in clocks)


def end_to_end(args, w, calls: Calls, seeds: list[int], setup: list[tuple[float, float]]):
    from reference import NOMINAL_S, host_scale, reference_seconds

    # Calls take turns on the usable CPUs, one at a time, so that a slow
    # spell on one CPU cannot cover every seed's epochs. Each seed's first
    # call is bracketed by reference kernel timings on its CPU.
    cpus = sorted(os.sched_getaffinity(0))
    scales: dict[int, float] = {}
    deadline = time.perf_counter() + args.seconds
    i = 0
    try:
        while i < len(seeds) or time.perf_counter() < deadline:
            seed = seeds[i % len(seeds)]
            os.sched_setaffinity(0, {cpus[i % len(cpus)]})
            if seed in scales:
                calls.run(seed)
            else:
                before = reference_seconds()
                calls.run(seed)
                scales[seed] = host_scale(before, reference_seconds())
            i += 1
    finally:
        os.sched_setaffinity(0, cpus)
    if len(calls.finals) < len(seeds):
        raise RuntimeError("a seed never completed a training call: " + "; ".join(calls.problems))

    def scaled(seed):
        call, epochs = calls.clocks[seed]
        return call * scales[seed], [e * scales[seed] for e in epochs]

    run_s = fast_call_seconds([scaled(s) for s in seeds])
    finals = [calls.finals[s] for s in seeds]
    steps = w.train_config(seeds[0]).total_steps
    values = {
        "setup_s": statistics.median(t * NOMINAL_S / ref for t, ref in setup),
        "run_s": run_s,
        "steps_per_s": steps / run_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "final_acc": statistics.fmean(r["acc"] for r in finals),
        "final_macro_f1": statistics.fmean(r["macro_f1"] for r in finals),
        "pseudo_precision": statistics.fmean(1.0 - r["err_rate"] for r in finals),
        "pseudo_util": statistics.fmean(r["util_rate"] for r in finals),
        "ok_rate": (calls.attempted - calls.failed) / calls.attempted,
    }
    samples = {
        "setup_s": len(setup),
        "run_s": len(seeds),
        "quality_seeds": len(seeds),
        "unscaled_run_s": round(fast_call_seconds([calls.clocks[s] for s in seeds]), 4),
        "host_scales": [round(scales[s], 4) for s in seeds],
    }
    return {k: (v, END_TO_END[k]) for k, v in values.items()}, samples


def layer_values(trace) -> dict:
    own = trace.self_times()
    out = {metric: own.get(span, 0.0) for metric, span in LAYER_SPANS.items()}
    counts = trace.counts
    out.update({name: counts[name] for name in LAYER_COUNTS})
    filtered = counts["cycle.filtered_rows"]
    out["cycle.fire_ratio"] = counts["cycle.vote_calls"] / filtered if filtered else 0.0
    m = counts["cycle.unlabeled_rows"]
    out["cycle.pool_ratio"] = counts["cycle.pool_final"] / m if m else 0.0
    return out


def traced(args, w, calls: Calls, seeds: list[int]) -> tuple[dict, dict]:
    from spans import Trace, instrument

    seed = seeds[0]
    plain_times, traced_times, layers = [], [], []
    deadline = time.perf_counter() + args.seconds
    while len(traced_times) < 2 or time.perf_counter() < deadline:
        plain = calls.run(seed)
        trace = Trace()
        with instrument(trace):
            seconds = calls.run(seed, trace)
        if plain is None or seconds is None:
            break
        if trace.counts["cycle.vote_calls"] != trace.counts["cycle.fired_rows"]:
            calls.problems.append("votes recorded differ from filter hits")
        plain_times.append(plain)
        traced_times.append(seconds)
        layers.append(layer_values(trace))
    if not layers:
        raise RuntimeError("no traced call completed: " + "; ".join(calls.problems))

    values = {}
    for name in layers[0]:
        series = [layer[name] for layer in layers]
        if name.endswith("_s"):
            values[name] = (statistics.median(series), "s")
        else:
            if len(set(series)) != 1:
                calls.problems.append(f"{name} differs between traced calls of one seed: {series}")
            values[name] = (series[0], "count" if name in LAYER_COUNTS else "ratio")
    overhead = statistics.median(traced_times) - statistics.median(plain_times)
    values["trace.overhead_s"] = (overhead, "s")
    return values, {"untraced_calls": len(plain_times), "traced_calls": len(traced_times)}


def main(argv=None) -> int:
    args = parse_args(argv)
    loadavg = os.getloadavg()
    if not (SRC / "pseudopool" / "__init__.py").is_file():
        print(f"perfbench: no pseudopool sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    w = WORKLOADS[args.workload]
    seeds = w.seeds(args.seed)

    # Set-up probes run before this process imports numpy, so its own memory
    # peak reflects the workload alone.
    setup = measure_setup(w.name, seeds[0]) if args.trace == 0 else None
    import pseudopool
    from pseudopool.datasets import generate_splits

    if Path(pseudopool.__file__).resolve().parent != SRC / "pseudopool":
        print(f"perfbench: imported pseudopool from {pseudopool.__file__}", file=sys.stderr)
        return 2
    # a traced run trains the first seed only
    calls = Calls(w, {s: generate_splits(w.spec(s)) for s in (seeds[:1] if args.trace else seeds)})
    if args.trace:
        values, samples = traced(args, w, calls, seeds)
    else:
        values, samples = end_to_end(args, w, calls, seeds, setup)

    notes = {
        "workload": w.name,
        "seed": args.seed,
        "seeds": seeds,
        "samples": samples,
        "setup_seconds": [[round(t, 4), round(ref, 6)] for t, ref in setup or []],
        "call_seconds": calls.seconds,
        "digests": {str(s): d[:16] for s, d in calls.digests.items()},
        "problems": calls.problems,
        "machine": machine_notes(loadavg),
    }
    for name, (value, unit) in values.items():
        print(f"{w.name:11s} {name:34s} {value:14.6g} {unit}")
    print(json.dumps({"notes": notes}))
    result = {
        "correct": calls.failed == 0 and not calls.problems,
        "attempted": calls.attempted,
        "failed": calls.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
