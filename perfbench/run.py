"""Benchmark entry point: one workload per process, one closed-loop client.

    python3 perfbench/run.py --workload extract --seed 1 --seconds 10 --trace 0

Set-up (corpus and catalog load, database generation, ``optimize_program``
of the application programs, one untimed warm-up pass) runs
``SETUP_REPEATS`` times from the same seed; ``setup_s`` is the median, and
the warm-up passes' counts must match exactly (the determinism
self-check).  Then whole passes run until ``--seconds`` have elapsed;
every pass runs each item once, in an order shuffled by the seed.

``--trace 0`` reports the end-to-end metrics with tracing off; times are
host-speed normalised (see ``hostspeed.py``) and printed next to the raw
measurements.  ``--trace 1`` alternates untraced and traced passes,
prints per-layer self times (raw) and counts, and writes the spans as
Chrome trace-event JSON under ``.bench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import random
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from hostspeed import SpeedProbe

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3

#: End-to-end metrics reported on every workload: name → unit.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "throughput_per_s": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_p90": "ms",
}


@dataclass
class Passes:
    """Measured passes: raw request latencies and their host-speed
    normalised values (seconds), and the failed requests."""

    latencies: list[float] = field(default_factory=list)
    normalized: list[float] = field(default_factory=list)
    labels: list[str] = field(default_factory=list)
    failures: list[tuple[str, str]] = field(default_factory=list)
    #: Per pass: wall time, and raw and normalised time spent in requests.
    walls: list[float] = field(default_factory=list)
    busy_raw: list[float] = field(default_factory=list)
    busy: list[float] = field(default_factory=list)


def run_pass(workload, order_rng, probe, passes, tracer=None) -> None:
    """Run every item once, in an order drawn from ``order_rng``."""
    items = list(workload.items)
    order_rng.shuffle(items)
    perf_counter = time.perf_counter
    start = perf_counter()
    busy_raw = busy = 0.0
    for item in items:
        factor = probe.tick()
        payload = workload.prepare(item)
        if tracer is not None:
            tracer.begin_request(item.label)
        began = perf_counter()
        try:
            outcome = workload.run(item, payload)
            error = None
        except Exception as exc:  # one failed request; the run goes on
            outcome = None
            error = f"{type(exc).__name__}: {exc}"
            if not passes.failures:
                traceback.print_exc(file=sys.stderr)
        latency = perf_counter() - began
        if latency > probe.every_s:
            # The host may have changed speed during a long request: use
            # the mean of the calibrations on either side.
            factor = (factor + probe.measure()) / 2.0
        passes.latencies.append(latency)
        passes.normalized.append(latency * factor)
        passes.labels.append(item.label)
        busy_raw += latency
        busy += latency * factor
        workload.after(item, payload)
        if error is None:
            error = workload.check(item, outcome)
        if error is not None:
            passes.failures.append((item.label, error))
    passes.walls.append(perf_counter() - start)
    passes.busy_raw.append(busy_raw)
    passes.busy.append(busy)


def run_passes(workload, order_rng, probe, seconds, tracer=None) -> Passes:
    """Whole passes until ``seconds`` have elapsed (at least one)."""
    passes = Passes()
    while not passes.walls or sum(passes.walls) < seconds:
        run_pass(workload, order_rng, probe, passes, tracer)
    return passes


def set_up(workload_cls, seed, probe):
    """Set up ``SETUP_REPEATS`` times; keep the last state.

    Returns (workload, order rng, normalised and raw setup seconds per
    repeat, warm-up counts per repeat).  Calibration time is not counted.
    """
    from layers import LAYERS
    from spans import Tracer

    raw, normalized, counts = [], [], []
    workload = order_rng = None
    for _ in range(SETUP_REPEATS):
        workload = order_rng = None
        gc.collect()
        first_sample, spent = len(probe.samples), probe.spent
        probe.measure()
        began = time.perf_counter()
        workload = workload_cls(ROOT, seed)
        workload.setup()
        order_rng = random.Random(seed)
        counter = Tracer(LAYERS, mode="count")
        warmup = Passes()
        with counter:
            run_pass(workload, order_rng, probe, warmup)
        elapsed = time.perf_counter() - began - (probe.spent - spent)
        probe.measure()
        raw.append(elapsed)
        # The warm-up requests carry their own factors; the rest of the
        # set-up takes the median calibration of this repeat.
        outside = elapsed - warmup.busy_raw[0]
        normalized.append(
            outside * probe.factor_since(first_sample) + warmup.busy[0]
        )
        counts.append({
            "calls": dict(sorted(counter.calls.items())),
            "counters": dict(sorted(counter.counters.items())),
            "program": workload.counts(),
            "failures": len(warmup.failures),
        })
    return workload, order_rng, normalized, raw, counts


def quantile(values, percent):
    return statistics.quantiles(values, n=100)[percent - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"expected one of {sorted(WORKLOADS)}")

    probe = SpeedProbe()
    workload, order_rng, setup_s, setup_raw_s, warmup_counts = set_up(
        WORKLOADS[args.workload], args.seed, probe
    )
    deterministic = all(c == warmup_counts[0] for c in warmup_counts)
    digest = hashlib.sha256(
        json.dumps(warmup_counts[0], sort_keys=True).encode()
    ).hexdigest()[:16]
    print(f"warm-up counts digest {digest} "
          f"({'identical' if deterministic else 'DIFFERENT'} across "
          f"{SETUP_REPEATS} set-ups; compare across runs of one seed)")
    if not deterministic:
        print("determinism self-check FAILED: warm-up counts differ between "
              "set-ups from the same seed", file=sys.stderr)
        for index, counts in enumerate(warmup_counts):
            print(f"  set-up {index}: {json.dumps(counts)}", file=sys.stderr)

    if args.trace:
        metrics, passes, consistent = traced_run(workload, order_rng, probe, args)
    else:
        before = workload.counts()
        passes = run_passes(workload, order_rng, probe, args.seconds)
        after = workload.counts()
        consistent = True
        metrics = end_to_end(setup_s, passes, len(workload.items))
        print("host-speed normalised (raw as measured in brackets):")
        raw = end_to_end(setup_raw_s, passes, len(workload.items), raw=True)
        report_end_to_end(metrics, raw, passes, {
            name: after[name] - before[name] for name in after
        })
        print(f"host speed factor: median {statistics.median(probe.samples) * 1e3:.4g} ms "
              f"per calibration loop over {len(probe.samples)} samples")

    failures = passes.failures
    checks, verify_failures = workload.verify()
    failures += verify_failures
    attempted = len(passes.latencies) + checks
    for label, reason in failures[:20]:
        print(f"FAILED {label}: {reason}", file=sys.stderr)
    print(f"error_rate {len(failures) / attempted:.6f} ratio "
          f"({len(failures)} failed of {attempted} attempted)")

    if args.trace:
        from layers import per_layer_names

        units = per_layer_names()
    else:
        units = END_TO_END
    result = {
        "correct": not failures and deterministic and consistent,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


def end_to_end(setup_times, passes: Passes, items: int, raw=False) -> dict:
    latencies = passes.latencies if raw else passes.normalized
    busy = passes.busy_raw if raw else passes.busy
    return {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        # Per pass, then the median pass: one disturbed pass moves it little.
        "throughput_per_s": items / statistics.median(busy),
        "latency_ms_p50": statistics.median(latencies) * 1000.0,
        "latency_ms_p90": quantile(latencies, 90) * 1000.0,
        "latency_ms_p99": (quantile(latencies, 99) * 1000.0
                           # at least ten samples beyond p99
                           if len(latencies) >= 1000 else None),
    }


def report_end_to_end(metrics, raw, passes: Passes, counts) -> None:
    """Print every end-to-end metric that applies, with its unit;
    ``counts`` are the program's counters over the measured passes."""
    for name, unit in {**END_TO_END, "latency_ms_p99": "ms"}.items():
        if metrics[name] is not None:
            print(f"  {name} {metrics[name]:.6g} {unit} [{raw[name]:.6g}]")
    if counts:  # the application runs
        requests = len(passes.latencies)
        print(f"  simulated_ms_per_request "
              f"{counts['simulated_time_ms'] / requests:.6g} ms")
        print(f"  bytes_per_request {counts['bytes_transferred'] / requests:.6g} B")
    print(f"  samples: {len(passes.latencies)} requests in {len(passes.walls)} passes "
          f"of {', '.join(f'{busy:.3g}' for busy in passes.busy)} s normalised")
    groups: dict[str, list[float]] = {}
    for label, latency in zip(passes.labels, passes.normalized):
        groups.setdefault(label.split("/")[0], []).append(latency * 1000.0)
    print("  median latency by corpus or application: " + ", ".join(
        f"{group} {statistics.median(values):.4g} ms" for group, values in sorted(groups.items())
    ))


def traced_run(workload, order_rng, probe, args):
    """Alternate untraced and traced passes until ``--seconds`` have
    elapsed; per-layer values are raw times per traced pass, and the
    tracing overhead is the median traced pass minus the median untraced
    pass."""
    from layers import LAYERS, per_layer_metrics, self_times_consistent
    from spans import Tracer

    tracer = Tracer(LAYERS)
    untraced, traced = Passes(), Passes()
    delta = {}
    origin = time.perf_counter()
    while not traced.walls or sum(untraced.walls) + sum(traced.walls) < args.seconds:
        run_pass(workload, order_rng, probe, untraced)
        before = workload.counts()
        with tracer:
            run_pass(workload, order_rng, probe, traced, tracer)
        after = workload.counts()
        for name in after:
            delta[name] = delta.get(name, 0) + after[name] - before[name]
    values = per_layer_metrics(
        tracer, len(traced.walls), len(traced.latencies), delta, sum(traced.walls),
        (statistics.median(traced.walls) - statistics.median(untraced.walls)) * 1000.0,
    )
    consistent = self_times_consistent(values)
    if not consistent:
        print("trace self-check FAILED: a negative self time", file=sys.stderr)

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
    events = tracer.write_chrome_trace(path, origin)
    for name, value in values.items():
        print(f"  {name} {value:.6g}")
    print(f"{events} spans over {len(traced.walls)} traced passes written to "
          f"{path.relative_to(ROOT)}")
    every = Passes(latencies=untraced.latencies + traced.latencies,
                   failures=untraced.failures + traced.failures)
    return values, every, consistent


if __name__ == "__main__":
    sys.exit(main())
