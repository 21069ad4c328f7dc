#!/usr/bin/env python3
"""Probe-cost benchmark: one workload, end-to-end or per-layer metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload yarrp6-walk --seed 1 --seconds 25 --trace 0

``--seed`` makes the inputs (the target sample and, unless ``--key`` is
given, the permutation key); ``--world-seed`` picks the generated world.
The program receives only the generated inputs.

A run sets the workload up several times and reports the median set-up
time, then runs whole rounds of identical operations for ``--seconds``
and checks the last round's outputs.  With ``--trace 0`` it prints the
end-to-end metrics, with times scaled to a reference host speed by the
host gauge in ``workloads.py`` (see ``typical_round``): on a shared host
the speed drifts by tens of percent within minutes, and the gauge,
which never calls the program, moves with the host but not with the
program.  With ``--trace 1`` it spends the first half of the run untraced
and the second half with every layer's entry points wrapped (see
``layertrace.py``), and prints the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before
it records the host the run saw.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from typing import Any, Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: The reference world; ``--world-seed`` selects another.
DEFAULT_WORLD_SEED = 2018
#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPS = 5

#: (name, unit, better) of every end-to-end metric.
END_TO_END = (
    ("probes_per_s", "probes/s", "higher"),
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
)

#: (name, unit, better) of every per-layer metric.  A layer the workload
#: does not exercise reads 0.
PER_LAYER = (
    ("permutation.us_per_pair", "us", "lower"),
    ("permutation.pairs", "count", "lower"),
    ("encoding.us_per_probe", "us", "lower"),
    ("encoding.decode_us", "us", "lower"),
    ("internet.self_us_per_probe", "us", "lower"),
    ("internet.answered_ratio", "share", "higher"),
    ("packet.splits_per_probe", "count", "lower"),
    ("packet.split_us", "us", "lower"),
    ("packet.pack_us", "us", "lower"),
    ("checksum.sums_per_probe", "count", "lower"),
    ("checksum.sum_us", "us", "lower"),
    ("ecmp.hash_us", "us", "lower"),
    ("internet.path_us", "us", "lower"),
    ("internet.path_hit_ratio", "share", "higher"),
    ("ratelimit.consume_us", "us", "lower"),
    ("ratelimit.allowed_ratio", "share", "higher"),
    ("engine.events_per_probe", "count", "lower"),
    ("engine.self_us_per_event", "us", "lower"),
    ("campaign.loop_us_per_probe", "us", "lower"),
    ("records.us_per_response", "us", "lower"),
    ("records.kept_ratio", "share", "higher"),
    ("yarrp6.fill_ratio", "share", "lower"),
    ("baselines.emit_us", "us", "lower"),
    ("output.write_us_per_record", "us", "lower"),
    ("output.read_us_per_record", "us", "lower"),
    ("output.bytes_per_record", "B", "lower"),
    ("analysis.traces_s", "s", "lower"),
    ("analysis.subnets_s", "s", "lower"),
    ("analysis.graph_s", "s", "lower"),
    ("analysis.pairs_compared", "count", "lower"),
    ("parallel.pool_start_s", "s", "lower"),
    ("parallel.slowest_shard_s", "s", "lower"),
    ("parallel.merge_s", "s", "lower"),
    ("parallel.parent_cpu_s", "s", "lower"),
    ("parallel.pickle_bytes_per_shard", "B", "lower"),
    ("parallel.efficiency", "share", "higher"),
    ("build.world_s", "s", "lower"),
    ("seeds.sources_s", "s", "lower"),
    ("hitlist.suite_s", "s", "lower"),
    ("trace.coverage", "share", "higher"),
    ("trace.overhead", "ratio", "lower"),
)


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--world-seed", type=int, default=DEFAULT_WORLD_SEED)
    parser.add_argument("--key", type=int, default=None,
                        help="permutation key (default: derived from --seed)")
    return parser.parse_args(argv)


def host_facts() -> Dict[str, Any]:
    from workloads import host_cores

    return {
        "cores": host_cores(),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process or its largest reaped child."""
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0


class Runner:
    """Runs whole rounds of a workload and keeps their timings."""

    def __init__(self, workload: Any, gauge: Any) -> None:
        self.workload = workload
        self.gauge = gauge
        self.attempted = 0
        self.failed = 0
        self.fingerprint: Optional[Tuple[Any, ...]] = None
        self.repeatable = True

    def rounds(self, seconds: float, trace: Any = None) -> List[Any]:
        """Whole rounds until ``seconds`` have passed (at least one); the
        rounds that completed."""
        from workloads import Round

        done: List[Any] = []
        workload = self.workload
        deadline = time.perf_counter() + seconds
        while True:
            gc.collect()
            round_ = Round(self.gauge.measure())
            self.attempted += workload.ops_per_round
            try:
                workload.run_round(round_, trace)
            except Exception:
                traceback.print_exc()
                self.failed += workload.ops_per_round - len(round_.ops)
            else:
                done.append(round_)
                fingerprint = workload.fingerprint()
                if self.fingerprint is None:
                    self.fingerprint = fingerprint
                elif fingerprint != self.fingerprint:
                    print("round repeated differently: %r != %r"
                          % (fingerprint, self.fingerprint), file=sys.stderr)
                    self.repeatable = False
            if time.perf_counter() >= deadline:
                return done


def setup(workload: Any, gauge: Any) -> Tuple[float, Dict[str, float]]:
    """Median set-up seconds over :data:`SETUP_REPS` at the reference
    host speed, and the median raw seconds of each layer's part.  Each
    set-up is scaled by the median of three gauge passes taken just
    before it, after one discarded pass: the first pass after a world is
    freed was seen to read a fifth or more off the passes after it."""
    totals: List[float] = []
    layers: Dict[str, List[float]] = {}
    for _ in range(SETUP_REPS):
        workload.built = None
        gc.collect()
        gauge.measure()
        host_s = statistics.median(gauge.measure() for _ in range(3))
        timings = workload.setup()
        totals.append(sum(timings.values()) * gauge.REFERENCE_S / host_s)
        for name, value in timings.items():
            layers.setdefault(name, []).append(value)
    return statistics.median(totals), {
        name: statistics.median(values) for name, values in layers.items()
    }


def typical_round(rounds: List[Any], reference_s: float) -> Tuple[float, float, float]:
    """(wall, CPU, campaign) seconds of one round at the reference host
    speed.  Each operation's time is divided by the host gauge's pass
    measured just before its round and scaled to the gauge's reference
    pass; the figure for the operation is the median over rounds.  A
    round repeats the same operations in the same order, so operation
    ``i`` of every round is the same work."""
    if not rounds:
        raise RuntimeError("no round completed")
    wall = cpu = campaign = 0.0
    scales = [reference_s / round_.gauge_s for round_ in rounds]
    for ops in zip(*(round_.ops for round_ in rounds)):
        op_wall = statistics.median(op[1] * scale for op, scale in zip(ops, scales))
        wall += op_wall
        cpu += statistics.median(op[2] * scale for op, scale in zip(ops, scales))
        if ops[0][0]:
            campaign += op_wall
    return wall, cpu, campaign


def end_to_end(rounds: List[Any], setup_s: float, reference_s: float) -> Dict[str, float]:
    wall, cpu, campaign = typical_round(rounds, reference_s)
    return {
        "probes_per_s": rounds[0].sent / campaign,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": setup_s,
    }


def per_layer(
    trace: Any,
    workload: Any,
    seen_rounds: int,
    campaign_s: float,
    setup_layers: Dict[str, float],
    overhead: float,
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric from the traced rounds; counts are
    per round, so they repeat exactly from run to run."""
    from layertrace import LOOP

    calls = trace.calls
    counts = trace.counts

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    def us_per_call(layer: str) -> float:
        return trace.self_us_per(layer, calls(layer))

    probes = calls("internet.probe")
    events = calls(LOOP)
    pairs = counts.get("permutation.pairs", 0)
    records = counts.get("output.records", 0)
    metrics = {
        "permutation.us_per_pair": trace.self_us_per("permutation", pairs),
        "permutation.pairs": pairs / seen_rounds,
        "encoding.us_per_probe": us_per_call("encoding.encode"),
        "encoding.decode_us": us_per_call("encoding.decode"),
        "internet.self_us_per_probe": trace.self_us_per("internet.probe", probes),
        "internet.answered_ratio": ratio(counts.get("internet.answered", 0), probes),
        "packet.splits_per_probe": ratio(calls("packet.split"), probes),
        "packet.split_us": us_per_call("packet.split"),
        "packet.pack_us": us_per_call("packet.pack"),
        "checksum.sums_per_probe": ratio(calls("checksum"), probes),
        "checksum.sum_us": us_per_call("checksum"),
        "ecmp.hash_us": us_per_call("ecmp"),
        "internet.path_us": us_per_call("internet.path"),
        "internet.path_hit_ratio":
            ratio(counts.get("internet.path_hits", 0), calls("internet.path")),
        "ratelimit.consume_us": us_per_call("ratelimit"),
        "ratelimit.allowed_ratio":
            ratio(counts.get("ratelimit.allowed", 0), calls("ratelimit")),
        "engine.events_per_probe": ratio(events, probes),
        "engine.self_us_per_event": trace.self_us_per("engine", events),
        "campaign.loop_us_per_probe": trace.self_us_per(LOOP, probes),
        "records.us_per_response": us_per_call("records"),
        "records.kept_ratio": ratio(counts.get("records.kept", 0), calls("records")),
        "yarrp6.fill_ratio": 0.0,
        "baselines.emit_us": us_per_call("baselines.emit"),
        "output.write_us_per_record": trace.self_us_per("output.write", records),
        "output.read_us_per_record": trace.self_us_per("output.read", records),
        "output.bytes_per_record": ratio(counts.get("output.bytes", 0), records),
        "analysis.traces_s": trace.self_s("analysis.traces") / seen_rounds,
        "analysis.subnets_s": trace.self_s("analysis.subnets") / seen_rounds,
        "analysis.graph_s": trace.self_s("analysis.graph") / seen_rounds,
        "analysis.pairs_compared":
            counts.get("analysis.pairs_compared", 0) / seen_rounds,
        "parallel.pool_start_s": 0.0,
        "parallel.slowest_shard_s": 0.0,
        "parallel.merge_s": 0.0,
        "parallel.parent_cpu_s": 0.0,
        "parallel.pickle_bytes_per_shard": 0.0,
        "parallel.efficiency": 0.0,
        "build.world_s": setup_layers.get("build.world_s", 0.0),
        "seeds.sources_s": setup_layers.get("seeds.sources_s", 0.0),
        "hitlist.suite_s": setup_layers.get("hitlist.suite_s", 0.0),
        "trace.coverage": ratio(trace.campaign_self_s(), campaign_s),
        "trace.overhead": overhead,
    }
    metrics.update(workload.layer_metrics(trace, seen_rounds))
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("perfbench: no program source under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import checks
    from layertrace import LayerTrace
    from workloads import WORKLOADS, HostGauge

    if args.workload not in WORKLOADS:
        print("perfbench: unknown workload %r (known: %s)"
              % (args.workload, ", ".join(sorted(WORKLOADS))), file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    key = args.key
    if key is None:
        key = random.Random("key/%d" % args.seed).getrandbits(32)
    workload = WORKLOADS[args.workload](args.seed, args.world_seed, key)

    gauge = HostGauge()
    setup_s, setup_layers = setup(workload, gauge)
    gc.collect()
    runner = Runner(workload, gauge)
    trace = None
    if args.trace:
        untraced = runner.rounds(args.seconds / 2)
        trace = LayerTrace()
        trace.install()
        try:
            traced = runner.rounds(args.seconds / 2, trace)
            campaign_s, seen_rounds = workload.traced_campaigns(traced)
        finally:
            trace.uninstall()
        reference_s = gauge.REFERENCE_S
        overhead = (typical_round(traced, reference_s)[0]
                    / typical_round(untraced, reference_s)[0])
        metrics = per_layer(trace, workload, seen_rounds, campaign_s,
                            setup_layers, overhead)
        units = {name: unit for name, unit, _ in PER_LAYER}
        print(trace.table())
    else:
        rounds = runner.rounds(args.seconds)
        metrics = end_to_end(rounds, setup_s, gauge.REFERENCE_S)
        units = {name: unit for name, unit, _ in END_TO_END}
        print(json.dumps({"rounds": len(rounds), "round_wall_s": [
            round(sum(op[1] for op in round_.ops), 4) for round_ in rounds],
            "gauge_s": [round(round_.gauge_s, 4) for round_ in rounds]}))

    # A failed round leaves partial outputs behind, so a run with any
    # failure is not correct, whatever its checks say.
    correct = runner.repeatable and runner.failed == 0
    try:
        workload.check(trace)
    except checks.CheckFailure as failure:
        print("check failed: %s" % failure, file=sys.stderr)
        correct = False
    print(json.dumps({"host": host_facts()}))
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]} for name in units
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
