"""The four probe-cost workloads.

Each workload builds its inputs in :meth:`Workload.setup` from the
world seed, the permutation key and the input seed, then runs whole
rounds of identical operations through the program's public API; the
benchmark times the rounds.  Every campaign runs on a fresh
:class:`~repro.netsim.Internet` over the built world, as the paper's
evaluation harness does, so each one starts with a cold path cache and
a rewound loss stream and every round repeats the first one exactly.
"""

from __future__ import annotations

import os
import random
import resource
import statistics
import struct
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.analysis import AsnResolver
from repro.analysis import graph as analysis_graph
from repro.analysis import subnets as analysis_subnets
from repro.analysis import traces as analysis_traces
from repro.hitlist import build_suite
from repro.netsim import Internet, InternetConfig, build_internet, decoupled_dynamics
from repro.obs import WallProfiler
from repro.prober import CampaignSpec, Yarrp6Config, run_campaign, run_parallel
from repro.prober import output, run_shard, run_single
from repro.seeds import caida_seed, cdn_observations, cdn_seed, fiebig_seed, tum_seed

import checks
from layertrace import LayerTrace

VANTAGES = ("EU-NET", "US-EDU-1", "US-EDU-2")
#: The paper's tuned maximum TTL (Table 6) and Yarrp6's fill ceiling.
MAX_TTL = 16
FILL_CEILING = Yarrp6Config().fill_ceiling

#: Targets per workload.  A round takes one to two seconds on a 2-core
#: host and is made of operations of a fraction of a second each, so a
#: run holds many samples of every operation.
WALK_TARGETS = 1000
WALK_SLICES = 4
FILL_TARGETS = 150
BASELINE_TARGETS = {"caida-z64": 100, "fiebig-z64": 400}
FILL_SETS = ("cdn-k32-z64", "tum-z64")


def walk_world(world_seed: int) -> InternetConfig:
    """The decoupled world of the parallel-scaling benchmark."""
    return decoupled_dynamics(
        InternetConfig(n_edge=120, n_tier2=4, cpe_customers_per_isp=600, seed=world_seed)
    )


def bench_world(world_seed: int) -> InternetConfig:
    """The paper-evaluation bench world, rate limiting on."""
    return InternetConfig(
        n_edge=200,
        cpe_customers_per_isp=10_000,
        leaves_per_alloc=(1, 2),
        hosts_per_leaf=(1, 3),
        seed=world_seed,
    )


def host_cores() -> int:
    """Cores this process may run on (the scheduler affinity mask)."""
    return len(os.sched_getaffinity(0))


def cpu_seconds() -> float:
    """User plus system CPU of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


class HostGauge:
    """A fixed pure-Python kernel that measures how fast the host runs
    right now.  It does what the simulator's hot path does most, dict
    lookups over a large table, struct packing, bytes slicing and small
    allocations, and it does not call the program, so a change to the
    program never moves it while a slow spell of the host does."""

    #: Seconds one pass takes on the reference host speed.
    REFERENCE_S = 0.025

    def __init__(self) -> None:
        rng = random.Random(5)
        self._table = {rng.getrandbits(64): (i, 3 * i) for i in range(50_000)}
        keys = list(self._table)
        self._probes = [keys[rng.randrange(len(keys))] for _ in range(20_000)]
        self._pack = struct.Struct("!IHH16s").pack

    def measure(self) -> float:
        """Seconds one pass of the kernel takes now."""
        table, pack = self._table, self._pack
        start = time.perf_counter()
        kept = []
        for key in self._probes:
            first, second = table[key]
            data = pack(first & 0xFFFFFFFF, second & 0xFFFF, 7, key.to_bytes(16, "big"))
            kept.append((first, data[4:9]))
        return time.perf_counter() - start


class Round:
    """What one round did: probes sent, the wall and CPU seconds of each
    operation in the order the round runs them, and the host gauge's
    pass measured just before."""

    __slots__ = ("sent", "ops", "gauge_s")

    def __init__(self, gauge_s: float) -> None:
        self.sent = 0
        self.gauge_s = gauge_s
        #: (is a campaign, wall seconds, CPU seconds) per operation.
        self.ops: List[Tuple[bool, float, float]] = []

    @contextmanager
    def op(self, campaign: bool = False) -> Iterator[None]:
        """Time one operation; it counts as done only if it returns."""
        cpu = cpu_seconds()
        start = time.perf_counter()
        yield
        self.ops.append((campaign, time.perf_counter() - start, cpu_seconds() - cpu))

    @property
    def campaign_s(self) -> float:
        return sum(wall for campaign, wall, _ in self.ops if campaign)


class Workload:
    """One benchmark workload: set-up, rounds, checks, layer figures."""

    name = ""
    #: Operations one round attempts (campaigns, round trips, analyses).
    ops_per_round = 1

    def __init__(self, seed: int, world_seed: int, key: int) -> None:
        self.seed = seed
        self.world_seed = world_seed
        self.key = key
        self.built: Any = None
        self.routers: set = set()

    def setup(self) -> Dict[str, float]:
        """Build the world and the inputs; returns per-layer seconds."""
        raise NotImplementedError

    def run_round(self, round_: Round, trace: Optional[LayerTrace] = None) -> None:
        """Run one round's operations, timing each in ``round_``."""
        raise NotImplementedError

    def fingerprint(self) -> Tuple[Any, ...]:
        """Counts of the last round; every round must repeat them."""
        raise NotImplementedError

    def check(self, trace: Optional[LayerTrace] = None) -> None:
        """Check the last round's outputs (raises CheckFailure)."""
        raise NotImplementedError

    def traced_campaigns(self, rounds: List[Round]) -> Tuple[float, int]:
        """Campaign seconds and rounds whose spans this process saw,
        the bases of ``trace.coverage`` and of the per-round counts."""
        return sum(round_.campaign_s for round_ in rounds), len(rounds)

    def layer_metrics(self, trace: LayerTrace, rounds: int) -> Dict[str, float]:
        """Workload-specific per-layer figures from the traced rounds."""
        return {}

    def _build(self, config: InternetConfig) -> float:
        start = time.perf_counter()
        self.built = build_internet(config)
        elapsed = time.perf_counter() - start
        self.routers = self.built.truth.all_router_addresses()
        return elapsed

    def _rng(self) -> random.Random:
        return random.Random(self.seed)

    def _campaign(self, round_: Round, *args: Any, **kwargs: Any) -> Any:
        internet = Internet(self.built)
        with round_.op(campaign=True):
            result = run_campaign(internet, *args, **kwargs)
        round_.sent += result.sent
        return result


class Walk(Workload):
    """A pure Yarrp6 walk: ground-truth /64s x TTL 1-16 at 10 kpps from
    EU-NET on the decoupled world, down the columnar batched path.  The
    targets are split into :data:`WALK_SLICES` campaigns so that a round
    is made of several short operations."""

    name = "yarrp6-walk"
    PPS = 10_000.0
    VANTAGE = "EU-NET"
    ops_per_round = WALK_SLICES

    def setup(self) -> Dict[str, float]:
        world_s = self._build(walk_world(self.world_seed))
        start = time.perf_counter()
        subnets = sorted(s.prefix.base | 1 for s in self.built.truth.subnets.values())
        targets = self._rng().sample(subnets, WALK_TARGETS)
        size = WALK_TARGETS // WALK_SLICES
        self.slices = [targets[i:i + size] for i in range(0, WALK_TARGETS, size)]
        return {"build.world_s": world_s, "targets_s": time.perf_counter() - start}

    def config(self) -> Yarrp6Config:
        return Yarrp6Config(max_ttl=MAX_TTL, key=self.key)

    def run_round(self, round_: Round, trace: Optional[LayerTrace] = None) -> None:
        # Drop the previous round's results first, so that they are not
        # resident while this round builds its own.
        self.results = []
        for targets in self.slices:
            self.results.append(
                self._campaign(round_, self.VANTAGE, targets, "yarrp6", self.PPS, self.config())
            )

    def fingerprint(self) -> Tuple[Any, ...]:
        return tuple(
            (result.sent, len(result.records), len(result.interfaces))
            for result in self.results
        )

    def check(self, trace: Optional[LayerTrace] = None) -> None:
        for targets, result in zip(self.slices, self.results):
            checks.check_campaign(result, self.routers)
            checks.check_walk(result, len(targets), MAX_TTL)


class ParallelWalk(Walk):
    """The walk's campaigns through ``run_parallel``: 2 shards on at most
    2 worker processes, never more than the host's cores."""

    name = "yarrp6-parallel-2w"
    SHARDS = 2

    def setup(self) -> Dict[str, float]:
        timings = super().setup()
        config = walk_world(self.world_seed)
        self.specs = [
            CampaignSpec(internet=config, vantage=self.VANTAGE, targets=tuple(targets),
                         pps=self.PPS, config=self.config())
            for targets in self.slices
        ]
        self.processes = min(self.SHARDS, host_cores())
        self.profiles: List[Dict[str, Any]] = []
        return timings

    def run_round(self, round_: Round, trace: Optional[LayerTrace] = None) -> None:
        self.results = []
        for spec in self.specs:
            profiler = WallProfiler() if trace is not None else None
            parent = resource.getrusage(resource.RUSAGE_SELF)
            with round_.op(campaign=True):
                result = run_parallel(
                    spec, shards=self.SHARDS, processes=self.processes, profiler=profiler
                )
            round_.sent += result.sent
            self.results.append(result)
            if profiler is not None:
                after = resource.getrusage(resource.RUSAGE_SELF)
                profile = profiler.to_profile_dict()
                profile["parent_cpu_s"] = (
                    after.ru_utime + after.ru_stime - parent.ru_utime - parent.ru_stime
                )
                self.profiles.append(profile)

    def traced_campaigns(self, rounds: List[Round]) -> Tuple[float, int]:
        """Pool workers' spans die with them, so run one round's shards
        again in this process, still traced, for the layer figures of
        the work the workers do."""
        seconds, seen = super().traced_campaigns(rounds)
        if self.processes > 1:
            seconds, seen = 0.0, 0
        start = time.perf_counter()
        for spec in self.specs:
            for shard in range(self.SHARDS):
                run_shard(spec, shard, self.SHARDS)
        return seconds + time.perf_counter() - start, seen + 1

    def check(self, trace: Optional[LayerTrace] = None) -> None:
        super().check(trace)
        for spec, result in zip(self.specs, self.results):
            reference = run_single(spec)
            checks.check_merge(
                output.dumps(result), result, output.dumps(reference), reference
            )

    def layer_metrics(self, trace: LayerTrace, rounds: int) -> Dict[str, float]:
        """The parallel runner's own phases per ``run_parallel`` call:
        medians of the times, means of the byte counts."""
        rows: Dict[str, List[float]] = {}
        pickled = 0
        for profile in self.profiles:
            phases = {row["path"]: row["total_seconds"] for row in profile["phases"]}
            shard_s = [worker["total_seconds"] for worker in profile.get("workers", [])]
            wall = phases.get("parallel", 0.0)
            pickled += profile.get("pickle_bytes_total", 0)
            values = {
                "parallel.pool_start_s": phases.get("parallel/pool.start", 0.0),
                "parallel.merge_s": phases.get("parallel/merge", 0.0),
                "parallel.parent_cpu_s": profile["parent_cpu_s"],
                "parallel.slowest_shard_s": max(shard_s, default=0.0),
                "parallel.efficiency":
                    sum(shard_s) / (self.processes * wall) if wall else 0.0,
            }
            for name, value in values.items():
                rows.setdefault(name, []).append(value)
        metrics = {name: statistics.median(values) for name, values in rows.items()}
        metrics["parallel.pickle_bytes_per_shard"] = (
            pickled / (len(self.profiles) * self.SHARDS) if self.profiles else 0.0
        )
        return metrics


class FillEval(Workload):
    """A slice of the paper's evaluation: Yarrp6 with fill mode at 1 kpps
    from all three vantages over two synthesized hitlists, each campaign
    written to ``.yrp6``, read back and analysed."""

    name = "yarrp6-fill-eval"
    PPS = 1000.0
    ops_per_round = 3 * len(VANTAGES) * len(FILL_SETS)

    def setup(self) -> Dict[str, float]:
        world_s = self._build(bench_world(self.world_seed))
        start = time.perf_counter()
        observations = cdn_observations(self.built)
        seeds = {
            "cdn-k32": cdn_seed(self.built, 2, observations, label="cdn-k32"),
            "tum": tum_seed(self.built),
        }
        seeds_s = time.perf_counter() - start
        start = time.perf_counter()
        suite = build_suite({name: s.items for name, s in seeds.items()}, levels=(64,))
        rng = self._rng()
        self.targets = {
            name: rng.sample(list(suite[name].addresses), FILL_TARGETS)
            for name in FILL_SETS
        }
        suite_s = time.perf_counter() - start
        return {"build.world_s": world_s, "seeds.sources_s": seeds_s,
                "hitlist.suite_s": suite_s}

    def run_round(self, round_: Round, trace: Optional[LayerTrace] = None) -> None:
        config = Yarrp6Config(max_ttl=MAX_TTL, fill=True, key=self.key)
        self.outputs: List[Tuple[Any, Any, Any, Sequence[int]]] = []
        for vantage in VANTAGES:
            for set_name in FILL_SETS:
                targets = self.targets[set_name]
                result = self._campaign(
                    round_, vantage, targets, "yarrp6", self.PPS, config,
                    name="%s/%s" % (vantage, set_name),
                )
                with round_.op():
                    loaded = output.loads(output.dumps(result))
                resolver = AsnResolver(
                    self.built.truth.registry, self.built.truth.equivalent_asns
                )
                with round_.op():
                    traces = analysis_traces.build_traces(loaded.records)
                    candidates = analysis_subnets.discover_by_path_div(traces, resolver)
                    analysis_graph.interface_graph(traces)
                self.outputs.append((result, loaded, candidates, targets))

    def fingerprint(self) -> Tuple[Any, ...]:
        return tuple(
            (result.sent, len(result.records), len(result.interfaces),
             candidates.pairs_compared)
            for result, _, candidates, _ in self.outputs
        )

    def check(self, trace: Optional[LayerTrace] = None) -> None:
        for result, loaded, candidates, targets in self.outputs:
            checks.check_campaign(result, self.routers)
            checks.check_fill(result, MAX_TTL, FILL_CEILING)
            checks.check_round_trip(result, loaded)
            checks.check_candidates(candidates, sorted(targets))

    def layer_metrics(self, trace: LayerTrace, rounds: int) -> Dict[str, float]:
        sent = sum(result.sent for result, _, _, _ in self.outputs)
        fills = sum(result.summary["fills"] for result, _, _, _ in self.outputs)
        return {"yarrp6.fill_ratio": fills / sent}


class Baselines(Workload):
    """Sequential and Doubletree tracing at 2 kpps from all three vantages
    over two hitlists: per-TTL waves drain the routers' token buckets."""

    name = "baselines-ratelimit"
    PPS = 2000.0
    KINDS = ("sequential", "doubletree")
    ops_per_round = len(VANTAGES) * len(BASELINE_TARGETS) * len(KINDS)

    def setup(self) -> Dict[str, float]:
        world_s = self._build(bench_world(self.world_seed))
        start = time.perf_counter()
        seeds = {"caida": caida_seed(self.built), "fiebig": fiebig_seed(self.built)}
        seeds_s = time.perf_counter() - start
        start = time.perf_counter()
        suite = build_suite({name: s.items for name, s in seeds.items()}, levels=(64,))
        rng = self._rng()
        self.targets = {
            name: rng.sample(list(suite[name].addresses), count)
            for name, count in BASELINE_TARGETS.items()
        }
        suite_s = time.perf_counter() - start
        return {"build.world_s": world_s, "seeds.sources_s": seeds_s,
                "hitlist.suite_s": suite_s}

    def run_round(self, round_: Round, trace: Optional[LayerTrace] = None) -> None:
        self.outputs: List[Tuple[str, Any]] = []
        self.streams: List[Tuple[str, str, List[Tuple[int, int]]]] = []
        for vantage in VANTAGES:
            for set_name, targets in self.targets.items():
                for kind in self.KINDS:
                    label = "%s/%s/%s" % (vantage, set_name, kind)
                    if trace is not None:
                        trace.probe_log = []
                    result = self._campaign(
                        round_, vantage, targets, kind, self.PPS, name=label
                    )
                    if trace is not None:
                        self.streams.append((label, kind, trace.probe_log))
                        trace.probe_log = None
                    self.outputs.append((kind, result))

    def fingerprint(self) -> Tuple[Any, ...]:
        return tuple(
            (result.sent, len(result.records), len(result.interfaces))
            for _, result in self.outputs
        )

    def check(self, trace: Optional[LayerTrace] = None) -> None:
        for _, result in self.outputs:
            checks.check_campaign(result, self.routers)
        # Only the traced run sees every probe the baselines emit.
        for label, kind, pairs in self.streams:
            checks.check_probe_stream(pairs, kind == "sequential", label)


WORKLOADS = {cls.name: cls for cls in (Walk, FillEval, Baselines, ParallelWalk)}
