#!/usr/bin/env python3
"""Self-test of the benchmark's correctness checks.

Usage, from the root of a checkout::

    python3 perfbench/selftest.py

Runs small campaigns on small worlds, confirms that every check in
``checks.py`` passes on the intact results, then feeds each check a
deliberately corrupted copy (a wrong hop, a duplicated pair, a fill with
no preceding Time Exceeded, a lossy round trip, a reordered merge, and
more) and expects it to fail, so no check passes vacuously.  It also
confirms that ``BENCHMARK.json`` lists exactly the workloads and metrics
``run.py`` reports.  Exits 0 when every case behaves as expected.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import replace
from typing import Any, Callable, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.addrs.prefix import Prefix  # noqa: E402
from repro.analysis import AsnResolver, build_traces, discover_by_path_div  # noqa: E402
from repro.netsim import Internet, InternetConfig, build_internet, decoupled_dynamics  # noqa: E402
from repro.prober import (  # noqa: E402
    CampaignSpec,
    ProbeRecord,
    Yarrp6Config,
    dumps,
    loads,
    run_campaign,
    run_parallel,
    run_single,
)

import checks  # noqa: E402
import run  # noqa: E402
from layertrace import LayerTrace  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: An address no generated world assigns to a router (RFC 3849).
NOT_A_ROUTER = 0x20010DB8 << 96

FAILURES: List[str] = []


def expect(label: str, passes: bool, check: Callable[[], None]) -> None:
    try:
        check()
    except checks.CheckFailure as failure:
        outcome = "fails (%s)" % failure
        ok = not passes
    else:
        outcome = "passes"
        ok = passes
    print("%-4s %-44s %s" % ("ok" if ok else "FAIL", label, outcome))
    if not ok:
        FAILURES.append(label)


def copy_record(record: Any, **changes: Any) -> ProbeRecord:
    fields = {name: getattr(record, name) for name in ProbeRecord.__slots__}
    fields.update(changes)
    return ProbeRecord(**fields)


def with_records(result: Any, records: List[Any]) -> Any:
    return replace(result, records=records)


def walk_cases() -> None:
    world = decoupled_dynamics(
        InternetConfig(n_edge=24, n_tier2=4, cpe_customers_per_isp=40, seed=2018)
    )
    built = build_internet(world)
    routers = built.truth.all_router_addresses()
    targets = sorted(s.prefix.base | 1 for s in built.truth.subnets.values())[:60]
    spec = CampaignSpec(internet=world, vantage="EU-NET", targets=tuple(targets),
                        pps=10_000.0, config=Yarrp6Config(key=7))
    result = run_campaign(Internet(built), "EU-NET", targets, "yarrp6", 10_000.0,
                          Yarrp6Config(key=7))

    expect("walk: intact hops", True, lambda: checks.check_hops_in_truth(result, routers))
    index = next(i for i, r in enumerate(result.records)
                 if r.is_time_exceeded and not r.target_modified)
    records = list(result.records)
    records[index] = copy_record(records[index], hop=NOT_A_ROUTER)
    expect("walk: wrong hop", False,
           lambda: checks.check_hops_in_truth(with_records(result, records), routers))

    expect("walk: intact curve", True, lambda: checks.check_curve(result))
    expect("walk: decreasing curve", False,
           lambda: checks.check_curve(replace(result, curve=result.curve[::-1])))
    expect("walk: curve short of interfaces", False,
           lambda: checks.check_curve(replace(result, curve=result.curve[:-1])))

    expect("walk: intact pairs", True,
           lambda: checks.check_walk(result, len(targets), 16))
    duplicated = list(result.records) + [result.records[index]]
    expect("walk: duplicated pair", False,
           lambda: checks.check_walk(with_records(result, duplicated), len(targets), 16))
    expect("walk: probes missing", False,
           lambda: checks.check_walk(replace(result, sent=result.sent - 1), len(targets), 16))

    merged = run_parallel(spec, shards=2, processes=1)
    reference = run_single(spec)
    expect("merge: intact", True, lambda: checks.check_merge(
        dumps(merged), merged, dumps(reference), reference))
    swapped = list(merged.records)
    swapped[0], swapped[1] = swapped[1], swapped[0]
    reordered = with_records(merged, swapped)
    expect("merge: reordered records", False, lambda: checks.check_merge(
        dumps(reordered), reordered, dumps(reference), reference))
    fewer = replace(merged, interfaces=set(list(merged.interfaces)[1:]))
    expect("merge: interface lost", False, lambda: checks.check_merge(
        dumps(fewer), fewer, dumps(reference), reference))


def fill_cases() -> None:
    world = InternetConfig(n_edge=30, cpe_customers_per_isp=200, seed=2018)
    built = build_internet(world)
    targets = sorted(s.prefix.base | 1 for s in built.truth.subnets.values())[:150]
    max_ttl = 4
    result = run_campaign(Internet(built), "US-EDU-2", targets, "yarrp6", 1000.0,
                          Yarrp6Config(max_ttl=max_ttl, fill=True, key=11))
    ceiling = Yarrp6Config().fill_ceiling

    expect("fill: intact", True, lambda: checks.check_fill(result, max_ttl, ceiling))
    fill = next(r for r in result.records
                if r.ttl > max_ttl and not r.target_modified)
    orphaned = [r for r in result.records
                if not (r.is_time_exceeded and (r.target, r.ttl) == (fill.target, fill.ttl - 1))]
    expect("fill: no preceding Time Exceeded", False, lambda: checks.check_fill(
        with_records(result, orphaned), max_ttl, ceiling))
    beyond = list(result.records) + [copy_record(fill, ttl=ceiling + 1)]
    expect("fill: TTL past the ceiling", False, lambda: checks.check_fill(
        with_records(result, beyond), max_ttl, ceiling))

    text = dumps(result)
    expect("round trip: intact", True,
           lambda: checks.check_round_trip(result, loads(text)))
    lossy = text[: text.rstrip("\n").rfind("\n") + 1]
    expect("round trip: last row lost", False,
           lambda: checks.check_round_trip(result, loads(lossy)))
    header_end = text.index("\n", text.index("# columns")) + 1
    row_end = text.index("\n", header_end)
    fields = text[header_end:row_end].split("\t")
    fields[6] = str(int(fields[6]) + 1)
    altered = text[:header_end] + "\t".join(fields) + text[row_end:]
    expect("round trip: RTT altered", False,
           lambda: checks.check_round_trip(result, loads(altered)))

    resolver = AsnResolver(built.truth.registry, built.truth.equivalent_asns)
    candidates = discover_by_path_div(build_traces(result.records), resolver)
    probed = sorted(targets)
    expect("candidates: intact", True,
           lambda: checks.check_candidates(candidates, probed))
    candidates.ia_subnets.add(Prefix(NOT_A_ROUTER, 64))
    expect("candidates: covers no target", False,
           lambda: checks.check_candidates(candidates, probed))


def stream_cases() -> None:
    world = InternetConfig(n_edge=30, cpe_customers_per_isp=200, seed=2018)
    built = build_internet(world)
    targets = sorted(s.prefix.base | 1 for s in built.truth.subnets.values())[:40]
    trace = LayerTrace()
    trace.install()
    try:
        trace.probe_log = []
        run_campaign(Internet(built), "EU-NET", targets, "sequential", 2000.0)
        pairs = trace.probe_log
    finally:
        trace.uninstall()
    expect("stream: intact sequential", True,
           lambda: checks.check_probe_stream(pairs, True, "sequential"))
    expect("stream: duplicated pair", False,
           lambda: checks.check_probe_stream(pairs + pairs[:1], True, "sequential"))
    gapped = [pair for pair in pairs if pair != (pairs[0][0], 1)]
    expect("stream: TTL run not from 1", False,
           lambda: checks.check_probe_stream(gapped, True, "sequential"))


def manifest_cases() -> None:
    """BENCHMARK.json names what run.py reports, no more and no less."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    listed = {w["name"] for w in bench["workloads"]}
    pairs = [
        ("workloads", listed, set(WORKLOADS)),
        ("end_to_end", {(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]},
         set(run.END_TO_END)),
        ("per_layer", {(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]},
         set(run.PER_LAYER)),
    ]
    for label, declared, reported in pairs:
        ok = declared == reported
        print("%-4s %-44s %s" % ("ok" if ok else "FAIL", "manifest: " + label,
                                 "matches run.py" if ok else declared ^ reported))
        if not ok:
            FAILURES.append(label)


def main() -> int:
    manifest_cases()
    walk_cases()
    fill_cases()
    stream_cases()
    print("\n%d case(s) misbehaved" % len(FAILURES) if FAILURES else "\nall cases ok")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
