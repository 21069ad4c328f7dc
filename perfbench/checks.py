"""Correctness checks run after each workload's timed section.

Each check states a property the probing method must have and raises
:class:`CheckFailure` when a result breaks it.  None compares against a
stored copy of earlier output: the references are the world's ground
truth, the campaign's own records, or a second run of the program.
``selftest.py`` feeds every check a corrupted result to show that none
passes vacuously.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, Iterable, List, Sequence, Set, Tuple

from repro.packet.icmpv6 import TYPE_TIME_EXCEEDED


class CheckFailure(AssertionError):
    """A workload's output broke a property it must have."""


def _fail(message: str) -> None:
    raise CheckFailure(message)


def record_key(record: Any) -> Tuple[Any, ...]:
    """Every field a ``.yrp6`` row carries, plus the derived label."""
    return (
        record.target, record.received_at, record.icmp_type, record.icmp_code,
        record.ttl, record.hop, record.rtt_us, record.target_modified,
        record.label,
    )


def check_hops_in_truth(result: Any, router_addresses: Set[int]) -> None:
    """Every intact Time Exceeded hop is a ground-truth router address."""
    for record in result.records:
        if (
            record.icmp_type == TYPE_TIME_EXCEEDED
            and not record.target_modified
            and record.hop not in router_addresses
        ):
            _fail("%s: Time Exceeded hop %x at TTL %d is no router address"
                  % (result.name, record.hop, record.ttl))


def check_curve(result: Any) -> None:
    """The discovery curve never decreases and ends at the interface count."""
    previous = (0, 0)
    for point in result.curve:
        if point[0] < previous[0] or point[1] < previous[1]:
            _fail("%s: discovery curve decreases at %r after %r"
                  % (result.name, point, previous))
        previous = point
    if previous[1] != len(result.interfaces):
        _fail("%s: discovery curve ends at %d, interface count is %d"
              % (result.name, previous[1], len(result.interfaces)))


def check_campaign(result: Any, router_addresses: Set[int]) -> None:
    """The checks every campaign of every workload must pass."""
    check_hops_in_truth(result, router_addresses)
    check_curve(result)


def check_walk(result: Any, n_targets: int, n_ttls: int) -> None:
    """A pure walk sends every (target, TTL) pair once, and the pairs
    decoded from its responses are distinct: the permutation is a
    bijection."""
    if result.sent != n_targets * n_ttls:
        _fail("%s: sent %d probes, expected %d targets x %d TTLs"
              % (result.name, result.sent, n_targets, n_ttls))
    seen: Set[Tuple[int, int]] = set()
    for record in result.records:
        if record.target_modified:
            continue
        pair = (record.target, record.ttl)
        if pair in seen:
            _fail("%s: pair (%x, %d) answered twice" % ((result.name,) + pair))
        seen.add(pair)


def check_fill(result: Any, max_ttl: int, fill_ceiling: int) -> None:
    """Every intact response above ``max_ttl`` answers a fill probe, which
    Yarrp6 only sends after a Time Exceeded one hop lower; no TTL passes
    the fill ceiling."""
    exceeded = {
        (record.target, record.ttl)
        for record in result.records
        if record.icmp_type == TYPE_TIME_EXCEEDED
    }
    for record in result.records:
        if record.ttl > fill_ceiling:
            _fail("%s: TTL %d exceeds the fill ceiling %d"
                  % (result.name, record.ttl, fill_ceiling))
        if (
            record.ttl > max_ttl
            and not record.target_modified
            and (record.target, record.ttl - 1) not in exceeded
        ):
            _fail("%s: fill response (%x, %d) has no Time Exceeded at TTL %d"
                  % (result.name, record.target, record.ttl, record.ttl - 1))


def check_round_trip(result: Any, loaded: Any) -> None:
    """``loads(dumps(result))`` gives back the same records and interfaces."""
    if len(loaded.records) != len(result.records) or loaded.skipped_rows:
        _fail("%s: round trip kept %d of %d records (%d rows skipped)"
              % (result.name, len(loaded.records), len(result.records),
                 loaded.skipped_rows))
    for index, (before, after) in enumerate(zip(result.records, loaded.records)):
        if record_key(before) != record_key(after):
            _fail("%s: round trip changed record %d" % (result.name, index))
    if loaded.interfaces != result.interfaces:
        _fail("%s: round trip changed the interface set" % result.name)


def check_candidates(candidates: Any, probed: Sequence[int]) -> None:
    """Every subnet candidate covers a probed target (``probed`` sorted)."""
    prefixes = list(candidates.candidate_prefixes) + list(candidates.ia_subnets)
    for prefix in prefixes:
        index = bisect_left(probed, prefix.base)
        if index == len(probed) or not prefix.contains(probed[index]):
            _fail("subnet candidate %s covers no probed target" % prefix)


def check_probe_stream(
    pairs: Iterable[Tuple[int, int]], contiguous: bool, label: str
) -> None:
    """No (target, TTL) pair is probed twice; with ``contiguous``, each
    target's TTLs form a run from 1 (the sequential prober's walk)."""
    ttls: Dict[int, List[int]] = {}
    seen: Set[Tuple[int, int]] = set()
    for pair in pairs:
        if pair in seen:
            _fail("%s: pair (%x, %d) probed twice" % ((label,) + pair))
        seen.add(pair)
        ttls.setdefault(pair[0], []).append(pair[1])
    if contiguous:
        for target, values in ttls.items():
            if sorted(values) != list(range(1, len(values) + 1)):
                _fail("%s: TTLs toward %x are not a run from 1: %r"
                      % (label, target, sorted(values)))


def check_merge(merged_text: str, merged: Any, reference_text: str, reference: Any) -> None:
    """The parallel merge is byte-identical to the single-process run."""
    if merged_text != reference_text:
        _fail("%s: merged .yrp6 output differs from run_single" % merged.name)
    if merged.interfaces != reference.interfaces:
        _fail("%s: merged interface set differs from run_single" % merged.name)
    if merged.curve != reference.curve:
        _fail("%s: merged discovery curve differs from run_single" % merged.name)
