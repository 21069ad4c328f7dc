"""Outside-in per-layer tracing for the probe-cost benchmark.

The program carries no spans of its own at the layer boundaries the
benchmark cares about, so this module wraps each layer's public entry
point from the outside: a class attribute or module-level binding is
replaced by a wrapper that times the call and charges it to a named
layer.  Every binding of a wrapped module-level function across the
loaded ``repro`` modules is replaced, because hot-path modules import
those functions by name (``from .encoding import encode_probe``).

Spans stay in memory as per-layer aggregates: calls, total time, and
self time, where self time is a span's duration minus the time of the
wrapped spans it caused (a stack of child-time accumulators).  Result
counters (answered probes, cache hits, allowed tokens, kept responses)
are recorded at the same boundaries.  :meth:`LayerTrace.uninstall`
restores every original binding.

Install the trace before the campaign objects of the traced rounds are
built: bound methods captured earlier would bypass the wrappers.
"""

from __future__ import annotations

import importlib
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (layer, module, attribute path) for every wrapped entry point.  Two
#: entries may share a layer: their calls and times add up.
ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("permutation", "repro.prober.permutation", "ProbeSchedule.block"),
    ("encoding.encode", "repro.prober.encoding", "encode_probe"),
    ("encoding.encode", "repro.prober.encoding", "ProbeTemplate.encode_into"),
    ("encoding.decode", "repro.prober.encoding", "decode_quotation"),
    ("internet.probe", "repro.netsim.internet", "Internet.probe"),
    ("internet.path", "repro.netsim.internet", "Internet.path_for"),
    ("packet.split", "repro.packet.ipv6", "split_packet"),
    ("packet.pack", "repro.packet.icmpv6", "ICMPv6Message.pack"),
    ("checksum", "repro.packet.checksum", "ones_complement_sum"),
    ("ecmp", "repro.netsim.ecmp", "flow_variant"),
    ("ratelimit", "repro.netsim.ratelimit", "TokenBucket.consume"),
    ("engine", "repro.netsim.engine", "Engine.run"),
    ("records", "repro.prober.records", "ResponseProcessor.process"),
    ("baselines.emit", "repro.prober.traceroute", "SequentialProber.next_probe"),
    ("baselines.emit", "repro.prober.doubletree", "DoubletreeProber.next_probe"),
    ("output.write", "repro.prober.output", "dumps"),
    ("output.read", "repro.prober.output", "loads"),
    ("analysis.traces", "repro.analysis.traces", "build_traces"),
    ("analysis.subnets", "repro.analysis.subnets", "discover_by_path_div"),
    ("analysis.graph", "repro.analysis.graph", "interface_graph"),
)

#: Layers whose spans fall outside the campaign section; they are left
#: out of ``trace.coverage``, whose base is campaign wall time.
OUTSIDE_CAMPAIGN = ("output.write", "output.read", "analysis.traces",
                    "analysis.subnets", "analysis.graph")

#: The layer charged with the engine callbacks: the campaign's own
#: per-event closures (tick, block tick, response delivery).
LOOP = "campaign.loop"


class LayerStat:
    """Aggregated spans of one layer."""

    __slots__ = ("calls", "total_ns", "self_ns")

    def __init__(self) -> None:
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0


class LayerTrace:
    """Wraps the entry points in :data:`ENTRY_POINTS` and aggregates spans."""

    def __init__(self) -> None:
        self.stats: Dict[str, LayerStat] = {}
        #: Result counters keyed ``layer.what``.
        self.counts: Dict[str, int] = {}
        #: When a list, every ``encode_probe`` call appends (target, ttl):
        #: the complete probe stream of a per-probe campaign.
        self.probe_log: Optional[List[Tuple[int, int]]] = None
        self._stack: List[int] = [0]
        self._undo: List[Tuple[Any, str, Any]] = []

    # -- spans -------------------------------------------------------------
    def stat(self, layer: str) -> LayerStat:
        stat = self.stats.get(layer)
        if stat is None:
            stat = self.stats[layer] = LayerStat()
        return stat

    def _count(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(
        self,
        layer: str,
        func: Callable[..., Any],
        observe: Optional[Callable[[Tuple[Any, ...], Any], None]] = None,
    ) -> Callable[..., Any]:
        """``func`` timed as a span of ``layer``; ``observe(args, result)``
        runs after each call that returns."""
        stat = self.stat(layer)
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack.append(0)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                stack[-1] += elapsed
                stat.calls += 1
                stat.total_ns += elapsed
                stat.self_ns += elapsed - children
            if observe is not None:
                observe(args, result)
            return result

        traced.__wrapped__ = func  # type: ignore[attr-defined]
        return traced

    # -- installation --------------------------------------------------------
    def _patch(self, owner: Any, name: str, value: Any) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _patch_function(self, func: Any, wrapped: Any) -> None:
        """Replace every binding of ``func`` in the loaded repro modules."""
        for module in list(sys.modules.values()):
            module_name = getattr(module, "__name__", "")
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is func:
                    self._patch(module, attr, wrapped)

    def _observer(self, layer: str, attr: str) -> Optional[Callable[..., None]]:
        count = self._count
        if layer == "permutation":
            return lambda args, result: count("permutation.pairs", len(result))
        if layer == "internet.probe":
            return lambda args, result: count("internet.answered", result is not None)
        if layer == "ratelimit":
            return lambda args, result: count("ratelimit.allowed", bool(result))
        if layer == "records":
            return lambda args, result: count("records.kept", result is not None)
        if layer == "output.write":
            return lambda args, result: count("output.bytes", len(result))
        if layer == "output.read":
            return lambda args, result: count("output.records", len(result.records))
        if layer == "analysis.subnets":
            return lambda args, result: count(
                "analysis.pairs_compared", result.pairs_compared
            )
        if attr == "encode_probe":

            def log_probe(args: Tuple[Any, ...], result: Any) -> None:
                if self.probe_log is not None:
                    self.probe_log.append((args[1], args[2]))

            return log_probe
        return None

    def install(self) -> None:
        """Wrap every entry point plus the engine's callback scheduling."""
        if self._undo:
            raise RuntimeError("trace already installed")
        for layer, module_name, path in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            observe = self._observer(layer, attr)
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                if layer == "internet.path":
                    wrapped = self._wrap_path_for(original)
                else:
                    wrapped = self.wrap(layer, original, observe)
                self._patch(owner, attr, wrapped)
            else:
                original = getattr(module, attr)
                self._patch_function(original, self.wrap(layer, original, observe))
        self._wrap_scheduling()

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    def _wrap_path_for(self, original: Callable[..., Any]) -> Callable[..., Any]:
        """``Internet.path_for`` with a hit counter: a call that leaves the
        internet's path cache the same size was served from it."""
        timed = self.wrap("internet.path", original)
        count = self._count

        def path_for(internet: Any, *args: Any, **kwargs: Any) -> Any:
            before = len(internet._path_cache)
            result = timed(internet, *args, **kwargs)
            count("internet.path_hits", len(internet._path_cache) == before)
            return result

        return path_for

    def _wrap_scheduling(self) -> None:
        """Every callback handed to ``Engine.schedule``/``schedule_at``
        runs as a :data:`LOOP` span (once, though ``schedule`` may call
        ``schedule_at``)."""
        from repro.netsim.engine import Engine

        wrap = self.wrap
        for attr in ("schedule", "schedule_at"):
            original = Engine.__dict__[attr]

            def scheduling(
                engine: Any, when: int, callback: Any, _original: Any = original
            ) -> None:
                if not getattr(callback, "perfbench_loop", False):
                    callback = wrap(LOOP, callback)
                    callback.perfbench_loop = True
                _original(engine, when, callback)

            self._patch(Engine, attr, scheduling)

    # -- reading -------------------------------------------------------------
    def calls(self, layer: str) -> int:
        stat = self.stats.get(layer)
        return stat.calls if stat is not None else 0

    def self_s(self, layer: str) -> float:
        stat = self.stats.get(layer)
        return stat.self_ns / 1e9 if stat is not None else 0.0

    def self_us_per(self, layer: str, per: int) -> float:
        """Self time of ``layer`` in µs per ``per`` operations (0 if none)."""
        return self.self_s(layer) * 1e6 / per if per else 0.0

    def campaign_self_s(self) -> float:
        """Self time of every layer inside the campaign section."""
        return sum(
            stat.self_ns for layer, stat in self.stats.items()
            if layer not in OUTSIDE_CAMPAIGN
        ) / 1e9

    def table(self) -> str:
        """The per-layer table: calls, total and self time."""
        lines = ["%-18s %10s %10s %10s %9s" % (
            "layer", "calls", "total_s", "self_s", "self_us")]
        for layer in sorted(self.stats, key=lambda name: -self.stats[name].self_ns):
            stat = self.stats[layer]
            if not stat.calls:
                continue
            lines.append("%-18s %10d %10.4f %10.4f %9.3f" % (
                layer, stat.calls, stat.total_ns / 1e9, stat.self_ns / 1e9,
                stat.self_ns / 1e3 / stat.calls))
        return "\n".join(lines)
