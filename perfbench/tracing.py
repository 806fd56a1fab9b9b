"""Spans around the program's public calls, for the traced run only.

A :class:`Tracer` records one span per wrapped call: name, start, end,
parent and the current request id.  Spans live in flat arrays while the
run goes on and are written out when it ends.  Self time (a span's
duration minus the time its child spans cover) is accumulated per span
name as each span closes, so per-layer figures need no second pass.

:func:`install` swaps wrappers onto the layer classes' public methods
and onto the module functions the benchmark and the program call; the
returned :class:`Patches` puts every original back.  The untraced run
installs nothing and uses :class:`NullTracer`, whose spans record
nothing.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
from array import array
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["Tracer", "NullTracer", "Patches", "install", "layer_of"]

#: Name prefix of the benchmark's own spans (its loop glue, checks and
#: open-loop idling); everything else is named after a program module.
BENCH = "bench"


def layer_of(name: str) -> str:
    """``engine.state.apply_batch`` -> ``engine.state``; ``bench.x`` ->
    ``bench``."""
    if name.startswith(BENCH + "."):
        return BENCH
    return name.rsplit(".", 1)[0]


class Tracer:
    """In-memory span recorder with per-name self time."""

    def __init__(self) -> None:
        self._ids: Dict[str, int] = {}
        self.names: List[str] = []
        self._starts = array("d")
        self._ends = array("d")
        self._name_ids = array("i")
        self._parents = array("q")
        self._requests = array("q")
        # Open spans: [span index, start, time covered by children].
        self._stack: List[List[Any]] = []
        self.self_time: Dict[str, float] = {}
        self.total_time: Dict[str, float] = {}
        self.counts: Dict[str, float] = {}
        self.request_id = 0
        self.began = perf_counter()
        self.ended: Optional[float] = None

    # -- spans -------------------------------------------------------------

    def begin(self, name: str) -> None:
        name_id = self._ids.get(name)
        if name_id is None:
            name_id = self._ids[name] = len(self.names)
            self.names.append(name)
        index = len(self._starts)
        parent = self._stack[-1][0] if self._stack else -1
        self._starts.append(0.0)
        self._ends.append(0.0)
        self._name_ids.append(name_id)
        self._parents.append(parent)
        self._requests.append(self.request_id)
        start = perf_counter()
        self._starts[index] = start
        self._stack.append([index, start, 0.0])

    def end(self) -> float:
        finished = perf_counter()
        index, start, covered = self._stack.pop()
        self._ends[index] = finished
        duration = finished - start
        name = self.names[self._name_ids[index]]
        self.self_time[name] = self.self_time.get(name, 0.0) + duration - covered
        self.total_time[name] = self.total_time.get(name, 0.0) + duration
        if self._stack:
            self._stack[-1][2] += duration
        return duration

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(
        self,
        func: Callable[..., Any],
        name: str,
        counter: Optional[Callable[["Tracer", Tuple[Any, ...], Dict[str, Any], Any, float], None]] = None,
    ) -> Callable[..., Any]:
        """``func`` inside a span named ``name``; ``counter`` sees the
        arguments, the result and the span's duration."""

        @functools.wraps(func)
        def traced(*args: Any, **kwargs: Any) -> Any:
            self.begin(name)
            try:
                result = func(*args, **kwargs)
            except BaseException:
                self.end()
                raise
            duration = self.end()
            if counter is not None:
                counter(self, args, kwargs, result, duration)
            return result

        return traced

    # -- results -----------------------------------------------------------

    def stop(self) -> None:
        self.ended = perf_counter()

    @property
    def wall(self) -> float:
        end = self.ended if self.ended is not None else perf_counter()
        return end - self.began

    @property
    def num_spans(self) -> int:
        return len(self._starts)

    def layer_self(self) -> Dict[str, float]:
        """Self seconds per layer (the benchmark's own spans included)."""
        layers: Dict[str, float] = {}
        for name, seconds in self.self_time.items():
            layer = layer_of(name)
            layers[layer] = layers.get(layer, 0.0) + seconds
        return layers

    def write(self, path: str) -> None:
        """One JSON line per span: name, start, end, parent, request."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as handle:
            names = self.names
            for index in range(len(self._starts)):
                handle.write(json.dumps([
                    names[self._name_ids[index]],
                    round(self._starts[index] - self.began, 7),
                    round(self._ends[index] - self.began, 7),
                    self._parents[index],
                    self._requests[index],
                ]) + "\n")


class NullTracer:
    """The untraced run's stand-in: spans and counts cost one call."""

    request_id = 0

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        yield

    def count(self, name: str, amount: float = 1) -> None:
        pass


class Patches:
    """Attributes replaced by :func:`install`, restorable in one call."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any, bool]] = []

    def replace(self, owner: Any, attribute: str, value: Any) -> None:
        own = attribute in vars(owner)
        self._saved.append((owner, attribute, inspect.getattr_static(owner, attribute), own))
        setattr(owner, attribute, value)

    def restore(self) -> None:
        while self._saved:
            owner, attribute, original, own = self._saved.pop()
            if own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)


def _wrap_attribute(
    patches: Patches,
    tracer: Tracer,
    owner: Any,
    attribute: str,
    name: str,
    counter: Any = None,
) -> None:
    raw = inspect.getattr_static(owner, attribute)
    if isinstance(raw, classmethod):
        patches.replace(owner, attribute, classmethod(tracer.wrap(raw.__func__, name, counter)))
    elif isinstance(raw, staticmethod):
        patches.replace(owner, attribute, staticmethod(tracer.wrap(raw.__func__, name, counter)))
    else:
        patches.replace(owner, attribute, tracer.wrap(raw, name, counter))


def _length(value: Any) -> int:
    try:
        return len(value)
    except TypeError:
        return 0


def _count_entries(tracer: Tracer, args: Any, kwargs: Any, result: Any, duration: float) -> None:
    tracer.count("engine.state.entries", _length(args[1]))


def _count_lookups(tracer: Tracer, args: Any, kwargs: Any, result: Any, duration: float) -> None:
    tracer.count("engine.fastpath.lookups", _length(result))


def _count_patch(tracer: Tracer, args: Any, kwargs: Any, result: Any, duration: float) -> None:
    tracer.count("engine.fastpath.patches")


def _count_moved(tracer: Tracer, args: Any, kwargs: Any, result: Any, duration: float) -> None:
    tracer.count("engine.state.clients_moved", int(result or 0))


def _count_checkpoint(tracer: Tracer, args: Any, kwargs: Any, result: Any, duration: float) -> None:
    path = args[0] if args else kwargs.get("path")
    tracer.count("engine.state.checkpoints")
    if isinstance(path, str) and os.path.exists(path):
        tracer.count("engine.state.checkpoint_bytes", os.path.getsize(path))


def _count_chunk(tracer: Tracer, args: Any, kwargs: Any, result: Any, duration: float) -> None:
    tracer.count("engine.shard.chunks")


def _count_event(tracer: Tracer, args: Any, kwargs: Any, result: Any, duration: float) -> None:
    if result is not None:
        tracer.count("serve.protocol.events")


def _count_append(tracer: Tracer, args: Any, kwargs: Any, result: Any, duration: float) -> None:
    tracer.count("serve.wal.appends")
    tracer.count("serve.wal.bytes", _length(args[1]))


def _count_refed(tracer: Tracer, args: Any, kwargs: Any, result: Any, duration: float) -> None:
    tracer.count("serve.daemon.refed_events", int(result or 0))


def install(tracer: Tracer) -> Patches:
    """Wrap every layer boundary the benchmark measures."""
    import repro.cli as rcli
    import repro.core.clustering as clustering
    import repro.engine.fastpath as fastpath
    import repro.engine.shard as shard
    import repro.engine.state as state
    import repro.engine.supervisor as supervisor
    import repro.serve.daemon as daemon
    import repro.serve.protocol as protocol
    import repro.serve.wal as wal
    import repro.weblog.parser as parser

    patches = Patches()

    def wrap(owner: Any, attribute: str, name: str, counter: Any = None) -> None:
        _wrap_attribute(patches, tracer, owner, attribute, name, counter)

    # cli: table loading is shared by every front end.
    wrap(rcli, "load_tables", "cli.load_tables")
    # weblog.parser: the paper path's whole-file parse (the engine path's
    # streaming parse is spanned batch by batch in the benchmark loop).
    wrap(parser, "load_clf", "weblog.parser.load_clf")
    # core.clustering: the paper path.
    wrap(clustering, "cluster_log", "core.clustering.cluster_log")
    # engine.fastpath: table build, lookups, in-place patches.
    wrap(fastpath, "build_lpm_table", "engine.fastpath.build")
    wrap(fastpath.MemoizedLookup, "lookup_many", "engine.fastpath.lookup_many", _count_lookups)
    wrap(fastpath.MemoizedLookup, "apply_delta", "engine.fastpath.apply_delta", _count_patch)
    wrap(fastpath.MemoizedLookup, "clear_memo", "engine.fastpath.clear_memo")
    wrap(fastpath.StrideLpm, "lookup_many", "engine.fastpath.stride_lookup_many")
    wrap(fastpath.StrideLpm, "apply_delta", "engine.fastpath.stride_apply_delta")
    wrap(fastpath.StrideLpm, "verify_patched", "engine.fastpath.verify_patched")
    # engine.state: the fold, merges, snapshots, reclustering, checkpoints.
    wrap(state.ClusterStore, "apply_batch", "engine.state.apply_batch", _count_entries)
    wrap(state.ClusterStore, "merge", "engine.state.merge")
    wrap(state.ClusterStore, "copy", "engine.state.copy")
    wrap(state.ClusterStore, "snapshot", "engine.state.snapshot")
    wrap(state.ClusterStore, "reassign_clients", "engine.state.reassign_clients", _count_moved)
    for module in (shard, daemon):
        wrap(module, "write_checkpoint", "engine.state.write_checkpoint", _count_checkpoint)
    for module in (shard, supervisor, daemon):
        wrap(module, "read_checkpoint", "engine.state.read_checkpoint")
    # engine.shard (+ supervisor): chunk dispatch and engine lifecycle.
    wrap(supervisor.SupervisedEngine, "ingest", "engine.shard.supervised_ingest")
    wrap(supervisor.SupervisedEngine, "checkpoint", "engine.shard.supervised_checkpoint")
    wrap(shard.ShardedClusterEngine, "apply_chunk", "engine.shard.apply_chunk", _count_chunk)
    wrap(shard.ShardedClusterEngine, "snapshot", "engine.shard.snapshot")
    wrap(shard.ShardedClusterEngine, "close", "engine.shard.close")
    wrap(shard.ShardedClusterEngine, "checkpoint", "engine.shard.checkpoint")
    wrap(shard.ShardedClusterEngine, "resume", "engine.shard.resume")
    # serve.protocol: line splitting and event decoding.
    wrap(protocol, "parse_event", "serve.protocol.parse_event", _count_event)
    wrap(daemon, "parse_event", "serve.protocol.parse_event", _count_event)
    wrap(protocol.LineSplitter, "push", "serve.protocol.push")
    wrap(protocol.LineSplitter, "next_line", "serve.protocol.next_line")
    wrap(protocol.LineSplitter, "flush", "serve.protocol.flush")
    # serve.wal: appends, fsyncs, segment lifecycle, recovery reads.
    wrap(wal.WalWriter, "__init__", "serve.wal.open")
    wrap(wal.WalWriter, "append", "serve.wal.append", _count_append)
    wrap(wal.WalWriter, "seal", "serve.wal.seal")
    wrap(wal.WalWriter, "close", "serve.wal.close")
    wrap(wal.WalWriter, "truncate_covered", "serve.wal.truncate_covered")
    wrap(wal.WalWriter, "resume", "serve.wal.resume")
    wrap(daemon, "recover_wal", "serve.wal.recover_wal")
    # serve.daemon: the event loop's public surface.
    for method in ("__init__", "submit", "pump", "finish", "abort", "attach_wal",
                   "checkpoint_now", "snapshot"):
        wrap(daemon.ServeDaemon, method, f"serve.daemon.{method.strip('_')}")
    wrap(daemon.ServeDaemon, "recover", "serve.daemon.recover", _count_refed)
    return patches
