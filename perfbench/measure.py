"""The measured half of a benchmark run: one workload in one process.

``python -m perfbench.measure --workload W --inputs DIR --scratch DIR
--seconds S --trace 0|1 --out result.json`` runs workload ``W`` over
the generated files in ``DIR`` through the same public entry points the
command-line tools call, checks the outputs, and writes every figure to
``result.json``.  :mod:`perfbench.run` generates the inputs, starts this
process and prints the result; this process runs nothing but the
workload, so its peak resident set is the workload's.

The log workload (``log_repeat``) mirrors ``repro-engine``:
``iter_clf_entries`` over the CLF text in ``--chunk-size`` batches into
a supervised ``ShardedClusterEngine`` and one ``snapshot``, interleaved
with the paper path (``load_clf`` + ``cluster_log``, ``repro-cluster``'s
default) on the same file.  ``serve_churn`` mirrors ``repro-engine
serve --stdin``: ``parse_event`` → ``ServeDaemon.submit`` → ``pump``
whenever the ingress holds a batch, in rounds of three phases (open
loop, a saturating feed ending in a crash-consistent ``abort``,
recovery).

A failed output check raises :class:`OutputMismatch`; the run then
records no number.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from array import array
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

import repro.cli as rcli
import repro.core.clustering as clustering
import repro.engine.fastpath as fastpath
import repro.serve.protocol as protocol
import repro.weblog.parser as parser
from repro.engine.metrics import EngineMetrics
from repro.engine.shard import EngineConfig, ShardedClusterEngine
from repro.engine.supervisor import SupervisedEngine, SupervisorConfig
from repro.errors import SanitizeError, ServeProtocolError
from repro.serve.daemon import ServeConfig, ServeDaemon

from perfbench import tracing
from perfbench.inputs import MEMO_BOUND, WORKLOADS
from perfbench.pace import FixedPace, Pace

__all__ = ["OutputMismatch", "signature_digest", "run", "main"]

#: ``--lpm`` for every workload.
LPM_KIND = "stride"
#: ``repro-engine``'s default ``--chunk-size``.
CHUNK_SIZE = 8192
#: Set-ups per log run, one per round (``setup_s`` is their median).
SETUP_REPEATS = 5
#: Engine restores per log round (``recover_s`` is their median).
RESTORES_PER_ROUND = 3
#: A run measures at least this many rounds, however long they take.
#: The traced run measures exactly this many, so its counts repeat.
MIN_ROUNDS = 3
#: Latency samples kept per engine pass and per open-loop phase.
#: Preallocated, so the benchmark's own memory does not grow with the
#: program's speed.
LATENCY_CAPACITY = 1 << 18
#: Per serve round: saturating passes, recoveries (each from a copy of
#: the last pass's files) and paper-path passes.
SATURATING_PASSES_PER_ROUND = 5
RECOVERIES_PER_ROUND = 3
PAPER_PASSES_PER_ROUND = 3

#: The CI serve-smoke flags: ``--batch-size 4096 --checkpoint-every
#: 25000 --wal --wal-sync-every 512 --shed-watermark 200000``.
SERVE_BATCH = 4096
SERVE_CHECKPOINT_EVERY = 25000
SERVE_WAL_SYNC_EVERY = 512
SERVE_SHED_WATERMARK = 200000
#: ``repro-engine serve``'s stdin read size.
SERVE_READ_BYTES = 1 << 16


class OutputMismatch(Exception):
    """The program's output failed a benchmark check."""


def signature_digest(cluster_set: Any) -> str:
    """Digest of the cluster rows the engine benches compare.

    The rows are the fields of ``benchmarks/test_bench_engine.py``'s
    ``_signature`` — identifier, clients, requests, unique URLs, bytes
    — hashed one cluster at a time in prefix order, so two cluster sets
    have equal digests exactly when their signatures are equal.
    """
    digest = hashlib.sha256()
    for cluster in sorted(cluster_set.clusters, key=lambda c: c.identifier.sort_key()):
        row = (
            cluster.identifier.cidr,
            tuple(sorted(cluster.clients)),
            cluster.requests,
            cluster.unique_urls,
            cluster.total_bytes,
        )
        digest.update(repr(row).encode())
    return digest.hexdigest()


class Samples:
    """A fixed-capacity sample buffer; samples past capacity are dropped."""

    def __init__(self, capacity: int) -> None:
        self._values = array("d", bytes(8 * capacity))
        self._capacity = capacity
        self.kept = 0

    def add(self, value: float) -> None:
        if self.kept < self._capacity:
            self._values[self.kept] = value
            self.kept += 1

    def reset(self) -> None:
        self.kept = 0

    def quantiles(self, *qs: float) -> List[Optional[float]]:
        if not self.kept:
            return [None for _ in qs]
        data = sorted(self._values[: self.kept])
        return [_interpolate(data, q) for q in qs]


def _interpolate(data: List[float], q: float) -> float:
    position = q * (len(data) - 1)
    low = int(position)
    high = min(low + 1, len(data) - 1)
    return data[low] + (data[high] - data[low]) * (position - low)


def _median(values: Iterable[float]) -> Optional[float]:
    values = list(values)
    return statistics.median(values) if values else None


def read_counter(metrics: Any, key: str) -> Optional[float]:
    """One program counter from ``EngineMetrics.snapshot()``, or None
    when the counter (or the snapshot) is missing or renamed."""
    snapshot = getattr(metrics, "snapshot", None)
    if snapshot is None:
        return None
    value = snapshot().get(key)
    if isinstance(value, (int, float)):
        return float(value)
    return None


class Run:
    """Shared state of one measured run."""

    def __init__(
        self,
        inputs: str,
        scratch: str,
        seconds: float,
        traced: bool,
        spans_path: Optional[str] = None,
    ) -> None:
        with open(os.path.join(inputs, "manifest.json")) as handle:
            self.manifest = json.load(handle)
        self.config = self.manifest["config"]
        self.inputs = inputs
        self.scratch = scratch
        self.seconds = seconds
        self.traced = traced
        self.spans_path = spans_path
        self.trace: Any = tracing.NullTracer()
        self.tracer: Optional[tracing.Tracer] = None
        self.patches: Optional[tracing.Patches] = None
        self.metrics: Dict[str, Any] = {}
        self.extra: Dict[str, Any] = {}
        self.absent: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.setup_samples: List[float] = []
        #: Yardstick timings around every timed section; the traced run
        #: keeps raw times (see :mod:`perfbench.pace`).
        self.pace: Any = FixedPace() if traced else Pace()
        self.memo_hits = 0.0
        self.memo_misses = 0.0

    def path(self, key: str) -> str:
        return os.path.join(self.inputs, self.manifest[key])

    def dumps(self) -> List[str]:
        return [os.path.join(self.inputs, dump) for dump in self.manifest["dumps"]]

    def fresh_dir(self, tag: str) -> str:
        directory = os.path.join(self.scratch, tag)
        shutil.rmtree(directory, ignore_errors=True)
        os.makedirs(directory)
        return directory

    def counter(self, metrics: Any, key: str) -> float:
        value = read_counter(metrics, key)
        if value is None:
            if key not in self.absent:
                self.absent.append(key)
            return 0.0
        return value

    def drain_memo(self, metrics: Any) -> None:
        self.memo_hits += self.counter(metrics, "memo_hits")
        self.memo_misses += self.counter(metrics, "memo_misses")

    # -- tracing -----------------------------------------------------------

    def start_trace(self) -> None:
        self.tracer = tracing.Tracer()
        self.trace = self.tracer
        self.patches = tracing.install(self.tracer)

    def stop_trace(self) -> None:
        if self.patches is not None:
            self.patches.restore()
            self.patches = None
        if self.tracer is not None:
            self.tracer.stop()
        self.trace = tracing.NullTracer()


def _stamped(lines: Iterable[str], stamps: List[float]) -> Iterator[str]:
    """``lines``, noting when each one was read."""
    for line in lines:
        stamps.append(perf_counter())
        yield line


def _settle(run: "Run") -> None:
    """Collect garbage before a timed section, so each one starts from
    the same heap instead of paying for its predecessor's leftovers."""
    with run.trace.span("bench.settle"):
        gc.collect()


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise OutputMismatch(message)


def _verify_patched(table: Any, what: str) -> None:
    try:
        table.verify_patched()
    except SanitizeError as exc:
        raise OutputMismatch(f"{what}: patched table differs from a rebuild ({exc})") from exc


# -- log workloads ------------------------------------------------------------


def run_log(run: Run) -> None:
    shards = int(run.config["shards"])
    dumps = run.dumps()
    clf = run.path("clf")
    trace = lambda: run.trace  # noqa: E731 - the tracer changes mid-run

    def engine_config() -> EngineConfig:
        return EngineConfig(num_shards=shards, chunk_size=CHUNK_SIZE, name=clf)

    def make_engine(table: Any) -> SupervisedEngine:
        engine = ShardedClusterEngine(table, engine_config(), EngineMetrics(shards))
        return SupervisedEngine(engine, SupervisorConfig())

    def setup() -> Tuple[Any, Any]:
        with trace().span("bench.setup"):
            began = perf_counter()
            merged = rcli.load_tables(dumps)
            table = fastpath.build_lpm_table(LPM_KIND, merged, MEMO_BOUND)
            engine = make_engine(table)
            elapsed = perf_counter() - began
            engine.close()
        run.setup_samples.append(elapsed / run.pace.scale())
        return merged, table

    def engine_pass(table: Any, latency: Optional[Samples]) -> Tuple[SupervisedEngine, Any, Any, float]:
        """``repro-engine``'s ingest loop, file open to ``ClusterSet``."""
        table.clear_memo()
        engine = make_engine(table)
        try:
            return timed_pass(engine, latency)
        except BaseException:
            engine.close()
            raise

    def timed_pass(engine: SupervisedEngine, latency: Optional[Samples]) -> Tuple[SupervisedEngine, Any, Any, float]:
        report = parser.ParseReport()
        stamps: List[float] = []
        with trace().span("bench.engine_pass"):
            began = perf_counter()
            with open(clf) as handle:
                lines: Iterable[str] = handle if latency is None else _stamped(handle, stamps)
                entries = parser.iter_clf_entries(lines, report)
                while True:
                    trace().request_id += 1
                    with trace().span("weblog.parser.iter_clf_entries"):
                        batch = []
                        for entry in entries:
                            batch.append(entry)
                            if len(batch) >= CHUNK_SIZE:
                                break
                    if not batch:
                        break
                    engine.ingest(batch)
                    if latency is not None:
                        done = perf_counter()
                        for stamp in stamps:
                            latency.add(done - stamp)
                        stamps.clear()
                clusters = engine.snapshot()
            wall = perf_counter() - began
        return engine, clusters, report, wall

    def paper_pass(merged: Any) -> Tuple[Any, int, float]:
        """``repro-cluster``'s default path on the same file."""
        with trace().span("bench.paper_pass"):
            began = perf_counter()
            with open(clf) as handle:
                log = parser.load_clf(clf, handle)
            clusters = clustering.cluster_log(log, merged)
            wall = perf_counter() - began
        return clusters, len(log.entries), wall

    def reference_pass(table: Any) -> float:
        """One untraced engine pass, for the tracing overhead."""
        _settle(run)
        engine, _, _, wall = engine_pass(table, None)
        engine.close()
        return wall

    reference_walls: List[float] = []
    if run.traced:
        merged, table = setup()
        reference_walls.append(reference_pass(table))
        merged = table = None
        run.setup_samples.clear()
        run.start_trace()

    def restore(table: Any, check: bool) -> float:
        """``repro-engine --resume``'s restore, until ready for input."""
        _settle(run)
        with trace().span("bench.recover"):
            began = perf_counter()
            resumed = ShardedClusterEngine.resume(checkpoint, table, engine_config(), EngineMetrics(shards))
            elapsed = perf_counter() - began
            try:
                if check:
                    with trace().span("bench.check"):
                        _check(
                            signature_digest(resumed.snapshot()) == reference,
                            "engine restored from its checkpoint lost clusters",
                        )
            finally:
                resumed.close()
        return elapsed

    # Every kind of sample is taken in every round, so each figure sees
    # the same mix of machine states over the run.
    _settle(run)
    merged, table = setup()
    latency = None if run.traced else Samples(LATENCY_CAPACITY)
    pass_p50: List[float] = []
    pass_p99: List[float] = []
    checkpoint = os.path.join(run.fresh_dir("engine"), "engine.ckpt")
    engine_rates: List[float] = []
    engine_walls: List[float] = []
    paper_rates: List[float] = []
    recover_samples: List[float] = []
    reference: Optional[str] = None
    lines = rejected = quarantined = 0.0
    paper_entries = 0
    deadline = perf_counter() + run.seconds
    rounds = 0
    while rounds < MIN_ROUNDS or (not run.traced and perf_counter() < deadline):
        order = ("engine", "paper") if rounds % 2 == 0 else ("paper", "engine")
        for which in order:
            clusters = engine = None
            _settle(run)
            if which == "paper":
                clusters, requests, wall = paper_pass(merged)
                paper_rates.append(requests / wall * run.pace.scale())
                paper_entries += requests
                with trace().span("bench.check"):
                    digest = signature_digest(clusters)
                    reference = reference or digest
                    _check(digest == reference, "engine path clusters differ from the paper path's (cluster_log)")
                continue
            engine, clusters, report, wall = engine_pass(table, latency)
            scale = run.pace.scale()
            if latency is not None:
                p50, p99 = latency.quantiles(0.50, 0.99)
                pass_p50.append(p50 * 1e3 / scale)
                pass_p99.append(p99 * 1e3 / scale)
                latency.reset()
            try:
                engine_rates.append(report.parsed / wall * scale)
                engine_walls.append(wall)
                with trace().span("bench.check"):
                    digest = signature_digest(clusters)
                    reference = reference or digest
                    _check(digest == reference, "engine path clusters differ from the paper path's (cluster_log)")
                if rounds == 0:
                    engine.checkpoint(checkpoint, extra_meta={"log": clf, "log_entries": report.parsed})
                lines += report.total_lines
                rejected += report.malformed + report.null_client
                quarantined += run.counter(engine.metrics, "entries_quarantined")
            finally:
                engine.close()
            run.drain_memo(engine.metrics)
        clusters = engine = None
        restores = [restore(table, rounds == 0 and attempt == 0) for attempt in range(RESTORES_PER_ROUND)]
        scale = run.pace.scale()
        recover_samples.extend(elapsed / scale for elapsed in restores)
        if len(run.setup_samples) < SETUP_REPEATS:
            merged = table = None
            _settle(run)
            merged, table = setup()
        rounds += 1

    run.attempted += int(lines)
    run.failed += int(rejected + quarantined)
    run.metrics["setup_s"] = _median(run.setup_samples)
    run.metrics["throughput_per_s"] = _median(engine_rates)
    run.metrics["paper_requests_per_s"] = _median(paper_rates)
    run.metrics["recover_s"] = _median(recover_samples)
    run.extra.update({
        "rounds": rounds,
        "engine_passes": len(engine_rates),
        "paper_passes": len(paper_rates),
        "requests_per_pass": int(lines / max(1, len(engine_rates))),
        "engine_rates": [round(rate) for rate in engine_rates],
        "paper_rates": [round(rate) for rate in paper_rates],
        "recover_samples_ms": [round(sample * 1e3, 2) for sample in recover_samples],
        "setup_samples_s": [round(sample, 3) for sample in run.setup_samples],
        "setups": len(run.setup_samples),
        "recoveries": len(recover_samples),
        "yardstick_ms": [round(timing * 1e3, 1) for timing in run.pace.timings],
        # The roadmap's target is stated as this ratio (base: the paper path).
        "throughput_vs_paper": _median(engine_rates) / _median(paper_rates),
    })
    if latency is not None:
        # Per-pass percentiles, then their median.
        run.metrics["latency_p50_ms"] = _median(pass_p50)
        run.metrics["latency_p99_ms"] = _median(pass_p99)
        run.extra["latency_p50_ms_per_pass"] = [round(value, 2) for value in pass_p50]
        run.extra["latency_p99_ms_per_pass"] = [round(value, 2) for value in pass_p99]

    if run.tracer is not None:
        tracer = run.tracer
        run.stop_trace()
        layers = _layer_metrics(run, tracer)
        layers["weblog.parser.lines"] = lines + paper_entries
        layers["weblog.parser.rejected_frac"] = rejected / lines if lines else 0.0
        reference_walls.append(reference_pass(table))
        layers["trace.overhead_frac"] = _median(engine_walls) / _median(reference_walls) - 1.0
        run.metrics = layers


# -- serve workload -------------------------------------------------------------


def run_serve(run: Run) -> None:
    dumps = run.dumps()
    stream = run.path("stream")
    clf = run.path("clf")
    rate = float(run.config["offered_rate"])
    trace = lambda: run.trace  # noqa: E731 - the tracer changes mid-run
    with open(stream) as handle:
        offered = handle.readlines()
    total_events = len(offered)

    def daemon_config(directory: str) -> ServeConfig:
        return ServeConfig(
            name="stdin",
            batch_size=SERVE_BATCH,
            checkpoint_path=os.path.join(directory, "serve.ckpt"),
            checkpoint_every=SERVE_CHECKPOINT_EVERY,
            wal_dir=os.path.join(directory, "wal"),
            wal_sync_every=SERVE_WAL_SYNC_EVERY,
            shed_watermark=SERVE_SHED_WATERMARK,
        )

    def load_table() -> Tuple[Any, Any]:
        merged = rcli.load_tables(dumps)
        return merged, fastpath.build_lpm_table(LPM_KIND, merged, MEMO_BOUND)

    def setup(tag: str) -> Tuple[Any, ServeDaemon, str]:
        directory = run.fresh_dir(tag)
        with trace().span("bench.setup"):
            began = perf_counter()
            merged, table = load_table()
            daemon = ServeDaemon(table, daemon_config(directory), EngineMetrics(1))
            daemon.attach_wal()
            elapsed = perf_counter() - began
        run.setup_samples.append(elapsed / run.pace.scale())
        return merged, daemon, directory

    counts = {"shed": 0, "rejected": 0, "offered": 0}
    counters = {"fallbacks": 0.0, "wal_syncs": 0.0}

    def consume(daemon: ServeDaemon, line: str) -> Tuple[Any, bool]:
        """``serve_main``'s per-line step; returns the event and whether
        the daemon accepted it."""
        counts["offered"] += 1
        try:
            event = protocol.parse_event(line)
        except ServeProtocolError:
            counts["rejected"] += 1
            return None, False
        if event is None:
            return None, False
        accepted = daemon.submit(event)
        if not accepted:
            counts["shed"] += 1
        if daemon.ingress_depth >= SERVE_BATCH:
            daemon.pump()
        return event, accepted

    def phase_b(tag: str) -> Tuple[float, Any, int]:
        """A saturating feed, read like ``--stdin < file``; ends in a
        crash-consistent stop with every event in the WAL.  Returns the
        pass's time at the reference pace."""
        _settle(run)
        merged, daemon, _ = setup(tag)
        accepted = 0
        with trace().span("bench.phase_b"):
            began = perf_counter()
            splitter = protocol.LineSplitter(protocol.DEFAULT_MAX_LINE_BYTES)
            descriptor = os.open(stream, os.O_RDONLY)
            try:
                while True:
                    chunk = os.read(descriptor, SERVE_READ_BYTES)
                    if not chunk:
                        break
                    splitter.push(chunk)
                    while True:
                        trace().request_id += 1
                        try:
                            line = splitter.next_line()
                        except ServeProtocolError:
                            counts["offered"] += 1
                            counts["rejected"] += 1
                            continue
                        if line is None:
                            break
                        accepted += consume(daemon, line)[1]
                tail = splitter.flush()
                if tail is not None:
                    accepted += consume(daemon, tail)[1]
                daemon.pump()
                daemon.abort()
            finally:
                os.close(descriptor)
            wall = perf_counter() - began
        wall /= run.pace.scale()
        run.drain_memo(daemon.metrics)
        counters["fallbacks"] += run.counter(daemon.metrics, "patch_rebuild_fallbacks")
        counters["wal_syncs"] += run.counter(daemon.metrics, "wal_syncs")
        return wall, merged, accepted

    reference_walls: List[float] = []
    if run.traced:
        # Untraced saturating passes before and after the traced part,
        # for the tracing overhead.
        reference_walls.append(phase_b("reference")[0])
        run.setup_samples.clear()
        counts.update(shed=0, rejected=0, offered=0)
        counters.update(fallbacks=0.0, wal_syncs=0.0)
        run.memo_hits = run.memo_misses = 0.0
        run.start_trace()

    event_latency = Samples(LATENCY_CAPACITY)
    delta_latency = Samples(total_events)
    late = Samples(total_events)
    phase_a_figures: Dict[str, List[float]] = {"p50": [], "p99": [], "d50": [], "d99": [], "late99": []}
    phase_a_time = {"wall": 0.0, "busy": 0.0}

    def phase_a() -> Tuple[str, int]:
        """Open loop at a fixed offered rate, one thread, as the daemon's
        stdin loop would see a producer writing on schedule.  Returns the
        final clusters' digest and the number of accepted requests."""
        _settle(run)
        _, daemon, _ = setup("phase-a")
        for samples in (event_latency, delta_latency, late):
            samples.reset()
        log_due = array("d")
        delta_due = array("d")
        epoch0 = int(daemon.table.epoch)
        seen = {"logs": 0, "deltas": 0}

        def observe() -> None:
            """Stamp every event whose effect is now visible: a request
            once ``store.entries_applied`` counts it, a delta once the
            table's epoch has advanced past it."""
            now = perf_counter()
            applied = daemon.store.entries_applied
            while seen["logs"] < applied:
                event_latency.add(now - log_due[seen["logs"]])
                seen["logs"] += 1
            advanced = int(daemon.table.epoch) - epoch0
            while seen["deltas"] < min(advanced, len(delta_due)):
                waited = now - delta_due[seen["deltas"]]
                event_latency.add(waited)
                delta_latency.add(waited)
                seen["deltas"] += 1

        with trace().span("bench.phase_a"):
            began = perf_counter() + 0.01
            busy_before = dict(run.tracer.total_time) if run.tracer is not None else {}
            for index, line in enumerate(offered):
                due = began + index / rate
                now = perf_counter()
                if now < due:
                    with trace().span("bench.idle"):
                        time.sleep(due - now)
                    now = perf_counter()
                late.add(now - due)
                trace().request_id = index
                event, accepted = consume(daemon, line)
                if isinstance(event, protocol.LogEvent):
                    if accepted:
                        log_due.append(due)
                elif event is not None:
                    delta_due.append(due)
                observe()
            daemon.finish()
            observe()
            phase_a_time["wall"] += perf_counter() - began
            if run.tracer is not None:
                phase_a_time["busy"] += sum(
                    run.tracer.total_time.get(name, 0.0) - busy_before.get(name, 0.0)
                    for name in ("serve.daemon.submit", "serve.daemon.pump", "serve.daemon.finish")
                )
        # Phase A's latencies stay raw: at a fixed offered rate most of an
        # event's wait is its batch filling up, which the machine's pace
        # does not change.  This yardstick only opens the next section.
        run.pace.scale()
        for key, samples, q in (
            ("p50", event_latency, 0.50), ("p99", event_latency, 0.99),
            ("d50", delta_latency, 0.50), ("d99", delta_latency, 0.99), ("late99", late, 0.99),
        ):
            (value,) = samples.quantiles(q)
            if value is not None:
                phase_a_figures[key].append(value * 1e3)
        accepted_logs = len(log_due)
        with trace().span("bench.check"):
            _check(seen["logs"] == accepted_logs, f"{accepted_logs - seen['logs']} accepted requests never became visible")
            _check(
                seen["deltas"] == len(delta_due),
                f"{len(delta_due) - seen['deltas']} route deltas never advanced the routing epoch",
            )
            digest = signature_digest(daemon.snapshot())
            _verify_patched(daemon.table, "phase A")
        run.drain_memo(daemon.metrics)
        counters["fallbacks"] += run.counter(daemon.metrics, "patch_rebuild_fallbacks")
        counters["wal_syncs"] += run.counter(daemon.metrics, "wal_syncs")
        return digest, accepted_logs

    throughput: List[float] = []
    recover_samples: List[float] = []
    paper_rates: List[float] = []
    refed: List[int] = []
    phase_b_walls: List[float] = []
    paper_entries = 0
    reference: Optional[str] = None
    recovered = log = None
    deadline = perf_counter() + run.seconds
    rounds = 0
    while rounds < MIN_ROUNDS or (not run.traced and perf_counter() < deadline):
        digest, accepted_logs = phase_a()
        reference = reference or digest
        _check(digest == reference, "phase A clusters differ from the first phase A's")
        crashed: List[str] = []
        for _ in range(SATURATING_PASSES_PER_ROUND):
            crashed.append(f"phase-b-{len(throughput)}")
            wall, merged, accepted = phase_b(crashed[-1])
            phase_b_walls.append(wall)
            throughput.append(total_events / wall)
        # Recovery: a fresh daemon over the day-0 table adopts the
        # checkpoint and re-feeds the WAL tail the last crashed daemon
        # left, each time from a copy of its files.
        for attempt in range(RECOVERIES_PER_ROUND):
            directory = os.path.join(run.scratch, "recovery")
            shutil.rmtree(directory, ignore_errors=True)
            shutil.copytree(os.path.join(run.scratch, crashed[-1]), directory)
            recovered = log = None
            _, table = load_table()
            _settle(run)
            with trace().span("bench.recover"):
                began = perf_counter()
                recovered = ServeDaemon(table, daemon_config(directory), EngineMetrics(1))
                refed.append(recovered.recover())
                elapsed = perf_counter() - began
            recover_samples.append(elapsed / run.pace.scale())
            if attempt:
                recovered.abort()
            else:
                recovered.finish()
                with trace().span("bench.check"):
                    _check(
                        recovered.events_consumed == accepted,
                        f"recovery restored {recovered.events_consumed} of {accepted} accepted events",
                    )
                    _check(
                        signature_digest(recovered.snapshot()) == reference,
                        "recovered daemon's clusters differ from phase A's",
                    )
                    _verify_patched(recovered.table, "recovery")
            run.drain_memo(recovered.metrics)
            counters["fallbacks"] += run.counter(recovered.metrics, "patch_rebuild_fallbacks")
            counters["wal_syncs"] += run.counter(recovered.metrics, "wal_syncs")
            recovered = table = None
        for tag in crashed + ["recovery"]:
            shutil.rmtree(os.path.join(run.scratch, tag), ignore_errors=True)
        # The paper path over the stream's requests (day-0 table).
        for _ in range(PAPER_PASSES_PER_ROUND):
            log = None
            _settle(run)
            with trace().span("bench.paper_pass"):
                began = perf_counter()
                with open(clf) as handle:
                    log = parser.load_clf(clf, handle)
                clustering.cluster_log(log, merged)
                wall = perf_counter() - began
            paper_rates.append(len(log.entries) / wall * run.pace.scale())
            paper_entries += len(log.entries)
            with trace().span("bench.check"):
                _check(len(log.entries) == accepted_logs, "paper path parsed a different request count")
        rounds += 1

    run.attempted += counts["offered"]
    run.failed += counts["shed"] + counts["rejected"]
    figures = {key: _median(values) for key, values in phase_a_figures.items()}
    run.metrics.update({
        "setup_s": _median(run.setup_samples),
        "throughput_per_s": _median(throughput),
        "paper_requests_per_s": _median(paper_rates),
        "latency_p50_ms": figures["p50"],
        "latency_p99_ms": figures["p99"],
        "recover_s": _median(recover_samples),
    })
    run.extra.update({
        "rounds": rounds,
        "events_per_pass": total_events,
        "latency_samples_per_phase_a": event_latency.kept,
        "delta_samples_per_phase_a": delta_latency.kept,
        "latency_p50_ms_per_phase_a": [round(value, 2) for value in phase_a_figures["p50"]],
        "latency_p99_ms_per_phase_a": [round(value, 2) for value in phase_a_figures["p99"]],
        "delta_p50_ms": figures["d50"],
        "delta_p99_ms": figures["d99"],
        "gen.late_p99_ms": figures["late99"],
        "phase_a_wall_s": phase_a_time["wall"] / rounds,
        "offered_rate": rate,
        "setups": len(run.setup_samples),
        "recoveries": len(recover_samples),
        "refed_events_per_recovery": _median(refed),
        "throughput_samples": [round(rate) for rate in throughput],
        "paper_rates": [round(rate) for rate in paper_rates],
        "recover_samples_ms": [round(sample * 1e3, 2) for sample in recover_samples],
        "yardstick_ms": [round(timing * 1e3, 1) for timing in run.pace.timings],
    })

    if run.tracer is not None:
        tracer = run.tracer
        run.stop_trace()
        layers = _layer_metrics(run, tracer)
        layers["serve.daemon.busy_frac"] = phase_a_time["busy"] / phase_a_time["wall"]
        layers["serve.daemon.patch_fallbacks"] = counters["fallbacks"]
        layers["serve.wal.syncs"] = counters["wal_syncs"]
        layers["weblog.parser.lines"] = float(paper_entries)
        layers["weblog.parser.rejected_frac"] = counts["rejected"] / max(1, counts["offered"])
        layers["gen.late_p99_ms"] = run.extra["gen.late_p99_ms"]
        layers["serve.daemon.delta_p50_ms"] = run.extra["delta_p50_ms"]
        layers["serve.daemon.delta_p99_ms"] = run.extra["delta_p99_ms"]
        reference_walls.append(phase_b("reference-end")[0])
        layers["trace.overhead_frac"] = _median(phase_b_walls) / _median(reference_walls) - 1.0
        run.metrics = layers


# -- per-layer figures ------------------------------------------------------------


def _layer_metrics(run: Run, tracer: tracing.Tracer) -> Dict[str, Any]:
    """Per-layer self times and counts from the traced run."""
    own = tracer.self_time
    total = tracer.total_time
    counts = tracer.counts

    def self_of(*names: str) -> float:
        return sum(own.get(name, 0.0) for name in names)

    def total_of(*names: str) -> float:
        return sum(total.get(name, 0.0) for name in names)

    wall = tracer.wall
    layers = tracer.layer_self()
    hits, misses = run.memo_hits, run.memo_misses
    result: Dict[str, Any] = {
        "cli.load_tables_s": self_of("cli.load_tables"),
        "weblog.parser.busy_s": layers.get("weblog.parser", 0.0),
        "core.clustering.busy_s": layers.get("core.clustering", 0.0),
        "engine.state.fold_self_s": self_of("engine.state.apply_batch"),
        "engine.state.merge_self_s": self_of("engine.state.merge", "engine.state.copy"),
        "engine.state.entries": counts.get("engine.state.entries", 0.0),
        "engine.state.snapshot_s": self_of("engine.state.snapshot"),
        "engine.state.reassign_self_s": self_of("engine.state.reassign_clients"),
        "engine.state.clients_moved": counts.get("engine.state.clients_moved", 0.0),
        "engine.state.checkpoint_write_s": total_of("engine.state.write_checkpoint"),
        "engine.state.checkpoints": counts.get("engine.state.checkpoints", 0.0),
        "engine.state.checkpoint_mb": counts.get("engine.state.checkpoint_bytes", 0.0) / 1e6,
        "engine.state.checkpoint_read_s": total_of("engine.state.read_checkpoint"),
        "engine.fastpath.lookup_busy_s": self_of(
            "engine.fastpath.lookup_many", "engine.fastpath.stride_lookup_many"
        ),
        "engine.fastpath.lookups": counts.get("engine.fastpath.lookups", 0.0),
        "engine.fastpath.memo_hit_frac": hits / (hits + misses) if hits + misses else 0.0,
        "engine.fastpath.patch_busy_s": self_of(
            "engine.fastpath.apply_delta", "engine.fastpath.stride_apply_delta"
        ),
        "engine.fastpath.patches": counts.get("engine.fastpath.patches", 0.0),
        "engine.fastpath.build_s": total_of("engine.fastpath.build"),
        "engine.shard.ingest_busy_s": self_of(
            "engine.shard.supervised_ingest", "engine.shard.apply_chunk",
        ),
        "engine.shard.chunks": counts.get("engine.shard.chunks", 0.0),
        "engine.shard.close_s": total_of("engine.shard.close"),
        "serve.protocol.busy_s": layers.get("serve.protocol", 0.0),
        "serve.protocol.events": counts.get("serve.protocol.events", 0.0),
        "serve.wal.append_busy_s": self_of("serve.wal.append"),
        "serve.wal.appends": counts.get("serve.wal.appends", 0.0),
        "serve.wal.syncs": 0.0,
        "serve.wal.mb": counts.get("serve.wal.bytes", 0.0) / 1e6,
        "serve.wal.recover_read_s": total_of("serve.wal.recover_wal"),
        "serve.daemon.self_s": layers.get("serve.daemon", 0.0),
        "serve.daemon.busy_frac": 0.0,
        "serve.daemon.patch_fallbacks": 0.0,
        "serve.daemon.refed_events": counts.get("serve.daemon.refed_events", 0.0),
        "gen.late_p99_ms": 0.0,
        "trace.coverage_frac": sum(layers.values()) / wall,
        "trace.bench_frac": layers.get(tracing.BENCH, 0.0) / wall,
        "trace.spans": float(tracer.num_spans),
        "trace.wall_s": wall,
    }
    busy = [key for key in result if key.endswith("_s")]
    for name in sorted(set(busy) - {"trace.wall_s"}):
        result[name[: -len("_s")] + "_share"] = result[name] / wall
    for layer, seconds in sorted(layers.items()):
        result[f"{layer}.self_frac"] = seconds / wall
    if run.spans_path:
        tracer.write(run.spans_path)
    return result


# -- entry point ------------------------------------------------------------------


def run(
    workload: str,
    inputs: str,
    scratch: str,
    seconds: float,
    traced: bool,
    spans_path: Optional[str] = None,
) -> Dict[str, Any]:
    """Measure ``workload`` once; returns the result record."""
    state = Run(inputs, scratch, seconds, traced, spans_path)
    os.makedirs(scratch, exist_ok=True)
    measure_workload: Callable[[Run], None] = run_log if state.config["kind"] == "log" else run_serve
    correct = True
    error = None
    try:
        measure_workload(state)
    except OutputMismatch as exc:
        correct = False
        error = str(exc)
    finally:
        state.stop_trace()
        shutil.rmtree(scratch, ignore_errors=True)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if correct and not traced:
        state.metrics["peak_rss_mb"] = peak
    return {
        "workload": workload,
        "traced": traced,
        "correct": correct,
        "error": error,
        "attempted": state.attempted,
        "failed": state.failed,
        "metrics": state.metrics if correct else {},
        "extra": state.extra,
        "absent_counters": state.absent,
        "peak_rss_mb": peak,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser_ = argparse.ArgumentParser(prog="perfbench.measure")
    parser_.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser_.add_argument("--inputs", required=True)
    parser_.add_argument("--scratch", required=True)
    parser_.add_argument("--seconds", type=float, required=True)
    parser_.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser_.add_argument("--spans", default=None)
    parser_.add_argument("--out", required=True)
    args = parser_.parse_args(argv)
    result = run(args.workload, args.inputs, args.scratch, args.seconds, bool(args.trace), args.spans)
    with open(args.out, "w") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
