"""The repository benchmark: one command, one workload per run.

Run from the repository root::

    python3 perfbench/run.py --workload log_repeat --seed 1 --seconds 20 --trace 0

It generates the workload's inputs from ``--seed`` (cached under
``.perfbench/inputs/``), starts ``perfbench.measure`` in a process of
its own to run and check the workload, prints a readable report, and
prints as its last line one JSON object::

    {"correct": true, "attempted": N, "failed": N, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the
workload with spans around every layer boundary and reports the
per-layer metrics (spans are written to ``.perfbench/spans-W.jsonl``).
A failed output check prints ``correct: false`` with no metric and
exits 1.  Without the program's sources (``src/repro``) next to this
directory the command exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

#: End-to-end metrics and their units, in report order.
END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "paper_requests_per_s": "req/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "recover_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics reported with ``--trace 1``, and their units.
#: Stage times that are zero on some workload by construction (a layer
#: that workload never calls) are listed as ``*_share`` of the traced
#: wall time; the seconds are in the readable report.
PER_LAYER = {
    "trace.wall_s": "s",
    "cli.load_tables_s": "s",
    "weblog.parser.busy_s": "s",
    "weblog.parser.lines": "count",
    "weblog.parser.rejected_frac": "ratio",
    "core.clustering.busy_s": "s",
    "engine.state.fold_self_share": "ratio",
    "engine.state.merge_self_share": "ratio",
    "engine.state.entries": "count",
    "engine.state.snapshot_s": "s",
    "engine.state.reassign_self_share": "ratio",
    "engine.state.clients_moved": "count",
    "engine.state.checkpoint_write_s": "s",
    "engine.state.checkpoints": "count",
    "engine.state.checkpoint_mb": "MB",
    "engine.state.checkpoint_read_s": "s",
    "engine.fastpath.lookup_busy_share": "ratio",
    "engine.fastpath.lookups": "count",
    "engine.fastpath.memo_hit_frac": "ratio",
    "engine.fastpath.patch_busy_share": "ratio",
    "engine.fastpath.patches": "count",
    "engine.fastpath.build_s": "s",
    "engine.shard.ingest_busy_share": "ratio",
    "engine.shard.chunks": "count",
    "engine.shard.close_share": "ratio",
    "serve.protocol.busy_share": "ratio",
    "serve.protocol.events": "count",
    "serve.wal.append_busy_share": "ratio",
    "serve.wal.appends": "count",
    "serve.wal.syncs": "count",
    "serve.wal.mb": "MB",
    "serve.wal.recover_read_share": "ratio",
    "serve.daemon.self_share": "ratio",
    "serve.daemon.busy_frac": "ratio",
    "serve.daemon.patch_fallbacks": "count",
    "serve.daemon.refed_events": "count",
    "trace.coverage_frac": "ratio",
    "trace.bench_frac": "ratio",
    "trace.overhead_frac": "ratio",
}


def _fail(message: str, code: int = 2) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def ensure_inputs(workload: str, seed: int) -> str:
    """Generate (or reuse) the seeded inputs; returns their directory."""
    from perfbench import inputs

    directory = os.path.join(WORK, "inputs", f"{workload}-seed{seed}-v{inputs.GENERATOR_VERSION}")
    manifest = os.path.join(directory, "manifest.json")
    if os.path.exists(manifest):
        return directory
    partial = directory + ".partial"
    shutil.rmtree(partial, ignore_errors=True)
    inputs.generate(workload, seed, partial)
    shutil.rmtree(directory, ignore_errors=True)
    os.replace(partial, directory)
    return directory


def measure(workload: str, directory: str, seconds: float, trace: bool) -> Dict[str, Any]:
    """Run ``perfbench.measure`` in its own process; returns its record."""
    out = os.path.join(WORK, f"result-{workload}-{os.getpid()}.json")
    scratch = os.path.join(WORK, f"scratch-{workload}-{os.getpid()}")
    command = [
        sys.executable, "-m", "perfbench.measure",
        "--workload", workload,
        "--inputs", directory,
        "--scratch", scratch,
        "--seconds", str(seconds),
        "--trace", "1" if trace else "0",
        "--out", out,
    ]
    if trace:
        command += ["--spans", os.path.join(WORK, f"spans-{workload}.jsonl")]
    environment = dict(os.environ)
    environment["PYTHONPATH"] = os.pathsep.join(
        [ROOT, SRC] + ([environment["PYTHONPATH"]] if environment.get("PYTHONPATH") else [])
    )
    try:
        completed = subprocess.run(command, cwd=ROOT, env=environment, stdout=subprocess.PIPE, timeout=170)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    sys.stdout.write(completed.stdout.decode(errors="replace"))
    if not os.path.exists(out):
        raise RuntimeError(f"measurement process exited {completed.returncode} without a result")
    with open(out) as handle:
        record: Dict[str, Any] = json.load(handle)
    os.unlink(out)
    return record


def _format(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def report(workload: str, seed: int, manifest: Dict[str, Any], record: Dict[str, Any]) -> None:
    """The readable part of the output, before the JSON line."""
    shape = manifest["shape"]
    print(f"workload {workload} (seed {seed}): {shape['why']}")
    rate = shape["offered_rate"]
    print(
        "input: "
        f"{shape['requests']:,} requests, {shape['distinct_clients']:,} distinct clients, "
        f"{shape['requests_per_client']['value']:.3g} requests per client (base: distinct clients), "
        f"{shape['clients_per_memo_bound']['value']:.3g} distinct clients per memo slot "
        f"(base: {shape['clients_per_memo_bound']['base']}), "
        f"{shape['events']:,} events, {shape['deltas']:,} route deltas, "
        "offered rate " + (f"{rate['value']:,.0f} {rate['unit']} ({rate['base']})" if rate["value"] else rate["base"])
    )
    units = PER_LAYER if record["traced"] else END_TO_END
    for name, value in record["metrics"].items():
        print(f"  {name} = {_format(value)} {units.get(name, '')}".rstrip())
    attempted = record["attempted"]
    failed = record["failed"]
    print(f"  failed_frac = {failed / attempted if attempted else 0.0:.6g} ratio ({failed} failed of {attempted} offered)")
    for name, value in sorted(record["extra"].items()):
        print(f"  [{name}] {_format(value)}")
    if record["absent_counters"]:
        print("  absent program counters: " + ", ".join(record["absent_counters"]))
    if record["error"]:
        print(f"output check failed: {record['error']}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        return _fail(f"no program sources at {SRC}/repro; run from a full checkout")
    sys.path[:0] = [ROOT, SRC]
    from perfbench.inputs import WORKLOADS

    if args.workload not in WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    if args.seconds <= 0:
        return _fail("--seconds must be positive")
    directory = ensure_inputs(args.workload, args.seed)
    with open(os.path.join(directory, "manifest.json")) as handle:
        manifest = json.load(handle)
    record = measure(args.workload, directory, args.seconds, bool(args.trace))
    report(args.workload, args.seed, manifest, record)
    result = result_line(record)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def result_line(record: Dict[str, Any]) -> Dict[str, Any]:
    """The closing JSON object: every metric of the run's kind with its
    unit, or no metric at all when a check failed or one is missing."""
    wanted = PER_LAYER if record["traced"] else END_TO_END
    metrics = {
        name: {"value": record["metrics"][name], "unit": unit}
        for name, unit in wanted.items()
        if isinstance(record["metrics"].get(name), (int, float))
    }
    correct = bool(record["correct"]) and len(metrics) == len(wanted)
    if record["correct"] and not correct:
        missing = sorted(set(wanted) - set(metrics))
        print(f"metrics missing from the run: {', '.join(missing)}")
    return {
        "correct": correct,
        "attempted": max(1, int(record["attempted"])),
        "failed": int(record["failed"]),
        "metrics": metrics if correct else {},
    }


if __name__ == "__main__":
    sys.exit(main())
