"""Seeded input generation for the benchmark workloads.

Every input is derived from the workload seed and written to files
before any timing starts; the measured program only ever sees those
files (CLF text, routing-table dumps, an ndjson event stream).  The
same seed writes byte-identical files.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from typing import Any, Dict, List, Optional

from repro.bgp.synth import SnapshotFactory
from repro.bgp.synth_cli import main as synth_main
from repro.net.ipv4 import parse_ipv4
from repro.simnet.topology import TopologyConfig, generate_topology
from repro.weblog.entry import LogEntry
from repro.weblog.presets import make_log
from repro.weblog.synth import NAGANO_EPOCH
from repro.weblog.writer import save_log

__all__ = ["WORKLOADS", "MEMO_BOUND", "generate", "input_shape"]

#: ``--memo-size`` for every workload: the CI serve-smoke value.
MEMO_BOUND = 65536

#: Bumped whenever generation changes, so cached inputs are rebuilt.
GENERATOR_VERSION = 5

#: Per-workload configuration.  A wide-client log over two shm shards
#: (``log_wide``) was dropped: its passes were too long for the pace
#: yardstick to track a shared host, and its figures stayed too noisy
#: for any bound (see README.md).
WORKLOADS: Dict[str, Dict[str, Any]] = {
    "log_repeat": {
        "why": (
            "paper server-log shape (~65 requests per client, clients far under "
            "the memo bound): CLF parsing and the per-entry store fold dominate"
        ),
        "kind": "log",
        "nagano_scale": 0.15,
        "shards": 1,
    },
    "serve_churn": {
        "why": (
            "live daemon with WAL on under route churn: protocol parsing, WAL "
            "append/fsync, in-place patching and reclustering, then crash "
            "recovery"
        ),
        "kind": "serve",
        "stream_events": 30_000,
        "delta_every": 250,
        "offered_rate": 7000.0,
    },
}


def _write_dumps(factory: SnapshotFactory, directory: str) -> List[str]:
    """One dump file per routing source (all fourteen, like §3.1)."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for table in factory.snapshots_all_sources():
        path = os.path.join(directory, f"{table.name}.dump")
        with open(path, "w") as handle:
            for line in table.to_lines():
                handle.write(line + "\n")
        paths.append(path)
    return paths


def _write_stream_clf(stream_path: str, clf_path: str) -> None:
    """The stream's requests as CLF text, for the paper-path baseline."""
    with open(stream_path) as source, open(clf_path, "w") as sink:
        for position, line in enumerate(source):
            event = json.loads(line)
            if event["type"] != "log":
                continue
            entry = LogEntry(
                client=parse_ipv4(event["client"]),
                timestamp=NAGANO_EPOCH + position,
                url=event["url"],
                size=int(event["size"]),
            )
            sink.write(entry.to_clf() + "\n")


def generate(
    workload: str,
    seed: int,
    directory: str,
    overrides: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Write ``workload``'s inputs for ``seed`` into ``directory``.

    Returns the manifest (also saved as ``manifest.json``): input file
    paths relative to ``directory`` plus the workload configuration.
    ``overrides`` replaces configuration entries (the benchmark's own
    tests shrink the inputs with it).
    """
    config = dict(WORKLOADS[workload], **(overrides or {}))
    os.makedirs(directory, exist_ok=True)
    topology = generate_topology(TopologyConfig(seed=seed))
    manifest: Dict[str, Any] = {
        "workload": workload,
        "seed": seed,
        "generator_version": GENERATOR_VERSION,
        "config": config,
    }
    if config["kind"] == "log":
        dumps = _write_dumps(SnapshotFactory(topology), os.path.join(directory, "dumps"))
        log = make_log(topology, "nagano", scale=config["nagano_scale"], seed=seed).log
        save_log(log, os.path.join(directory, "access.log"))
        manifest["dumps"] = [os.path.relpath(p, directory) for p in dumps]
        manifest["clf"] = "access.log"
    else:
        dumps_dir = os.path.join(directory, "dumps")
        stream = os.path.join(directory, "stream.ndjson")
        with open(stream, "w") as handle, contextlib.redirect_stdout(handle), \
                contextlib.redirect_stderr(io.StringIO()):
            code = synth_main([
                "--stream", str(config["stream_events"]),
                "--delta-every", str(config["delta_every"]),
                "--seed", str(seed),
                "--write-tables", dumps_dir,
            ])
        if code != 0:
            raise RuntimeError(f"stream generation failed with exit code {code}")
        _write_stream_clf(stream, os.path.join(directory, "access.log"))
        manifest["dumps"] = [os.path.join("dumps", "AADS.dump")]
        manifest["stream"] = "stream.ndjson"
        manifest["clf"] = "access.log"
    manifest["shape"] = input_shape(workload, directory, manifest)
    with open(os.path.join(directory, "manifest.json"), "w") as handle:
        json.dump(manifest, handle, indent=1, sort_keys=True)
    return manifest


def input_shape(workload: str, directory: str, manifest: Dict[str, Any]) -> Dict[str, Any]:
    """Requests, distinct clients and the ratios that steer the cache
    and the fold, each ratio with its base."""
    config = manifest["config"]
    clients: Dict[str, int] = {}
    with open(os.path.join(directory, manifest["clf"])) as handle:
        for line in handle:
            host = line.split(" ", 1)[0]
            clients[host] = clients.get(host, 0) + 1
    requests = sum(clients.values())
    distinct = len(clients)
    deltas = 0
    events = requests
    if "stream" in manifest:
        with open(os.path.join(directory, manifest["stream"])) as handle:
            events = 0
            for line in handle:
                events += 1
                if '"type": "log"' not in line:
                    deltas += 1
    return {
        "requests": requests,
        "distinct_clients": distinct,
        "requests_per_client": {"value": requests / distinct, "base": "distinct_clients"},
        "clients_per_memo_bound": {"value": distinct / MEMO_BOUND, "base": f"memo bound {MEMO_BOUND}"},
        "events": events,
        "deltas": deltas,
        "offered_rate": (
            {"value": config["offered_rate"], "unit": "ev/s", "base": "phase A open loop"}
            if config["kind"] == "serve"
            else {"value": None, "unit": "req/s", "base": "closed loop, as fast as the program reads"}
        ),
        "why": config["why"],
    }
