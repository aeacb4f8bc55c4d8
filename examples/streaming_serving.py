"""Streaming deployment: serve traffic while the base graph evolves.

Every other example freezes the deployed graph at bundle time.  This one
runs the scenario the paper's inductive regime ultimately points at: a
live deployment whose base graph changes *while it serves* — new users
join permanently, edges appear and disappear, features drift.  A
:class:`~repro.graph.stream.GraphDelta` trace (built from the dataset's
inductive batch) is ingested through the runtime between micro-batches.
Each delta updates only what exact serving reads, bit-for-bit what
rebuilding from scratch would produce at a fraction of the cost; the
derived warm caches (the normalized operator, the propagated features)
are dropped and recomputed on their next read.

Run:  python examples/streaming_serving.py
"""

from __future__ import annotations

import numpy as np

from repro import api
from repro.graph.stream import make_delta_trace
from repro.serving import PreparedDeployment, ServeTask, split_requests

DATASET = "pubmed-sim"
NUM_DELTAS = 8
NODES_PER_DELTA = 3
NUM_REQUESTS = 64
INGEST_EVERY = 4  # one delta per this many requests


def main() -> None:
    print(f"offline phase: condensing {DATASET}, deploying the *original* "
          "graph (streaming needs it resident)...")
    bundle = api.deploy(DATASET, method="mcond", budget=30, seed=0,
                        deployment="original", profile="quick")
    print(f"  -> {bundle!r}")

    batch = api.evaluation_batch(bundle)
    reserved = NUM_DELTAS * NODES_PER_DELTA
    trace = make_delta_trace(bundle.base, batch.subset(np.arange(reserved)),
                             num_deltas=NUM_DELTAS,
                             nodes_per_delta=NODES_PER_DELTA,
                             edges_per_delta=4, removals_per_delta=2,
                             updates_per_delta=2, seed=0)
    requests = [ServeTask(request) for request in split_requests(
        batch.subset(np.arange(reserved, batch.num_nodes)), NUM_REQUESTS, 1)]

    runtime = api.open_runtime(bundle, batch_mode="node",
                               max_batch_size=8, max_wait_ms=0.0)
    print(f"\nserving {NUM_REQUESTS} requests, ingesting one delta every "
          f"{INGEST_EVERY} requests ({NUM_DELTAS} deltas total)\n")
    deltas = iter(trace)
    for start in range(0, len(requests), INGEST_EVERY):
        for request in requests[start:start + INGEST_EVERY]:
            runtime.submit(request)
        delta = next(deltas, None)
        if delta is not None:
            future = runtime.ingest(delta)
        runtime.run_pending()
        if delta is not None:
            report = future.result()
            print(f"  delta: +{report.appended} nodes, "
                  f"{report.touched_rows} rows touched, "
                  f"{report.affected_rows} operator rows affected -> "
                  f"{report.mode} refresh in {report.seconds * 1e3:.2f} ms")

    stats = runtime.stats()
    stream = runtime.stream_stats()
    print(f"\nserved {stats.requests} requests at p95 "
          f"{stats.latency_p95 * 1e3:.2f} ms while the base graph grew "
          f"{bundle.base.num_nodes} -> {runtime.prepared.num_base} nodes")
    print(f"refresh modes: {stream['incremental']} incremental, "
          f"{stream['rebuilds']} full rebuilds "
          f"(mean {stream['refresh_mean_ms']:.2f} ms)")

    # the whole point: the evolved cache is bit-identical to starting over
    fresh = PreparedDeployment(bundle.model(), "original",
                               runtime.prepared.base)
    evolved_op = runtime.prepared.base_operator()
    identical = np.array_equal(evolved_op.data, fresh.base_operator().data)
    print(f"evolved operator bitwise equal to a from-scratch prepare(): "
          f"{identical}")


if __name__ == "__main__":
    main()
