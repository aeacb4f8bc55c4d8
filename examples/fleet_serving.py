"""Fleet serving: replicas over one mmap artifact, failover, hot swap.

Where ``online_serving.py`` drives a single in-process runtime, this
walkthrough runs the deployment the way a horizontally-scaled system
would: a :class:`~repro.serving.fleet.ServingFleet` of replica
*processes*, each preparing its deployment over the same memory-mapped
artifact (one page-cache copy of the arrays for the whole host), taking
requests round-robin.  It then exercises the two operational moves that
make a fleet worth having:

- **failover** — a replica is killed mid-stream; its in-flight requests
  are re-routed to survivors and the slot respawns, with zero requests
  lost;
- **hot swap** — a freshly condensed artifact rolls across the fleet one
  replica at a time while traffic keeps flowing.

Run:  python examples/fleet_serving.py
"""

from __future__ import annotations

import time

import numpy as np

from repro import api
from repro.api import DeploymentBundle
from repro.serving import ServeTask, replay_fleet, split_requests

DATASET = "pubmed-sim"
NUM_REQUESTS = 64
REPLICAS = 2


def main() -> None:
    print(f"offline phase: condensing {DATASET} and packaging a bundle...")
    bundle = api.deploy(DATASET, method="mcond", budget=30, seed=0,
                        profile="quick", deployment="original")
    artifact = bundle.save("fleet_artifact.npz", layout="mmap")
    print(f"  -> {artifact} ({artifact.stat().st_size / 1024:.0f} KB, "
          "mmap layout: members are stored raw so replicas share pages)")

    # Zero-copy loading is bit-for-bit: same artifact, two load paths.
    eager = DeploymentBundle.load(artifact).prepare()
    mapped = DeploymentBundle.load(artifact, mmap=True).prepare()
    batch = api.evaluation_batch(bundle)
    probe = batch.subset(np.arange(8))
    left, _, _ = eager.serve_batch(probe, "node")
    right, _, _ = mapped.serve_batch(probe, "node")
    print(f"mmap parity: bitwise equal = {np.array_equal(left, right)}\n")

    requests = [ServeTask(request)
                for request in split_requests(batch, NUM_REQUESTS, 4)]
    print(f"opening a {REPLICAS}-replica fleet...")
    with api.open_fleet(artifact, REPLICAS, batch_mode="node") as fleet:
        for rid, replica in fleet.stats()["per_replica"].items():
            print(f"  replica {rid}: cold start "
                  f"{replica['cold_start_ms']:.1f} ms")

        started = time.perf_counter()
        results = replay_fleet(fleet, requests)
        wall = time.perf_counter() - started
        served = sum(not isinstance(result, Exception) for result in results)
        print(f"closed-loop replay: {served}/{NUM_REQUESTS} requests in "
              f"{wall * 1e3:.0f} ms ({served / wall:.0f} req/s)\n")

        # --- failover drill -----------------------------------------
        print("failover drill: killing replica 0 with requests in flight")
        futures = [fleet.submit(request) for request in requests]
        fleet.kill_replica(0)
        answers = [future.result(timeout=120.0) for future in futures]
        stats = fleet.stats()
        print(f"  {sum(a is not None for a in answers)}/{len(answers)} "
              f"answered, {stats['rerouted']} re-routed, "
              f"{stats['respawns']} respawn(s), {stats['failed']} lost\n")

        # --- hot swap ------------------------------------------------
        print("hot swap: rolling a tighter condensation across the fleet")
        smaller = api.deploy(DATASET, method="mcond", budget=15, seed=0,
                             profile="quick", deployment="original")
        swapped = smaller.save("fleet_artifact_v2.npz", layout="mmap")
        inflight = [fleet.submit(request) for request in requests]
        fleet.swap(swapped)
        drained = sum(f.result(timeout=120.0) is not None for f in inflight)
        print(f"  {drained}/{len(inflight)} in-flight requests survived "
              "the swap")
        generations = {rid: replica["generation"] for rid, replica
                       in fleet.stats()["per_replica"].items()}
        print(f"  replica generations after rollout: {generations}")
        answer = fleet.submit(requests[0]).result(timeout=120.0)
        print(f"  post-swap request served on the new artifact: "
              f"shape {answer.shape}")


if __name__ == "__main__":
    main()
