"""Network gateway: framed TCP serving, load shedding, autoscaling.

Where ``fleet_serving.py`` submits to the replica fleet in-process, this
walkthrough puts the fleet behind its network front door — the
:class:`~repro.serving.gateway.ServingGateway` — and talks to it the way
a remote caller would, over localhost TCP with the stdlib
:class:`~repro.serving.protocol.GatewayClient`:

- **parity** — logits served over the socket are bitwise equal to direct
  in-process serving (JSON float64 round-trips doubles exactly; binary
  payloads are raw little-endian buffers);
- **load shedding** — a burst past a deliberately tiny in-flight cap
  comes back as retriable ``shed`` replies with ``retry_after_ms``
  hints, with exact accounting (offered == served + shed);
- **autoscaling** — Poisson traffic at 1200 req/s builds real queue
  depth against one replica; the queue-depth policy reacts with a
  scale-up event while the traffic is still arriving, then walks the
  fleet back down once it drains.

Run:  python examples/gateway_serving.py
"""

from __future__ import annotations

import time

import numpy as np

from repro import api
from repro.serving import (GatewayClient, PoissonWorkload, ServeTask,
                           split_requests)
from repro.serving.gateway import QueueDepthScale, WatermarkShed

DATASET = "pubmed-sim"
LOAD_REQUESTS = 200
LOAD_RATE = 1200.0  # requests/second


def main() -> None:
    print(f"offline phase: condensing {DATASET} and packaging a bundle...")
    bundle = api.deploy(DATASET, method="mcond", budget=30, seed=0,
                        profile="quick", deployment="original")
    batch = api.evaluation_batch(bundle)
    requests = [ServeTask(request)
                for request in split_requests(batch, 32, 4)]

    # --- parity over the wire ----------------------------------------
    print("opening a 1-replica fleet behind the gateway (ephemeral port)")
    gateway = api.open_gateway(bundle, 1, shed_policy=None)
    try:
        host, port = gateway.address
        print(f"  listening on {host}:{port}")
        direct = gateway.fleet.submit(requests[0]).result(timeout=120.0)
        for encoding in ("json", "binary"):
            with GatewayClient(host, port, encoding=encoding) as client:
                reply = client.serve_batch(requests[0])
            print(f"  {encoding:>6} encoding: bitwise equal to in-process "
                  f"serving = {np.array_equal(direct, reply.logits)}")
    finally:
        gateway.close()

    # --- load shedding ------------------------------------------------
    print("\nburst against a 4-slot in-flight cap (watermark shedding):")
    gateway = api.open_gateway(
        bundle, 1, max_inflight=4,
        shed_policy=WatermarkShed(high=0.5, low=0.25, retry_after_ms=25.0))
    try:
        with GatewayClient(*gateway.address, encoding="binary") as client:
            count = len([client.submit(request)
                         for request in requests * 2])
            replies = client.drain(count)
        ok = sum(reply.ok for reply in replies.values())
        shed = [r for r in replies.values() if r.status == "shed"]
        hints = sorted({round(r.retry_after_ms) for r in shed})
        stats = gateway.stats()
        print(f"  offered {stats['offered']}, served {ok}, "
              f"shed {len(shed)} (retry hints {hints} ms)")
        print(f"  accounting exact: "
              f"{stats['offered'] == stats['served'] + stats['shed']}")
    finally:
        gateway.close()

    # --- autoscaling under Poisson load -------------------------------
    print("\nPoisson load against 1 replica (queue-depth autoscaling):")
    arrivals = PoissonWorkload(LOAD_RATE).arrivals(LOAD_REQUESTS, rng=0)
    stream = [ServeTask(request)
              for request in split_requests(batch, LOAD_REQUESTS, 4)]
    gateway = api.open_gateway(
        bundle, 1, max_inflight=4 * LOAD_REQUESTS,
        scale_policy=QueueDepthScale(min_replicas=1, max_replicas=2,
                                     up_backlog=2.0, down_backlog=0.5),
        autoscale_interval=0.05, scale_cooldown=0.3)
    try:
        with GatewayClient(*gateway.address, encoding="binary") as client:
            client.serve_batch(stream[0])  # warm the lone replica
            started = time.monotonic()
            offset = started - gateway.started_at
            for arrival, request in zip(arrivals, stream):
                wait = arrival - (time.monotonic() - started)
                if wait > 0:
                    time.sleep(wait)
                client.submit(request)
            replies = client.drain(LOAD_REQUESTS)
            ok = sum(reply.ok for reply in replies.values())
            print(f"  {LOAD_RATE:.0f} req/s over {arrivals[-1]:.2f}s; "
                  f"{ok}/{LOAD_REQUESTS} served")
            deadline = time.monotonic() + 30.0
            while (gateway.fleet.num_replicas > 1
                   and time.monotonic() < deadline):
                time.sleep(0.05)
            for event in gateway.scale_events:
                print(f"  t={event['t_s'] - offset:+.2f}s scale "
                      f"{event['action']}: {event['from']} -> "
                      f"{event['to']} replicas "
                      f"(queue depth {event['queue_depth']})")
            print(f"  settled back to {gateway.fleet.num_replicas} replica; "
                  f"probe ok = {client.serve_batch(stream[0]).ok}")
    finally:
        gateway.close()


if __name__ == "__main__":
    main()
