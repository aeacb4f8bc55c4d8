"""Subcommand CLI over the :mod:`repro.api` facade.

The pipeline commands mirror the paper's offline/online split::

    repro condense --dataset pubmed-sim --method mcond --budget 30 \\
                   --output artifact.npz     # offline: condense + train
    repro serve    --artifact artifact.npz --batch-mode node
    repro serve-online --artifact artifact.npz --rate 400
    repro eval     --dataset pubmed-sim --method mcond_ss --budget 30
    repro list                                # every named component

Every paper table and figure is a preset of one experiment grid
(:mod:`repro.experiments.grid`), run through the same cell runner as
``repro eval``::

    repro grid table2 --dataset pubmed-sim --output table2.json
    repro grid fig6   --dataset pubmed-sim --effort full

Unknown dataset/method/model names exit with status 2 and list the
available alternatives.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections import Counter

import numpy as np

from repro import api
from repro.condense import REDUCERS
from repro.errors import ConfigError, ReproError
from repro.experiments import (METHODS, PRESETS, Cell, ExperimentContext,
                               dataset_budgets, format_table, paper_orderings,
                               prepare_dataset, run_grid)
from repro.experiments.settings import _PROFILES
from repro.graph.datasets import dataset_names
from repro.nn.models import MODELS


# ----------------------------------------------------------------------
# Parser: a flag that several subcommands take is defined once, below,
# with each subcommand's default passed in
# ----------------------------------------------------------------------
def _add_experiment_flags(parser: argparse.ArgumentParser,
                          method: str | None = None,
                          method_help: str = "") -> None:
    """``--dataset``/``--seed``/``--effort`` and ``--budget``; given a
    default ``method``, also ``--method`` and ``--model``."""
    parser.add_argument("--dataset", default="pubmed-sim",
                        help="dataset name (default: pubmed-sim)")
    parser.add_argument("--seed", type=int, default=0,
                        help="dataset/condensation seed (default: 0)")
    parser.add_argument("--effort", choices=tuple(_PROFILES), default="quick",
                        help="compute profile (default: quick)")
    parser.add_argument("--budget", type=int, default=None,
                        help="synthetic node budget (default: the dataset's "
                             + ("largest registered budget)" if method
                                else "registered budgets)"))
    if method is not None:
        parser.add_argument("--method", default=method,
                            help=f"{method_help} (default: {method})")
        parser.add_argument("--model", default="sgc",
                            help="model architecture name (default: sgc)")


def _add_artifact_flags(parser: argparse.ArgumentParser, hint: str = "",
                        batch_mode: str = "node") -> None:
    """``--artifact`` and ``--batch-mode``: every serve command's bundle
    and how its inductive nodes arrive."""
    parser.add_argument("--artifact", required=True,
                        help="deployment bundle produced by 'repro condense "
                             f"--output'{hint}")
    _add_batch_mode_flag(parser, batch_mode)


def _add_batch_mode_flag(parser: argparse.ArgumentParser,
                         default: str = "node") -> None:
    """The uniform ``--batch-mode`` flag — one definition, so every
    subcommand's help states where the default differs."""
    parser.add_argument("--batch-mode", choices=("graph", "node"),
                        default=default,
                        help="inductive nodes arrive connected to each other "
                             "(graph) or isolated (node); the default is "
                             "node, except graph on serve and eval "
                             f"(here: {default})")


def _add_replay_flags(parser: argparse.ArgumentParser, requests: int,
                      nodes_per_request: int, seed: str | None = None) -> None:
    """The request replay shared by the ``serve-*`` commands: how many
    requests are cut from the evaluation batch and how large, the seed's
    role where the command takes one, and the uniform ``--task`` flag
    with its task-specific tuning flags."""
    parser.add_argument("--requests", type=int, default=requests,
                        help=f"requests to replay (default: {requests})")
    parser.add_argument("--nodes-per-request", type=int,
                        default=nodes_per_request,
                        help="inductive nodes per request "
                             f"(default: {nodes_per_request})")
    if seed is not None:
        parser.add_argument("--seed", type=int, default=0,
                            help=f"{seed} seed (default: 0)")
    parser.add_argument("--task",
                        choices=("predict", "embed", "link_score", "topk"),
                        default="predict",
                        help="serving task every replayed request asks for: "
                             "predict (class logits), embed (penultimate "
                             "representations), link_score (endpoint-pair "
                             "scores), or topk (nearest base nodes); "
                             "default: predict")
    parser.add_argument("--k", type=int, default=10,
                        help="neighbours per row for --task topk "
                             "(default: 10)")
    parser.add_argument("--scorer", default="dot",
                        help="pair scorer name for --task "
                             "link_score (default: dot)")


def _add_max_batch_size_flag(parser: argparse.ArgumentParser, default: int,
                             note: str) -> None:
    parser.add_argument("--max-batch-size", type=int, default=default,
                        help=f"micro-batch size cap; {note} "
                             f"(default: {default})")


def _add_replicas_flag(parser: argparse.ArgumentParser,
                       what: str = "replica") -> None:
    parser.add_argument("--replicas", type=int, default=2,
                        help=f"{what} worker processes (default: 2)")


def _add_address_flags(parser: argparse.ArgumentParser, host_help: str,
                       port_help: str, port: int | None = None) -> None:
    """``--host`` and ``--port``, required when it has no default."""
    parser.add_argument("--host", default="127.0.0.1",
                        help=f"{host_help} (default: 127.0.0.1)")
    parser.add_argument("--port", type=int, default=port,
                        required=port is None, help=port_help)


_MMAP_HINT = " (use --layout mmap for zero-copy replica loading)"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Condense graphs offline, serve inductive nodes online, "
                    "and regenerate the MCond paper's tables/figures "
                    "(ICDE 2024)")
    sub = parser.add_subparsers(dest="command", metavar="command",
                                required=True)

    def command(name: str, handler, summary: str) -> argparse.ArgumentParser:
        subparser = sub.add_parser(name, help=summary)
        subparser.set_defaults(handler=handler)
        return subparser

    condense = command("condense", _cmd_condense,
                       "offline phase: condense a dataset, train the "
                       "deployment model, optionally save a servable bundle")
    _add_experiment_flags(condense, "mcond", "reduction method name, or "
                          "'whole' for the full-graph baseline")
    condense.add_argument("--shards", type=int, default=None,
                          help="run the sharded condensation pipeline with "
                               "this many graph shards (default: unsharded)")
    condense.add_argument("--workers", type=int, default=1,
                          help="parallel worker processes for --shards "
                               "(default: 1, serial)")
    condense.add_argument("--partitioner", default="stratified",
                          help="graph partitioner name for --shards "
                               "(default: stratified)")
    condense.add_argument("--deployment", default="auto",
                          choices=("auto", "synthetic", "original"),
                          help="serve on the condensed graph (synthetic) or "
                               "keep the original graph resident — required "
                               "for full streaming-delta support "
                               "(default: auto)")
    condense.add_argument("--output", "--artifact", dest="output", default=None,
                          help="write the deployment bundle to this .npz path")
    condense.add_argument("--layout", choices=("compressed", "mmap"),
                          default="compressed",
                          help="artifact layout: compressed (smallest) or mmap "
                               "(uncompressed members that serving replicas "
                               "can memory-map zero-copy); default: compressed")
    condense.add_argument("--precision", choices=api.PRECISIONS,
                          default="float64",
                          help="storage precision of the saved artifact: "
                               "float32 halves its float arrays, int8 "
                               "additionally quantizes stored features with "
                               "per-column absmax scales; serving always "
                               "widens to float64 (default: float64)")

    serve = command("serve", _cmd_serve, "online phase: serve the evaluation "
                    "batch from a saved bundle")
    _add_artifact_flags(serve, batch_mode="graph")
    serve.add_argument("--batch-size", type=int, default=1000,
                       help="serving mini-batch size (default: 1000)")

    online = command("serve-online", _cmd_serve_online,
                     "drive the micro-batching serving runtime with Poisson "
                     "request arrivals and report latency percentiles")
    _add_artifact_flags(online)
    _add_replay_flags(online, requests=200, nodes_per_request=1,
                      seed="arrival")
    online.add_argument("--rate", type=float, default=200.0,
                        help="Poisson arrival rate in requests/s "
                             "(default: 200)")
    _add_max_batch_size_flag(online, 32, "1 serves each request alone")
    online.add_argument("--max-wait-ms", type=float, default=2.0,
                        help="micro-batch wait cap in ms (default: 2)")
    online.add_argument("--closed-loop", action="store_true",
                        help="submit eagerly instead of honouring arrival "
                             "times (no sleeps; measures drain rate)")

    stream = command("serve-stream", _cmd_serve_stream,
                     "drive the serving runtime while the base graph "
                     "evolves: replay a delta trace (node appends, edge "
                     "churn, feature drift) interleaved with serve traffic")
    _add_artifact_flags(stream, " (use --deployment original for full delta "
                                "support)")
    _add_replay_flags(stream, requests=64, nodes_per_request=1,
                      seed="delta-trace")
    stream.add_argument("--deltas", type=int, default=8,
                        help="deltas in the replay trace (default: 8)")
    stream.add_argument("--nodes-per-delta", type=int, default=2,
                        help="nodes appended per delta (default: 2)")
    stream.add_argument("--edges-per-delta", type=int, default=4,
                        help="random edges added per delta (default: 4)")
    stream.add_argument("--removals-per-delta", type=int, default=2,
                        help="existing edges removed per delta (default: 2)")
    stream.add_argument("--updates-per-delta", type=int, default=2,
                        help="feature rows perturbed per delta (default: 2)")
    stream.add_argument("--ingest-every", type=int, default=4,
                        help="ingest one delta every this many requests "
                             "(default: 4)")
    _add_max_batch_size_flag(stream, 8,
                             "batches take what is queued, never wait")

    fleet = command("serve-fleet", _cmd_serve_fleet,
                    "serve a request stream across a pool of replica "
                    "processes sharing one memory-mapped artifact, with "
                    "health-checked failover")
    _add_artifact_flags(fleet, _MMAP_HINT)
    _add_replay_flags(fleet, requests=64, nodes_per_request=4)
    _add_replicas_flag(fleet)
    fleet.add_argument("--kill-one", action="store_true",
                       help="failover drill: kill one replica mid-stream "
                            "and report re-routing stats")

    gateway = command("serve-gateway", _cmd_serve_gateway,
                      "serve a replica fleet over TCP: framed-protocol "
                      "requests, watermark load shedding, optional "
                      "queue-driven autoscaling; SIGTERM drains gracefully")
    _add_artifact_flags(gateway, _MMAP_HINT)
    _add_address_flags(gateway, "bind address",
                       "TCP port; 0 picks a free one (default: 0)", port=0)
    gateway.add_argument("--port-file", default=None,
                         help="write the bound port to this file once "
                              "listening (ephemeral-port discovery for "
                              "scripts and CI)")
    _add_replicas_flag(gateway, "initial replica")
    gateway.add_argument("--shed-policy", default="watermark",
                         choices=("watermark", "none"),
                         help="shed above a high in-flight watermark until "
                              "below a low one, or 'none' for the hard cap "
                              "only (default: watermark)")
    gateway.add_argument("--max-inflight", type=int, default=256,
                         help="hard cap on admitted-but-unanswered "
                              "requests (default: 256)")
    gateway.add_argument("--scale-policy", default="none",
                         choices=("queue-depth", "none"),
                         help="autoscale one replica at a time on "
                              "per-replica backlog, or 'none' (default: none)")
    gateway.add_argument("--min-replicas", type=int, default=1,
                         help="autoscaler lower bound (default: 1)")
    gateway.add_argument("--max-replicas", type=int, default=4,
                         help="autoscaler upper bound (default: 4)")
    gateway.add_argument("--autoscale-interval", type=float, default=0.25,
                         help="autoscaler sampling period in seconds "
                              "(default: 0.25)")
    gateway.add_argument("--scale-cooldown", type=float, default=2.0,
                         help="minimum seconds between scaling actions "
                              "(default: 2.0)")

    top = command("top", _cmd_top,
                  "poll a live gateway's GET /metrics and print a per-stage "
                  "latency table (count, mean, p50, p95) plus the request "
                  "counters — a terminal 'top' for the serving fleet")
    _add_address_flags(top, "gateway HTTP host",
                       "gateway HTTP port (see serve-gateway --port-file)")
    top.add_argument("--interval", type=float, default=1.0,
                     help="seconds between polls (default: 1.0)")
    top.add_argument("--iterations", type=int, default=1,
                     help="polls before exiting; 0 polls forever "
                          "(default: 1)")

    evaluate = command("eval", _cmd_eval,
                       "run one Table-II method end to end in memory and "
                       "report accuracy/latency/memory")
    _add_experiment_flags(evaluate, "mcond_ss", "Table-II method key, e.g. "
                          "whole, random, mcond_ss")
    _add_batch_mode_flag(evaluate, default="graph")

    command("list", _cmd_list,
            "enumerate the methods, models, datasets, and experiments")

    grid = command("grid", _cmd_grid,
                   "regenerate one paper table or figure as a preset of the "
                   "experiment grid, and report its violated paper orderings")
    grid.add_argument("preset", choices=tuple(PRESETS),
                      help="paper artefact to regenerate")
    _add_experiment_flags(grid)
    grid.add_argument("--output", default=None, metavar="FILE",
                      help="also write the rows and violations as JSON to FILE")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


def _default_budget(args) -> int:
    return args.budget if args.budget is not None else dataset_budgets(args.dataset)[-1]


def _context(args) -> ExperimentContext:
    """The experiment context named by ``--dataset``/``--seed``/``--effort``."""
    return ExperimentContext(prepare_dataset(args.dataset, seed=args.seed),
                             _PROFILES[args.effort])


# ----------------------------------------------------------------------
# Pipeline commands
# ----------------------------------------------------------------------
def _cmd_condense(args) -> int:
    method = None if args.method == "whole" else args.method
    reducer_options = None
    if method is None and args.shards is not None:
        raise ConfigError(
            "--shards requires a reduction method; --method whole keeps the "
            "full graph and condenses nothing")
    if method is not None and (args.shards is not None or method == "sharded"):
        # `--shards K` routes any method through the sharded pipeline;
        # `--method sharded` alone condenses with the wrapper's defaults.
        reducer_options = {"shards": 2 if args.shards is None else args.shards,
                           "workers": args.workers,
                           "partitioner": args.partitioner}
        if method != "sharded":
            reducer_options["inner"] = method
        method = "sharded"
    deployment = None if args.deployment == "auto" else args.deployment
    bundle = api.deploy(args.dataset, method,
                        _default_budget(args) if method else 0,
                        model=args.model, deployment=deployment,
                        seed=args.seed, profile=args.effort,
                        reducer_options=reducer_options)
    if reducer_options is not None:
        print(f"sharded offline phase: {reducer_options['shards']} shards, "
              f"{reducer_options['workers']} workers, "
              f"{reducer_options['partitioner']} partitioner")
    print(bundle)
    if bundle.condensed is not None:
        print(f"condensed: {bundle.condensed!r}")
    print(f"deployment storage: {bundle.storage_bytes() / 1024:.1f} KB")
    if args.output:
        path = bundle.save(args.output, layout=args.layout,
                           precision=args.precision)
        print(f"wrote {path} ({args.layout} layout, "
              f"{args.precision} precision)")
    return 0


def _load_bundle(args) -> api.DeploymentBundle:
    """Load ``--artifact`` and print it: every serve command's first step."""
    bundle = api.DeploymentBundle.load(args.artifact)
    print(bundle)
    return bundle


def _replay_requests(args, batch) -> list:
    """Cut ``batch`` into ``--requests`` requests of ``--nodes-per-request``
    nodes each, wrapped as ServeTask requests of ``--task``."""
    from repro.serving import split_requests, tasked_requests

    return tasked_requests(
        split_requests(batch, args.requests, args.nodes_per_request),
        args.task, k=args.k, scorer=args.scorer,
        seed=getattr(args, "seed", 0))


def _print_served(stats, how: str) -> None:
    """The served and latency lines of a runtime replay's report."""
    print(f"served {stats.requests} requests ({stats.nodes} nodes) in "
          f"{stats.batches} micro-batches {how}")
    print(f"  latency p50/p95/p99   {stats.latency_p50 * 1e3:.2f} / "
          f"{stats.latency_p95 * 1e3:.2f} / {stats.latency_p99 * 1e3:.2f} ms")


def _cmd_serve(args) -> int:
    bundle = _load_bundle(args)
    report = api.serve(bundle, batch_mode=args.batch_mode,
                       batch_size=args.batch_size)
    _print_report(report)
    return 0


def _cmd_serve_online(args) -> int:
    from repro.serving import PoissonWorkload, replay

    bundle = _load_bundle(args)
    runtime = api.open_runtime(bundle, batch_mode=args.batch_mode,
                               max_batch_size=args.max_batch_size,
                               max_wait_ms=args.max_wait_ms)
    requests = _replay_requests(args, api.evaluation_batch(bundle))
    arrivals = None
    if not args.closed_loop:
        arrivals = PoissonWorkload(args.rate).arrivals(
            args.requests, np.random.default_rng(args.seed))
    with runtime:
        outcomes = replay(runtime, requests, arrivals)
    stats = runtime.stats()
    _print_served(stats, "— closed loop" if args.closed_loop else
                  f"— open loop, poisson @ {args.rate:g} req/s")
    print(f"  queue wait / compute  {stats.queue_wait_mean * 1e3:.2f} / "
          f"{stats.compute_mean * 1e3:.2f} ms (means)")
    print(f"  throughput            {stats.throughput_rps:.0f} req/s "
          f"({stats.mean_batch_requests:.1f} req/batch)")
    return _report_failed(outcomes)


#: Distinct failure causes a serve command prints before its error line.
SHOWN_FAILURE_CAUSES = 3


def _report_failed(outcomes: list) -> int:
    """Print a serve command's failed-request count and the distinct
    causes of its failed requests (a replay's exception outcomes, the
    first few causes only); its exit status."""
    causes = Counter(f"{type(outcome).__name__}: {outcome}"
                     for outcome in outcomes if isinstance(outcome, Exception))
    failed, total = sum(causes.values()), len(outcomes)
    print(f"  failed                {failed} of {total} requests")
    if not failed:
        return 0
    for cause, count in list(causes.items())[:SHOWN_FAILURE_CAUSES]:
        print(f"cause ({count} of {total} requests): {cause}", file=sys.stderr)
    if len(causes) > SHOWN_FAILURE_CAUSES:
        print(f"cause: {len(causes) - SHOWN_FAILURE_CAUSES} more distinct "
              "causes not shown", file=sys.stderr)
    print(f"error: {failed} of {total} requests failed", file=sys.stderr)
    return 1


def _cmd_serve_stream(args) -> int:
    from repro.graph.stream import GraphDelta, make_delta_trace
    from repro.serving import replay_stream

    bundle = _load_bundle(args)
    runtime = api.open_runtime(bundle, batch_mode=args.batch_mode,
                               max_batch_size=args.max_batch_size,
                               max_wait_ms=0.0)
    batch = api.evaluation_batch(bundle)
    reserved = args.deltas * args.nodes_per_delta
    if reserved >= batch.num_nodes:
        raise ConfigError(
            f"delta trace wants {reserved} nodes but the evaluation batch "
            f"holds {batch.num_nodes}; lower --deltas/--nodes-per-delta")
    if bundle.deployment == "original":
        trace = make_delta_trace(
            bundle.base, batch.subset(np.arange(reserved)),
            num_deltas=args.deltas, nodes_per_delta=args.nodes_per_delta,
            edges_per_delta=args.edges_per_delta,
            removals_per_delta=args.removals_per_delta,
            updates_per_delta=args.updates_per_delta, seed=args.seed)
    else:
        # a synthetic deployment streams node appends only (the mapping
        # grows zero rows; edge/feature changes need recondensation)
        trace = [
            GraphDelta(add_features=batch.features[
                i * args.nodes_per_delta:(i + 1) * args.nodes_per_delta])
            for i in range(args.deltas)]
    request_pool = batch.subset(np.arange(reserved, batch.num_nodes))
    requests = _replay_requests(args, request_pool)
    outcomes = replay_stream(runtime, requests, trace, args.ingest_every)
    stats = runtime.stats()
    stream = runtime.stream_stats()
    _print_served(stats, f"while ingesting {stream['deltas']} deltas")
    refresh_ms = stream["refresh_mean_ms"]
    refresh = f"{refresh_ms:.2f} ms mean" if refresh_ms is not None else "n/a"
    print(f"  delta refresh         {stream['incremental']} incremental, "
          f"{stream['rebuilds']} rebuilds ({refresh})")
    print(f"  base graph            {runtime.prepared.num_base} nodes "
          f"(+{stream['appended_nodes']} streamed)")
    if bundle.deployment == "original":
        difference = _probe_against_fresh(runtime.prepared, requests[:4],
                                          args.batch_mode)
        if difference is not None:
            print(f"error: evolved deployment differs from a fresh "
                  f"prepare(): {difference}", file=sys.stderr)
            return 1
        print("  evolved == fresh prepare(): ok")
    return _report_failed(outcomes)


def _probe_against_fresh(prepared, tasks, batch_mode: str) -> str | None:
    """Serve ``tasks`` on an evolved original deployment and on a fresh
    ``PreparedDeployment`` over its current base graph; describes the
    first task whose replies are not bitwise equal (or that only the
    evolved deployment fails to serve), else returns ``None``.

    The tasks may cite the pre-delta base width; appended node ids only
    extend it, so each incremental block is widened to the current one.
    """
    from dataclasses import replace

    import scipy.sparse as sp

    from repro.serving.prepared import PreparedDeployment

    fresh = PreparedDeployment(prepared.model, prepared.deployment,
                               prepared.base)
    for index, task in enumerate(tasks):
        inc = task.batch.incremental.tocsr()
        widened = sp.csr_matrix((inc.data, inc.indices, inc.indptr),
                                shape=(inc.shape[0], prepared.num_base))
        probe = replace(task, batch=replace(task.batch, incremental=widened))
        mode = probe.mode or batch_mode
        expected, _, _ = fresh.serve_task(probe, batch_mode=mode)
        try:
            evolved, _, _ = prepared.serve_task(probe, batch_mode=mode)
        except Exception as error:  # noqa: BLE001 — reported as a mismatch
            return f"probe {index} failed: {type(error).__name__}: {error}"
        if not np.array_equal(evolved, expected):
            return f"probe {index} replies differ"
    return None


def _cmd_serve_fleet(args) -> int:
    from repro.serving import replay_fleet
    from repro.serving.workload import settle

    requests = _replay_requests(args, api.evaluation_batch(_load_bundle(args)))
    fleet = api.open_fleet(args.artifact, args.replicas,
                           batch_mode=args.batch_mode)
    with fleet:
        started = time.perf_counter()
        if args.kill_one:
            half = len(requests) // 2
            futures = [fleet.submit(r) for r in requests[:half]]
            fleet.kill_replica(0)
            print(f"failover drill: killed replica 0 after {half} requests")
            futures += [fleet.submit(r) for r in requests[half:]]
            outcomes = settle(futures, timeout=120.0)
        else:
            outcomes = replay_fleet(fleet, requests)
        wall = time.perf_counter() - started
        stats = fleet.stats()
    served = sum(not isinstance(outcome, Exception) for outcome in outcomes)
    print(f"served {served}/{len(requests)} requests across "
          f"{args.replicas} replicas (memory-mapped artifact)")
    print(f"  throughput            {served / wall:.0f} req/s")
    p50, p95 = stats["latency_p50_ms"], stats["latency_p95_ms"]
    if p50 is not None:
        print(f"  latency p50/p95       {p50:.2f} / {p95:.2f} ms")
    print(f"  failover              {stats['rerouted']} re-routed, "
          f"{stats['respawns']} respawns, {stats['failed']} failed")
    for rid, replica in stats["per_replica"].items():
        cold = replica["cold_start_ms"]
        cold_part = f", cold start {cold:.1f} ms" if cold is not None else ""
        print(f"  replica {rid}             {replica['served']} served "
              f"(gen {replica['generation']}{cold_part})")
    return _report_failed(outcomes)


def _cmd_serve_gateway(args) -> int:
    import signal
    import threading

    from repro.serving import QueueDepthScale, WatermarkShed

    shed = WatermarkShed() if args.shed_policy == "watermark" else None
    scale = None
    if args.scale_policy == "queue-depth":
        scale = QueueDepthScale(min_replicas=args.min_replicas,
                                max_replicas=args.max_replicas)
    gateway = api.open_gateway(
        args.artifact, args.replicas, host=args.host, port=args.port,
        batch_mode=args.batch_mode, shed_policy=shed, max_inflight=args.max_inflight,
        scale_policy=scale,
        autoscale_interval=args.autoscale_interval,
        scale_cooldown=args.scale_cooldown)
    stop = threading.Event()

    def _request_stop(signum, frame):
        print(f"\nreceived {signal.Signals(signum).name}: draining "
              "in-flight requests, then shutting down", flush=True)
        stop.set()

    previous = {s: signal.signal(s, _request_stop)
                for s in (signal.SIGTERM, signal.SIGINT)}
    try:
        if args.port_file:
            with open(args.port_file, "w") as handle:
                handle.write(f"{gateway.port}\n")
        print(f"gateway listening on {gateway.host}:{gateway.port} "
              f"({args.replicas} replicas, shed={args.shed_policy}, "
              f"scale={args.scale_policy})", flush=True)
        print("probe with GET /healthz; stop with SIGTERM for a "
              "graceful drain", flush=True)
        while not stop.wait(0.5):
            pass
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        gateway.close()
    stats = gateway.stats()
    print(f"drained: {stats['served']} served, {stats['shed']} shed, "
          f"{stats['errors']} errors of {stats['offered']} offered")
    for event in stats["scale_events"]:
        print(f"  scale {event['action']}: {event['from']} -> "
              f"{event['to']} replicas at t={event['t_s']:.2f}s "
              f"(queue depth {event['queue_depth']})")
    return 0


def _fmt_quantile_ms(value: float | None) -> str:
    return f"{value * 1e3:10.3f}" if value is not None else f"{'n/a':>10}"


def _print_metrics_page(samples: dict) -> None:
    """Render one parsed /metrics scrape as the ``repro top`` screen."""
    outcomes = {labels.get("outcome", ""): value for labels, value
                in samples.get("repro_gateway_requests_total", [])}

    def gauge(name: str) -> float:
        rows = samples.get(name, [])
        return rows[0][1] if rows else 0.0

    print(f"gateway   offered {outcomes.get('offered', 0):.0f}  "
          f"served {outcomes.get('served', 0):.0f}  "
          f"shed {outcomes.get('shed', 0):.0f}  "
          f"errors {outcomes.get('error', 0):.0f}  "
          f"inflight {gauge('repro_gateway_inflight'):.0f}")
    print(f"fleet     replicas {gauge('repro_fleet_replicas'):.0f}  "
          f"queue depth {gauge('repro_fleet_queue_depth'):.0f}")
    buckets: dict[tuple[str, str], list[tuple[float, float]]] = {}
    sums: dict[tuple[str, str], float] = {}
    counts: dict[tuple[str, str], float] = {}
    stage_key = "repro_stage_latency_seconds"
    for labels, value in samples.get(f"{stage_key}_bucket", []):
        key = (labels.get("component", ""), labels.get("stage", ""))
        buckets.setdefault(key, []).append((float(labels["le"]), value))
    for labels, value in samples.get(f"{stage_key}_sum", []):
        sums[(labels.get("component", ""), labels.get("stage", ""))] = value
    for labels, value in samples.get(f"{stage_key}_count", []):
        counts[(labels.get("component", ""), labels.get("stage", ""))] = value
    if not counts:
        print("stages    (no per-stage latency recorded yet)")
        return
    from repro.telemetry import histogram_quantile

    print(f"{'component':<10}{'stage':<16}{'count':>8}{'mean ms':>10}"
          f"{'p50 ms':>10}{'p95 ms':>10}")
    for key in sorted(counts):
        count = counts[key]
        mean_ms = sums.get(key, 0.0) / count * 1e3 if count else 0.0
        p50 = histogram_quantile(buckets.get(key, []), 0.5)
        p95 = histogram_quantile(buckets.get(key, []), 0.95)
        print(f"{key[0]:<10}{key[1]:<16}{count:8.0f}{mean_ms:10.3f}"
              f"{_fmt_quantile_ms(p50)}{_fmt_quantile_ms(p95)}")


def _cmd_top(args) -> int:
    import http.client

    from repro.telemetry import parse_exposition

    iteration = 0
    while True:
        conn = http.client.HTTPConnection(args.host, args.port, timeout=5.0)
        try:
            conn.request("GET", "/metrics")
            response = conn.getresponse()
            body = response.read().decode("utf-8")
            status = response.status
        except (OSError, http.client.HTTPException) as error:
            print(f"error: cannot scrape {args.host}:{args.port}: {error}",
                  file=sys.stderr)
            return 2
        finally:
            conn.close()
        if status != 200:
            print(f"error: GET /metrics returned {status}", file=sys.stderr)
            return 2
        if iteration:
            print()
        _print_metrics_page(parse_exposition(body))
        iteration += 1
        if args.iterations and iteration >= args.iterations:
            return 0
        time.sleep(args.interval)


def _cmd_eval(args) -> int:
    budget = _default_budget(args)
    report = _context(args).run_method(Cell(
        args.method, budget, model=args.model, batch_mode=args.batch_mode,
        seed=args.seed))
    print(f"{args.method} on {args.dataset} "
          f"(budget={budget}, model={args.model})")
    _print_report(report)
    return 0


def _print_report(report) -> None:
    print(f"  deployment        {report.deployment}")
    print(f"  batch mode        {report.batch_mode}")
    print(f"  accuracy          {report.accuracy:.4f}")
    print(f"  nodes served      {report.num_nodes} "
          f"({report.num_batches} batches)")
    print(f"  latency           {report.mean_batch_milliseconds:.2f} ms/batch")
    print(f"  serving memory    {report.memory_megabytes:.3f} MB")


def _cmd_list(args) -> int:
    from repro.graph.partition import PARTITIONERS
    from repro.serving.embeddings import TASKS

    print("reduction methods (repro condense --method):")
    for name, entry in sorted(REDUCERS.items()):
        print(f"  {name:<10} {entry.description}")
    print("\ngraph partitioners (repro condense --shards K --partitioner):")
    for name, (_, description) in sorted(PARTITIONERS.items()):
        print(f"  {name:<10} {description}")
    print("\nmodel architectures (--model):")
    print(f"  {', '.join(sorted(MODELS))}")
    print("\ndatasets (--dataset):")
    print(f"  {', '.join(dataset_names())}")
    print("\nserving tasks (repro serve-online --task):")
    for name, (_, description) in sorted(TASKS.items()):
        print(f"  {name:<12} {description}")
    print("\ntable-II method columns (repro eval --method):")
    for name, spec in METHODS.items():
        print(f"  {name:<10} {spec.setting}")
    print("\ngrid presets (repro grid):")
    print(f"  {', '.join(PRESETS)}")
    return 0


# ----------------------------------------------------------------------
# The experiment grid
# ----------------------------------------------------------------------
def _cmd_grid(args) -> int:
    import json
    from pathlib import Path

    context = _context(args)
    budgets = (dataset_budgets(args.dataset) if args.budget is None
               else (args.budget,))
    rows = run_grid(context, PRESETS[args.preset](budgets))
    violations = paper_orderings(rows)
    shown = [name for name in rows[0]
             if any(row[name] not in (None, {}) for row in rows)]
    print(format_table(rows, shown, title=f"{args.preset} — {args.dataset}"))
    print(f"\npaper orderings: {len(violations)} violated")
    for violation in violations:
        print(f"  {violation}")
    if args.output:
        payload = {"preset": args.preset, "dataset": args.dataset,
                   "profile": context.profile.name, "rows": rows,
                   "violations": violations}
        Path(args.output).write_text(json.dumps(payload, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
