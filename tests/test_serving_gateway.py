"""Network gateway: wire protocol, admission control, autoscaling."""

from __future__ import annotations

import io
import json
import http.client
import socket
import struct
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from repro import api
from repro.cli import main
from repro.errors import ServingError
from repro.graph.datasets import IncrementalBatch
from repro.serving import (ServeTask, ServingFleet, split_requests,
                           tasked_requests)
from repro.serving.gateway import (
    QueueDepthScale,
    ServingGateway,
    WatermarkShed,
)
from repro.serving import protocol
from repro.serving.protocol import (
    GatewayClient,
    ProtocolError,
    decode_prefix,
    decode_reply,
    decode_serve_request,
    encode_frame,
    encode_reply,
    encode_serve_request,
    read_frame_from,
)


# ----------------------------------------------------------------------
# Shared artifacts (module-cached: deploys and process spawns are slow)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def gw_bundle():
    return api.deploy("tiny-sim", "mcond", 9, profile="quick",
                      deployment="synthetic")


@pytest.fixture(scope="module")
def gw_artifact(gw_bundle, tmp_path_factory):
    root = tmp_path_factory.mktemp("gateway-artifacts")
    return gw_bundle.save(root / "synthetic.npz", layout="mmap")


@pytest.fixture(scope="module")
def gw_requests(gw_bundle):
    return tasked_requests(
        split_requests(api.evaluation_batch(gw_bundle), 12, 2), "predict")


@pytest.fixture(scope="module")
def gateway(gw_artifact):
    """One long-lived 1-replica gateway for the read-mostly tests."""
    fleet = ServingFleet(gw_artifact, 1,
                        batch_mode="node")
    gw = ServingGateway(fleet, max_inflight=64, owns_fleet=True)
    gw.start()
    yield gw
    gw.close()


def _toy_batch(n: int = 3, d: int = 4, total: int = 10,
               with_intra: bool = True) -> IncrementalBatch:
    rng = np.random.default_rng(5)
    features = rng.standard_normal((n, d))
    incremental = sp.random(n, total, density=0.4, random_state=3,
                            format="csr", dtype=np.float64)
    intra = None
    if with_intra:
        intra = sp.random(n, n, density=0.5, random_state=4, format="csr",
                          dtype=np.float64)
    return IncrementalBatch(features=features, incremental=incremental,
                            intra=intra,
                            labels=np.full(n, -1, dtype=np.int64))


def _round_trip(batch, *, encoding="json", dtype="float64", **options):
    frame = encode_serve_request(7, ServeTask(batch, **options),
                                 encoding=encoding, dtype=dtype)
    header, payload = read_frame_from(io.BytesIO(frame).read)
    return decode_serve_request(header, payload)


# ----------------------------------------------------------------------
# Wire protocol
# ----------------------------------------------------------------------
class TestProtocol:
    @pytest.mark.parametrize("encoding", ["json", "binary"])
    def test_serve_round_trip_is_bitwise(self, encoding):
        batch = _toy_batch()
        request = _round_trip(batch, mode="graph", encoding=encoding)
        assert request.request_id == 7
        assert request.encoding == encoding
        task = request.task
        assert (task.task, task.mode) == ("predict", "graph")
        assert np.array_equal(task.batch.features, batch.features)
        assert np.array_equal(task.batch.incremental.toarray(),
                              batch.incremental.toarray())
        assert np.array_equal(task.batch.intra.toarray(),
                              batch.intra.toarray())
        assert (task.batch.labels == -1).all()

    def test_float32_payload_widens_exactly(self):
        batch = _toy_batch()
        narrowed = IncrementalBatch(
            features=batch.features.astype(np.float32),
            incremental=batch.incremental.astype(np.float32),
            intra=batch.intra, labels=batch.labels)
        request = _round_trip(narrowed, encoding="binary", dtype="float32")
        assert request.task.batch.features.dtype == np.float64
        assert np.array_equal(request.task.batch.features,
                              narrowed.features.astype(np.float64))

    def test_missing_intra_defaults_to_empty(self):
        task = _round_trip(_toy_batch(with_intra=False)).task
        assert task.batch.intra.shape == (3, 3)
        assert task.batch.intra.nnz == 0
        assert task.mode is None

    def test_reply_round_trip(self):
        logits = np.random.default_rng(0).standard_normal((3, 5))
        frame = encode_reply(11, "ok", logits=logits, replica_id=2,
                             attempts=1, compute_ms=0.5, encoding="binary")
        reply = decode_reply(*read_frame_from(io.BytesIO(frame).read))
        assert reply.ok and reply.request_id == 11
        assert np.array_equal(reply.logits, logits)
        assert reply.replica_id == 2 and reply.attempts == 1

    def test_shed_reply_carries_hint(self):
        frame = encode_reply(3, "shed", error="full", retry_after_ms=25.0)
        reply = decode_reply(*read_frame_from(io.BytesIO(frame).read))
        assert not reply.ok
        assert reply.status == "shed" and reply.retry_after_ms == 25.0

    def test_bad_magic_rejected(self):
        prefix = struct.pack("!4sBII", b"XXXX", 1, 2, 0)
        with pytest.raises(ProtocolError, match="magic"):
            decode_prefix(prefix)

    def test_bad_version_rejected(self):
        for version in (1, 2, 99):  # the wire speaks v3 only
            prefix = struct.pack("!4sBII", protocol.MAGIC, version, 2, 0)
            with pytest.raises(ProtocolError,
                               match="unsupported protocol version"):
                decode_prefix(prefix)

    def test_oversized_frame_rejected(self):
        prefix = struct.pack("!4sBII", protocol.MAGIC,
                             protocol.PROTOCOL_VERSION,
                             protocol.MAX_HEADER_BYTES + 1, 0)
        with pytest.raises(ProtocolError, match="too large"):
            decode_prefix(prefix)

    def test_truncated_prefix_rejected(self):
        with pytest.raises(ProtocolError, match="truncated"):
            decode_prefix(b"RP")

    def test_header_must_be_json_object(self):
        with pytest.raises(ProtocolError, match="JSON"):
            read_frame_from(io.BytesIO(
                struct.pack("!4sBII", protocol.MAGIC,
                            protocol.PROTOCOL_VERSION, 4, 0) + b"nope").read)
        frame = protocol._PREFIX.pack(
            protocol.MAGIC, protocol.PROTOCOL_VERSION, 2, 0) + b"[]"
        with pytest.raises(ProtocolError, match="object"):
            read_frame_from(io.BytesIO(frame).read)

    def test_payload_descriptor_bounds_checked(self):
        header = {"op": "serve", "id": 1, "encoding": "binary",
                  "features": {"dtype": "float64", "shape": [2, 2],
                               "offset": 0, "nbytes": 4096},
                  "incremental": [[0.0]]}
        with pytest.raises(ProtocolError, match="exceeds"):
            decode_serve_request(header, b"\x00" * 8)

    def test_shape_and_row_mismatches_rejected(self):
        batch = _toy_batch()
        frame = encode_serve_request(1, ServeTask(batch))
        header, payload = read_frame_from(io.BytesIO(frame).read)
        bad = dict(header)
        bad["features"] = [[1.0, 2.0]]  # 1 row vs 3 incremental rows
        with pytest.raises(ProtocolError, match="rows"):
            decode_serve_request(bad, payload)
        bad = dict(header)
        bad["mode"] = "turbo"
        with pytest.raises(ProtocolError, match="mode"):
            decode_serve_request(bad, payload)
        bad = dict(header)
        bad["id"] = "one"
        with pytest.raises(ProtocolError, match="id"):
            decode_serve_request(bad, payload)
        bad = dict(header)
        del bad["features"]
        with pytest.raises(ProtocolError, match="features"):
            decode_serve_request(bad, payload)

    def test_intra_must_be_square(self):
        batch = _toy_batch()
        frame = encode_serve_request(1, ServeTask(batch))
        header, payload = read_frame_from(io.BytesIO(frame).read)
        header = dict(header)
        header["intra"] = [[1.0, 0.0]]
        with pytest.raises(ProtocolError, match="intra"):
            decode_serve_request(header, payload)

    def test_encoding_and_dtype_validated(self):
        with pytest.raises(ServingError, match="encoding"):
            encode_serve_request(1, ServeTask(_toy_batch()),
                                 encoding="pickle")
        with pytest.raises(ServingError, match="dtype"):
            encode_serve_request(1, ServeTask(_toy_batch()),
                                 dtype="float16")
        with pytest.raises(ServingError, match="encoding"):
            GatewayClient("127.0.0.1", 1, encoding="pickle")

    def test_reply_without_status_rejected(self):
        with pytest.raises(ProtocolError, match="status"):
            decode_reply({"op": "reply", "id": 1}, b"")


# ----------------------------------------------------------------------
# Shed policies
# ----------------------------------------------------------------------
class TestShedPolicies:
    def test_watermark_hysteresis(self):
        policy = WatermarkShed(high=0.75, low=0.5, retry_after_ms=50.0)
        assert policy.admit(queue_depth=74, capacity=100) is None
        assert policy.admit(queue_depth=75, capacity=100) is not None
        # still shedding inside the band (depth fell, but not to low)
        assert policy.admit(queue_depth=60, capacity=100) is not None
        # recovered at the low watermark
        assert policy.admit(queue_depth=50, capacity=100) is None
        assert policy.admit(queue_depth=60, capacity=100) is None

    def test_watermark_hint_grows_with_overload(self):
        policy = WatermarkShed(high=0.5, low=0.25, retry_after_ms=10.0)
        light = policy.admit(queue_depth=50, capacity=100)
        heavy = policy.admit(queue_depth=100, capacity=100)
        assert light is not None and heavy is not None
        assert heavy > light

    def test_watermark_validation(self):
        with pytest.raises(ServingError):
            WatermarkShed(high=1.5)
        with pytest.raises(ServingError):
            WatermarkShed(high=0.5, low=0.8)
        with pytest.raises(ServingError):
            WatermarkShed(retry_after_ms=0)


# ----------------------------------------------------------------------
# Scale policies
# ----------------------------------------------------------------------
class TestScalePolicies:
    def test_queue_depth_steps_one_at_a_time(self):
        policy = QueueDepthScale(min_replicas=1, max_replicas=4,
                                 up_backlog=4.0, down_backlog=1.0)
        # massive backlog still grows by exactly one replica
        assert policy.target(replicas=1, queue_depth=1000, p95_ms=None) == 2
        assert policy.target(replicas=2, queue_depth=8, p95_ms=None) == 3
        # in the dead band the size holds
        assert policy.target(replicas=2, queue_depth=4, p95_ms=None) == 2
        # idle shrinks by one, never below min
        assert policy.target(replicas=2, queue_depth=0, p95_ms=None) == 1
        assert policy.target(replicas=1, queue_depth=0, p95_ms=None) == 1
        # saturated stays at max
        assert policy.target(replicas=4, queue_depth=1000, p95_ms=None) == 4

    def test_queue_depth_p95_trip_wire(self):
        policy = QueueDepthScale(max_replicas=4, up_backlog=100.0,
                                 p95_up_ms=10.0)
        assert policy.target(replicas=2, queue_depth=3, p95_ms=25.0) == 3
        assert policy.target(replicas=2, queue_depth=3, p95_ms=None) == 2

    def test_queue_depth_validation(self):
        with pytest.raises(ServingError):
            QueueDepthScale(min_replicas=0)
        with pytest.raises(ServingError):
            QueueDepthScale(min_replicas=3, max_replicas=2)
        with pytest.raises(ServingError):
            QueueDepthScale(up_backlog=1.0, down_backlog=2.0)


# ----------------------------------------------------------------------
# Fleet elasticity (scale_to / queue_depth)
# ----------------------------------------------------------------------
class TestFleetElasticity:
    def test_scale_up_and_down_loses_nothing(self, gw_artifact, gw_requests):
        with ServingFleet(gw_artifact, 1,
                          batch_mode="node") as fleet:
            futures = [fleet.submit(r) for r in gw_requests]
            assert fleet.scale_to(2) == 2
            assert fleet.num_replicas == 2
            futures += [fleet.submit(r) for r in gw_requests]
            assert fleet.scale_to(1) == 1
            results = [f.result(timeout=120.0) for f in futures]
            assert all(r is not None for r in results)
            assert fleet.num_replicas == 1
            assert fleet.queue_depth() == 0
            with pytest.raises(ServingError):
                fleet.scale_to(0)


# ----------------------------------------------------------------------
# Gateway serving
# ----------------------------------------------------------------------
class TestGatewayServing:
    def test_socket_matches_direct_fleet_bitwise(self, gateway, gw_requests):
        """Acceptance: gateway replies == direct submit, per path."""
        fleet = gateway.fleet
        for encoding in ("json", "binary"):
            with GatewayClient(*gateway.address, encoding=encoding) as client:
                for mode in ("graph", "node"):
                    for request in gw_requests[:3]:
                        request = replace(request, mode=mode)
                        direct = fleet.submit(request).result(timeout=120.0)
                        reply = client.serve_batch(request)
                        assert reply.ok, reply.error
                        assert reply.logits.dtype == np.float64
                        assert np.array_equal(direct, reply.logits)

    def test_pipelined_replies_come_back_by_id(self, gateway, gw_requests):
        with GatewayClient(*gateway.address, encoding="binary") as client:
            ids = [client.submit(r) for r in gw_requests[:6]]
            replies = client.drain(len(ids))
        assert sorted(replies) == sorted(ids)
        assert all(reply.ok for reply in replies.values())

    def test_ping_and_stats_ops(self, gateway):
        with GatewayClient(*gateway.address) as client:
            assert client.ping().status == "pong"
            stats = client.stats()
        assert stats["port"] == gateway.port
        assert stats["served"] <= stats["offered"]
        assert stats["shed_policy"] is None
        assert stats["fleet"]["replicas"] == 1

    def test_unknown_op_gets_error_reply(self, gateway):
        with GatewayClient(*gateway.address) as client:
            client._sock.sendall(encode_frame({"op": "bogus", "id": 41}))
            reply = client._read_reply()
        assert reply.status == "error" and reply.request_id == 41
        assert "bogus" in reply.error

    def test_malformed_serve_keeps_connection_alive(self, gateway):
        with GatewayClient(*gateway.address) as client:
            client._sock.sendall(encode_frame({"op": "serve", "id": 9}))
            reply = client._read_reply()
            assert reply.status == "error" and reply.request_id == 9
            assert "features" in reply.error
            # the error was per-request, not per-connection
            assert client.ping().status == "pong"

    @staticmethod
    def _assert_version_refused(gateway, request, version):
        """A frame stamped ``version`` draws the structured ``unsupported
        protocol version`` reply, then EOF — never a hang."""
        frame = bytearray(encode_serve_request(1, request))
        assert frame[4] == protocol.PROTOCOL_VERSION
        frame[4] = version
        with GatewayClient(*gateway.address, timeout=10.0) as client:
            client._sock.sendall(bytes(frame))
            reply = client._read_reply()
            assert reply.status == "error" and reply.request_id is None
            assert f"unsupported protocol version {version}" in reply.error
            assert client._sock.recv(1) == b""  # closed, not stalled
        with GatewayClient(*gateway.address) as client:
            assert client.ping().status == "pong"  # the gateway lives on

    def test_v1_prefix_gets_error_reply_and_clean_close(self, gateway,
                                                        gw_requests):
        self._assert_version_refused(gateway, gw_requests[0], 1)

    def test_v2_prefix_gets_error_reply_and_clean_close(self, gateway,
                                                        gw_requests):
        """A v2 peer could ask for the approximate operator per request;
        v3 serves only the exact one, so v2 is refused, not answered."""
        self._assert_version_refused(gateway, gw_requests[0], 2)

    def test_http_probes(self, gateway):
        for path, expect in (("/healthz", 200), ("/stats", 200),
                             ("/nope", 404)):
            conn = http.client.HTTPConnection(*gateway.address, timeout=10)
            try:
                conn.request("GET", path)
                response = conn.getresponse()
                body = json.loads(response.read())
            finally:
                conn.close()
            assert response.status == expect
            if path == "/healthz":
                assert body == {"status": "ok", "replicas": 1}
            elif path == "/stats":
                assert body["offered"] >= body["served"]

    def test_start_twice_raises(self, gateway):
        with pytest.raises(ServingError, match="already started"):
            gateway.start()

    def test_reply_carries_trace_breakdown(self, gateway, gw_requests):
        with GatewayClient(*gateway.address, encoding="binary") as client:
            reply = client.serve_batch(gw_requests[0])
        assert reply.ok
        assert isinstance(reply.trace_id, str) and len(reply.trace_id) == 16
        # the reply span is timed after encoding, so the wire breakdown
        # carries every stage known before it
        assert {"admission", "dispatch", "serve",
                "collect"} <= set(reply.stages)
        assert all(ms >= 0.0 for ms in reply.stages.values())

    def test_every_pipelined_reply_is_traced(self, gateway, gw_requests):
        """Tracing has no off switch: every ok reply carries its own trace
        id and the stage breakdown, and each is counted once."""
        served, completed = gateway.served, gateway.fleet.completed
        with GatewayClient(*gateway.address, encoding="binary") as client:
            ids = [client.submit(r) for r in gw_requests[:4]]
            replies = list(client.drain(len(ids)).values())
        assert all(reply.ok for reply in replies)
        trace_ids = {reply.trace_id for reply in replies}
        assert None not in trace_ids and len(trace_ids) == 4
        for reply in replies:
            assert {"admission", "dispatch", "serve",
                    "collect"} <= set(reply.stages)
        assert gateway.served - served == 4
        assert gateway.fleet.completed - completed == 4

    def test_slowest_trace_covers_all_gateway_stages(self, gateway,
                                                     gw_requests):
        """Acceptance: a slow request shows up with all five spans."""
        with GatewayClient(*gateway.address, encoding="binary") as client:
            for request in gw_requests[:3]:
                assert client.serve_batch(request).ok
        slowest = gateway.slowest(1)
        assert slowest, "served traffic must retain traces"
        stages = set(slowest[0].stages())
        assert {"admission", "dispatch", "serve", "collect",
                "reply"} <= stages
        assert {"serve.operator", "serve.forward"} <= stages

    def test_metrics_page_covers_every_layer(self, gateway, gw_requests):
        """Acceptance: GET /metrics is valid exposition, all core series."""
        from repro.telemetry import parse_exposition

        with GatewayClient(*gateway.address, encoding="binary") as client:
            for request in gw_requests[:2]:
                assert client.serve_batch(request).ok
        conn = http.client.HTTPConnection(*gateway.address, timeout=10)
        try:
            conn.request("GET", "/metrics")
            response = conn.getresponse()
            body = response.read().decode("utf-8")
        finally:
            conn.close()
        assert response.status == 200
        assert response.getheader("Content-Type").startswith(
            "text/plain; version=0.0.4")
        samples = parse_exposition(body)  # raises on malformed lines
        outcomes = {labels["outcome"]: value for labels, value
                    in samples["repro_gateway_requests_total"]}
        assert outcomes["offered"] >= outcomes["served"] >= 2.0
        fleet_outcomes = {labels["outcome"]: value for labels, value
                          in samples["repro_fleet_requests_total"]}
        assert fleet_outcomes["completed"] >= 2.0
        assert samples["repro_fleet_replica_served_total"]
        for gauge in ("repro_gateway_inflight", "repro_gateway_max_inflight",
                      "repro_gateway_draining", "repro_fleet_queue_depth",
                      "repro_fleet_replicas"):
            assert gauge in samples, f"missing gauge {gauge}"
        stage_counts = {(labels["component"], labels["stage"]): value
                        for labels, value
                        in samples["repro_stage_latency_seconds_count"]}
        for stage in ("admission", "reply"):
            assert stage_counts[("gateway", stage)] >= 2.0
        for stage in ("dispatch", "serve", "collect"):
            assert stage_counts[("fleet", stage)] >= 2.0

    def test_render_metrics_merges_gateway_and_fleet(self, gateway):
        page = gateway.render_metrics()
        assert page.count("# TYPE repro_stage_latency_seconds") == 1
        assert "repro_gateway_requests_total" in page
        assert "repro_fleet_requests_total" in page

    def test_stats_reports_shed_policy_state_and_slowest(self, gateway,
                                                         gw_requests):
        with GatewayClient(*gateway.address, encoding="binary") as client:
            assert client.serve_batch(gw_requests[0]).ok
        stats = gateway.stats()
        assert stats["shed_policy_state"] == {}  # no shed policy, no state
        assert stats["slowest"]
        entry = stats["slowest"][0]
        assert "trace_id" in entry and "stages_ms" in entry
        json.dumps(stats)  # the whole stats page must stay JSON-clean

    def test_watermark_stats_expose_hysteresis_state(self, gw_artifact):
        fleet = ServingFleet(gw_artifact, 1,
                             batch_mode="node")
        gw = ServingGateway(fleet, owns_fleet=True,
                            shed_policy=WatermarkShed(high=0.75, low=0.5))
        try:
            gw.start()
            state = gw.stats()["shed_policy_state"]
            assert state == {"shedding": False, "high": 0.75, "low": 0.5}
        finally:
            gw.close()

    def test_constructor_validation(self, gateway):
        with pytest.raises(ServingError):
            ServingGateway(gateway.fleet, max_inflight=0)
        with pytest.raises(ServingError):
            ServingGateway(gateway.fleet, autoscale_interval=0)
        with pytest.raises(ServingError):
            ServingGateway(gateway.fleet, scale_cooldown=-1)


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------
class TestGatewayAdmission:
    def test_watermark_burst_sheds_and_accounts_exactly(self, gw_artifact,
                                                        gw_requests):
        fleet = ServingFleet(gw_artifact, 1,
                            batch_mode="node")
        gateway = ServingGateway(
            fleet, owns_fleet=True, max_inflight=4,
            shed_policy=WatermarkShed(high=0.5, low=0.25,
                                      retry_after_ms=25.0))
        gateway.start()
        try:
            with GatewayClient(*gateway.address,
                               encoding="binary") as client:
                count = len([client.submit(r)
                             for r in gw_requests * 4])  # 48 >> cap 4
                replies = client.drain(count)
            ok = sum(r.ok for r in replies.values())
            shed = [r for r in replies.values() if r.status == "shed"]
            assert ok + len(shed) == count
            assert shed, "the burst never tripped the watermark"
            assert all(r.retry_after_ms is not None
                       and r.retry_after_ms > 0 for r in shed)
            stats = gateway.stats()
            assert stats["offered"] == count
            assert stats["served"] == ok
            assert stats["shed"] == len(shed)
            assert stats["errors"] == 0
            assert stats["inflight"] == 0
        finally:
            gateway.close()
        # close is idempotent and flips the draining flag
        gateway.close()
        assert gateway.stats()["draining"] is True
        with pytest.raises(OSError):
            socket.create_connection(gateway.address, timeout=1.0)

    def test_hard_cap_sheds_with_fallback_hint(self, gw_artifact,
                                               gw_requests):
        fleet = ServingFleet(gw_artifact, 1,
                            batch_mode="node")
        gateway = ServingGateway(fleet, owns_fleet=True, max_inflight=1,
                                 shed_policy=None)
        gateway.start()
        try:
            with GatewayClient(*gateway.address,
                               encoding="binary") as client:
                count = len([client.submit(r) for r in gw_requests])
                replies = client.drain(count)
            shed = [r for r in replies.values() if r.status == "shed"]
            assert shed, "the 1-slot cap never rejected a burst request"
            # the backstop still hints (>= the 50 ms floor)
            assert all(r.retry_after_ms >= 50.0 for r in shed)
            stats = gateway.stats()
            assert stats["served"] + stats["shed"] == stats["offered"]
        finally:
            gateway.close()


# ----------------------------------------------------------------------
# Autoscaling
# ----------------------------------------------------------------------
class TestGatewayAutoscale:
    def test_burst_scales_up_then_back_down(self, gw_artifact, gw_requests):
        import time

        fleet = ServingFleet(gw_artifact, 1,
                            batch_mode="node")
        gateway = ServingGateway(
            fleet, owns_fleet=True, max_inflight=1024,
            scale_policy=QueueDepthScale(min_replicas=1, max_replicas=2,
                                         up_backlog=2.0, down_backlog=0.5),
            autoscale_interval=0.05, scale_cooldown=0.3)
        gateway.start()
        try:
            with GatewayClient(*gateway.address,
                               encoding="binary") as client:
                client.serve_batch(gw_requests[0])  # warm the replica
                # the burst must outlast several 50 ms autoscaler ticks:
                # 96 requests drained within one tick in about half the
                # runs, and the policy never saw a backlog
                count = len([client.submit(r) for r in gw_requests * 32])
                replies = client.drain(count)
                assert all(r.ok for r in replies.values())
                events = list(gateway.scale_events)
                assert any(e["action"] == "up" for e in events)
                up = next(e for e in events if e["action"] == "up")
                assert (up["from"], up["to"]) == (1, 2)
                assert up["queue_depth"] >= 2
                assert up["t_s"] >= 0
                # traffic is gone: the policy walks the fleet back down
                deadline = time.monotonic() + 30.0
                while (gateway.fleet.num_replicas > 1
                       and time.monotonic() < deadline):
                    time.sleep(0.05)
                assert gateway.fleet.num_replicas == 1
                assert any(e["action"] == "down"
                           for e in gateway.scale_events)
                assert client.serve_batch(gw_requests[0]).ok
        finally:
            gateway.close()


# ----------------------------------------------------------------------
# api.open_gateway
# ----------------------------------------------------------------------
class TestOpenGateway:
    def test_round_trip_and_owned_fleet_closes(self, gw_bundle, gw_requests):
        gateway = api.open_gateway(gw_bundle, 1)
        try:
            assert gateway.port != 0
            with GatewayClient(*gateway.address) as client:
                assert client.serve_batch(gw_requests[0]).ok
            assert gateway.stats()["shed_policy"] == "watermark"
        finally:
            gateway.close()
        with pytest.raises(ServingError):
            gateway.fleet.submit(gw_requests[0])

    def test_default_shed_policy_is_fresh_per_gateway(self, gw_bundle):
        # WatermarkShed holds hysteresis state: a shared default would
        # leak one gateway's shedding into the next
        first = api.open_gateway(gw_bundle, 1, start=False)
        second = api.open_gateway(gw_bundle, 1, start=False)
        try:
            for gateway in (first, second):
                assert isinstance(gateway.shed_policy, WatermarkShed)
                assert gateway.scale_policy is None
            assert first.shed_policy is not second.shed_policy
        finally:
            first.close()
            second.close()

    def test_shed_policy_none_disables_shedding(self, gw_bundle):
        gateway = api.open_gateway(gw_bundle, 1, shed_policy=None,
                                   start=False)
        try:
            assert gateway.shed_policy is None
            assert gateway.stats()["shed_policy"] is None
        finally:
            gateway.close()

    def test_policy_instances_pass_through(self, gw_bundle):
        shed = WatermarkShed(high=0.6)
        scale = QueueDepthScale(max_replicas=3)
        gateway = api.open_gateway(gw_bundle, 1, shed_policy=shed,
                                   scale_policy=scale, start=False)
        try:
            assert gateway.shed_policy is shed
            assert gateway.scale_policy is scale
        finally:
            gateway.close()


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestGatewayCli:
    def test_top_polls_live_gateway(self, capsys, gateway, gw_requests):
        with GatewayClient(*gateway.address, encoding="binary") as client:
            assert client.serve_batch(gw_requests[0]).ok
        assert main(["top", "--host", gateway.host,
                     "--port", str(gateway.port)]) == 0
        out = capsys.readouterr().out
        assert "gateway" in out and "fleet" in out
        assert "admission" in out and "p95 ms" in out

    def test_top_unreachable_port_exits_2(self, capsys):
        assert main(["top", "--port", "1"]) == 2
        assert "cannot scrape" in capsys.readouterr().err

    def test_serve_gateway_bad_artifact_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.npz"
        bad.write_bytes(b"not an artifact")
        assert main(["serve-gateway", "--artifact", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err
