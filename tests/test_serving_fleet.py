"""Fleet serving: round-robin dispatch, zero-copy mmap artifacts,
failover, hot swap."""

from __future__ import annotations

import gc
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import api
from repro.api import DeploymentBundle
from repro.cli import main
from repro.errors import ArtifactError, GraphError, ServingError
from repro.serving import (MicroBatchScheduler, ServeTask, ServingFleet,
                           ServingRuntime, replay_fleet, split_requests,
                           tasked_requests)
from repro.serving.prepared import PreparedDeployment
from repro.utils.artifacts import open_npz_archive, save_npz


# ----------------------------------------------------------------------
# Shared artifacts (session-cached: deploys and process spawns are slow)
# ----------------------------------------------------------------------
@pytest.fixture(scope="session")
def fleet_bundles(tmp_path_factory):
    """Deployed tiny-sim bundles + mmap-layout artifacts, per deployment."""
    root = tmp_path_factory.mktemp("fleet-artifacts")
    out = {}
    for deployment in ("synthetic", "original"):
        bundle = api.deploy("tiny-sim", "mcond", 9, profile="quick",
                            deployment=deployment)
        path = bundle.save(root / f"{deployment}.npz", layout="mmap")
        out[deployment] = (bundle, path)
    return out


@pytest.fixture(scope="session")
def prepared_pairs(fleet_bundles):
    """(eager, mmap, evaluation batch) per deployment kind."""
    pairs = {}
    for deployment, (bundle, path) in fleet_bundles.items():
        pairs[deployment] = (
            PreparedDeployment.from_bundle(DeploymentBundle.load(path)),
            PreparedDeployment.from_bundle(
                DeploymentBundle.load(path, mmap=True)),
            api.evaluation_batch(bundle))
    return pairs


@pytest.fixture(scope="session")
def synthetic_artifact(fleet_bundles):
    return fleet_bundles["synthetic"][1]


@pytest.fixture(scope="session")
def synthetic_requests(fleet_bundles):
    bundle, _ = fleet_bundles["synthetic"]
    return tasked_requests(
        split_requests(api.evaluation_batch(bundle), 16, 2), "predict")


# ----------------------------------------------------------------------
# Zero-copy artifact loading
# ----------------------------------------------------------------------
class TestMappedArchive:
    def test_mmap_round_trip_bitwise(self, tmp_path):
        payload = {
            "floats": np.arange(24, dtype=np.float64).reshape(4, 6),
            "ints": np.array([3, 1, 2], dtype=np.int64),
            "scalar": np.asarray(7),
            "text": np.asarray("hello artifact"),
            "empty": np.zeros((0, 3)),
        }
        path = save_npz(tmp_path / "raw.npz", payload, compressed=False)
        with open_npz_archive(path, mmap=True) as archive:
            assert sorted(archive.files) == sorted(payload)
            for name, want in payload.items():
                got = archive[name]
                assert np.array_equal(got, want)
                assert got.dtype == want.dtype
                assert not got.flags.writeable
            assert archive.mapped == set(payload)

    def test_compressed_members_fall_back_to_eager(self, tmp_path):
        payload = {"x": np.arange(10, dtype=np.float64)}
        path = save_npz(tmp_path / "deflated.npz", payload, compressed=True)
        with open_npz_archive(path, mmap=True) as archive:
            assert np.array_equal(archive["x"], payload["x"])
            assert archive.mapped == set()

    def test_mmap_arrays_survive_close(self, tmp_path):
        path = save_npz(tmp_path / "raw.npz",
                        {"x": np.arange(8.0)}, compressed=False)
        with open_npz_archive(path, mmap=True) as archive:
            view = archive["x"]
        assert view.sum() == 28.0

    def test_truncated_archive_raises_artifact_error(self, tmp_path):
        path = save_npz(tmp_path / "raw.npz",
                        {"x": np.arange(64.0)}, compressed=False)
        path.write_bytes(path.read_bytes()[:80])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            for mmap_flag in (False, True):
                with pytest.raises(ArtifactError):
                    with open_npz_archive(path, mmap=mmap_flag):
                        pass
            gc.collect()
        # the failure path closes the file itself, not the collector
        assert not [w for w in caught
                    if issubclass(w.category, ResourceWarning)]

    @pytest.mark.parametrize("mmap_flag", [False, True])
    def test_npy_payload_is_a_corrupt_archive(self, tmp_path, mmap_flag):
        # np.load would hand back a bare array for this file
        path = tmp_path / "array.npz"
        with open(path, "wb") as handle:
            np.save(handle, np.arange(4.0))
        with pytest.raises(ArtifactError, match="not a zip file"):
            with open_npz_archive(path, mmap=mmap_flag):
                pass

    def test_mid_read_corruption_raises_artifact_error(self, tmp_path):
        path = save_npz(tmp_path / "big.npz",
                        {f"arr{i}": np.random.default_rng(i).normal(size=256)
                         for i in range(4)})
        data = bytearray(path.read_bytes())
        mid = len(data) // 3
        data[mid:mid + 32] = b"\x00" * 32  # member payload, central dir intact
        path.write_bytes(bytes(data))
        with pytest.raises(ArtifactError, match="cannot read"):
            with open_npz_archive(path) as archive:
                for name in archive.files:
                    archive[name]

    def test_repro_errors_pass_through_untranslated(self, tmp_path):
        path = save_npz(tmp_path / "ok.npz", {"x": np.arange(4.0)})
        with pytest.raises(GraphError):
            with open_npz_archive(path):
                raise GraphError("domain failure, not a read failure")


class TestBundleMmapParity:
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_serve_batch_bitwise_identical(self, prepared_pairs, data):
        """Property: mmap- and eager-loaded deployments serve identical
        bits across graph/node batches, both deployment kinds, and any
        request slice."""
        deployment = data.draw(st.sampled_from(["synthetic", "original"]))
        mode = data.draw(st.sampled_from(["graph", "node"]))
        eager, mapped, batch = prepared_pairs[deployment]
        size = data.draw(st.integers(min_value=1,
                                     max_value=min(8, batch.num_nodes)))
        start = data.draw(st.integers(min_value=0,
                                      max_value=batch.num_nodes - size))
        subset = batch.subset(np.arange(start, start + size))
        left, _, _ = eager.serve_batch(subset, mode)
        right, _, _ = mapped.serve_batch(subset, mode)
        assert left.dtype == right.dtype
        assert np.array_equal(left, right)

    def test_warm_base_and_frozen_paths_match(self, prepared_pairs):
        eager, mapped, batch = prepared_pairs["original"]
        assert np.array_equal(eager.warm_base(), mapped.warm_base())
        subset = batch.subset(np.arange(4))
        left, _, _ = eager.serve_batch_frozen(subset, "node")
        right, _, _ = mapped.serve_batch_frozen(subset, "node")
        assert np.array_equal(left, right)

    def test_mmap_features_are_readonly_views(self, fleet_bundles):
        _, path = fleet_bundles["original"]
        prepared = PreparedDeployment.from_bundle(
            DeploymentBundle.load(path, mmap=True))
        assert not prepared.base_features.flags.writeable


# ----------------------------------------------------------------------
# The fleet itself
# ----------------------------------------------------------------------
class TestServingFleet:
    def test_fleet_matches_prepared_bitwise(self, synthetic_artifact,
                                            synthetic_requests):
        prepared = PreparedDeployment.from_bundle(
            DeploymentBundle.load(synthetic_artifact))
        expected = [prepared.serve_batch(r.batch, "node")[0]
                    for r in synthetic_requests]
        with ServingFleet(synthetic_artifact, 2,
                          batch_mode="node") as fleet:
            results = replay_fleet(fleet, synthetic_requests)
        for got, want in zip(results, expected):
            assert got is not None
            assert np.array_equal(got, want)

    def test_failover_loses_no_request(self, synthetic_artifact,
                                       synthetic_requests):
        with ServingFleet(synthetic_artifact, 2,
                          batch_mode="node") as fleet:
            futures = [fleet.submit(r) for r in synthetic_requests]
            fleet.kill_replica(0)
            futures += [fleet.submit(r) for r in synthetic_requests]
            results = [f.result(timeout=120.0) for f in futures]
            stats = fleet.stats()
        assert all(r is not None for r in results)
        assert stats["failed"] == 0
        assert stats["completed"] == 2 * len(synthetic_requests)
        assert stats["respawns"] >= 1

    def test_per_replica_served_sums_to_completed_after_respawn(
            self, synthetic_artifact, synthetic_requests):
        # the per-replica count lives on the slot, so a respawned replica
        # neither forgets what the slot served before nor double counts
        with ServingFleet(synthetic_artifact, 2,
                          batch_mode="node") as fleet:
            replay_fleet(fleet, synthetic_requests[:4])
            fleet.kill_replica(0)
            futures = [fleet.submit(r) for r in synthetic_requests[4:]]
            assert all(f.result(timeout=120.0) is not None for f in futures)
            deadline = time.monotonic() + 60.0
            while (fleet.stats()["respawns"] < 1
                   and time.monotonic() < deadline):
                time.sleep(0.05)
            stats = fleet.stats()
        assert stats["respawns"] >= 1
        assert stats["per_replica"]["0"]["generation"] >= 1
        assert stats["completed"] == len(synthetic_requests)
        assert sum(r["served"] for r in stats["per_replica"].values()) == (
            stats["completed"])

    def test_hot_swap_rolls_to_new_artifact(self, synthetic_artifact,
                                            synthetic_requests, tmp_path):
        swapped = api.deploy("tiny-sim", "mcond", 6, profile="quick")
        swapped_path = swapped.save(tmp_path / "swap.npz", layout="mmap")
        want = PreparedDeployment.from_bundle(
            DeploymentBundle.load(swapped_path)).serve_batch(
                synthetic_requests[0].batch, "node")[0]
        with ServingFleet(synthetic_artifact, 2,
                          batch_mode="node") as fleet:
            futures = [fleet.submit(r) for r in synthetic_requests]
            fleet.swap(swapped_path)
            assert all(f.result(timeout=120.0) is not None for f in futures)
            got = fleet.submit(
                synthetic_requests[0]).result(timeout=120.0)
            stats = fleet.stats()
        assert np.array_equal(got, want)
        assert stats["failed"] == 0
        assert all(r["generation"] >= 1
                   for r in stats["per_replica"].values())

    def test_round_robin_spreads_requests_evenly(self, synthetic_artifact,
                                                 synthetic_requests):
        with ServingFleet(synthetic_artifact, 2,
                          batch_mode="node") as fleet:
            replay_fleet(fleet, synthetic_requests[:8])
            served = [r["served"]
                      for r in fleet.stats()["per_replica"].values()]
        assert served == [4, 4]

    def test_fleet_traces_cover_dispatch_serve_collect(
            self, synthetic_artifact, synthetic_requests):
        with ServingFleet(synthetic_artifact, 1,
                          batch_mode="node") as fleet:
            future = fleet.submit(synthetic_requests[0])
            assert future.result(timeout=120.0) is not None
            assert future.trace is not None
            stages = set(future.trace.stages())
            assert {"dispatch", "serve", "collect"} <= stages
            assert {"serve.operator", "serve.forward"} <= stages
            assert fleet.slowest(1)[0] is future.trace

    def test_every_request_is_traced_and_counted_once(
            self, synthetic_artifact, synthetic_requests):
        """Tracing has no off switch: each future carries its own trace,
        the ring retains them, and the counters stay exact."""
        with ServingFleet(synthetic_artifact, 1,
                          batch_mode="node") as fleet:
            futures = [fleet.submit(r) for r in synthetic_requests[:3]]
            assert all(f.result(timeout=120.0) is not None for f in futures)
            traces = [future.trace for future in futures]
            assert len({trace.trace_id for trace in traces}) == 3
            for trace in traces:
                assert {"dispatch", "serve",
                        "collect"} <= set(trace.stages())
            assert ({id(trace) for trace in fleet.slowest(5)}
                    == {id(trace) for trace in traces})
            stats = fleet.stats()
        assert stats["completed"] == 3
        assert sum(r["served"] for r in stats["per_replica"].values()) == 3
        assert stats["latency_p50_ms"] is not None

    def test_submit_after_close_raises(self, synthetic_artifact,
                                       synthetic_requests):
        fleet = ServingFleet(synthetic_artifact, 1, batch_mode="node")
        fleet.close()
        with pytest.raises(ServingError):
            fleet.submit(synthetic_requests[0])

    def test_open_fleet_from_bundle_owns_temp_artifact(self, fleet_bundles,
                                                       synthetic_requests):
        bundle, _ = fleet_bundles["synthetic"]
        fleet = api.open_fleet(bundle, replicas=1, batch_mode="node")
        artifact = fleet.pool.artifact
        try:
            assert artifact.exists()
            assert fleet.owns_artifact
            result = fleet.submit(
                synthetic_requests[0]).result(timeout=120.0)
            assert result is not None
        finally:
            fleet.close()
        assert not artifact.exists()

    def test_invalid_configuration_rejected(self, synthetic_artifact):
        with pytest.raises(ServingError):
            ServingFleet(synthetic_artifact, 0)
        with pytest.raises(ServingError):
            ServingFleet(synthetic_artifact, 1, batch_mode="banana")

    def test_parked_request_fails_once_on_close(self, synthetic_artifact,
                                                synthetic_requests):
        fleet = ServingFleet(synthetic_artifact, 1, batch_mode="node")
        try:
            with fleet._lock:
                # no ready candidate: the submit below parks as an orphan
                fleet.pool.replicas[0].state = "draining"
            future = fleet.submit(synthetic_requests[0])
            assert not future.done()
        finally:
            fleet.close(drain=False)
        with pytest.raises(ServingError):
            future.result(timeout=1.0)
        stats = fleet.stats()
        assert stats["failed"] == 1  # not double-counted via the orphan deque
        assert stats["pending"] == 0

    def test_open_fleet_cleans_temp_artifact_on_failure(self, fleet_bundles):
        import tempfile
        from pathlib import Path

        bundle, _ = fleet_bundles["synthetic"]
        tmp = Path(tempfile.gettempdir())
        before = set(tmp.glob("repro-fleet-*.npz"))
        with pytest.raises(ServingError):
            api.open_fleet(bundle, replicas=1, batch_mode="banana")
        assert set(tmp.glob("repro-fleet-*.npz")) == before


class TestRequestIsolation:
    """A replica serves every request alone; on a synthetic SGC
    deployment that is what the request gets inside any micro-batch."""

    @pytest.fixture(scope="class")
    def fleet(self, synthetic_artifact):
        with ServingFleet(synthetic_artifact, 1, batch_mode="node") as fleet:
            yield fleet

    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_fleet_reply_equals_the_micro_batched_one(
            self, fleet, fleet_bundles, isolation_requests, assert_isolated,
            data):
        bundle, _ = fleet_bundles["synthetic"]
        requests = isolation_requests(data, api.evaluation_batch(bundle))
        runtime = ServingRuntime(bundle.prepare(),
                                 scheduler=MicroBatchScheduler(8, 0.0),
                                 batch_mode="node")
        for task in ("embed", "predict"):
            tasks = [ServeTask(request, task=task) for request in requests]
            futures = [runtime.submit(t) for t in tasks]
            assert runtime.run_pending() == len(tasks)
            alone = [fleet.submit(t).result(timeout=120.0) for t in tasks]
            assert_isolated(task, alone, [f.result() for f in futures])


# ----------------------------------------------------------------------
# CLI integration + corrupt-artifact regressions
# ----------------------------------------------------------------------
class TestFleetCli:
    def test_serve_fleet_roundtrip(self, capsys, synthetic_artifact):
        code = main(["serve-fleet", "--artifact", str(synthetic_artifact),
                     "--replicas", "1", "--requests", "4",
                     "--nodes-per-request", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "req/s" in out
        assert "served 4/4" in out


class TestCorruptArtifactRegression:
    def test_serve_truncated_artifact_exits_2(self, capsys,
                                              synthetic_artifact, tmp_path):
        truncated = tmp_path / "truncated.npz"
        truncated.write_bytes(synthetic_artifact.read_bytes()[:1500])
        code = main(["serve", "--artifact", str(truncated),
                     "--batch-mode", "node"])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "truncated.npz" in err

    def test_serve_mid_corrupt_artifact_exits_2(self, capsys, fleet_bundles,
                                                tmp_path):
        bundle, _ = fleet_bundles["synthetic"]
        source = bundle.save(tmp_path / "ok.npz")  # compressed layout
        data = bytearray(source.read_bytes())
        mid = len(data) * 2 // 5
        data[mid:mid + 48] = b"\x00" * 48
        corrupt = tmp_path / "corrupt.npz"
        corrupt.write_bytes(bytes(data))
        code = main(["serve", "--artifact", str(corrupt),
                     "--batch-mode", "node"])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "corrupt" in err

    def test_serve_online_corrupt_artifact_exits_2(self, capsys, tmp_path):
        not_npz = tmp_path / "plain.npz"
        not_npz.write_text("definitely not a zip archive")
        code = main(["serve-online", "--artifact", str(not_npz),
                     "--requests", "4"])
        assert code == 2
        assert "error:" in capsys.readouterr().err
