"""Tests for the persistent run store (repro.store).

Covers the durability contract: atomic content-addressed writes,
corruption/truncation detection, schema-version refusal, index
self-healing under concurrent writers, and — the load-bearing one —
that a store-enabled run's artifact fingerprint is bit-identical to the
store-disabled goldens.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from repro.config import quick_config
from repro.experiments.runner import ExperimentRunner
from repro.scenario import ScenarioSpec, stats_fingerprint
from repro.store import (
    RunArtifact,
    RunKey,
    RunStore,
    SCHEMA_VERSION,
    SchemaMismatchError,
    StoreCorruptionError,
    StoreMissError,
    provenance,
)

_GOLDEN_PATH = (
    Path(__file__).resolve().parent.parent
    / "benchmarks"
    / "golden"
    / "suite_quick.json"
)


def tiny_spec(name: str = "tiny", scheme: str = "wb") -> ScenarioSpec:
    """A scenario small enough to simulate in milliseconds."""
    return ScenarioSpec(
        name=name, workload="web", scheme=scheme, base="quick", horizon_intervals=2
    )


def make_artifact(name: str = "tiny", scheme: str = "wb") -> RunArtifact:
    spec = tiny_spec(name, scheme)
    return RunArtifact.from_result(spec, spec.run(), provenance=provenance())


def _write_one(args) -> str:
    """Concurrent-writer worker: open the store fresh and put one artifact."""
    root, name = args
    store = RunStore(root)
    return store.put(make_artifact(name))


class TestRunKey:
    def test_key_is_deterministic_and_content_addressed(self):
        spec = tiny_spec()
        key = RunKey.for_spec(spec)
        assert key == RunKey.for_spec(tiny_spec())
        assert key.schema_version == SCHEMA_VERSION
        assert len(key.digest) == 64

    def test_key_changes_with_spec_config_and_schema(self):
        base = RunKey.for_spec(tiny_spec())
        assert RunKey.for_spec(tiny_spec(scheme="sib")).digest != base.digest
        assert (
            RunKey.for_spec(tiny_spec(), config=quick_config(seed=8)).digest
            != base.digest
        )
        bumped = RunKey(
            spec_key=base.spec_key,
            config_digest=base.config_digest,
            schema_version=SCHEMA_VERSION + 1,
        )
        assert bumped.digest != base.digest

    def test_key_matches_stored_payload(self):
        artifact = make_artifact()
        assert (
            RunKey.for_artifact(artifact).digest
            == RunKey.for_spec(tiny_spec()).digest
        )


class TestRoundTrip:
    def test_put_get_round_trip(self, tmp_path):
        store = RunStore(tmp_path / "store")
        artifact = make_artifact()
        digest = store.put(artifact)
        assert store.contains(digest)
        assert store.contains(RunKey.for_spec(tiny_spec()))
        loaded = store.get(digest)
        # exact payload round-trip (modulo the write's own JSON pass)
        assert loaded.to_dict() == json.loads(json.dumps(artifact.to_dict()))
        assert loaded.name == "tiny"
        assert loaded.latency_summaries()["overall"].count == loaded.completed

    def test_miss_raises_keyerror_subclass(self, tmp_path):
        store = RunStore(tmp_path)
        with pytest.raises(StoreMissError):
            store.get("0" * 64)
        assert not store.contains("0" * 64)

    def test_reput_same_key_overwrites(self, tmp_path):
        store = RunStore(tmp_path)
        artifact = make_artifact()
        assert store.put(artifact) == store.put(artifact)
        assert len(store.digests()) == 1

    def test_put_refuses_mismatched_key(self, tmp_path):
        store = RunStore(tmp_path)
        wrong = RunKey.for_spec(tiny_spec(scheme="sib"))
        with pytest.raises(Exception, match="does not hash"):
            store.put(make_artifact(), key=wrong)

    def test_no_temp_files_left_behind(self, tmp_path):
        store = RunStore(tmp_path)
        store.put(make_artifact())
        leftovers = [p for p in store.runs_dir.iterdir() if p.name.startswith(".tmp")]
        assert leftovers == []


class TestCorruptionDetection:
    def _stored(self, tmp_path) -> tuple[RunStore, str, Path]:
        store = RunStore(tmp_path)
        digest = store.put(make_artifact())
        return store, digest, store.path_for(digest)

    def test_truncated_artifact_detected(self, tmp_path):
        store, digest, path = self._stored(tmp_path)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        with pytest.raises(StoreCorruptionError, match="truncated|JSON"):
            store.get(digest)

    def test_bitflip_detected_by_checksum(self, tmp_path):
        store, digest, path = self._stored(tmp_path)
        envelope = json.loads(path.read_text())
        envelope["payload"]["fingerprint"]["completed"] += 1  # silent edit
        path.write_text(json.dumps(envelope))
        with pytest.raises(StoreCorruptionError, match="checksum"):
            store.get(digest)

    def test_renamed_file_detected(self, tmp_path):
        store, digest, path = self._stored(tmp_path)
        alias = "f" * 64
        path.rename(store.path_for(alias))
        with pytest.raises(StoreCorruptionError):
            store.get(alias)

    def test_non_envelope_json_detected(self, tmp_path):
        store, digest, path = self._stored(tmp_path)
        path.write_text(json.dumps({"hello": "world"}))
        with pytest.raises(StoreCorruptionError, match="envelope"):
            store.get(digest)

    def test_schema_version_mismatch_refused(self, tmp_path):
        store, digest, path = self._stored(tmp_path)
        envelope = json.loads(path.read_text())
        envelope["schema_version"] = SCHEMA_VERSION + 1
        path.write_text(json.dumps(envelope))
        # refusal happens before any checksum/payload interpretation
        with pytest.raises(SchemaMismatchError, match="refusing"):
            store.get(digest)


class TestIndex:
    """The store's listing is a scan of ``runs/``; there is no index file."""

    def test_concurrent_writers(self, tmp_path):
        root = str(tmp_path / "shared")
        names = [f"writer{i}" for i in range(6)] + ["writer0"]  # incl. a dup key
        with ProcessPoolExecutor(max_workers=3) as pool:
            digests = list(pool.map(_write_one, [(root, n) for n in names]))
        store = RunStore(root)
        # every artifact is independently readable
        assert set(store.digests()) == set(digests)
        for digest in set(digests):
            store.get(digest)
        assert sorted(p.name for p in store.root.iterdir()) == ["runs"]


class TestRunnerIntegration:
    def test_write_through_and_read_through(self, tmp_path):
        store = RunStore(tmp_path)
        runner = ExperimentRunner(store=store)
        spec = tiny_spec()
        result = runner.run_spec(spec)
        key = RunKey.for_spec(spec)
        assert store.contains(key)
        artifact = store.get(key)
        assert artifact.fingerprint == stats_fingerprint(result)
        assert artifact.perf["completed_requests"] == result.completed
        # read-through: a fresh runner answers from disk without simulating
        fresh = ExperimentRunner(store=store)
        assert fresh.artifact_for(spec).fingerprint == artifact.fingerprint
        assert fresh._cache == {}  # nothing was simulated

    def test_corrupt_artifact_resimulated_by_artifact_for(self, tmp_path):
        store = RunStore(tmp_path)
        runner = ExperimentRunner(store=store)
        spec = tiny_spec()
        before = runner.artifact_for(spec)
        store.path_for(RunKey.for_spec(spec)).write_text("{nope")
        healed = ExperimentRunner(store=store).artifact_for(spec)
        assert healed.fingerprint == before.fingerprint

    def test_corrupt_artifact_healed_from_memo_cache(self, tmp_path):
        # regression: with the result memo-cached, run_spec never
        # re-simulates, so artifact_for must rewrite the unreadable
        # artifact from the cached result instead of re-raising
        store = RunStore(tmp_path)
        runner = ExperimentRunner(store=store)
        spec = tiny_spec()
        before = runner.artifact_for(spec)  # simulates + memoizes + stores
        store.path_for(RunKey.for_spec(spec)).write_text("{nope")
        healed = runner.artifact_for(spec)  # same runner: memo hit
        assert healed.fingerprint == before.fingerprint
        assert store.get(RunKey.for_spec(spec)).fingerprint == before.fingerprint

    def test_parallel_grid_writes_through(self, tmp_path):
        store = RunStore(tmp_path)
        runner = ExperimentRunner(store=store)
        specs = tiny_spec().sweep(scheme=["wb", "sib", "lbica"])
        results = runner.run_specs(specs, max_workers=2)
        for spec in specs:
            artifact = store.get(RunKey.for_spec(spec))
            assert artifact.fingerprint == stats_fingerprint(results[spec.name])

    def test_store_disabled_results_bit_identical(self):
        spec = tiny_spec()
        assert stats_fingerprint(
            ExperimentRunner(store=None).run_spec(spec)
        ) == stats_fingerprint(spec.run())

    def test_store_enabled_run_matches_committed_golden(self, tmp_path):
        """The fingerprint-equivalence gate: store on == store off == golden."""
        golden = json.loads(_GOLDEN_PATH.read_text())
        store = RunStore(tmp_path)
        runner = ExperimentRunner(
            config=quick_config(golden["seed"]), store=store
        )
        artifact = runner.artifact_for(runner.spec_for("tpcc", "lbica"))
        normalized = json.loads(json.dumps(artifact.fingerprint, sort_keys=True))
        assert normalized == golden["scenarios"]["fig4_single_vm"]


class TestProvenance:
    def test_provenance_fields(self):
        prov = provenance()
        assert prov["repro_version"]
        assert "git_commit" in prov and "created_at" in prov
