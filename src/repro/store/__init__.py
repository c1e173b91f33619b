"""Persistent run store: content-addressed on-disk experiment results.

- :mod:`repro.store.artifact` — :class:`RunArtifact`, the JSON document
  stored per run (scenario spec, exact config, deterministic stats
  fingerprint, per-tenant tables, latency summaries, perf counters,
  provenance);
- :mod:`repro.store.run_store` — :class:`RunKey` (the content address:
  scenario canonical key + :class:`~repro.config.SystemConfig` digest +
  store schema version) and :class:`RunStore` (atomic writes under
  ``runs/`` with an index file, corruption detection, schema-version
  refusal).

The store is what makes experiment campaigns resumable: a key is fully
determined by *what would be simulated*, so a re-run of the same
scenario under the same config is a store hit and never simulates.
:class:`~repro.experiments.runner.ExperimentRunner` write-throughs every
simulated spec when given a ``store=``, and :mod:`repro.campaign` skips
keys the store already holds.

Quickstart::

    from repro.scenario import ScenarioSpec
    from repro.store import RunStore
    from repro.experiments.runner import ExperimentRunner

    store = RunStore("results/store")
    runner = ExperimentRunner(store=store)
    runner.run_spec(ScenarioSpec(name="demo", workload="web", base="quick"))
    print(store.digests())          # ['<sha256...>']
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.store.artifact import RunArtifact
    from repro.store.run_store import (
        SCHEMA_VERSION,
        RunKey,
        RunStore,
        SchemaMismatchError,
        StoreCorruptionError,
        StoreError,
        StoreMissError,
        provenance,
    )

__all__ = [
    "RunArtifact",
    "RunKey",
    "RunStore",
    "SCHEMA_VERSION",
    "StoreError",
    "StoreCorruptionError",
    "SchemaMismatchError",
    "StoreMissError",
    "provenance",
]

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.store.artifact": ("RunArtifact",),
        "repro.store.run_store": (
            "SCHEMA_VERSION",
            "RunKey",
            "RunStore",
            "SchemaMismatchError",
            "StoreCorruptionError",
            "StoreError",
            "StoreMissError",
            "provenance",
        ),
    },
)
