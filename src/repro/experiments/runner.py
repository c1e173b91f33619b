"""Grid runner: execute scenario specs and cache results.

Every run — the figure generators' nine (workload × scheme)
combinations, ad-hoc grids, declarative sweeps — flows through one path:
a :class:`~repro.scenario.ScenarioSpec` is built (or given), and its
``run()`` produces the :class:`RunResult`.  :class:`ExperimentRunner`
memoizes by the spec's canonical JSON key, so a full ``fig4 + fig5 +
fig6 + fig7 + headline`` regeneration simulates each combination exactly
once.

Grids can be fanned out across processes: each scenario is an
independent simulation fully determined by its spec, so
:meth:`ExperimentRunner.run_many` (and :func:`run_spec_grid`) with
``max_workers > 1`` produce bit-identical results to the serial run —
workers share nothing, and every spec derives its randomness from its
config's root seed alone.  Completed results land in the same memo cache
the serial path uses.

With a :class:`~repro.store.RunStore` attached (the opt-in ``store=``
argument), every simulated spec is **written through** to disk as a
:class:`~repro.store.RunArtifact`, and :meth:`ExperimentRunner.
artifact_for` **reads through** the store — a key the store already
holds answers without simulating.  Artifacts are summaries (fingerprint,
latency summaries, per-tenant tables, perf counters), so anything that
needs a full :class:`RunResult` — figures, series — still simulates;
the campaign layer, which only needs summaries, is what read-through
makes resumable.  With ``store=None`` (the default) nothing changes:
results and goldens are bit-identical to a store-less build.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from typing import Iterable, Optional, Sequence

from repro.config import SystemConfig, paper_config
from repro.experiments.system import SCHEMES, RunResult
from repro.scenario.spec import ScenarioSpec
from repro.store.artifact import RunArtifact
from repro.store.run_store import RunKey, RunStore, StoreError, provenance

__all__ = [
    "ExperimentRunner",
    "run_grid",
    "run_spec_grid",
    "run_perf_counters",
    "PAPER_WORKLOADS",
]

#: The three evaluation workloads of Section IV.
PAPER_WORKLOADS = ("tpcc", "mail", "web")


def _simulate_spec_timed(spec: ScenarioSpec) -> tuple[RunResult, float]:
    """Worker entry point: run one spec, returning (result, wall seconds).

    The wall clock never feeds back into the simulation — it only lands
    in the stored artifact's ``perf`` section — so timed and untimed
    runs are bit-identical.
    """
    t0 = time.perf_counter()
    result = spec.run()
    return result, time.perf_counter() - t0


def run_perf_counters(result: RunResult, wall_s: Optional[float]) -> dict:
    """Perf counters for one run (timing block only when timed).

    The perf block of every stored artifact.  The result's own cheap
    counters (blktrace record/drop totals) are always included — trace
    truncation is visible even on untimed runs.
    """
    counters = dict(result.perf_counters)
    if wall_s is None:
        return counters
    counters.update(
        {
            "wall_clock_s": round(wall_s, 4),
            "events_processed": result.events_processed,
            "events_per_sec": round(result.events_processed / wall_s)
            if wall_s
            else 0,
            "completed_requests": result.completed,
            "simulated_ios_per_sec": round(result.completed / wall_s)
            if wall_s
            else 0,
        }
    )
    return counters


class ExperimentRunner:
    """Runs and memoizes experiment scenarios.

    The classic ``run(workload, scheme)`` interface is preserved — it
    wraps the runner's config and the combination into a
    :class:`ScenarioSpec` and feeds :meth:`run_spec`, which is also the
    entry point for caller-built specs.

    Args:
        config: Config the classic (workload, scheme) interface runs
            under (caller-built specs carry their own).
        verbose: Print per-scenario progress.
        store: Optional :class:`~repro.store.RunStore` — every simulated
            spec is written through to it, and :meth:`artifact_for`
            reads through it.  ``None`` (the default) leaves behavior
            bit-identical to a store-less runner.
    """

    def __init__(
        self,
        config: SystemConfig | None = None,
        verbose: bool = False,
        store: RunStore | None = None,
    ) -> None:
        self.config = config or paper_config()
        self.verbose = verbose
        self.store = store
        self._cache: dict[str, RunResult] = {}

    def spec_for(self, workload: str, scheme: str) -> ScenarioSpec:
        """The scenario spec one (workload, scheme) combination runs as."""
        return ScenarioSpec.from_config(
            self.config, workload=workload, scheme=scheme, name=f"{workload}/{scheme}"
        )

    def run(self, workload: str, scheme: str) -> RunResult:
        """Run one combination under the runner's config (memoized)."""
        return self.run_spec(self.spec_for(workload, scheme))

    def run_spec(self, spec: ScenarioSpec) -> RunResult:
        """Run one scenario spec (memoized by its canonical JSON key).

        With a store attached the fresh result is written through as a
        :class:`RunArtifact` — the simulation itself is untouched.
        """
        key = spec.key()
        if key not in self._cache:
            if self.verbose:
                print(f"[runner] simulating {spec.name} ...", flush=True)  # simlint: ignore[SL008] opt-in progress
            result, wall = _simulate_spec_timed(spec)
            self._cache[key] = result
            self._write_through(spec, result, wall)
            if self.verbose:
                print(f"[runner]   {self._cache[key].summary()}", flush=True)  # simlint: ignore[SL008] opt-in progress
        return self._cache[key]

    def _write_through(
        self, spec: ScenarioSpec, result: RunResult, wall_s: Optional[float]
    ) -> None:
        """Persist one simulated result into the attached store, if any.

        The artifact is stamped with this checkout's provenance.
        """
        if self.store is None:
            return
        self.store.put(
            RunArtifact.from_result(
                spec,
                result,
                perf=run_perf_counters(result, wall_s),
                provenance=provenance(),
            )
        )

    def artifact_for(self, spec: ScenarioSpec) -> RunArtifact:
        """The stored artifact for a spec, simulating only on a store miss.

        This is the read-through path: a key the store already holds
        (from any earlier process) answers from disk.  On a miss — or a
        corrupt/foreign-schema artifact, which is treated as a miss —
        the spec is simulated via :meth:`run_spec` (which writes
        through) and the fresh artifact is returned.  Requires a store.
        """
        if self.store is None:
            raise ValueError("artifact_for requires a runner with a store")
        run_key = RunKey.for_spec(spec)
        if self.store.contains(run_key):
            try:
                return self.store.get(run_key)
            except StoreError:
                pass  # unreadable artifact: fall through and heal it
        result = self.run_spec(spec)
        try:
            return self.store.get(run_key)
        except StoreError:
            # either run_spec was a memo hit (nothing simulated, nothing
            # written) or the on-disk artifact is still the unreadable
            # one — persist the in-memory result over it (untimed: perf
            # counters stay empty rather than invented)
            self._write_through(spec, result, None)
        return self.store.get(run_key)

    def run_specs(
        self, specs: Sequence[ScenarioSpec], max_workers: int = 1
    ) -> dict[str, RunResult]:
        """Run a list of specs; returns ``{spec.name: result}``.

        Args:
            specs: Scenarios to run (sweep specs are not expanded here —
                call :meth:`ScenarioSpec.expand` first).  Names must be
                unique; equal specs (same canonical key) are simulated
                once.
            max_workers: Process count for the fan-out.  ``1`` (the
                default) runs serially in this process; larger values
                simulate missing scenarios concurrently.  Results are
                identical either way, and memoization is shared:
                already-cached scenarios are never re-run.
        """
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        names = [spec.name for spec in specs]
        if len(set(names)) != len(names):
            raise ValueError("spec names must be unique within a grid")
        missing: dict[str, ScenarioSpec] = {}
        for spec in specs:
            key = spec.key()
            if key not in self._cache and key not in missing:
                missing[key] = spec
        if max_workers > 1 and len(missing) > 1:
            if self.verbose:
                print(  # simlint: ignore[SL008] opt-in progress
                    f"[runner] simulating {len(missing)} scenarios "
                    f"across {max_workers} workers ...",
                    flush=True,
                )
            with ProcessPoolExecutor(max_workers=max_workers) as pool:
                results = pool.map(_simulate_spec_timed, list(missing.values()))
                # zip streams: each result is cached (and written through
                # to the store) as it arrives, so a killed grid keeps
                # every completed scenario on disk
                for (key, spec), (result, wall) in zip(missing.items(), results):
                    self._cache[key] = result
                    self._write_through(spec, result, wall)
                    if self.verbose:
                        print(f"[runner]   {result.summary()}", flush=True)  # simlint: ignore[SL008] opt-in progress
        return {spec.name: self.run_spec(spec) for spec in specs}

    def run_many(
        self,
        workloads: Iterable[str] = PAPER_WORKLOADS,
        schemes: Iterable[str] = SCHEMES,
        max_workers: int = 1,
    ) -> dict[tuple[str, str], RunResult]:
        """Run a (workload × scheme) grid; returns ``{(workload, scheme): result}``.

        Args:
            workloads: Workload names (rows of the grid).
            schemes: Scheme names (columns of the grid).
            max_workers: Process count for the fan-out (see
                :meth:`run_specs`).
        """
        keys = [(w, s) for w in workloads for s in schemes]
        specs = {key: self.spec_for(*key) for key in dict.fromkeys(keys)}
        self.run_specs(list(specs.values()), max_workers=max_workers)
        return {key: self.run_spec(specs[key]) for key in keys}

    def invalidate(self) -> None:
        """Drop all memoized results."""
        self._cache.clear()


def run_grid(
    workloads: Sequence[str] = PAPER_WORKLOADS,
    schemes: Sequence[str] = SCHEMES,
    config: SystemConfig | None = None,
    verbose: bool = False,
    max_workers: int = 1,
) -> dict[tuple[str, str], RunResult]:
    """Convenience wrapper: run a fresh (workload × scheme) grid.

    ``max_workers > 1`` fans the combinations out across processes (see
    :meth:`ExperimentRunner.run_many`); serial and parallel runs of the
    same config/seed produce identical results.
    """
    return ExperimentRunner(config, verbose=verbose).run_many(
        workloads, schemes, max_workers=max_workers
    )


def run_spec_grid(
    specs: Sequence[ScenarioSpec],
    max_workers: int = 1,
    verbose: bool = False,
    store: RunStore | None = None,
) -> dict[str, RunResult]:
    """Run a scenario-spec grid (e.g. a ``sweep()`` expansion).

    Args:
        specs: Expanded scenario specs (names must be unique).
        max_workers: Process count; ``>1`` fans out via
            ``ProcessPoolExecutor`` with bit-identical results.
        verbose: Print per-scenario progress.
        store: Optional :class:`~repro.store.RunStore` to write every
            simulated result through to.

    Returns:
        ``{spec.name: result}`` in the given order.
    """
    return ExperimentRunner(verbose=verbose, store=store).run_specs(
        specs, max_workers=max_workers
    )
