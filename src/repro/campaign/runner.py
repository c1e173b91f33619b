"""Resumable campaign execution over a persistent run store.

:func:`run_campaign` expands a :class:`~repro.campaign.spec.CampaignSpec`
into its scenario grid, skips every scenario whose
:class:`~repro.store.RunKey` the store already holds (a **store hit** —
nothing is simulated), and runs the rest in shards through
:class:`~repro.experiments.runner.ExperimentRunner` with the store
attached.  Each shard's results are written through to disk as they
complete, so a killed campaign loses at most the in-flight shard: the
next invocation reports everything already on disk as store hits and
only simulates the remainder.

Corrupt or foreign-schema artifacts are treated as misses (re-simulated
and rewritten), so a damaged store heals instead of wedging the
campaign.
"""

from __future__ import annotations

import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.campaign.spec import CampaignSpec
from repro.experiments.runner import ExperimentRunner
from repro.scenario.spec import ScenarioSpec
from repro.store.artifact import RunArtifact
from repro.store.run_store import RunKey, RunStore, StoreError

__all__ = ["CampaignRun", "run_campaign"]


@dataclass
class CampaignRun:
    """What one campaign invocation did.

    Attributes:
        campaign: The campaign name.
        hits: Scenario names answered from the store (no simulation).
        simulated: Scenario names simulated this invocation.
        healed: Scenario names whose stored artifact was unreadable and
            got re-simulated.
        artifacts: Every scenario's artifact by name (hits + fresh).
    """

    campaign: str
    hits: list[str] = field(default_factory=list)
    simulated: list[str] = field(default_factory=list)
    healed: list[str] = field(default_factory=list)
    artifacts: dict[str, RunArtifact] = field(default_factory=dict)

    @property
    def total(self) -> int:
        """Scenarios in the campaign grid."""
        return len(self.hits) + len(self.simulated)

    def summary(self) -> str:
        """The one-line outcome (what the CLI prints and CI greps)."""
        text = (
            f"campaign {self.campaign}: {self.total} scenarios — "
            f"{len(self.hits)} store hits, {len(self.simulated)} simulated"
        )
        if self.healed:
            text += f" ({len(self.healed)} healed from corrupt artifacts)"
        return text


def _shards(items: list[ScenarioSpec], size: int) -> list[list[ScenarioSpec]]:
    """Split ``items`` into consecutive shards of at most ``size``."""
    return [items[i : i + size] for i in range(0, len(items), size)]


def _heartbeat_loop(
    stop: threading.Event,
    interval_s: float,
    progress: dict,
    total: int,
    hits: int,
) -> None:
    """Print a campaign progress line every ``interval_s`` wall seconds.

    Runs on a daemon thread; reads only the shared ``progress`` counter
    (updated between shards) and wall time, so it never touches — or
    perturbs — a simulation.  Output goes to stderr: stdout stays
    parseable for CI greps.
    """
    t0 = time.perf_counter()
    while not stop.wait(interval_s):
        done = progress["done"]
        elapsed = time.perf_counter() - t0
        line = (
            f"[campaign] heartbeat: {hits + done}/{total} scenarios "
            f"({hits} store hits, {done} simulated), wall {elapsed:.0f}s"
        )
        remaining = total - hits - done
        if done and remaining > 0:
            eta = elapsed / done * remaining
            line += f", eta {eta:.0f}s"
        print(line, file=sys.stderr, flush=True)


def run_campaign(
    campaign: CampaignSpec,
    store: RunStore,
    jobs: Optional[int] = None,
    shard_size: int = 8,
    verbose: bool = True,
    heartbeat_s: float = 0.0,
) -> CampaignRun:
    """Run (or resume) a campaign against a store.

    Args:
        campaign: The campaign to run.
        store: Run store holding completed scenarios; every fresh result
            is written through to it.
        jobs: Process fan-out per shard (defaults to the campaign's own
            ``jobs`` field).
        shard_size: Scenarios per shard.  Each shard gets a fresh
            :class:`ExperimentRunner`, which bounds the in-memory
            ``RunResult`` footprint — the store, not the memo cache, is
            the cross-shard memory.
        verbose: Print progress (store hits, per-shard completion).
        heartbeat_s: When positive, print a live progress line
            (scenarios done, wall time, ETA) to stderr every this many
            wall-clock seconds while shards simulate.

    Returns:
        A :class:`CampaignRun` with every scenario's artifact.
    """
    if shard_size < 1:
        raise ValueError("shard_size must be >= 1")
    workers = campaign.jobs if jobs is None else jobs
    if workers < 1:
        raise ValueError("jobs must be >= 1")
    specs = campaign.expand()
    run = CampaignRun(campaign=campaign.name)

    missing = []
    for spec in specs:
        key = RunKey.for_spec(spec)
        if store.contains(key):
            try:
                run.artifacts[spec.name] = store.get(key)
                run.hits.append(spec.name)
                continue
            except StoreError as exc:
                run.healed.append(spec.name)
                if verbose:
                    print(  # simlint: ignore[SL008] opt-in progress output
                        f"[campaign] {spec.name}: stored artifact unreadable "
                        f"({exc}); re-simulating",
                        flush=True,
                    )
        missing.append(spec)
    if verbose:
        print(  # simlint: ignore[SL008] opt-in progress output
            f"[campaign] {campaign.name}: {len(specs)} scenarios — "
            f"{len(run.hits)} already stored, {len(missing)} to simulate "
            f"(jobs={workers})",
            flush=True,
        )

    progress = {"done": 0}
    stop: Optional[threading.Event] = None
    beat: Optional[threading.Thread] = None
    if heartbeat_s > 0 and missing:
        stop = threading.Event()
        beat = threading.Thread(
            target=_heartbeat_loop,
            args=(stop, heartbeat_s, progress, len(specs), len(run.hits)),
            daemon=True,
        )
        beat.start()
    try:
        for shard in _shards(missing, shard_size):
            # a fresh runner per shard: the store carries results across
            # shards (and invocations), the memo cache only within one
            runner = ExperimentRunner(store=store, verbose=verbose)
            runner.run_specs(shard, max_workers=workers)
            progress["done"] += len(shard)
            for spec in shard:
                run.artifacts[spec.name] = store.get(RunKey.for_spec(spec))
                run.simulated.append(spec.name)
            if verbose and missing:
                print(  # simlint: ignore[SL008] opt-in progress output
                    f"[campaign] progress: {progress['done']}/{len(missing)} "
                    f"simulated ({len(run.hits) + progress['done']}"
                    f"/{len(specs)} total)",
                    flush=True,
                )
    finally:
        if stop is not None:
            stop.set()
        if beat is not None:
            beat.join(timeout=1.0)
    if verbose:
        print(f"[campaign] {run.summary()}", flush=True)  # simlint: ignore[SL008] opt-in progress
    return run
