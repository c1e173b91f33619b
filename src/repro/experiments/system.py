"""Build and run one (workload × scheme) experiment.

:class:`ExperimentSystem` wires the full stack together — simulator,
seeded RNG streams, SSD/HDD devices, cache store and controller,
writeback flusher, iostat monitor, blktrace tracer, the workload, and
one registered :class:`~repro.schemes.base.Scheme` (resolved through
:mod:`repro.schemes.registry` — the paper's ``wb`` / ``sib`` / ``lbica``
trio plus any registered competitor) — runs it to the end of the
workload script, and collects a :class:`RunResult` holding everything
the figure generators need.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

from repro.cache.controller import CacheController, PolicyChange
from repro.cache.store import CacheStore
from repro.cache.write_policy import WritePolicy
from repro.cache.writeback import WritebackFlusher
from repro.config import SystemConfig
from repro.devices.base import StorageDevice
from repro.devices.hdd import HddModel
from repro.devices.ssd import SsdModel
from repro.io.request import Request
from repro.schemes.registry import get_scheme, paper_schemes
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.summation import left_sum
from repro.trace.blktrace import BlkTracer
from repro.trace.iostat import IntervalSample, IostatMonitor
from repro.workloads.mail import mail_server_workload
from repro.workloads.synthetic import (
    mixed_read_write_workload,
    random_read_workload,
    random_write_workload,
    sequential_read_workload,
    sequential_write_workload,
)
from repro.workloads.bootstorm import boot_storm_workload
from repro.workloads.multi_tenant import (
    MultiTenantWorkload,
    TenantSpec,
    bootstorm_neighbors_workload,
    consolidated3_workload,
)
from repro.workloads.tpcc import tpcc_workload
from repro.workloads.web import web_server_workload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.schemes.base import Scheme
    from repro.service.churn import ChurnManager
    from repro.service.slo import SloMonitor

    #: The comparison schemes of the paper's evaluation — derived from the
    #: scheme registry's ``paper_baseline`` flags.  This is the trio the
    #: default figure grids iterate; the full registered set — including
    #: the capacity-allocation competitors — is
    #: :func:`repro.schemes.scheme_names`.
    SCHEMES: tuple[str, ...]

__all__ = [
    "ExperimentSystem",
    "RunResult",
    "SCHEMES",
    "WORKLOADS",
    "register_consolidation",
    "resolve_workload_name",
    "workload_descriptions",
]


def __getattr__(name: str) -> tuple[str, ...]:
    # SCHEMES is computed on first access: deriving it imports every
    # scheme implementation, and building a system needs only its own.
    if name == "SCHEMES":
        schemes = globals()["SCHEMES"] = paper_schemes()
        return schemes
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _random_read(interval_us, cache_blocks, rate_scale, max_outstanding):
    """Group 1 synthetic: uniform random reads, mostly hits, misses promoted."""
    return random_read_workload(
        interval_us,
        cache_blocks=cache_blocks,
        rate_scale=rate_scale,
        max_outstanding=max_outstanding,
    )


def _random_write(interval_us, cache_blocks, rate_scale, max_outstanding):
    """Group 3 synthetic: random writes over a footprint far beyond the cache."""
    return random_write_workload(
        interval_us,
        cache_blocks=cache_blocks,
        rate_scale=rate_scale,
        max_outstanding=max_outstanding,
    )


def _seq_read(interval_us, cache_blocks, rate_scale, max_outstanding):
    """Group 4 synthetic: a cold sequential scan — every read misses and promotes."""
    return sequential_read_workload(
        interval_us,
        cache_blocks=cache_blocks,
        rate_scale=rate_scale,
        max_outstanding=max_outstanding,
    )


def _seq_write(interval_us, cache_blocks, rate_scale, max_outstanding):
    """Group 3 synthetic: a streaming sequential write over a huge span."""
    return sequential_write_workload(
        interval_us,
        cache_blocks=cache_blocks,
        rate_scale=rate_scale,
        max_outstanding=max_outstanding,
    )


def _mixed_rw(interval_us, cache_blocks, rate_scale, max_outstanding):
    """Group 2 synthetic: reads on a hot set mixed with medium-footprint writes."""
    return mixed_read_write_workload(
        interval_us,
        cache_blocks=cache_blocks,
        rate_scale=rate_scale,
        max_outstanding=max_outstanding,
    )


#: Workload factories by name: f(interval_us, cache_blocks, rate_scale,
#: max_outstanding) -> Workload.  Every factory carries a one-line
#: docstring — that line is what ``workload_descriptions`` (and the CLI's
#: ``--list-workloads``) print.
WORKLOADS: dict[str, Callable] = {
    "tpcc": tpcc_workload,
    "mail": mail_server_workload,
    "web": web_server_workload,
    "bootstorm": boot_storm_workload,
    "random_read": _random_read,
    "random_write": _random_write,
    "seq_read": _seq_read,
    "seq_write": _seq_write,
    "mixed_rw": _mixed_rw,
    # consolidated multi-VM scenarios (one shared cache, per-VM accounting)
    "consolidated3": consolidated3_workload,
    "bootstorm_neighbors": bootstorm_neighbors_workload,
}


def workload_descriptions() -> dict[str, str]:
    """Every registered workload with its one-line docstring, sorted by name."""
    out: dict[str, str] = {}
    for name, factory in sorted(WORKLOADS.items()):
        doc = factory.__doc__ or ""
        first = doc.strip().splitlines()[0].strip() if doc.strip() else ""
        out[name] = first or "(no description)"
    return out

#: Workload names that already build multi-tenant compositions —
#: consolidating one of these again would nest tenants, which the
#: completion routing cannot support.
_MULTI_TENANT_NAMES = {"consolidated3", "bootstorm_neighbors"}


def register_consolidation(names: Sequence[str]) -> str:
    """Register an ad-hoc multi-VM scenario composing registered workloads.

    The registered name encodes its own composition
    (``"vms:web+web"``-style), so a worker process that never saw this
    call can rebuild the factory from the name alone — which is what
    keeps ``--vms`` + ``--jobs`` working under the ``spawn`` start
    method, where the parent's registry mutation is invisible.

    Args:
        names: Registered single-tenant workload names, one per VM
            (repeats allowed — ``("web", "web")`` consolidates two
            identical web servers).

    Returns:
        The registered name (reused if already present).
    """
    if not names:
        raise ValueError("at least one workload name required")
    missing = [n for n in names if n not in WORKLOADS]
    if missing:
        raise ValueError(
            f"unknown workloads {missing}; choose from {sorted(WORKLOADS)}"
        )
    nested = [n for n in names if n in _MULTI_TENANT_NAMES]
    if nested:
        raise ValueError(
            f"workloads {nested} are already multi-tenant; "
            "nested consolidation is not supported"
        )
    scenario = "vms:" + "+".join(names)
    if scenario in WORKLOADS:
        return scenario
    specs = [TenantSpec(WORKLOADS[n]) for n in names]

    def factory(interval_us, cache_blocks, rate_scale, max_outstanding):
        return MultiTenantWorkload.compose(
            scenario,
            specs,
            interval_us,
            cache_blocks=cache_blocks,
            rate_scale=rate_scale,
            max_outstanding=max_outstanding,
        )

    factory.__doc__ = (
        f"Ad-hoc consolidation: {' + '.join(names)} as VMs on one shared cache."
    )
    WORKLOADS[scenario] = factory
    _MULTI_TENANT_NAMES.add(scenario)
    return scenario


def resolve_workload_name(name: str) -> str:
    """Validate a workload name against the registry; returns it.

    The single place name resolution lives: plain names must be
    registered, and self-describing ``"vms:a+b"`` consolidations are
    (re-)registered from their encoded component names — which also
    validates the components.  The CLI pre-flight, scenario-spec
    validation, and :meth:`ExperimentSystem.build` all call this.

    Raises:
        ValueError: On an unknown name or invalid consolidation.
    """
    if name.startswith("vms:"):
        register_consolidation(name[len("vms:"):].split("+"))
    elif name not in WORKLOADS:
        raise ValueError(
            f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}"
        )
    return name


@dataclass
class RunResult:
    """Everything collected from one experiment run."""

    workload: str
    scheme: str
    samples: list[IntervalSample]
    latencies: list[float]
    read_latencies: list[float]
    write_latencies: list[float]
    bypassed_requests: int
    cache_stats: dict
    store_stats: dict
    ssd_queue_stats: dict
    hdd_queue_stats: dict
    workload_stats: dict
    policy_log: list[PolicyChange]
    events_processed: int = 0
    #: The scheme's own decision log (``Scheme.decision_log()`` — one
    #: record per control-loop evaluation, scheme-specific type: an
    #: :class:`~repro.core.lbica.LbicaDecision` per lbica interval, a
    #: :class:`~repro.baselines.sib.SibRound` per sib round).
    scheme_decisions: list = field(default_factory=list)
    #: Scheme-specific summary counters (``Scheme.summary_stats()``).
    scheme_stats: dict = field(default_factory=dict)
    #: Per-VM breakdown, keyed by ``tenant_id`` (single-tenant runs
    #: have everything under tenant 0): completed / mean_latency /
    #: max_latency / read_hit_ratio / bypassed / reads / writes.
    tenant_stats: dict[int, dict] = field(default_factory=dict)
    #: Per-interval SLO compliance samples (plain dicts; empty for runs
    #: without declared SLO targets).
    slo_series: list = field(default_factory=list)
    #: SLO monitor summary counters (empty without declared targets).
    slo_stats: dict = field(default_factory=dict)
    #: Churn executor counters (empty for runs without tenant churn).
    service_stats: dict = field(default_factory=dict)
    #: Always-on cheap counters (blktrace record/drop totals); stored
    #: artifacts merge these into their ``perf`` section.
    perf_counters: dict = field(default_factory=dict)
    #: Telemetry payload from the obs layer (empty unless the run's
    #: config had ``obs.enabled``): metrics series + summaries, trace
    #: span counts, wall-clock totals.
    telemetry: dict = field(default_factory=dict)

    @property
    def tenant_ids(self) -> list[int]:
        """Tenants observed in this run, sorted."""
        return sorted(self.tenant_stats)

    @property
    def mean_latency(self) -> float:
        """Mean application latency over the whole run (µs)."""
        latencies = self.latencies
        return left_sum(latencies) / len(latencies) if latencies else 0.0

    @property
    def completed(self) -> int:
        """Completed application requests."""
        return len(self.latencies)

    def cache_load_series(self) -> list[float]:
        """Per-interval cache queue time (the Fig. 4 curve, µs)."""
        return [s.cache_qtime for s in self.samples]

    def disk_load_series(self) -> list[float]:
        """Per-interval disk queue time (the Fig. 5 curve, µs)."""
        return [s.disk_qtime for s in self.samples]

    def summary(self) -> str:
        """One-paragraph human-readable run summary."""
        text = (
            f"{self.workload}/{self.scheme}: {self.completed} requests, "
            f"mean latency {self.mean_latency:.1f}µs, "
            f"bypassed {self.bypassed_requests}, "
            f"hit ratio {self.cache_stats.get('read_hit_ratio', 0.0):.2%}, "
            f"peak cache Qtime {max(self.cache_load_series(), default=0.0):.0f}µs"
        )
        if len(self.tenant_stats) > 1:
            per_vm = ", ".join(
                f"vm{tid}: {ts['completed']} @ {ts['mean_latency']:.1f}µs"
                for tid, ts in sorted(self.tenant_stats.items())
            )
            text += f" [{per_vm}]"
        return text

    def tenant_table(self) -> str:
        """Fixed-width per-VM breakdown for reports."""
        lines = [
            f"{'vm':>4} {'completed':>10} {'mean µs':>10} {'hit ratio':>10} "
            f"{'bypassed':>9} {'reads':>8} {'writes':>8}"
        ]
        for tid in self.tenant_ids:
            ts = self.tenant_stats[tid]
            lines.append(
                f"{tid:>4} {ts['completed']:>10} {ts['mean_latency']:>10.1f} "
                f"{ts['read_hit_ratio']:>10.2%} {ts['bypassed']:>9} "
                f"{ts['reads']:>8} {ts['writes']:>8}"
            )
        return "\n".join(lines)


class ExperimentSystem:
    """One fully wired simulated storage system."""

    def __init__(
        self,
        workload,
        scheme: str,
        config: SystemConfig,
        trace_records: bool = True,
    ) -> None:
        # Resolve up front so an unknown name fails before any wiring —
        # the error names the registry and lists what *is* registered.
        scheme_cls = get_scheme(scheme)
        config.validate()
        self.config = config
        self.scheme = scheme
        self.workload = workload

        self.sim = Simulator()
        self.rngs = RngRegistry(config.seed)

        ssd_model = SsdModel(config.ssd, rng=self.rngs.stream("ssd.jitter"))
        hdd_rng = self.rngs.stream("hdd.jitter")
        if config.hdd_disks > 1:
            from repro.devices.array import StripedArrayModel

            hdd_model = StripedArrayModel(
                n_disks=config.hdd_disks, config=config.hdd, rng=hdd_rng
            )
            hdd_depth = config.hdd_depth * config.hdd_disks
        else:
            hdd_model = HddModel(config.hdd, rng=hdd_rng)
            hdd_depth = config.hdd_depth
        self.ssd = StorageDevice(
            self.sim,
            "ssd",
            ssd_model,
            depth=config.ssd_depth,
            max_merge_blocks=config.max_merge_blocks,
        )
        self.hdd = StorageDevice(
            self.sim,
            "hdd",
            hdd_model,
            depth=hdd_depth,
            max_merge_blocks=config.max_merge_blocks,
        )
        self.store = CacheStore(
            config.cache_blocks,
            associativity=config.cache_associativity,
            replacement=config.replacement,
        )
        self.controller = CacheController(
            self.sim, self.ssd, self.hdd, self.store, policy=WritePolicy.WB
        )
        # ``trace_records=False`` keeps the tracer in counters-only mode
        # (no per-transition record retention); batch runs use it since
        # records feed only post-hoc capture/replay, never the stats.
        self.tracer = BlkTracer(self.sim, record_events=trace_records)
        self.tracer.attach(self.ssd)
        self.tracer.attach(self.hdd)
        self.monitor = IostatMonitor(
            self.sim, self.ssd, self.hdd, interval_us=config.interval_us
        )
        self.flusher = WritebackFlusher(self.sim, self.controller, config.writeback)

        # The registry owns construction: ``Scheme.from_system`` builds
        # the scheme from its config block and attaches it to the wired
        # stack (installing any datapath hooks it needs, e.g. a cache
        # allocator, and deriving its tick period from the interval).
        self.balancer: Scheme = scheme_cls.from_system(self)

        # Service layer (opt-in): a churn executor when any tenant
        # declares a lifecycle event, an SLO monitor when any tenant
        # declares targets.  Lifecycle-free workloads build neither, so
        # their event sequences stay bit-identical.
        self.churn: ChurnManager | None = None
        if getattr(workload, "has_churn", False):
            from repro.service.churn import ChurnManager

            self.churn = ChurnManager(
                self.sim, self.controller, workload, balancer=self.balancer
            )
        slo_targets = getattr(workload, "slo_targets", None)
        targets = slo_targets() if callable(slo_targets) else {}
        self.slo_monitor: SloMonitor | None = None
        if targets:
            from repro.service.slo import SloMonitor

            self.slo_monitor = SloMonitor(
                self.sim,
                self.controller,
                targets,
                interval_us=config.interval_us,
                activity_probe=(
                    self.churn.is_active if self.churn is not None else None
                ),
            )
            self.controller.add_completion_hook(self.slo_monitor.record_completion)

        # request accounting
        self._latencies: list[float] = []
        self._read_latencies: list[float] = []
        self._write_latencies: list[float] = []
        self.controller.add_completion_hook(self._on_complete)
        self.controller.add_completion_hook(self.monitor.record_completion)
        self.controller.add_completion_hook(self.workload.on_request_complete)

        # Observability (opt-in): the telemetry orchestrator registers
        # sample hooks and completion/transition observers on the stack
        # built above.  A disabled config builds nothing — this branch is
        # the entire overhead of the obs layer when it is off.
        self.telemetry = None
        if config.obs.enabled:
            from repro.obs.runtime import RunTelemetry

            self.telemetry = RunTelemetry(self, config.obs)

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        workload_name: str,
        scheme: str,
        config: SystemConfig,
        trace_records: bool = True,
    ) -> "ExperimentSystem":
        """Construct a system from a registered workload name.

        ``"vms:a+b"``-style names are self-describing: if unknown, the
        consolidation is (re-)registered from the encoded workload
        names — a spawned worker process can therefore build ad-hoc
        scenarios its parent registered.
        """
        factory = WORKLOADS[resolve_workload_name(workload_name)]
        workload = factory(
            config.interval_us,
            cache_blocks=config.cache_blocks,
            rate_scale=config.rate_scale,
            max_outstanding=config.max_outstanding,
        )
        return cls(workload, scheme, config, trace_records=trace_records)

    @classmethod
    def from_spec(cls, spec, config: SystemConfig | None = None) -> "ExperimentSystem":
        """Build from a :class:`~repro.scenario.ScenarioSpec`.

        The scenario layer owns the data-to-system translation
        (registered vs inline workloads, fixed policies, config
        overrides); this delegates to :meth:`ScenarioSpec.build` so
        either layer can be the entry point.
        """
        return spec.build(config)

    # ------------------------------------------------------------------
    def _on_complete(self, request: Request) -> None:
        lat = request.complete_time - request.arrival
        self._latencies.append(lat)
        if request.is_write:
            self._write_latencies.append(lat)
        else:
            self._read_latencies.append(lat)

    # ------------------------------------------------------------------
    def warm_cache(self) -> int:
        """Pre-load the workload's warm set into the cache (clean).

        Returns the number of blocks inserted.  This reproduces the
        paper's "past its warm-up interval" assumption without paying the
        cold-miss path at simulation start.
        """
        count = 0
        for lba in getattr(self.workload, "warm_blocks", ()):
            self.store.insert(lba, 0.0, dirty=False)
            count += 1
        for lba in getattr(self.workload, "warm_dirty_blocks", ()):
            self.store.insert(lba, 0.0, dirty=True)
            count += 1
        return count

    def run(self, until_us: float | None = None) -> RunResult:
        """Run the workload to completion and collect results.

        Args:
            until_us: Optional horizon override (µs).  The default runs
                the workload script to its scripted end plus the
                configured drain; scenario smoke runs pass a short
                horizon to truncate.
        """
        self.warm_cache()
        self.monitor.start()
        self.flusher.start()
        self.balancer.start()
        # The churn executor starts before the workload binds so a
        # same-time arrival's rewarm precedes the tenant's first request.
        if self.churn is not None:
            self.churn.start()
        if self.slo_monitor is not None:
            self.slo_monitor.start()
        self.workload.bind(
            self.sim, self.controller.submit, self.rngs.stream("workload.arrivals")
        )
        horizon = until_us
        if horizon is None:
            horizon = self.workload.duration_us + (
                self.config.drain_intervals * self.config.interval_us
            )
        if self.telemetry is not None:
            self.telemetry.start(horizon)
        self.sim.run(until=horizon)
        if self.telemetry is not None:
            self.telemetry.finish()

        stats = self.controller.stats
        wl_stats = getattr(self.workload, "stats", None)
        tenant_stats: dict[int, dict] = {}
        for tid, ts in sorted(stats.tenants.items()):
            tenant_stats[tid] = {
                "completed": ts.completed,
                "mean_latency": ts.mean_latency,
                "max_latency": ts.max_latency,
                "read_hit_ratio": ts.read_hit_ratio,
                "bypassed": ts.bypassed,
                "reads": ts.reads,
                "writes": ts.writes,
            }
        return RunResult(
            workload=self.workload.name,
            scheme=self.scheme,
            samples=list(self.monitor.samples),
            latencies=self._latencies,
            read_latencies=self._read_latencies,
            write_latencies=self._write_latencies,
            bypassed_requests=sum(ts.bypassed for ts in stats.tenants.values()),
            cache_stats={
                "requests": stats.requests,
                "read_hit_ratio": stats.read_hit_ratio,
                "promotes_issued": stats.promotes_issued,
                "promotes_cancelled": stats.promotes_cancelled,
                "evict_flushes": stats.evict_flushes,
                "writes_bypassed": stats.writes_bypassed,
                "reads_bypassed": stats.reads_bypassed,
                "policy_switches": stats.policy_switches,
                "mean_latency": stats.mean_latency,
            },
            store_stats={
                "occupied": self.store.occupied,
                "dirty": self.store.dirty_count,
                "hit_ratio": self.store.stats.hit_ratio,
                "evictions": self.store.stats.evictions,
                "dirty_evictions": self.store.stats.dirty_evictions,
            },
            ssd_queue_stats=self.ssd.queue.stats.snapshot(),
            hdd_queue_stats=self.hdd.queue.stats.snapshot(),
            workload_stats={
                "generated": getattr(wl_stats, "generated", 0),
                "throttled": getattr(wl_stats, "throttled", 0),
                # Only replay runs drop records; emitting the key
                # conditionally keeps non-replay fingerprints (and every
                # committed golden) byte-identical.
                **(
                    {"skipped": skipped}
                    if (skipped := getattr(wl_stats, "skipped", 0))
                    else {}
                ),
            },
            policy_log=list(stats.policy_log),
            scheme_decisions=list(self.balancer.decision_log()),
            scheme_stats=self.balancer.summary_stats(),
            events_processed=self.sim.events_processed,
            tenant_stats=tenant_stats,
            slo_series=(
                [s.as_dict() for s in self.slo_monitor.samples]
                if self.slo_monitor is not None
                else []
            ),
            slo_stats=(
                self.slo_monitor.summary() if self.slo_monitor is not None else {}
            ),
            service_stats=self.churn.summary() if self.churn is not None else {},
            perf_counters={
                "trace_records": len(self.tracer.records),
                "trace_dropped": self.tracer.dropped,
                "trace_record_events": self.tracer.record_events,
            },
            telemetry=(
                self.telemetry.result_section()
                if self.telemetry is not None
                else {}
            ),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ExperimentSystem({self.workload.name}/{self.scheme})"
