"""Property-based tests for the tenant-churn service layer.

The acceptance-critical invariants: under *arbitrary* interleavings of
tenant arrivals, departures, inserts, and evictions, the
:class:`QuotaAllocator` accounting never goes negative, quotas never sum
past the cache capacity, and a departed tenant's blocks are fully
reclaimed (accounting and store both).  The churn manager itself is
exercised against a real controller with a duck-typed workload.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cache.controller import CacheController
from repro.cache.store import CacheStore
from repro.devices.base import StorageDevice
from repro.devices.hdd import HddConfig, HddModel
from repro.devices.ssd import SsdConfig, SsdModel
from repro.io.request import Request
from repro.schemes.allocation import CapacityScheme, QuotaAllocator, fair_shares
from repro.service import (
    ChurnManager,
    ServiceError,
    SloMonitor,
    SloTarget,
    TenantLifecycle,
    generate_lifecycles,
)
from repro.sim.engine import Simulator

# ---------------------------------------------------------------------------
# Declarations: SLO targets, lifecycles, the churn process
# ---------------------------------------------------------------------------


class TestSloTarget:
    def test_requires_at_least_one_objective(self):
        with pytest.raises(ServiceError):
            SloTarget().validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"p99_latency_us": 0.0},
            {"p99_latency_us": -5.0},
            {"min_hit_ratio": -0.1},
            {"min_hit_ratio": 1.5},
        ],
    )
    def test_rejects_out_of_range(self, kwargs):
        with pytest.raises(ServiceError):
            SloTarget(**kwargs).validate()

    def test_from_spec_strict_keys(self):
        with pytest.raises(ServiceError, match="unknown slo keys"):
            SloTarget.from_spec({"p99_latency_us": 1.0, "p99": 1.0}, "t")

    def test_from_spec_round_trip(self):
        target = SloTarget.from_spec(
            {"p99_latency_us": 100, "min_hit_ratio": 0.5}, "t"
        )
        assert target.as_dict() == {
            "p99_latency_us": 100.0,
            "min_hit_ratio": 0.5,
        }


class TestTenantLifecycle:
    def test_static_default_has_no_churn(self):
        lifecycle = TenantLifecycle()
        lifecycle.validate()
        assert not lifecycle.has_churn

    def test_slo_only_lifecycle_is_not_churn(self):
        lifecycle = TenantLifecycle(slo=SloTarget(p99_latency_us=100.0))
        lifecycle.validate()
        assert not lifecycle.has_churn

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"arrive_at_us": -1.0},
            {"arrive_at_us": 50.0, "depart_at_us": 50.0},
            {"depart_at_us": 0.0},
            {"migrate_at_us": (10.0, 10.0)},
            {"arrive_at_us": 20.0, "migrate_at_us": (10.0,)},
            {"migrate_at_us": (90.0,), "depart_at_us": 80.0},
            {"slo": SloTarget()},
        ],
    )
    def test_rejects_inconsistent(self, kwargs):
        with pytest.raises(ServiceError):
            TenantLifecycle(**kwargs).validate()


class TestChurnProcess:
    def test_deterministic_for_seed(self):
        a = generate_lifecycles(6, 1000.0, seed=42)
        b = generate_lifecycles(6, 1000.0, seed=42)
        assert a == b
        assert a != generate_lifecycles(6, 1000.0, seed=43)

    def test_keep_first_pins_tenant_zero(self):
        lifecycles = generate_lifecycles(4, 1000.0, seed=1, keep_first=True)
        assert lifecycles[0] == TenantLifecycle()
        assert all(lc.has_churn for lc in lifecycles[1:])

    def test_appending_tenant_preserves_existing_draws(self):
        short = generate_lifecycles(3, 1000.0, seed=5)
        long = generate_lifecycles(5, 1000.0, seed=5)
        assert long[:3] == short

    def test_generated_lifecycles_validate(self):
        for lc in generate_lifecycles(8, 500.0, seed=9, keep_first=False):
            lc.validate()
            if lc.arrive_at_us is not None:
                assert lc.depart_at_us > lc.arrive_at_us

    def test_rejects_bad_parameters(self):
        with pytest.raises(ServiceError):
            generate_lifecycles(0, 1000.0, seed=1)
        with pytest.raises(ServiceError):
            generate_lifecycles(2, 0.0, seed=1)
        with pytest.raises(ServiceError):
            generate_lifecycles(2, 1000.0, seed=1, mean_lifetime_intervals=0.0)


# ---------------------------------------------------------------------------
# Property: allocator accounting under arbitrary churn interleavings
# ---------------------------------------------------------------------------

_N_TENANTS = 4
_CAPACITY = 64
_REGION = 1000  # LBA stride: tenant t owns [t*_REGION, (t+1)*_REGION)


class _FairScheme(CapacityScheme):
    """Minimal capacity scheme: fair shares, departure redistribution."""

    name = "test_fair"

    def start(self) -> None:  # pragma: no cover - never ticked here
        pass


churn_ops = st.lists(
    st.tuples(
        st.sampled_from(["insert", "insert_dirty", "evict", "depart", "preload"]),
        st.integers(min_value=0, max_value=_N_TENANTS - 1),
        st.integers(min_value=0, max_value=31),
    ),
    max_size=150,
)


def _check_accounting(store: CacheStore, alloc: QuotaAllocator) -> None:
    """Accounting exactness: counts == ownership == resident blocks."""
    occupancy = alloc.occupancy()
    assert all(count >= 0 for count in occupancy.values())
    # counts agree with the owner map, owned blocks are really resident
    by_owner: dict[int, int] = {}
    for lba, tid in alloc._owner.items():
        by_owner[tid] = by_owner.get(tid, 0) + 1
        assert store.peek(lba) is not None, f"owned lba {lba} not resident"
        assert _REGION * tid <= lba < _REGION * (tid + 1)
    assert {t: c for t, c in occupancy.items() if c} == by_owner
    # accounted blocks never exceed what is physically resident
    assert sum(occupancy.values()) <= store.occupied


@given(ops=churn_ops)
@settings(max_examples=60, deadline=None)
def test_allocator_invariants_under_arbitrary_churn(ops):
    store = CacheStore(_CAPACITY, associativity=4, replacement="lru")
    alloc = QuotaAllocator(store, default_quota_blocks=_CAPACITY // _N_TENANTS)
    scheme = _FairScheme()
    scheme.allocator = alloc
    scheme.shares = fair_shares(_CAPACITY, _N_TENANTS, min_share_blocks=4)
    alloc.set_quotas(scheme.shares)
    total_share = sum(scheme.shares.values())

    active = set(range(_N_TENANTS))
    now = 0.0
    for action, tid, offset in ops:
        now += 1.0
        lba = tid * _REGION + offset
        if action in ("insert", "insert_dirty") and tid in active:
            # the controller's insert protocol: admit, insert, report
            if alloc.admit(tid, lba):
                _, eviction = store.insert(
                    lba, now, dirty=(action == "insert_dirty")
                )
                alloc.note_insert(tid, lba)
                if eviction is not None:
                    alloc.note_remove(eviction.lba)
        elif action == "evict":
            if store.invalidate(lba):
                alloc.note_remove(lba)
        elif action == "preload":
            # warm-up style ownerless insert: no allocator accounting
            _, eviction = store.insert(lba, now)
            if eviction is not None:
                alloc.note_remove(eviction.lba)
        elif action == "depart" and tid in active:
            active.discard(tid)
            scheme.on_tenant_departed(tid)
            # the churn manager's reclaim: invalidate the whole region
            for block_lba in [
                b.lba
                for b in store
                if tid * _REGION <= b.lba < (tid + 1) * _REGION
            ]:
                store.invalidate(block_lba)
                alloc.note_remove(block_lba)
            # fully reclaimed: no accounting, no resident blocks
            assert alloc.occupancy().get(tid, 0) == 0
            assert tid not in alloc.quotas
            assert not any(
                tid * _REGION <= b.lba < (tid + 1) * _REGION for b in store
            )
        _check_accounting(store, alloc)
        # shares were redistributed, never created or destroyed
        assert sum(scheme.shares.values()) == (
            total_share if active else 0
        ) or not active
        assert sum(scheme.shares.values()) <= total_share
        assert set(scheme.shares) == active

    # final recount from scratch
    _check_accounting(store, alloc)


@given(
    departures=st.lists(
        st.integers(min_value=0, max_value=_N_TENANTS - 1),
        max_size=8,
    )
)
@settings(max_examples=50, deadline=None)
def test_share_redistribution_conserves_capacity(departures):
    store = CacheStore(_CAPACITY, associativity=4)
    scheme = _FairScheme()
    scheme.allocator = QuotaAllocator(store, default_quota_blocks=16)
    scheme.shares = fair_shares(_CAPACITY, _N_TENANTS, min_share_blocks=4)
    scheme.allocator.set_quotas(scheme.shares)
    total = sum(scheme.shares.values())
    departed: set[int] = set()
    for tid in departures:
        if tid in departed:
            continue
        scheme.on_tenant_departed(tid)
        departed.add(tid)
        if scheme.shares:
            assert sum(scheme.shares.values()) == total
        assert scheme.allocator.quotas == scheme.shares


class _ScanEveryTime:
    """Reference quota admission that scans for a clean victim every time.

    It follows the admission rules of :class:`QuotaAllocator` and keeps
    no memory of earlier scans, so the allocator's record of a futile
    scan must never change an outcome against it.
    """

    def __init__(self, store: CacheStore, quotas: dict[int, int]) -> None:
        self.store = store
        self.quotas = quotas
        self.owned: dict[int, dict[int, None]] = {}
        self.denied: dict[int, int] = {}
        self.recycled: dict[int, int] = {}

    def note_insert(self, tenant: int, lba: int) -> None:
        if lba not in self.owned.get(tenant, {}):
            self.note_remove(lba)
            self.owned.setdefault(tenant, {})[lba] = None

    def note_remove(self, lba: int) -> None:
        for owned in self.owned.values():
            owned.pop(lba, None)

    def admit(self, tenant: int, lba: int) -> bool:
        if self.store.peek(lba) is not None:
            return True
        owned = self.owned.get(tenant, {})
        quota = self.quotas[tenant]
        if len(owned) < quota:
            return True
        want = min(len(owned) - quota + 1, _DRAIN_LIMIT)
        freed = 0
        while freed < want:
            window = list(owned)[:_SCAN_LIMIT]
            clean = [b for b in window if not self.store.peek(b).dirty]
            if not clean:
                break
            self.store.invalidate(clean[0])
            self.note_remove(clean[0])
            self.recycled[tenant] = self.recycled.get(tenant, 0) + 1
            freed += 1
        if freed:
            return True
        self.denied[tenant] = self.denied.get(tenant, 0) + 1
        return False


_SCAN_LIMIT = 2
_DRAIN_LIMIT = 2

#: (action, tenant, value): an insert or bare admission of the tenant's
#: block ``value``, a mark_clean or invalidate of any block, or a new
#: quota of ``value % 4`` blocks.
scan_ops = st.lists(
    st.tuples(
        st.sampled_from(
            ["insert", "insert_dirty", "admit", "mark_clean", "invalidate", "quota"]
        ),
        st.integers(min_value=0, max_value=1),
        st.integers(min_value=0, max_value=11),
    ),
    max_size=120,
)

#: Always run: a denial, a flush of a scanned block, the admission again.
DENY_FLUSH_ADMIT = [
    ("insert_dirty", 0, 0),
    ("insert_dirty", 0, 1),
    ("insert_dirty", 0, 2),
    ("admit", 0, 5),
    ("admit", 0, 6),
    ("mark_clean", 0, 1),
    ("admit", 0, 5),
]


def _step(store, alloc, now, action, tenant, value):
    """Apply one op the way the controller does; returns what it decided."""
    lba = tenant * 12 + value
    if action == "quota":
        alloc.quotas[tenant] = value % 4
        return None
    if action == "mark_clean":
        store.mark_clean(value * 2)
        return None
    if action == "invalidate":
        if store.invalidate(value * 2):
            alloc.note_remove(value * 2)
        return None
    resident = {block.lba for block in store}
    admitted = alloc.admit(tenant, lba)
    victims = sorted(resident - {block.lba for block in store})
    if admitted and action != "admit":
        _, eviction = store.insert(lba, now, dirty=action == "insert_dirty")
        alloc.note_insert(tenant, lba)
        if eviction is not None:
            alloc.note_remove(eviction.lba)
    return admitted, victims


@given(ops=scan_ops)
@example(ops=DENY_FLUSH_ADMIT)
@settings(max_examples=80, deadline=None)
def test_futile_scan_record_changes_no_admission(ops):
    """Every admission, recycled victim and denied/recycled count of the
    allocator equals a reference that rescans on every admission."""
    store = CacheStore(16, associativity=4)
    alloc = QuotaAllocator(
        store,
        default_quota_blocks=3,
        recycle_scan_limit=_SCAN_LIMIT,
        drain_limit=_DRAIN_LIMIT,
    )
    alloc.set_quotas({0: 3, 1: 3})
    ref_store = CacheStore(16, associativity=4)
    ref = _ScanEveryTime(ref_store, {0: 3, 1: 3})
    now = 0.0
    for action, tenant, value in ops:
        now += 1.0
        got = _step(store, alloc, now, action, tenant, value)
        assert got == _step(ref_store, ref, now, action, tenant, value)
        assert alloc.denied == ref.denied
        assert alloc.recycled == ref.recycled
        assert [(b.lba, b.dirty) for b in store] == [
            (b.lba, b.dirty) for b in ref_store
        ]


# ---------------------------------------------------------------------------
# The churn manager against a real controller
# ---------------------------------------------------------------------------


class _FakeWorkload:
    """Duck-typed ServiceWorkload over fixed regions and warm sets."""

    def __init__(self, lifecycles):
        self.lifecycles = list(lifecycles)
        self.stopped: list[int] = []

    @property
    def tenant_count(self) -> int:
        return len(self.lifecycles)

    def stop_tenant(self, tenant_id: int) -> None:
        self.stopped.append(tenant_id)

    def tenant_region(self, tenant_id: int) -> tuple[int, int]:
        return (tenant_id * _REGION, (tenant_id + 1) * _REGION)

    def tenant_warm_blocks(self, tenant_id: int):
        base = tenant_id * _REGION
        return ([base + i for i in range(6)], [base + 50, base + 51])


def _mini_system():
    sim = Simulator()
    ssd = StorageDevice(sim, "ssd", SsdModel(SsdConfig(jitter_sigma=0.0)))
    hdd = StorageDevice(sim, "hdd", HddModel(HddConfig(jitter_sigma=0.0)))
    store = CacheStore(64, associativity=8)
    controller = CacheController(sim, ssd, hdd, store)
    return sim, store, controller


class TestChurnManager:
    def test_arrival_rewarms_and_departure_reclaims(self):
        sim, store, controller = _mini_system()
        workload = _FakeWorkload(
            [
                None,
                TenantLifecycle(arrive_at_us=100.0, depart_at_us=200.0),
            ]
        )
        manager = ChurnManager(sim, controller, workload)
        assert manager.is_active(0) and not manager.is_active(1)

        manager.start()
        manager.start()  # idempotent: events scheduled once
        assert len(manager.events) == 2

        sim.run(until=150.0)
        assert manager.is_active(1)
        assert manager.blocks_rewarmed == 8  # 6 clean + 2 dirty
        region = [b.lba for b in store if b.lba >= _REGION]
        assert sorted(region) == [_REGION + i for i in range(6)] + [
            _REGION + 50,
            _REGION + 51,
        ]
        assert store.dirty_count == 2

        sim.run()
        assert not manager.is_active(1)
        assert workload.stopped == [1]
        assert manager.blocks_reclaimed == 8
        assert manager.dirty_flushed == 2
        assert not any(b.lba >= _REGION for b in store)
        summary = manager.summary()
        assert summary["arrivals"] == 1 and summary["departures"] == 1
        assert summary["departed"] == [1]

    def test_departure_releases_allocator_share(self):
        sim, store, controller = _mini_system()
        workload = _FakeWorkload([None, TenantLifecycle(depart_at_us=50.0)])
        scheme = _FairScheme()
        scheme.allocator = QuotaAllocator(store, default_quota_blocks=32)
        scheme.shares = {0: 32, 1: 32}
        scheme.allocator.set_quotas(scheme.shares)
        controller.allocator = scheme.allocator
        for i in range(4):
            lba = _REGION + i
            assert controller.rewarm_block(lba, 1, dirty=(i == 0))
        assert scheme.allocator.occupancy() == {1: 4}

        manager = ChurnManager(sim, controller, workload, balancer=scheme)
        manager.start()
        sim.run()
        assert manager.blocks_reclaimed == 4 and manager.dirty_flushed == 1
        assert scheme.allocator.occupancy().get(1, 0) == 0
        assert scheme.shares == {0: 64}  # the freed share moved to vm0
        assert scheme.allocator.quotas == {0: 64}

    @pytest.mark.xfail(
        strict=True,
        reason="_miss_read_done promotes a read miss that completes after "
        "its tenant's region was reclaimed and its quota released: admit "
        "gives the released tenant the default quota again",
    )
    def test_miss_in_flight_at_departure_is_not_promoted(self):
        sim, store, controller = _mini_system()
        allocator = QuotaAllocator(store, default_quota_blocks=32)
        allocator.set_quotas({0: 32, 1: 32})
        controller.allocator = allocator
        lba = _REGION + 5
        miss = Request(0.0, lba, 1, False, tenant_id=1)
        controller.submit(miss)  # the HDD read is in flight
        # what ChurnManager._depart and CapacityScheme.on_tenant_departed do
        controller.reclaim_range(_REGION, 2 * _REGION)
        allocator.release_tenant(1)
        sim.run()
        assert miss.done
        assert store.peek(lba) is None
        assert allocator.occupancy() == {}

    def test_migration_reclaims_then_rewarms_clean(self):
        sim, store, controller = _mini_system()
        workload = _FakeWorkload([TenantLifecycle(migrate_at_us=(100.0,))])
        manager = ChurnManager(sim, controller, workload)
        for i in range(6):
            controller.rewarm_block(i, 0)
        controller.rewarm_block(50, 0, dirty=True)
        controller.rewarm_block(51, 0, dirty=True)
        assert store.dirty_count == 2

        manager.start()
        sim.run()
        assert manager.migrations == 1
        assert manager.blocks_reclaimed == 8 and manager.dirty_flushed == 2
        # the new host holds clean copies only — dirty data was flushed
        assert manager.blocks_rewarmed == 8
        assert store.dirty_count == 0
        assert sorted(b.lba for b in store) == list(range(6)) + [50, 51]

    def test_rewarm_respects_allocator_denial(self):
        sim, store, controller = _mini_system()
        alloc = QuotaAllocator(store, default_quota_blocks=0)
        controller.allocator = alloc
        assert not controller.rewarm_block(5, 0)
        assert store.peek(5) is None
        controller.allocator = None
        assert controller.rewarm_block(5, 0)
        assert not controller.rewarm_block(5, 0)  # already resident


class TestSloMonitorUnit:
    def test_requires_targets_and_positive_interval(self):
        sim, _, controller = _mini_system()
        with pytest.raises(ServiceError):
            SloMonitor(sim, controller, {}, interval_us=100.0)
        with pytest.raises(ServiceError):
            SloMonitor(
                sim,
                controller,
                {0: SloTarget(p99_latency_us=1.0)},
                interval_us=0.0,
            )

    def test_empty_window_is_vacuously_compliant(self):
        sim, _, controller = _mini_system()
        monitor = SloMonitor(
            sim,
            controller,
            {0: SloTarget(p99_latency_us=1.0, min_hit_ratio=0.99)},
            interval_us=100.0,
        )
        monitor.start()
        sim.run(until=350.0)
        assert len(monitor.samples) == 3
        for sample in monitor.samples:
            assert sample.compliant
            assert sample.p99_latency_us == 0.0  # never nan
        assert monitor.summary()["total_violations"] == 0

    def test_inactive_tenants_skipped_by_probe(self):
        sim, _, controller = _mini_system()
        monitor = SloMonitor(
            sim,
            controller,
            {0: SloTarget(min_hit_ratio=0.5), 1: SloTarget(min_hit_ratio=0.5)},
            interval_us=100.0,
            activity_probe=lambda tid: tid == 0,
        )
        monitor.start()
        sim.run(until=250.0)
        assert {s.tenant_id for s in monitor.samples} == {0}
        assert monitor.intervals[1] == 0
