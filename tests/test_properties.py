"""Property-based tests (hypothesis) on core data-structure invariants."""

from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cache.store import CacheStore
from repro.core.characterization import QueueMix, WorkloadCharacterizer, WorkloadGroup
from repro.devices.base import StorageDevice
from repro.devices.ssd import SsdConfig, SsdModel
from repro.io.request import DeviceOp, OpTag
from repro.sim.engine import Simulator
from repro.trace.iostat import eq1_queue_time

# ---------------------------------------------------------------------------
# Cache store invariants
# ---------------------------------------------------------------------------

ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(["insert", "insert_dirty", "invalidate", "lookup", "clean"]),
        st.integers(min_value=0, max_value=255),
    ),
    max_size=200,
)


@given(ops=ops_strategy, repl=st.sampled_from(["lru", "fifo", "clock", "lfu"]))
@settings(max_examples=60, deadline=None)
def test_store_invariants_under_random_ops(ops, repl):
    """Residency ≤ capacity; dirty ⊆ resident; per-set bounds hold."""
    store = CacheStore(32, associativity=4, replacement=repl)
    now = 0.0
    for action, lba in ops:
        now += 1.0
        if action == "insert":
            store.insert(lba, now)
        elif action == "insert_dirty":
            store.insert(lba, now, dirty=True)
        elif action == "invalidate":
            store.invalidate(lba)
        elif action == "lookup":
            store.lookup(lba, now)
        elif action == "clean":
            store.mark_clean(lba)

        assert 0 <= store.occupied <= store.capacity_blocks
        assert 0 <= store.dirty_count <= store.occupied

    # recount from scratch: cached counters must agree with reality
    resident = list(store)
    assert len(resident) == store.occupied
    assert sum(1 for b in resident if b.dirty) == store.dirty_count
    # no duplicate tags
    lbas = [b.lba for b in resident]
    assert len(lbas) == len(set(lbas))
    # every block lives in its home set
    for block in resident:
        assert store.set_index(block.lba) < store.num_sets


@given(
    lbas=st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=300)
)
@settings(max_examples=40, deadline=None)
def test_store_insert_is_idempotent_on_occupancy(lbas):
    """Inserting the same set of addresses twice never grows occupancy."""
    store = CacheStore(64, associativity=8)
    for lba in lbas:
        store.insert(lba, 0.0)
    first = store.occupied
    for lba in lbas:
        store.insert(lba, 1.0)
    assert store.occupied == first  # idempotent w.r.t. residency count


dirty_script = st.lists(
    st.tuples(
        st.sampled_from(
            ["insert", "insert_dirty", "mark_dirty", "mark_clean", "invalidate", "lookup"]
        ),
        # 32 addresses over 4 two-way sets: inserts often evict.
        st.integers(min_value=0, max_value=31),
    ),
    max_size=200,
)

#: Always run: the third insert into set 0 evicts the dirty block 0.
DIRTY_EVICTION_SCRIPT = [("insert_dirty", 0), ("insert", 4), ("insert", 8)]


def _scan_dirty(store: CacheStore, limit=None) -> list[int]:
    """Reference listing: a scan of every set's entries, in set order.

    This is the loop ``dirty_blocks`` ran before it kept per-set counts.
    """
    out: list[int] = []
    for entries in store._sets:
        for lba, block in entries.items():
            if block.dirty:
                out.append(lba)
                if limit is not None and len(out) >= limit:
                    return out
    return out


@given(
    ops=dirty_script,
    repl=st.sampled_from(["lru", "fifo", "clock", "lfu"]),
    limit=st.one_of(st.none(), st.integers(min_value=1, max_value=6)),
)
@example(ops=DIRTY_EVICTION_SCRIPT, repl="lru", limit=None)
@settings(max_examples=60, deadline=None)
def test_store_per_set_dirty_counts(ops, repl, limit):
    """Each set's dirty count is its number of dirty blocks, the counts
    sum to ``dirty_count``, and ``dirty_blocks`` lists what a scan of
    every set lists, after every insert (with evictions), mark and
    invalidate."""
    store = CacheStore(8, associativity=2, replacement=repl)
    now = 0.0
    for action, lba in ops:
        now += 1.0
        if action == "insert":
            store.insert(lba, now)
        elif action == "insert_dirty":
            store.insert(lba, now, dirty=True)
        elif action == "mark_dirty":
            store.mark_dirty(lba)
        elif action == "mark_clean":
            store.mark_clean(lba)
        elif action == "invalidate":
            store.invalidate(lba)
        else:
            store.lookup(lba, now)

        for index, entries in enumerate(store._sets):
            dirty = sum(block.dirty for block in entries.values())
            assert store._set_dirty[index] == dirty
        assert sum(store._set_dirty) == store.dirty_count
        assert store.dirty_blocks(limit) == _scan_dirty(store, limit)
    assert store.dirty_blocks() == _scan_dirty(store)


# ---------------------------------------------------------------------------
# Device queue invariants, on the device that moves ops through the queue
# ---------------------------------------------------------------------------

device_script = st.lists(
    st.tuples(
        # ``next`` twice: a merge needs a contiguous op behind a pending one.
        st.sampled_from(
            ["read", "write", "next", "next", "advance", "pause", "steal", "window"]
        ),
        st.integers(min_value=0, max_value=1000),
    ),
    max_size=150,
)

#: Always run: a pause holds a write so the next contiguous write merges.
MERGING_SCRIPT = [("pause", 50), ("write", 0), ("next", 0), ("advance", 1000)]


def _device(merge: int, depth: int) -> StorageDevice:
    return StorageDevice(
        Simulator(),
        "d",
        SsdModel(SsdConfig(jitter_sigma=0.0)),
        depth=depth,
        max_merge_blocks=merge,
    )


def _play(dev, script, on_complete=None):
    """Drive ``dev`` through ``script``, yielding ``(action, ops)`` after
    each step: ``[op]`` for a submit, the stolen ops for a steal.

    ``next`` submits a 1-block op contiguous with the previous one (so
    merging is common), ``advance`` runs the simulator ``n`` µs,
    ``pause`` stalls the dispatcher, ``steal`` takes up to ``n % 4`` ops
    from the tail, and ``window`` is a sampling-window boundary.
    """
    sim = dev.sim
    last = None
    for action, n in script:
        ops: list[DeviceOp] = []
        if action in ("read", "write", "next"):
            if action == "next" and last is not None:
                lba, is_write = last.lba + 1, last.is_write
            else:
                lba, is_write = n, action == "write"
            tag = OpTag.WRITE if is_write else OpTag.READ
            last = DeviceOp(lba, 1, is_write=is_write, tag=tag, on_complete=on_complete)
            dev.submit(last)
            ops = [last]
        elif action == "advance":
            sim.run(until=sim.now + n)
        elif action == "pause":
            dev.pause_dispatch(float(n))
        elif action == "steal":
            ops = dev.queue.steal_tail(n % 4, sim.now)
        yield action, ops


@given(
    script=device_script,
    merge=st.sampled_from([0, 8, 32]),
    depth=st.sampled_from([1, 4]),
)
@example(script=MERGING_SCRIPT, merge=8, depth=1)
@settings(max_examples=60, deadline=None)
def test_queue_conservation(script, merge, depth):
    """Every op the device accepted is pending, in flight, completed,
    stolen or merged into another, after every step; once drained, every
    op that was not stolen completes exactly once."""
    dev = _device(merge, depth)
    q, s = dev.queue, dev.queue.stats
    done: list[DeviceOp] = []
    submitted: list[DeviceOp] = []
    stolen: list[DeviceOp] = []
    for action, ops in _play(dev, script, on_complete=done.append):
        (stolen if action == "steal" else submitted).extend(ops)
        assert q.qsize == len(q.pending) + q.inflight
        assert 0 <= q.inflight <= depth
        assert s.dispatched == s.completed + q.inflight
        assert s.stolen == len(stolen)
        assert s.enqueued == len(submitted) == sum(s.by_tag.values())
        assert len(q.pending) + q.inflight + s.completed + s.stolen + s.merged == (
            s.enqueued
        )

    dev.sim.run()
    assert q.qsize == 0
    assert s.dispatched == s.completed
    done_ids = [o.op_id for o in done]
    stolen_ids = [child.op_id for op in stolen for child in (op, *op.merged)]
    assert len(set(done_ids)) == len(done_ids)
    assert sorted(done_ids + stolen_ids) == sorted(o.op_id for o in submitted)


@given(
    script=device_script,
    merge=st.sampled_from([0, 8, 32]),
    depth=st.sampled_from([1, 4]),
)
@example(script=MERGING_SCRIPT, merge=8, depth=1)
@settings(max_examples=60, deadline=None)
def test_window_stats_integrate_qsize(script, merge, depth):
    """``window_stats`` is the time integral and peak of the qsize step
    function rebuilt from the transition observers and the steals."""
    dev = _device(merge, depth)
    sim, q = dev.sim, dev.queue
    # The model's qsize (``level``) and its integral since the window start.
    m = SimpleNamespace(level=0, area=0.0, peak=0, last=0.0, start=0.0)

    def step(delta: int) -> None:
        m.area += m.level * (sim.now - m.last)
        m.last = sim.now
        m.level += delta
        m.peak = max(m.peak, m.level)

    def on_queue(op: DeviceOp) -> None:
        absorbed = any(op in parent.merged for parent in q.pending)
        step(0 if absorbed else 1)

    def check() -> None:
        now = sim.now
        span = now - m.start
        area = m.area + m.level * (now - m.last)
        avg, peak = q.window_stats(now)
        assert peak == m.peak
        expected = area / span if span > 0 else float(m.level)
        assert avg == pytest.approx(expected, rel=1e-9, abs=1e-9)

    dev.add_transition_observer("queue", on_queue)
    dev.add_transition_observer("complete", lambda op: step(-1))
    q.reset_window(0.0)
    for action, ops in _play(dev, script):
        if action == "steal":
            step(-len(ops))
        elif action == "window":
            check()
            q.reset_window(sim.now)
            m.area, m.peak, m.last, m.start = 0.0, m.level, sim.now, sim.now
    sim.run(until=sim.now + 1000.0)
    check()


@given(
    n=st.integers(min_value=0, max_value=50),
    k=st.integers(min_value=0, max_value=60),
    depth=st.sampled_from([1, 4]),
)
@settings(max_examples=40, deadline=None)
def test_steal_tail_never_reorders_head(n, k, depth):
    """The dispatcher takes the head and a steal takes the tail; what is
    left keeps its submission order."""
    dev = _device(merge=0, depth=depth)
    dev.pause_dispatch(1.0)
    for i in range(n):
        dev.submit(DeviceOp(i * 10, 1, is_write=True, tag=OpTag.WRITE))
    dev.sim.run(until=1.0)  # the pause ends: up to ``depth`` ops dispatched
    issued = min(n, depth)
    stolen = dev.queue.steal_tail(k, 1.0)
    remaining = [o.lba for o in dev.queue.pending]
    assert remaining == [i * 10 for i in range(issued, issued + len(remaining))]
    assert [o.lba for o in stolen] == [
        i * 10 for i in reversed(range(issued + len(remaining), n))
    ]


# ---------------------------------------------------------------------------
# Eq. 1 and classifier properties
# ---------------------------------------------------------------------------


@given(
    q1=st.integers(min_value=0, max_value=10_000),
    q2=st.integers(min_value=0, max_value=10_000),
    lat=st.floats(min_value=0.001, max_value=10_000.0),
)
def test_eq1_monotone_in_queue_size(q1, q2, lat):
    if q1 <= q2:
        assert eq1_queue_time(q1, lat) <= eq1_queue_time(q2, lat)


@given(
    r=st.integers(min_value=0, max_value=1000),
    w=st.integers(min_value=0, max_value=1000),
    p=st.integers(min_value=0, max_value=1000),
    e=st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=200, deadline=None)
def test_classifier_total_and_membership(r, w, p, e):
    """The classifier always returns a defined group and the mix always
    normalizes to 1 (when non-empty)."""
    counts = Counter(
        {OpTag.READ: r, OpTag.WRITE: w, OpTag.PROMOTE: p, OpTag.EVICT: e}
    )
    mix = QueueMix.from_counts(counts)
    total = r + w + p + e
    assert mix.total == total
    if total:
        assert abs(mix.r + mix.w + mix.p + mix.e - 1.0) < 1e-9
    group = WorkloadCharacterizer().classify(mix)
    assert isinstance(group, WorkloadGroup)


@given(
    r=st.integers(min_value=0, max_value=100),
    w=st.integers(min_value=0, max_value=100),
    p=st.integers(min_value=0, max_value=100),
    e=st.integers(min_value=0, max_value=100),
)
@settings(max_examples=100, deadline=None)
def test_classifier_scale_invariant(r, w, p, e):
    """Scaling all counts by a constant never changes the group."""
    clf = WorkloadCharacterizer()
    c1 = Counter({OpTag.READ: r, OpTag.WRITE: w, OpTag.PROMOTE: p, OpTag.EVICT: e})
    c2 = Counter(
        {OpTag.READ: 7 * r, OpTag.WRITE: 7 * w, OpTag.PROMOTE: 7 * p, OpTag.EVICT: 7 * e}
    )
    if sum(c1.values()) >= clf.config.min_queue_ops:
        assert clf.classify_counts(c1) == clf.classify_counts(c2)


# ---------------------------------------------------------------------------
# Simulator determinism
# ---------------------------------------------------------------------------


@given(delays=st.lists(st.floats(min_value=0.0, max_value=100.0), max_size=50))
@settings(max_examples=40, deadline=None)
def test_simulator_order_is_deterministic(delays):
    def run_once():
        sim = Simulator()
        order = []
        for i, d in enumerate(delays):
            sim.schedule(d, order.append, i)
        sim.run()
        return order

    assert run_once() == run_once()


# ---------------------------------------------------------------------------
# Datapath conservation: every request completes, under any policy schedule
# ---------------------------------------------------------------------------

request_script = st.lists(
    st.tuples(
        st.sampled_from(["read", "write", "policy_wb", "policy_wt", "policy_ro", "policy_wo"]),
        st.integers(min_value=0, max_value=500),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=2),
    ),
    min_size=1,
    max_size=80,
)


@given(script=request_script)
@settings(max_examples=40, deadline=None)
def test_controller_conservation_under_policy_churn(script):
    """Every submitted request completes exactly once, the completion
    counters (overall and per tenant) agree with the requests, and the
    store's invariants hold, no matter how the write policy flips
    mid-stream.  Multi-block requests put contiguous ops in the device
    queues, so back-merged completions are exercised too."""
    from repro.cache.controller import CacheController
    from repro.cache.store import CacheStore
    from repro.cache.write_policy import WritePolicy
    from repro.devices.hdd import HddConfig, HddModel
    from repro.io.request import Request

    sim = Simulator()
    ssd = StorageDevice(sim, "ssd", SsdModel(SsdConfig(jitter_sigma=0.0)))
    hdd = StorageDevice(sim, "hdd", HddModel(HddConfig(jitter_sigma=0.0)))
    store = CacheStore(32, associativity=4)
    controller = CacheController(sim, ssd, hdd, store)
    completions: list[int] = []
    controller.add_completion_hook(lambda r: completions.append(r.req_id))

    submitted = []
    policies = {
        "policy_wb": WritePolicy.WB,
        "policy_wt": WritePolicy.WT,
        "policy_ro": WritePolicy.RO,
        "policy_wo": WritePolicy.WO,
    }
    for action, lba, nblocks, tenant_id in script:
        if action in policies:
            controller.set_policy(policies[action])
            continue
        req = Request(
            sim.now, lba * 7, nblocks, is_write=(action == "write"), tenant_id=tenant_id
        )
        submitted.append(req)
        controller.submit(req)
    sim.run()

    assert all(r.done for r in submitted)
    assert sorted(completions) == sorted(r.req_id for r in submitted)
    assert len(completions) == len(set(completions))  # exactly once
    stats = controller.stats
    assert stats.completed == len(submitted)
    assert stats.total_latency == pytest.approx(sum(r.latency for r in submitted))
    assert sorted(stats.tenants) == sorted({r.tenant_id for r in submitted})
    for tenant_id, tenant in stats.tenants.items():
        mine = [r for r in submitted if r.tenant_id == tenant_id]
        assert tenant.requests == tenant.completed == len(mine)
        assert tenant.writes == sum(r.is_write for r in mine)
        assert tenant.bypassed == sum(r.bypassed for r in mine)
        assert tenant.total_latency == pytest.approx(sum(r.latency for r in mine))
    assert sum(t.completed for t in stats.tenants.values()) == stats.completed
    assert store.occupied <= store.capacity_blocks
    assert store.dirty_count <= store.occupied
