"""Unit tests for the set-associative cache store and replacement policies."""

import pytest

from repro.cache.replacement import (
    ClockPolicy,
    FifoPolicy,
    LfuPolicy,
    LruPolicy,
    make_replacement_policy,
)
from repro.cache.store import CacheStore


class TestConstruction:
    def test_geometry(self):
        store = CacheStore(64, associativity=8)
        assert store.num_sets == 8
        assert store.capacity_blocks == 64

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            CacheStore(0)
        with pytest.raises(ValueError):
            CacheStore(10, associativity=3)
        with pytest.raises(ValueError):
            CacheStore(8, associativity=0)

    def test_unknown_replacement_rejected(self):
        with pytest.raises(ValueError):
            CacheStore(8, associativity=8, replacement="magic")


class TestFirstClean:
    def test_first_resident_clean_block_in_given_order(self):
        store = CacheStore(64)
        store.insert(1, 0.0, dirty=True)
        store.insert(2, 0.0)
        store.insert(3, 0.0)
        # 9 is not resident and 1 is dirty: 2 is the first candidate.
        assert store.first_clean([9, 1, 2, 3], limit=4) == 2
        assert store.first_clean([3, 2], limit=4) == 3
        assert store.stats.lookups == 0

    def test_limit_bounds_the_scan(self):
        store = CacheStore(64)
        store.insert(1, 0.0, dirty=True)
        store.insert(2, 0.0)
        assert store.first_clean([1, 2], limit=1) is None
        assert store.first_clean([1, 2], limit=2) == 2
        assert store.first_clean([], limit=4) is None


class TestLookupInsert:
    def test_miss_then_hit(self):
        store = CacheStore(64)
        assert store.lookup(5, 0.0) is None
        store.insert(5, 1.0)
        assert store.lookup(5, 2.0) is not None
        assert store.stats.hits == 1
        assert store.stats.misses == 1

    def test_peek_does_not_count(self):
        store = CacheStore(64)
        store.insert(5, 0.0)
        store.peek(5)
        store.peek(6)
        assert store.stats.lookups == 0

    def test_insert_existing_refreshes_in_place(self):
        store = CacheStore(64)
        store.insert(5, 0.0)
        block, eviction = store.insert(5, 1.0, dirty=True)
        assert eviction is None
        assert block.dirty
        assert store.occupied == 1
        assert store.dirty_count == 1

    def test_eviction_on_full_set(self):
        store = CacheStore(16, associativity=2)
        # lbas in the same set: lba % num_sets == const
        s = store.num_sets
        store.insert(0, 0.0)
        store.insert(s, 1.0)
        _, eviction = store.insert(2 * s, 2.0)
        assert eviction is not None
        assert eviction.lba == 0  # LRU
        assert not eviction.was_dirty
        assert store.occupied == 2

    def test_dirty_eviction_reported(self):
        store = CacheStore(16, associativity=2)
        s = store.num_sets
        store.insert(0, 0.0, dirty=True)
        store.insert(s, 1.0)
        _, eviction = store.insert(2 * s, 2.0)
        assert eviction.was_dirty
        assert store.stats.dirty_evictions == 1
        assert store.dirty_count == 0

    def test_lru_access_protects_block(self):
        store = CacheStore(16, associativity=2)
        s = store.num_sets
        store.insert(0, 0.0)
        store.insert(s, 1.0)
        store.lookup(0, 2.0)  # touch 0 → LRU victim is now s
        _, eviction = store.insert(2 * s, 3.0)
        assert eviction.lba == s


class TestInvalidate:
    def test_invalidate_resident(self):
        store = CacheStore(64)
        store.insert(7, 0.0, dirty=True)
        assert store.invalidate(7)
        assert 7 not in store
        assert store.dirty_count == 0
        assert store.stats.invalidations == 1

    def test_invalidate_absent_is_noop(self):
        store = CacheStore(64)
        assert not store.invalidate(9)


class TestDirtyTracking:
    def test_mark_dirty_and_clean(self):
        store = CacheStore(64)
        store.insert(3, 0.0)
        store.mark_dirty(3)
        assert store.dirty_count == 1
        store.mark_clean(3)
        assert store.dirty_count == 0

    def test_mark_on_absent_is_noop(self):
        store = CacheStore(64)
        store.mark_dirty(99)
        store.mark_clean(99)
        assert store.dirty_count == 0

    def test_double_mark_is_idempotent(self):
        store = CacheStore(64)
        store.insert(3, 0.0)
        store.mark_dirty(3)
        store.mark_dirty(3)
        assert store.dirty_count == 1

    def test_dirty_blocks_listing_with_limit(self):
        store = CacheStore(64)
        for lba in range(10):
            store.insert(lba, 0.0, dirty=(lba % 2 == 0))
        dirty = store.dirty_blocks()
        assert sorted(dirty) == [0, 2, 4, 6, 8]
        assert len(store.dirty_blocks(limit=2)) == 2

    def test_ratios(self):
        store = CacheStore(10, associativity=10)
        for lba in range(5):
            store.insert(lba, 0.0, dirty=True)
        assert store.occupancy == pytest.approx(0.5)
        assert store.dirty_ratio == pytest.approx(0.5)


class TestReplacementPolicies:
    def _fill_and_evict(self, policy_name):
        store = CacheStore(4, associativity=4, replacement=policy_name)
        for lba in range(0, 4):
            store.insert(lba * store.num_sets, float(lba))
        return store

    def test_factory_names(self):
        for name, cls in (
            ("lru", LruPolicy),
            ("fifo", FifoPolicy),
            ("clock", ClockPolicy),
            ("lfu", LfuPolicy),
        ):
            assert isinstance(make_replacement_policy(name), cls)

    def test_fifo_ignores_access(self):
        store = CacheStore(2, associativity=2, replacement="fifo")
        store.insert(0, 0.0)
        store.insert(2, 1.0)
        store.lookup(0, 2.0)  # access does not protect under FIFO
        _, eviction = store.insert(4, 3.0)
        assert eviction.lba == 0

    def test_lru_protects_accessed(self):
        store = CacheStore(2, associativity=2, replacement="lru")
        store.insert(0, 0.0)
        store.insert(2, 1.0)
        store.lookup(0, 2.0)
        _, eviction = store.insert(4, 3.0)
        assert eviction.lba == 2

    def test_clock_all_ref_set_evicts_first_scanned(self):
        # classic CLOCK: when every ref bit is set, the sweep clears them
        # all and the hand evicts where it started
        store = CacheStore(2, associativity=2, replacement="clock")
        store.insert(0, 0.0)
        store.insert(2, 1.0)
        _, eviction = store.insert(4, 3.0)
        assert eviction.lba == 0

    def test_clock_gives_second_chance(self):
        store = CacheStore(2, associativity=2, replacement="clock")
        store.insert(0, 0.0)
        store.insert(2, 1.0)
        # hand has passed block 2 (ref cleared); block 0 was just touched
        store.peek(2).ref = False
        store.lookup(0, 2.0)  # ref bit set on 0
        _, eviction = store.insert(4, 3.0)
        assert eviction.lba == 2

    def test_lfu_evicts_least_frequent(self):
        store = CacheStore(2, associativity=2, replacement="lfu")
        store.insert(0, 0.0)
        store.insert(2, 1.0)
        for t in range(5):
            store.lookup(0, 2.0 + t)
        _, eviction = store.insert(4, 10.0)
        assert eviction.lba == 2

    def test_all_policies_never_exceed_capacity(self):
        for name in ("lru", "fifo", "clock", "lfu"):
            store = CacheStore(16, associativity=4, replacement=name)
            for lba in range(200):
                store.insert(lba, float(lba))
            assert store.occupied <= 16
