"""Engine microbenchmarks: event loop, queue, store, device throughput.

Not paper figures — these quantify the substrate itself, so regressions
in the simulator's hot paths are visible.
"""

from repro.cache.store import CacheStore
from repro.devices.base import StorageDevice
from repro.devices.ssd import SsdConfig, SsdModel
from repro.io.request import DeviceOp, OpTag
from repro.sim.engine import Simulator


def test_event_loop_throughput(benchmark):
    """Schedule + dispatch cost of 10k chained events."""

    def run_chain():
        sim = Simulator()
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < 10_000:
                sim.schedule(1.0, tick)

        sim.schedule(1.0, tick)
        sim.run()
        return count[0]

    assert benchmark(run_chain) == 10_000


def test_device_pipeline_throughput(benchmark):
    """Submit→service→complete cost for 5k SSD reads."""

    def run_device():
        sim = Simulator()
        dev = StorageDevice(
            sim, "ssd", SsdModel(SsdConfig(jitter_sigma=0.0)), depth=4
        )
        for i in range(5000):
            dev.submit(DeviceOp(i * 64, 1, is_write=False, tag=OpTag.READ))
        sim.run()
        return dev.stats.reads

    assert benchmark(run_device) == 5000


def test_queue_merge_throughput(benchmark):
    """Submit cost with merging enabled on a contiguous write stream
    (dispatch paused, so every op meets a pending tail)."""

    def run_queue():
        dev = StorageDevice(
            Simulator(), "d", SsdModel(SsdConfig(jitter_sigma=0.0)),
            max_merge_blocks=64,
        )
        dev.pause_dispatch(1.0)
        for i in range(10_000):
            dev.submit(DeviceOp(i, 1, is_write=True, tag=OpTag.WRITE))
        return dev.queue.stats.merged

    merged = benchmark(run_queue)
    assert merged > 0


def test_cache_store_churn(benchmark):
    """Insert/lookup/evict churn over a footprint 4× the cache."""

    def run_store():
        store = CacheStore(4096, associativity=8)
        for i in range(20_000):
            lba = (i * 2654435761) % 16384
            if store.lookup(lba, float(i)) is None:
                store.insert(lba, float(i), dirty=(i % 3 == 0))
        return store.stats.evictions

    evictions = benchmark(run_store)
    assert evictions > 0
