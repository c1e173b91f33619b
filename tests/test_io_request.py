"""Unit tests for requests and device operations."""

import pytest

from repro.io.request import BLOCK_BYTES, DeviceOp, OpTag, Request


class TestRequest:
    def test_basic_fields(self):
        req = Request(10.0, lba=100, nblocks=4, is_write=False)
        assert req.lba == 100
        assert req.end_lba == 104
        assert not req.is_write
        assert not req.done

    def test_ids_monotonic(self):
        a = Request(0.0, 0, 1, False)
        b = Request(0.0, 0, 1, False)
        assert b.req_id > a.req_id

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            Request(0.0, 0, 0, False)
        with pytest.raises(ValueError):
            Request(0.0, -1, 1, False)

    def test_completion_after_all_sync_ops(self, sim, controller):
        # A 2-block write waits on one sync op per block; the controller
        # completes it on the second.
        req = Request(5.0, 0, 2, True)
        req.add_wait(2)
        first, second = (
            DeviceOp(lba, 1, is_write=True, tag=OpTag.WRITE, request=req, sync=True)
            for lba in (0, 1)
        )
        sim.run(until=8.0)
        controller._sync_done(first)
        assert not req.done
        sim.run(until=9.0)
        controller._sync_done(second)
        assert req.done
        assert req.latency == 4.0
        assert controller.stats.completed == 1

    def test_completion_underflow_raises(self, controller):
        req = Request(0.0, 0, 1, False)
        req.add_wait(1)
        op = DeviceOp(0, 1, is_write=False, tag=OpTag.READ, request=req, sync=True)
        controller._sync_done(op)
        with pytest.raises(RuntimeError, match="completion underflow"):
            controller._sync_done(op)

    def test_latency_before_completion_raises(self):
        req = Request(0.0, 0, 1, False)
        with pytest.raises(RuntimeError):
            _ = req.latency

    def test_block_bytes_constant(self):
        assert BLOCK_BYTES == 4096


class TestDeviceOp:
    def test_tags_are_paper_letters(self):
        assert OpTag.READ.value == "R"
        assert OpTag.WRITE.value == "W"
        assert OpTag.PROMOTE.value == "P"
        assert OpTag.EVICT.value == "E"

    def test_end_lba(self):
        op = DeviceOp(10, 3, is_write=False, tag=OpTag.READ)
        assert op.end_lba == 13

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            DeviceOp(0, 0, is_write=False, tag=OpTag.READ)


class TestMerging:
    def test_contiguous_same_tag_merges(self):
        # StorageDevice.submit decides when the tail back-merges; absorb
        # grows the tail and chains each absorbed op for completion.
        a = DeviceOp(0, 2, is_write=True, tag=OpTag.WRITE)
        b = DeviceOp(2, 2, is_write=True, tag=OpTag.WRITE)
        c = DeviceOp(4, 1, is_write=True, tag=OpTag.WRITE)
        assert list(a.merged) == []
        a.absorb(b)
        assert a.nblocks == 4
        assert a.merged == [b]
        a.absorb(c)
        assert (a.lba, a.end_lba) == (0, 5)
        assert a.merged == [b, c]
        assert list(b.merged) == []
