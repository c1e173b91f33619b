"""SL007 bad: containers built inside the per-IO constructors.

Linted as module ``repro.io.request`` so ``Request.__init__`` and
``DeviceOp.__init__`` match the hot-path allowlist.
"""


class Request:
    def __init__(self, arrival, lba, nblocks, is_write):
        self.arrival = arrival
        self.lba = lba
        self.served_by = set()
        self.blocks = [lba + i for i in range(nblocks)]


class DeviceOp:
    def __init__(self, lba, nblocks, tag):
        self.lba = lba
        self.merged = []
        self.times = {"queue": -1.0, "issue": -1.0}
