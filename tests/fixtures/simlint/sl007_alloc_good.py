"""SL007 good: per-IO constructors that build nothing but the object.

Linted as module ``repro.io.request``; an immutable empty value is
shared until one is needed, and methods off the allowlist may still
build containers.
"""

_NO_MERGED = ()


class Request:
    def __init__(self, arrival, lba, nblocks, is_write):
        self.arrival = arrival
        self.lba = lba
        self.nblocks = nblocks


class DeviceOp:
    def __init__(self, lba, nblocks, tag):
        self.lba = lba
        self.merged = _NO_MERGED

    def absorb(self, other):
        # not on the allowlist: a list is built on the first merge only
        if self.merged:
            self.merged.append(other)
        else:
            self.merged = [other]
