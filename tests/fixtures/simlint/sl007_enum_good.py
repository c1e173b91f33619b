"""SL007 good: hot-path bodies read enum members through module aliases.

Linted as module ``repro.cache.controller``; the lookups happen once, at
import, and cold methods may still spell the member out.
"""

from repro.cache.write_policy import WritePolicy
from repro.io.request import DeviceOp, OpTag

_READ = OpTag.READ
_WRITE = OpTag.WRITE
_WT = WritePolicy.WT


class CacheController:
    def submit(self, request):
        self.ssd.submit(DeviceOp(request.lba, 1, False, _READ, request))

    def _do_write(self, request):
        if self.policy is _WT:
            self.hdd.submit(DeviceOp(request.lba, 1, True, _WRITE, request))

    def op_redirectable(self, op):
        # not on the allowlist: the enum lookup is fine here
        return op.tag is OpTag.PROMOTE
