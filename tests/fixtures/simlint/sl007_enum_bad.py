"""SL007 bad: enum member lookups inside hot-path bodies.

Linted as module ``repro.cache.controller`` so ``CacheController.submit``
and ``CacheController._do_write`` match the hot-path allowlist.
"""

from repro.cache.write_policy import WritePolicy
from repro.io.request import DeviceOp, OpTag


class CacheController:
    def submit(self, request):
        self.ssd.submit(DeviceOp(request.lba, 1, False, OpTag.READ, request))

    def _do_write(self, request):
        if self.policy is WritePolicy.WT:
            self.hdd.submit(DeviceOp(request.lba, 1, True, OpTag.WRITE, request))
