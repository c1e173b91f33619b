"""SL007 good: hot-path body stays allocation-lean.

Linted as module ``repro.sim.engine``; helpers live at module level and
are scheduled directly, with no closure per call.
"""


def _tick():
    return None


class Simulator:
    def run(self):
        self.schedule(0.0, _tick)

    def cold_path(self):
        # not on the allowlist: closures are fine here
        return lambda: _tick()
