"""SL007 bad: closure allocations inside a hot-path body.

Linted as module ``repro.sim.engine`` so ``Simulator.run`` matches the
hot-path allowlist.
"""


class Simulator:
    def run(self):
        def tick():
            return None

        callback = lambda: tick()  # deliberately a lambda: the SL007 target
        self.schedule(0.0, callback)
