"""Per-layer host-time ledger, measured from outside the package.

The traced benchmark pass replaces the entry points of each layer's
classes with a timing wrapper *before* the system is built, so callbacks
that components pre-bind in their constructors resolve to the wrapped
methods.  Nothing under ``src/`` changes.

A layer is one of the package's modules (:data:`LAYERS`).  A layer's
*self* time is the host time spent inside its wrapped calls, minus the
time inside the wrapped calls they make in turn.  ``sim`` has no wrapped
methods: it is whatever host time of the event loop lies outside every
wrapped call (heap pops, dispatch).

The wrapper costs host time too.  :func:`calibrate` measures that cost
on an empty method in the same process, split into the part charged to
the callee (``inner``) and the part charged to the caller (``outer``),
so the ledger can subtract ``calls x inner`` from each layer and
``calls made x outer`` from each caller.
"""

from __future__ import annotations

import functools
import gc
import importlib
import statistics
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

#: The ledger's layers, in report order.  Index 0 (``sim``) is the event
#: loop itself: every wrapped call the engine dispatches directly is a
#: call made "from sim".
LAYERS: tuple[str, ...] = (
    "sim",
    "workloads",
    "cache.controller",
    "cache.store",
    "cache.writeback",
    "devices",
    "devices.model",
    "trace",
    "core",
    "schemes",
    "experiments",
)

#: layer -> ((module, class, method names), ...).  Every method must be
#: defined in the class body itself (not inherited), so a rename or move
#: fails ``test_perfbench.py`` instead of silently moving its time into
#: ``sim``.  ``io.device_queue`` work is inlined into the device loop; the
#: few queue methods called from other layers count as ``devices``.
HOOKS: dict[str, tuple[tuple[str, str, tuple[str, ...]], ...]] = {
    "workloads": (
        (
            "repro.workloads.base",
            "Workload",
            ("bind", "_arrive", "_deliver", "on_request_complete"),
        ),
        ("repro.workloads.multi_tenant", "MultiTenantWorkload", ("on_request_complete",)),
    ),
    "cache.controller": (
        (
            "repro.cache.controller",
            "CacheController",
            (
                "submit",
                "set_policy",
                "_sync_done",
                "_miss_read_done",
                "_evict_read_done",
                "flush_block",
                "_bg_flush_read_done",
                "_bg_flush_write_done",
                "op_redirectable",
                "redirect_to_disk",
            ),
        ),
    ),
    "cache.store": (
        (
            "repro.cache.store",
            "CacheStore",
            ("lookup", "peek", "insert", "invalidate", "mark_clean", "dirty_blocks"),
        ),
    ),
    "cache.writeback": (("repro.cache.writeback", "WritebackFlusher", ("_tick",)),),
    "devices": (
        (
            "repro.devices.base",
            "StorageDevice",
            ("submit", "_dispatch", "_complete", "queue_time"),
        ),
        (
            "repro.io.device_queue",
            "DeviceQueue",
            ("steal_tail", "window_stats", "reset_window"),
        ),
    ),
    "devices.model": (
        ("repro.devices.ssd", "SsdModel", ("service_time",)),
        ("repro.devices.hdd", "HddModel", ("service_time",)),
    ),
    "trace": (
        ("repro.trace.iostat", "IostatMonitor", ("_tick",)),
        ("repro.trace.iostat", "_WindowAccum", ("record",)),
        (
            "repro.trace.blktrace",
            "BlkTracer",
            ("_make_observers", "take_window_counts", "queue_snapshot"),
        ),
    ),
    "core": (("repro.core.lbica", "LbicaController", ("_tick",)),),
    "schemes": (
        ("repro.schemes.allocation", "QuotaAllocator", ("admit", "note_insert", "note_remove")),
        ("repro.schemes.base", "Scheme", ("_tick",)),
    ),
    "experiments": (("repro.experiments.system", "ExperimentSystem", ("_on_complete",)),),
}

#: Hooked methods that build per-device observer closures: the
#: *returned* ``(transition, observer)`` pairs are wrapped instead, since
#: the closures are what the device loop calls once per transition.
OBSERVER_FACTORIES = frozenset({"BlkTracer._make_observers"})


def hooked_methods() -> list[tuple[str, type, str]]:
    """Every ``(layer, class, method)`` the traced pass wraps.

    Raises:
        LookupError: If a named class or method no longer exists where
            the map says it is defined.
    """
    out: list[tuple[str, type, str]] = []
    for layer, hooks in HOOKS.items():
        for module, cls_name, names in hooks:
            cls = getattr(importlib.import_module(module), cls_name, None)
            if not isinstance(cls, type):
                raise LookupError(f"{layer}: {module}.{cls_name} is not a class")
            for name in names:
                if not callable(cls.__dict__.get(name)):
                    raise LookupError(f"{layer}: {module}.{cls_name}.{name} is not defined")
                out.append((layer, cls, name))
    return out


class Ledger:
    """Self time, call counts and caller counts per layer.

    Host time is charged at layer boundaries: every wrapped call's entry
    and exit charges the time since the previous boundary to the layer
    that was running, so the self times of all layers (``sim`` included)
    add up to the wall time between :meth:`reset` and :meth:`close`.
    """

    def __init__(self) -> None:
        n = len(LAYERS)
        self.self_ns = [0] * n
        self.calls = [0] * n
        #: Wrapped calls made while layer ``i`` was running.
        self.calls_from = [0] * n
        #: ``[time of the last boundary, index of the running layer]``.
        self.state = [time.perf_counter_ns(), 0]

    def reset(self) -> None:
        """Zero every counter in place and start charging ``sim``."""
        for counters in (self.self_ns, self.calls, self.calls_from):
            counters[:] = [0] * len(counters)
        self.state[:] = [time.perf_counter_ns(), 0]

    def close(self) -> None:
        """Charge the time since the last boundary to the running layer."""
        now = time.perf_counter_ns()
        self.self_ns[self.state[1]] += now - self.state[0]
        self.state[0] = now

    def snapshot(self) -> dict[str, list[int]]:
        """A copy of the counters."""
        return {
            "self_ns": list(self.self_ns),
            "calls": list(self.calls),
            "calls_from": list(self.calls_from),
        }

    def wrap(self, fn: Callable[..., Any], layer: int) -> Callable[..., Any]:
        """``fn`` timed and charged to ``LAYERS[layer]``."""
        self_ns = self.self_ns
        calls = self.calls
        calls_from = self.calls_from
        state = self.state
        clock = time.perf_counter_ns

        def timed(*args: Any, **kwargs: Any) -> Any:
            now = clock()
            caller = state[1]
            self_ns[caller] += now - state[0]
            state[0] = now
            state[1] = layer
            try:
                return fn(*args, **kwargs)
            finally:
                now = clock()
                self_ns[layer] += now - state[0]
                state[0] = now
                state[1] = caller
                calls[layer] += 1
                calls_from[caller] += 1

        return functools.update_wrapper(timed, fn)


@contextmanager
def installed(ledger: Ledger) -> Iterator[None]:
    """Wrap every hooked method for the duration of the block."""
    originals: list[tuple[type, str, Any]] = []
    try:
        for layer, cls, name in hooked_methods():
            index = LAYERS.index(layer)
            original = cls.__dict__[name]
            originals.append((cls, name, original))
            if f"{cls.__name__}.{name}" in OBSERVER_FACTORIES:
                setattr(cls, name, _wrapping_factory(original, ledger, index))
            else:
                setattr(cls, name, ledger.wrap(original, index))
        yield
    finally:
        for cls, name, original in reversed(originals):
            setattr(cls, name, original)


def _wrapping_factory(
    factory: Callable[..., Any], ledger: Ledger, layer: int
) -> Callable[..., Any]:
    @functools.wraps(factory)
    def build(*args: Any, **kwargs: Any) -> tuple[tuple[str, Any], ...]:
        return tuple(
            (transition, ledger.wrap(observe, layer))
            for transition, observe in factory(*args, **kwargs)
        )

    return build


class _Probe:
    def hit(self, a: Any, b: Any) -> None:
        return None


def calibrate(rounds: int = 9, calls: int = 20_000) -> dict[str, float]:
    """Per-call wrapper cost on an empty two-argument method (ns).

    Returns ``inner`` (charged to the callee), ``outer`` (charged to the
    caller) and ``total`` = the extra host time of one wrapped call over
    a plain call.  Medians of ``rounds`` loops of ``calls`` pre-bound
    calls each, with the cyclic collector paused as in the event loop.
    """
    ledger = Ledger()

    class _Wrapped:
        hit = ledger.wrap(_Probe.hit, 1)

    plain = _Probe().hit
    wrapped = _Wrapped().hit
    clock = time.perf_counter_ns
    totals: list[float] = []
    inners: list[float] = []
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(rounds):
            t0 = clock()
            for _ in range(calls):
                plain(1, 2)
            base = clock() - t0
            ledger.reset()
            t0 = clock()
            for _ in range(calls):
                wrapped(1, 2)
            timed = clock() - t0
            totals.append((timed - base) / calls)
            inners.append(ledger.self_ns[1] / calls)
    finally:
        if gc_was_enabled:
            gc.enable()
    total = statistics.median(totals)
    inner = statistics.median(inners)
    return {"inner": inner, "outer": total - inner, "total": total}
