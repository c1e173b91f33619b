"""Monitoring + replay substrate: capture tools and streaming trace IO.

The package has two halves.  The **capture half** rebuilds the kernel
tools LBICA observes the system through:

- :mod:`repro.trace.iostat` — :class:`~repro.trace.iostat.IostatMonitor`
  samples per-interval queue depths and service-time estimates and
  computes Eq. 1 queue times; its interval records are the data behind
  Figures 4–6.
- :mod:`repro.trace.blktrace` — :class:`~repro.trace.blktrace.BlkTracer`
  logs per-op queue/issue/complete transitions (blktrace's Q/D/C) and can
  report the R/W/P/E composition of a device queue, which is LBICA's
  workload-characterization input.

The **replay half** turns trace files — captured here or taken from
public corpora — back into simulated load, streaming end to end:

- :mod:`repro.trace.records` — the canonical
  :class:`~repro.trace.records.TraceRecord` every format parses into.
- :mod:`repro.trace.parser` — :func:`~repro.trace.parser.iter_trace`
  (lazy, constant-memory) plus the list-returning ``load_trace`` /
  ``save_trace`` convenience layer.
- :mod:`repro.trace.adapters` — the format registry (native text,
  blkparse output, MSR-Cambridge CSV) behind the parser's ``adapter=``
  argument.
- :mod:`repro.trace.operators` — composable generator transforms
  (``time_compress``, ``rate_multiply``, ``slice``, ``lba_shift``,
  ``interleave``) for reshaping streams before replay.
- :mod:`repro.trace.synth` — deterministic synthetic streams for
  benchmarks that need millions of records without a file.

:mod:`repro.workloads.replay` consumes these streams chunk by chunk;
``docs/TRACES.md`` is the user-facing guide.
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.trace.blktrace import BlkTracer
    from repro.trace.iostat import IntervalSample, IostatMonitor
    from repro.trace.parser import TraceParseError, iter_trace, load_trace, save_trace
    from repro.trace.records import TraceRecord

__all__ = [
    "BlkTracer",
    "IostatMonitor",
    "IntervalSample",
    "TraceRecord",
    "iter_trace",
    "load_trace",
    "save_trace",
    "TraceParseError",
]

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.trace.blktrace": ("BlkTracer",),
        "repro.trace.iostat": ("IntervalSample", "IostatMonitor"),
        "repro.trace.parser": (
            "TraceParseError",
            "iter_trace",
            "load_trace",
            "save_trace",
        ),
        "repro.trace.records": ("TraceRecord",),
    },
)
