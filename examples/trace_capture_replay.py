#!/usr/bin/env python3
"""Capture a block-level trace, save it, and replay it through a new stack.

Demonstrates the blktrace-like substrate end to end:

1. run a short web-server burst with the tracer attached;
2. serialize the captured Q/D/C records to the project's text format
   (a blkparse-like line per event);
3. parse the file back and replay the *application arrivals* (Q records
   of R/W tags) through a freshly built system with a different scheme —
   cache-internal P/E traffic is regenerated by the new cache, as it
   would be on real hardware.

Run:
    python examples/trace_capture_replay.py
"""

import tempfile
from pathlib import Path

from repro import ExperimentSystem, paper_config
from repro.trace.parser import load_trace, save_trace
from repro.workloads.replay import ReplayWorkload
from repro.workloads.synthetic import mixed_read_write_workload


def main() -> None:
    config = paper_config(seed=3)

    # -- capture ---------------------------------------------------------
    workload = mixed_read_write_workload(
        config.interval_us, n_intervals=20, cache_blocks=config.cache_blocks
    )
    system = ExperimentSystem(workload, "wb", config)
    result = system.run()
    records = list(system.tracer.records)
    print(f"Captured {len(records)} block-layer events from {result.summary()}")

    trace_path = Path(tempfile.gettempdir()) / "lbica_example_trace.txt"
    count = save_trace(records, trace_path)
    size_kib = trace_path.stat().st_size / 1024
    print(f"Saved {count} records to {trace_path} ({size_kib:.0f} KiB)")

    # -- replay ----------------------------------------------------------
    # load_trace reads the whole file into a list, which the replay sorts
    # and counts up front; for production-scale traces pass a generator:
    #   ReplayWorkload(iter_trace(trace_path), duration_us=...)
    # pulls records in constant memory (see docs/TRACES.md).
    parsed = load_trace(trace_path)
    replay = ReplayWorkload(parsed)
    skipped = replay.stats.skipped
    print(
        f"Replaying {len(parsed) - skipped} application arrivals "
        f"({skipped} other block-layer records skipped) under LBICA..."
    )

    replay_system = ExperimentSystem(replay, "lbica", config)
    replay_result = replay_system.run()
    print(replay_result.summary())

    print()
    print("original (WB) vs replay (LBICA):")
    print(f"  mean latency: {result.mean_latency:10.1f}µs -> {replay_result.mean_latency:10.1f}µs")
    print(
        f"  peak cache Qtime: {max(result.cache_load_series()):10.0f}µs -> "
        f"{max(replay_result.cache_load_series()):10.0f}µs"
    )


if __name__ == "__main__":
    main()
