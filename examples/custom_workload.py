#!/usr/bin/env python3
"""Build a custom workload against the public API and let LBICA handle it.

Shows the workload-authoring surface: phase scripts, address patterns,
backpressure, and cache warm-sets.  The scenario is a nightly analytics
job: a quiet OLTP baseline, a sudden sequential table scan (Group 4 —
LBICA should leave WB alone: the disk serves scans natively), then a
random-write checkpoint storm (Group 3 — WB plus tail bypass).

Run:
    python examples/custom_workload.py
"""

from repro import ExperimentSystem, paper_config
from repro.workloads.access_patterns import (
    HotColdPattern,
    SequentialPattern,
    UniformPattern,
)
from repro.workloads.base import PhaseSpec, Workload


def build_nightly_batch(interval_us: float, cache_blocks: int) -> Workload:
    """A three-act nightly batch job."""
    oltp_reads = HotColdPattern(
        hot_start=0,
        hot_span=int(cache_blocks * 0.5),
        cold_start=cache_blocks * 32,
        cold_span=cache_blocks * 16,
        hot_prob=0.95,
    )
    table_scan = SequentialPattern(cache_blocks * 64, cache_blocks * 64, stride=8)
    checkpoint = UniformPattern(cache_blocks * 8, cache_blocks * 12)

    phases = [
        PhaseSpec(
            label="evening-oltp",
            n_intervals=20,
            rate_iops=1200.0,
            write_frac=0.05,
            pattern_read=oltp_reads,
        ),
        PhaseSpec(
            label="table-scan",
            n_intervals=20,
            rate_iops=1500.0,
            write_frac=0.0,
            pattern_read=table_scan,
            size_blocks=8,
            burst=True,
        ),
        PhaseSpec(
            label="checkpoint-storm",
            n_intervals=20,
            rate_iops=700.0,
            write_frac=0.95,
            pattern_read=oltp_reads,
            pattern_write=checkpoint,
            burst=True,
        ),
        PhaseSpec(
            label="overnight-idle",
            n_intervals=20,
            rate_iops=300.0,
            write_frac=0.10,
            pattern_read=oltp_reads,
        ),
    ]
    return Workload(
        "nightly_batch",
        phases,
        interval_us,
        max_outstanding=256,
        warm_blocks=range(int(cache_blocks * 0.5)),
    )


def main() -> None:
    config = paper_config(seed=11)
    workload = build_nightly_batch(config.interval_us, config.cache_blocks)
    system = ExperimentSystem(workload, "lbica", config)
    result = system.run()

    print(result.summary())
    print()
    print("Phase script:")
    start = 0
    for phase in workload.phases:
        print(
            f"  intervals {start:3d}-{start + phase.n_intervals - 1:3d}  "
            f"{phase.label:18s} {phase.rate_iops:6.0f} IOPS, "
            f"{phase.write_frac:.0%} writes{'  [burst]' if phase.burst else ''}"
        )
        start += phase.n_intervals

    print()
    print("LBICA's reactions:")
    for decision in result.scheme_decisions:
        if decision.policy_assigned or (decision.burst and decision.bypassed):
            print(
                f"  interval {decision.interval_index:3d}: "
                f"group={decision.group.value if decision.group else '-':28s} "
                f"policy={decision.policy_active.value} "
                f"bypassed={decision.bypassed}"
            )
    total_bypassed = sum(d.bypassed for d in result.scheme_decisions)
    print()
    print(f"Total tail-bypassed ops: {total_bypassed}")
    print(f"Mean latency: {result.mean_latency:.1f}µs")


if __name__ == "__main__":
    main()
