#!/usr/bin/env python3
"""Quickstart: run LBICA on the TPC-C burst workload.

Builds the full simulated stack (SSD cache + HDD disk subsystem +
EnhanceIO-like cache + LBICA), replays the paper's TPC-C timeline (a
random-read burst starting at interval 3), and prints what LBICA saw and
did: the detected burst, the R/W/P/E queue mix, and the WO policy
assignment that deflates the cache queue.

Run:
    python examples/quickstart.py
"""

from repro import ExperimentSystem, paper_config


def main() -> None:
    config = paper_config(seed=7)
    print("Building tpcc/lbica at paper scale (200 intervals)...")
    system = ExperimentSystem.build("tpcc", "lbica", config)
    result = system.run()

    print()
    print(result.summary())
    print()
    print("LBICA decisions at burst intervals:")
    for decision in result.scheme_decisions:
        if decision.burst:
            mix = ", ".join(f"{k}:{v:.0%}" for k, v in decision.mix.items())
            assigned = (
                f" -> assigned {decision.policy_assigned.value}"
                if decision.policy_assigned
                else ""
            )
            print(
                f"  interval {decision.interval_index:3d}: "
                f"cache_Qtime={decision.cache_qtime / 1000:.1f}ms "
                f"disk_Qtime={decision.disk_qtime / 1000:.1f}ms "
                f"group={decision.group.value if decision.group else '-'} "
                f"[{mix}]{assigned}"
            )

    print()
    print("Write-policy timeline:")
    for change in result.policy_log:
        interval = int(change.time / config.interval_us)
        print(f"  interval {interval:3d}: {change.policy.value}")

    series = result.cache_load_series()
    peak = max(series)
    after = max(series[len(series) // 2 :])
    print()
    print(f"Peak cache queue time: {peak / 1000:.1f}ms")
    print(f"Late-run peak (after WO assignment): {after / 1000:.1f}ms")
    print(f"Read hit ratio: {result.cache_stats['read_hit_ratio']:.1%}")


if __name__ == "__main__":
    main()
