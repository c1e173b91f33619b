#!/usr/bin/env python3
"""Domain scenario: a mail server's day, through LBICA's eyes.

The mail-server workload is the paper's richest timeline (Fig. 6b): a
mixed read-write delivery burst at interval ~23 (LBICA answers with RO),
a mailbox-scan read storm at ~128 (WO), and a delivery storm at ~134
(back to WB, shedding the SSD queue tail to the disk).

This example runs that timeline under all three schemes and renders the
cache-load curves side by side, so you can watch WB drown, SIB tread
water, and LBICA adapt.

Run:
    python examples/mail_server_storm.py
"""

from repro import paper_config
from repro.analysis.ascii_plot import ascii_line_chart
from repro.experiments.runner import ExperimentRunner


def main() -> None:
    runner = ExperimentRunner(paper_config(seed=7), verbose=True)
    results = {s: runner.run("mail", s) for s in ("wb", "sib", "lbica")}

    print()
    print(
        ascii_line_chart(
            {s.upper(): r.cache_load_series() for s, r in results.items()},
            title="mail server: I/O cache load (max queue latency per interval, µs)",
            width=100,
            height=16,
            y_label="µs",
        )
    )

    lbica = results["lbica"]
    print()
    print("LBICA's policy transitions:")
    for change in lbica.policy_log:
        interval = int(change.time / runner.config.interval_us)
        print(f"  interval {interval:3d}: -> {change.policy.value}")

    bypassed_ops = sum(d.bypassed for d in lbica.scheme_decisions)
    print()
    print(f"Tail-bypassed operations during the delivery storm: {bypassed_ops}")
    print()
    print("Mean latency (µs):")
    for scheme, result in results.items():
        print(f"  {scheme.upper():6s} {result.mean_latency:10.1f}")
    print()
    print(
        "Note the paper's own caveat (§IV-D): mail gains least from LBICA\n"
        "because the RO span serves ~70% of requests (writes) from the disk."
    )


if __name__ == "__main__":
    main()
