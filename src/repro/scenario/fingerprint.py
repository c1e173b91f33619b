"""Deterministic stats fingerprints of experiment runs.

A fingerprint is a JSON-stable digest of a :class:`RunResult`'s
statistics with no timing or memory numbers in it: two runs of the same
code, seed, and config produce the exact same fingerprint (floats
round-trip exactly through JSON via ``repr``).  The benchmark suite's
golden files (``benchmarks/golden/``), the CI scenario smoke job, and
the spec-equivalence tests all pin behavior with these digests — an
optimization or refactor must keep them bit-identical.  Float sums are
:func:`~repro.sim.summation.left_sum` folds, not ``sum()``, whose result
changed in Python 3.12, so a digest is the same on every interpreter.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.sim.summation import left_sum

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.system import RunResult

__all__ = ["stats_fingerprint"]


def stats_fingerprint(result: "RunResult") -> dict[str, Any]:
    """A deterministic, JSON-stable digest of a run's statistics.

    Args:
        result: A :class:`~repro.experiments.system.RunResult`.
    """
    fp: dict[str, Any] = {
        "workload": result.workload,
        "scheme": result.scheme,
        "completed": result.completed,
        "events_processed": result.events_processed,
        "mean_latency": result.mean_latency,
        "latency_sum": left_sum(result.latencies),
        "latency_max": max(result.latencies, default=0.0),
        "read_latency_sum": left_sum(result.read_latencies),
        "write_latency_sum": left_sum(result.write_latencies),
        "bypassed_requests": result.bypassed_requests,
        "cache_stats": result.cache_stats,
        "store_stats": result.store_stats,
        "ssd_queue_stats": result.ssd_queue_stats,
        "hdd_queue_stats": result.hdd_queue_stats,
        "workload_stats": result.workload_stats,
        "n_samples": len(result.samples),
        "cache_load_sum": left_sum(result.cache_load_series()),
        "disk_load_sum": left_sum(result.disk_load_series()),
        "n_policy_log": len(result.policy_log),
        "n_lbica_decisions": (
            len(result.scheme_decisions) if result.scheme == "lbica" else 0
        ),
        "tenant_stats": {str(t): s for t, s in result.tenant_stats.items()},
    }
    # Service-layer digests are appended only when the run produced
    # them: churn and SLOs are opt-in, and every pre-existing golden
    # (no lifecycles, no targets) must stay bit-identical.
    if result.slo_series:
        per_tenant: dict[str, Any] = {}
        for sample in result.slo_series:
            tid = str(sample["tenant_id"])
            entry = per_tenant.get(tid)
            if entry is None:
                entry = per_tenant[tid] = {
                    "intervals": 0,
                    "violations": 0,
                    "p99_sum": 0.0,
                    "hit_ratio_sum": 0.0,
                }
            entry["intervals"] += 1
            if not sample["compliant"]:
                entry["violations"] += 1
            entry["p99_sum"] += sample["p99_latency_us"]
            entry["hit_ratio_sum"] += sample["hit_ratio"]
        fp["slo_compliance"] = {
            "n_samples": len(result.slo_series),
            "tenants": per_tenant,
        }
    if result.service_stats:
        fp["service_stats"] = result.service_stats
    return fp
