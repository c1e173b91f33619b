"""One measured benchmark run, in its own process.

Run as ``python3 perfbench/measure.py --workload NAME --seed N
--traced 0|1`` from the repository root.  It builds the full
``ExperimentSystem`` for the workload at the paper configuration, runs
it to the end of its script, and prints one JSON line: host timings,
the stats-fingerprint digest, the model counts and, when traced, the
raw per-layer ledger.  ``run.py`` starts one of these per measured run
so that peak RSS, import state and heap are the run's own.
"""

import argparse
import hashlib
import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Any, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

#: Benchmark workload -> (registered workload, scheme).  All run at the
#: paper configuration (``paper_config``), whose seed is the benchmark's.
WORKLOADS: dict[str, tuple[str, str]] = {
    "tpcc_lbica": ("tpcc", "lbica"),
    "mail_lbica": ("mail", "lbica"),
    "consolidated3_dynshare": ("consolidated3", "dynshare"),
}


def fingerprint_digest(fingerprint: dict) -> str:
    """SHA-256 of the fingerprint's canonical JSON form."""
    text = json.dumps(fingerprint, sort_keys=True, default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of unsorted values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


def model_counts(result: Any) -> dict[str, float]:
    """Simulated-time counts of a ``RunResult``, per completed request.

    Deterministic for a given workload and seed: a change that only
    speeds the simulator up must leave every one of them identical.
    """
    completed = max(result.completed, 1)
    ssd, hdd = result.ssd_queue_stats, result.hdd_queue_stats
    cache_load = result.cache_load_series()
    disk_load = result.disk_load_series()
    denied = result.scheme_stats.get("total_denied", 0)
    return {
        "sim.events_per_io": result.events_processed / completed,
        "workloads.throttled_per_io": result.workload_stats["throttled"] / completed,
        "cache.read_hit_ratio": result.cache_stats["read_hit_ratio"],
        "cache.bypassed_per_io": result.bypassed_requests / completed,
        "cache.evict_flushes_per_io": result.cache_stats["evict_flushes"] / completed,
        "devices.ssd.ops_per_io": ssd["completed"] / completed,
        "devices.hdd.ops_per_io": hdd["completed"] / completed,
        "devices.ssd.qtime_us_mean": sum(cache_load) / max(len(cache_load), 1),
        "devices.hdd.qtime_us_mean": sum(disk_load) / max(len(disk_load), 1),
        "io.ssd.merged_per_io": ssd["merged"] / completed,
        "io.ssd.stolen_per_io": ssd["stolen"] / completed,
        "core.policy_switches": float(result.cache_stats["policy_switches"]),
        "schemes.denied_per_io": denied / completed,
        "experiments.latency_us_p50": _percentile(result.latencies, 50),
        "experiments.latency_us_p99": _percentile(result.latencies, 99),
    }


def run_once(
    workload: str,
    seed: int,
    traced: bool = False,
    horizon_intervals: Optional[int] = None,
) -> dict[str, Any]:
    """Build, run and digest one workload; returns the JSON-ready record.

    ``loop_start`` is the ``time.monotonic()`` reading at the first
    dispatched event, so the parent process can measure set-up time from
    the moment it started this process.  ``run_ns`` covers the event loop
    plus result collection (``ExperimentSystem.run`` after its set-up);
    ``post_ns`` is the result-collection part alone.
    """
    from repro.config import paper_config
    from repro.experiments.system import ExperimentSystem
    from repro.scenario import stats_fingerprint

    ledger = calibration = None
    scope: Any = nullcontext()
    if traced:
        import layers

        calibration = layers.calibrate()
        ledger = layers.Ledger()
        scope = layers.installed(ledger)
    with scope:
        wl_name, scheme = WORKLOADS[workload]
        config = paper_config(seed)
        # Counters-only blktrace, as every batch run (ScenarioSpec.run) uses.
        system = ExperimentSystem.build(wl_name, scheme, config, trace_records=False)
        marks: dict[str, Any] = {}
        loop = system.sim.run
        clock = time.perf_counter_ns

        def timed_loop(until: Optional[float] = None) -> None:
            if ledger is not None:
                ledger.reset()
            marks["loop_start"] = time.monotonic()
            marks["loop_t0"] = clock()
            loop(until)
            marks["loop_t1"] = clock()
            if ledger is not None:
                ledger.close()
                marks["ledger"] = ledger.snapshot()

        system.sim.run = timed_loop
        until = (
            None if horizon_intervals is None else horizon_intervals * config.interval_us
        )
        result = system.run(until_us=until)
        t_end = clock()
    fingerprint = stats_fingerprint(result)
    record: dict[str, Any] = {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "digest": fingerprint_digest(fingerprint),
        "generated": result.workload_stats["generated"],
        "completed": result.completed,
        "events": result.events_processed,
        "loop_start": marks["loop_start"],
        "loop_ns": marks["loop_t1"] - marks["loop_t0"],
        "run_ns": t_end - marks["loop_t0"],
        "post_ns": t_end - marks["loop_t1"],
        "model": model_counts(result),
    }
    if traced:
        record["ledger"] = marks["ledger"]
        record["calibration"] = calibration
    return record


def peak_rss_kb() -> int:
    """This process's peak resident memory (KiB) since it started.

    ``VmHWM`` counts only this program's own address space.  ``ru_maxrss``
    is kept only as the fallback where ``/proc`` is missing: it also
    counts the parent's memory, which the process shared until ``exec``.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    record = run_once(args.workload, args.seed, traced=bool(args.traced))
    record["peak_rss_kb"] = peak_rss_kb()
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
