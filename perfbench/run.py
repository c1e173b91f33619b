#!/usr/bin/env python3
"""The repository benchmark: LBICA workloads through the full stack.

Each measured run is a fresh ``perfbench/measure.py`` process that builds
the paper-configuration ``ExperimentSystem`` for one workload and runs
it to the end of its script.  After one discarded warm-up run, runs
repeat until ``--seconds`` have passed (at least :data:`MIN_RUNS`), and
every metric is the median over the runs.  Every run's stats
fingerprint is checked against ``perfbench/references.json``.

Usage, from the repository root::

    python3 perfbench/run.py --workload tpcc_lbica --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload mail_lbica --seed 1 --seconds 15 --trace 1
    python3 perfbench/run.py --update-references

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced runs and prints the per-layer ledger and the
simulated-time model counts.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  See
``perfbench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import heapq
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Optional

from layers import LAYERS
from measure import WORKLOADS, run_once

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCES = HERE / "references.json"

#: Reference seeds kept per workload; benchmark seed ``n`` runs the
#: workload at entry ``n % SEEDS_PER_WORKLOAD`` of its reference list.
SEEDS_PER_WORKLOAD = 16
#: Fewest measured runs of each kind, however short ``--seconds`` is.
MIN_RUNS = 3
#: A measured run that takes longer than this is killed and fails.
RUN_TIMEOUT_S = 150.0
#: Stop starting runs after this long, so the benchmark ends within 180 s.
MAX_MEASURE_S = 120.0
#: Host time the speed probe is scaled to (see :class:`HostSpeedProbe`).
PROBE_NOMINAL_S = 0.05


class BenchmarkError(RuntimeError):
    """A measured run could not complete."""


def in_character(workload: str, record: dict[str, Any]) -> bool:
    """Whether a run's seed may stand for its workload.

    Every request must complete by the end of the script, so no
    operation fails; ``mail_lbica`` must also switch policy and steal
    ops to the HDD, the behaviour it is in the benchmark for.
    """
    if record["completed"] != record["generated"]:
        return False
    if workload == "mail_lbica":
        model = record["model"]
        return model["io.ssd.stolen_per_io"] > 0 and model["core.policy_switches"] >= 3
    return True


def reference_for(workload: str, seed: int) -> dict[str, Any]:
    """The reference entry (workload seed and digest) benchmark seed ``seed`` uses."""
    entries = json.loads(REFERENCES.read_text())["workloads"][workload]
    return entries[seed % len(entries)]


class _ProbeOp:
    __slots__ = ("lba", "due", "hits")

    def __init__(self, lba: int, due: float) -> None:
        self.lba = lba
        self.due = due
        self.hits = 0


class HostSpeedProbe:
    """Times a fixed pure-Python workload to track the host's speed.

    The host's speed drifts by a third or more within minutes (other
    tenants of the machine), so the end-to-end host times are scaled by
    this probe, taken between runs (see :func:`collect`).  It never
    touches the package, so no change under test can move it.  It mixes
    a small-footprint loop (heap, dict, small objects, integer and float
    arithmetic, like the simulator's hot path) with random access into a
    table far larger than the CPU caches, because contention slows the
    two kinds of work differently.
    """

    def __init__(self, table_blocks: int = 200_000) -> None:
        self.table = {lba: _ProbeOp(lba, 0.0) for lba in range(table_blocks)}

    def __call__(self, events: int = 30_000) -> float:
        """Host seconds the probe workload takes right now."""
        table = self.table
        size = len(table)
        small: list[tuple[float, int, _ProbeOp]] = []
        large: list[tuple[float, int, _ProbeOp]] = []
        counts: dict[int, int] = {}
        x = 12345
        start = time.perf_counter()
        for i in range(events):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            op = _ProbeOp(x % 4096, i * 1.5)
            heapq.heappush(small, (op.due + x % 97, i, op))
            if len(small) > 64:
                due, _, done = heapq.heappop(small)
                counts[done.lba] = counts.get(done.lba, 0) + 1
            if i % 3 == 0:
                block = table[x % size]
                block.hits += 1
                heapq.heappush(large, (block.due + x % 997, i, block))
                if len(large) > 4096:
                    heapq.heappop(large)
        return time.perf_counter() - start


def measure(workload: str, seed: int, traced: bool) -> dict[str, Any]:
    """One run in a fresh process; adds ``setup_s`` measured from its start."""
    cmd = [
        sys.executable,
        str(HERE / "measure.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--traced",
        str(int(traced)),
    ]
    # A fixed hash seed removes one source of run-to-run layout noise.
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    started = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{workload}: run timed out after {RUN_TIMEOUT_S}s") from None
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["(no output)"]
        raise BenchmarkError(f"{workload}: run exited {proc.returncode}: {tail[0]}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    # Both clocks are the system-wide monotonic clock.
    record["setup_s"] = record["loop_start"] - started
    return record


def collect(
    workload: str, seed: int, seconds: float, trace: bool
) -> tuple[list[dict], float]:
    """Warm-up plus measured runs, and the host's slowness meanwhile.

    Returns the run records, warm-up first, and ``scale``: the median of
    the speed probes taken before the first measured run and after each
    one, over :data:`PROBE_NOMINAL_S`.
    """
    kinds = (False, True) if trace else (False,)
    probe = HostSpeedProbe()
    runs = [measure(workload, seed, traced=False)]
    probes = [probe()]
    start = time.monotonic()
    counts = dict.fromkeys(kinds, 0)
    i = 0
    while True:
        elapsed = time.monotonic() - start
        short = min(counts.values()) < MIN_RUNS
        if elapsed >= MAX_MEASURE_S or (elapsed >= seconds and not short):
            return runs, statistics.median(probes) / PROBE_NOMINAL_S
        kind = kinds[i % len(kinds)]
        runs.append(measure(workload, seed, traced=kind))
        probes.append(probe())
        counts[kind] += 1
        i += 1


def failed_requests(run: dict[str, Any]) -> int:
    """Requests not completed by the end of the script; all of them if the
    run's fingerprint differs from its reference."""
    return run["generated"] - (run["completed"] if run["ok"] else 0)


def layer_ledger(run: dict) -> dict[str, float]:
    """Calibrated self ns per IO and calls per IO of one traced run."""
    ledger, cal = run["ledger"], run["calibration"]
    per_io = 1.0 / max(run["completed"], 1)
    out: dict[str, float] = {}
    for i, layer in enumerate(LAYERS):
        self_ns = (
            ledger["self_ns"][i]
            - ledger["calls"][i] * cal["inner"]
            - ledger["calls_from"][i] * cal["outer"]
        )
        if layer == "experiments":  # result collection after the loop
            self_ns += run["post_ns"]
        out[f"{layer}.self_ns_per_io"] = self_ns * per_io
        calls = run["events"] if layer == "sim" else ledger["calls"][i]
        out[f"{layer}.calls_per_io"] = calls * per_io
    return out


def sim_ios_per_host_s(untraced: list[dict]) -> float:
    """Median completed requests per host second of ``ExperimentSystem.run``."""
    return statistics.median(r["completed"] / (r["run_ns"] * 1e-9) for r in untraced)


def end_to_end(untraced: list[dict], scale: float) -> dict[str, float]:
    """The end-to-end metrics: medians over the untraced runs.

    Host times are divided by ``scale`` (see :func:`collect`), i.e.
    stated at the host speed where the probe takes
    :data:`PROBE_NOMINAL_S`.
    """
    generated = sum(r["generated"] for r in untraced)
    failed = sum(failed_requests(r) for r in untraced)
    return {
        "sim_ios_per_s": sim_ios_per_host_s(untraced) * scale,
        "setup_s": statistics.median(r["setup_s"] for r in untraced) / scale,
        "peak_rss_mb": statistics.median(r["peak_rss_kb"] / 1024.0 for r in untraced),
        "completed_ops_ratio": 1.0 - failed / max(generated, 1),
    }


def per_layer(untraced: list[dict], traced: list[dict]) -> dict[str, float]:
    """Ledger rows (medians over traced runs) and the model counts."""
    ledgers = [layer_ledger(r) for r in traced]
    out = {name: statistics.median(lg[name] for lg in ledgers) for name in ledgers[0]}
    out.update(untraced[0]["model"])
    untraced_ns = statistics.median(r["run_ns"] / r["completed"] for r in untraced)
    sum_layers = sum(v for k, v in out.items() if k.endswith(".self_ns_per_io"))
    runs = untraced + traced
    generated = sum(r["generated"] for r in runs)
    failed = sum(failed_requests(r) for r in runs)
    out.update(
        {
            "failed_ops_ratio": failed / max(generated, 1),
            "ledger.untraced_ns_per_io": untraced_ns,
            "ledger.sum_layers_ns_per_io": sum_layers,
            "ledger.unexplained_ns_per_io": untraced_ns - sum_layers,
            "ledger.tracing_overhead_x": statistics.median(r["run_ns"] for r in traced)
            / statistics.median(r["run_ns"] for r in untraced),
            "ledger.wrapper_ns_per_call": statistics.median(
                r["calibration"]["total"] for r in traced
            ),
        }
    )
    return out


def ledger_table(metrics: dict[str, float]) -> str:
    """Human-readable per-layer rows with the reconciliation line."""
    lines = [f"{'layer':<18}{'self ns/IO':>12}{'calls/IO':>10}"]
    for layer in LAYERS:
        lines.append(
            f"{layer:<18}{metrics[f'{layer}.self_ns_per_io']:>12.1f}"
            f"{metrics[f'{layer}.calls_per_io']:>10.3f}"
        )
    lines.append(
        f"{'sum of layers':<18}{metrics['ledger.sum_layers_ns_per_io']:>12.1f}"
        f"   vs untraced {metrics['ledger.untraced_ns_per_io']:.1f} ns/IO "
        f"(unexplained {metrics['ledger.unexplained_ns_per_io']:.1f}, "
        f"tracing {metrics['ledger.tracing_overhead_x']:.2f}x)"
    )
    return "\n".join(lines)


def update_references() -> None:
    """Re-record the reference seeds and fingerprint digests.

    Scans workload seeds upward from 0 and keeps the first
    :data:`SEEDS_PER_WORKLOAD` that are :func:`in_character`.
    """
    doc: dict[str, Any] = {"config": "paper", "horizon": "full script", "workloads": {}}
    for workload in WORKLOADS:
        entries: list[dict[str, Any]] = []
        seed = 0
        while len(entries) < SEEDS_PER_WORKLOAD:
            record = run_once(workload, seed)
            if in_character(workload, record):
                entries.append(
                    {key: record[key] for key in ("seed", "digest", "generated", "completed")}
                )
                print(f"{workload} seed {seed}: {record['digest'][:16]}", file=sys.stderr)
            seed += 1
        doc["workloads"][workload] = entries
    REFERENCES.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--update-references",
        action="store_true",
        help="re-record the fingerprint references (after a deliberate model change)",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro package under {ROOT}", file=sys.stderr)
        return 2
    if args.update_references:
        update_references()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = reference_for(args.workload, args.seed)
    try:
        runs, scale = collect(args.workload, reference["seed"], args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for run in runs:
        run["ok"] = run["digest"] == reference["digest"]
    measured = runs[1:]
    untraced = [r for r in measured if not r["traced"]]
    traced = [r for r in measured if r["traced"]]
    if args.trace:
        values = per_layer(untraced, traced)
        print(ledger_table(values), file=sys.stderr)
        section = declared["per_layer"]
    else:
        values = end_to_end(untraced, scale)
        section = declared["end_to_end"]
        print(
            f"unscaled sim_ios_per_s {sim_ios_per_host_s(untraced):.0f}, host scale {scale:.3f}",
            file=sys.stderr,
        )
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in section}
    result = {
        "correct": all(run["ok"] for run in runs),
        "attempted": sum(r["generated"] for r in measured),
        "failed": sum(failed_requests(r) for r in measured),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
