"""Campaign status, Markdown summaries, and cross-campaign diffs.

Three read-only views over a campaign + store:

- :func:`campaign_status` — which scenarios are stored / missing /
  corrupt (the resumability dashboard);
- :func:`campaign_report` — a Markdown/ASCII summary of every stored
  scenario's headline stats, built on the fixed-width renderers in
  :mod:`repro.analysis.report`;
- :func:`diff_fingerprints` — field-by-field comparison of two
  fingerprint sets (two stores, a store vs. ``benchmarks/golden/``, or
  a ``benchmarks/suite.py --out`` file), flagging latency/load
  **regressions** separately from mere divergence.  Rendering goes
  through :func:`repro.analysis.report.comparison_table`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Optional, Union

from repro.analysis.report import comparison_table, format_table
from repro.campaign.spec import CampaignSpec
from repro.store.run_store import RunKey, RunStore, SchemaMismatchError, StoreError

__all__ = [
    "ScenarioStatus",
    "campaign_status",
    "status_table",
    "campaign_report",
    "MetricDelta",
    "CampaignDiff",
    "diff_fingerprints",
    "load_fingerprints",
]


# ----------------------------------------------------------------------
# Status
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScenarioStatus:
    """One scenario's standing in a store.

    ``wall_s`` and ``events_per_sec`` come from the stored artifact's
    ``perf`` section when present (timed write-through runs record
    them); ``None`` for missing/corrupt scenarios and untimed artifacts.
    """

    name: str
    workload: str
    scheme: str
    digest: str
    state: str  # "stored" | "missing" | "corrupt" | "schema-mismatch"
    detail: str = ""
    wall_s: Optional[float] = None
    events_per_sec: Optional[float] = None


def _statuses_with_artifacts(campaign: CampaignSpec, store: RunStore):
    """Classify every scenario, keeping each loaded artifact.

    One ``store.get`` per scenario serves both the status view and the
    report's metric rows — the verified artifact rides along instead of
    being re-read (and re-hashed) per consumer.
    """
    out = []
    for spec in campaign.expand():
        digest = RunKey.for_spec(spec).digest
        workload = spec.workload if isinstance(spec.workload, str) else "<inline>"
        artifact = None
        if not store.contains(digest):
            state, detail = "missing", ""
        else:
            try:
                artifact = store.get(digest)
                state, detail = "stored", ""
            except SchemaMismatchError as exc:
                state, detail = "schema-mismatch", str(exc)
            except StoreError as exc:
                state, detail = "corrupt", str(exc)
        perf = artifact.perf if artifact is not None else {}
        status = ScenarioStatus(
            name=spec.name,
            workload=workload,
            scheme=spec.scheme,
            digest=digest,
            state=state,
            detail=detail,
            wall_s=perf.get("wall_clock_s"),
            events_per_sec=perf.get("events_per_sec"),
        )
        out.append((status, artifact))
    return out


def campaign_status(
    campaign: CampaignSpec, store: RunStore
) -> list[ScenarioStatus]:
    """Per-scenario store standing, in campaign order."""
    return [status for status, _ in _statuses_with_artifacts(campaign, store)]


def status_table(statuses: list[ScenarioStatus]) -> str:
    """Fixed-width status listing (the ``campaign status`` output)."""
    return format_table(
        ["scenario", "workload", "scheme", "state", "wall s", "events/s", "key"],
        [
            (
                s.name,
                s.workload,
                s.scheme,
                s.state,
                f"{s.wall_s:.2f}" if s.wall_s is not None else "-",
                f"{s.events_per_sec:,.0f}"
                if s.events_per_sec is not None
                else "-",
                s.digest[:12],
            )
            for s in statuses
        ],
        title="campaign status",
    )


# ----------------------------------------------------------------------
# Markdown report
# ----------------------------------------------------------------------
def campaign_report(campaign: CampaignSpec, store: RunStore) -> str:
    """A Markdown summary of every stored scenario's headline numbers."""
    classified = _statuses_with_artifacts(campaign, store)
    stored = [(s, art) for s, art in classified if s.state == "stored"]
    pending = [s for s, _ in classified if s.state != "stored"]

    lines = [f"# Campaign `{campaign.name}`", ""]
    if campaign.description:
        lines += [campaign.description, ""]
    lines += [
        f"{len(classified)} scenarios — {len(stored)} stored, "
        f"{len(pending)} not yet runnable from the store.",
        "",
    ]
    if stored:
        rows = []
        for _, artifact in stored:
            overall = artifact.latency.get("overall", {})
            hit_ratio = artifact.fingerprint.get("cache_stats", {}).get(
                "read_hit_ratio", 0.0
            )
            rows.append(
                (
                    artifact.name,
                    f"{artifact.workload}/{artifact.scheme}",
                    artifact.completed,
                    artifact.mean_latency,
                    overall.get("p95", float("nan")),
                    overall.get("p99", float("nan")),
                    f"{hit_ratio:.2%}",
                    artifact.fingerprint.get("events_processed", 0),
                )
            )
        lines += [
            "```",
            format_table(
                [
                    "scenario",
                    "workload/scheme",
                    "completed",
                    "mean µs",
                    "p95 µs",
                    "p99 µs",
                    "hit ratio",
                    "events",
                ],
                rows,
            ),
            "```",
            "",
        ]
    if pending:
        lines.append("Pending (run `repro campaign run` to fill in):")
        lines += [f"- `{s.name}` — {s.state}" for s in pending]
        lines.append("")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Diff
# ----------------------------------------------------------------------
#: Fingerprint leaves where *lower is better*: an increase beyond the
#: tolerance is a regression, not just a divergence.
_LOWER_IS_BETTER = ("latency", "load_sum", "qtime")


def _flatten(prefix: str, node: object, out: dict[str, object]) -> None:
    if isinstance(node, dict):
        for key in sorted(node):
            _flatten(f"{prefix}.{key}" if prefix else str(key), node[key], out)
    else:
        out[prefix] = node


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass(frozen=True)
class MetricDelta:
    """One diverging fingerprint metric."""

    metric: str
    a: object
    b: object
    verdict: str  # "REGRESSED" | "improved" | "DIVERGES"

    @property
    def is_regression(self) -> bool:
        """Whether this delta moves a lower-is-better metric the wrong way."""
        return self.verdict.startswith("REGRESSED")


@dataclass
class CampaignDiff:
    """Field-by-field comparison of two fingerprint sets."""

    deltas: dict[str, list[MetricDelta]] = field(default_factory=dict)
    identical: list[str] = field(default_factory=list)
    only_a: list[str] = field(default_factory=list)
    only_b: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when every shared scenario matched exactly (or within tolerance)."""
        return not self.deltas

    @property
    def regressions(self) -> list[tuple[str, MetricDelta]]:
        """Every (scenario, delta) flagged as a regression."""
        return [
            (name, delta)
            for name, deltas in self.deltas.items()
            for delta in deltas
            if delta.is_regression
        ]

    def render(self) -> str:
        """Human-readable diff (one comparison table per diverging scenario)."""
        lines = [
            f"{len(self.identical) + len(self.deltas)} scenarios compared: "
            f"{len(self.identical)} identical, {len(self.deltas)} diverging "
            f"({len(self.regressions)} regressed metrics)"
        ]
        if self.only_a:
            lines.append(f"only in A: {', '.join(self.only_a)}")
        if self.only_b:
            lines.append(f"only in B: {', '.join(self.only_b)}")
        for name in sorted(self.deltas):
            rows = {
                delta.metric: (
                    _render_value(delta.a),
                    _render_value(delta.b),
                    delta.verdict,
                )
                for delta in self.deltas[name]
            }
            lines.append("")
            lines.append(
                comparison_table(
                    rows, title=f"scenario {name}", labels=("A", "B")
                )
            )
        return "\n".join(lines)


def _render_value(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _delta_verdict(
    metric: str, a: object, b: object, tolerance: float
) -> Optional[str]:
    """The verdict for one metric pair, or ``None`` when acceptable."""
    if a == b:
        return None
    if _is_number(a) and _is_number(b):
        if math.isnan(a) and math.isnan(b):  # nan != nan, but both "no data"
            return None
        rel = abs(b - a) / abs(a) if a else math.inf
        leaf = metric.rsplit(".", 1)[-1]
        if any(marker in leaf for marker in _LOWER_IS_BETTER):
            if rel <= tolerance:
                return None
            pct = f"{rel:.2%}" if math.isfinite(rel) else "∞"
            return f"REGRESSED (+{pct})" if b > a else f"improved (-{pct})"
        # counts/ratios/structure: any change beyond tolerance diverges
        if rel <= tolerance:
            return None
    return "DIVERGES"


def diff_fingerprints(
    a: Mapping[str, dict],
    b: Mapping[str, dict],
    tolerance: float = 0.0,
) -> CampaignDiff:
    """Compare two ``{scenario name: fingerprint}`` sets.

    Args:
        a: Baseline side.
        b: Candidate side.
        tolerance: Relative tolerance for numeric metrics (``0.0`` =
            exact, the right setting for this deterministic simulator;
            loosen only when comparing across platforms).

    Returns:
        A :class:`CampaignDiff`; scenarios present on only one side are
        listed informationally and never fail the diff.
    """
    if tolerance < 0:
        raise ValueError("tolerance must be non-negative")
    diff = CampaignDiff(
        only_a=sorted(set(a) - set(b)),
        only_b=sorted(set(b) - set(a)),
    )
    for name in sorted(set(a) & set(b)):
        flat_a: dict[str, object] = {}
        flat_b: dict[str, object] = {}
        _flatten("", a[name], flat_a)
        _flatten("", b[name], flat_b)
        deltas: list[MetricDelta] = []
        for metric in sorted(set(flat_a) | set(flat_b)):
            if metric not in flat_a:
                deltas.append(
                    MetricDelta(metric, "<absent>", flat_b[metric], "DIVERGES")
                )
                continue
            if metric not in flat_b:
                deltas.append(
                    MetricDelta(metric, flat_a[metric], "<absent>", "DIVERGES")
                )
                continue
            verdict = _delta_verdict(
                metric, flat_a[metric], flat_b[metric], tolerance
            )
            if verdict is not None:
                deltas.append(
                    MetricDelta(metric, flat_a[metric], flat_b[metric], verdict)
                )
        if deltas:
            diff.deltas[name] = deltas
        else:
            diff.identical.append(name)
    return diff


def _looks_like_fingerprint(entry: object) -> bool:
    return isinstance(entry, dict) and "completed" in entry and "scheme" in entry


def load_fingerprints(
    source: Union[str, Path, RunStore],
    campaign: Optional[CampaignSpec] = None,
) -> dict[str, dict]:
    """``{scenario name: fingerprint}`` from any comparable source.

    Accepts a :class:`RunStore` (or a store directory path) or a file
    in the ``benchmarks/golden/`` format (which ``benchmarks/suite.py
    --out`` writes).  Grid entries (``{sub: fingerprint}``) flatten to
    ``"entry/sub"`` names.

    Args:
        source: Store / directory / JSON file to read.
        campaign: When given and the source is a store, only artifacts
            whose keys the campaign's scenarios address are loaded —
            this disambiguates stores that hold several campaigns (or
            the same scenario under several configs).
    """
    if isinstance(source, RunStore):
        store = source
    else:
        path = Path(source)
        if not path.is_dir():
            return _fingerprints_from_document(path)
        store = RunStore(path)
    out: dict[str, dict] = {}
    if campaign is not None:
        for spec in campaign.expand():
            key = RunKey.for_spec(spec)
            if store.contains(key):
                out[spec.name] = store.get(key).fingerprint
        return out
    for digest in store.digests():
        artifact = store.get(digest)
        if artifact.name in out:
            raise ValueError(
                f"store {store.root}: scenario name {artifact.name!r} is "
                f"stored under several keys (different configs?) — pass the "
                f"campaign file to `diff` to disambiguate"
            )
        out[artifact.name] = artifact.fingerprint
    return out


def _fingerprints_from_document(path: Path) -> dict[str, dict]:
    doc = json.loads(path.read_text(encoding="utf-8"))
    scenarios = doc.get("scenarios") if isinstance(doc, dict) else None
    if not isinstance(scenarios, dict):
        raise ValueError(f"{path}: not a golden document (no 'scenarios' mapping)")
    out: dict[str, dict] = {}
    for name, entry in scenarios.items():
        if _looks_like_fingerprint(entry):
            out[name] = entry
        elif isinstance(entry, dict) and all(
            _looks_like_fingerprint(sub) for sub in entry.values()
        ):
            for sub, fingerprint in entry.items():  # grid entries
                out[f"{name}/{sub}"] = fingerprint
        else:
            raise ValueError(f"{path}: scenario {name!r} is not a fingerprint")
    return out
