"""The campaign layer: resumable experiment sweeps over a run store.

- :mod:`repro.campaign.spec` — :class:`CampaignSpec`: a named list of
  scenarios (registry names or inline :class:`~repro.scenario.
  ScenarioSpec` dicts, sweeps included) with a strict JSON round-trip;
- :mod:`repro.campaign.runner` — :func:`run_campaign`: shard-wise
  execution that skips every key the store already holds, so a killed
  campaign resumes where it stopped;
- :mod:`repro.campaign.report` — status / Markdown report / fingerprint
  diff (two stores, or a store vs. the benchmark goldens);
- :mod:`repro.campaign.cli` — ``repro campaign run|status|report|diff``.

Quickstart::

    from repro.campaign import CampaignSpec, run_campaign
    from repro.store import RunStore

    campaign = CampaignSpec(
        name="demo",
        scenarios=[{"name": "web_schemes", "workload": "web",
                    "base": "quick", "horizon_intervals": 5,
                    "sweep": {"scheme": ["wb", "sib", "lbica"]}}],
    )
    run = run_campaign(campaign, RunStore("results/demo-store"))
    print(run.summary())        # second invocation: 3 store hits, 0 simulated
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.campaign.report import (
        CampaignDiff,
        MetricDelta,
        ScenarioStatus,
        campaign_report,
        campaign_status,
        diff_fingerprints,
        load_fingerprints,
        status_table,
    )
    from repro.campaign.runner import CampaignRun, run_campaign
    from repro.campaign.spec import CampaignError, CampaignSpec, load_campaign

__all__ = [
    "CampaignSpec",
    "CampaignError",
    "load_campaign",
    "CampaignRun",
    "run_campaign",
    "campaign_status",
    "status_table",
    "campaign_report",
    "CampaignDiff",
    "MetricDelta",
    "ScenarioStatus",
    "diff_fingerprints",
    "load_fingerprints",
]

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.campaign.report": (
            "CampaignDiff",
            "MetricDelta",
            "ScenarioStatus",
            "campaign_report",
            "campaign_status",
            "diff_fingerprints",
            "load_fingerprints",
            "status_table",
        ),
        "repro.campaign.runner": ("CampaignRun", "run_campaign"),
        "repro.campaign.spec": ("CampaignError", "CampaignSpec", "load_campaign"),
    },
)
