"""Fault-injection simulation (the experimental apparatus of Section 5).

* :mod:`repro.sim.environment` — the simulated system: holds the hidden
  true state, applies recovery actions, advances wall-clock time, accrues
  dropped-request cost, and samples monitor outputs.
* :mod:`repro.sim.metrics` — per-fault metrics (Table 1's columns) and
  their aggregation.
* :mod:`repro.sim.campaign` — drives session-vs-environment episodes
  and whole injection campaigns.
* :mod:`repro.sim.parallel` — the campaign engine: deterministic
  per-episode seeding, chunked dispatch across a worker pool, and
  bound-refinement merge on join.
"""

from repro.sim.campaign import CampaignResult, run_campaign, run_episode
from repro.sim.environment import RecoveryEnvironment
from repro.sim.metrics import (
    EpisodeMetrics,
    MetricSummary,
    campaign_fingerprint,
    summarize,
)
from repro.sim.parallel import CampaignPlan, execute_plan, plan_campaign
from repro.sim.trace import EpisodeTrace, TraceStep, trace_episode

__all__ = [
    "CampaignPlan",
    "CampaignResult",
    "EpisodeMetrics",
    "EpisodeTrace",
    "MetricSummary",
    "RecoveryEnvironment",
    "TraceStep",
    "campaign_fingerprint",
    "execute_plan",
    "plan_campaign",
    "run_campaign",
    "run_episode",
    "summarize",
    "trace_episode",
]
