"""Campaign orchestration benchmark: overhead and cached-resume speedup.

The campaign layer (PR 4) wraps the search kernel in journaling, a
persistent evaluation cache and atomic artifact writes. This benchmark
measures what that wrapper costs and what the cache buys:

* **Orchestration overhead** — a 2-job campaign (seeds + redwine, small GA)
  run through :class:`repro.campaign.CampaignRunner` versus the same two
  searches driven directly; the delta is journal/cache/artifact time.
* **Cached resume** — re-running the same campaign into a fresh directory
  that shares the warm cache shards: every evaluation is served from disk
  and every job loads its stored baseline instead of training it, so the
  speedup shows the per-genome record replay rate.

Numbers land in the ``campaign`` section of ``BENCH_evaluation.json`` and
the ``BENCH_history.json`` trajectory.
"""

from __future__ import annotations

import json
import shutil
import time

import pytest

from benchlib import SMOKE, record_bench
from repro.campaign import CampaignRunner, CampaignSpec
from repro.core import MinimizationPipeline
from repro.search import EvaluationSettings, GAConfig, HardwareAwareGA

_SPEC_DATA = {
    "name": "bench",
    "datasets": ["seeds", "redwine"],
    "pipeline": {
        "train_epochs": 5 if SMOKE else 20,
        "n_samples": 150 if SMOKE else 400,
        "finetune_epochs": 2,
    },
    "searches": [
        {
            "algorithm": "ga",
            "population_size": 6 if SMOKE else 10,
            "n_generations": 2 if SMOKE else 4,
            "finetune_epochs": 2,
        }
    ],
}


@pytest.fixture(scope="module")
def spec():
    return CampaignSpec.from_dict(_SPEC_DATA)


def _run_campaign(spec, directory):
    start = time.perf_counter()
    summary = CampaignRunner(spec, directory).run()
    assert summary.ok, [outcome.error for outcome in summary.outcomes]
    return time.perf_counter() - start, summary


def _run_bare_searches(spec):
    """The same searches the campaign runs, without the orchestration layer."""
    start = time.perf_counter()
    evaluations = 0
    for job in spec.expand():
        prepared = MinimizationPipeline(job.pipeline_config()).prepare()
        params = job.search_params()
        config = GAConfig(**params, seed=job.seed)
        settings = EvaluationSettings(finetune_epochs=config.finetune_epochs)
        result = HardwareAwareGA(prepared, config=config, settings=settings).run()
        evaluations += result.n_evaluations
    return time.perf_counter() - start, evaluations


def test_campaign_overhead_and_cached_resume(spec, tmp_path):
    # Warm-up: one throwaway campaign pays numpy/memo cold-start for both paths.
    _run_campaign(spec, tmp_path / "warmup")

    bare_s, evaluations = _run_bare_searches(spec)
    cold_s, cold_summary = _run_campaign(spec, tmp_path / "cold")
    assert sum(o.n_evaluations for o in cold_summary.outcomes) == evaluations

    # Re-running a completed campaign (journal fast-path): pure resume check.
    noop_start = time.perf_counter()
    CampaignRunner(spec, tmp_path / "cold").run()
    noop_s = time.perf_counter() - noop_start

    # Fresh directory, warm cache shards: every genome replays from disk.
    warm_dir = tmp_path / "warm"
    warm_dir.mkdir()
    shutil.copytree(tmp_path / "cold" / "cache", warm_dir / "cache")
    warm_s, warm_summary = _run_campaign(spec, warm_dir)
    assert sum(o.n_evaluations for o in warm_summary.outcomes) == 0  # all cached
    for outcome in warm_summary.outcomes:
        result = json.loads((warm_dir / "jobs" / outcome.job_id / "result.json").read_text())
        assert result["baseline"] == "loaded", f"{outcome.job_id} retrained its baseline"

    overhead_s = cold_s - bare_s
    payload = {
        "jobs": len(spec.expand()),
        "evaluations": evaluations,
        "bare_search_s": bare_s,
        "campaign_s": cold_s,
        "orchestration_overhead_s": overhead_s,
        "noop_rerun_s": noop_s,
        "cached_resume_s": warm_s,
        "cached_resume_speedup": cold_s / warm_s if warm_s > 0 else float("inf"),
    }
    record_bench("campaign", payload)
    print(
        f"\ncampaign: bare {bare_s:.2f}s, orchestrated {cold_s:.2f}s "
        f"(overhead {overhead_s * 1e3:.0f} ms), cached resume {warm_s:.2f}s "
        f"({payload['cached_resume_speedup']:.1f}x), no-op rerun {noop_s * 1e3:.0f} ms"
    )

    # Orchestration must stay a thin wrapper and the cache must actually pay:
    # generous CI-safe floors, the absolute numbers live in the JSON artifact.
    assert overhead_s < max(1.0, 0.5 * bare_s), (
        f"campaign orchestration overhead too high: {overhead_s:.2f}s "
        f"on top of {bare_s:.2f}s of search"
    )
    assert warm_s < cold_s, "cached resume must beat the cold campaign"
    assert noop_s < 1.0, f"no-op rerun of a completed campaign took {noop_s:.2f}s"
