"""Chaos golden tests: fabric campaigns are byte-identical to serial runs.

The ISSUE-7 acceptance criterion. For every fault class — worker killed
mid-evaluation, heartbeat stall, truncated journal tail, duplicate/stale
lease, clock skew — a coordinator + workers campaign driven through the
chaos harness must produce ``front.json`` and ``report/summary.json``
bytes identical to an uninterrupted single-host run, with duplicated
evaluations deduped through the shared persistent cache.

Real executor, tiny pipeline: each scenario runs a full 2-job campaign.
"""

from __future__ import annotations

import json

import pytest

from repro.campaign import CampaignRunner, CampaignSpec, build_report, write_report
from repro.campaign.fabric import (
    ChaosKill,
    ChaosPolicy,
    FabricCoordinator,
    FabricWorker,
    FaultSpec,
    ManualClock,
    SkewedClock,
    forge_lease,
    truncate_tail,
)
from repro.campaign.fabric.layout import read_worker_events

TTL = 10.0
JOB_IDS = ("seeds-random-s0", "seeds-random-s1")


def _spec():
    return CampaignSpec.from_dict(
        {
            "name": "chaos-golden",
            "datasets": ["seeds"],
            "seeds": [0, 1],
            "pipeline": {"train_epochs": 3, "n_samples": 120, "finetune_epochs": 1},
            "searches": [{"algorithm": "random", "n_evaluations": 3}],
        }
    )


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """The uninterrupted single-host run every chaos scenario must match."""
    directory = tmp_path_factory.mktemp("reference") / "camp"
    summary = CampaignRunner(_spec(), directory).run()
    assert summary.ok
    write_report(directory, build_report(directory))
    return directory


def _coordinator(tmp_path, clock, **kwargs):
    kwargs.setdefault("lease_ttl", TTL)
    kwargs.setdefault("worker_timeout", 0.0)
    kwargs.setdefault("now_fn", clock)
    kwargs.setdefault("sleep_fn", lambda s: None)
    return FabricCoordinator(_spec(), tmp_path / "camp", **kwargs)


def _worker(coordinator, worker_id, clock, **kwargs):
    kwargs.setdefault("lease_ttl", TTL)
    kwargs.setdefault("now_fn", clock)
    kwargs.setdefault("sleep_fn", lambda s: None)
    return FabricWorker(coordinator.directory, worker_id=worker_id, **kwargs)


def _drain(coordinator, worker, clock, max_steps=30):
    """Healthy worker + coordinator until the campaign is terminal."""
    for _ in range(max_steps):
        status = coordinator.step()
        if status.all_done:
            return status
        if worker.step() == "idle":
            clock.advance(TTL + 1)
    raise AssertionError("fabric failed to converge")


def _assert_bytes_identical(reference, directory):
    write_report(directory, build_report(directory))
    for job_id in JOB_IDS:
        assert (directory / "jobs" / job_id / "front.json").read_bytes() == (
            reference / "jobs" / job_id / "front.json"
        ).read_bytes(), f"front.json diverged for {job_id}"
    for name in ("summary.json", "front_seeds.json", "front_seeds.csv"):
        assert (directory / "report" / name).read_bytes() == (
            reference / "report" / name
        ).read_bytes(), f"report/{name} diverged"


class TestChaosGolden:
    def test_worker_killed_mid_evaluation(self, tmp_path, reference):
        """SIGKILL between two journaled evaluations: the job is requeued and
        the replacement fast-forwards through the dead worker's cache."""
        clock = ManualClock()
        coordinator = _coordinator(tmp_path, clock)
        coordinator.publish()
        doomed = _worker(
            coordinator,
            "doomed",
            clock,
            chaos=ChaosPolicy(faults=(FaultSpec("evaluation_put", "kill", after=1),)),
        )
        with pytest.raises(ChaosKill):
            doomed.step()  # dies holding the lease, 2 evaluations journaled
        clock.advance(TTL + 1)  # its lease expires
        status = _drain(coordinator, _worker(coordinator, "healthy", clock), clock)
        assert status.complete
        _assert_bytes_identical(reference, coordinator.directory)
        # dedupe proof: the re-run preloaded the dead worker's evaluations
        preloaded = [
            json.loads(
                (coordinator.directory / "jobs" / job_id / "result.json").read_text()
            )["cache"]["preloaded"]
            for job_id in JOB_IDS
        ]
        assert max(preloaded) >= 2, f"expected cache fast-forward, got {preloaded}"

    @pytest.mark.parametrize(
        "faults",
        [
            # between two journaled evaluations
            (FaultSpec("evaluation_put", "interrupt", after=1),),
            # lease won, job not yet started
            (FaultSpec("job_started", "interrupt"),),
            # while stalled holding the lease
            (FaultSpec("job_started", "stall"), FaultSpec("job_started", "interrupt", after=1)),
        ],
        ids=["mid_job", "job_started", "stalled"],
    )
    def test_stopped_worker_hands_the_lease_back(self, tmp_path, reference, faults):
        """Ctrl-C or SIGTERM (``KeyboardInterrupt`` under ``run``) wherever a
        lease is held: the worker releases it and journals ``worker_stopped``;
        a second worker completes the job at once (no TTL wait) and the
        fronts match the serial run."""
        clock = ManualClock()
        coordinator = _coordinator(tmp_path, clock)
        coordinator.publish()
        stopped = _worker(coordinator, "stopped", clock, chaos=ChaosPolicy(faults=faults))
        summary = stopped.run(max_idle_s=None)
        assert summary.interrupted and summary.completed == 0
        assert list(coordinator.layout.leases_dir.iterdir()) == []
        events = read_worker_events(coordinator.layout.worker_journal("stopped"))
        assert "job_leased" in [e["event"] for e in events]
        assert events[-1]["event"] == "worker_stopped"
        assert events[-1]["interrupted"] is True
        # no clock.advance: the released job is claimable immediately
        replacement = _worker(coordinator, "replacement", clock)
        assert replacement.step() == "completed"
        status = _drain(coordinator, replacement, clock)
        assert status.complete
        _assert_bytes_identical(reference, coordinator.directory)

    def test_heartbeat_stall(self, tmp_path, reference):
        """A hung worker keeps its lease without heartbeating: the coordinator
        requeues the job, and the sleeper finds its lease gone on waking."""
        clock = ManualClock()
        coordinator = _coordinator(tmp_path, clock)
        coordinator.publish()
        sleeper = _worker(
            coordinator,
            "sleeper",
            clock,
            chaos=ChaosPolicy(faults=(FaultSpec("job_started", "stall", count=2),)),
        )
        assert sleeper.step() == "stalled"
        clock.advance(TTL + 1)
        status = _drain(coordinator, _worker(coordinator, "healthy", clock), clock)
        assert status.complete
        assert sleeper.step() == "stalled"
        assert sleeper.step() == "abandoned"  # wakes to a stolen lease
        _assert_bytes_identical(reference, coordinator.directory)

    def test_truncated_journal_tail(self, tmp_path, reference):
        """A worker's journal torn mid-record (kill during append) merges as
        a clean prefix; completion comes from artifacts, so nothing is lost."""
        clock = ManualClock()
        coordinator = _coordinator(tmp_path, clock)
        coordinator.publish()
        scribe = _worker(coordinator, "scribe", clock)
        assert scribe.step() == "completed"
        journal_path = coordinator.layout.worker_journal("scribe")
        truncate_tail(journal_path, 7)  # tear the final record
        status = _drain(coordinator, _worker(coordinator, "healthy", clock), clock)
        assert status.complete
        _assert_bytes_identical(reference, coordinator.directory)

    def test_stale_and_duplicate_leases(self, tmp_path, reference):
        """A zombie's live lease blocks the job until it expires (then the
        job requeues); a forged lease on a completed job is reaped."""
        clock = ManualClock()
        coordinator = _coordinator(tmp_path, clock)
        coordinator.publish()
        forge_lease(coordinator.leases, JOB_IDS[0], worker_id="zombie", expires_in=TTL)
        worker = _worker(coordinator, "healthy", clock)
        assert worker.step() == "completed"  # claims the unblocked job
        assert worker.step() == "idle"  # the forged lease blocks the other
        clock.advance(TTL + 1)
        status = _drain(coordinator, worker, clock)
        assert status.complete
        # plant a leftover lease on an already-completed job: reaped, not requeued
        forge_lease(coordinator.leases, JOB_IDS[1], worker_id="zombie", expires_in=-1.0)
        coordinator.step()
        assert coordinator.leases.read(JOB_IDS[1]) is None
        _assert_bytes_identical(reference, coordinator.directory)

    def test_clock_skew(self, tmp_path, reference):
        """A worker whose clock runs behind writes already-expired leases;
        the coordinator requeues its job with no wall-clock wait at all."""
        clock = ManualClock()
        coordinator = _coordinator(tmp_path, clock)
        coordinator.publish()
        drifted = _worker(
            coordinator,
            "drifted",
            clock,
            now_fn=SkewedClock(-2 * TTL, base=clock),
            chaos=ChaosPolicy(faults=(FaultSpec("evaluation_put", "kill", after=0),)),
        )
        with pytest.raises(ChaosKill):
            drifted.step()
        # no clock.advance: the skewed lease was born expired
        status = _drain(coordinator, _worker(coordinator, "healthy", clock), clock)
        assert status.complete
        _assert_bytes_identical(reference, coordinator.directory)

    def test_serial_fallback_matches_reference(self, tmp_path, reference):
        """The no-workers degradation path is the same byte-identical run."""
        clock = ManualClock()
        coordinator = _coordinator(tmp_path, clock)
        summary = coordinator.run(poll_interval=0.0)
        assert summary.ok and summary.serial_fallback
        _assert_bytes_identical(reference, coordinator.directory)
