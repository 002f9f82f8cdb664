"""Lease protocol: acquisition, renewal, stealing, and safety invariants.

The load-bearing property (ISSUE-7 satellite): under *arbitrary*
interleavings of acquire/renew/release/steal/clock-advance, no job is ever
owned by two verified live leases at once. Unit tests pin each protocol
transition; the hypothesis property sweeps the interleaving space.
"""

from __future__ import annotations

import json
import sys
import threading
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from strategies import lease_event_sequences

from repro.campaign.fabric import LeaseDirectory, LeaseLost, ManualClock
from repro.campaign.fabric import leases as leases_module


TTL = 10.0


@pytest.fixture()
def clock():
    return ManualClock()


@pytest.fixture()
def leases(tmp_path, clock):
    return LeaseDirectory(tmp_path / "leases", ttl=TTL, now_fn=clock)


class TestLeaseProtocol:
    def test_acquire_is_exclusive(self, leases):
        first = leases.acquire("job-a", "w1")
        assert first is not None
        assert leases.acquire("job-a", "w2") is None
        assert leases.acquire("job-b", "w2") is not None

    def test_renew_extends_expiry(self, leases, clock):
        lease = leases.acquire("job-a", "w1")
        clock.advance(TTL / 2)
        renewed = leases.renew(lease)
        assert renewed.expires == pytest.approx(clock.now + TTL)
        assert renewed.renewals == 1
        assert leases.verify(renewed)

    def test_expired_lease_is_stolen(self, leases, clock):
        stale = leases.acquire("job-a", "w1")
        clock.advance(TTL + 1)
        stolen = leases.acquire("job-a", "w2")
        assert stolen is not None and stolen.worker_id == "w2"
        # the original holder discovers the theft on its next heartbeat
        with pytest.raises(LeaseLost):
            leases.renew(stale)
        with pytest.raises(LeaseLost):
            leases.release(stale)

    def test_release_frees_the_job(self, leases):
        lease = leases.acquire("job-a", "w1")
        leases.release(lease)
        assert leases.read("job-a") is None
        assert leases.acquire("job-a", "w2") is not None

    def test_live_lease_is_not_stolen(self, leases, clock):
        leases.acquire("job-a", "w1")
        clock.advance(TTL - 1)
        assert leases.acquire("job-a", "w2") is None

    def test_partition_live_vs_expired(self, leases, clock):
        leases.acquire("job-a", "w1")
        clock.advance(TTL + 1)
        leases.acquire("job-b", "w2")
        live, expired = leases.partition()
        assert [lease.job_id for lease in live] == ["job-b"]
        assert [lease.job_id for lease in expired] == ["job-a"]

    def test_torn_lease_file_reads_as_absent(self, leases):
        lease = leases.acquire("job-a", "w1")
        leases.path("job-a").write_text('{"job_id": "job-a", "tor')
        assert leases.read("job-a") is None
        assert not leases.verify(lease)
        # and the slot is claimable again
        assert leases.acquire("job-a", "w2") is not None

    def test_remove_is_idempotent(self, leases):
        leases.acquire("job-a", "w1")
        leases.remove("job-a")
        leases.remove("job-a")
        assert leases.read("job-a") is None

    def test_claim_is_never_visible_half_written(self, tmp_path, clock, monkeypatch):
        """A second worker acquiring mid-claim must not steal the lease.

        ``json.dumps`` runs while the first worker builds its lease file; the
        second worker's ``acquire`` is injected right there, so it sees the
        directory exactly as it is in the middle of the first claim.
        """
        first = LeaseDirectory(tmp_path / "leases", ttl=TTL, now_fn=clock)
        second = LeaseDirectory(tmp_path / "leases", ttl=TTL, now_fn=clock)
        outcomes = {}

        def dumps_then_race(*args, **kwargs):
            if "w2" not in outcomes:
                outcomes["w2"] = None  # the nested acquire must not recurse
                outcomes["w2"] = second.acquire("job-a", "w2")
            return json.dumps(*args, **kwargs)

        fake_json = SimpleNamespace(
            dumps=dumps_then_race, loads=json.loads, JSONDecodeError=json.JSONDecodeError
        )
        monkeypatch.setattr(leases_module, "json", fake_json)
        outcomes["w1"] = first.acquire("job-a", "w1")
        monkeypatch.undo()

        holders = [worker for worker, lease in outcomes.items() if lease is not None]
        assert len(holders) == 1, outcomes
        (holder,) = holders
        assert first.read("job-a").token == outcomes[holder].token
        assert sorted(p.name for p in (tmp_path / "leases").iterdir()) == ["job-a.json"]

    def test_concurrent_claims_have_one_winner(self, tmp_path, clock):
        """Threads race to claim the same jobs; every job gets exactly one holder."""
        n_workers, job_ids = 8, [f"job-{index}" for index in range(40)]
        wins = {job_id: [] for job_id in job_ids}
        lock = threading.Lock()
        start = threading.Barrier(n_workers)

        def worker(name):
            directory = LeaseDirectory(tmp_path / "leases", ttl=TTL, now_fn=clock)
            start.wait(timeout=10)
            for job_id in job_ids:
                if directory.acquire(job_id, name) is not None:
                    with lock:
                        wins[job_id].append(name)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(f"w{index}",))
                for index in range(n_workers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert {job_id: len(names) for job_id, names in wins.items()} == dict.fromkeys(
            job_ids, 1
        )

    def test_ttl_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError):
            LeaseDirectory(tmp_path, ttl=0.0)


class TestLeaseSafetyProperty:
    @given(events=lease_event_sequences(ttl=TTL))
    @settings(max_examples=60, deadline=None)
    def test_no_job_is_ever_owned_twice(self, tmp_path_factory, events):
        """At every instant, at most one verified live lease per job."""
        root = tmp_path_factory.mktemp("lease-prop")
        clock = ManualClock()
        leases = LeaseDirectory(root, ttl=TTL, now_fn=clock)
        held = {}  # (worker, job) -> Lease the worker believes it holds
        for op, worker, job in events:
            if op == "advance":
                clock.advance(job)  # third slot carries seconds
            elif op == "remove":
                leases.remove(job)
            elif op == "acquire":
                lease = leases.acquire(job, worker)
                if lease is not None:
                    held[(worker, job)] = lease
            elif op == "renew":
                lease = held.get((worker, job))
                if lease is not None:
                    try:
                        held[(worker, job)] = leases.renew(lease)
                    except LeaseLost:
                        del held[(worker, job)]
            elif op == "release":
                lease = held.pop((worker, job), None)
                if lease is not None:
                    try:
                        leases.release(lease)
                    except LeaseLost:
                        pass
            # THE invariant: one verified live owner per job, ever.
            now = clock.now
            owners = {}
            for (holder, job_id), lease in held.items():
                if lease.expires > now and leases.verify(lease):
                    owners.setdefault(job_id, []).append(holder)
            for job_id, holders in owners.items():
                assert len(holders) <= 1, (
                    f"job {job_id} owned by {holders} simultaneously"
                )
