"""Elastic fabric workers: lease, execute, heartbeat, journal, retry.

A :class:`FabricWorker` is one claimant on a campaign's fabric directory.
It owns no global state: workers can join a running campaign at any time,
die at any time (the coordinator reaps their expired leases), and any
number of them can share the directory — over local processes today and
an NFS mount tomorrow.

The execution model per :meth:`~FabricWorker.step`:

1. heartbeat the registration file (so the coordinator knows a worker
   exists — this is what keeps it from degrading to serial execution),
2. scan the queue in sorted order and try to lease the first claimable
   job (exclusive ``os.link`` / steal-if-expired, see :mod:`.leases`),
3. execute it through the exact same :func:`~repro.campaign.runner.execute_job`
   the single-host runner uses — artifacts, cache shards and determinism
   guarantees are shared, which is why a fabric campaign's results are
   byte-identical to a serial run's,
4. heartbeat the lease after every fresh evaluation (via the cache hook),
5. retry transient failures with bounded exponential backoff, fail fast
   on deterministic ones (a ``failed/`` record tells the coordinator and
   the other workers to leave the job alone),
6. journal every transition to the worker's own append-only journal —
   the coordinator merges these into the canonical ``manifest.jsonl``
   (per-rank logs, one aggregated report).

Chaos-test hooks (:mod:`.chaos`) fire at the documented fault points; in
production configurations ``chaos`` is ``None`` and every hook is inert.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple, Union

from ...core.signals import sigterm_as_interrupt
from ..journal import write_json_atomic
from ..spec import JobSpec
from .chaos import ChaosEvaluationCache, ChaosPolicy
from .layout import FabricLayout
from .leases import Lease, LeaseDirectory, LeaseLost
from .retry import RetryPolicy

#: Statuses :meth:`FabricWorker.step` can return.
STEP_STATUSES: Tuple[str, ...] = (
    "completed",  # leased a job and finished it
    "failed",     # leased a job; it failed deterministically (record written)
    "idle",       # nothing claimable right now
    "stalled",    # chaos: holding a lease without executing (hung worker)
    "abandoned",  # woke from a stall to find the lease stolen; job dropped
    "done",       # the coordinator marked the campaign terminal
)


@dataclass
class WorkerRunSummary:
    """Aggregate outcome of one :meth:`FabricWorker.run` call."""

    worker_id: str
    completed: int = 0
    failed: int = 0
    steps: int = 0
    #: Stopped by Ctrl-C or SIGTERM rather than by the campaign or a limit.
    interrupted: bool = False


class FabricWorker:
    """One elastic worker process (or in-process step-driven worker).

    Args:
        directory: the campaign directory (the fabric lives under
            ``<directory>/fabric``).
        worker_id: stable identity; defaults to ``w<pid>``. Becomes the
            per-worker journal/registration name, so it must be unique
            among concurrently running workers.
        lease_ttl: lease lifetime in seconds. Must comfortably exceed the
            duration of one evaluation (heartbeats fire between
            evaluations, not during one).
        use_cache: share fresh evaluations through the campaign's
            persistent cache (default on; this is what dedupes work when
            leases race or jobs are requeued mid-flight).
        retry: transient-failure policy (default :class:`RetryPolicy`).
        chaos: optional :class:`~.chaos.ChaosPolicy` for fault injection.
        now_fn: clock for lease timestamps (chaos clock-skew injects here).
        sleep_fn: used for retry backoff and idle polling (injectable).
        execute_fn: job executor; defaults to
            :func:`~repro.campaign.runner.execute_job`. Tests substitute a
            stub to drive thousands of protocol interleavings cheaply.
        register: write the registration/heartbeat file (the coordinator's
            inline fallback worker turns this off so it does not count
            itself as an external worker).
    """

    def __init__(
        self,
        directory: Union[str, Path],
        worker_id: Optional[str] = None,
        lease_ttl: float = 30.0,
        use_cache: bool = True,
        retry: Optional[RetryPolicy] = None,
        chaos: Optional[ChaosPolicy] = None,
        now_fn: Callable[[], float] = time.time,
        sleep_fn: Callable[[float], None] = time.sleep,
        execute_fn: Optional[Callable[..., object]] = None,
        register: bool = True,
    ) -> None:
        self.directory = Path(directory)
        self.worker_id = worker_id if worker_id is not None else f"w{os.getpid()}"
        self.layout = FabricLayout(self.directory)
        self.leases = LeaseDirectory(self.layout.leases_dir, ttl=lease_ttl, now_fn=now_fn)
        self.use_cache = bool(use_cache)
        self.retry = retry if retry is not None else RetryPolicy()
        self.chaos = chaos
        self.now_fn = now_fn
        self.sleep_fn = sleep_fn
        if execute_fn is None:
            # Deferred: runner imports fabric.retry at module scope, so a
            # top-level import here would close an import cycle.
            from ..runner import execute_job

            execute_fn = execute_job
        self.execute_fn = execute_fn
        self.register = bool(register)
        self._started = now_fn()
        #: The lease this worker holds (running or stalled job), or ``None``.
        #: Set the moment a lease is won, cleared when it is released or
        #: lost; :meth:`run` releases it when stopped at any point between.
        self._lease: Optional[Lease] = None
        #: The queue entry of a stalled job (chaos), whose lease is ``_lease``.
        self._stalled: Optional[Dict[str, object]] = None

    # -- journaling and registration ---------------------------------------------

    def journal(self, event: str, **payload: object) -> None:
        """Append one event to this worker's journal (chaos point ``worker_journal``)."""
        if self.chaos is not None:
            self.chaos.hit("worker_journal")
        self.layout.workers_dir.mkdir(parents=True, exist_ok=True)
        record = {
            "event": event,
            "worker_id": self.worker_id,
            "unix_time": round(self.now_fn(), 3),
            **payload,
        }
        with open(self.layout.worker_journal(self.worker_id), "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
            handle.flush()

    def _register(self) -> None:
        """Write/refresh the registration heartbeat (chaos point ``heartbeat``)."""
        if not self.register:
            return
        if self.chaos is not None and self.chaos.hit("heartbeat") == "stall":
            return
        write_json_atomic(
            self.layout.worker_registration(self.worker_id),
            {
                "worker_id": self.worker_id,
                "started": round(self._started, 3),
                "heartbeat": round(self.now_fn(), 3),
                "pid": os.getpid(),
            },
        )

    def _maybe_renew_lease(self) -> None:
        """Heartbeat the held lease when past half its TTL (chaos: ``heartbeat``).

        Called between evaluations (after each fresh cache put). A lost
        lease is journaled but execution continues: results are pure
        functions of the job spec and every fresh evaluation lands in the
        shared cache, so finishing is harmless and usually useful.
        """
        lease = self._lease
        if lease is None:
            return
        if self.chaos is not None and self.chaos.hit("heartbeat") == "stall":
            return
        if self.now_fn() < lease.expires - self.leases.ttl / 2.0:
            return
        try:
            self._lease = self.leases.renew(lease)
        except LeaseLost:
            self.journal("lease_lost", job_id=lease.job_id)
            self._lease = None

    # -- claiming ----------------------------------------------------------------

    def _claimable(self, job_id: str) -> bool:
        """Whether a queue entry is still worth claiming."""
        if (self.directory / "jobs" / job_id / "result.json").is_file():
            return False
        if self.layout.failed_entry(job_id).exists():
            return False
        if self.layout.quarantine_entry(job_id).exists():
            return False
        return True

    def step(self) -> str:
        """Heartbeat, then claim and run at most one job. Returns a status.

        The unit of test-driven interleaving: coordinators and other
        workers can act between any two ``step`` calls, and a chaos kill
        inside a step leaves exactly the state a SIGKILL would.
        """
        self._register()
        if self._stalled is not None:
            return self._resume_after_stall()
        if self.layout.complete_path.exists():
            return "done"
        for entry in self.layout.queue_entries():
            job_data = entry.get("job")
            if not isinstance(job_data, dict) or "job_id" not in job_data:
                continue
            job_id = str(job_data["job_id"])
            if not self._claimable(job_id):
                continue
            self._lease = self.leases.acquire(job_id, self.worker_id)
            if self._lease is None:
                continue
            return self._start_leased(entry)
        return "idle"

    def _start_leased(self, entry: Dict[str, object]) -> str:
        """Entry point after winning a lease (chaos point ``job_started``)."""
        job_id = self._lease.job_id  # type: ignore[union-attr]
        self.journal("job_leased", job_id=job_id, requeues=entry.get("requeues", 0))
        if self.chaos is not None and self.chaos.hit("job_started") == "stall":
            # A hung worker: keeps the lease, does nothing. The lease will
            # expire and be stolen/requeued unless the stall ends in time.
            self._stalled = entry
            self.journal("job_stalled", job_id=job_id)
            return "stalled"
        return self._run_job(entry)

    def _resume_after_stall(self) -> str:
        """Wake from a stall: still ours? run it. Stolen? abandon it."""
        entry = self._stalled
        if self.chaos is not None and self.chaos.hit("job_started") == "stall":
            return "stalled"
        self._stalled = None
        lease = self._lease
        try:
            self._lease = self.leases.renew(lease)  # type: ignore[arg-type]
        except LeaseLost:
            # The fabric moved on while we hung; the job belongs to someone
            # else (or is already done). Drop it without executing.
            self._lease = None
            self.journal("lease_lost", job_id=lease.job_id)  # type: ignore[union-attr]
            self.journal("job_abandoned", job_id=lease.job_id)  # type: ignore[union-attr]
            return "abandoned"
        return self._run_job(entry)  # type: ignore[arg-type]

    # -- execution ---------------------------------------------------------------

    def _cache_factory(self, cache_dir: Path, context_key: str, max_entries):
        """Build the shared persistent cache wired with heartbeat + chaos hooks."""
        return ChaosEvaluationCache(
            cache_dir,
            context_key,
            max_entries=max_entries,
            chaos=self.chaos,
            on_fresh_put=self._maybe_renew_lease,
        )

    def _run_job(self, entry: Dict[str, object]) -> str:
        """Execute the leased job with bounded retry; journal the outcome."""
        job = JobSpec.from_dict(entry["job"])  # type: ignore[arg-type]
        self.journal("job_started", job_id=job.job_id)
        attempt = 0
        while True:
            attempt += 1
            try:
                outcome = self.execute_fn(
                    job,
                    self.directory,
                    use_cache=self.use_cache,
                    cache_factory=self._cache_factory if self.use_cache else None,
                )
            except Exception as error:  # noqa: BLE001 - classified below
                message = f"{type(error).__name__}: {error}"
                if self.retry.should_retry(error, attempt):
                    delay = self.retry.delay(job.job_id, attempt)
                    self.journal(
                        "job_retrying",
                        job_id=job.job_id,
                        attempt=attempt,
                        delay=round(delay, 6),
                        error=message,
                    )
                    self._maybe_renew_lease()
                    if delay > 0:
                        self.sleep_fn(delay)
                    continue
                write_json_atomic(
                    self.layout.failed_entry(job.job_id),
                    {
                        "job_id": job.job_id,
                        "worker_id": self.worker_id,
                        "error": message,
                        "attempts": attempt,
                        "transient": False,
                    },
                )
                self.journal(
                    "job_failed", job_id=job.job_id, error=message, attempts=attempt
                )
                self._release()
                return "failed"
            self.journal(
                "job_completed",
                job_id=job.job_id,
                attempts=attempt,
                wall_s=round(outcome.wall_s, 6),
                n_evaluations=outcome.n_evaluations,
                front_size=outcome.front_size,
            )
            self._release()
            return "completed"

    def _release(self) -> None:
        """Release the held lease, if any, tolerating a concurrent steal (journaled).

        A lease already found lost by a heartbeat is not ours to release.
        """
        lease = self._lease
        if lease is None:
            return
        try:
            self.leases.release(lease)
        except LeaseLost:
            self.journal("lease_lost", job_id=lease.job_id)
        self._lease = None

    # -- long-running loop (CLI) -------------------------------------------------

    def run(
        self,
        poll_interval: float = 0.5,
        max_idle_s: Optional[float] = 300.0,
        max_jobs: Optional[int] = None,
    ) -> WorkerRunSummary:
        """Drain jobs until the campaign is terminal (or idle too long).

        Ctrl-C or SIGTERM stops the worker cleanly: a held lease is
        released (the job is claimable by another worker at once, and the
        evaluations it already cached are reused), ``worker_stopped`` is
        journaled with ``interrupted: true`` and the summary is returned.

        Args:
            poll_interval: sleep between idle scans.
            max_idle_s: exit after this long with nothing claimable
                (``None`` waits forever — until the coordinator's terminal
                marker appears).
            max_jobs: stop after executing this many jobs (tests,
                incremental drains).
        """
        summary = WorkerRunSummary(worker_id=self.worker_id)
        idle_since: Optional[float] = None
        self.journal("worker_started", pid=os.getpid())
        try:
            with sigterm_as_interrupt():
                while True:
                    status = self.step()
                    summary.steps += 1
                    if status == "done":
                        break
                    if status == "completed":
                        summary.completed += 1
                        idle_since = None
                    elif status == "failed":
                        summary.failed += 1
                        idle_since = None
                    else:
                        now = time.monotonic()
                        idle_since = idle_since if idle_since is not None else now
                        if max_idle_s is not None and now - idle_since >= max_idle_s:
                            break
                        self.sleep_fn(poll_interval)
                    if max_jobs is not None and summary.completed + summary.failed >= max_jobs:
                        break
        except KeyboardInterrupt:
            # Whenever the stop lands (leased, stalled or mid-job), hand the
            # job back at once instead of holding it until the TTL.
            summary.interrupted = True
            self._stalled = None
            self._release()
        extra = {"interrupted": True} if summary.interrupted else {}
        self.journal(
            "worker_stopped", completed=summary.completed, failed=summary.failed, **extra
        )
        return summary
