"""Time-bounded job leases over a shared directory of atomic files.

One lease file per job, under ``<campaign>/fabric/leases/``. The protocol
uses only primitives that are atomic on POSIX filesystems (and safe on
modern NFS), so it coordinates worker *processes* on one machine today and
NFS-mounted hosts tomorrow without a server:

* **Acquire** — write the lease to a per-token temp file, then
  ``os.link`` it into place: exactly one contender wins, everyone else
  sees the file exists, and the file only ever appears complete (a
  reader can never mistake a half-written claim for an expired one).
* **Heartbeat / renew** — rewrite the lease via temp file + ``os.replace``
  with a pushed-out expiry. Renewal first re-reads the file and verifies
  the lease *token*: a worker whose lease was stolen (see below) gets
  :class:`LeaseLost` instead of silently extending someone else's lease.
* **Steal** — a lease whose ``expires`` timestamp has passed may be taken
  over by replacing the file. Two stealers can race; the ``os.replace``
  is atomic, so exactly one token survives, and each stealer re-reads the
  file afterwards to learn whether it won. The loser backs off.
* **Release** — verify the token, then unlink.

Timestamps come from an injectable ``now_fn`` so tests (and the chaos
harness's clock-skew fault) control time explicitly. Because job results
are pure functions of their specs and every fresh evaluation lands in the
shared persistent cache, a lease raced or stolen at the worst possible
moment can only cost duplicated (deduplicated) work — never a wrong or
diverging campaign result.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union


class LeaseLost(RuntimeError):
    """Raised when renewing/releasing a lease this worker no longer owns.

    The canonical cause: the lease expired (the worker stalled past the
    TTL, or its clock was skewed) and another worker stole it. The holder
    must stop trusting its claim on the job; finishing the in-flight
    computation is harmless (results are deterministic and cache-deduped)
    but no further lease operations may be issued.
    """


@dataclass(frozen=True)
class Lease:
    """One worker's time-bounded claim on one job.

    Attributes:
        job_id: the claimed job.
        worker_id: the claiming worker.
        token: unique per-acquisition secret; ownership checks compare it
            against the token in the lease file, which is what makes
            steal races detectable.
        acquired: unix time of acquisition.
        expires: unix time after which the lease may be stolen.
        renewals: heartbeat count so far.
    """

    job_id: str
    worker_id: str
    token: str
    acquired: float
    expires: float
    renewals: int = 0

    def as_dict(self) -> Dict[str, object]:
        """JSON form stored in the lease file."""
        return {
            "job_id": self.job_id,
            "worker_id": self.worker_id,
            "token": self.token,
            "acquired": self.acquired,
            "expires": self.expires,
            "renewals": self.renewals,
        }

    @staticmethod
    def from_dict(data: Dict[str, object]) -> "Lease":
        """Inverse of :meth:`as_dict`."""
        return Lease(
            job_id=str(data["job_id"]),
            worker_id=str(data["worker_id"]),
            token=str(data["token"]),
            acquired=float(data["acquired"]),  # type: ignore[arg-type]
            expires=float(data["expires"]),  # type: ignore[arg-type]
            renewals=int(data.get("renewals", 0)),  # type: ignore[arg-type]
        )


class LeaseDirectory:
    """The lease files of one campaign's fabric, with acquire/renew/steal.

    Args:
        directory: the lease directory (created on demand).
        ttl: lease lifetime in seconds; heartbeats push ``expires`` out by
            this much from *now*.
        now_fn: clock used for every timestamp (injectable for tests and
            for the chaos harness's clock-skew fault).
    """

    def __init__(
        self,
        directory: Union[str, Path],
        ttl: float = 30.0,
        now_fn: Callable[[], float] = time.time,
    ) -> None:
        if ttl <= 0:
            raise ValueError(f"ttl must be > 0, got {ttl}")
        self.directory = Path(directory)
        self.ttl = float(ttl)
        self.now_fn = now_fn
        self._acquired_count = 0

    # -- paths -------------------------------------------------------------------

    def path(self, job_id: str) -> Path:
        """Lease file for one job."""
        return self.directory / f"{job_id}.json"

    def _write(self, lease: Lease) -> None:
        """Atomically (re)write a lease file via temp + ``os.replace``.

        The temp name embeds the token so two racing stealers never write
        through the same temp file.
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        target = self.path(lease.job_id)
        tmp = target.with_name(f"{target.name}.{lease.token}.tmp")
        tmp.write_text(json.dumps(lease.as_dict(), sort_keys=True) + "\n")
        os.replace(tmp, target)

    def read(self, job_id: str) -> Optional[Lease]:
        """The current lease on a job, or ``None`` (missing or torn file)."""
        try:
            data = json.loads(self.path(job_id).read_text())
        except FileNotFoundError:
            return None
        except (json.JSONDecodeError, OSError):
            # A torn lease write (kill mid-replace cannot happen, but a
            # corrupted filesystem can): treated as absent, i.e. stealable.
            return None
        try:
            return Lease.from_dict(data)
        except (KeyError, TypeError, ValueError):
            return None

    # -- protocol ----------------------------------------------------------------

    def _new_token(self, worker_id: str) -> str:
        """Unique-per-acquisition token (never reaches deterministic artifacts)."""
        self._acquired_count += 1
        return f"{worker_id}.{os.getpid()}.{self._acquired_count}.{self.now_fn():.6f}"

    def acquire(self, job_id: str, worker_id: str) -> Optional[Lease]:
        """Try to claim a job: fresh exclusive link, or steal if expired.

        Returns the lease on success, ``None`` when another live lease
        holds the job (or a steal race was lost).
        """
        now = self.now_fn()
        lease = Lease(
            job_id=job_id,
            worker_id=worker_id,
            token=self._new_token(worker_id),
            acquired=now,
            expires=now + self.ttl,
        )
        self.directory.mkdir(parents=True, exist_ok=True)
        target = self.path(job_id)
        tmp = target.with_name(f"{target.name}.{lease.token}.tmp")
        try:
            tmp.write_text(json.dumps(lease.as_dict(), sort_keys=True) + "\n")
            os.link(tmp, target)
            return lease
        except FileExistsError:
            pass
        finally:
            tmp.unlink(missing_ok=True)
        return self._steal_if_expired(lease)

    def _steal_if_expired(self, candidate: Lease) -> Optional[Lease]:
        """Take over an expired lease; ``None`` if it is live or we lost the race."""
        current = self.read(candidate.job_id)
        if current is not None and current.expires > self.now_fn():
            return None
        # Replace, then read back: of N racing stealers exactly one token
        # survives the last atomic replace... but "last writer wins" means
        # an earlier writer may read back its own token before the final
        # write lands. That window admits two workers both believing they
        # own the lease — which the token check on renew/release converts
        # into LeaseLost for the loser, and the shared evaluation cache
        # dedupes any work raced in the meantime.
        self._write(candidate)
        survivor = self.read(candidate.job_id)
        if survivor is not None and survivor.token == candidate.token:
            return candidate
        return None

    def verify(self, lease: Lease) -> bool:
        """Whether the lease file still carries this lease's token."""
        current = self.read(lease.job_id)
        return current is not None and current.token == lease.token

    def renew(self, lease: Lease) -> Lease:
        """Heartbeat: push the expiry out by one TTL from now.

        Raises :class:`LeaseLost` when the on-disk lease no longer carries
        this worker's token (expired and stolen, or released).
        """
        if not self.verify(lease):
            raise LeaseLost(
                f"lease on '{lease.job_id}' lost by {lease.worker_id} "
                "(expired and taken over, or released)"
            )
        now = self.now_fn()
        renewed = Lease(
            job_id=lease.job_id,
            worker_id=lease.worker_id,
            token=lease.token,
            acquired=lease.acquired,
            expires=now + self.ttl,
            renewals=lease.renewals + 1,
        )
        self._write(renewed)
        return renewed

    def release(self, lease: Lease) -> None:
        """Drop the claim (unlink). Raises :class:`LeaseLost` if not ours."""
        if not self.verify(lease):
            raise LeaseLost(
                f"lease on '{lease.job_id}' cannot be released by "
                f"{lease.worker_id}: token mismatch"
            )
        try:
            self.path(lease.job_id).unlink()
        except FileNotFoundError:  # pragma: no cover - release/steal race
            pass

    def remove(self, job_id: str) -> None:
        """Administratively clear a job's lease file (coordinator reaping)."""
        try:
            self.path(job_id).unlink()
        except FileNotFoundError:
            pass

    # -- inspection --------------------------------------------------------------

    def all_leases(self) -> List[Lease]:
        """Every decodable lease, sorted by job id."""
        if not self.directory.is_dir():
            return []
        leases = []
        for entry in sorted(self.directory.glob("*.json")):
            lease = self.read(entry.stem)
            if lease is not None:
                leases.append(lease)
        return leases

    def partition(self) -> Tuple[List[Lease], List[Lease]]:
        """``(live, expired)`` leases as of ``now_fn()``."""
        now = self.now_fn()
        live, expired = [], []
        for lease in self.all_leases():
            (live if lease.expires > now else expired).append(lease)
        return live, expired
