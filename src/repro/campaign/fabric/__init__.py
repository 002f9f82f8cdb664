"""Fault-tolerant multi-worker campaign fabric.

A filesystem-backed work queue that coordinates elastic workers over one
shared campaign directory — no server, no sockets, no new dependencies;
only atomic POSIX file operations (exclusive ``os.link`` claims, temp file +
``os.replace``, append-only journals). The pieces:

* :mod:`.leases` — time-bounded job claims with heartbeat renewal and
  steal-on-expiry,
* :mod:`.worker` — elastic workers that lease, execute, journal and retry,
* :mod:`.coordinator` — publishes the job grid, merges worker journals
  into the canonical manifest, requeues expired leases, quarantines poison
  jobs, and degrades to serial in-process execution when no workers show,
* :mod:`.retry` — transient/deterministic failure classification and
  bounded exponential backoff with deterministic jitter,
* :mod:`.chaos` — the fault-injection harness (worker kills, heartbeat
  stalls, torn journal tails, forged leases, clock skew) behind the golden
  tests that prove fabric campaigns are byte-identical to serial ones,
* :mod:`.layout` — the on-disk shape of ``<campaign>/fabric/``.

See ``docs/fabric.md`` for the lifecycle, lease protocol and failure
matrix.
"""

from .chaos import (
    ChaosEvaluationCache,
    ChaosKill,
    ChaosPolicy,
    FaultSpec,
    ManualClock,
    SkewedClock,
    corrupt_record,
    forge_lease,
    truncate_tail,
)
from .coordinator import FabricCoordinator, FabricRunSummary, FabricStatus
from .layout import FabricLayout, read_worker_events
from .leases import Lease, LeaseDirectory, LeaseLost
from .retry import RetryPolicy, is_transient
from .worker import FabricWorker, WorkerRunSummary

__all__ = [
    "ChaosEvaluationCache",
    "ChaosKill",
    "ChaosPolicy",
    "FabricCoordinator",
    "FabricLayout",
    "FabricRunSummary",
    "FabricStatus",
    "FabricWorker",
    "FaultSpec",
    "Lease",
    "LeaseDirectory",
    "LeaseLost",
    "ManualClock",
    "RetryPolicy",
    "SkewedClock",
    "WorkerRunSummary",
    "corrupt_record",
    "forge_lease",
    "is_transient",
    "read_worker_events",
    "truncate_tail",
]
