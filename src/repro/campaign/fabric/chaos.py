"""Injectable fault points for the fabric: the chaos harness.

PR 4 proved single-host crash-safety with one deterministic trick — a
cache that raises after N journaled evaluations (``fail_after_puts``).
This module generalizes that trick into a small vocabulary of *fault
points* that the worker and coordinator consult at well-defined moments,
so a test can script precisely *where* in the protocol a worker dies,
stalls or lies about the time:

=================  ==========================================================
fault point        fires...
=================  ==========================================================
``evaluation_put`` after each fresh evaluation is journaled to the shared
                   persistent cache (mid-job: the generalization of
                   ``fail_after_puts``)
``job_started``    when a worker is about to execute a leased job
``heartbeat``      when a worker would renew its lease / registration
``worker_journal`` before a worker appends to its per-worker journal
=================  ==========================================================

Actions: ``kill`` raises :class:`ChaosKill` (a ``BaseException``, so it
sails through the worker's normal failure handling exactly like SIGKILL
sails through ``except Exception``); ``stall`` tells the caller to skip
the operation (a hung worker whose lease silently expires); ``interrupt``
raises ``KeyboardInterrupt``, which is what Ctrl-C or SIGTERM become under
:meth:`~.worker.FabricWorker.run` (an operator stopping the worker at that
point, which ``run`` turns into a clean stop). Clock skew is
modelled separately by :class:`SkewedClock`, and filesystem-level faults
(torn journal tails, forged stale leases) by the helper functions below —
they need no cooperation from the victim.

Everything here is deterministic: fault triggers count hits, never sample
randomness, so every chaos test replays exactly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple, Union

from ..cache import PersistentEvaluationCache
from .leases import Lease, LeaseDirectory

#: Fault points a :class:`ChaosPolicy` can target.
FAULT_POINTS: Tuple[str, ...] = (
    "evaluation_put",
    "job_started",
    "heartbeat",
    "worker_journal",
)

#: Actions a fault can take when triggered.
FAULT_ACTIONS: Tuple[str, ...] = ("kill", "stall", "interrupt")


class ChaosKill(BaseException):
    """Simulated abrupt worker death (SIGKILL stand-in for in-process tests).

    Deliberately a ``BaseException``: the worker's retry/failure handling
    catches ``Exception``, so a chaos kill — like a real SIGKILL — skips
    every cleanup path (no lease release, no failure journaling) and
    leaves the fabric to recover via lease expiry.
    """


@dataclass(frozen=True)
class FaultSpec:
    """One scripted fault: *at this point, after N hits, do this*.

    Attributes:
        point: one of :data:`FAULT_POINTS`.
        action: one of :data:`FAULT_ACTIONS`.
        after: hits of ``point`` to let pass before triggering (0 = the
            first hit triggers).
        count: how many consecutive hits trigger once reached (``stall``
            faults usually span several heartbeats; ``kill`` fires once).
    """

    point: str
    action: str = "kill"
    after: int = 0
    count: int = 1

    def __post_init__(self) -> None:
        """Validate the point/action vocabulary and trigger window."""
        if self.point not in FAULT_POINTS:
            raise ValueError(f"Unknown fault point '{self.point}'. Valid: {FAULT_POINTS}")
        if self.action not in FAULT_ACTIONS:
            raise ValueError(f"Unknown fault action '{self.action}'. Valid: {FAULT_ACTIONS}")
        if self.after < 0 or self.count < 1:
            raise ValueError("after must be >= 0 and count >= 1")


@dataclass
class ChaosPolicy:
    """A deterministic script of faults consulted by one worker.

    Attributes:
        faults: the scripted faults (evaluated in order; the first fault
            whose trigger window covers the current hit count acts).
    """

    faults: Tuple[FaultSpec, ...] = ()
    _hits: Dict[str, int] = field(default_factory=dict, repr=False)

    def hit(self, point: str) -> Optional[str]:
        """Record one hit of ``point``; raise or return the triggered action.

        Returns ``None`` (no fault), ``"stall"`` (caller must skip the
        operation), or raises :class:`ChaosKill` for ``kill`` faults and
        ``KeyboardInterrupt`` for ``interrupt`` faults.
        """
        seen = self._hits.get(point, 0)
        self._hits[point] = seen + 1
        for fault in self.faults:
            if fault.point != point:
                continue
            if fault.after <= seen < fault.after + fault.count:
                if fault.action == "kill":
                    raise ChaosKill(f"chaos kill at {point} (hit {seen + 1})")
                if fault.action == "interrupt":
                    raise KeyboardInterrupt(f"chaos interrupt at {point} (hit {seen + 1})")
                return fault.action
        return None

    def hits(self, point: str) -> int:
        """How many times ``point`` has been consulted so far."""
        return self._hits.get(point, 0)


class ChaosEvaluationCache(PersistentEvaluationCache):
    """The shared persistent cache with the ``evaluation_put`` fault point.

    Exactly a :class:`~repro.campaign.cache.PersistentEvaluationCache`,
    plus two worker hooks fired after every *fresh* (newly journaled)
    evaluation: the worker's lease heartbeat, and the chaos policy's
    ``evaluation_put`` point — the mid-evaluation kill window.
    """

    def __init__(self, *args, chaos=None, on_fresh_put=None, **kwargs) -> None:
        """Wrap the persistent cache; see base class for the storage args.

        Args:
            chaos: optional :class:`ChaosPolicy` consulted per fresh put.
            on_fresh_put: optional zero-argument callable invoked per fresh
                put *before* the chaos point (the worker's heartbeat —
                it must run even on the put that chaos then kills, like a
                real worker that heartbeats and then dies).
        """
        self._chaos = chaos
        self._on_fresh_put = on_fresh_put
        super().__init__(*args, **kwargs)

    def put(self, genome, point) -> None:
        """Insert + journal, then fire the heartbeat hook and chaos point."""
        persisted_before = self.n_persisted
        super().put(genome, point)
        if self.n_persisted == persisted_before:
            return  # duplicate: nothing new journaled, no fault window
        if self._on_fresh_put is not None:
            self._on_fresh_put()
        if self._chaos is not None:
            self._chaos.hit("evaluation_put")


class SkewedClock:
    """A clock running a fixed offset from a base clock (clock-skew fault).

    A worker holding a negatively skewed clock writes leases that are
    already expired in everyone else's frame: the coordinator requeues its
    in-flight job immediately, modelling the classic distributed-systems
    failure where one host's NTP drifts.
    """

    def __init__(self, offset: float, base: Callable[[], float] = time.time) -> None:
        """``offset`` seconds are added to every reading of ``base``."""
        self.offset = float(offset)
        self.base = base

    def __call__(self) -> float:
        """The skewed time."""
        return self.base() + self.offset


class ManualClock:
    """A test clock advanced explicitly — time moves only when told to."""

    def __init__(self, start: float = 1_000_000.0) -> None:
        """Start the clock at ``start`` (an arbitrary epoch)."""
        self.now = float(start)

    def __call__(self) -> float:
        """The current manual time."""
        return self.now

    def advance(self, seconds: float) -> float:
        """Move time forward and return the new reading."""
        self.now += float(seconds)
        return self.now


# -- filesystem-level faults (no victim cooperation needed) ------------------------


def truncate_tail(path: Union[str, Path], n_bytes: int) -> None:
    """Chop the last ``n_bytes`` off a file — a torn final write.

    This is what a worker killed mid-append (or a lost NFS write-back)
    leaves behind: the journal's final record is an undecodable fragment.
    Readers must skip it without losing the records before it.
    """
    path = Path(path)
    size = path.stat().st_size
    with open(path, "r+b") as handle:
        handle.truncate(max(0, size - int(n_bytes)))


def corrupt_record(path: Union[str, Path], line_index: int) -> None:
    """Overwrite the middle of one record in place — a torn *mid-file* write.

    Unlike a truncated tail, the file keeps its length and later records
    stay intact; only the targeted line becomes garbage. Models a partial
    sector write on power loss. Readers must skip exactly that record.
    """
    path = Path(path)
    lines = path.read_bytes().split(b"\n")
    target = lines[line_index]
    if len(target) >= 4:
        middle = len(target) // 2
        lines[line_index] = target[: middle - 1] + b"\x00#" + target[middle + 1 :]
    else:  # pragma: no cover - degenerate tiny record
        lines[line_index] = b"\x00"
    path.write_bytes(b"\n".join(lines))


def forge_lease(
    lease_directory: LeaseDirectory,
    job_id: str,
    worker_id: str = "ghost",
    expires_in: float = -1.0,
) -> Lease:
    """Plant a lease file for a worker that does not exist.

    ``expires_in`` is relative to the directory's clock: negative plants a
    *stale* lease (a dead worker's leftover the coordinator must reap),
    positive plants a *live* duplicate claim (a zombie still holding the
    job). Returns the forged lease.
    """
    now = lease_directory.now_fn()
    lease = Lease(
        job_id=job_id,
        worker_id=worker_id,
        token=f"{worker_id}.forged",
        acquired=now - lease_directory.ttl,
        expires=now + float(expires_in),
    )
    lease_directory._write(lease)
    return lease
