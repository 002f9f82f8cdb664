"""The four workloads: campaign specs, serial references, timed runs.

Each search run is a real fabric campaign: ``repro campaign coordinate``
(with ``--no-serial-fallback`` and a ``--max-wall`` cap), two ``repro
campaign work`` workers started only once ``fabric/queue`` holds every
job, then ``repro campaign report``. Its outputs are compared byte for byte
with an in-process serial reference (``CampaignRunner`` + ``write_report``)
of the same spec, built once in setup. The serve workload runs ``repro
serve`` over two such references and drives it from :mod:`loadgen`, whose
every answer is checked against the in-process ``FrontStore``/``QueryEngine``.
"""

from __future__ import annotations

import json
import random
import shutil
import statistics
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import loadgen
import spans
from harness import SAMPLE_S, Fleet, Program, now
from launch import IDLE_SPANS

DATASETS = ("whitewine", "redwine", "pendigits", "seeds")

#: Manifest events that mean the fabric did not run cleanly.
FAILURE_EVENTS = frozenset({
    "serial_fallback", "job_failed", "job_quarantined", "job_requeued", "lease_expired",
    "job_abandoned", "job_retrying",
})

#: Shares of ``--seconds``: a search run starts campaign repetitions until
#: ``REPS_SHARE`` of it has passed; the serve workload starts server
#: launches until ``LAUNCH_SHARE`` has passed and then holds its fixed-rate
#: phase for ``SERVE_FIXED_SHARE``. The stepped ``max_rps`` search and the
#: serial references built in set-up come on top.
REPS_SHARE = 0.7
LAUNCH_SHARE = 0.4
SERVE_FIXED_SHARE = 0.2

#: Coordinator wall-clock cap; a campaign that needs it has failed.
MAX_WALL_S = 60.0


@dataclass(frozen=True)
class Size:
    """How much work one run does (``FULL`` for measurements)."""

    population: int = 12
    generations: int = 4
    n_seeds: int = 3
    n_samples: int = 1200
    finetune_epochs: int = 8
    fault_trials: int = 16
    closed_requests: int = 1000
    fixed_rate: float = 250.0
    first_rate: float = 800.0
    step_s: float = 0.4
    staircase: int = 8
    min_launches: int = 3


FULL = Size()
TINY = Size(population=4, generations=1, n_seeds=1, n_samples=300, finetune_epochs=1,
            fault_trials=2, closed_requests=40, fixed_rate=100.0, first_rate=100.0,
            step_s=0.2, staircase=2, min_launches=2)


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    metrics: Dict[str, Tuple[float, str, int]] = field(default_factory=dict)
    layers: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    table: List[Tuple[str, float, float]] = field(default_factory=list)
    notes: Dict[str, object] = field(default_factory=dict)
    attempted: int = 0
    failures: List[str] = field(default_factory=list)

    def check(self, problems: Sequence[str], attempts: int = 1) -> None:
        self.attempted += attempts
        self.failures.extend(problems)

    def median(self, name: str, values: Sequence[float], unit: str) -> None:
        self.metrics[name] = (statistics.median(values), unit, len(values))


# -- specs and references ---------------------------------------------------------


def campaign_seeds(seed: int, count: int) -> List[int]:
    return sorted(random.Random(f"spec-{seed}").sample(range(1000), count))


def campaign_spec(seed: int, size: Size, surrogate: bool = False,
                  datasets: Sequence[str] = DATASETS,
                  seeds: Optional[List[int]] = None) -> dict:
    search = {
        "algorithm": "ga",
        "population_size": size.population,
        "n_generations": size.generations,
        "finetune_epochs": size.finetune_epochs,
        "fault_rate": 0.05,
        "n_fault_trials": size.fault_trials,
    }
    if surrogate:
        search["surrogate"] = "ridge"
    return {
        "name": "perfbench-surrogate" if surrogate else "perfbench",
        "datasets": list(datasets),
        "seeds": seeds if seeds is not None else campaign_seeds(seed, size.n_seeds),
        "pipeline": {"n_samples": size.n_samples},
        "searches": [search],
    }


def outputs(directory: Path) -> Dict[str, bytes]:
    """The bytes a campaign must reproduce: job fronts and report JSON."""
    files = sorted(directory.glob("jobs/*/front.json")) + sorted(
        (directory / "report").glob("*.json"))
    return {str(path.relative_to(directory)): path.read_bytes() for path in files}


def compare(actual: Dict[str, bytes], expected: Dict[str, bytes], label: str) -> List[str]:
    problems = [f"{label}: missing {name}" for name in sorted(set(expected) - set(actual))]
    problems += [f"{label}: unexpected {name}" for name in sorted(set(actual) - set(expected))]
    problems += [
        f"{label}: {name} differs from the serial reference"
        for name in sorted(set(actual) & set(expected))
        if actual[name] != expected[name]
    ]
    return problems


def build_reference(spec: dict, directory: Path) -> Dict[str, bytes]:
    """Run ``spec`` serially in this process and write its report."""
    from repro.campaign import CampaignRunner, CampaignSpec, write_report

    summary = CampaignRunner(CampaignSpec.from_dict(spec), directory).run()
    if not summary.ok:
        raise RuntimeError(f"serial reference failed: {summary.outcomes}")
    write_report(directory)
    return outputs(directory)


def quality(fronts: Sequence[dict]) -> Tuple[float, float]:
    """Mean hypervolume and mean best area gain within 5% accuracy loss.

    A front with no point inside the loss budget counts the baseline's
    own gain, 1.0.
    """
    from repro.core import best_area_gain_at_loss, hypervolume
    from repro.core.results import DesignPoint

    volumes, gains = [], []
    for document in fronts:
        baseline = DesignPoint(**document["baseline"])
        points = [DesignPoint(**point) for point in document["front"]]
        volumes.append(hypervolume(points, baseline))
        best = best_area_gain_at_loss(points, baseline, 0.05)
        gains.append(1.0 if best is None else best.area_gain)
    return statistics.fmean(volumes), statistics.fmean(gains)


def job_fronts(files: Dict[str, bytes]) -> List[dict]:
    return [json.loads(data) for name, data in sorted(files.items())
            if name.startswith("jobs/")]


# -- one fabric campaign ----------------------------------------------------------


def _queued(queue: Path) -> int:
    try:
        return sum(1 for name in queue.iterdir() if name.suffix == ".json")
    except FileNotFoundError:
        return 0


def manifest_events(directory: Path) -> List[dict]:
    path = directory / "manifest.jsonl"
    if not path.exists():
        return []
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


@dataclass
class Rep:
    setup_s: float
    wall_s: float
    window: Tuple[float, float]
    problems: List[str]
    leases_lost: int


def campaign_rep(fleet: Fleet, spec_path: Path, out: Path, n_jobs: int, tag: str) -> Rep:
    """Coordinator + 2 workers + report over ``out``; timed and checked."""
    coordinator = fleet.start(f"coordinate-{tag}", [
        "campaign", "coordinate", "--spec", str(spec_path), "--out", str(out),
        "--no-serial-fallback", "--max-wall", str(MAX_WALL_S),
    ])
    queue = out / "fabric" / "queue"
    published = fleet.until(lambda: _queued(queue) >= n_jobs, 60, watch=[coordinator])
    workers = [fleet.start(f"work{k}-{tag}", ["campaign", "work", "--out", str(out)])
               for k in (1, 2)]
    problems: List[str] = []
    deadline = now() + MAX_WALL_S + 30
    while coordinator.alive and any(w.alive for w in workers) and now() < deadline:
        fleet.poll(SAMPLE_S)
    if coordinator.alive:
        problems.append(f"{tag}: the coordinator outlived its workers or its wall cap")
        coordinator.process.kill()
        fleet.wait(coordinator, 30)
    report = fleet.start(f"report-{tag}", ["campaign", "report", "--out", str(out)])
    ended = fleet.wait(report, 60)
    for worker in workers:
        fleet.wait(worker, 30)
    programs = [coordinator, *workers, report]
    problems += [f"{p.name} exited with {p.returncode}" for p in programs if p.returncode != 0]
    events = manifest_events(out)
    problems += [f"{tag}: manifest event {event['event']} ({event.get('job_id', '')})"
                 for event in events if event["event"] in FAILURE_EVENTS]
    leases_lost = sum(event["event"] == "lease_lost" for event in events)
    return Rep(published - coordinator.started, ended - coordinator.started,
               (coordinator.started, ended), problems, leases_lost)


# -- serving ----------------------------------------------------------------------


def _healthy(port: int) -> bool:
    try:
        with urllib.request.urlopen(f"http://127.0.0.1:{port}/healthz", timeout=1) as answer:
            return answer.status == 200
    except (urllib.error.URLError, ConnectionError, OSError):
        return False


def _port(program: Program) -> Optional[int]:
    for line in program.output().splitlines():
        if line.startswith("serving ") and " on http://" in line:
            return int(line.rsplit(":", 1)[1])
    return None


@dataclass
class Server:
    program: Program
    ready_at: float
    client: loadgen.Client

    @property
    def ready_s(self) -> float:
        return self.ready_at - self.program.started


def start_server(fleet: Fleet, campaigns: Sequence[Path], tag: str) -> Server:
    args = ["serve", "--port", "0"]
    for campaign in campaigns:
        args += ["--campaign", str(campaign)]
    program = fleet.start(f"serve-{tag}", args)
    fleet.until(lambda: _port(program) is not None, 60, watch=[program])
    port = _port(program)
    ready = fleet.until(lambda: _healthy(port), 60, step=0.005, watch=[program])
    return Server(program, ready, loadgen.Client(port))


def stop_server(fleet: Fleet, server: Server) -> List[str]:
    server.client.close()
    server.program.sample_rss()
    fleet.interrupt(server.program, 20)
    code = server.program.returncode
    return [] if code == 0 else [f"{server.program.name} exited with {code} after SIGINT"]


def closed_loop(server: Server, fronts, work, outcome: Outcome) -> float:
    """Every full front, then ``work``, closed loop; when the last answer came.

    The front GETs also give the client the ETags its conditional requests
    send.
    """
    for phase in (server.client.run(fronts, None), server.client.run(work, None)):
        outcome.check(phase.failures, phase.attempted)
    return phase.window[1]


def fixed_phase(server: Server, mix, rate: float, seconds: float, seed: int,
                outcome: Outcome) -> loadgen.PhaseResult:
    phase = server.client.run(loadgen.sequence(mix, int(rate * seconds), seed), rate)
    outcome.check(phase.failures, phase.attempted)
    _validate(phase, "fixed-rate phase", outcome)
    return phase


def _validate(phase: loadgen.PhaseResult, label: str, outcome: Outcome) -> None:
    key = f"{label} max generator lateness ms"
    outcome.notes[key] = max(outcome.notes.get(key, 0.0), round(phase.max_lateness * 1e3, 3))
    if not phase.valid:
        outcome.check([f"{label}: generator ran {phase.max_lateness * 1e3:.1f} ms late "
                       f"(limit {loadgen.MAX_LATENESS_S * 1e3:.0f} ms)"])


def latency_phase(server: Server, mix, size: Size, seconds: float, seed: int,
                  outcome: Outcome) -> loadgen.PhaseResult:
    """p50 and p99 latency at the fixed rate."""
    phase = fixed_phase(server, mix, size.fixed_rate, seconds, seed, outcome)
    samples = len(phase.latencies)
    outcome.metrics["p50_ms"] = (statistics.median(phase.latencies) * 1e3, "ms", samples)
    outcome.metrics["p99_ms"] = (phase.percentile(0.99) * 1e3, "ms", samples)
    return phase


def capacity_phase(server: Server, mix, size: Size, seed: int, outcome: Outcome) -> None:
    """The stepped-rate search for ``max_rps``."""
    max_rps, rows, phases = loadgen.stepped(server.client, mix, size.first_rate, size.step_s,
                                            seed, size.staircase)
    for step in phases:
        outcome.check(step.failures, step.attempted)
        _validate(step, "stepped phase", outcome)
    outcome.metrics["max_rps"] = (max_rps, "1/s", len(rows))
    outcome.notes["steps"] = rows
    outcome.notes["p99 limit ms"] = loadgen.P99_LIMIT_MS


# -- tracing ----------------------------------------------------------------------


def trace_documents(trace_dir: Path) -> List[dict]:
    return [json.loads(path.read_text()) for path in sorted(trace_dir.glob("*.json"))]


def layer_table(documents: List[dict], window: Tuple[float, float], outcome: Outcome) -> None:
    """Wall-shared self time per layer; rows plus ``unattributed`` = wall."""
    start, end = window
    shares = spans.attribute(spans.lanes(documents), start, end, IDLE_SPANS)
    busy = spans.busy(documents)
    for name in sorted(shares, key=shares.get, reverse=True):
        outcome.table.append((name, shares[name], busy.get(name, 0.0)))
    for name, share in shares.items():
        key = "unattributed_s" if name == spans.UNATTRIBUTED else f"{name}_s"
        outcome.layers[key] = (share, "s")
    outcome.layers["trace.wall_s"] = (end - start, "s")
    missing = sorted({m for d in documents for m in d.get("missing_patches", ())})
    if missing:
        outcome.notes["entry points not found (their layers read 0)"] = missing


# -- the workloads ----------------------------------------------------------------


@dataclass
class Context:
    workload: str
    seed: int
    seconds: float
    trace: bool
    size: Size
    workdir: Path


#: ``workload: (surrogate on, cache primed from the reference)``.
SEARCH = {
    "search-cold": (False, False),
    "search-warm": (False, True),
    "search-surrogate": (True, False),
}


def _new_campaign(reference_dir: Path, directory: Path, warm: bool) -> Path:
    """A fresh campaign directory; warm ones start with the reference cache."""
    if warm:
        shutil.copytree(reference_dir / "cache", directory / "cache")
    return directory


def run_search(ctx: Context) -> Outcome:
    surrogate, warm = SEARCH[ctx.workload]
    outcome = Outcome()
    spec = campaign_spec(ctx.seed, ctx.size, surrogate=surrogate)
    spec_path = ctx.workdir / "spec.json"
    spec_path.write_text(json.dumps(spec))
    reference_dir = ctx.workdir / "reference"
    reference = build_reference(spec, reference_dir)
    n_jobs = len(spec["datasets"]) * len(spec["seeds"])
    budget = ctx.seconds * REPS_SHARE
    reps: List[Rep] = []
    started = now()
    with Fleet(ctx.workdir) as fleet:
        while not reps or now() - started < budget:
            rep_dir = _new_campaign(reference_dir, ctx.workdir / f"rep{len(reps)}", warm)
            rep = campaign_rep(fleet, spec_path, rep_dir, n_jobs, f"r{len(reps)}")
            outcome.check(rep.problems)
            outcome.check(compare(outputs(rep_dir), reference, rep_dir.name))
            reps.append(rep)
        peak = fleet.peak_rss_mb()
        n_programs = len(fleet.programs)
    volume, gain = quality(job_fronts(reference))
    outcome.notes["wall_s per repetition"] = [round(rep.wall_s, 4) for rep in reps]
    outcome.notes["lease_lost events (completed jobs, not counted)"] = sum(
        rep.leases_lost for rep in reps)
    outcome.median("wall_s", [rep.wall_s for rep in reps], "s")
    outcome.median("setup_s", [rep.setup_s for rep in reps], "s")
    outcome.metrics["front_hv"] = (volume, "1", n_jobs)
    outcome.metrics["area_gain_5pct"] = (gain, "x", n_jobs)
    outcome.metrics["peak_rss_mb"] = (peak, "MB", n_programs)
    if ctx.trace:
        _trace_search(ctx, spec_path, reference_dir, reference, warm, n_jobs,
                      outcome.metrics["wall_s"][0], outcome)
    return outcome


def _trace_search(ctx: Context, spec_path: Path, reference_dir: Path,
                  reference: Dict[str, bytes], warm: bool, n_jobs: int,
                  untraced_wall: float, outcome: Outcome) -> None:
    trace_dir = ctx.workdir / "trace"
    trace_dir.mkdir()
    rep_dir = _new_campaign(reference_dir, ctx.workdir / "traced", warm)
    with Fleet(ctx.workdir, trace_dir) as fleet:
        rep = campaign_rep(fleet, spec_path, rep_dir, n_jobs, "traced")
    outcome.check(rep.problems)
    outcome.check(compare(outputs(rep_dir), reference, "traced"))
    documents = trace_documents(trace_dir)
    layer_table(documents, rep.window, outcome)
    counts = spans.counters(documents)
    requested = counts.get("search.requested", 0)
    fresh = counts.get("search.fresh_evals", 0)
    candidates = counts.get("surrogate.candidates", 0)
    layers = outcome.layers
    for name in ("core.prepare_calls", "nn.finetune_calls", "clustering.calls",
                 "bespoke.synth_calls", "reliability.mc_calls",
                 "campaign.cache_records_loaded", "campaign.cache_records_written"):
        layers[name] = (counts.get(name, 0), "count")
    layers["search.fresh_evals"] = (fresh, "count")
    layers["search.cache_hit_ratio"] = (1 - fresh / requested if requested else 0.0, "ratio")
    layers["surrogate.real_eval_ratio"] = (
        counts.get("surrogate.chosen", 0) / candidates if candidates else 0.0, "ratio")
    events = manifest_events(rep_dir)
    published = {e["job_id"]: e["unix_time"] for e in events if e["event"] == "job_published"}
    waits = [e["unix_time"] - published[e["job_id"]] for e in events
             if e["event"] == "job_leased" and e["job_id"] in published]
    layers["fabric.claim_wait_s"] = (statistics.fmean(waits) if waits else 0.0, "s")
    layers["fabric.requeues"] = (sum(e["event"] == "job_requeued" for e in events), "count")
    worker_documents = [d for d in documents if d["argv"][:2] == ["campaign", "work"]]
    layers["fabric.worker_idle_s"] = (sum(spans.durations(worker_documents, "fabric.idle")), "s")
    layers["trace.overhead_s"] = (rep.wall_s - untraced_wall, "s")
    outcome.notes["traced wall_s"] = round(rep.wall_s, 4)
    outcome.notes["untraced median wall_s"] = round(untraced_wall, 4)


def run_serve(ctx: Context) -> Outcome:
    outcome = Outcome()
    # The search-cold and search-surrogate references; whitewine is served
    # by the cold campaign alone (the raw-bytes path), the other three by
    # the union of both (the merge path).
    specs = {
        "cold": campaign_spec(ctx.seed, ctx.size),
        "surrogate": campaign_spec(ctx.seed, ctx.size, surrogate=True, datasets=DATASETS[1:]),
    }
    campaigns, job_documents = [], []
    for name, spec in specs.items():
        campaigns.append(ctx.workdir / name)
        job_documents += job_fronts(build_reference(spec, campaigns[-1]))
    fronts, mix = loadgen.build_requests(campaigns, ctx.seed)
    work = loadgen.sequence(mix, ctx.size.closed_requests, ctx.seed)
    volume, gain = quality(job_documents)
    ready, walls = [], []
    started = now()
    with Fleet(ctx.workdir) as fleet:
        while True:
            server = start_server(fleet, campaigns, f"l{len(walls)}")
            ready.append(server.ready_s)
            walls.append(closed_loop(server, fronts, work, outcome) - server.ready_at)
            enough = len(walls) >= ctx.size.min_launches
            if enough and now() - started >= ctx.seconds * LAUNCH_SHARE:
                break
            outcome.check(stop_server(fleet, server))
        if not ctx.trace:
            latency_phase(server, mix, ctx.size, ctx.seconds * SERVE_FIXED_SHARE, ctx.seed,
                          outcome)
            capacity_phase(server, mix, ctx.size, ctx.seed, outcome)
        outcome.check(stop_server(fleet, server))
        peak = fleet.peak_rss_mb()
        n_programs = len(fleet.programs)
    outcome.notes["wall_s per launch"] = [round(wall, 4) for wall in walls]
    outcome.median("setup_s", ready, "s")
    outcome.median("wall_s", walls, "s")
    outcome.metrics["front_hv"] = (volume, "1", len(job_documents))
    outcome.metrics["area_gain_5pct"] = (gain, "x", len(job_documents))
    outcome.metrics["peak_rss_mb"] = (peak, "MB", n_programs)
    if ctx.trace:
        _trace_serve(ctx, campaigns, fronts, mix, work, outcome.metrics["wall_s"][0], outcome)
    return outcome


def _trace_serve(ctx: Context, campaigns: List[Path], fronts, mix, work, untraced_wall: float,
                 outcome: Outcome) -> None:
    trace_dir = ctx.workdir / "trace"
    trace_dir.mkdir()
    with Fleet(ctx.workdir, trace_dir) as fleet:
        server = start_server(fleet, campaigns, "traced")
        before = len(outcome.failures)
        served = closed_loop(server, fronts, work, outcome)
        phase = fixed_phase(server, mix, ctx.size.fixed_rate,
                            ctx.seconds * SERVE_FIXED_SHARE, ctx.seed + 1, outcome)
        outcome.check(stop_server(fleet, server))
    documents = trace_documents(trace_dir)
    layer_table(documents, (server.program.started, served), outcome)
    counts = spans.counters(documents)
    busy = spans.busy(documents)
    requests = counts.get("serving.requests", 0) or 1
    layers = outcome.layers
    for layer in ("store", "query", "http"):
        layers[f"serving.{layer}_ms"] = (busy.get(f"serving.{layer}", 0.0) / requests * 1e3, "ms")
    handler = spans.durations(documents, "serving.http", phase.window)
    layers["serving.queue_ms"] = (
        (statistics.fmean(phase.latencies) - statistics.fmean(handler)) * 1e3, "ms")
    lookups = counts.get("store.hits", 0) + counts.get("store.misses", 0)
    layers["serving.view_hit_ratio"] = (
        counts.get("store.hits", 0) / lookups if lookups else 0.0, "ratio")
    layers["serving.npz_loads"] = (counts.get("store.npz_loads", 0), "count")
    layers["serving.not_modified_ratio"] = (
        phase.not_modified / phase.conditional if phase.conditional else 0.0, "ratio")
    traced_wall = served - server.ready_at
    layers["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    outcome.notes["traced wall_s"] = round(traced_wall, 4)
    outcome.notes["untraced median wall_s"] = round(untraced_wall, 4)
    outcome.notes["traced run failures"] = len(outcome.failures) - before


def run(ctx: Context) -> Outcome:
    return run_serve(ctx) if ctx.workload == "serve" else run_search(ctx)
