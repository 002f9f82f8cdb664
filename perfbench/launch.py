"""Traced launcher: run one ``repro`` CLI command with layer spans recorded.

Usage::

    python3 perfbench/launch.py <trace-file> <repro cli arguments...>

The launcher times ``import repro.cli``, then replaces each layer's public
entry points *where their callers look them up* (module globals and class
attributes) with thin wrappers that record a span per call, and finally
runs ``repro.cli.main``. Spans stay in memory and are written as one JSON
document to ``<trace-file>`` when the command returns — also after the
``KeyboardInterrupt`` that stops ``repro serve``. The program's own code is
not modified; an untraced run starts ``python3 -m repro.cli`` instead.

Every span is ``[id, name, start, end, parent id, thread id, tag]`` with
``time.perf_counter`` stamps. On Linux that clock is CLOCK_MONOTONIC, shared
by every process on the host, so spans from different processes and the
benchmark's own stamps sit on one time line. ``tag`` is the campaign job id
or the per-process request number the span belongs to.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import functools  # noqa: E402 - the interpreter-boot stamp above comes first
import importlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402

#: Spans whose lane is waiting, not working (see ``spans.attribute``).
IDLE_SPANS = frozenset({"fabric.idle", "serving.idle"})


class Recorder:
    """In-memory span and counter store for one process."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counters: dict = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._requests = itertools.count(1)
        self.stores: list = []
        self.missing: list = []
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def tag(self) -> str:
        return getattr(self._local, "tag", "")

    def set_tag(self, tag: str) -> None:
        self._local.tag = tag

    def next_request(self) -> str:
        return f"r{next(self._requests)}"

    def add(self, name: str, start: float, end: float) -> None:
        """A span measured outside any wrapper (boot, import)."""
        self.spans.append([next(self._ids), name, start, end, 0, threading.get_ident(), ""])

    def wrap(self, name: str, fn, counter=None, tagger=None):
        """``fn`` recording one ``name`` span per call.

        ``counter(args, kwargs, result)`` returns ``{counter: increment}``;
        ``tagger(args)`` returns the tag this call and its children carry.
        """
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = recorder._stack()
            span = [next(recorder._ids), name, 0.0, 0.0, stack[-1] if stack else 0,
                    threading.get_ident(), ""]
            previous_tag = recorder.tag()
            if tagger is not None:
                recorder.set_tag(tagger(args))
            span[6] = recorder.tag()
            recorder.spans.append(span)
            stack.append(span[0])
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
                recorder.set_tag(previous_tag)
            if counter is not None:
                recorder.count_call(name, counter, args, kwargs, result)
            return result

        return traced

    def count_call(self, name: str, counter, args, kwargs, result) -> None:
        """Apply one counter; a call shape it cannot read is recorded once."""
        try:
            increments = counter(args, kwargs, result)
        except (IndexError, TypeError, KeyError):
            if f"counter of {name}" not in self.missing:
                self.missing.append(f"counter of {name}")
            return
        with self._lock:
            for key, amount in increments.items():
                self.counters[key] = self.counters.get(key, 0) + amount

    def document(self, argv: list, exit_code: int) -> dict:
        store_stats: dict = {}
        for store in self.stores:
            for key, value in store.stats().items():
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    store_stats[key] = store_stats.get(key, 0) + value
        return {
            "pid": os.getpid(),
            "argv": argv,
            "exit_code": exit_code,
            "spans": self.spans,
            "counters": self.counters,
            "store_stats": store_stats,
            "missing_patches": self.missing,
        }


def _calls(name: str):
    return lambda args, kwargs, result: {name: 1}


def _lengths(name: str):
    return lambda args, kwargs, result: {name: len(args[0])}


def _method_lengths(name: str):
    return lambda args, kwargs, result: {name: len(args[1])}


def _surrogate_select(args, kwargs, result):
    return {"surrogate.candidates": len(args[1]), "surrogate.chosen": len(result[1])}


def _cache_loaded(args, kwargs, result):
    return {"campaign.cache_records_loaded": getattr(args[0], "n_loaded", 0)}


def _cache_written(args, kwargs, result):
    return {"campaign.cache_records_written": getattr(args[0], "n_persisted", 0)}


def _job_tag(args) -> str:
    return str(getattr(args[0], "job_id", ""))


#: ``(module, attribute path, span name, counter)`` — each layer's public
#: entry points, patched in the namespace their callers read them from.
PATCHES = (
    ("repro.core.pipeline", "MinimizationPipeline.prepare", "core.prepare",
     _calls("core.prepare_calls")),
    ("repro.search.evaluator", "SerialEvaluator.evaluate_population", "search.evaluate",
     _method_lengths("search.requested")),
    ("repro.search.evaluator", "evaluate_genomes_stacked", "search.evaluate",
     _lengths("search.fresh_evals")),
    ("repro.search.evaluator", "evaluate_genome", "search.evaluate",
     _calls("search.fresh_evals")),
    ("repro.search.ga", "select_survivors", "search.nsga2", None),
    ("repro.search.ga", "nsga2_rank", "search.nsga2", None),
    ("repro.search.ga", "tournament_select", "search.nsga2", None),
    ("repro.search.objectives", "finetune_stacked", "nn.finetune",
     _calls("nn.finetune_calls")),
    ("repro.search.objectives", "finetune", "nn.finetune", _calls("nn.finetune_calls")),
    ("repro.search.objectives", "predict_stacked", "nn.predict", None),
    ("repro.search.objectives", "prune_by_magnitude", "pruning.prune", None),
    ("repro.search.objectives", "cluster_model_weights", "clustering.cluster",
     _calls("clustering.calls")),
    ("repro.search.objectives", "reproject_clusters", "clustering.cluster", None),
    ("repro.search.objectives", "attach_quantizers", "quantization.attach", None),
    ("repro.search.objectives", "synthesize_cost_only", "bespoke.synth",
     _calls("bespoke.synth_calls")),
    ("repro.search.objectives", "FixedPointSimulator", "bespoke.simulate", None),
    ("repro.search.objectives", "population_accuracy", "bespoke.simulate", None),
    ("repro.search.objectives", "monte_carlo_population", "reliability.mc",
     _calls("reliability.mc_calls")),
    ("repro.search.objectives", "monte_carlo_fault_injection", "reliability.mc",
     _calls("reliability.mc_calls")),
    ("repro.surrogate.assist", "SurrogateAssistant.refit", "surrogate.refit", None),
    ("repro.surrogate.assist", "SurrogateAssistant.select", "surrogate.select",
     _surrogate_select),
    ("repro.campaign.cache", "PersistentEvaluationCache.__init__", "campaign.cache_load",
     _cache_loaded),
    ("repro.campaign.cache", "PersistentEvaluationCache.put", "campaign.cache_put", None),
    ("repro.campaign.cache", "PersistentEvaluationCache.close", "campaign.cache_put",
     _cache_written),
    ("repro.campaign.journal", "CampaignJournal.append", "campaign.journal", None),
    ("repro.campaign.journal", "CampaignJournal.events", "campaign.journal", None),
    ("repro.campaign.journal", "CampaignJournal.completed_job_ids", "campaign.journal", None),
    ("repro.campaign.journal", "CampaignJournal.write_job_artifacts", "campaign.journal", None),
    ("repro.campaign.fabric.worker", "FabricWorker.journal", "campaign.journal", None),
    ("repro.cli", "build_report", "campaign.report", None),
    ("repro.cli", "write_report", "campaign.report", None),
    ("repro.cli", "format_report", "campaign.report", None),
    ("repro.campaign.fabric.coordinator", "FabricCoordinator.publish", "fabric.publish", None),
    ("repro.campaign.fabric.coordinator", "FabricCoordinator.step", "fabric.coordinate", None),
    ("repro.campaign.fabric.coordinator", "FabricCoordinator.merge_worker_journals",
     "fabric.merge", None),
    ("repro.campaign.fabric.worker", "FabricWorker.step", "fabric.claim", None),
    ("repro.campaign.fabric.leases", "LeaseDirectory.acquire", "fabric.lease", None),
    ("repro.campaign.fabric.leases", "LeaseDirectory.renew", "fabric.lease", None),
    ("repro.campaign.fabric.leases", "LeaseDirectory.release", "fabric.lease", None),
    ("repro.campaign.fabric.leases", "LeaseDirectory.verify", "fabric.lease", None),
    ("repro.serving.store", "FrontStore.front", "serving.store", None),
    ("repro.serving.store", "FrontStore.views", "serving.store", None),
    ("repro.serving.store", "FrontStore.datasets", "serving.store", None),
    ("repro.serving.query", "QueryEngine.run", "serving.query", None),
    ("repro.serving.http", "start_server", "serving.http", None),
    # ``serve`` builds the store, starts the server thread and then only
    # sleeps until SIGINT: its self time is waiting.
    ("repro.serving", "serve", "serving.idle", None),
)


def _patch(recorder: Recorder, module_name: str, path: str, name: str, counter=None,
           tagger=None) -> None:
    """Wrap one entry point; a target the program no longer has is recorded."""
    try:
        owner = importlib.import_module(module_name)
        *parents, attribute = path.split(".")
        for parent in parents:
            owner = getattr(owner, parent)
        target = getattr(owner, attribute)
    except (ImportError, AttributeError):
        recorder.missing.append(f"{module_name}:{path}")
        return
    setattr(owner, attribute, recorder.wrap(name, target, counter, tagger))


def install(recorder: Recorder) -> None:
    """Patch every entry point of :data:`PATCHES`, the tagged ones and sleeps."""
    for module_name, path, name, counter in PATCHES:
        _patch(recorder, module_name, path, name, counter)
    _patch(recorder, "repro.campaign.runner", "execute_job", "campaign.job", tagger=_job_tag)
    for method in ("do_GET", "do_POST"):
        _patch(recorder, "repro.serving.http", f"ServingHandler.{method}", "serving.http",
               counter=_calls("serving.requests"),
               tagger=lambda args: recorder.next_request())

    # Poll sleeps are bound at construction (``sleep_fn=time.sleep``), so
    # they are wrapped per instance.
    fabric = importlib.import_module("repro.campaign.fabric")
    for cls in (fabric.FabricWorker, fabric.FabricCoordinator):
        _wrap_sleep(recorder, cls)

    store_cls = importlib.import_module("repro.serving.store").FrontStore
    original_init = store_cls.__init__

    @functools.wraps(original_init)
    def remember_store(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        recorder.stores.append(self)

    store_cls.__init__ = recorder.wrap("serving.store", remember_store)


def _wrap_sleep(recorder: Recorder, cls) -> None:
    original_init = cls.__init__

    @functools.wraps(original_init)
    def init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        self.sleep_fn = recorder.wrap("fabric.idle", self.sleep_fn)

    cls.__init__ = init


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    spawned = float(os.environ.get("PERFBENCH_SPAWNED", _STARTED))
    recorder = Recorder()
    recorder.add("cli.boot", spawned, _STARTED)
    import_started = time.perf_counter()
    import repro.cli

    imported = time.perf_counter()
    recorder.add("cli.import", import_started, imported)
    install(recorder)
    recorder.add("trace.install", imported, time.perf_counter())
    exit_code = 1
    try:
        exit_code = recorder.wrap("cli.main", repro.cli.main)(argv)
    finally:
        with open(trace_path, "w", encoding="utf-8") as handle:
            json.dump(recorder.document(argv, exit_code), handle)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
