"""The trained-baseline store in the persistent campaign cache.

``MinimizationPipeline.prepare(cache_dir)`` stores the float baseline's
weights as ``baseline-<key>.npz`` and later loads them instead of training.
These tests pin the contract:

* a warm job never trains, and its fronts and report are byte-identical to
  the cold run's;
* any config change misses the store;
* every unusable file (truncated, garbage, wrong shape, missing array,
  other format version) is retrained and overwritten, and the job still
  produces the cold front;
* concurrent writers of one key leave one valid file and no temp files;
* with the cache off nothing is written.
"""

from __future__ import annotations

import multiprocessing
import shutil
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import repro.core.pipeline as pipeline_module
from repro.campaign import CampaignRunner, CampaignSpec
from repro.campaign.journal import CampaignJournal
from repro.cli import main
from repro.core import MinimizationPipeline, PipelineConfig
from repro.core.pipeline import BASELINE_FORMAT_VERSION, baseline_key
from repro.nn.network import build_mlp

SPEC = {
    "name": "baseline-store",
    "datasets": ["seeds"],
    "seeds": [0],
    "pipeline": {"train_epochs": 3, "n_samples": 120, "finetune_epochs": 1},
    "searches": [
        {"algorithm": "random", "n_evaluations": 3},
        {"algorithm": "ga", "population_size": 4, "n_generations": 1, "finetune_epochs": 1},
    ],
}

CONFIG = PipelineConfig(dataset="seeds", train_epochs=3, n_samples=120, finetune_epochs=1)


@pytest.fixture
def count_training(monkeypatch):
    """Count calls of ``train_classifier`` made by ``prepare``."""
    calls = []
    original = pipeline_module.train_classifier

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(pipeline_module, "train_classifier", counting)
    return calls


def _run(directory: Path, use_cache: bool = True) -> None:
    summary = CampaignRunner(CampaignSpec.from_dict(SPEC), directory, use_cache=use_cache).run()
    assert summary.ok, [outcome.error for outcome in summary.outcomes]


def _outputs(directory: Path) -> dict:
    """Every job's ``front.json`` and every report file, as bytes."""
    assert main(["campaign", "report", "--out", str(directory)]) == 0
    files = sorted((directory / "jobs").glob("*/front.json"))
    files += sorted(path for path in (directory / "report").iterdir() if path.is_file())
    return {str(path.relative_to(directory)): path.read_bytes() for path in files}


def _baseline_sources(directory: Path) -> list:
    journal = CampaignJournal(directory)
    return [
        journal.load_result(job.job_id)["baseline"]
        for job in CampaignSpec.from_dict(SPEC).expand()
    ]


def _store_files(directory: Path) -> list:
    return sorted((directory / "cache").glob("baseline-*"))


@pytest.fixture(scope="module")
def cold(tmp_path_factory):
    """A cold campaign: its directory and its output bytes."""
    directory = tmp_path_factory.mktemp("cold") / "camp"
    _run(directory)
    return directory, _outputs(directory)


def _warm_copy(cold_dir: Path, directory: Path) -> Path:
    directory.mkdir()
    shutil.copytree(cold_dir / "cache", directory / "cache")
    return directory


class TestWarmJobs:
    def test_cold_run_trains_once_per_config(self, cold):
        cold_dir, _ = cold
        # Both searches share one pipeline config: the second job loads.
        assert _baseline_sources(cold_dir) == ["trained", "loaded"]
        assert [path.name for path in _store_files(cold_dir)] == [
            f"baseline-{baseline_key(CONFIG)}.npz"
        ]

    def test_warm_job_never_trains_and_is_byte_identical(self, cold, tmp_path, count_training):
        cold_dir, cold_outputs = cold
        warm_dir = _warm_copy(cold_dir, tmp_path / "warm")
        _run(warm_dir)
        assert count_training == []
        assert _baseline_sources(warm_dir) == ["loaded", "loaded"]
        assert _outputs(warm_dir) == cold_outputs


class TestKey:
    # A changed value for every PipelineConfig field (dataset and seed included).
    CHANGES = {
        "dataset": "redwine",
        "seed": 1,
        "input_bits": 5,
        "baseline_weight_bits": 6,
        "technology": "silicon",
        "train_epochs": 4,
        "finetune_epochs": 2,
        "bit_range": (2, 4),
        "sparsity_range": (0.2,),
        "cluster_range": (2,),
        "val_fraction": 0.2,
        "test_fraction": 0.2,
        "n_samples": 130,
        "max_accuracy_loss": 0.02,
        "n_workers": 2,
        "stacked": False,
        "cache_size": 10,
        "fault_rate": 0.1,
        "n_fault_trials": 2,
        "fault_model": "short",
        "surrogate": "ridge",
        "surrogate_candidates": 2,
        "surrogate_prefilter": 0.5,
        "halving_budgets": (1,),
    }

    def test_every_field_changes_the_key(self):
        assert set(self.CHANGES) == {field.name for field in fields(PipelineConfig)}
        keys = {baseline_key(replace(CONFIG, **{name: value}))
                for name, value in self.CHANGES.items()}
        assert baseline_key(CONFIG) not in keys
        assert len(keys) == len(self.CHANGES)

    @pytest.mark.parametrize("change", [{"train_epochs": 4}, {"n_samples": 130}])
    def test_changed_config_misses_and_retrains(self, tmp_path, count_training, change):
        assert MinimizationPipeline(CONFIG).prepare(tmp_path).baseline_source == "trained"
        assert MinimizationPipeline(CONFIG).prepare(tmp_path).baseline_source == "loaded"
        assert len(count_training) == 1
        changed = MinimizationPipeline(replace(CONFIG, **change)).prepare(tmp_path)
        assert changed.baseline_source == "trained"
        assert len(count_training) == 2
        assert len(sorted(tmp_path.glob("baseline-*.npz"))) == 2


def _truncate(path: Path) -> None:
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


def _garbage(path: Path) -> None:
    path.write_bytes(b"not a zip archive" * 8)


def _rewrite(path: Path, edit) -> None:
    with np.load(path) as stored:
        arrays = {name: stored[name] for name in stored.files}
    edit(arrays)
    with open(path, "wb") as handle:
        np.savez(handle, **arrays)


def _wrong_shape(path: Path) -> None:
    _rewrite(path, lambda arrays: arrays.update(weights_0=arrays["weights_0"][:, :-1]))


def _missing_array(path: Path) -> None:
    _rewrite(path, lambda arrays: arrays.pop("bias_1"))


def _other_version(path: Path) -> None:
    _rewrite(path, lambda arrays: arrays.update(version=np.array(BASELINE_FORMAT_VERSION + 1)))


class TestDamagedFiles:
    @pytest.mark.parametrize(
        "damage", [_truncate, _garbage, _wrong_shape, _missing_array, _other_version]
    )
    def test_damaged_file_retrains_rewrites_and_matches_cold(
        self, cold, tmp_path, count_training, damage
    ):
        cold_dir, cold_outputs = cold
        warm_dir = _warm_copy(cold_dir, tmp_path / "warm")
        (store,) = _store_files(warm_dir)
        damage(store)
        _run(warm_dir)
        # Only the first job retrains; it rewrites the file the second loads.
        assert len(count_training) == 1
        assert _baseline_sources(warm_dir) == ["trained", "loaded"]
        assert _outputs(warm_dir) == cold_outputs
        (cold_store,) = _store_files(cold_dir)
        with np.load(store) as rewritten, np.load(cold_store) as reference:
            assert sorted(rewritten.files) == sorted(reference.files)
            for name in reference.files:
                np.testing.assert_array_equal(rewritten[name], reference[name])


def _write_repeatedly(path: str, n_writes: int) -> None:
    model = build_mlp(7, [4], 3, seed=0)
    for _ in range(n_writes):
        pipeline_module._store_baseline(Path(path), model)


class TestConcurrentWriters:
    def test_two_processes_leave_one_valid_file(self, tmp_path):
        path = tmp_path / "cache" / "baseline-0123456789abcdef.npz"
        context = multiprocessing.get_context("spawn")
        writers = [
            context.Process(target=_write_repeatedly, args=(str(path), 25)) for _ in range(2)
        ]
        for writer in writers:
            writer.start()
        # While they race, the file is either absent or complete.
        torn_reads = 0
        while any(writer.is_alive() for writer in writers):
            if path.exists() and not pipeline_module._load_baseline(
                path, build_mlp(7, [4], 3, seed=1)
            ):
                torn_reads += 1
        for writer in writers:
            writer.join(timeout=120)
            assert writer.exitcode == 0
        assert torn_reads == 0
        assert sorted(p.name for p in path.parent.iterdir()) == [path.name]
        model = build_mlp(7, [4], 3, seed=1)
        assert pipeline_module._load_baseline(path, model)
        expected = build_mlp(7, [4], 3, seed=0).get_weights()
        for loaded, reference in zip(model.get_weights(), expected):
            np.testing.assert_array_equal(loaded["weights"], reference["weights"])
            np.testing.assert_array_equal(loaded["bias"], reference["bias"])


class TestCacheOff:
    def test_no_cache_writes_no_file(self, tmp_path, count_training):
        directory = tmp_path / "camp"
        _run(directory, use_cache=False)
        assert list(directory.rglob("baseline-*")) == []
        assert _baseline_sources(directory) == ["trained", "trained"]
        assert len(count_training) == 2
