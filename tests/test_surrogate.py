"""The surrogate subsystem: featurizer, models, journal training, assistant.

The ISSUE-8 property layer: the featurizer is total and deterministic over
the full genome space, the surrogate model is a seeded pure function of
its training data, ``fit_from_cache`` round-trips records written by a
real :class:`~repro.campaign.cache.PersistentEvaluationCache` (torn tails,
rotated generations and unversioned legacy records included), and the
assistant's prefilter can never evict an already-evaluated genome.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign.cache import (
    CACHE_SCHEMA_VERSION,
    PersistentEvaluationCache,
    load_journal_records,
)
from repro.core.results import DesignPoint
from repro.search.genome import Genome, GenomeSpace
from repro.surrogate import (
    SURROGATE_MODELS,
    GenomeFeaturizer,
    RidgeSurrogate,
    SurrogateAssistant,
    SurrogateModel,
    create_surrogate,
    fit_from_cache,
    surrogate_seed,
)

from strategies import genomes


def _point(
    accuracy: float = 0.8,
    area: float = 50.0,
    robust_accuracy: float | None = None,
) -> DesignPoint:
    return DesignPoint(
        technique="combined",
        accuracy=accuracy,
        area=area,
        power=area / 10.0,
        delay=1.0,
        robust_accuracy=robust_accuracy,
    )


def _training_set(n: int = 50, n_layers: int = 2, seed: int = 0):
    """Genomes plus a smooth synthetic target matrix for model tests."""
    space = GenomeSpace(n_layers=n_layers)
    rng = np.random.default_rng(seed)
    pool = {}
    while len(pool) < n:
        genome = space.random_genome(rng)
        pool[genome.key()] = genome
    batch = list(pool.values())[:n]
    X = GenomeFeaturizer().transform(batch)
    Y = np.stack(
        [
            np.array(
                [sum(g.weight_bits) * (1.0 - float(np.mean(g.sparsity))) for g in batch]
            ),
            np.array([float(sum(b * b for b in g.weight_bits)) for g in batch]),
        ],
        axis=1,
    )
    return batch, X, Y


class TestGenomeFeaturizer:
    @settings(max_examples=60, deadline=None)
    @given(genome=genomes())
    def test_total_and_deterministic_over_genome_space(self, genome):
        """Any valid genome featurizes to the same finite fixed-width row."""
        featurizer = GenomeFeaturizer()
        first = featurizer.transform([genome])
        second = featurizer.transform([genome])
        assert first.shape == (1, featurizer.n_features)
        assert np.isfinite(first).all()
        assert np.array_equal(first, second)
        fresh = GenomeFeaturizer().transform([genome])
        assert np.array_equal(first, fresh)

    def test_feature_names_match_width(self):
        featurizer = GenomeFeaturizer(n_layers=3)
        names = featurizer.feature_names()
        assert len(names) == featurizer.n_features
        assert len(set(names)) == len(names)

    def test_layer_count_locks_on_first_transform(self):
        featurizer = GenomeFeaturizer()
        featurizer.transform([Genome((4, 4), (0.0, 0.2), (0, 2))])
        assert featurizer.n_layers == 2
        with pytest.raises(ValueError, match="2"):
            featurizer.transform([Genome((4,), (0.0,), (0,))])

    def test_feature_names_before_transform_raises(self):
        with pytest.raises(ValueError, match="not fixed"):
            GenomeFeaturizer().feature_names()


class TestSurrogateModels:
    @pytest.mark.parametrize("name", SURROGATE_MODELS)
    def test_fits_a_smooth_function_of_the_genes(self, name):
        _, X, Y = _training_set()
        model = create_surrogate(name).fit(X, Y, seed=1)
        relative_error = np.abs(model.predict(X) - Y).mean() / np.abs(Y).mean()
        assert relative_error < 0.15

    @pytest.mark.parametrize("name", SURROGATE_MODELS)
    def test_fit_is_deterministic_given_seed(self, name):
        _, X, Y = _training_set()
        a = create_surrogate(name).fit(X, Y, seed=7).predict(X)
        b = create_surrogate(name).fit(X, Y, seed=7).predict(X)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("name", SURROGATE_MODELS)
    def test_uncertainty_shape_and_sign(self, name):
        _, X, Y = _training_set()
        mean, std = create_surrogate(name).fit(X, Y, seed=0).predict_with_uncertainty(X)
        assert mean.shape == std.shape == Y.shape
        assert (std >= 0).all()

    @pytest.mark.parametrize("name", SURROGATE_MODELS)
    def test_satisfies_the_protocol(self, name):
        assert isinstance(create_surrogate(name), SurrogateModel)

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError, match="not fitted"):
            RidgeSurrogate().predict(np.zeros((1, 3)))

    @pytest.mark.parametrize("name", ["forest", "mlp"])
    def test_unknown_model_name_raises(self, name):
        with pytest.raises(ValueError, match=f"unknown surrogate model '{name}'"):
            create_surrogate(name)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            RidgeSurrogate(n_members=1)
        with pytest.raises(ValueError):
            RidgeSurrogate(degree=3)

    def test_zero_samples_raise(self):
        with pytest.raises(ValueError, match="zero samples"):
            RidgeSurrogate().fit(np.zeros((0, 4)), np.zeros((0, 2)))


class TestFitFromCache:
    def _fill_cache(self, tmp_path, context="ctx", n=16, robust=False, rotate=None):
        space = GenomeSpace(n_layers=2)
        rng = np.random.default_rng(3)
        cache = PersistentEvaluationCache(
            tmp_path, context, rotate_max_bytes=rotate
        )
        genomes_written = []
        with cache:
            while len(genomes_written) < n:
                genome = space.random_genome(rng)
                if genome.key() in {g.key() for g in genomes_written}:
                    continue
                accuracy = 0.5 + 0.4 * rng.random()
                cache.put(
                    genome,
                    _point(
                        accuracy=accuracy,
                        area=20.0 + 100.0 * rng.random(),
                        robust_accuracy=accuracy * 0.9 if robust else None,
                    ),
                )
                genomes_written.append(genome)
        return genomes_written

    def test_round_trips_real_campaign_records(self, tmp_path):
        written = self._fill_cache(tmp_path, n=20)
        trained = fit_from_cache(tmp_path)
        assert trained.n_records == 20
        assert trained.target_columns == ("accuracy", "area", "power")
        predictions = trained.predict(written[:5])
        assert predictions.shape == (5, 3)
        assert np.isfinite(predictions).all()
        mean, std = trained.predict_with_uncertainty(written[:5])
        assert mean.shape == std.shape == (5, 3)

    def test_robust_column_joins_when_every_record_has_it(self, tmp_path):
        self._fill_cache(tmp_path, robust=True)
        trained = fit_from_cache(tmp_path)
        assert trained.target_columns[-1] == "robust_accuracy"

    def test_reads_rotated_generations(self, tmp_path):
        self._fill_cache(tmp_path, n=12, rotate=256)
        assert list(tmp_path.glob("ctx.g[0-9]*.jsonl")), "rotation did not trigger"
        assert fit_from_cache(tmp_path).n_records == 12

    def test_tolerates_torn_tail(self, tmp_path):
        self._fill_cache(tmp_path, n=10)
        with open(tmp_path / "ctx.jsonl", "a") as handle:
            handle.write('{"genome": {"weight_bits": [5')
        assert fit_from_cache(tmp_path).n_records == 10

    def test_pools_contexts_and_restricts_by_key(self, tmp_path):
        self._fill_cache(tmp_path, context="ctx-a", n=8)
        self._fill_cache(tmp_path, context="ctx-b", n=8)
        assert fit_from_cache(tmp_path).n_records <= 16
        assert fit_from_cache(tmp_path, context_key="ctx-a").n_records == 8

    def test_empty_directory_raises(self, tmp_path):
        with pytest.raises(ValueError, match="no usable journal records"):
            fit_from_cache(tmp_path)

    @pytest.mark.parametrize("name", SURROGATE_MODELS)
    def test_models_train_from_cache(self, tmp_path, name):
        written = self._fill_cache(tmp_path, n=20)
        trained = fit_from_cache(tmp_path, model=name, seed=5)
        assert trained.n_records == 20
        assert np.isfinite(trained.predict(written[:3])).all()


class TestJournalSchemaVersion:
    def test_new_records_are_stamped(self, tmp_path):
        with PersistentEvaluationCache(tmp_path, "ctx") as cache:
            cache.put(Genome((4,), (0.2,), (0,)), _point())
        entry = json.loads((tmp_path / "ctx.jsonl").read_text().splitlines()[0])
        assert entry["v"] == CACHE_SCHEMA_VERSION

    def test_unversioned_legacy_records_load_as_version_zero(self, tmp_path):
        legacy = {
            "genome": Genome((5,), (0.1,), (2,)).as_dict(),
            "point": {"technique": "combined", "accuracy": 0.7, "area": 30.0},
        }
        (tmp_path / "ctx.jsonl").write_text(json.dumps(legacy) + "\n")
        records = load_journal_records(tmp_path)
        assert len(records) == 1
        assert records[0].schema_version == 0
        assert records[0].point.accuracy == 0.7
        # The in-cache loader accepts them too.
        reloaded = PersistentEvaluationCache(tmp_path, "ctx")
        assert reloaded.n_loaded == 1
        reloaded.close()

    def test_records_from_a_newer_schema_are_skipped(self, tmp_path):
        future = {
            "genome": Genome((5,), (0.1,), (2,)).as_dict(),
            "point": {"technique": "combined", "accuracy": 0.7, "area": 30.0},
            "v": CACHE_SCHEMA_VERSION + 1,
        }
        (tmp_path / "ctx.jsonl").write_text(json.dumps(future) + "\n")
        assert load_journal_records(tmp_path) == []

    def test_deduped_by_genome_key_first_wins(self, tmp_path):
        genome = Genome((4,), (0.2,), (3,))
        def record(accuracy, area):
            point = {"technique": "combined", "accuracy": accuracy, "area": area}
            return {"genome": genome.as_dict(), "point": point, "v": 1}

        lines = [record(0.8, 10.0), record(0.1, 99.0)]
        (tmp_path / "ctx.jsonl").write_text(
            "".join(json.dumps(line) + "\n" for line in lines)
        )
        records = load_journal_records(tmp_path)
        assert len(records) == 1
        assert records[0].point.accuracy == 0.8

    def test_missing_directory_is_empty_not_an_error(self, tmp_path):
        assert load_journal_records(tmp_path / "nope") == []


class TestSurrogateSeed:
    def test_stable_and_generation_dependent(self):
        assert surrogate_seed(0, 3) == surrogate_seed(0, 3)
        assert surrogate_seed(0, 3) != surrogate_seed(0, 4)
        assert surrogate_seed(1, 3) != surrogate_seed(0, 3)
        assert surrogate_seed(None, 3) is None


class TestSurrogateAssistant:
    def _assistant(self, n_observed: int = 30, optimism: float = 1.0):
        baseline = DesignPoint(technique="baseline", accuracy=0.9, area=100.0)
        assistant = SurrogateAssistant(baseline, optimism=optimism)
        space = GenomeSpace(n_layers=2)
        rng = np.random.default_rng(11)
        pool = {}
        while len(pool) < n_observed:
            genome = space.random_genome(rng)
            pool[genome.key()] = genome
        observed = list(pool.values())
        points = [
            _point(accuracy=0.5 + 0.4 * rng.random(), area=20.0 + 80.0 * rng.random())
            for _ in observed
        ]
        assistant.observe(observed, points)
        return assistant, observed

    def test_refit_gates_on_min_samples(self):
        baseline = DesignPoint(technique="baseline", accuracy=0.9, area=100.0)
        assistant = SurrogateAssistant(baseline, min_fit_samples=8)
        assistant.observe(
            [Genome((4,), (0.0,), (0,))], [_point()]
        )
        assert not assistant.refit(0)
        assert not assistant.ready
        # Unfitted ranking is the identity order.
        assert assistant.rank([Genome((4,), (0.0,), (0,))] ) == [0]

    def test_rank_is_a_deterministic_permutation(self):
        assistant, observed = self._assistant()
        assert assistant.refit(0)
        order = assistant.rank(observed[:12])
        assert sorted(order) == list(range(12))
        assert assistant.rank(observed[:12]) == order

    @settings(max_examples=40, deadline=None)
    @given(
        candidate_indices=st.lists(st.integers(0, 29), min_size=1, max_size=40),
        cached_indices=st.sets(st.integers(0, 29), max_size=30),
        budget=st.integers(0, 10),
    )
    def test_prefilter_never_evicts_cached_genomes(
        self, candidate_indices, cached_indices, budget
    ):
        """Every already-evaluated candidate survives selection at zero cost.

        The GA passes the keys of all really-evaluated genomes (a superset
        of its Pareto archive), so this is exactly the 'prefiltering never
        evicts current Pareto-archive genomes' property of ISSUE 8.
        """
        assistant, observed = self._assistant()
        assistant.refit(0)
        candidates = [observed[i] for i in candidate_indices]
        cached_keys = {observed[i].key() for i in cached_indices}
        free, chosen = assistant.select(candidates, cached_keys, budget)
        candidate_cached_keys = {g.key() for g in candidates if g.key() in cached_keys}
        assert {g.key() for g in free} == candidate_cached_keys
        assert all(g.key() not in cached_keys for g in chosen)
        assert len(chosen) <= budget
        # Deterministic: repeating the selection yields the same split.
        free2, chosen2 = assistant.select(candidates, cached_keys, budget)
        assert [g.key() for g in free2] == [g.key() for g in free]
        assert [g.key() for g in chosen2] == [g.key() for g in chosen]

    def test_optimism_must_be_nonnegative(self):
        baseline = DesignPoint(technique="baseline", accuracy=0.9, area=100.0)
        with pytest.raises(ValueError, match="optimism"):
            SurrogateAssistant(baseline, optimism=-0.5)

    def test_bad_model_name_fails_at_construction(self):
        baseline = DesignPoint(technique="baseline", accuracy=0.9, area=100.0)
        with pytest.raises(ValueError, match="unknown surrogate"):
            SurrogateAssistant(baseline, model="forest")

    def test_robust_mode_requires_robust_accuracy(self):
        baseline = DesignPoint(technique="baseline", accuracy=0.9, area=100.0)
        assistant = SurrogateAssistant(baseline, robust=True)
        with pytest.raises(ValueError, match="robust_accuracy"):
            assistant.observe([Genome((4,), (0.0,), (0,))], [_point()])

    def test_predicted_objectives_shape_tracks_robustness(self):
        baseline = DesignPoint(technique="baseline", accuracy=0.9, area=100.0)
        assistant = SurrogateAssistant(baseline, robust=True, min_fit_samples=8)
        space = GenomeSpace(n_layers=2)
        rng = np.random.default_rng(5)
        pool = {}
        while len(pool) < 20:
            genome = space.random_genome(rng)
            pool[genome.key()] = genome
        observed = list(pool.values())
        assistant.observe(
            observed,
            [
                _point(accuracy=0.6 + 0.3 * rng.random(), robust_accuracy=0.5)
                for _ in observed
            ],
        )
        assistant.refit(0)
        predicted = assistant.predicted_objectives(observed[:4])
        assert predicted.shape == (4, 3)
        assert (predicted >= 0.0).all()
