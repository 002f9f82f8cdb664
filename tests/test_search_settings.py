"""Evaluation settings and the one resolver that produces them.

Two concerns:

* every inheritance combination of ``resolve_evaluation_settings``
  (GA knob, then pipeline knob, then default);
* knobs that the system would silently ignore are rejected: a positive
  ``fault_rate`` without fault trials, a non-default ``fault_model``
  without a positive ``fault_rate``, surrogate knobs without a surrogate,
  and the removed ``backend`` knob.
"""

from __future__ import annotations

import pytest

from repro.campaign.spec import CampaignSpec
from repro.core import PipelineConfig
from repro.search.ga import GAConfig
from repro.search.settings import (
    EvaluationSettings,
    SurrogateSettings,
    evaluation_settings_for,
    resolve_evaluation_settings,
    resolve_surrogate_settings,
)


# -- resolve_evaluation_settings: every inheritance combination -----------------------


class TestResolveEvaluationSettings:
    def test_defaults_with_no_configs(self):
        settings = resolve_evaluation_settings()
        assert settings == EvaluationSettings(
            finetune_epochs=8,
            fault_rate=0.0,
            n_fault_trials=0,
            fault_model="open",
        )

    def test_pipeline_values_inherited(self):
        config = PipelineConfig(
            dataset="seeds",
            finetune_epochs=3,
            fault_rate=0.1,
            n_fault_trials=7,
            fault_model="short",
        )
        settings = resolve_evaluation_settings(config)
        assert settings.finetune_epochs == 3
        assert settings.fault_rate == 0.1
        assert settings.n_fault_trials == 7
        assert settings.fault_model == "short"

    def test_ga_values_override_pipeline(self):
        config = PipelineConfig(
            dataset="seeds",
            finetune_epochs=3,
            fault_rate=0.1,
            n_fault_trials=7,
            fault_model="short",
        )
        ga_config = GAConfig(
            finetune_epochs=5,
            fault_rate=0.2,
            n_fault_trials=9,
            fault_model="level_shift",
        )
        settings = resolve_evaluation_settings(config, ga_config=ga_config)
        assert settings.finetune_epochs == 5
        assert settings.fault_rate == 0.2
        assert settings.n_fault_trials == 9
        assert settings.fault_model == "level_shift"

    def test_none_ga_knobs_fall_through_to_pipeline(self):
        config = PipelineConfig(dataset="seeds", fault_rate=0.3, n_fault_trials=4)
        ga_config = GAConfig()  # every inheritable knob defaults to None
        settings = resolve_evaluation_settings(config, ga_config=ga_config)
        assert settings.fault_rate == 0.3
        assert settings.n_fault_trials == 4
        # GAConfig.finetune_epochs is never None: the GA default (6) wins
        assert settings.finetune_epochs == ga_config.finetune_epochs

    def test_ga_only_without_pipeline(self):
        settings = resolve_evaluation_settings(
            ga_config=GAConfig(fault_rate=0.05, n_fault_trials=2)
        )
        assert settings.fault_rate == 0.05
        assert settings.n_fault_trials == 2
        assert settings.fault_model == "open"

    def test_legacy_wrapper_matches_resolver(self):
        config = PipelineConfig(dataset="seeds", fault_rate=0.2)
        ga_config = GAConfig(n_fault_trials=4)
        assert evaluation_settings_for(ga_config, config) == resolve_evaluation_settings(
            config, ga_config=ga_config
        )


# -- rejected knobs --------------------------------------------------------------------


class TestSilentFaultRateRejected:
    def test_settings_reject_fault_rate_without_trials(self):
        with pytest.raises(ValueError, match="n_fault_trials"):
            EvaluationSettings(fault_rate=0.05)
        # trials without a rate stay accepted (robustness is simply off)
        assert not EvaluationSettings(n_fault_trials=4).robustness_enabled

    def test_resolved_pair_is_checked_across_configs(self):
        # Each config alone is fine; the GA's rate meets the pipeline's 0 trials.
        config = PipelineConfig(dataset="seeds")
        with pytest.raises(ValueError, match="n_fault_trials"):
            resolve_evaluation_settings(config, ga_config=GAConfig(fault_rate=0.05))
        # ...and the pipeline's trials complete the GA's rate.
        config = PipelineConfig(dataset="seeds", n_fault_trials=3)
        settings = resolve_evaluation_settings(config, ga_config=GAConfig(fault_rate=0.05))
        assert settings.robustness_enabled

    def test_campaign_spec_fails_at_parse_time(self):
        spec = {
            "datasets": ["seeds"],
            "searches": [{"algorithm": "ga", "name": "robust", "fault_rate": 0.05}],
        }
        with pytest.raises(ValueError, match="Search 'robust'.*n_fault_trials"):
            CampaignSpec.from_dict(spec)
        spec["pipeline"] = {"fault_rate": 0.05}
        spec["searches"] = [{"algorithm": "random", "n_evaluations": 2}]
        with pytest.raises(ValueError, match="n_fault_trials"):
            CampaignSpec.from_dict(spec)
        spec["pipeline"]["n_fault_trials"] = 2
        assert CampaignSpec.from_dict(spec).pipeline


class TestSilentFaultModelRejected:
    @pytest.mark.parametrize("model", ["short", "level_shift"])
    def test_settings_reject_fault_model_without_rate(self, model):
        with pytest.raises(ValueError, match="fault_rate > 0"):
            EvaluationSettings(fault_model=model)
        with pytest.raises(ValueError, match="fault_rate > 0"):
            EvaluationSettings(fault_model=model, n_fault_trials=4)
        assert EvaluationSettings(fault_model="open").fault_model == "open"
        settings = EvaluationSettings(fault_model=model, fault_rate=0.1, n_fault_trials=2)
        assert settings.robustness_enabled

    def test_resolved_model_is_checked_across_configs(self):
        config = PipelineConfig(dataset="seeds", fault_model="short")
        with pytest.raises(ValueError, match="fault_rate > 0"):
            resolve_evaluation_settings(config, ga_config=GAConfig())
        settings = resolve_evaluation_settings(
            config, ga_config=GAConfig(fault_rate=0.1, n_fault_trials=2)
        )
        assert settings.fault_model == "short"

    def test_campaign_spec_fails_at_parse_time(self):
        spec = {
            "datasets": ["seeds"],
            "searches": [{"algorithm": "ga", "name": "shorts", "fault_model": "short"}],
        }
        with pytest.raises(ValueError, match="Search 'shorts'.*fault_rate > 0"):
            CampaignSpec.from_dict(spec)
        spec["searches"][0].update(fault_rate=0.05, n_fault_trials=2)
        assert CampaignSpec.from_dict(spec).searches


class TestSilentSurrogateKnobsRejected:
    @pytest.mark.parametrize(
        "knobs, name",
        [
            ({"surrogate_candidates": 8}, "surrogate_candidates"),
            ({"surrogate_prefilter": 0.5}, "surrogate_prefilter"),
            ({"halving_budgets": (1, 2)}, "halving_budgets"),
        ],
    )
    def test_settings_reject_knob_without_model(self, knobs, name):
        with pytest.raises(ValueError, match=f"{name} set without surrogate"):
            SurrogateSettings(**knobs)
        assert SurrogateSettings(surrogate="ridge", **knobs).surrogate == "ridge"

    def test_defaults_without_model_are_accepted(self):
        assert resolve_surrogate_settings() == SurrogateSettings()
        # PipelineConfig carries the defaults explicitly; they change nothing.
        assert resolve_surrogate_settings(PipelineConfig(dataset="seeds")).surrogate is None

    def test_resolved_set_is_checked_across_configs(self):
        config = PipelineConfig(dataset="seeds", halving_budgets=(1,))
        with pytest.raises(ValueError, match="halving_budgets set without surrogate"):
            resolve_surrogate_settings(config, ga_config=GAConfig())
        # ...and a GA surrogate puts the pipeline's knobs to use.
        settings = resolve_surrogate_settings(config, ga_config=GAConfig(surrogate="ridge"))
        assert settings.halving_budgets == (1,)

    @pytest.mark.parametrize(
        "knob, value",
        [("surrogate_candidates", 8), ("surrogate_prefilter", 0.5), ("halving_budgets", [1])],
    )
    def test_campaign_spec_fails_at_parse_time(self, knob, value):
        spec = {
            "datasets": ["seeds"],
            "searches": [{"algorithm": "ga", "name": "plain", knob: value}],
        }
        with pytest.raises(ValueError, match=f"Search 'plain'.*{knob} set without surrogate"):
            CampaignSpec.from_dict(spec)
        spec["searches"][0]["surrogate"] = "ridge"
        assert CampaignSpec.from_dict(spec).searches
        # A pipeline-level knob reaches non-GA searches too.
        spec["searches"] = [{"algorithm": "random", "n_evaluations": 2}]
        spec["pipeline"] = {knob: value}
        with pytest.raises(ValueError, match=f"{knob} set without surrogate"):
            CampaignSpec.from_dict(spec)


class TestBackendKnobRemoved:
    def test_configs_reject_backend(self):
        with pytest.raises(TypeError, match="backend"):
            PipelineConfig(dataset="seeds", backend="numpy")
        with pytest.raises(TypeError, match="backend"):
            GAConfig(backend="numpy")
        with pytest.raises(TypeError, match="backend"):
            EvaluationSettings(backend="numpy")

    def test_campaign_spec_rejects_backend_as_unknown(self):
        with pytest.raises(ValueError, match="Unknown parameters.*backend"):
            CampaignSpec.from_dict(
                {"datasets": ["seeds"], "searches": [{"algorithm": "ga", "backend": "numpy"}]}
            )
        with pytest.raises(ValueError, match="Unknown pipeline overrides.*backend"):
            CampaignSpec.from_dict(
                {
                    "datasets": ["seeds"],
                    "searches": [{"algorithm": "random"}],
                    "pipeline": {"backend": "numpy"},
                }
            )
