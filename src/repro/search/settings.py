"""Evaluation settings and the single resolver that produces them.

Evaluation knobs historically arrived through three doors — direct
:class:`EvaluationSettings` construction, ``None``-inheriting
:class:`~repro.search.ga.GAConfig` fields, and campaign-spec entries — each
with its own resolution code. This module is now the one place those paths
meet: :func:`resolve_evaluation_settings` implements the inheritance rules
(GA knob → pipeline knob → default), :func:`resolve_surrogate_settings`
applies the same rules to the surrogate knobs, and every caller —
:class:`~repro.search.ga.HardwareAwareGA`, the campaign runner and spec,
the CLI — goes through it, so the knobs can never resolve differently
between subsystems.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional, Tuple

from ..reliability.fault_injection import FAULT_MODELS, FaultInjectionConfig


@dataclass(frozen=True)
class EvaluationSettings:
    """Knobs of the per-genome evaluation.

    Attributes:
        finetune_epochs: joint fine-tuning epochs (0 = no retraining, pure
            post-training evaluation — used by the GA ablation).
        finetune_learning_rate: learning rate of the joint fine-tuning pass.
        per_position_clustering: cluster per input position (paper scheme).
        simulate_accuracy: measure test accuracy on the bit-accurate
            fixed-point simulator (batched integer datapath) instead of the
            float software model, so the search optimizes the deployed
            circuit's accuracy rather than its floating-point proxy.
        fault_rate: fraction of hard-wired connections hit per Monte-Carlo
            fault-injection trial. With ``n_fault_trials`` > 0 every design
            point gains ``robust_accuracy``/``accuracy_std``, measured on
            the deployed circuit's integer datapath with per-(genome, trial)
            SHA-256-derived fault patterns. Default 0.0 — robustness off,
            evaluation byte-identical to earlier versions. These settings
            are part of the campaign cache's evaluation-context key, so
            robust and non-robust evaluations can never collide in a shared
            persistent cache.
        n_fault_trials: Monte-Carlo trials per design point (0 = off). A
            positive ``fault_rate`` with 0 trials is rejected: it would
            silently run without robustness.
        fault_model: defect mechanism injected (one of
            :data:`repro.reliability.FAULT_MODELS`). A model other than
            ``"open"`` without a positive ``fault_rate`` is rejected: no
            fault would ever be injected.
    """

    finetune_epochs: int = 8
    finetune_learning_rate: float = 0.003
    per_position_clustering: bool = True
    simulate_accuracy: bool = False
    fault_rate: float = 0.0
    n_fault_trials: int = 0
    fault_model: str = "open"

    def __post_init__(self) -> None:
        if not 0.0 <= self.fault_rate <= 1.0:
            raise ValueError(f"fault_rate must be in [0, 1], got {self.fault_rate}")
        if self.n_fault_trials < 0:
            raise ValueError(f"n_fault_trials must be >= 0, got {self.n_fault_trials}")
        if self.fault_rate > 0.0 and self.n_fault_trials == 0:
            raise ValueError(
                f"fault_rate={self.fault_rate} needs n_fault_trials > 0; with 0 "
                "trials robustness would be silently off"
            )
        if self.fault_model not in FAULT_MODELS:
            raise ValueError(
                f"fault_model must be one of {FAULT_MODELS}, got '{self.fault_model}'"
            )
        if self.fault_model != "open" and self.fault_rate == 0.0:
            raise ValueError(
                f"fault_model='{self.fault_model}' needs fault_rate > 0; with a "
                "zero rate no fault is ever injected"
            )

    @property
    def robustness_enabled(self) -> bool:
        """True when evaluations measure Monte-Carlo fault tolerance."""
        return self.fault_rate > 0.0 and self.n_fault_trials > 0

    def fault_config(self, seed: Optional[int]) -> FaultInjectionConfig:
        """The per-design fault campaign these settings describe.

        ``seed`` is the design's derived evaluation seed — each (genome,
        trial) pair then gets its own SHA-256-derived fault pattern via
        :func:`repro.reliability.fault_trial_seed`. ``weight_bits`` is
        irrelevant here (the simulator's own formats define the level grid).
        """
        return FaultInjectionConfig(
            fault_rate=self.fault_rate,
            fault_model=self.fault_model,
            n_trials=self.n_fault_trials,
            seed=0 if seed is None else int(seed),
        )


@dataclass(frozen=True)
class SurrogateSettings:
    """Knobs of surrogate-assisted search (see :mod:`repro.surrogate`).

    Attributes:
        surrogate: surrogate model name, or ``None`` for a plain search.
        surrogate_candidates: candidate-pool multiplier of ``population_size``.
        surrogate_prefilter: fraction of the population given a real evaluation.
        halving_budgets: successive-halving fine-tuning budgets (empty =
            no halving).

    The other knobs only act through ``surrogate``; setting one to a
    non-default value without a surrogate is rejected rather than ignored.
    """

    surrogate: Optional[str] = None
    surrogate_candidates: int = 4
    surrogate_prefilter: float = 0.25
    halving_budgets: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.surrogate is None:
            stray = [f.name for f in fields(self) if getattr(self, f.name) != f.default]
            if stray:
                raise ValueError(
                    f"{', '.join(stray)} set without surrogate; with no surrogate "
                    "model the search would ignore it"
                )


def _knob(name, default, pipeline_config, ga_config):
    """The first non-``None`` of the GA field, the pipeline field, ``default``."""
    ga_value = getattr(ga_config, name, None) if ga_config is not None else None
    if ga_value is not None:
        return ga_value
    pipeline_value = (
        getattr(pipeline_config, name, None) if pipeline_config is not None else None
    )
    return pipeline_value if pipeline_value is not None else default


def resolve_evaluation_settings(
    pipeline_config=None, ga_config=None
) -> EvaluationSettings:
    """Resolve every evaluation knob through the one documented precedence.

    Each knob takes the first non-``None`` value of: the GA config field,
    the pipeline config field, the :class:`EvaluationSettings` default.

    Either config may be ``None``: ``resolve_evaluation_settings()`` yields
    the defaults, ``resolve_evaluation_settings(config)`` is the non-GA
    campaign path, and passing both is the GA path (the same inheritance
    the ``stacked``/``cache_size``/``n_workers`` knobs use). The resolved
    pair is validated by :class:`EvaluationSettings`, so a ``fault_rate``
    from one config can never meet 0 trials from the other unnoticed.
    """
    configs = (pipeline_config, ga_config)
    return EvaluationSettings(
        finetune_epochs=_knob("finetune_epochs", 8, *configs),
        fault_rate=_knob("fault_rate", 0.0, *configs),
        n_fault_trials=_knob("n_fault_trials", 0, *configs),
        fault_model=_knob("fault_model", "open", *configs),
    )


def resolve_surrogate_settings(pipeline_config=None, ga_config=None) -> SurrogateSettings:
    """Resolve the surrogate knobs with :func:`resolve_evaluation_settings`' precedence.

    The resolved set is validated by :class:`SurrogateSettings`, so a
    candidate pool, prefilter or halving schedule from either config
    without a surrogate model from either one is rejected.
    """
    configs = (pipeline_config, ga_config)
    return SurrogateSettings(
        surrogate=_knob("surrogate", None, *configs),
        surrogate_candidates=int(_knob("surrogate_candidates", 4, *configs)),
        surrogate_prefilter=float(_knob("surrogate_prefilter", 0.25, *configs)),
        halving_budgets=tuple(int(b) for b in _knob("halving_budgets", (), *configs)),
    )


def evaluation_settings_for(config, pipeline_config) -> EvaluationSettings:
    """Default :class:`EvaluationSettings` of a GA run.

    Compatibility spelling of
    ``resolve_evaluation_settings(pipeline_config, ga_config=config)`` —
    the historical entry point shared by :class:`~repro.search.ga.HardwareAwareGA`
    and the campaign runner. New code should call the resolver directly.
    """
    return resolve_evaluation_settings(pipeline_config, ga_config=config)


__all__ = [
    "EvaluationSettings",
    "SurrogateSettings",
    "evaluation_settings_for",
    "resolve_evaluation_settings",
    "resolve_surrogate_settings",
]
