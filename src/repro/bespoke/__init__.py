"""Bespoke printed-MLP circuit generation, analytical synthesis, simulation and export."""

from .circuit import BespokeCircuit, BespokeConfig, build_bespoke_circuit
from .layer_circuit import (
    LayerCircuitResult,
    LayerCircuitSpec,
    build_layer_circuit,
    distinct_products_per_input,
    estimate_layer_latency_depth,
)
from .netlist import CircuitComponent, Netlist
from .report import SynthesisReport
from .simulator import (
    FixedPointSimulator,
    SimulationTrace,
    population_accuracy,
    simulate_population,
    verify_circuit,
)
from .synthesis import (
    report_from_circuit,
    synthesize,
    synthesize_baseline,
    synthesize_cost_only,
    synthesize_population,
)
from .verilog import count_verilog_adders, export_verilog

__all__ = [
    "BespokeCircuit",
    "BespokeConfig",
    "CircuitComponent",
    "FixedPointSimulator",
    "LayerCircuitResult",
    "LayerCircuitSpec",
    "Netlist",
    "SimulationTrace",
    "SynthesisReport",
    "build_bespoke_circuit",
    "build_layer_circuit",
    "count_verilog_adders",
    "distinct_products_per_input",
    "estimate_layer_latency_depth",
    "export_verilog",
    "population_accuracy",
    "report_from_circuit",
    "simulate_population",
    "synthesize",
    "synthesize_baseline",
    "synthesize_cost_only",
    "synthesize_population",
    "verify_circuit",
]
