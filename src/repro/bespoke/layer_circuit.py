"""Bespoke circuit generation for a single Dense layer.

A bespoke Dense layer consists of, per neuron, the constant-coefficient
multipliers of its non-zero weights, an adder tree summing the products (plus
the hard-wired bias, if any), and the activation block. Because every weight
is a hard-wired constant:

* pruned (zero) weights produce no multiplier and no adder-tree operand,
* weights at the same *input position* (same row of the weight matrix) with
  the same magnitude can share one multiplier — the mechanism the paper's
  weight-clustering technique exploits (and that synthesis resource sharing
  applies automatically when low bit-widths make weights coincide).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..hardware.arithmetic import (
    adder_tree_from_widths,
    constant_multiplier,
    distinct_magnitude_counts,
    neuron_output_width,
    relu_unit,
)
from ..hardware.csd import coefficient_bit_length
from ..hardware.technology import TechnologyLibrary
from .netlist import CircuitComponent


@dataclass(frozen=True)
class LayerCircuitSpec:
    """Inputs needed to generate one Dense layer's bespoke hardware.

    Attributes:
        weights: integer coefficient matrix of shape ``(n_inputs, n_neurons)``.
        biases: integer bias vector of shape ``(n_neurons,)``.
        input_bits: bit-width of the layer's input activations.
        weight_bits: bit-width of the hard-wired weights.
        relu: whether the layer is followed by a ReLU activation.
        share_products: share multipliers across neurons for identical
            |coefficient| at the same input position.
        multiplier_method: ``"csd"`` or ``"binary"`` shift-add decomposition.
    """

    weights: np.ndarray
    biases: np.ndarray
    input_bits: int
    weight_bits: int
    relu: bool = True
    share_products: bool = True
    multiplier_method: str = "csd"

    def __post_init__(self) -> None:
        weights = np.asarray(self.weights)
        biases = np.asarray(self.biases)
        if weights.ndim != 2:
            raise ValueError(f"weights must be 2-D, got shape {weights.shape}")
        if biases.shape != (weights.shape[1],):
            raise ValueError(
                f"biases must have shape ({weights.shape[1]},), got {biases.shape}"
            )
        if not np.issubdtype(weights.dtype, np.integer):
            raise TypeError("Layer circuit weights must be integers (hard-wired levels)")
        if not np.issubdtype(biases.dtype, np.integer):
            raise TypeError("Layer circuit biases must be integers")
        if self.input_bits <= 0 or self.weight_bits <= 0:
            raise ValueError("input_bits and weight_bits must be positive")

    @property
    def n_inputs(self) -> int:
        return int(np.asarray(self.weights).shape[0])

    @property
    def n_neurons(self) -> int:
        return int(np.asarray(self.weights).shape[1])


@dataclass
class LayerCircuitResult:
    """Components generated for one layer plus bookkeeping for later layers."""

    components: List[CircuitComponent]
    output_bits: int
    n_multipliers: int
    n_shared_products: int


def _integer_bit_lengths(magnitudes: np.ndarray) -> np.ndarray:
    """Vectorized ``int.bit_length`` over an array of non-negative integers.

    ``frexp`` decomposes ``m = mantissa * 2**exponent`` with mantissa in
    ``[0.5, 1)``, so the exponent *is* the bit length for positive integers
    (and 0 for zero) — exact for every value below 2**53, far beyond any
    hard-wired coefficient.
    """
    return np.frexp(magnitudes.astype(np.float64))[1]


def _layer_mult_plan(
    spec: LayerCircuitSpec, weights: np.ndarray
) -> Tuple[List[Tuple[int, np.ndarray, np.ndarray]], int]:
    """Per-input multiplier instantiation plan: (input_index, magnitudes, fanouts).

    The magnitudes honor the sharing convention of the original per-weight
    loop: with ``share_products`` they are the sorted distinct non-zero
    |coefficients| of the row (``np.unique``), otherwise every non-zero
    |coefficient| in row order.
    """
    abs_w = np.abs(weights)
    plan: List[Tuple[int, np.ndarray, np.ndarray]] = []
    n_shared = 0
    for input_index in range(spec.n_inputs):
        row_nz = abs_w[input_index][abs_w[input_index] != 0]
        if row_nz.size == 0:
            continue
        if spec.share_products:
            magnitudes, fanouts = np.unique(row_nz, return_counts=True)
            n_shared += int(row_nz.size - magnitudes.size)
        else:
            magnitudes = row_nz
            fanouts = np.ones(row_nz.size, dtype=np.int64)
        plan.append((input_index, magnitudes, fanouts))
    return plan, n_shared


def _neuron_operand_widths(
    spec: LayerCircuitSpec, weights: np.ndarray, biases: np.ndarray
) -> List[List[int]]:
    """Adder-tree operand widths per neuron (vectorized over the weight matrix)."""
    nonzero = weights != 0
    widths_matrix = spec.input_bits + _integer_bit_lengths(np.abs(weights))
    per_neuron: List[List[int]] = []
    for neuron_index in range(spec.n_neurons):
        operand_widths = widths_matrix[:, neuron_index][nonzero[:, neuron_index]].tolist()
        if biases[neuron_index] != 0:
            bias_width = min(
                coefficient_bit_length(int(biases[neuron_index])),
                spec.input_bits + spec.weight_bits,
            )
            operand_widths.append(max(bias_width, 1))
        per_neuron.append(operand_widths)
    return per_neuron


def build_layer_circuit(
    spec: LayerCircuitSpec,
    tech: TechnologyLibrary,
    layer_index: int,
    name_prefix: Optional[str] = None,
) -> LayerCircuitResult:
    """Generate the bespoke hardware of one Dense layer.

    Returns the component list together with the layer's output bit-width,
    which becomes the next layer's ``input_bits``.
    """
    prefix = name_prefix if name_prefix is not None else f"layer{layer_index}"
    weights = np.asarray(spec.weights, dtype=np.int64)
    biases = np.asarray(spec.biases, dtype=np.int64)
    components: List[CircuitComponent] = []
    n_multipliers = 0

    # --- multipliers, organised per input position so products can be shared ---
    plan, n_shared = _layer_mult_plan(spec, weights)
    for input_index, magnitudes, fanouts in plan:
        for mult_index, (magnitude, fanout) in enumerate(zip(magnitudes, fanouts)):
            magnitude = int(magnitude)
            cost = constant_multiplier(
                magnitude, spec.input_bits, tech, method=spec.multiplier_method
            )
            components.append(
                CircuitComponent(
                    name=f"{prefix}/in{input_index}/mult{mult_index}",
                    kind="multiplier",
                    cost=cost,
                    layer_index=layer_index,
                    attributes={
                        "coefficient": magnitude,
                        "input_position": input_index,
                        "fanout": int(fanout),
                    },
                )
            )
            n_multipliers += 1

    # --- per-neuron adder trees and activations --------------------------------
    max_operands = 0
    for neuron_index, operand_widths in enumerate(
        _neuron_operand_widths(spec, weights, biases)
    ):
        n_operands = len(operand_widths)
        max_operands = max(max_operands, n_operands)
        tree_cost = adder_tree_from_widths(operand_widths, tech) if operand_widths else (
            adder_tree_from_widths([1], tech)
        )
        components.append(
            CircuitComponent(
                name=f"{prefix}/neuron{neuron_index}/sum",
                kind="adder_tree",
                cost=tree_cost,
                layer_index=layer_index,
                attributes={"n_operands": n_operands},
            )
        )
        if spec.relu:
            act_width = neuron_output_width(
                spec.input_bits, spec.weight_bits, max(n_operands, 1)
            )
            components.append(
                CircuitComponent(
                    name=f"{prefix}/neuron{neuron_index}/relu",
                    kind="activation",
                    cost=relu_unit(act_width, tech),
                    layer_index=layer_index,
                    attributes={"width": act_width},
                )
            )

    output_bits = neuron_output_width(
        spec.input_bits, spec.weight_bits, max(max_operands, 1)
    )
    return LayerCircuitResult(
        components=components,
        output_bits=output_bits,
        n_multipliers=n_multipliers,
        n_shared_products=n_shared,
    )


def distinct_products_per_input(weights: np.ndarray) -> List[int]:
    """Number of distinct non-zero |coefficients| per input position.

    This is the multiplier count each input position needs under product
    sharing; used by tests and by the clustering analysis utilities.
    """
    weights = np.asarray(weights)
    if weights.ndim != 2:
        raise ValueError("weights must be 2-D")
    return distinct_magnitude_counts(weights).tolist()


def estimate_layer_latency_depth(n_operands: int) -> int:
    """Adder-tree depth (levels) for ``n_operands`` operands."""
    if n_operands <= 1:
        return 0
    return int(math.ceil(math.log2(n_operands)))
