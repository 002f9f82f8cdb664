"""Synthesis driver: MLP → bespoke circuit → :class:`SynthesisReport`.

This is the module that plays the role of Synopsys Design Compiler +
PrimeTime in the original flow: it produces the area/power/delay numbers the
evaluation is based on. See ``DESIGN.md`` section 2 for the substitution
rationale.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..hardware.arithmetic import (
    adder_tree_from_sorted_widths,
    argmax_unit,
    constant_multiplier,
    neuron_output_width,
    register_bank,
    relu_unit,
)
from ..hardware.cost import HardwareCost
from ..hardware.technology import TechnologyLibrary, egt_library
from ..nn.network import MLP
from .circuit import (
    BespokeCircuit,
    BespokeConfig,
    _dense_relu_flags,
    build_bespoke_circuit,
    layer_parameters,
    quantize_layers,
)
from .layer_circuit import _integer_bit_lengths
from .netlist import CircuitComponent
from .report import SynthesisReport


def report_from_circuit(circuit: BespokeCircuit) -> SynthesisReport:
    """Compute the synthesis report of an already-built bespoke circuit.

    The critical path is estimated as the serial chain of the slowest
    multiplier, the per-layer adder trees and the argmax stage, which is
    what dominates a fully combinational bespoke MLP.
    """
    netlist = circuit.netlist
    total_parallel = netlist.total_cost()
    by_kind = netlist.cost_by_kind()
    by_layer_raw = netlist.cost_by_layer()
    by_layer: Dict[int, HardwareCost] = {}
    for key, value in by_layer_raw.items():
        by_layer[-1 if key is None else int(key)] = value

    # Critical path: per layer the slowest multiplier + slowest adder tree
    # (+ activation), then the argmax; everything chained serially.
    delay = 0.0
    for layer_index in range(len(circuit.layer_results)):
        layer_components = netlist.by_layer(layer_index)
        mult_delay = max(
            (c.cost.delay for c in layer_components if c.kind == "multiplier"),
            default=0.0,
        )
        tree_delay = max(
            (c.cost.delay for c in layer_components if c.kind == "adder_tree"),
            default=0.0,
        )
        act_delay = max(
            (c.cost.delay for c in layer_components if c.kind == "activation"),
            default=0.0,
        )
        delay += mult_delay + tree_delay + act_delay
    delay += sum(c.cost.delay for c in netlist.by_kind("argmax"))
    delay += max((c.cost.delay for c in netlist.by_kind("register")), default=0.0)

    total = HardwareCost(
        area=total_parallel.area,
        power=total_parallel.power,
        delay=delay,
        gate_counts=total_parallel.gate_counts,
    )
    return SynthesisReport(
        circuit_name=circuit.name,
        technology=circuit.technology.name,
        total=total,
        by_kind=by_kind,
        by_layer=by_layer,
        component_counts=netlist.count_by_kind(),
        n_multipliers=circuit.n_multipliers,
        n_shared_products=circuit.n_shared_products,
        metadata=dict(circuit.metadata),
    )


#: Block kinds; a slot's kind code indexes this tuple.
_KINDS = CircuitComponent.VALID_KINDS
_MULTIPLIER, _ADDER_TREE, _ACTIVATION, _ARGMAX, _REGISTER = range(len(_KINDS))


def _distinct_columns(keys: np.ndarray) -> Tuple[List[List[int]], np.ndarray]:
    """Distinct columns of a small non-negative int array, and each column's index among them."""
    if not keys.shape[1]:
        return [], np.zeros(0, dtype=np.int64)
    shape = tuple(int(top) + 1 for top in keys.max(axis=1))
    codes = np.ravel_multi_index(tuple(keys), shape)
    distinct, inverse = np.unique(codes, return_inverse=True)
    return np.stack(np.unravel_index(distinct, shape), axis=1).tolist(), inverse.reshape(-1)


def synthesize_population(
    models: Sequence[MLP],
    configs: Optional[Sequence[Optional[BespokeConfig]]] = None,
    tech: Optional[TechnologyLibrary] = None,
    names: Optional[Sequence[str]] = None,
) -> List[SynthesisReport]:
    """Synthesis reports of many models without materializing any netlist.

    The models must share their Dense shapes, activations and mapping
    convention (everything of their :class:`BespokeConfig` but the weight
    bit-widths) — a search population of one prepared pipeline. Each report
    equals ``report_from_circuit(build_bespoke_circuit(model, config, tech,
    name))`` — totals, breakdowns, gate-count key order, counts and delay —
    which ``tests/test_perf_fastpaths.py`` asserts; use this in search
    inner loops and the netlist for reports, ablation queries and Verilog
    export.

    Every model's circuit is laid out as the same sequence of *slots* —
    input registers, each layer's multipliers, each neuron's adder tree and
    ReLU, the argmax, output registers — and a slot holds an index into a
    table of block costs, or -1 where that model instantiates no block.
    Blocks sit in the order :func:`build_bespoke_circuit` instantiates
    them, so a cumulative sum along the slots adds areas and powers in the
    netlist's order (a missing block adds an exact zero; Python's ``sum``,
    compensated since 3.12, is never used on floats), and gate counts are
    integer vectors whose keys are ordered by the slot that first uses
    them. The layer specs and operand-width tables are built once, and each
    memoized cost kernel is called once per distinct argument of the whole
    population.
    """
    models = list(models)
    configs = [c if c is not None else BespokeConfig() for c in (configs or [None] * len(models))]
    names = list(names) if names is not None else ["bespoke_mlp"] * len(models)
    tech = tech if tech is not None else egt_library()
    if not models:
        return []
    dense = [model.dense_layers for model in models]
    if not dense[0]:
        raise ValueError("Cannot build a bespoke circuit for an MLP without Dense layers")
    relu_flags = _dense_relu_flags(models[0])
    config = configs[0]
    convention = (
        [(layer.n_inputs, layer.n_outputs) for layer in dense[0]], relu_flags,
        config.input_bits, config.share_products, config.multiplier_method,
        config.include_io_registers,
    )
    for model, layers, other in zip(models[1:], dense[1:], configs[1:]):
        if convention != (
            [(layer.n_inputs, layer.n_outputs) for layer in layers], _dense_relu_flags(model),
            other.input_bits, other.share_products, other.multiplier_method,
            other.include_io_registers,
        ):
            raise ValueError(
                "synthesize_population needs one architecture and mapping convention "
                "per call (Dense shapes, activations, input_bits, share_products, "
                "multiplier_method, include_io_registers)"
            )

    n_models = len(models)
    n_layers = len(dense[0])
    bits = [[c.bits_for_layer(i, n_layers) for i in range(n_layers)] for c in configs]
    costs: List[HardwareCost] = []
    slots: List[Tuple[np.ndarray, np.ndarray, int]] = []  # (cost ids, kinds, layer)

    def register(new: List[HardwareCost]) -> np.ndarray:
        costs.extend(new)
        return np.arange(len(costs) - len(new), len(costs))

    def add(ids: np.ndarray, kinds: Sequence[int], layer: int) -> None:
        slots.append((ids.reshape(n_models, -1), np.asarray(kinds), layer))

    if config.include_io_registers:
        width = dense[0][0].n_inputs * config.input_bits
        add(np.repeat(register([register_bank(width, tech)]), n_models), [_REGISTER], n_layers)

    input_bits = np.full(n_models, config.input_bits)
    n_multipliers = np.zeros(n_models, dtype=np.int64)
    n_shared = np.zeros(n_models, dtype=np.int64)
    n_active = np.zeros(n_models, dtype=np.int64)
    for index, relu in enumerate(relu_flags):
        weight_bits = np.array([b[index] for b in bits])
        effective, biases = layer_parameters([layers[index] for layers in dense])
        n_active += np.count_nonzero(effective, axis=(1, 2))
        weights, biases, _ = quantize_layers(
            effective, biases, weight_bits.tolist(), input_bits.tolist()
        )

        # Multipliers, per input position: with sharing one per distinct
        # non-zero |coefficient| in ascending order, else one per weight.
        magnitudes = np.abs(weights)
        nonzero = magnitudes != 0
        if config.share_products:
            coefficients = np.sort(magnitudes, axis=2)
            used = coefficients != 0
            used[..., 1:] &= coefficients[..., 1:] != coefficients[..., :-1]
            n_shared += np.count_nonzero(nonzero, axis=(1, 2))
            n_shared -= np.count_nonzero(used, axis=(1, 2))
        else:
            coefficients, used = magnitudes, nonzero
        n_multipliers += np.count_nonzero(used, axis=(1, 2))
        pairs, inverse = _distinct_columns(
            np.stack([coefficients[used], input_bits[np.nonzero(used)[0]]])
        )
        # Each model's multipliers in instantiation order, left-aligned.
        used = used.reshape(n_models, -1)
        position = np.cumsum(used, axis=1) - 1
        ids = np.full((n_models, int(position[:, -1].max()) + 1), -1, dtype=np.int64)
        ids[np.nonzero(used)[0], position[used]] = register([
            constant_multiplier(c, b, tech, method=config.multiplier_method) for c, b in pairs
        ])[inverse]
        add(ids, np.full(ids.shape[1], _MULTIPLIER), index)

        # Per neuron: an adder tree over its operand widths (+ the bias).
        widths = np.where(nonzero, input_bits[:, None, None] + _integer_bit_lengths(magnitudes), 0)
        cap = (input_bits + weight_bits)[:, None]
        bias_widths = np.where(
            biases != 0,
            np.maximum(np.minimum(_integer_bit_lengths(np.abs(biases)), cap), 1),
            0,
        )
        operands = np.concatenate([widths.transpose(0, 2, 1), bias_widths[:, :, None]], axis=2)
        n_operands = np.count_nonzero(operands, axis=2)
        # Each neuron's operand widths as a sorted tuple without the absent
        # (zero) operands; one adder tree per distinct multiset.
        multisets: Dict[tuple, int] = {}
        inverse = [
            multisets.setdefault(tuple(width for width in row if width), len(multisets))
            for row in np.sort(operands, axis=2).reshape(-1, operands.shape[2]).tolist()
        ]
        trees = register([
            adder_tree_from_sorted_widths(widths, tech) for widths in multisets
        ])[inverse].reshape(n_models, -1)
        if relu:
            triples, inverse = _distinct_columns(np.stack([
                np.repeat(input_bits, n_operands.shape[1]),
                np.repeat(weight_bits, n_operands.shape[1]),
                np.maximum(n_operands, 1).reshape(-1),
            ]))
            activations = register([
                relu_unit(neuron_output_width(ib, wb, n), tech) for ib, wb, n in triples
            ])[inverse].reshape(n_models, -1)
            neurons = np.stack([trees, activations], axis=2)
            add(neurons, [_ADDER_TREE, _ACTIVATION] * trees.shape[1], index)
        else:
            add(trees, np.full(trees.shape[1], _ADDER_TREE), index)
        input_bits = np.array([
            neuron_output_width(ib, wb, max(widest, 1))
            for ib, wb, widest in zip(
                input_bits.tolist(), weight_bits.tolist(), n_operands.max(axis=1).tolist()
            )
        ])

    n_classes = dense[0][-1].n_outputs
    index_bits = max(int(math.ceil(math.log2(n_classes))), 1)
    add(
        register([argmax_unit(n_classes, b, index_bits, tech) for b in input_bits.tolist()]),
        [_ARGMAX],
        n_layers,
    )
    if config.include_io_registers:
        add(np.repeat(register([register_bank(index_bits, tech)]), n_models), [_REGISTER], n_layers)

    # Slot costs: area/power/delay, gate-count vectors over ``cells`` and
    # each cell's position among its block's keys (``n_cells``: absent).
    ids = np.concatenate([slot[0] for slot in slots], axis=1)
    kinds = np.concatenate([slot[1] for slot in slots])
    layer_of = np.concatenate([np.full(slot[1].size, slot[2]) for slot in slots])
    cells = list(dict.fromkeys(cell for cost in costs for cell in cost.gate_counts))
    n_cells = len(cells)
    column = {cell: i for i, cell in enumerate(cells)}
    table_counts = np.zeros((len(costs) + 1, n_cells), dtype=np.int64)
    table_rank = np.full((len(costs) + 1, n_cells), n_cells)
    for i, cost in enumerate(costs):
        for position, (cell, count) in enumerate(cost.gate_counts.items()):
            table_counts[i, column[cell]] = count
            table_rank[i, column[cell]] = position
    real = ids >= 0
    slot_cost = np.where(real, ids, len(costs))
    area = np.array([c.area for c in costs] + [0.0])[slot_cost]
    power = np.array([c.power for c in costs] + [0.0])[slot_cost]
    delay = np.array([c.delay for c in costs] + [0.0])[slot_cost]

    # The groups a report breaks costs into — each kind present, each
    # layer (the last one holds the global blocks) and the whole circuit —
    # as a (groups, slots) membership matrix, folded for every model at
    # once. A cell's key is (first slot using it, its rank in that block),
    # so sorting the keys orders each dict as the netlist's merges do.
    kind_codes = [code for code in range(len(_KINDS)) if np.any(kinds == code)]
    members = np.concatenate([
        kinds == np.array(kind_codes)[:, None],
        layer_of == np.arange(n_layers + 1)[:, None],
        np.ones((1, kinds.size), dtype=bool),
    ])
    absent = kinds.size * (n_cells + 1)
    cell_key = np.where(
        table_rank[slot_cost] < n_cells,
        np.arange(kinds.size)[:, None] * (n_cells + 1) + table_rank[slot_cost],
        absent,
    )
    first_key = np.where(members[None, :, :, None], cell_key[:, None], absent).min(axis=2)
    in_group = real[:, None, :] & members
    folded = {
        "area": np.cumsum(np.where(members, area[:, None, :], 0.0), axis=2)[..., -1].tolist(),
        "power": np.cumsum(np.where(members, power[:, None, :], 0.0), axis=2)[..., -1].tolist(),
        "delay": np.where(members, delay[:, None, :], 0.0).max(axis=2).tolist(),
        "counts": (members.astype(np.int64) @ table_counts[slot_cost]).tolist(),
        "order": np.argsort(first_key, axis=2, kind="stable").tolist(),
        "seen": (first_key < absent).tolist(),
        "first_slot": np.where(in_group, np.arange(kinds.size), kinds.size).min(axis=2).tolist(),
        "size": np.count_nonzero(in_group, axis=2).tolist(),
    }
    kind_groups = {_KINDS[code]: group for group, code in enumerate(kind_codes)}
    layer_groups = {
        (-1 if layer == n_layers else layer): len(kind_codes) + layer
        for layer in range(n_layers + 1)
    }
    whole = len(members) - 1

    def cost_of(g: int, group: int, delay_value: Optional[float] = None) -> HardwareCost:
        seen, counts = folded["seen"][g][group], folded["counts"][g][group]
        return HardwareCost(
            area=folded["area"][g][group],
            power=folded["power"][g][group],
            delay=folded["delay"][g][group] if delay_value is None else delay_value,
            gate_counts={cells[c]: counts[c] for c in folded["order"][g][group] if seen[c]},
        )

    # Critical path: per layer the slowest multiplier + slowest adder tree
    # (+ activation), then the argmax chain and the slowest register.
    path_kinds = np.array([_MULTIPLIER, _ADDER_TREE, _ACTIVATION])
    path = (kinds == path_kinds[:, None]) & (layer_of == np.arange(n_layers)[:, None, None])
    slowest = np.where(path, delay[:, None, None, :], 0.0).max(axis=3)
    critical = np.zeros(n_models)
    for layer in range(n_layers):
        critical = critical + (
            (slowest[:, layer, 0] + slowest[:, layer, 1]) + slowest[:, layer, 2]
        )
    critical = critical + np.cumsum(np.where(kinds == _ARGMAX, delay, 0.0), axis=1)[:, -1]
    last_register = np.where((kinds == _REGISTER) & (layer_of == n_layers), delay, 0.0)
    critical = (critical + last_register.max(axis=1)).tolist()

    n_connections = sum(layer.weights.size for layer in dense[0])
    reports = []
    for g, (model, model_config, name) in enumerate(zip(models, configs, names)):
        first_slot, size = folded["first_slot"][g], folded["size"][g]
        kinds_present = sorted(
            (first_slot[group], kind) for kind, group in kind_groups.items() if size[group]
        )
        layers_present = sorted(
            (first_slot[group], layer) for layer, group in layer_groups.items() if size[group]
        )
        reports.append(SynthesisReport(
            circuit_name=name,
            technology=tech.name,
            total=cost_of(g, whole, critical[g]),
            by_kind={kind: cost_of(g, kind_groups[kind]) for _, kind in kinds_present},
            by_layer={layer: cost_of(g, layer_groups[layer]) for _, layer in layers_present},
            component_counts={kind: size[kind_groups[kind]] for _, kind in kinds_present},
            n_multipliers=int(n_multipliers[g]),
            n_shared_products=int(n_shared[g]),
            metadata={
                "input_bits": model_config.input_bits,
                "weight_bits": bits[g],
                "share_products": model_config.share_products,
                "multiplier_method": model_config.multiplier_method,
                "topology": model.topology(),
                "sparsity": 1.0 - int(n_active[g]) / n_connections,
            },
        ))
    return reports


def synthesize_cost_only(
    model: MLP,
    config: Optional[BespokeConfig] = None,
    tech: Optional[TechnologyLibrary] = None,
    name: str = "bespoke_mlp",
) -> SynthesisReport:
    """Synthesis report without materializing the netlist.

    The one-model case of :func:`synthesize_population`; bit-identical to
    ``report_from_circuit(build_bespoke_circuit(...))``.
    """
    return synthesize_population([model], [config], tech, [name])[0]


def synthesize(
    model: MLP,
    config: Optional[BespokeConfig] = None,
    tech: Optional[TechnologyLibrary] = None,
    name: str = "bespoke_mlp",
) -> SynthesisReport:
    """One-call synthesis: build the bespoke circuit and report its costs.

    Args:
        model: trained (and possibly minimized) MLP.
        config: bespoke mapping configuration; defaults to the baseline
            convention (4-bit inputs, 8-bit weights, CSD, product sharing).
        tech: technology library, defaults to the EGT printed library.
        name: design name recorded in the report.
    """
    tech = tech if tech is not None else egt_library()
    circuit = build_bespoke_circuit(model, config=config, tech=tech, name=name)
    return report_from_circuit(circuit)


def synthesize_baseline(
    model: MLP,
    input_bits: int = 4,
    weight_bits: int = 8,
    tech: Optional[TechnologyLibrary] = None,
    name: str = "baseline_mlp",
) -> SynthesisReport:
    """Synthesize the un-minimized baseline the paper normalizes against.

    The baseline is the same trained network mapped with the default
    full-precision-for-printed convention (8-bit weights, 4-bit inputs),
    without any pruning mask or clustering applied. Masks/quantizer hooks on
    the model are temporarily ignored by synthesizing a clean clone.
    """
    baseline_model = model.clone()
    for layer in baseline_model.dense_layers:
        layer.mask = None
        layer.weight_quantizer = None
        layer.bias_quantizer = None
    config = BespokeConfig(input_bits=input_bits, weight_bits=weight_bits)
    return synthesize(baseline_model, config=config, tech=tech, name=name)
