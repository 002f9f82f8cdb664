"""Bit-identity property tests for the PR-2 fast paths.

The perf overhaul (memoized hardware-cost kernels, cost-only synthesis and
the quantizer fast path) must be *invisible* numerically:
every fast path has a reference implementation — either the pre-refactor
algorithm reimplemented here verbatim, or the shipped slow path — and these
tests assert exact float equality between the two.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from strategies import operand_width_lists, weight_tensors

from repro.bespoke import BespokeConfig, synthesize, synthesize_cost_only
from repro.clustering import cluster_model_weights
from repro.hardware.arithmetic import (
    adder_tree,
    adder_tree_from_widths,
    argmax_unit,
    clear_cost_caches,
    constant_multiplier,
)
from repro.hardware.cost import HardwareCost
from repro.hardware.csd import (
    binary_adder_stages,
    coefficient_bit_length,
    csd_adder_stages,
    csd_stage_table,
    is_power_of_two,
)
from repro.hardware.technology import silicon_library
from repro.nn.network import build_mlp
from repro.pruning import prune_by_magnitude
from repro.quantization import SymmetricQuantizer, attach_quantizers
from repro.search import (
    EvaluationSettings,
    GAConfig,
    HardwareAwareGA,
)

# --- reference (pre-refactor) hardware-cost algorithms ---------------------------


def _ref_ripple(width, tech):
    fa = tech.cell("FA")
    return HardwareCost(
        area=fa.area * width,
        power=fa.power * width,
        delay=fa.delay * width,
        gate_counts={"FA": width},
    )


def _ref_constant_multiplier(coefficient, input_bits, tech, method="csd"):
    """The seed implementation: a serial fold of ripple-carry adder stages."""
    coefficient = int(coefficient)
    if coefficient == 0:
        return HardwareCost.zero()
    if is_power_of_two(coefficient) and coefficient > 0:
        return HardwareCost.zero()
    stages = (
        csd_adder_stages(coefficient)
        if method == "csd"
        else binary_adder_stages(coefficient)
    )
    product_width = input_bits + coefficient_bit_length(coefficient)
    if coefficient < 0 and stages == 0:
        return tech.cost("INV", product_width)
    cost = HardwareCost.zero()
    for _ in range(stages):
        cost = cost.serial(_ref_ripple(product_width, tech))
    return cost


def _ref_adder_tree_from_widths(operand_widths, tech):
    """The seed sorted-list pop(0)/insert Huffman loop."""
    widths = sorted(int(w) for w in operand_widths)
    if len(widths) <= 1:
        return HardwareCost.zero()
    total_area = 0.0
    total_power = 0.0
    total_fa = 0
    depth_delay = 0.0
    while len(widths) > 1:
        first = widths.pop(0)
        second = widths.pop(0)
        adder_width = max(first, second)
        adder = _ref_ripple(adder_width, tech)
        total_area += adder.area
        total_power += adder.power
        total_fa += adder_width
        depth_delay += adder.delay
        result_width = adder_width + 1
        insert_at = 0
        while insert_at < len(widths) and widths[insert_at] < result_width:
            insert_at += 1
        widths.insert(insert_at, result_width)
    n_operands = len(operand_widths)
    tree_depth = math.ceil(math.log2(n_operands)) if n_operands > 1 else 0
    serial_stages = n_operands - 1
    delay = depth_delay * (tree_depth / serial_stages) if serial_stages else 0.0
    return HardwareCost(
        area=total_area, power=total_power, delay=delay, gate_counts={"FA": total_fa}
    )


def _ref_adder_tree(n_operands, operand_width, tech):
    """The seed level-by-level uniform-width fold."""
    if n_operands <= 1:
        return HardwareCost.zero()
    cost = HardwareCost.zero()
    level_width = operand_width
    remaining = n_operands
    depth = 0
    while remaining > 1:
        adders = remaining // 2
        level_cost = _ref_ripple(level_width, tech).scaled(adders)
        if depth == 0:
            cost = level_cost
        else:
            cost = HardwareCost(
                area=cost.area + level_cost.area,
                power=cost.power + level_cost.power,
                delay=cost.delay + level_cost.delay,
                gate_counts={
                    **cost.gate_counts,
                    "FA": cost.gate_counts.get("FA", 0)
                    + level_cost.gate_counts.get("FA", 0),
                },
            )
        remaining = adders + (remaining % 2)
        level_width += 1
        depth += 1
    return cost


def _ref_argmax_unit(n_values, width, index_bits, tech):
    """The seed serial fold of compare-and-select stages."""
    if n_values == 1:
        return HardwareCost.zero()
    stage = (
        _ref_ripple(width, tech)
        .serial(tech.cost("INV", width))
        .serial(tech.cost("MUX2", width + index_bits))
    )
    cost = HardwareCost.zero()
    for _ in range(n_values - 1):
        cost = cost.serial(stage)
    return cost


class TestMemoizedHardwareCosts:
    """(i) memoized kernels == reference over the full coefficient/bit domain."""

    @pytest.mark.parametrize("method", ["csd", "binary"])
    @pytest.mark.parametrize("input_bits", [4, 8])
    def test_constant_multiplier_full_domain(self, egt, method, input_bits):
        clear_cost_caches()
        max_level = (1 << 7) - 1  # full 8-bit weight domain
        for coefficient in range(-max_level, max_level + 1):
            fast = constant_multiplier(coefficient, input_bits, egt, method=method)
            ref = _ref_constant_multiplier(coefficient, input_bits, egt, method=method)
            assert fast == ref, (coefficient, input_bits, method)
            # Second call is served from the memo and must stay equal.
            assert constant_multiplier(coefficient, input_bits, egt, method=method) == ref

    def test_distinct_technologies_not_conflated(self, egt):
        silicon = silicon_library()
        a = constant_multiplier(7, 4, egt)
        b = constant_multiplier(7, 4, silicon)
        assert a != b
        assert a == _ref_constant_multiplier(7, 4, egt)
        assert b == _ref_constant_multiplier(7, 4, silicon)

    @given(widths=operand_width_lists)
    @settings(max_examples=200, deadline=None)
    def test_adder_tree_from_widths_matches_reference(self, egt, widths):
        """Property: the Huffman-heap kernel equals the seed sorted-list loop
        on every operand-width multiset (hypothesis explores the domain and
        shrinks failures to minimal multisets)."""
        assert adder_tree_from_widths(widths, egt) == _ref_adder_tree_from_widths(
            widths, egt
        ), widths

    def test_adder_tree_uniform_matches_reference(self, egt):
        for n_operands in range(2, 33):
            for width in (1, 4, 9):
                assert adder_tree(n_operands, width, egt) == _ref_adder_tree(
                    n_operands, width, egt
                ), (n_operands, width)

    def test_argmax_unit_matches_reference(self, egt):
        for n_values in range(1, 16):
            assert argmax_unit(n_values, 9, 3, egt) == _ref_argmax_unit(
                n_values, 9, 3, egt
            ), n_values

    def test_csd_stage_table_matches_scalar(self):
        for method in ("csd", "binary"):
            table = csd_stage_table(8, method)
            scalar = csd_adder_stages if method == "csd" else binary_adder_stages
            assert table.shape == (256,)
            assert all(int(table[m]) == scalar(m) for m in range(256))

    def test_csd_stage_table_validation(self):
        with pytest.raises(ValueError):
            csd_stage_table(0)
        with pytest.raises(ValueError):
            csd_stage_table(4, "ternary")


class TestCostOnlySynthesis:
    """(ii) cost-only synthesis == report_from_circuit on minimized models."""

    @staticmethod
    def _assert_reports_equal(full, fast):
        assert fast.total == full.total
        assert fast.by_kind == full.by_kind
        assert fast.by_layer == full.by_layer
        assert fast.component_counts == full.component_counts
        assert fast.n_multipliers == full.n_multipliers
        assert fast.n_shared_products == full.n_shared_products
        assert fast.metadata == full.metadata
        assert fast.technology == full.technology

    @pytest.mark.parametrize("seed", range(6))
    def test_random_minimized_models(self, seed):
        rng = np.random.default_rng(seed)
        model = build_mlp(9, [int(rng.integers(6, 18))], 5, seed=seed)
        if seed % 2:
            prune_by_magnitude(model, [0.5, 0.3], global_ranking=False)
        if seed % 3 == 0:
            cluster_model_weights(model, [4, 3], seed=seed)
        if seed % 3 == 1:
            attach_quantizers(model, [3, 6])
        config = BespokeConfig(
            input_bits=int(rng.integers(3, 7)),
            weight_bits=[int(rng.integers(2, 9)), int(rng.integers(2, 9))],
            share_products=bool(seed % 2),
            multiplier_method="binary" if seed == 2 else "csd",
            include_io_registers=seed != 3,
        )
        full = synthesize(model, config=config, name="m")
        fast = synthesize_cost_only(model, config=config, name="m")
        self._assert_reports_equal(full, fast)

    def test_trained_seeds_model(self, seeds_model):
        model = seeds_model.clone()
        prune_by_magnitude(model, [0.4, 0.2], global_ranking=False)
        attach_quantizers(model, 4)
        full = synthesize(model, name="seeds")
        fast = synthesize_cost_only(model, name="seeds")
        self._assert_reports_equal(full, fast)

    def test_requires_dense_layers(self):
        from repro.nn.network import MLP

        with pytest.raises(ValueError):
            synthesize_cost_only(MLP())


class TestQuantizerFastPath:
    """Fused fake-quantization == to_floats(to_integers(...))."""

    @pytest.mark.parametrize("bits", [2, 4, 8])
    @given(values=weight_tensors())
    @settings(max_examples=40, deadline=None)
    def test_matches_fixed_point_round_trip(self, bits, values):
        """Property: the single-pass quantizer equals the two-step fixed-point
        round trip on arbitrary weight tensors (all-zero and single-element
        tensors included)."""
        quantizer = SymmetricQuantizer(bits=bits)
        for scale in (None, 0.125):
            quantizer.scale = scale
            fmt = quantizer.format_for(values)
            expected = fmt.to_floats(fmt.to_integers(values))
            got = quantizer(values)
            assert got.tobytes() == expected.tobytes()

    def test_zero_and_empty_tensors(self):
        quantizer = SymmetricQuantizer(bits=4)
        assert quantizer(np.zeros((3, 3))).tobytes() == np.zeros((3, 3)).tobytes()
        assert quantizer(np.zeros((0,))).size == 0


class TestSerialParallelStillIdentical:
    """(iv) serial and parallel searches stay bit-identical after the overhaul."""

    def test_ga_fronts_identical(self, prepared_pipeline):
        prepared = prepared_pipeline.prepare()
        settings = EvaluationSettings(finetune_epochs=2)

        def run(n_workers):
            config = GAConfig(
                population_size=4,
                n_generations=2,
                seed=0,
                n_workers=n_workers,
            )
            return HardwareAwareGA(prepared, config=config, settings=settings).run()

        serial = run(1)
        parallel = run(2)
        serial_front = [(p.accuracy, p.area, p.power, p.delay) for p in serial.front]
        parallel_front = [(p.accuracy, p.area, p.power, p.delay) for p in parallel.front]
        assert serial_front == parallel_front
        assert serial.n_evaluations == parallel.n_evaluations
