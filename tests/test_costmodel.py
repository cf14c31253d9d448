"""Unit tests for the port/latency cost model (``translator.costmodel``).

The model is the arbiter of schedule quality, so it must be
deterministic, monotone in molecule count for serial code, and strictly
prefer a packed placement of an ILP kernel over the serial placement of
the same operations.
"""

from __future__ import annotations

from repro.host.atoms import AluOp
from repro.translator.costmodel import DEFAULT_COST_MODEL, MachineCostModel
from repro.translator.ir import IROp, IROpKind


def alu(op: AluOp = AluOp.ADD) -> IROp:
    return IROp(kind=IROpKind.ALU, aluop=op)


def load() -> IROp:
    return IROp(kind=IROpKind.LD)


class TestDeterminism:
    def test_completion_is_a_pure_fold(self):
        cycles = [[alu()], [load()], [alu(AluOp.MUL)], [alu()]]
        first = DEFAULT_COST_MODEL.completion_cycles(cycles)
        assert all(DEFAULT_COST_MODEL.completion_cycles(cycles) == first
                   for _ in range(10))

    def test_fresh_model_agrees_with_default(self):
        cycles = [[alu(), load()], [alu()]]
        assert MachineCostModel().completion_cycles(cycles) == \
            DEFAULT_COST_MODEL.completion_cycles(cycles)


class TestSerialMonotonicity:
    def test_more_serial_molecules_cost_strictly_more(self):
        """For unit-latency serial code, modeled cycles track molecule
        count exactly — every added molecule adds a cycle."""
        previous = None
        for count in range(1, 12):
            cycles = [[alu()] for _ in range(count)]
            modeled = DEFAULT_COST_MODEL.completion_cycles(cycles)
            assert modeled == count
            if previous is not None:
                assert modeled > previous
            previous = modeled

    def test_latency_extends_past_last_issue_slot(self):
        # A load issued in the final molecule finishes latency-1 cycles
        # after a plain ALU op would.
        serial_alu = [[alu()], [alu()]]
        serial_load = [[alu()], [load()]]
        lat = DEFAULT_COST_MODEL.latencies[IROpKind.LD]
        assert DEFAULT_COST_MODEL.completion_cycles(serial_load) == \
            DEFAULT_COST_MODEL.completion_cycles(serial_alu) + lat - 1

    def test_multiply_latency_is_special_cased(self):
        mul = [[alu(AluOp.MUL)]]
        add = [[alu(AluOp.ADD)]]
        assert DEFAULT_COST_MODEL.completion_cycles(mul) == \
            DEFAULT_COST_MODEL.mul_latency
        assert DEFAULT_COST_MODEL.completion_cycles(add) == 1


class TestPackedPreference:
    def test_packed_ilp_kernel_strictly_beats_serial(self):
        """Hand-built kernel: two independent load+add chains.  Packed
        placement (loads together, adds together) must model strictly
        cheaper than issuing the same ops one per molecule."""
        l1, l2 = load(), load()
        a1, a2 = alu(), alu()
        packed = [[l1, a1], [l2, a2]]
        serial = [[l1], [a1], [l2], [a2]]
        model = DEFAULT_COST_MODEL
        assert model.completion_cycles(packed) < \
            model.completion_cycles(serial)

    def test_width_limited_packing_still_wins(self):
        ops = [alu() for _ in range(8)]
        packed = [ops[0:2], ops[2:4], ops[4:6], ops[6:8]]
        serial = [[op] for op in ops]
        assert DEFAULT_COST_MODEL.completion_cycles(packed) < \
            DEFAULT_COST_MODEL.completion_cycles(serial)
