"""Fill unit: line construction rules and invariants (paper 3.3.3-3.3.4)."""

from repro.contracts.asm import assemble
from repro.contracts.registry import compile_suite
from repro.core.hotspot.optimizer import CodeView
from repro.core.mtpu.fill_unit import FillConfig, build_line
from repro.evm.decoded import build_program


def line_for(source, start_pc=0, **config_kwargs):
    program = build_program(assemble(source))
    return build_line(0xC0DE, program, start_pc, FillConfig(**config_kwargs))


class TestTermination:
    def test_branch_ends_line(self):
        line = line_for("PUSH 1\nPUSH @lab\nJUMPI\nADD\nlab:\nSTOP")
        assert line.slots[-1].op.primary.op.name == "JUMPI"
        assert line.ends_with_branch

    def test_terminator_ends_line(self):
        line = line_for("PUSH 1\nPOP\nSTOP\nADD")
        assert line.slots[-1].op.primary.op.name == "STOP"

    def test_context_switch_ends_line(self):
        # A line starting at the CALL itself must not run past it: the
        # context switch hands control to the callee.
        source = (
            "PUSH 0\nPUSH 0\nPUSH 0\nPUSH 0\nPUSH 0\nPUSH 1\nGAS\n"
            "CALL\nPOP\nADD"
        )
        line = line_for(source, start_pc=13)
        assert [s.op.primary.op.name for s in line.slots] == ["CALL"]

    def test_jumpdest_starts_new_line(self):
        line = line_for("PUSH 1\nPOP\nlab:\nPUSH 2\nPOP")
        # Nothing at or past the JUMPDEST (pc 3) joins the first line.
        assert all(pc < 3 for pc in line.pcs)
        # A new line can be built at the JUMPDEST itself.
        line2 = line_for("PUSH 1\nPOP\nlab:\nPUSH 2\nPOP", start_pc=3)
        assert line2.slots[0].op.primary.op.name == "JUMPDEST"

    def test_unit_field_conflict_ends_line(self):
        # Three SLOADs: the storage unit has capacity 1.
        source = "PUSH 0\nSLOAD\nPUSH 1\nSLOAD\nPOP\nPOP"
        line = line_for(source)
        names = [s.op.primary.op.name for s in line.slots]
        assert names.count("SLOAD") == 1

    def test_undecodable_start_returns_none(self):
        program = build_program(assemble("PUSH2 0x1234"))
        assert build_line(0xC0DE, program, 1) is None  # inside the immediate

    def test_next_pc_recorded(self):
        line = line_for("PUSH 1\nPUSH 2\nADD\nSTOP")
        # The folded ADD and the STOP terminator both fit; next_pc points
        # past the terminator.
        assert line.next_pc == 6


class TestDependencies:
    def test_raw_without_forwarding_ends_line(self):
        # ADD's result feeds MUL; with forwarding off they cannot share.
        source = "PUSH 1\nPUSH 2\nADD\nPUSH 3\nMUL\nPOP"
        line = line_for(source, forwarding=False, folding=False)
        names = [s.op.primary.op.name for s in line.slots]
        assert "MUL" not in names

    def test_forwarding_allows_one_raw(self):
        source = "PUSH 1\nPUSH 2\nADD\nPUSH 3\nMUL\nPOP"
        line = line_for(source, forwarding=True, folding=True)
        names = [s.op.primary.op.name for s in line.slots]
        assert "ADD" in names and "MUL" in names
        mul_slot = [s for s in line.slots
                    if s.op.primary.op.name == "MUL"][0]
        assert mul_slot.forwarded_from is not None
        assert line.used_forward

    def test_second_raw_ends_line(self):
        # ADD -> MUL -> SUB: two RAWs in a row; only one forward allowed.
        source = (
            "PUSH 1\nPUSH 2\nADD\nPUSH 3\nMUL\nPUSH 4\nSUB\nPOP"
        )
        line = line_for(source)
        names = [s.op.primary.op.name for s in line.slots]
        assert "SUB" not in names

    def test_forwarding_requires_reconfigurable_units(self):
        # SLOAD (storage unit) result feeding ADD is not forwardable.
        source = "PUSH 0\nSLOAD\nPUSH 1\nADD\nPOP"
        line = line_for(source)
        names = [s.op.primary.op.name for s in line.slots]
        assert "ADD" not in names

    def test_folding_avoids_raw_entirely(self):
        # The paper's function-jump logic: PUSH4/EQ + PUSH2/JUMPI in one
        # line via folding plus one forward — "four cycles ... reduced to
        # one".
        source = "PUSH4 0xcc80f6f3\nEQ\nPUSH2 0x00b6\nJUMPI"
        line = line_for(source)
        assert line.orig_count == 4
        assert line.issued_count == 2


class TestLineAccounting:
    def test_gas_is_sum_of_constituents(self):
        source = "PUSH 1\nPUSH 2\nADD\nPUSH 0\nMSTORE"
        line = line_for(source)
        program = build_program(assemble(source))
        gas_at = {i.pc: i.op.gas for i in program.instructions}
        assert line.gas_static == sum(gas_at[pc] for pc in line.pcs)

    def test_pcs_cover_execution_order(self):
        line = line_for("PUSH 1\nPUSH 2\nADD\nPUSH 0\nMSTORE")
        # The folded MSTORE reads ADD's result (a memory-unit RAW that
        # cannot be forwarded), so the line holds the folded ADD only.
        assert line.pcs == (0, 2, 4)

    def test_single_instruction_line_not_cacheable(self):
        line = line_for("JUMPDEST\nSTOP", start_pc=0)
        # JUMPDEST then STOP is 2 instructions; craft a true single:
        single = line_for("STOP")
        assert not single.cacheable
        assert line.cacheable

    def test_unit_capacity_respected(self):
        suite = compile_suite()
        config = FillConfig()
        for artifact in suite.values():
            program = build_program(artifact.bytecode)
            for instr in program.instructions[:200]:
                line = build_line(1, program, instr.pc, config)
                if line is None:
                    continue
                counts = {}
                for slot in line.slots:
                    cat = slot.op.primary.op.category
                    counts[cat] = counts.get(cat, 0) + 1
                for cat, count in counts.items():
                    assert count <= config.capacity(cat)

    def test_at_most_one_forward_per_line(self):
        suite = compile_suite()
        for artifact in suite.values():
            program = build_program(artifact.bytecode)
            for instr in program.instructions[:200]:
                line = build_line(1, program, instr.pc)
                if line is None:
                    continue
                forwards = [
                    s for s in line.slots if s.forwarded_from is not None
                ]
                assert len(forwards) <= 1

    def test_lines_never_span_branches(self):
        suite = compile_suite()
        branch_names = {"JUMP", "JUMPI"}
        for artifact in suite.values():
            program = build_program(artifact.bytecode)
            for instr in program.instructions[:200]:
                line = build_line(1, program, instr.pc)
                if line is None:
                    continue
                for slot in line.slots[:-1]:
                    assert slot.op.primary.op.name not in branch_names

    def test_gas_invariant_over_suite(self):
        suite = compile_suite()
        for artifact in list(suite.values())[:4]:
            program = build_program(artifact.bytecode)
            gas_at = {i.pc: i.op.gas for i in program.instructions}
            for instr in program.instructions[:150]:
                line = build_line(1, program, instr.pc)
                if line is None:
                    continue
                assert line.gas_static == sum(
                    gas_at[pc] for pc in line.pcs
                )


class TestOptimizedViews:
    def test_from_instructions_filters(self):
        program = build_program(assemble("PUSH 1\nPUSH 2\nADD\nSTOP"))
        filtered = [i for i in program.instructions if i.op.name != "PUSH1"]
        view = CodeView(
            filtered, {i.pc: n for n, i in enumerate(filtered)}
        )
        assert build_line(7, view, 0) is None  # eliminated
        line = build_line(7, view, 4)  # the ADD
        assert line is not None
        assert line.pcs[0] == 4
