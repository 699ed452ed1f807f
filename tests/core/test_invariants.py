"""Cross-cutting invariants promised in DESIGN.md."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hotspot import HotspotOptimizer
from repro.core.mtpu import MTPUExecutor, PUConfig
from repro.core.mtpu.fill_unit import FillConfig, build_line
from repro.core.scheduler import run_spatial_temporal
from repro.evm import EVM, Tracer
from repro.evm.decoded import build_program
from repro.workload import all_entry_function_calls, generate_block


class TestConstantEliminationSoundness:
    """A pc classified constant must produce the *same value* on every
    execution — otherwise serving it from the Constants Table would be
    wrong (paper section 3.4.3)."""

    def test_eliminated_pcs_are_value_stable(self, deployment):
        optimizer = HotspotOptimizer(deployment.state)
        samples = all_entry_function_calls(deployment, "Dai", seed=70)
        optimizer.optimize_contract(
            deployment.address_of("Dai"), samples
        )
        eliminated = optimizer._eliminated_by_code.get(  # noqa: SLF001
            deployment.address_of("Dai"), set()
        )
        assert eliminated

        # Execute two *different* transfers and compare the values every
        # eliminated pc produced.
        observed: dict[tuple[int, int], set[int]] = {}
        for seed in (71, 72):
            txs = all_entry_function_calls(deployment, "Dai", seed=seed)
            state = deployment.state.copy()
            for tx in txs:
                tracer = Tracer()
                EVM(state, tracer=tracer).execute_transaction(tx)
                state.clear_journal()
                for step in tracer.steps:
                    key = (step.code_address, step.pc)
                    if key in eliminated and step.results:
                        observed.setdefault(key, set()).add(
                            step.results[0]
                        )
        assert observed
        for key, values in observed.items():
            assert len(values) == 1, (
                f"eliminated pc {key} produced varying values {values}"
            )


class TestDeterminism:
    def test_schedule_is_reproducible(self, deployment):
        block = generate_block(deployment, num_transactions=24, seed=73)
        makespans = []
        for _ in range(2):
            result = run_spatial_temporal(
                MTPUExecutor(deployment.state.copy(), num_pus=4,
                             pu_config=PUConfig()),
                block.transactions, block.dag_edges,
            )
            makespans.append(result.makespan_cycles)
        assert makespans[0] == makespans[1]

    def test_workload_generation_is_pure(self, deployment):
        digest = deployment.state.state_digest()
        generate_block(deployment, num_transactions=16, seed=74)
        assert deployment.state.state_digest() == digest


class TestFillUnitFuzz:
    @settings(max_examples=80, deadline=None)
    @given(st.binary(min_size=1, max_size=150), st.integers(0, 2**31))
    def test_lines_over_random_bytecode(self, code, seed):
        """Line invariants hold for arbitrary byte soup."""
        program = build_program(bytes(code))
        rng = random.Random(seed)
        candidates = [i.pc for i in program.instructions]
        if not candidates:
            return
        for pc in rng.sample(candidates, min(8, len(candidates))):
            line = build_line(1, program, pc)
            if line is None:
                continue
            pcs = line.pcs
            # PCs are strictly increasing and unique.
            assert list(pcs) == sorted(set(pcs))
            # The line starts where it claims to.
            assert line.start_pc == pcs[0] == pc
            # next_pc lies past every covered instruction.
            assert line.next_pc > pcs[-1]
            # Gas is the sum over covered instructions.
            gas_at = {
                i.pc: i.op.gas for i in program.instructions
            }
            assert line.gas_static == sum(gas_at[p] for p in pcs)
            # Issue count never exceeds original count.
            assert line.issued_count <= line.orig_count

    @settings(max_examples=40, deadline=None)
    @given(st.binary(min_size=1, max_size=100))
    def test_folding_toggle_preserves_coverage(self, code):
        """With and without folding, a line covers a prefix of the same
        instruction stream (folding may only extend/pack it)."""
        program = build_program(bytes(code))
        if not program.instructions:
            return
        pc = program.instructions[0].pc
        folded = build_line(1, program, pc, FillConfig(folding=True))
        unfolded = build_line(1, program, pc, FillConfig(folding=False))
        if folded is None or unfolded is None:
            return
        shorter = min(len(folded.pcs), len(unfolded.pcs))
        assert folded.pcs[:shorter] == unfolded.pcs[:shorter] or (
            # folding can absorb a PUSH the unfolded line stopped before
            set(unfolded.pcs).issubset(set(folded.pcs))
            or set(folded.pcs).issubset(set(unfolded.pcs))
        )
