"""One decode per code blob.

Everything that runs or models a contract reads the code's one
:class:`~repro.evm.decoded.DecodedProgram`: the EVM's two loops, the MTPU
fill unit on every PU, the hotspot optimizer's views and the profiler. A
content is decoded at most twice — the eager pass that builds the entries
and jump destinations, and the lazy ``instructions`` phase — however many
PUs, blocks or profiled samples read it.

A pass is counted where it cannot be imported around: every decode of a
non-empty code blob constructs an ``Instruction`` at pc 0.
"""

from __future__ import annotations

import random

import pytest

from repro.chain.node import Node
from repro.core.mtpu.pu import PU
from repro.evm.code import Instruction
from repro.evm.decoded import DECODE_CACHE
from repro.workload import ActionLibrary

TXS_PER_BLOCK = 64
CONTRACTS = ("Dai", "TetherToken")


def run_blocks(deployment, monkeypatch, num_pus, num_blocks):
    """Run *num_blocks* Dai/TetherToken blocks on the ``mtpu`` engine
    (hotspot loop on) from a cold decode cache. Returns the node, the
    decode passes made and the views installed on PUs."""
    passes = []
    installed = []
    construct = Instruction.__init__
    install = PU.install_code_view

    def counting(self, pc, *args, **kwargs):
        if pc == 0:
            passes.append(pc)
        construct(self, pc, *args, **kwargs)

    def recording(self, code_address, view):
        installed.append((code_address, view))
        install(self, code_address, view)

    DECODE_CACHE.clear()
    monkeypatch.setattr(Instruction, "__init__", counting)
    monkeypatch.setattr(PU, "install_code_view", recording)
    node = Node(state=deployment.state.copy())
    library = ActionLibrary(deployment, random.Random(31))
    for _ in range(num_blocks):
        for i in range(TXS_PER_BLOCK):
            plan = library.plan(CONTRACTS[i % len(CONTRACTS)])
            node.hear(library.to_transaction(plan))
        block = node.propose_block(executor="mtpu")
        receipts = node.execute_block(
            block, executor="mtpu", num_workers=num_pus
        )
        assert len(receipts) == TXS_PER_BLOCK
    monkeypatch.undo()
    return node, passes, installed


@pytest.mark.parametrize("num_pus, num_blocks", [(4, 6), (2, 3)])
def test_each_code_content_is_decoded_at_most_twice(
    deployment, monkeypatch, num_pus, num_blocks
):
    node, passes, installed = run_blocks(
        deployment, monkeypatch, num_pus, num_blocks
    )
    optimizer = node.hotspots.optimizer
    assert optimizer.hotspot_addresses  # the profiler ran
    assert optimizer.contract_table.entries()
    assert installed  # and the fill unit packed from its views
    assert len(DECODE_CACHE) == len(CONTRACTS)
    assert len(passes) <= 2 * len(DECODE_CACHE)


def test_an_installed_view_is_the_programs_own_instructions(
    deployment, monkeypatch
):
    node, _, installed = run_blocks(deployment, monkeypatch, 4, 3)
    optimizer = node.hotspots.optimizer
    assert installed
    for code_address, view in installed:
        assert view is optimizer.code_view(code_address)
        program = DECODE_CACHE.get(node.state.get_code(code_address))
        eliminated = optimizer._eliminated_by_code[code_address]  # noqa: SLF001
        assert eliminated
        kept = [
            ins for ins in program.instructions
            if (code_address, ins.pc) not in eliminated
        ]
        assert len(view.instructions) == len(kept)
        assert len(kept) < len(program.instructions)
        assert all(a is b for a, b in zip(view.instructions, kept))
        assert view.index_of_pc == {
            ins.pc: i for i, ins in enumerate(kept)
        }
