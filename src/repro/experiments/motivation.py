"""Motivation/background experiments: Tables 1, 2, 6 and Fig. 2."""

from __future__ import annotations

from ..analysis.bytecode_share import measure_bytecode_share
from ..analysis.instruction_mix import CATEGORY_ORDER, instruction_mix
from ..chain.node import walk_in_order
from ..workload import all_entry_function_calls, generate_block
from ..workload.ethereum_stats import (
    CONSENSUS_THROUGHPUT_TPS,
    PAPER_TABLE1,
    BlockIntervalModel,
    sct_execution_overhead,
)
from .common import (
    CONTRACT_ABBREVIATIONS,
    ExperimentResult,
    shared_deployment,
)


def table1_ethereum_stats(seed: int = 0) -> ExperimentResult:
    """Table 1: SCT execution-overhead column derived from measured costs.

    The daily-transaction and SCT-proportion rows are Etherscan
    observations (inputs); the overhead row is re-derived from the
    SCT:transfer cost ratio measured on our substrate (per-transaction
    cycles including context construction).
    """
    deployment = shared_deployment()
    # Measure average SCT work vs plain-transfer work in *gas* — the
    # protocol's own execution-work measure (a plain transfer performs
    # real work the cycle model attributes to fixed logic: signature
    # checks, nonce/balance updates, trie writes — all priced into its
    # 21000-gas intrinsic cost).
    sct_block = generate_block(
        deployment, num_transactions=40, seed=seed, sct_fraction=1.0
    )
    transfer_block = generate_block(
        deployment, num_transactions=40, seed=seed + 1, sct_fraction=0.0
    )

    def average_gas(block) -> float:
        gas = [
            receipt.gas_used for receipt in walk_in_order(
                deployment.state.copy(), block.transactions
            )
        ]
        return sum(gas) / len(gas)

    sct_cost = average_gas(sct_block)
    transfer_cost = average_gas(transfer_block)

    headers = ["Year", "Daily Transactions", "SCT share",
               "Overhead (ours)", "Overhead (paper)"]
    rows = []
    for year, (daily, share, paper_overhead) in sorted(
        PAPER_TABLE1.items()
    ):
        ours = sct_execution_overhead(share, sct_cost, transfer_cost)
        rows.append([year, daily, f"{100 * share:.2f}%",
                     f"{100 * ours:.2f}%", f"{100 * paper_overhead:.2f}%"])
    return ExperimentResult(
        experiment_id="Table 1",
        title="Ethereum statistics 2017-2021 (overhead column derived)",
        headers=headers,
        rows=rows,
        notes=(
            f"measured SCT cost {sct_cost:.0f} gas vs transfer "
            f"{transfer_cost:.0f} gas (ratio {sct_cost/transfer_cost:.1f}x)"
        ),
        paper_reference={"overhead": {y: v[2] for y, v in
                                      PAPER_TABLE1.items()}},
    )


def fig2_consensus(blocks: int = 3000, seed: int = 0) -> ExperimentResult:
    """Fig. 2: (a) block-interval stability, (b) consensus throughput."""
    model = BlockIntervalModel(target_interval=13.0)
    intervals = model.simulate(blocks, seed=seed)
    quarter = blocks // 4
    quarters = [
        sum(intervals[i * quarter : (i + 1) * quarter]) / quarter
        for i in range(4)
    ]
    rows = [
        [f"interval (quarter {i + 1})", f"{q:.2f}s"]
        for i, q in enumerate(quarters)
    ]
    rows.append(["interval (target)", "13.00s"])
    rows.append(["---", "---"])
    for algorithm, tps in CONSENSUS_THROUGHPUT_TPS.items():
        rows.append([algorithm, f"{tps} TPS"])
    return ExperimentResult(
        experiment_id="Fig. 2",
        title="(a) block generation interval stays constant; "
              "(b) consensus-algorithm throughput",
        headers=["quantity", "value"],
        rows=rows,
        notes="(b) is survey data from the paper's references [18, 20]",
    )


def table2_bytecode_share(seed: int = 0) -> ExperimentResult:
    """Table 2: bytecode share of loaded context data."""
    deployment = shared_deployment()
    # The paper's four rows: Tether.transfer, WETH9.withdraw,
    # CryptoCat.createSaleAuction, Ballot.vote.
    picks = [
        ("TetherToken", "transfer"),
        ("WETH9", "withdraw"),
        ("CryptoCat", "createSaleAuction"),
        ("Ballot", "vote"),
    ]
    paper = {
        ("TetherToken", "transfer"): 0.9272,
        ("WETH9", "withdraw"): 0.9074,
        ("CryptoCat", "createSaleAuction"): 0.9533,
        ("Ballot", "vote"): 0.8599,
    }
    headers = ["Contract", "Function", "Bytecode B", "Other B",
               "Bytecode % (ours)", "Bytecode % (paper)"]
    rows = []
    for contract, function in picks:
        txs = all_entry_function_calls(deployment, contract, seed=seed)
        tx = next(
            t for t in txs if t.tags["signature"].startswith(function)
        )
        share = measure_bytecode_share(deployment, tx)
        rows.append([
            contract, function, share.bytecode_bytes, share.other_bytes,
            f"{100 * share.bytecode_fraction:.2f}%",
            f"{100 * paper[(contract, function)]:.2f}%",
        ])
    return ExperimentResult(
        experiment_id="Table 2",
        title="Bytecode share of loaded context data",
        headers=headers,
        rows=rows,
        paper_reference={"share": paper},
    )


#: Paper Table 6 averages per category (for the comparison column).
PAPER_TABLE6_AVG = {
    "Arithmetic": 0.0888, "Logic": 0.0886, "SHA": 0.0056,
    "Fixed access": 0.0328, "State query": 0.0012, "Memory": 0.0682,
    "Storage": 0.0120, "Branch": 0.0581, "Stack": 0.6224,
    "Control": 0.0206, "Context switching": 0.0016,
}


def table6_instruction_mix(
    per_function: int = 2, seed: int = 0, workload: str = "coverage"
) -> ExperimentResult:
    """Table 6: dynamic instruction-category mix of the TOP8 contracts.

    ``workload="coverage"`` exercises every entry function uniformly;
    ``workload="traffic"`` samples the realistic action mix (transfer-
    dominated, like the paper's real blocks).
    """
    import random as _random

    from ..workload import ActionLibrary

    deployment = shared_deployment()
    library = ActionLibrary(deployment, _random.Random(seed))
    headers = ["Smart Contract"] + [c.value for c in CATEGORY_ORDER]
    rows = []
    sums = {c: 0.0 for c in CATEGORY_ORDER}
    for name, label in CONTRACT_ABBREVIATIONS.items():
        if workload == "traffic":
            txs = [
                library.to_transaction(library.plan(name))
                for _ in range(12 * per_function)
            ]
        else:
            txs = all_entry_function_calls(
                deployment, name, seed=seed, per_function=per_function
            )
        mix = instruction_mix(deployment, txs)
        rows.append(
            [label] + [f"{100 * mix[c]:.2f}%" for c in CATEGORY_ORDER]
        )
        for category in CATEGORY_ORDER:
            sums[category] += mix[category]
    count = len(CONTRACT_ABBREVIATIONS)
    rows.append(
        ["Avg (ours)"]
        + [f"{100 * sums[c] / count:.2f}%" for c in CATEGORY_ORDER]
    )
    rows.append(
        ["Avg (paper)"]
        + [f"{100 * PAPER_TABLE6_AVG[c.value]:.2f}%"
           for c in CATEGORY_ORDER]
    )
    return ExperimentResult(
        experiment_id="Table 6",
        title="Instruction breakdown of the TOP8 smart contracts "
              f"({workload} workload)",
        headers=headers,
        rows=rows,
        notes="known delta vs paper: our compiler keeps locals in MEM "
              "(MLOAD/MSTORE) where solc keeps them on the stack "
              "(DUP/SWAP), shifting ~10pp from Stack to Memory; "
              "overflow checks appear as Logic instead of solc's "
              "Arithmetic-heavy SafeMath",
        paper_reference={"avg": PAPER_TABLE6_AVG},
    )
