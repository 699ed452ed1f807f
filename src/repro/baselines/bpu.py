"""BPU: the Blockchain Processing Unit comparator (Lu & Peng, DAC'20).

Substitution note (DESIGN.md): BPU is closed-source; the paper compares
against it in Tables 8–9. BPU's published structure is two engines — a
GSC (general smart contract) engine and an App engine specialized for
ERC20 dataflow. Table 8's BPU column is reproduced to <3% by the Amdahl
model

    speedup(p) = 1 / ((1 - p) + p / alpha),   alpha ≈ 12.82

(p = ERC20 transaction share), which is what this module implements. The
GSC engine's absolute per-transaction cost is proxied by our baseline PU
(no DB cache, no reuse), making BPU and MTPU numbers directly comparable
against the same 1× reference, as in the paper.

For multi-core (Table 9) BPU schedules rounds synchronously — it has no
fine-grained transaction scheduler — so its parallel composition is
barrier-limited by the dependency DAG.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..chain.transaction import Transaction
from ..core.mtpu.processor import MTPUExecutor
from ..core.mtpu.pu import PUConfig
from ..core.scheduler.composite_dag import CompositeDAG

#: App-engine speedup on ERC20 transactions, calibrated from paper
#: Table 8 (100% ERC20, single core => 12.82x).
DEFAULT_APP_ENGINE_ALPHA = 12.82


def measure_gsc_costs(artifacts: list) -> list[int]:
    """Per-transaction cycles on the GSC-engine proxy (baseline PU) of
    a block's traced *artifacts*, in block order."""
    executor = MTPUExecutor(
        artifacts,
        num_pus=1,
        pu_config=PUConfig(enable_db_cache=False, redundancy_reuse=False),
    )
    pu = executor.pus[0]
    return [
        executor.time_on(pu, index).cycles
        for index in range(len(artifacts))
    ]


@dataclass
class BPUModel:
    """The two-engine BPU performance model."""

    app_engine_alpha: float = DEFAULT_APP_ENGINE_ALPHA

    def tx_cycles(self, tx: Transaction, gsc_cycles: int) -> float:
        """Cycles for one transaction: App engine for ERC20, else GSC."""
        if tx.tags.get("is_erc20"):
            return gsc_cycles / self.app_engine_alpha
        return float(gsc_cycles)

    def run_single_core(
        self, transactions: list[Transaction], gsc_costs: list[int]
    ) -> float:
        """Sequential single-core execution time (cycles)."""
        return sum(
            self.tx_cycles(tx, cost)
            for tx, cost in zip(transactions, gsc_costs)
        )

    def run_parallel(
        self,
        transactions: list[Transaction],
        gsc_costs: list[int],
        edges: list[tuple[int, int]],
        cores: int = 4,
    ) -> float:
        """Synchronous (barrier-round) multi-core execution time."""
        dag = CompositeDAG(transactions, edges)
        makespan = 0.0
        while not dag.done:
            ready = dag.ready_transactions()[:cores]
            if not ready:
                raise RuntimeError("BPU parallel driver stalled")
            round_cycles = 0.0
            for tx_index in ready:
                dag.start(tx_index)
                round_cycles = max(
                    round_cycles,
                    self.tx_cycles(
                        transactions[tx_index], gsc_costs[tx_index]
                    ),
                )
            for tx_index in ready:
                dag.complete(tx_index)
            makespan += round_cycles
        return makespan

    @staticmethod
    def analytic_single_core_speedup(
        erc20_fraction: float, alpha: float = DEFAULT_APP_ENGINE_ALPHA
    ) -> float:
        """The closed-form Amdahl speedup (paper Table 8's BPU row)."""
        return 1.0 / ((1.0 - erc20_fraction) + erc20_fraction / alpha)
