"""Shared experiment plumbing."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.reporting import format_table
from ..chain.dag import discover_access_sets
from ..contracts.registry import Deployment, build_deployment
from ..core.mtpu import MTPUExecutor, PUConfig

#: Contracts evaluated per-contract in the paper's section 4.2 (Table 6,
#: Fig. 12, Fig. 13, Table 7). Table abbreviations follow the paper
#: (FTP = FiatTokenProxy, UV2R02 = UniswapV2Router02,
#: MGP = MainchainGatewayProxy).
CONTRACT_ABBREVIATIONS = {
    "TetherToken": "Tether USD",
    "FiatTokenProxy": "FTP",
    "UniswapV2Router02": "UV2R02",
    "OpenSea": "OpenSea",
    "LinkToken": "LinkToken",
    "SwapRouter": "SwapRouter",
    "Dai": "Dai",
    "MainchainGatewayProxy": "MGP",
}

#: Table 7 order (differs slightly from Table 6 order).
TABLE7_ORDER = [
    "TetherToken", "FiatTokenProxy", "UniswapV2Router02", "OpenSea",
    "LinkToken", "SwapRouter", "Dai", "MainchainGatewayProxy",
]


@dataclass
class ExperimentResult:
    """One regenerated table/figure."""

    experiment_id: str  # e.g. "Table 7", "Fig. 13"
    title: str
    headers: list[str]
    rows: list[list]
    notes: str = ""
    #: Paper-reported values for the same cells, where published
    #: (free-form structure, used by EXPERIMENTS.md and tests).
    paper_reference: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-ready representation (for downstream plotting)."""
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "headers": list(self.headers),
            "rows": [list(row) for row in self.rows],
            "notes": self.notes,
        }

    def render(self) -> str:
        table = format_table(
            self.headers, self.rows,
            title=f"{self.experiment_id}: {self.title}",
        )
        if self.notes:
            table += "\n" + self.notes
        return table

    def column(self, header: str) -> list:
        """Extract one column by header name."""
        index = self.headers.index(header)
        return [row[index] for row in self.rows]

    def row_by_label(self, label) -> list:
        """Extract the row whose first cell equals *label*."""
        for row in self.rows:
            if row[0] == label:
                return row
        raise KeyError(label)


_SHARED_DEPLOYMENT: Deployment | None = None


def shared_deployment() -> Deployment:
    """A process-wide genesis deployment (read-only; copy its state)."""
    global _SHARED_DEPLOYMENT
    if _SHARED_DEPLOYMENT is None:
        _SHARED_DEPLOYMENT = build_deployment()
    return _SHARED_DEPLOYMENT


def trace_once(state, transactions) -> list:
    """*transactions* executed once, in order, on a copy of *state*,
    traced: the artifacts every MTPU configuration that times them
    shares."""
    return discover_access_sets(transactions, state.copy(), trace=True)


def single_pu_executor(artifacts: list, **config_kwargs) -> MTPUExecutor:
    """A fresh 1-PU executor over *artifacts*."""
    return MTPUExecutor(
        artifacts, num_pus=1, pu_config=PUConfig(**config_kwargs),
    )


def run_transactions(executor: MTPUExecutor) -> tuple[int, int]:
    """Time every transaction on PU0, in order; returns (cycles,
    instructions)."""
    pu = executor.pus[0]
    cycles = 0
    instructions = 0
    for index in range(len(executor.artifacts)):
        execution = executor.time_on(pu, index)
        cycles += execution.timing.cycles
        instructions += execution.instructions
    return cycles, instructions
