"""Blockchain substrate: state, transactions, blocks, and the three-stage
dissemination → consensus → execution node model (paper Fig. 4)."""

from .account import Account
from .state import AccessSet, WorldState
from .transaction import Transaction
from .receipt import LogEntry, Receipt
from .block import Block, BlockHeader
from .bloom import AccessBloom, bloom_for_transaction
from .mempool import (
    AdmissionError,
    DuplicateTransactionError,
    InsufficientFundsError,
    IntrinsicGasError,
    Mempool,
    PackedTake,
    PackingPolicy,
    SenderLimitError,
)


def __getattr__(name: str):
    # Node/StageClock are imported lazily: repro.chain.node depends on
    # repro.evm, which itself imports repro.chain.receipt — a cycle if
    # resolved eagerly at package-init time.
    if name in ("Node", "StageClock", "BlockVerification"):
        from . import node

        return getattr(node, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "Account",
    "AccessBloom",
    "AccessSet",
    "AdmissionError",
    "bloom_for_transaction",
    "WorldState",
    "Transaction",
    "LogEntry",
    "Receipt",
    "Block",
    "BlockHeader",
    "BlockVerification",
    "DuplicateTransactionError",
    "InsufficientFundsError",
    "IntrinsicGasError",
    "Mempool",
    "Node",
    "PackedTake",
    "PackingPolicy",
    "SenderLimitError",
    "StageClock",
]
