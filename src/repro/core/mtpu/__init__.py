"""MTPU microarchitecture: fill unit, DB cache, pipeline timing, memory
hierarchy, and the analytical area/power model."""

from .area import AreaReport, MTPUAreaConfig, bpu_equivalents, estimate_area
from .db_cache import CacheStats, DBCache
from .fill_unit import DBCacheLine, FillConfig, LineSlot, build_line
from .folding import FOLDABLE_CONSUMERS, FoldedOp, try_fold
from .memory import CallContractStack, ContextLoadModel, StateBuffer
from .processor import MTPUExecutor, TxExecution
from .pu import PU, PUConfig, TraceTiming
from .timing import DEFAULT_TIMING, TimingConfig

__all__ = [
    "AreaReport",
    "MTPUAreaConfig",
    "bpu_equivalents",
    "estimate_area",
    "CacheStats",
    "DBCache",
    "DBCacheLine",
    "FillConfig",
    "LineSlot",
    "build_line",
    "FOLDABLE_CONSUMERS",
    "FoldedOp",
    "try_fold",
    "CallContractStack",
    "ContextLoadModel",
    "StateBuffer",
    "MTPUExecutor",
    "TxExecution",
    "PU",
    "PUConfig",
    "TraceTiming",
    "DEFAULT_TIMING",
    "TimingConfig",
]
