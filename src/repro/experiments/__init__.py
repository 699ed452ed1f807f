"""Paper-experiment harness: one module per table/figure.

Each function returns an :class:`~repro.experiments.common.ExperimentResult`
carrying the regenerated rows, a rendered text table and, where the paper
published numbers, the reference values for side-by-side comparison.

>>> from repro.experiments import fig12_ilp_ablation
>>> result = fig12_ilp_ablation()
>>> print(result.render())  # doctest: +SKIP
"""

from .common import ExperimentResult
from .motivation import (
    fig2_consensus,
    table1_ethereum_stats,
    table2_bytecode_share,
    table6_instruction_mix,
)
from .ilp import fig12_ilp_ablation, fig13_cache_hit_ratio, table7_ipc
from .scheduling import (
    fig14_scheduling_speedup,
    fig15_utilization,
    fig16_redundancy_hotspot,
)
from .comparison import (
    headline_speedup,
    table5_area,
    table8_bpu_erc20,
    table9_bpu_parallel,
)
from .ablations import (
    ablation_pu_scaling,
    ablation_selection_overhead,
    ablation_state_buffer,
    ablation_unit_capacity,
    ablation_window_size,
)
from .perf import (
    measure_block,
    measure_engines,
)

__all__ = [
    "ExperimentResult",
    "fig2_consensus",
    "table1_ethereum_stats",
    "table2_bytecode_share",
    "table6_instruction_mix",
    "fig12_ilp_ablation",
    "fig13_cache_hit_ratio",
    "table7_ipc",
    "fig14_scheduling_speedup",
    "fig15_utilization",
    "fig16_redundancy_hotspot",
    "headline_speedup",
    "table5_area",
    "table8_bpu_erc20",
    "table9_bpu_parallel",
    "ablation_pu_scaling",
    "ablation_selection_overhead",
    "ablation_state_buffer",
    "ablation_unit_capacity",
    "ablation_window_size",
    "measure_block",
    "measure_engines",
]
