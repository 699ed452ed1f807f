"""Metric invariants: instrumentation must agree with ground truth.

Every counter the observability layer publishes is redundant with some
piece of ground truth (component stats, receipts, scheduler bookkeeping).
This suite pins the cross-checks:

* DB cache: ``db_cache.lookups == db_cache.hits + db_cache.misses``,
  per PU and in total, and the registry series equal the cache's own
  :class:`~repro.core.mtpu.db_cache.CacheStats`.
* Scheduler: every admitted transaction either commits or aborts.
* Per-PU issued instructions sum to the interpreter's executed
  instructions (both sides count every executed trace step).
* :class:`~repro.obs.BlockPerfReport` round-trips exactly through JSON.

Each invariant runs with instrumentation enabled and the block's results
are asserted identical with it disabled — the null registry really is
free *and* inert.
"""

from __future__ import annotations

import pytest

from repro.core.mtpu import MTPUExecutor, PUConfig
from repro.core.scheduler import run_spatial_temporal
from repro.faults import PU_DEAD, FaultInjector, FaultPlan, PUFault
from repro.obs import NULL_REGISTRY, BlockPerfReport, get_registry, use_registry
from repro.workload import generate_dependency_block
from repro.experiments.common import trace_once


@pytest.fixture(scope="module")
def block():
    # Generated outside any registry scope: access discovery runs the
    # EVM and must not pollute the counters under test.
    return generate_dependency_block(
        num_transactions=24, target_ratio=0.4, seed=31
    )


def run_instrumented(block, num_pus=4, fault_injector=None):
    """Run *block* spatio-temporally inside a fresh registry scope."""
    with use_registry() as registry:
        executor = MTPUExecutor(
            trace_once(block.deployment.state, block.transactions),
            num_pus=num_pus,
            pu_config=PUConfig(),
        )
        schedule = run_spatial_temporal(
            executor, block.transactions, block.dag_edges,
            fault_injector=fault_injector,
        )
    return registry, executor, schedule


class TestCacheInvariants:
    def test_lookups_split_into_hits_and_misses(self, block):
        registry, executor, _ = run_instrumented(block)
        lookups = registry.total("db_cache.lookups")
        assert lookups > 0
        assert lookups == (
            registry.total("db_cache.hits")
            + registry.total("db_cache.misses")
        )

    def test_per_pu_series_match_cache_stats(self, block):
        registry, executor, _ = run_instrumented(block)
        for pu in executor.pus:
            stats = pu.db_cache.stats
            label = {"pu": pu.pu_id}
            assert registry.value("db_cache.hits", **label) == stats.hits
            assert (
                registry.value("db_cache.misses", **label) == stats.misses
            )
            assert (
                registry.value("db_cache.lookups", **label)
                == stats.accesses
                == stats.hits + stats.misses
            )


class TestSchedulerInvariants:
    def test_admitted_equals_commits_plus_aborts(self, block):
        registry, _, schedule = run_instrumented(block)
        stats = schedule.scheduler_stats
        assert stats["admitted"] == len(block.transactions)
        assert stats["admitted"] == stats["commits"] + stats["aborts"]
        assert registry.value("sched.admitted") == stats["admitted"]
        assert registry.value("sched.commits") == stats["commits"]
        assert registry.value("sched.aborts") == stats["aborts"]

    def test_holds_under_pu_faults(self, block):
        injector = FaultInjector(FaultPlan(
            pu_faults=(PUFault(pu_id=1, kind=PU_DEAD, at_cycle=50),),
        ))
        registry, _, schedule = run_instrumented(
            block, fault_injector=injector
        )
        stats = schedule.scheduler_stats
        # The aborted attempt re-runs on a survivor, so admissions
        # exceed the block size by exactly the abort count.
        assert stats["admitted"] == stats["commits"] + stats["aborts"]
        assert stats["commits"] == len(block.transactions)
        assert registry.value("sched.aborts") == stats["aborts"]


class TestInstructionInvariants:
    def test_pu_issued_equals_interpreter_executed(self, block):
        registry, executor, schedule = run_instrumented(block)
        per_pu = sum(
            registry.value("pu.instructions", pu=pu.pu_id)
            for pu in executor.pus
        )
        assert per_pu == registry.value("evm.instructions")
        assert per_pu == schedule.total_instructions

    def test_gas_matches_receipts(self, block):
        registry, _, schedule = run_instrumented(block)
        receipt_gas = sum(e.receipt.gas_used for e in schedule.executions)
        assert registry.value("evm.gas_used") == receipt_gas
        assert registry.value("evm.transactions") == len(
            schedule.executions
        )


class TestReportRoundTrip:
    def test_json_round_trip_is_exact(self, block):
        with use_registry() as registry:
            before = registry.counters_flat()
            executor = MTPUExecutor(
                trace_once(block.deployment.state, block.transactions),
                num_pus=4,
                pu_config=PUConfig(),
            )
            schedule = run_spatial_temporal(
                executor, block.transactions, block.dag_edges,
            )
            report = BlockPerfReport.from_execution(
                label="round-trip", schedule=schedule, executor=executor,
                counters_before=before,
            )
        restored = BlockPerfReport.from_json(report.to_json())
        assert restored == report
        assert restored.headline_speedup == report.headline_speedup
        assert restored.cache_hit_rate == report.cache_hit_rate
        assert report.num_transactions == len(block.transactions)
        assert report.opcode_categories  # the opcode mix made it in

    def test_report_defaults_round_trip(self):
        empty = BlockPerfReport()
        assert BlockPerfReport.from_json(empty.to_json()) == empty
        assert empty.headline_speedup == 0.0
        assert empty.p99_tx_cycles == 0.0


class TestDisabledInstrumentation:
    def test_disabled_run_records_nothing_and_matches(self, block):
        registry, _, instrumented = run_instrumented(block)

        assert get_registry() is NULL_REGISTRY
        executor = MTPUExecutor(
            trace_once(block.deployment.state, block.transactions),
            num_pus=4,
            pu_config=PUConfig(),
        )
        plain = run_spatial_temporal(
            executor, block.transactions, block.dag_edges,
        )

        # The null registry stayed empty...
        assert NULL_REGISTRY.counters_flat() == {}
        # ...and instrumentation changed no simulated result.
        assert plain.makespan_cycles == instrumented.makespan_cycles
        assert plain.total_instructions == instrumented.total_instructions
        assert [
            e.receipt for e in plain.executions
        ] == [e.receipt for e in instrumented.executions]

    def test_degradation_counters_shared_with_registry(self, block):
        from repro.faults import DegradationReport

        injector = FaultInjector(FaultPlan(
            pu_faults=(PUFault(pu_id=0, kind=PU_DEAD, at_cycle=50),),
        ))
        report = DegradationReport()
        with use_registry() as registry:
            executor = MTPUExecutor(
                trace_once(block.deployment.state, block.transactions),
                num_pus=4,
                pu_config=PUConfig(),
            )
            run_spatial_temporal(
                executor, block.transactions, block.dag_edges,
                fault_injector=injector, report=report,
            )
        assert report.pu_failures_detected == 1
        # One source of truth: the report's fields equal the faults.*
        # series it published through DegradationReport.count().
        assert DegradationReport.from_registry(registry) == report
