"""Detection + recovery tests for every fault class in the FaultPlan API.

Each class of injected fault must be (a) detected — visible in the
``faults.*`` / ``hotspot.*`` / ``mempool.*`` counters
(:class:`~repro.faults.DegradationReport.from_registry`) matching what
the :class:`~repro.faults.FaultInjector` actually injected — and (b)
recovered from: the surviving execution produces state and receipts
identical to honest sequential execution, and a block that cannot be
verified commits nothing. The verifying node is ``Node`` on the
``mtpu`` engine.
"""

from dataclasses import replace

import pytest

from repro.chain import (
    AdmissionError,
    InsufficientFundsError,
    IntrinsicGasError,
    Mempool,
    Node,
    Transaction,
)
from repro.chain.dag import (
    build_dag_edges,
    check_schedule_order,
    discover_access_sets,
    transitive_reduction,
    verify_dag,
)
from repro.chain.node import ReceiptsRootMismatchError
from repro.chain.receipt import receipts_root
from repro.core.mtpu import MTPUExecutor
from repro.core.scheduler import run_sequential, run_spatial_temporal
from repro.faults import (
    DagCorruption,
    DegradationReport,
    FaultInjector,
    FaultPlan,
    PUFault,
    PU_DEAD,
    PU_STALL,
    TxCorruption,
)
from repro.obs import use_registry
from repro.workload import generate_block


def make_node(deployment):
    return Node(state=deployment.state.copy())


def honest_block(deployment, node, num_transactions=24, seed=7):
    """Disseminate honest traffic into *node* and package a block."""
    generated = generate_block(
        deployment, num_transactions=num_transactions, seed=seed
    )
    for tx in generated.transactions:
        assert node.hear(tx)
    return node.propose_block(executor="mtpu")


def validate(node, block, claimed=None, fault_injector=None):
    """*block* on the ``mtpu`` engine under a registry of its own:
    the registry's ``faults.*`` view."""
    with use_registry() as registry:
        node.execute_block(
            block, executor="mtpu", fault_injector=fault_injector,
            claimed_receipts_root=claimed,
        )
    return DegradationReport.from_registry(registry)


def reference_root(deployment, block):
    """The honest claimed root: sequential execution on a fresh node."""
    node = Node(state=deployment.state.copy())
    return receipts_root(node.execute_block(block)), node.state


class TestInjectorDeterminism:
    def test_same_plan_same_seed_same_injection(self, deployment):
        block = generate_block(deployment, num_transactions=16, seed=3)
        access = discover_access_sets(
            block.transactions, deployment.state.copy()
        )
        edges = transitive_reduction(
            len(block.transactions),
            build_dag_edges(block.transactions, access),
        )
        plan = FaultPlan(
            seed=42,
            dag=DagCorruption(drop_edges=1, bogus_edges=2, make_cycle=True),
            corrupt_receipts_root=True,
            txs=TxCorruption(malformed=2, duplicates=1, underfunded=2),
        )
        runs = []
        for _ in range(2):
            injector = FaultInjector(plan)
            runs.append((
                injector.corrupt_dag(len(block.transactions), edges),
                injector.corrupt_root(b"\xaa" * 32),
                injector.hostile_transactions(list(block.transactions)),
                dict(injector.injected),
            ))
        assert runs[0] == runs[1]

    def test_different_seed_differs(self, deployment):
        block = generate_block(deployment, num_transactions=16, seed=3)
        txs = list(block.transactions)
        spec = TxCorruption(malformed=3, underfunded=3)
        a = FaultInjector(FaultPlan(seed=1, txs=spec))
        b = FaultInjector(FaultPlan(seed=2, txs=spec))
        assert a.hostile_transactions(txs) != b.hostile_transactions(txs)

    def test_empty_plan_injects_nothing(self):
        plan = FaultPlan(seed=0)
        assert plan.empty
        injector = FaultInjector(plan)
        assert injector.corrupt_dag(10, [(0, 1)]) == [(0, 1)]
        assert injector.corrupt_root(b"\x00" * 32) == b"\x00" * 32
        assert injector.hostile_transactions([]) == []
        assert injector.pu_faults(4) == {}
        assert not injector.injected


class TestDagCorruptionRecovery:
    """Fault class 1: corrupted block-embedded DAGs."""

    @pytest.mark.parametrize("spec", [
        DagCorruption(drop_edges=2),
        DagCorruption(bogus_edges=3),
        DagCorruption(make_cycle=True),
        DagCorruption(drop_edges=1, bogus_edges=1, make_cycle=True),
    ], ids=["dropped", "bogus", "cycle", "combined"])
    def test_detected_rebuilt_and_state_matches_sequential(
        self, deployment, spec
    ):
        node = make_node(deployment)
        block = honest_block(deployment, node, seed=11)
        claimed, reference_state = reference_root(deployment, block)

        injector = FaultInjector(FaultPlan(seed=5, dag=spec))
        corrupted = injector.corrupt_dag(
            len(block.transactions), block.dag_edges
        )
        assert sum(
            injector.injected[k] for k in
            ("dag_edge_dropped", "dag_edge_bogus", "dag_cycle")
        ) > 0
        # A copy is not the node's own proposal: the node discovers the
        # block itself and checks the shipped DAG against what it found.
        bad_block = replace(block, dag_edges=corrupted)

        report = validate(node, bad_block, claimed=claimed)
        assert node.chain == [bad_block]
        # Detection: one detected fault + one local rebuild.
        assert report.dag_faults_detected == 1
        assert report.dag_rebuilds == 1
        # Recovery: scheduling used the rebuilt DAG, so the final state
        # is exactly the sequential reference.
        assert (node.state.state_digest()
                == reference_state.state_digest())

    def test_honest_dag_passes_verification(self, deployment):
        node = make_node(deployment)
        block = honest_block(deployment, node, seed=12)
        claimed, _ = reference_root(deployment, block)
        report = validate(node, replace(block), claimed=claimed)
        assert len(node.chain) == 1
        assert report.dag_faults_detected == 0
        assert report.dag_rebuilds == 0

    def test_verify_dag_classifies_each_corruption(self, deployment):
        block = generate_block(deployment, num_transactions=20, seed=13)
        txs = block.transactions
        access = discover_access_sets(txs, deployment.state.copy())
        required = set(build_dag_edges(txs, access))
        edges = transitive_reduction(len(txs), sorted(required))
        assert edges, "need at least one dependency to corrupt"

        ok = verify_dag(len(txs), edges, required)
        assert ok.ok and ok.reason() == "ok"

        dropped = verify_dag(len(txs), edges[1:], required)
        assert not dropped.ok and dropped.missing_pairs

        i, j = edges[0]
        cyclic = verify_dag(len(txs), edges + [(j, i)], required)
        assert not cyclic.ok and cyclic.cyclic

        malformed = verify_dag(len(txs), edges + [(0, len(txs))], required)
        assert not malformed.ok and malformed.malformed_edges


class TestPUFailureRecovery:
    """Fault classes 2+3: permanent PU death and transient stalls."""

    def run_with_faults(self, deployment, faults, num_pus=4, seed=21):
        block = generate_block(
            deployment, num_transactions=24, seed=seed
        )
        txs = block.transactions
        artifacts = discover_access_sets(
            txs, deployment.state.copy(), trace=True
        )
        edges = transitive_reduction(
            len(txs), build_dag_edges(txs, artifacts)
        )
        injector = FaultInjector(FaultPlan(seed=seed, pu_faults=faults))
        report = DegradationReport()
        par = MTPUExecutor(artifacts, num_pus=num_pus)
        result = run_spatial_temporal(
            par, txs, edges, fault_injector=injector, report=report
        )
        # The audit a node runs on every block: no conflicting pair
        # swapped, every transaction timed once, faults or not.
        check_schedule_order(txs, artifacts, result.executions)
        seq = MTPUExecutor(artifacts, num_pus=1)
        run_sequential(seq, txs)
        return txs, injector, report, par, result, seq

    # Parallel makespan for these 24-tx blocks is ~3.5k-6.5k cycles, so
    # these strike points land before, during, and near the end of the
    # schedule.
    @pytest.mark.parametrize("at_cycle", [0, 1_000, 3_000])
    def test_dead_pu_state_identical_to_sequential(
        self, deployment, at_cycle
    ):
        faults = (PUFault(pu_id=1, kind=PU_DEAD, at_cycle=at_cycle),)
        txs, injector, report, par, result, seq = self.run_with_faults(
            deployment, faults, seed=21 + at_cycle
        )
        assert report.pu_failures_detected == injector.injected["pu_dead"]
        assert injector.injected["pu_dead"] == 1
        assert receipts_root(result.receipts_in_block_order(txs)) == (
            receipts_root(
                [e.receipt for e in seq.executions]
            )
        )

    def test_multiple_dead_pus_survivors_finish(self, deployment):
        faults = (
            PUFault(pu_id=0, kind=PU_DEAD, at_cycle=100),
            PUFault(pu_id=2, kind=PU_DEAD, at_cycle=800),
            PUFault(pu_id=3, kind=PU_DEAD, at_cycle=2_000),
        )
        txs, injector, report, par, result, seq = self.run_with_faults(
            deployment, faults, seed=33
        )
        assert report.pu_failures_detected == 3
        # All work landed on the lone survivor after the last death.
        assert len(result.executions) == len(txs)

    def test_stalled_pu_resumes_and_state_matches(self, deployment):
        faults = (
            PUFault(pu_id=1, kind=PU_STALL, at_cycle=1_000,
                    stall_cycles=5_000),
        )
        txs, injector, report, par, result, seq = self.run_with_faults(
            deployment, faults, seed=44
        )
        assert report.pu_stalls_detected == injector.injected["pu_stall"]
        assert report.pu_stalls_detected == 1
        assert report.recovery_cycles >= 5_000

    def test_midflight_failure_reschedules_transaction(self, deployment):
        # at_cycle deep inside the run: some PU will be mid-transaction.
        faults = (PUFault(pu_id=0, kind=PU_DEAD, at_cycle=1_500),)
        txs, injector, report, par, result, seq = self.run_with_faults(
            deployment, faults, seed=55
        )
        assert report.pu_failures_detected == 1
        # Every transaction still executed exactly once.
        assert len(result.executions) == len(txs)

    def test_all_pus_dead_is_an_error(self, deployment):
        faults = tuple(
            PUFault(pu_id=p, kind=PU_DEAD, at_cycle=0) for p in range(2)
        )
        with pytest.raises(RuntimeError, match="all PUs failed"):
            self.run_with_faults(deployment, faults, num_pus=2, seed=66)

    def test_validator_survives_pu_death(self, deployment):
        injector = FaultInjector(FaultPlan(
            seed=9,
            pu_faults=(PUFault(pu_id=3, kind=PU_DEAD, at_cycle=1_000),),
        ))
        node = make_node(deployment)
        block = honest_block(deployment, node, seed=77)
        claimed, reference_state = reference_root(deployment, block)
        report = validate(node, block, claimed, fault_injector=injector)
        assert len(node.chain) == 1
        assert report.pu_failures_detected == 1
        assert (node.state.state_digest()
                == reference_state.state_digest())


class TestWrongClaimedRoot:
    """Fault class 4: a consensus message claiming a bogus receipts root."""

    def test_fallback_reported_and_nothing_committed(self, deployment):
        node = make_node(deployment)
        before = node.state.state_digest()
        root_before = node.state_root
        block = honest_block(deployment, node, seed=88)
        claimed, _ = reference_root(deployment, block)

        injector = FaultInjector(FaultPlan(
            seed=3, corrupt_receipts_root=True
        ))
        bogus = injector.corrupt_root(claimed)
        assert bogus != claimed
        assert injector.injected["root_corrupted"] == 1

        pending_before = node.mempool.pending()
        # The claim is refused by type, naming both roots, and nothing
        # was committed: state and root are where the proposal found
        # them, chain and pool as they were.
        with pytest.raises(ReceiptsRootMismatchError) as refused:
            validate(node, block, claimed=bogus)
        assert (refused.value.claimed, refused.value.actual) == (
            bogus, claimed
        )
        assert node.state.state_digest() == before
        assert node.state_root == root_before
        assert node.chain == [] and node.receipts == {}
        assert node.mempool.pending() == pending_before

    def test_honest_root_commits_without_fallback(self, deployment):
        node = make_node(deployment)
        block = honest_block(deployment, node, seed=89)
        claimed, reference_state = reference_root(deployment, block)
        assert validate(node, block, claimed=claimed) == DegradationReport()
        assert len(node.chain) == 1
        assert (node.state.state_digest()
                == reference_state.state_digest())


class TestHostileTransactions:
    """Fault class 5: malformed / duplicate / underfunded dissemination."""

    def test_all_hostile_traffic_refused_and_counted(self, deployment):
        node = make_node(deployment)
        honest = generate_block(
            deployment, num_transactions=12, seed=14
        ).transactions
        for tx in honest:
            assert node.hear(tx)

        spec = TxCorruption(malformed=3, duplicates=2, underfunded=4)
        injector = FaultInjector(FaultPlan(seed=8, txs=spec))
        hostile = injector.hostile_transactions(list(honest))
        assert len(hostile) == 9
        with use_registry() as registry:
            for tx in hostile:
                try:
                    assert node.hear(tx) is False  # a gossiped duplicate
                except AdmissionError:
                    pass
        assert len(node.mempool) == len(honest)
        assert registry.total("mempool.rejections") == sum(
            injector.injected[k] for k in
            ("tx_malformed", "tx_duplicate", "tx_underfunded")
        )

        block = node.propose_block(executor="mtpu")
        claimed, _ = reference_root(deployment, block)
        validate(node, block, claimed=claimed)
        assert node.chain == [block]

    def test_typed_admission_errors(self, deployment):
        state = deployment.state.copy()
        pool = Mempool(state=state)
        with pytest.raises(IntrinsicGasError):
            pool.add(Transaction(sender=1, to=2, gas_limit=100))
        with pytest.raises(InsufficientFundsError):
            pool.add(Transaction(
                sender=0xBAD, to=2, gas_limit=100_000, value=5
            ))
        assert len(pool) == 0
        # A funded sender passes the same checks.
        funded = deployment.accounts[0]
        assert pool.add(Transaction(
            sender=funded, to=2, gas_limit=100_000, value=5
        ))

    def test_capacity_evicts_oldest_first(self):
        pool = Mempool(capacity=3)
        txs = [
            Transaction(sender=100 + n, to=1, gas_limit=50_000,
                        data=bytes([n]))
            for n in range(5)
        ]
        for tx in txs:
            pool.add(tx)
        assert len(pool) == 3
        assert pool.pending() == txs[2:]
        with pytest.raises(ValueError):
            Mempool(capacity=0)


class TestStaleProfiles:
    """Fault class 6: hotspot profiles invalidated after pre-execution."""

    def test_poisoned_profile_discarded_and_reprofiled(self, deployment):
        from repro.core.hotspot import HotspotOptimizer
        from repro.workload import all_entry_function_calls

        state = deployment.state.copy()
        dai = deployment.address_of("Dai")
        optimizer = HotspotOptimizer(state)
        samples = all_entry_function_calls(deployment, "Dai", seed=4)
        optimizer.optimize_contract(dai, samples)
        probe = samples[0]
        assert optimizer.plan_for(probe, state.get_code(dai)) is not None

        injector = FaultInjector(FaultPlan(seed=6, stale_profiles=(dai,)))
        poisoned = injector.poison_profiles(state)
        assert poisoned == [dai]
        assert injector.injected["stale_profile"] == 1

        # Detection: the recorded code hash no longer matches, so the
        # plan is discarded instead of trusted.
        with use_registry() as registry:
            assert optimizer.plan_for(probe, state.get_code(dai)) is None
        assert registry.total("hotspot.stale_plans") == 1
        # Evicted: the next idle slice profiles it afresh.
        assert dai not in optimizer.hotspot_addresses

        # Recovery: re-profiling against the new code revives the plan.
        optimizer.optimize_contract(dai, samples)
        assert optimizer.plan_for(probe, state.get_code(dai)) is not None

    def test_validator_counts_stale_plans(self, deployment):
        # Block 1 is the traffic; the idle slice at the top of block 2
        # profiles its hotspots. The reference node replays both (so the
        # height-3 context, e.g. BLOCKHASH, agrees).
        node = make_node(deployment)
        reference = Node(state=deployment.state.copy())
        for seed in (15, 16):
            block = honest_block(deployment, node, seed=seed)
            claimed = receipts_root(reference.execute_block(block))
            validate(node, block, claimed)
        hot = tuple(sorted(node.hotspots.optimizer.hotspot_addresses))
        assert hot, "the second block's idle slice should have profiled"

        # "Upgrade" every hot contract after it was profiled — on the
        # honest reference world (so the claimed root reflects the new
        # code) and on the node's own state (the fault site).
        plan = FaultPlan(seed=6, stale_profiles=hot)
        FaultInjector(plan).poison_profiles(reference.state)
        FaultInjector(plan).poison_profiles(node.state)

        next_block = honest_block(deployment, node, seed=17)
        claimed = receipts_root(reference.execute_block(next_block))
        with use_registry() as registry:
            node.execute_block(
                next_block, executor="mtpu", claimed_receipts_root=claimed
            )
        assert registry.total("hotspot.stale_plans") >= 1
        # The stale contracts the block called are evicted, so the next
        # idle slice may re-profile them against the new code.
        assert set(hot) - node.hotspots.optimizer.hotspot_addresses
        assert (node.state.state_digest()
                == reference.state.state_digest())


class TestNodeVerifyBlock:
    """Satellite: Node.verify_block must not commit on mismatch."""

    def test_mismatch_rolls_back_everything(self, deployment):
        node = Node(state=deployment.state.copy())
        txs = generate_block(
            deployment, num_transactions=10, seed=17
        ).transactions
        for tx in txs:
            node.hear(tx)
        # The proposal is applied until something commits or abandons
        # it: "everything" is where the proposal found the node.
        before = node.state.state_digest()
        block = node.propose_block()
        for tx in block.transactions:  # take() drained them; repool
            node.hear(tx)
        pending = len(node.mempool)

        verdict = node.verify_block(block, claimed_root=b"\x13" * 32)
        assert not verdict
        assert "mismatch" in verdict.detail
        assert node.state.state_digest() == before
        assert node.chain == []
        assert node.receipts == {}
        assert len(node.mempool) == pending

    def test_match_commits(self, deployment):
        node = Node(state=deployment.state.copy())
        txs = generate_block(
            deployment, num_transactions=10, seed=17
        ).transactions
        for tx in txs:
            node.hear(tx)
        block = node.propose_block()
        claimed, _ = reference_root(deployment, block)
        verdict = node.verify_block(block, claimed_root=claimed)
        assert verdict
        assert verdict.detail == "receipts root matches"
        assert len(node.chain) == 1
        assert block.hash() in node.receipts


class TestDegradationReport:
    def test_merge_and_nonzero_rendering(self):
        # Two runs counted into one registry: the registry is the sum.
        with use_registry() as registry:
            a = DegradationReport()
            a.count("dag_faults_detected")
            a.count("txs_rescheduled", 2)
            b = DegradationReport()
            b.count("dag_faults_detected")
        merged = DegradationReport.from_registry(registry)
        assert merged == DegradationReport(
            dag_faults_detected=2, txs_rescheduled=2
        )
        text = str(merged)
        assert "dag_faults_detected=2" in text
        assert "pu_failures_detected" not in text  # zero counters hidden

    def test_clean_report_is_quiet(self):
        clean = DegradationReport()
        assert not any(clean.as_dict().values())
        with use_registry() as registry:
            pass
        assert DegradationReport.from_registry(registry) == clean
        assert str(clean) == "DegradationReport(clean)"
