"""Speculative (Block-STM-shaped) executor: equivalence under adversity.

The engine's contract is unconditional: whatever the interleaving of
speculation, aborts, injected PU faults, and retry exhaustion, the
committed receipts, logs, and ``state_digest()`` are bit-identical to
in-order sequential execution. The properties here drive the engine
through order-sensitive tight-balance workloads (order decides which
transfers fail), force mid-block aborts and worker faults through the
test hooks, and check the cost accounting the benchmark quotes —
including the Θ(L²/2) bound: a conflict chain of length L can cost at
most L(L-1)/2 aborts.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.state import WorldState
from repro.chain.transaction import Transaction
from repro.evm import EVM
from repro.evm.context import BlockContext
from repro.parallel.speculate import (
    ESTIMATE,
    MultiVersionStore,
    SpeculativeBlockExecutor,
)

ACCOUNTS = [0x900 + i for i in range(6)]

transfer_specs = st.lists(
    st.tuples(
        st.integers(0, len(ACCOUNTS) - 1),
        st.integers(0, len(ACCOUNTS) - 1),
        st.integers(1, 30),  # values can exceed tight balances → failures
    ),
    min_size=1,
    max_size=16,
)


def seed_state(balances) -> WorldState:
    state = WorldState()
    for account, balance in zip(ACCOUNTS, balances):
        state.set_balance(account, balance)
    state.clear_journal()
    return state


def make_txs(specs) -> list[Transaction]:
    nonces: dict[int, int] = {}
    txs = []
    for sender_idx, recipient_idx, value in specs:
        sender = ACCOUNTS[sender_idx]
        nonces[sender] = nonces.get(sender, 0) + 1
        txs.append(Transaction(
            sender=sender, to=ACCOUNTS[recipient_idx], value=value,
            nonce=nonces[sender], gas_limit=50_000,
        ))
    return txs


def sequential_reference(balances, txs):
    state = seed_state(balances)
    evm = EVM(state, block=BlockContext(height=1))
    receipts = [evm.execute_transaction(tx) for tx in txs]
    return receipts, state.state_digest()


def assert_identical(receipts, digest, result, state):
    assert [r.to_rlp() for r in receipts] == [
        r.to_rlp() for r in result.receipts
    ]
    assert [r.logs for r in receipts] == [r.logs for r in result.receipts]
    assert digest == state.state_digest()


class TestMultiVersionStore:
    def test_highest_lower_writer_wins(self):
        store = MultiVersionStore()
        store.record(1, {("a", 0): 10})
        store.record(3, {("a", 0): 30})
        assert store.view_below(2) == {("a", 0): 10}
        assert store.view_below(5) == {("a", 0): 30}
        assert store.view_below(1) == {}

    def test_estimates_shadow_but_never_surface(self):
        store = MultiVersionStore()
        store.record(1, {("a", 0): 10})
        store.record(2, {("a", 0): 20})
        store.mark_estimates(2)
        # The estimate hides tx2's value; readers above fall through to
        # the highest non-estimate writer below.
        assert store.view_below(4) == {("a", 0): 10}
        assert store.estimate_writers({("a", 0)}, 4) == {2}
        # A reader below the estimate writer is unaffected.
        assert store.estimate_writers({("a", 0)}, 2) == set()

    def test_re_record_clears_previous_keys(self):
        store = MultiVersionStore()
        store.record(1, {("a", 0): 10, ("b", 0): 1})
        store.record(1, {("a", 0): 11})
        assert store.view_below(2) == {("a", 0): 11}

    def test_clear_removes_a_writer_entirely(self):
        store = MultiVersionStore()
        store.record(1, {("a", 0): 10})
        store.clear(1)
        assert store.view_below(9) == {}
        assert store.estimate_writers({("a", 0)}, 9) == set()

    def test_estimate_sentinel_is_private(self):
        assert ESTIMATE is not None


@settings(max_examples=50, deadline=None)
@given(
    balances=st.lists(
        st.integers(1, 40),
        min_size=len(ACCOUNTS), max_size=len(ACCOUNTS),
    ),
    specs=transfer_specs,
)
def test_speculation_is_bit_identical_to_sequential(balances, specs):
    txs = make_txs(specs)
    receipts, digest = sequential_reference(balances, txs)
    state = seed_state(balances)
    with SpeculativeBlockExecutor(
        state, block=BlockContext(height=1), backend="serial"
    ) as executor:
        result = executor.execute_block(txs)
    assert_identical(receipts, digest, result, state)
    # Work accounting: every commit is one execution plus its aborts,
    # and a conflict chain of length L costs at most L(L-1)/2 aborts.
    count = len(txs)
    assert result.executions == count + result.aborts
    assert result.aborts <= count * (count - 1) // 2
    assert all(r is not None for r in result.artifacts)


@settings(max_examples=25, deadline=None)
@given(
    balances=st.lists(
        st.integers(1, 40),
        min_size=len(ACCOUNTS), max_size=len(ACCOUNTS),
    ),
    specs=transfer_specs,
    abort_index=st.integers(0, 15),
)
def test_forced_mid_block_aborts_never_diverge(
    balances, specs, abort_index
):
    """An adversarial validator that force-aborts one transaction's
    first two attempts changes cost, never output."""
    txs = make_txs(specs)
    receipts, digest = sequential_reference(balances, txs)
    state = seed_state(balances)
    with SpeculativeBlockExecutor(
        state, block=BlockContext(height=1), backend="serial",
        abort_hook=lambda i, attempts: i == abort_index and attempts < 2,
    ) as executor:
        result = executor.execute_block(txs)
    assert_identical(receipts, digest, result, state)
    if abort_index < len(txs):
        assert result.aborts >= 2


@settings(max_examples=25, deadline=None)
@given(
    balances=st.lists(
        st.integers(1, 40),
        min_size=len(ACCOUNTS), max_size=len(ACCOUNTS),
    ),
    specs=transfer_specs,
    fault_index=st.integers(0, 15),
)
def test_pu_faults_lose_work_not_correctness(balances, specs, fault_index):
    """A PU that dies mid-speculation (result discarded, attempt spent)
    is retried and the block still commits bit-identically."""
    txs = make_txs(specs)
    receipts, digest = sequential_reference(balances, txs)
    state = seed_state(balances)
    with SpeculativeBlockExecutor(
        state, block=BlockContext(height=1), backend="serial",
        fault_hook=lambda i, attempts: i == fault_index and attempts < 2,
    ) as executor:
        result = executor.execute_block(txs)
    assert_identical(receipts, digest, result, state)


@settings(max_examples=15, deadline=None)
@given(
    balances=st.lists(
        st.integers(1, 40),
        min_size=len(ACCOUNTS), max_size=len(ACCOUNTS),
    ),
    specs=transfer_specs,
)
def test_retry_exhaustion_falls_back_to_sequential(balances, specs):
    """A transaction aborted past ``max_retries`` trips the guaranteed
    fallback: plain in-order execution, same outputs, artifacts kept."""
    txs = make_txs(specs)
    receipts, digest = sequential_reference(balances, txs)
    state = seed_state(balances)
    with SpeculativeBlockExecutor(
        state, block=BlockContext(height=1), backend="serial",
        max_retries=2, abort_hook=lambda i, attempts: i == 0,
    ) as executor:
        result = executor.execute_block(txs)
    assert result.fell_back
    assert_identical(receipts, digest, result, state)
    # The fallback still captures every artifact (its receipts).
    assert all(r is not None for r in result.artifacts)


def test_process_backend_matches_serial_accounting():
    """The pool backend must produce byte-identical outputs *and*
    identical abort/retry accounting — the engine's decisions may not
    depend on where speculation physically ran."""
    from repro.workload.generator import generate_block

    gen = generate_block(num_transactions=24, seed=3)
    txs = gen.transactions
    base = gen.deployment.state
    receipts, digest = None, None
    accounting = {}
    for backend in ("serial", "process"):
        state = base.copy()
        with SpeculativeBlockExecutor(
            state, block=BlockContext(height=1), num_workers=2,
            backend=backend,
        ) as executor:
            result = executor.execute_block(txs)
        accounting[backend] = (
            result.executions, result.aborts, result.rounds,
            result.validations,
        )
        if receipts is None:
            receipts, digest = result.receipts, state.state_digest()
        else:
            assert [r.to_rlp() for r in receipts] == [
                r.to_rlp() for r in result.receipts
            ]
            assert digest == state.state_digest()
    assert accounting["serial"] == accounting["process"]


def test_dynamic_block_without_declared_sets_commits_identically():
    """The headline path: calldata-derived storage keys, no access sets
    anywhere, bit-identical commit — wherever speculation physically ran."""
    from repro.workload import generate_dynamic_block

    block = generate_dynamic_block(num_transactions=24, seed=11)
    state = block.deployment.state.copy()
    evm = EVM(state, block=BlockContext(height=1))
    receipts = [evm.execute_transaction(tx) for tx in block.transactions]
    digest = state.state_digest()

    accounting = set()
    for backend in ("serial", "process"):
        occ_state = block.deployment.state.copy()
        with SpeculativeBlockExecutor(
            occ_state, block=BlockContext(height=1), backend=backend
        ) as executor:
            result = executor.execute_block(block.transactions)
        assert result.backend == backend  # the pool really ran it
        assert_identical(receipts, digest, result, occ_state)
        assert result.aborts > 0  # the workload genuinely conflicts
        accounting.add((result.executions, result.aborts, result.rounds,
                        result.validations))
    assert len(accounting) == 1  # abort decisions do not depend on where


def test_node_execute_block_occ_commits():
    """End-to-end node path: propose without discovery, execute and
    commit through the speculative engine."""
    from repro.chain.node import Node
    from repro.workload import generate_dynamic_block

    block_gen = generate_dynamic_block(num_transactions=12, seed=5)
    node = Node(state=block_gen.deployment.state.copy())
    for tx in block_gen.transactions:
        node.hear(tx)
    block = node.propose_block(
        max_transactions=12, executor="occ"
    )
    assert block.artifacts is None  # no discovery ran
    receipts = node.execute_block(block, executor="occ")
    assert len(receipts) == len(block.transactions)
    assert node.chain[-1] is block


class TestEngineEdges:
    def test_invalid_backend_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            SpeculativeBlockExecutor(WorldState(), backend="threads")

    def test_custom_blockhash_degrades_process_to_serial(self):
        context = BlockContext(height=5, blockhash_fn=lambda h: h + 1)
        executor = SpeculativeBlockExecutor(
            WorldState(), block=context, backend="process"
        )
        assert executor.backend == "serial"

    def test_warm_is_a_noop_on_the_serial_backend(self):
        executor = SpeculativeBlockExecutor(WorldState(), backend="serial")
        executor.warm()
        assert executor._pool is None

    def test_empty_block_commits_nothing(self):
        state = seed_state([10] * len(ACCOUNTS))
        with SpeculativeBlockExecutor(state, backend="serial") as executor:
            result = executor.execute_block([])
        assert result.receipts == []
        assert result.executions == 0
        assert result.tx_per_second == 0.0

    def test_selfdestruct_switches_off_the_pool_base(self):
        """A committed SELFDESTRUCT invalidates the workers' pristine
        base (overlays cannot express deletion): the engine finishes
        the block inline and marks the pool dirty — outputs still
        bit-identical to sequential."""
        from repro.contracts.asm import assemble

        destructor = 0xDEAD
        balances = [50] * len(ACCOUNTS)

        def build_state():
            state = seed_state(balances)
            state.set_code(
                destructor, assemble("PUSH 0xb0b\nSELFDESTRUCT")
            )
            state.clear_journal()
            return state

        txs = [
            Transaction(sender=ACCOUNTS[0], to=destructor, value=3,
                        nonce=1, gas_limit=100_000),
            Transaction(sender=ACCOUNTS[1], to=ACCOUNTS[2], value=5,
                        nonce=1, gas_limit=50_000),
        ]
        ref_state = build_state()
        evm = EVM(ref_state, block=BlockContext(height=1))
        receipts = [evm.execute_transaction(tx) for tx in txs]
        digest = ref_state.state_digest()

        state = build_state()
        with SpeculativeBlockExecutor(
            state, block=BlockContext(height=1), num_workers=2,
            backend="process",
        ) as executor:
            result = executor.execute_block(txs)
            assert executor._pool_dirty
        assert_identical(receipts, digest, result, state)

    def test_metrics_flow_through_the_registry(self):
        from repro.obs import use_registry

        balances = [30] * len(ACCOUNTS)
        txs = make_txs([(0, 1, 5), (1, 2, 5), (2, 3, 5)])
        state = seed_state(balances)
        with use_registry() as registry:
            with SpeculativeBlockExecutor(
                state, backend="serial"
            ) as executor:
                result = executor.execute_block(txs)
            counters = registry.counters_flat()
        assert counters["speculate.executions"] == result.executions
        assert counters["speculate.validations"] == result.validations
        # Wall-clock series are gauges: excluded from the deterministic
        # counter snapshot (the golden fixture depends on this).
        assert "speculate.wall_tps" not in counters
        assert registry.gauge("speculate.workers").value >= 1
        assert result.tx_per_second > 0.0
