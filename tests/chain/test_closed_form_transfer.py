"""The closed-form transfer path against the interpreter.

``discover_access_sets`` writes down the artifact of a transaction whose
target holds no code instead of running it (``repro.chain.transfer``).
Nothing selects that path but the input, so nothing but this suite keeps
it honest: every generated block is pre-executed twice — as shipped, and
with the predicate patched to refuse everything, which is the interpreter
path of the parent commit — and the two must agree artifact by artifact,
then root by root through every consumer of those artifacts. A gas or
fee rule edited in ``evm/`` and not in ``chain/transfer.py`` fails here.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain import Transaction, WorldState, dag
from repro.chain.node import Node
from repro.chain.receipt import receipts_root
from repro.chain.transfer import is_plain_transfer, transfer_access
from repro.contracts.asm import assemble
from repro.crypto import contract_address
from repro.evm.context import BlockContext
from repro.obs import use_registry
from repro.parallel import ParallelBlockExecutor
from repro.storage.codec import state_digest_bytes

COINBASE = 0xC0FFEE  # Node's default
RICH = [0xA000 + i for i in range(3)]
#: A few fees deep: whether a transfer goes through, and whether the fee
#: is paid in full, depends on what ran before it in the block.
POOR = [0xB000 + i for i in range(3)]
BROKE = 0xB0FF  # exists, balance 0
FRESH = [0xF000 + i for i in range(3)]  # no account record at genesis
COUNTER = 0xC0DE
DEPLOYER = 0xDE9
#: Where DEPLOYER's first create lands (the nonce is bumped before the
#: address is derived); code-free until that runs. DEPLOYER sends nothing
#: else, so a generated block's first deploy always lands here.
LATE_CODE = contract_address(DEPLOYER, 1)

_RUNTIME = assemble("PUSH 0\nSLOAD\nPUSH 1\nADD\nPUSH 0\nSSTORE\nSTOP")
_INIT = assemble(
    f"PUSH {int.from_bytes(_RUNTIME, 'big')}\nPUSH 0\nMSTORE\n"
    f"PUSH {len(_RUNTIME)}\nPUSH {32 - len(_RUNTIME)}\nRETURN"
)

PARTIES = RICH + POOR + [BROKE, COINBASE]
TARGETS = PARTIES + FRESH + [COUNTER, LATE_CODE]


def genesis(coinbase_funded=True):
    state = WorldState()
    for account in RICH + [DEPLOYER]:
        state.set_balance(account, 10**15)
    for account in POOR:
        state.set_balance(account, 70_000)
    state.set_balance(BROKE, 0)
    if coinbase_funded:
        state.set_balance(COINBASE, 10**9)
    state.set_code(COUNTER, _RUNTIME)
    state.clear_journal()
    return state


TX = st.builds(
    dict,
    sender=st.sampled_from(PARTIES),
    to=st.sampled_from(TARGETS),
    value=st.sampled_from([0, 0, 1, 20_000, 70_000, 10**9, 10**16]),
    # 21000 is the intrinsic cost of empty calldata: one below fails,
    # and calldata pushes the intrinsic cost past the tighter limits.
    gas_limit=st.sampled_from([20_999, 21_000, 21_200, 300_000]),
    gas_price=st.sampled_from([0, 1, 1, 3]),
    data=st.sampled_from([b"", b"", b"\x00", b"\x00\x01ab\x00\xff"]),
)
DEPLOY = st.just(dict(
    sender=DEPLOYER, to=None, data=_INIT, gas_limit=300_000, gas_price=1,
))
BLOCK = st.lists(st.one_of(TX, TX, TX, DEPLOY), min_size=1, max_size=12)


def build(specs):
    """Nonces only keep the hashes unique (the chain does not check them)."""
    return [
        Transaction(nonce=index, **spec) for index, spec in enumerate(specs)
    ]


def interpreter_only(monkeypatch_context):
    """Patch the predicate to refuse every transaction."""
    monkeypatch_context.setattr(dag, "is_plain_transfer", lambda tx, s: False)


def discover_both(txs, state, context):
    closed = dag.discover_access_sets(txs, state, context)
    with pytest.MonkeyPatch.context() as patch:
        interpreter_only(patch)
        reference = dag.discover_access_sets(txs, state, context)
    return closed, reference


def assert_same_artifacts(closed, reference):
    assert len(closed) == len(reference)
    for got, want in zip(closed, reference):
        assert got.tx is want.tx
        assert got.receipt == want.receipt, got.tx
        assert got.access.reads == want.access.reads, got.tx
        assert got.access.writes == want.access.writes, got.tx
        assert got.journal.ops == want.journal.ops, got.tx  # in order
        assert got.read_values == want.read_values, got.tx
        assert got.steps is None and want.steps is None
        assert got == want


# -- artifact by artifact ----------------------------------------------------
@settings(deadline=None)
@given(specs=BLOCK, coinbase_funded=st.booleans())
def test_artifacts_equal_the_interpreters(specs, coinbase_funded):
    txs = build(specs)
    state = genesis(coinbase_funded)
    before = state_digest_bytes(state)
    closed, reference = discover_both(
        txs, state, BlockContext(coinbase=COINBASE)
    )
    assert state_digest_bytes(state) == before  # reverted, as ever
    assert_same_artifacts(closed, reference)
    # Every edge the DAG builder draws is drawn from the same sets.
    assert dag.build_dag_edges(txs, closed) == dag.build_dag_edges(
        txs, reference
    )


def case(**fields):
    fields.setdefault("gas_limit", 21_000)
    return fields


#: The cases ISSUE 16 names, pinned so none depends on what hypothesis
#: happens to draw. Each is a whole block: order matters in several.
NAMED_CASES = {
    "zero value": [case(sender=RICH[0], to=RICH[1])],
    "value above balance": [case(sender=POOR[0], to=RICH[0], value=70_001)],
    "intrinsic gas above limit": [
        case(sender=RICH[0], to=RICH[1], value=1, gas_limit=20_999)],
    "calldata prices the limit out": [
        case(sender=RICH[0], to=RICH[1], data=b"\x01", gas_limit=21_000)],
    "gas price 0": [case(sender=RICH[0], to=RICH[1], value=5, gas_price=0)],
    "gas price 0, zero value, unfunded coinbase": [
        case(sender=RICH[0], to=RICH[1], gas_price=0)],
    "fee above what is left": [
        case(sender=POOR[0], to=RICH[0], value=60_000)],
    "fee above what is left, sender is coinbase": [
        case(sender=COINBASE, to=RICH[0], value=10**9 - 5)],
    "calldata to an EOA": [
        case(sender=RICH[0], to=RICH[1], value=3, data=b"\x00\x01ab",
             gas_limit=30_000)],
    "fresh recipient": [case(sender=RICH[0], to=FRESH[0], value=9)],
    "fresh recipient, zero value": [case(sender=RICH[0], to=FRESH[0])],
    "sender without an account": [case(sender=FRESH[1], to=RICH[0])],
    "broke sender": [case(sender=BROKE, to=RICH[0])],
    "self transfer": [case(sender=RICH[0], to=RICH[0], value=77)],
    "self transfer by a poor sender": [
        case(sender=POOR[0], to=POOR[0], value=69_000)],
    "sender is coinbase": [case(sender=COINBASE, to=RICH[0], value=4)],
    "recipient is coinbase": [case(sender=RICH[0], to=COINBASE, value=4)],
    "coinbase pays itself": [case(sender=COINBASE, to=COINBASE, value=4)],
    "same sender twice": [
        case(sender=POOR[1], to=FRESH[2], value=30_000),
        case(sender=POOR[1], to=FRESH[2], value=30_000)],
    "credit then spend": [
        case(sender=RICH[0], to=BROKE, value=50_000),
        case(sender=BROKE, to=FRESH[0], value=20_000)],
    "code deployed earlier in the block": [
        case(sender=RICH[0], to=LATE_CODE, value=2),
        dict(sender=DEPLOYER, to=None, data=_INIT, gas_limit=300_000),
        case(sender=RICH[0], to=LATE_CODE, value=2, gas_limit=100_000)],
    "call into code": [
        case(sender=RICH[0], to=COUNTER, value=1, gas_limit=100_000)],
}


@pytest.mark.parametrize("name", NAMED_CASES)
@pytest.mark.parametrize("coinbase_funded", [True, False])
def test_named_case(name, coinbase_funded):
    txs = build(NAMED_CASES[name])
    closed, reference = discover_both(
        txs, genesis(coinbase_funded), BlockContext(coinbase=COINBASE)
    )
    assert_same_artifacts(closed, reference)


def test_the_named_cases_are_what_they_say():
    """Pin the outcome each name promises, on the closed-form side."""
    def run(name):
        return dag.discover_access_sets(
            build(NAMED_CASES[name]), genesis(),
            BlockContext(coinbase=COINBASE),
        )

    [refused] = run("value above balance")
    assert refused.receipt.error == "insufficient balance for value"
    assert refused.receipt.gas_used == 21_000
    assert not refused.journal.ops  # no nonce bump, no fee
    assert not refused.reads and not refused.writes

    [under_gas] = run("intrinsic gas above limit")
    assert under_gas.receipt.error == "intrinsic gas exceeds limit"
    assert under_gas.receipt.gas_used == 20_999 and not under_gas.journal.ops

    [capped] = run("fee above what is left")
    assert capped.receipt.success
    assert ("balance", POOR[0], 0) in capped.journal.ops  # max(0, …)
    assert capped.journal.ops[-1] == ("balance_delta", COINBASE, 21_000)

    [own] = run("self transfer")
    assert own.writes == {(RICH[0], "balance")}
    assert own.journal.ops == [
        ("nonce", RICH[0], 1), ("balance", RICH[0], 10**15 - 21_000),
        ("balance_delta", COINBASE, 21_000),
    ]

    [idle] = run("zero value")
    assert idle.reads == {(RICH[1], "code")} and not idle.writes


def test_a_target_with_code_takes_the_interpreter():
    """Code at genesis, and code an earlier transaction of the same block
    deployed: the predicate reads the state the transaction sees."""
    txs = build(NAMED_CASES["code deployed earlier in the block"])
    state = genesis()
    seen = []
    real = is_plain_transfer

    def spy(tx, current):
        verdict = real(tx, current)
        seen.append(verdict)
        return verdict

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dag, "is_plain_transfer", spy)
        with use_registry() as registry:
            artifacts = dag.discover_access_sets(
                txs, state, BlockContext(coinbase=COINBASE)
            )
    assert seen == [True, False, False]
    flat = registry.counters_flat()
    assert flat["evm.closed_form_txs"] == 1
    assert flat["evm.tx_executions"] == 3
    before, deploy, after = artifacts
    assert deploy.receipt.contract_address == LATE_CODE
    assert not before.journal.post_values().keys() & {(LATE_CODE, 0)}
    assert (LATE_CODE, 0) in after.writes  # the deployed code ran
    assert not state.has_code(LATE_CODE)  # discovery reverted the deploy


def test_a_traced_pass_runs_everything():
    """``trace=True`` is the validator's only functional execution: its
    artifacts must carry steps, so nothing is short-cut."""
    txs = build(NAMED_CASES["fresh recipient"])
    with use_registry() as registry:
        [artifact] = dag.discover_access_sets(txs, genesis(), trace=True)
    assert artifact.steps is not None
    assert "evm.closed_form_txs" not in registry.counters_flat()


def test_no_top8_transaction_is_code_free(deployment):
    """The ``contracts`` workload never takes the closed form."""
    from repro.serve.loadgen import make_transactions

    txs = make_transactions(deployment, 48, workload="erc20", seed=5)
    with use_registry() as registry:
        dag.discover_access_sets(txs, deployment.state.copy())
    flat = registry.counters_flat()
    assert flat.get("evm.closed_form_txs", 0) == 0
    assert flat["evm.tx_executions"] == len(txs)


# -- metrics parity ----------------------------------------------------------
def test_counters_match_the_interpreters_under_a_live_registry():
    specs = [spec for name in (
        "zero value", "value above balance", "intrinsic gas above limit",
        "fee above what is left", "fresh recipient", "call into code",
    ) for spec in NAMED_CASES[name]]
    txs = build(specs)

    def counters(patched):
        with pytest.MonkeyPatch.context() as patch:
            if patched:
                interpreter_only(patch)
            with use_registry() as registry:
                dag.discover_access_sets(
                    txs, genesis(), BlockContext(coinbase=COINBASE)
                )
        return registry.counters_flat()

    closed, reference = counters(False), counters(True)
    assert closed.pop("evm.closed_form_txs") == 5
    # The decoded fast path counts transactions *it* ran; five of these
    # six never reached it.
    assert reference.pop("evm.fast_path_txs") == 6
    assert closed.pop("evm.fast_path_txs") == 1
    assert closed == reference
    assert closed["evm.transactions"] == closed["evm.tx_executions"] == 6
    assert closed["evm.failures"] == 2


# -- root by root ------------------------------------------------------------
def run_node(txs, emit_witness, interpreter):
    """Propose + execute on a fresh node; the proposal is replayed from
    its artifacts, so the closed-form journals are what gets committed."""
    node = Node(state=genesis(), emit_witness=emit_witness)
    with pytest.MonkeyPatch.context() as patch:
        if interpreter:
            interpreter_only(patch)
        # Handed over the way the serve loop does, past the mempool's
        # door: under-gas and unfunded transactions reach the block.
        block = node.propose_block(transactions=txs)
        receipts = node.execute_block(block)
    assert node.txs_reexecuted == 0
    return node, receipts


@settings(deadline=None)
@given(specs=BLOCK, emit_witness=st.booleans())
def test_node_commits_the_same_roots(specs, emit_witness):
    txs = build(specs)
    node, receipts = run_node(txs, emit_witness, interpreter=False)
    twin, twin_receipts = run_node(txs, emit_witness, interpreter=True)
    assert receipts == twin_receipts
    assert receipts_root(receipts) == receipts_root(twin_receipts)
    assert node.state_root == twin.state_root
    assert node.chain[-1].hash() == twin.chain[-1].hash()
    assert state_digest_bytes(node.state) == state_digest_bytes(twin.state)
    assert node.witnesses == twin.witnesses  # byte for byte
    assert bool(node.witnesses) == emit_witness

    # And a node that never saw an artifact: the plain EVM replay.
    plain = Node(state=genesis())
    stripped = dataclasses.replace(
        node.chain[-1], artifacts=None,
        header=dataclasses.replace(node.chain[-1].header, state_root=b""),
    )
    assert plain.execute_block(stripped) == receipts
    assert plain.state_root == node.state_root


@settings(deadline=None)
@given(specs=BLOCK, replay=st.booleans())
def test_parallel_executor_commits_the_same_state(specs, replay):
    txs = build(specs)
    context = BlockContext(coinbase=COINBASE)

    def run(interpreter):
        state = genesis()
        with pytest.MonkeyPatch.context() as patch:
            if interpreter:
                interpreter_only(patch)
            artifacts = dag.discover_access_sets(txs, state, context)
        result = ParallelBlockExecutor(state, block=context).execute_block(
            txs, artifacts, artifacts=artifacts if replay else None,
        )
        return result, state

    result, state = run(interpreter=False)
    reference, reference_state = run(interpreter=True)
    assert result.receipts == reference.receipts
    assert receipts_root(result.receipts) == receipts_root(
        reference.receipts
    )
    assert state_digest_bytes(state) == state_digest_bytes(reference_state)
    assert result.fell_back == reference.fell_back
    assert result.stale_artifacts == reference.stale_artifacts


# -- one statement of the access keys ----------------------------------------
@settings(deadline=None)
@given(spec=TX)
def test_transfer_access_covers_every_outcome(spec):
    """``transfer_access`` is the artifact's access set when the transfer
    goes through and a superset when it is refused."""
    [tx] = build([spec])
    state = genesis()
    if not is_plain_transfer(tx, state):
        return
    [artifact] = dag.discover_access_sets(
        [tx], state, BlockContext(coinbase=COINBASE)
    )
    declared = transfer_access(tx)
    if artifact.receipt.success:
        assert artifact.access == declared
    else:
        assert not artifact.reads and not artifact.writes
