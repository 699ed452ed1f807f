"""The closed-form transfer path against the interpreter.

``discover_access_sets`` writes down the artifact of a transaction whose
target holds no code instead of running it (``repro.chain.transfer``).
Nothing selects that path but the input, so nothing but this suite keeps
it honest: every generated block is pre-executed twice — as shipped, and
through the interpreter, which is discovery with the predicate patched
to refuse everything — and the two must agree transaction by
transaction on the receipt, the access set and the state left behind,
then root by root through every consumer of those artifacts. A gas or fee rule edited in ``evm/`` and not in
``chain/transfer.py`` fails here.
"""

import dataclasses
import tempfile

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
from repro.storage import StorageConfig, attach
from repro.storage.codec import state_digest_bytes
from tests.conftest import wal_witnesses

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
    """The block discovered as shipped and through the interpreter alone,
    each side on its own copy of *state*, one transaction at a time:
    per side, the artifacts and the state digest after each of them."""
    sides = []
    for interpreter in (False, True):
        current = state.copy()
        artifacts, digests = [], []
        with pytest.MonkeyPatch.context() as patch:
            if interpreter:
                interpreter_only(patch)
            for tx in txs:
                artifacts += dag.discover_access_sets([tx], current, context)
                digests.append(state_digest_bytes(current))
        sides.append((artifacts, digests))
    return sides


def assert_same_artifacts(closed, reference):
    (got_artifacts, got_digests), (want_artifacts, want_digests) = (
        closed, reference
    )
    assert len(got_artifacts) == len(want_artifacts)
    for got, want, got_digest, want_digest in zip(
        got_artifacts, want_artifacts, got_digests, want_digests
    ):
        assert got.tx is want.tx
        assert got.receipt == want.receipt, got.tx
        assert got.access.reads == want.access.reads, got.tx
        assert got.access.writes == want.access.writes, got.tx
        # Untraced on both sides: no trace, no code for the MTPU.
        assert got.steps is None and got.code is None, got.tx
        assert got_digest == want_digest, got.tx  # the same effects


# -- artifact by artifact ----------------------------------------------------
@settings(deadline=None)
@given(specs=BLOCK, coinbase_funded=st.booleans())
def test_artifacts_equal_the_interpreters(specs, coinbase_funded):
    txs = build(specs)
    closed, reference = discover_both(
        txs, genesis(coinbase_funded), BlockContext(coinbase=COINBASE)
    )
    assert_same_artifacts(closed, reference)
    # Every edge the DAG builder draws is drawn from the same sets.
    assert dag.build_dag_edges(txs, closed[0]) == dag.build_dag_edges(
        txs, reference[0]
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
    untouched = state_digest_bytes(genesis())

    def run(name):
        state = genesis()
        artifacts = dag.discover_access_sets(
            build(NAMED_CASES[name]), state,
            BlockContext(coinbase=COINBASE),
        )
        return artifacts, state

    [refused], state = run("value above balance")
    assert refused.receipt.error == "insufficient balance for value"
    assert refused.receipt.gas_used == 21_000
    assert state_digest_bytes(state) == untouched  # no nonce bump, no fee
    assert not refused.reads and not refused.writes

    [under_gas], state = run("intrinsic gas above limit")
    assert under_gas.receipt.error == "intrinsic gas exceeds limit"
    assert under_gas.receipt.gas_used == 20_999
    assert state_digest_bytes(state) == untouched

    [capped], state = run("fee above what is left")
    assert capped.receipt.success
    assert state.get_balance(POOR[0]) == 0  # max(0, …)
    assert state.get_balance(COINBASE) == 10**9 + 21_000

    [own], state = run("self transfer")
    assert own.writes == {(RICH[0], "balance")}
    assert state.get_nonce(RICH[0]) == 1
    assert state.get_balance(RICH[0]) == 10**15 - 21_000
    assert state.get_balance(COINBASE) == 10**9 + 21_000

    [idle], _ = run("zero value")
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
    assert before.access == transfer_access(before.tx)  # a plain transfer
    assert (LATE_CODE, 0) in after.writes  # the deployed code ran
    assert after.steps is None  # an untraced EVM artifact: no trace
    assert state.has_code(LATE_CODE)  # discovery is the execution


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
    """Propose + execute on a fresh durable node; the proposal commits as
    its discovery left it, so the closed form's effects are what
    commits. Returns the node, the receipts and the witnesses its WAL
    records carry."""
    node = Node(state=genesis(), emit_witness=emit_witness)
    with pytest.MonkeyPatch.context() as patch, \
            tempfile.TemporaryDirectory() as data_dir:
        attach(node, data_dir, StorageConfig(fsync="never"))
        if interpreter:
            interpreter_only(patch)
        # Handed over the way the serve loop does, past the mempool's
        # door: under-gas and unfunded transactions reach the block.
        block = node.propose_block(transactions=txs)
        with use_registry() as registry:
            receipts = node.execute_block(block)
        witnesses = wal_witnesses(node.store)
        node.store.close()
    assert "evm.tx_executions" not in registry.counters_flat()
    return node, receipts, witnesses


@settings(deadline=None)
@given(specs=BLOCK, emit_witness=st.booleans())
def test_node_commits_the_same_roots(specs, emit_witness):
    txs = build(specs)
    node, receipts, witnesses = run_node(
        txs, emit_witness, interpreter=False
    )
    twin, twin_receipts, twin_witnesses = run_node(
        txs, emit_witness, interpreter=True
    )
    assert receipts == twin_receipts
    assert receipts_root(receipts) == receipts_root(twin_receipts)
    assert node.state_root == twin.state_root
    assert node.chain[-1].hash() == twin.chain[-1].hash()
    assert state_digest_bytes(node.state) == state_digest_bytes(twin.state)
    assert witnesses == twin_witnesses  # byte for byte
    assert bool(witnesses) == emit_witness

    # And a node that never saw an artifact: the plain EVM replay.
    plain = Node(state=genesis())
    stripped = dataclasses.replace(
        node.chain[-1], artifacts=None,
        header=dataclasses.replace(node.chain[-1].header, state_root=b""),
    )
    assert plain.execute_block(stripped) == receipts
    assert plain.state_root == node.state_root


@settings(deadline=None)
@given(specs=BLOCK, own=st.booleans())
def test_parallel_executor_commits_the_same_state(specs, own):
    """The ``parallel`` engine commits its own proposal (*own*), or, as a
    second node handed the block without artifacts, its own discovery."""
    txs = build(specs)

    def run(interpreter):
        node = Node(state=genesis())
        with pytest.MonkeyPatch.context() as patch:
            if interpreter:
                interpreter_only(patch)
            block = node.propose_block(transactions=txs, executor="parallel")
            if not own:
                node = Node(state=genesis())
                block = dataclasses.replace(block, artifacts=None)
            with use_registry() as registry:
                receipts = node.execute_block(block, executor="parallel")
        assert registry.counters_flat().get("evm.tx_executions", 0) == (
            0 if own else len(txs)
        )
        return node, receipts

    node, receipts = run(interpreter=False)
    reference, reference_receipts = run(interpreter=True)
    assert receipts == reference_receipts
    assert receipts_root(receipts) == receipts_root(reference_receipts)
    assert node.state_root == reference.state_root
    assert state_digest_bytes(node.state) == state_digest_bytes(
        reference.state
    )


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
