"""The correctness oracle, run outside every timing.

From nothing but the wire replies it rebuilds the exact blocks the
server committed and replays them on a fresh sequential, Merkleizing
``Node``: receipts, every sealed state root, every block hash, the
final root and the flat digest must equal what the server reported, the
durable store must audit clean, and sampled proofs must verify against a
root that ``repro_getBlock`` confirms.

Each check returns human-readable failure strings; an empty list means
the round's outputs are correct.
"""

from __future__ import annotations

from loadgen import RoundResult
from workloads import NUM_ACCOUNTS, FramePool


def check_counts(result: RoundResult, data_dir) -> list:
    """The cheap invariants: every round, traced or not."""
    from repro.storage import verify_store

    failures = []
    stats = result.stats_final
    ok_replies = sum(1 for placed in result.placed if placed is not None)
    if stats["txsCommitted"] != ok_replies:
        failures.append(
            f"txsCommitted {stats['txsCommitted']} != ok replies "
            f"{ok_replies}"
        )
    if stats["chainHeight"] != stats["walRecords"]:
        failures.append(
            f"chainHeight {stats['chainHeight']} != walRecords "
            f"{stats['walRecords']}"
        )
    report = verify_store(str(data_dir))
    if not report.ok:
        failures.append(f"verify_store: {report.notes}")
    elif report.chain_height != stats["chainHeight"]:
        failures.append(
            f"store holds {report.chain_height} blocks, server reported "
            f"{stats['chainHeight']}"
        )
    return failures


def committed_blocks(result: RoundResult, pool: FramePool):
    """height -> [(transaction, success, gasUsed), ...] in block order,
    rebuilt from the replies' blockHeight/txIndex; raises ValueError
    when the replies do not tile a chain."""
    by_height: dict = {}
    for index, placed in enumerate(result.placed):
        if placed is None:
            continue
        height, tx_index, success, gas_used = placed
        by_height.setdefault(height, {})[tx_index] = (
            pool.transactions[index], success, gas_used
        )
    blocks = {}
    for height in range(1, len(by_height) + 1):
        entries = by_height.get(height)
        if entries is None:
            raise ValueError(f"no reply places a transaction at height "
                             f"{height} of {len(by_height)}")
        if sorted(entries) != list(range(len(entries))):
            raise ValueError(f"block {height}: txIndex values "
                             f"{sorted(entries)[:8]}… are not 0..n-1")
        blocks[height] = [entries[i] for i in range(len(entries))]
    return blocks


def check_replay(result: RoundResult, pool: FramePool) -> list:
    """Replay the committed blocks sequentially and compare everything."""
    from repro.chain.block import Block, BlockHeader
    from repro.chain.node import Node
    from repro.contracts.registry import build_deployment
    from repro.storage.codec import state_digest_bytes

    try:
        blocks = committed_blocks(result, pool)
    except ValueError as exc:
        return [str(exc)]
    health = result.health_final
    if health["height"] != len(blocks):
        return [f"server height {health['height']} != {len(blocks)} "
                f"blocks rebuilt from replies"]
    node = Node(
        state=build_deployment(num_accounts=NUM_ACCOUNTS).state,
        merkleize=True,
    )
    failures = []
    for height, entries in blocks.items():
        context = node.block_context(height)
        header = BlockHeader(
            height=height,
            timestamp=context.timestamp,
            coinbase=node.coinbase,
            difficulty=1,
            gas_limit=context.gas_limit,
            parent_hash=(
                node.chain[-1].hash() if node.chain else b"\x00" * 32
            ),
        )
        block = Block(
            header=header, transactions=[entry[0] for entry in entries]
        )
        receipts = node.execute_block(block)
        for tx_index, (receipt, entry) in enumerate(zip(receipts, entries)):
            if (receipt.success, receipt.gas_used) != entry[1:]:
                failures.append(
                    f"block {height} tx {tx_index}: server replied "
                    f"success/gasUsed {entry[1:]}, replay got "
                    f"{(receipt.success, receipt.gas_used)}"
                )
        served = result.headers[height]
        if block.header.state_root.hex() != served["stateRoot"]:
            failures.append(f"block {height}: state root differs")
        if block.hash().hex() != served["hash"]:
            failures.append(f"block {height}: block hash differs")
        if len(failures) > 8:
            return failures  # diverged: later blocks only repeat it
    if node.state_root.hex() != health["stateRoot"]:
        failures.append("final stateRoot differs from repro_health")
    if state_digest_bytes(node.state).hex() != health["stateDigest"]:
        failures.append("final stateDigest differs from repro_health")
    return failures


def check_proofs(result: RoundResult) -> list:
    """Every sampled proof binds its balance to a confirmed state root."""
    from repro.trie.verify import verify_proof_blob

    confirmed = {header["stateRoot"] for header in result.headers.values()}
    failures = []
    for reply in result.proofs:
        if reply["stateRoot"] not in confirmed:
            failures.append(
                f"proof for {reply['address']} names a stateRoot no "
                f"committed block has"
            )
            continue
        proof, ok = verify_proof_blob(
            bytes.fromhex(reply["proof"]), bytes.fromhex(reply["stateRoot"])
        )
        if not ok:
            failures.append(f"proof for {reply['address']} does not verify")
        elif (proof.balance, proof.nonce) != (
            reply["balance"], reply["nonce"]
        ):
            failures.append(
                f"proof for {reply['address']} proves another balance "
                f"than the reply states"
            )
    return failures


def check_round(result: RoundResult, pool: FramePool, data_dir,
                full: bool = True) -> list:
    failures = check_counts(result, data_dir)
    if full:
        failures += check_replay(result, pool)
        failures += check_proofs(result)
    return failures
