"""A blockchain node implementing the three-stage model (paper Fig. 4).

* **Dissemination** — transactions arrive continuously into the mempool.
* **Consensus** — the elected node packages transactions (plus the
  dependency DAG and execution results) into a block.
* **Execution** — every node executes the block's transactions against its
  local state and verifies the results: :meth:`Node.execute_block`, for
  the proposer and for whoever follows it (validator, replica, recovery),
  in the context the block's header declares.

The :class:`StageClock` models the timing structure the hotspot optimizer
exploits: execution occupies only a slice of each block interval, leaving
an idle budget for offline optimization (paper section 2.2.4).
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

from ..evm.context import BlockContext
from ..evm.decoded import warm_code
from ..evm.interpreter import EVM
from ..obs import get_registry
from ..trie import StateRootMismatchError, StateTrie, build_witness
from .block import BLOCKHASH_WINDOW, GENESIS_PARENT, Block, BlockHeader
from .dag import (
    build_dag_edges,
    checked_dag,
    discover_access_sets,
    transitive_reduction,
)
from .journal import replay_in_order
from .mempool import DuplicateTransactionError, Mempool, PackedTake
from .receipt import Receipt, receipts_root
from .state import WorldState
from .transaction import Transaction


class ReceiptsRootMismatchError(RuntimeError):
    """A block's receipts do not hash to the root claimed for them."""

    def __init__(self, height: int, claimed: bytes, actual: bytes) -> None:
        super().__init__(
            f"block {height}: receipts root mismatch: claimed "
            f"{claimed.hex()[:16]}…, computed {actual.hex()[:16]}…"
        )
        self.claimed = claimed
        self.actual = actual


@dataclass
class BlockVerification:
    """Outcome of :meth:`Node.verify_block` (truthiness = verified)."""

    ok: bool
    #: The pair that disagreed — receipts roots, or a sealed
    #: ``state_root`` and the local one: *detail* says which.
    claimed_root: bytes
    actual_root: bytes
    detail: str = "receipts root matches"

    def __bool__(self) -> bool:
        return self.ok


@dataclass
class StageClock:
    """Timing of the three-stage model within one block interval.

    Units are abstract "time" (the paper uses seconds; Ethereum's interval
    is ~13s with execution well under a second of it).
    """

    block_interval: float = 13.0
    execution_fraction: float = 0.05  # share of the interval spent executing

    @property
    def execution_budget(self) -> float:
        """Time available to the execution stage per block."""
        return self.block_interval * self.execution_fraction

    @property
    def idle_budget(self) -> float:
        """Idle slice per block, available for hotspot optimization."""
        return self.block_interval * (1.0 - self.execution_fraction)


class Node:
    """A validating node: mempool + state + chain."""

    def __init__(
        self,
        state: WorldState | None = None,
        clock: StageClock | None = None,
        coinbase: int = 0xC0FFEE,
        mempool_capacity: int | None = None,
        per_sender_cap: int | None = None,
        store=None,
        merkleize: bool = True,
        emit_witness: bool = False,
    ) -> None:
        self.state = state or WorldState()
        self.mempool = Mempool(
            capacity=mempool_capacity,
            state=self.state,
            per_sender_cap=per_sender_cap,
        )
        self.clock = clock or StageClock()
        self.coinbase = coinbase
        self.chain: list[Block] = []
        #: height -> hash of the blocks below ``chain[0]``, shipped by a
        #: snapshot resync instead of replayed: with ``chain`` where it
        #: reaches, the BLOCKHASH window (:meth:`block_hash`).
        self.ancestor_hashes: dict[int, bytes] = {}
        self.receipts: dict[bytes, list[Receipt]] = {}
        #: The block :meth:`propose_block` built last. Its artifacts were
        #: discovered here, under this node's context (coinbase, clock,
        #: BLOCKHASH history) — the only block :meth:`execute_block`
        #: will replay instead of executing.
        self._proposed: Block | None = None
        #: Execute-once split of the in-order walk (``sequential`` and
        #: ``parallel``): transactions committed by journal replay, and
        #: those whose artifact was refused (stale or another
        #: transaction's) and ran through the EVM again.
        self.txs_replayed = 0
        self.txs_reexecuted = 0
        #: The idle-slice hotspot loop
        #: (:class:`~repro.core.hotspot.tracker.HotspotLoop`), made by the
        #: first block the ``mtpu`` engine runs here; None until then.
        self.hotspots = None
        #: Optional :class:`repro.storage.ChainStore`. When set,
        #: :meth:`commit_block` appends the block to the WAL *before*
        #: mutating in-memory structures, so anything the node claims to
        #: have committed is at least as durable as the fsync policy.
        self.store = store
        #: Authenticated state (repro.trie). Every committed header is
        #: sealed with the incremental trie's root — the one commitment
        #: the WAL, snapshots and the replication stream carry;
        #: ``emit_witness`` additionally builds a block witness
        #: (:mod:`repro.trie.witness`) per block. ``merkleize=False`` is
        #: for offline reference runs only: such a node cannot be made durable,
        #: served or replicated.
        self.emit_witness = emit_witness
        self.trie: StateTrie | None = None
        #: height -> witness blob, bounded to the BLOCKHASH window.
        self.witnesses: dict[int, bytes] = {}
        if merkleize:
            self.attach_trie()
        elif emit_witness:
            raise ValueError("emit_witness requires merkleize")

    def attach_trie(self) -> bytes:
        """(Re)build the state trie over the current state and enable
        first-touch capture; returns the current root."""
        trie = StateTrie()
        root = trie.attach(self.state)
        self.adopt(self.state, trie)
        return root

    def adopt(self, state: WorldState, trie: StateTrie) -> None:
        """Swap in a wholesale replacement *state* together with the
        *trie* already attached to it (snapshot resync, recovery
        transplant) — the trie is built once, by whoever verified the
        state against its stamped root."""
        self.state = state
        self.mempool.state = state
        self.trie = trie
        state._track_reads = self.emit_witness

    @property
    def state_root(self) -> bytes:
        """Current trie root (empty bytes on a trie-less reference node)."""
        return self.trie.root() if self.trie is not None else b""

    # -- dissemination stage -------------------------------------------------
    def hear(self, tx: Transaction, at: int | None = None) -> bool:
        """Receive a transaction from the P2P network.

        Returns True when newly pooled, False for a duplicate (gossip
        re-announcements are normal, not an error); raises
        :class:`~repro.chain.mempool.AdmissionError` for transactions
        failing intrinsic admission checks. RPC front-ends that want the
        typed :class:`~repro.chain.mempool.DuplicateTransactionError`
        call :meth:`Mempool.add` directly.
        """
        try:
            return self.mempool.add(tx, heard_at=at)
        except DuplicateTransactionError:
            return False

    # -- consensus stage -------------------------------------------------------
    def block_context(
        self, header: BlockHeader | int | None = None
    ) -> BlockContext:
        """Environment a block executes in: its *header*'s, whoever
        sealed it, plus this node's BLOCKHASH window. A height (default:
        the next) stands for the header this node would propose there."""
        if not isinstance(header, BlockHeader):
            header = self._proposal_header(header)
        height = header.height

        def ancestor(query_height: int) -> int:
            # Only the window is reachable, and a header is hashed only
            # when a BLOCKHASH actually asks for it — the per-block cost
            # does not grow with the chain.
            if 1 <= height - query_height <= BLOCKHASH_WINDOW:
                found = self.block_hash(query_height) or b""
                return int.from_bytes(found, "big")
            return 0

        return BlockContext.of_header(header, ancestor)

    def block_hash(self, height: int) -> bytes | None:
        """Hash of block *height* where this node holds it: on its
        chain, or among the ancestors a snapshot resync shipped."""
        chain = self.chain
        index = height - chain[0].header.height if chain else -1
        if 0 <= index < len(chain):
            return chain[index].hash()
        return self.ancestor_hashes.get(height)

    def _proposal_header(self, height: int | None = None) -> BlockHeader:
        """The unsealed header this node proposes at *height*: the
        proposer's policy — its clock, its coinbase — stated once."""
        if height is None:
            height = len(self.chain) + 1
        return BlockHeader(
            height=height,
            timestamp=1_600_000_000 + height * int(self.clock.block_interval),
            coinbase=self.coinbase,
            difficulty=1,
            gas_limit=BlockContext.gas_limit,
            parent_hash=self.block_hash(height - 1) or GENESIS_PARENT,
        )

    def cut(
        self,
        max_transactions: int = 200,
        gas_target: int | None = None,
        packing: str = "fifo",
        packing_policy=None,
        executor: str = "sequential",
    ) -> list[Transaction] | PackedTake:
        """Take the next block's candidates out of the pool: the one
        statement of the cut, for :meth:`propose_block` and for the
        serve loop, which cuts on the event loop and proposes on a
        worker thread. Reads the pool and its blooms only, never the
        state.

        ``fifo``: :meth:`Mempool.take` — the oldest, by count; promised
        gas (the limits) bounds the cut only when *executor* measures
        nothing before it runs, since a pre-executing proposal fills by
        gas *used* and puts the rest back. ``conflict_aware``:
        :meth:`Mempool.take_packed` under *packing_policy*, always
        bounded by promised gas (its lanes index the cut, so it is never
        shortened); the :class:`PackedTake` keeps the lanes for
        :meth:`propose_block` to stamp.
        """
        if packing == "conflict_aware":
            return self.mempool.take_packed(
                max_transactions, gas_target=gas_target,
                policy=packing_policy,
            )
        if packing != "fifo":
            raise ValueError(f"unknown packing {packing!r}")
        return self.mempool.take(
            max_transactions,
            gas_target=(
                None if _engine(executor).preexecutes else gas_target
            ),
        )

    def propose_block(
        self,
        max_transactions: int = 200,
        gas_target: int | None = None,
        transactions: list[Transaction] | PackedTake | None = None,
        packing: str = "fifo",
        packing_policy=None,
        executor: str = "sequential",
    ) -> Block:
        """Package mempool transactions into a block with its DAG.

        The block holds the oldest transactions, up to
        *max_transactions* and up to the cumulative *gas_target* — the
        same policy the serve loop's continuous block builder uses.
        Gas is bounded by what the block *used*: candidates are taken by
        count, the discovery pass below measures them and stops at the
        target (:func:`~repro.chain.dag.discover_access_sets` states the
        rule), and the candidates that did not fit go back to the front
        of the pool (:meth:`~repro.chain.mempool.Mempool.put_back`).
        Passing *transactions* — what :meth:`cut` just returned — skips
        the cut (the serve loop cuts on the event loop and proposes on a
        worker thread); the target applies all the same.

        Where nothing is measured before the cut the senders' promise
        stands in (:meth:`cut` states when). A receipt never uses more
        than its limit, so that bound implies the measured one and such
        a cut is never shortened (its lanes stay valid).

        ``packing="conflict_aware"`` spreads mutually conflicting
        transactions across blocks (and groups them into parallel lanes
        within one), with *packing_policy*
        (:class:`~repro.chain.mempool.PackingPolicy`) controlling lane
        depth and the anti-starvation aging bound. The cut rides on
        ``Block.packed_lanes`` / ``packed_parallelism``.

        The dependency DAG is discovered by speculative execution on a
        state copy and stored (transitively reduced) in the block, as the
        paper's consensus-stage nodes do; the pre-execution artifacts
        ride along on ``Block.artifacts`` for execute-once replay.

        *executor* names the engine (:data:`ENGINES`) the block is
        proposed for. One that replays traces (``mtpu``) gets a traced
        discovery. One that does not pre-execute (``occ``) skips
        discovery entirely: the block carries no DAG and no artifacts,
        and the speculative engine finds conflicts at run time — the
        path for dynamic-storage-key workloads whose access sets cannot
        be declared or discovered ahead of reordering.
        """
        engine = _engine(executor)  # before the pool moves
        cut = transactions if transactions is not None else self.cut(
            max_transactions, gas_target, packing, packing_policy, executor
        )
        packed = cut if isinstance(cut, PackedTake) else None
        txs = cut if packed is None else packed.transactions
        header = self._proposal_header()
        context = self.block_context(header)
        registry = get_registry()
        if not engine.preexecutes:
            artifacts, edges = None, []
        else:
            artifacts = discover_access_sets(
                txs, self.state, context, trace=engine.traced,
                gas_target=gas_target,
            )
            if len(artifacts) < len(txs):
                assert packed is None, "a packed cut is never shortened"
                self.mempool.put_back(txs[len(artifacts):])
                txs = txs[:len(artifacts)]
            edges = transitive_reduction(
                len(txs), build_dag_edges(txs, artifacts)
            )
            if registry.enabled:
                registry.histogram("block.gas_used").observe(
                    sum(artifact.receipt.gas_used for artifact in artifacts)
                )
        block = Block(
            header=header,
            transactions=txs,
            dag_edges=edges,
            artifacts=artifacts,
        )
        if packed is not None:
            block.packed_lanes = packed.lanes
            block.packed_parallelism = packed.parallelism
            if registry.enabled and packed.transactions:
                registry.histogram("block.packed_parallelism").observe(
                    packed.parallelism
                )
        self._proposed = block
        return block

    # -- execution stage ----------------------------------------------------------
    def execute_block(
        self,
        block: Block,
        executor: str = "sequential",
        num_workers: int = 4,
        fault_injector=None,
        claimed_receipts_root: bytes | None = None,
    ) -> list[Receipt]:
        """Execute a block's transactions and append it: the one way any
        node applies any block — its own proposal or one somebody else
        sealed (the context is the header's) — and the one place an
        engine (:data:`ENGINES`, by name) is chosen, run and committed.
        Every engine leaves receipts and state bit-identical to the
        default, the paper's sequential baseline (Fig. 1); *num_workers*
        is the ``mtpu`` engine's PU count, *fault_injector* strikes its
        PUs.

        If this raises — the engine died, the receipts do not hash to
        *claimed_receipts_root*, a sealed ``state_root`` does not
        reproduce, the witness build or the store's append failed — the
        node is exactly where the block found it (:meth:`rollback_block`).

        Execute-once, on the default engine: the block this node itself
        just proposed carries its consensus-stage pre-execution on
        ``block.artifacts``. In block order, an artifact whose read
        values still hold
        (:meth:`~repro.chain.journal.ExecutionArtifact.is_fresh`) is
        committed by applying its write journal and taking its receipt;
        a transaction whose artifact belongs to another transaction or
        is stale runs through the EVM, and so does the whole block when
        the artifact list does not line up with it. Every other block
        — another node's proposal, recovery, replicas, hand-built or
        decoded blocks — runs every transaction through the EVM, as the
        paper's verifying nodes do (``parallel`` and ``mtpu`` run it once,
        as a discovery of their own, and replay that).
        """
        engine = _engine(executor)
        token = self.state.snapshot()
        try:
            context = self.block_context(block.header)
            receipts = engine.run(
                self, block, context, num_workers, fault_injector
            )
            if claimed_receipts_root is not None:
                actual = receipts_root(receipts)
                if actual != claimed_receipts_root:
                    raise ReceiptsRootMismatchError(
                        block.header.height, claimed_receipts_root, actual
                    )
        except Exception:
            self.rollback_block(token)
            raise
        self.commit_block(block, receipts, token)
        return receipts

    def commit_block(
        self, block: Block, receipts: list[Receipt], token: int = 0
    ) -> None:
        """Append an executed block: chain, receipts, mempool, journal.

        The caller has already applied the block's state effects; this
        is the one shared commit path and the one place the journal is
        cleared (*token*: the snapshot from before the block touched the
        state; by default everything journaled since the last commit).
        With a store attached the WAL append (and, per policy, the
        fsync) happens first — a crash after this method returns costs
        nothing that was committed.

        When Merkleizing, the witness (which needs the *pre-block* trie
        shape and the undrained touch capture) is built first, then the
        header is sealed with the post-block root, so the WAL record and
        the chain both carry the sealed header.

        Anything raised before the append is durable — a refused one
        included (:class:`~repro.storage.AppendFailedError`: the log is
        where it was) — commits nothing: the header handed in goes back
        on the block, :meth:`rollback_block` does the rest, and chain,
        receipts and mempool were never touched. It is no reason to
        execute the block again — it did not fail to execute.
        """
        unsealed = block.header
        folded = False
        try:
            witness = None
            if self.trie is not None and self.emit_witness:
                witness = build_witness(self.trie, self.state, block)
            folded = True
            self.seal_state_root(block)
            if self.store is not None:
                self.store.append_block(block, self.state, witness=witness)
        except Exception:
            block.header = unsealed
            self.rollback_block(token, folded)
            raise
        self.state.clear_journal()
        self.chain.append(block)
        if witness is not None:
            height = block.header.height
            self.witnesses[height] = witness
            self.witnesses.pop(height - BLOCKHASH_WINDOW, None)
        self.receipts[block.hash()] = receipts
        # Warm the decoded-program cache for code deployed in this block
        # so the very next call to a fresh contract skips the AOT decode.
        # Raw account reads: no access tracking, no journal.
        accounts = self.state._accounts
        for receipt in receipts:
            if receipt.success and receipt.contract_address is not None:
                account = accounts.get(receipt.contract_address)
                if account is not None and account.code:
                    warm_code(account.code)
        self.mempool.remove(block.transactions)

    def rollback_block(self, token: int, folded: bool = False) -> None:
        """Put the node back where a block found it: the state at
        *token*, the journal empty, the trie its mirror (nothing else
        is written before the last thing that can fail).

        Execution leaves the trie alone, so draining the first-touch
        capture restores it. *folded*: the seal folded the block in and
        drained the capture, and only a rebuild undoes that — O(state),
        fault-only, and required: this node keeps answering proofs, and
        one cut from the un-rolled-back trie would bind diverged
        contents to a root no header sealed.
        """
        self.state.revert(token)
        self.state.clear_journal()
        if self.trie is None:
            return
        if folded:
            self.attach_trie()
        else:
            self.trie.update(self.state)

    def seal_state_root(self, block: Block) -> None:
        """Fold the block's state effects into the trie and seal (or
        check) the header's ``state_root``.

        A header that already carries a root — replication, recovery
        replay — is *checked*: disagreement raises
        :class:`~repro.trie.StateRootMismatchError` and nothing is
        stamped. An empty header is stamped in place (the ``Block`` is
        mutable; its frozen header is replaced), so the block's hash
        from here on commits to the post-state root.
        """
        if self.trie is None:
            return
        root = self.trie.update(self.state)
        claimed = block.header.state_root
        if claimed:
            if claimed != root:
                raise StateRootMismatchError(
                    block.header.height, claimed, root
                )
        else:
            block.header = dataclasses.replace(
                block.header, state_root=root
            )

    def verify_block(
        self, block: Block, claimed_root: bytes
    ) -> BlockVerification:
        """:meth:`execute_block` with a receipts-root claim: commits on
        a match; on a mismatch of either root — receipts, or a sealed
        ``state_root`` — *nothing* changes (a bogus claim must not
        poison the node) and the verdict is falsy.

        Verification never replays ``block.artifacts``: every
        transaction runs through the EVM, whatever the block carries —
        checking a proposer's results by applying the proposer's own
        journals would check nothing.
        """
        self._proposed = None  # a block under verification is nobody's own
        try:
            self.execute_block(block, claimed_receipts_root=claimed_root)
        except (ReceiptsRootMismatchError, StateRootMismatchError) as exc:
            return BlockVerification(False, exc.claimed, exc.actual, str(exc))
        return BlockVerification(True, claimed_root, claimed_root)


# -- the engines ------------------------------------------------------------
class Engine(NamedTuple):
    """One way to apply a block's effects to ``node.state``."""

    #: ``run(node, block, context, num_workers, fault_injector)`` ->
    #: receipts in block order, the effects applied and nothing else
    #: done: an engine never commits, never clears the journal (whoever
    #: took the snapshot owns it) and never catches in order to fall
    #: back — its own convergence path is part of it.
    run: Callable[..., list[Receipt]]
    #: False: blocks are proposed for it without discovery — no
    #: artifacts, no DAG, nothing measured before the cut.
    preexecutes: bool = True
    #: True: it replays the dataflow trace, so discovery records one.
    traced: bool = False


def _own_artifacts(node, block):
    """The pre-execution *block* carries, when it is this node's own
    proposal and lines up with the block; None for every other block."""
    artifacts = block.artifacts if block is node._proposed else None
    if artifacts is None or len(artifacts) != len(block.transactions):
        return None
    return artifacts


def _checked_artifacts(node, block, context, traced=False):
    """The artifacts and the DAG an engine schedules from: this node's
    own proposal's, as it carries them; for any other block, a discovery
    here — its one execution, the engine replays it — and the shipped
    DAG checked against it, rebuilt on a lie (``faults.*`` count it)."""
    artifacts = _own_artifacts(node, block)
    if artifacts is not None:
        return artifacts, block.dag_edges
    transactions = block.transactions
    artifacts = discover_access_sets(
        transactions, node.state, context, trace=traced
    )
    edges, verdict = checked_dag(transactions, block.dag_edges, artifacts)
    if not verdict.ok:
        registry = get_registry()
        if registry.enabled:
            registry.counter("faults.dag_faults_detected").inc()
            registry.counter("faults.dag_rebuilds").inc()
    return artifacts, edges


def walk_in_order(state, transactions, artifacts, context=None):
    """The in-order walk over *state*: without *artifacts*, one EVM pass;
    with them, each transaction whose artifact is its own and still fresh
    commits by journal replay, and every other runs the EVM. Returns the
    receipts in block order and how many were replayed."""
    execute = EVM(state, block=context).execute_transaction
    if artifacts is None:
        return [execute(tx) for tx in transactions], 0
    return replay_in_order(
        state, transactions, artifacts, lambda _, tx: execute(tx)
    )


def _walk(node, block, context, artifacts):
    """The walk ``sequential`` and ``parallel`` share, on the node's
    state (``Node.txs_replayed`` / ``txs_reexecuted`` count the split of
    a walk over artifacts)."""
    receipts, replayed = walk_in_order(
        node.state, block.transactions, artifacts, context
    )
    if artifacts is None:
        return receipts
    reexecuted = len(receipts) - replayed
    node.txs_replayed += replayed
    node.txs_reexecuted += reexecuted
    registry = get_registry()
    if registry.enabled:
        if replayed:
            registry.counter("evm.tx_reuses").inc(replayed)
        if reexecuted:
            registry.counter("evm.tx_reexecutions").inc(reexecuted)
    return receipts


def _run_sequential(node, block, context, num_workers, fault_injector):
    return _walk(node, block, context, _own_artifacts(node, block))


def _run_parallel(node, block, context, num_workers, fault_injector):
    """The walk over the artifacts ``_checked_artifacts`` hands back: on
    anyone else's block, one discovery here and the shipped DAG checked
    against it. Block order is a topological order of any DAG over the
    block, so the walk needs no edges."""
    artifacts, _ = _checked_artifacts(node, block, context)
    return _walk(node, block, context, artifacts)


# The other engines live in packages that import this one, so they are
# imported when first run.
def _run_mtpu(node, block, context, num_workers, fault_injector):
    """The paper's verifying node: the idle slice's hotspot loop, then
    the block on *num_workers* PUs under the spatio-temporal schedule,
    replaying the traced artifacts. A PU fault converges inside the
    schedule; a wrong result is the receipts-root claim's to refuse."""
    from ..core.hotspot.tracker import HotspotLoop
    from ..core.mtpu import MTPUExecutor
    from ..core.scheduler import run_spatial_temporal

    if node.hotspots is None:
        node.hotspots = HotspotLoop(node.state)
    optimizer = node.hotspots.before_block(node, context)
    artifacts, edges = _checked_artifacts(node, block, context, traced=True)
    executor = MTPUExecutor(
        node.state, block=context, num_pus=num_workers,
        hotspot_optimizer=optimizer,
        artifacts={artifact.tx.hash(): artifact for artifact in artifacts},
    )
    executor.auto_clear_journal = False
    schedule = run_spatial_temporal(
        executor, block.transactions, edges, fault_injector=fault_injector
    )
    registry = get_registry()
    if registry.enabled:
        registry.counter("sched.makespan_cycles").inc(
            schedule.makespan_cycles
        )
    return schedule.receipts_in_block_order(block.transactions)


def _run_occ(node, block, context, num_workers, fault_injector):
    from ..parallel import SpeculativeBlockExecutor

    return SpeculativeBlockExecutor(node.state, context).execute_block(
        block.transactions
    ).receipts


#: The only place engines are named. ``sequential``: the EVM in block
#: order, replaying this node's own proposal; ``mtpu``: the
#: spatio-temporal schedule on the MTPU simulator with the hotspot loop;
#: ``parallel``: the same in-order walk, replaying what it discovers
#: itself on anyone else's block, whose DAG it checks;
#: ``occ``: Block-STM speculation (:mod:`repro.parallel`) — conflicts
#: found by read-set validation, so dynamic-storage-key contracts run
#: undeclared.
ENGINES = {
    "sequential": Engine(_run_sequential),
    "mtpu": Engine(_run_mtpu, traced=True),
    "parallel": Engine(_run_parallel),
    "occ": Engine(_run_occ, preexecutes=False),
}
EXECUTORS = tuple(ENGINES)


def _engine(executor: str) -> Engine:
    try:
        return ENGINES[executor]
    except KeyError:
        raise ValueError(
            f"unknown executor {executor!r}: expected one of {EXECUTORS}"
        ) from None
