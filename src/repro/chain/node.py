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
    check_schedule_order,
    checked_dag,
    discover_access_sets,
    transitive_reduction,
)
from .mempool import DuplicateTransactionError, Mempool, PackedTake
from .receipt import CommittedReceipt, Receipt, receipts_root
from .state import WorldState
from .transaction import Transaction


class _Proposal(NamedTuple):
    """An open proposal: the *block* with the *header* it was proposed
    under, applied to the state; the snapshot from before its discovery
    (*token*), its *receipts* and the discovery's *artifacts* (the
    node's own copies, whatever becomes of ``block.artifacts``), and the
    journal length when :meth:`Node.propose_block` returned (*mark*)."""

    block: Block
    header: BlockHeader
    token: int
    receipts: list[Receipt]
    artifacts: list
    mark: int

    def commits(self, block: Block, engine: "Engine") -> bool:
        """True when *block* is this proposal as proposed — its header,
        the transactions the discovery ran — and *engine* can commit it
        (one that times the block needs the traces)."""
        artifacts = self.artifacts
        return (
            block is self.block and block.header is self.header
            and len(block.transactions) == len(artifacts)
            and all(
                artifact.tx is tx
                for artifact, tx in zip(artifacts, block.transactions)
            )
            and not (engine.traced and any(
                artifact.steps is None for artifact in artifacts
            ))
        )


class StaleProposalError(RuntimeError):
    """The state was written under an open proposal before its commit."""


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
        store=None,
        merkleize: bool = True,
        emit_witness: bool = False,
    ) -> None:
        self.state = state or WorldState()
        self.mempool = Mempool(capacity=mempool_capacity, state=self.state)
        self.clock = clock or StageClock()
        self.coinbase = coinbase
        # The committed history is written here only: by commit_block,
        # prune_receipts, reset and take_over.
        self.chain: list[Block] = []
        #: height -> hash of the blocks below ``chain[0]``, shipped by a
        #: snapshot resync instead of replayed: with ``chain`` where it
        #: reaches, the BLOCKHASH window (:meth:`block_hash`).
        self.ancestor_hashes: dict[int, bytes] = {}
        #: block hash -> its receipts, for a suffix of the chain (the
        #: newest blocks :meth:`prune_receipts` keeps).
        self.receipts: dict[bytes, list[Receipt]] = {}
        #: tx hash -> (height, index) of its receipt in :attr:`receipts`,
        #: filed and forgotten with them; :meth:`receipt_of` reads it.
        self.tx_index: dict[bytes, tuple[int, int]] = {}
        #: :attr:`height` while the chain is empty (a resync's anchor).
        self._anchor = 0
        #: The open proposal (applied to the state): the only block
        #: :meth:`execute_block` commits without running an engine pass.
        self._proposal: _Proposal | None = None
        #: The idle-slice hotspot loop
        #: (:class:`~repro.core.hotspot.tracker.HotspotLoop`), made by the
        #: first ``mtpu`` block proposed or executed here; None until then.
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
        #: (:mod:`repro.trie.witness`) per block, which the store's WAL
        #: record carries. ``merkleize=False`` is
        #: for offline reference runs only: such a node cannot be made durable,
        #: served or replicated.
        self.emit_witness = emit_witness
        self.trie: StateTrie | None = None
        if merkleize:
            self.attach_trie()
        elif emit_witness:
            raise ValueError("emit_witness requires merkleize")

    def attach_trie(self) -> bytes:
        """(Re)build the state trie over the current state, which folds
        the state's journal from then on; returns the current root.

        An open proposal is abandoned first: the new trie is built over
        the state as the proposal found it."""
        self.abandon_proposal()
        trie = StateTrie()
        root = trie.attach(self.state)
        self.adopt(self.state, trie)
        return root

    def reset(self, state: WorldState, trie: StateTrie, chain=(),
              anchor: int = 0, recent=()) -> None:
        """Start the committed history over on a wholesale replacement
        *state* with its *trie* (:meth:`adopt`): the chain becomes
        *chain* (blocks a recovery does not replay, held without
        receipts); receipts and their index are emptied. With no *chain*
        (a snapshot resync) the height is *anchor* and the BLOCKHASH
        window below it the *recent* (height, hash) pairs shipped. Each
        field is swapped for a new object, never emptied in place, so a
        lock-free reader (:meth:`receipt_of`) holds the old one or the
        new; the anchor goes first, so :attr:`height` never reads an
        empty chain over the old anchor."""
        self.adopt(state, trie)
        self._anchor = anchor
        self.chain = list(chain)
        self.receipts = {}
        self.tx_index = {}
        self.ancestor_hashes = dict(recent)

    def take_over(self, other: "Node") -> None:
        """Become *other* — its state, trie and committed history: a
        recovery, run on a node of its own, moved into the one that
        serves."""
        self.reset(other.state, other.trie, other.chain, other._anchor,
                   other.ancestor_hashes.items())
        self.receipts, self.tx_index = other.receipts, other.tx_index

    def adopt(self, state: WorldState, trie: StateTrie) -> None:
        """Swap in a wholesale replacement *state* together with the
        *trie* already attached to it (:meth:`reset`, a witness replica)
        — the trie is built once, by whoever verified the state against
        its stamped root."""
        self.abandon_proposal()
        self.state = state
        self.mempool.rebase(state)
        self.trie = trie
        state.witness_reads = set() if self.emit_witness else None

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

    @property
    def height(self) -> int:
        """Height of the last committed block: the chain's top, or the
        anchor a snapshot resync left while the chain is empty."""
        chain = self.chain
        return chain[-1].header.height if chain else self._anchor

    def block_at(self, height: int) -> Block | None:
        """Block *height* where this node's chain holds it."""
        chain = self.chain
        index = height - chain[0].header.height if chain else -1
        return chain[index] if 0 <= index < len(chain) else None

    def block_hash(self, height: int) -> bytes | None:
        """Hash of block *height* where this node holds it: on its
        chain, or among the ancestors a snapshot resync shipped."""
        block = self.block_at(height)
        return block.hash() if block else self.ancestor_hashes.get(height)

    def receipt_of(self, tx_hash: bytes) -> CommittedReceipt | None:
        """*tx_hash*'s committed receipt with its place in the chain, or
        None: not committed here, or pruned. Needs no lock beside a
        commit, prune or reset on another thread: each read is one dict
        or list operation, and an entry whose receipts went between two
        of them reads as pruned."""
        entry = self.tx_index.get(tx_hash)
        block = self.block_at(entry[0]) if entry is not None else None
        receipts = self.receipts.get(block.hash()) if block else None
        if receipts is None:
            return None
        return CommittedReceipt(receipts[entry[1]], *entry)

    def prune_receipts(self, keep: int | None) -> None:
        """Forget the receipts of every block below the newest *keep*
        (None: keep them all), their index entries with them."""
        if keep is None:
            return
        chain, receipts, tx_index = self.chain, self.receipts, self.tx_index
        # The held receipts are a suffix of the chain: walk down from the
        # newest block outside the window to the first one already gone.
        position = len(chain) - keep - 1
        while position >= 0:
            block = chain[position]
            if receipts.pop(block.hash(), None) is None:
                break
            height = block.header.height
            for tx in block.transactions:
                tx_hash = tx.hash()
                entry = tx_index.get(tx_hash)
                if entry is not None and entry[0] == height:
                    del tx_index[tx_hash]
            position -= 1

    def _proposal_header(self, height: int | None = None) -> BlockHeader:
        """The unsealed header this node proposes at *height*: the
        proposer's policy — its clock, its coinbase — stated once."""
        if height is None:
            height = self.height + 1
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
    ) -> list[Transaction] | PackedTake:
        """Take the next block's candidates out of the pool: the one
        statement of the cut, for :meth:`propose_block` and for the
        serve loop, which cuts on the event loop and proposes on a
        worker thread. Reads the pool and its blooms only, never the
        state.

        ``fifo``: :meth:`Mempool.take` — the oldest, by count; the
        proposal measures them and fills by gas *used*, putting the rest
        back. ``conflict_aware``:
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
        return self.mempool.take(max_transactions)

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

        A conflict-aware cut is bounded by the senders' promise (their
        limits) instead. A receipt never uses more than its limit, so
        that bound implies the measured one and such a cut is never
        shortened (its lanes stay valid).

        ``packing="conflict_aware"`` spreads mutually conflicting
        transactions across blocks (and groups them into parallel lanes
        within one), with *packing_policy*
        (:class:`~repro.chain.mempool.PackingPolicy`) controlling lane
        depth and the anti-starvation aging bound. The cut rides on
        ``Block.packed_lanes`` / ``packed_parallelism``.

        The dependency DAG is discovered by executing the block once
        (:func:`~repro.chain.dag.discover_access_sets`; the artifacts
        ride on ``Block.artifacts``) and stored, transitively reduced,
        as the paper's consensus-stage nodes do. That execution is kept:
        the block stays applied, an open proposal for
        :meth:`execute_block` to commit. For ``mtpu`` it is traced, for
        the MTPU to time, and the node's idle slice
        (:class:`~repro.core.hotspot.tracker.HotspotLoop`) runs first,
        between the cut and the discovery.
        """
        engine = _engine(executor)  # before the pool moves
        self.abandon_proposal()
        cut = transactions if transactions is not None else self.cut(
            max_transactions, gas_target, packing, packing_policy
        )
        packed = cut if isinstance(cut, PackedTake) else None
        txs = cut if packed is None else packed.transactions
        header = self._proposal_header()
        context = self.block_context(header)
        if engine.traced:
            _idle_slice(self, context)
        registry = get_registry()
        token = self.state.snapshot()
        artifacts = discover_access_sets(
            txs, self.state, context, trace=engine.traced,
            gas_target=gas_target,
        )
        try:
            if len(artifacts) < len(txs):
                assert packed is None, "a packed cut is never shortened"
                self.mempool.put_back(txs[len(artifacts):])
                txs = txs[:len(artifacts)]
            edges = transitive_reduction(
                len(txs), build_dag_edges(txs, artifacts)
            )
        except Exception:
            self.rollback_block(token)
            raise
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
        self._proposal = _Proposal(
            block, header, token,
            [artifact.receipt for artifact in artifacts], list(artifacts),
            self.state.snapshot(),
        )
        return block

    def abandon_proposal(self) -> None:
        """Roll the open proposal back to where it found the node
        (:meth:`rollback_block`); nothing when none is open."""
        proposal, self._proposal = self._proposal, None
        if proposal is not None:
            self.rollback_block(proposal.token)

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

        Execute-once: every engine commits this node's open proposal
        (:meth:`propose_block`) as its discovery left it, with no engine
        pass — refused, and rolled back, if the state was written since
        (:class:`StaleProposalError`: that write would be sealed into the
        root with no transaction having made it); ``mtpu`` then times it
        (:func:`_time_on_pus`), from a traced proposal only. Any other
        call abandons the open proposal first (:meth:`abandon_proposal`).
        Every other block — another node's proposal, recovery, replicas,
        hand-built or decoded blocks — runs every transaction through the
        EVM, as the paper's verifying nodes do (``parallel`` and ``mtpu``
        as a discovery of their own that checks the shipped DAG).
        """
        engine = _engine(executor)
        proposal = self._proposal
        own = proposal is not None and proposal.commits(block, engine)
        if not own:
            self.abandon_proposal()
        self._proposal = None
        token = proposal.token if own else self.state.snapshot()
        try:
            if own:
                if self.state.snapshot() != proposal.mark:
                    raise StaleProposalError(
                        f"block {block.header.height}: the state was "
                        "written between propose_block and execute_block"
                    )
                receipts = proposal.receipts
                if engine.traced:
                    _time_on_pus(
                        self, block, proposal.artifacts, block.dag_edges,
                        num_workers, fault_injector,
                    )
            else:
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
        """Append an executed block: chain, receipts and their index,
        mempool, journal.

        The caller has already applied the block's state effects; this
        is the one shared commit path and the one place the journal is
        cleared (*token*: the snapshot from before the block touched the
        state; by default everything journaled since the last commit).
        With a store attached the WAL append (and, per policy, the
        fsync) happens first — a crash after this method returns costs
        nothing that was committed.

        When Merkleizing, the witness (which needs the *pre-block* trie
        shape and the block's journal entries unfolded) is built first,
        then the header is sealed with the post-block root, so the WAL
        record and the chain both carry the sealed header.

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
        landed = self.state.code_written()
        self.state.clear_journal()
        self.chain.append(block)
        self.receipts[block.hash()] = receipts
        # After the receipts: an entry the index holds always finds them.
        height = block.header.height
        tx_index = self.tx_index
        for index, tx in enumerate(block.transactions):
            tx_index[tx.hash()] = (height, index)
        # Warm the decoded-program cache for code deployed in this block
        # (an inner CREATE's too) so the very next call to a fresh
        # contract skips the AOT decode. Raw account reads: no access
        # tracking, no journal.
        accounts = self.state._accounts
        for address in landed:
            account = accounts.get(address)
            if account is not None and account.code:
                warm_code(account.code)
        self.mempool.remove(block.transactions)
        # A pooled plain-transfer bloom holds while its recipient has no
        # code: the ones pooled for an address this block wrote code at
        # are derived again.
        self.mempool.code_landed(landed)

    def rollback_block(self, token: int, folded: bool = False) -> None:
        """Put the node back where a block found it: the state at
        *token*, the journal empty, the trie its mirror (nothing else
        is written before the last thing that can fail).

        Execution leaves the trie alone, so folding the journal entries
        the revert leaves (writes made before *token*, e.g. an injected
        fault's) restores it. *folded*: the seal folded the block in, and
        only a rebuild undoes that — O(state), fault-only, and required:
        this node keeps answering proofs, and one cut from the
        un-rolled-back trie would bind diverged contents to a root no
        header sealed.
        """
        self.state.revert(token)
        if self.trie is not None:
            if folded:
                self.attach_trie()
            else:
                self.trie.update(self.state)
        self.state.clear_journal()

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

        Verification never takes a proposal's word: an open proposal is
        abandoned first and every transaction runs through the EVM,
        whatever the block carries — checking a proposer's results by
        committing the proposer's own execution would check nothing.
        """
        self.abandon_proposal()  # a block under verification is nobody's own
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
    #: True: its discovery records the dataflow trace, the node's idle
    #: slice runs before it, and every block it commits — its own
    #: proposal included — is then timed on the MTPU.
    traced: bool = False


def _checked_artifacts(node, block, context, traced=False):
    """A discovery here — the block's one execution, left applied — and
    the shipped DAG checked against it, rebuilt on a lie (``faults.*``
    count it)."""
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


def walk_in_order(state, transactions, context=None):
    """The in-order walk over *state*: one EVM pass in block order.
    Returns the receipts."""
    execute = EVM(state, block=context).execute_transaction
    return [execute(tx) for tx in transactions]


def _run_sequential(node, block, context, num_workers, fault_injector):
    return walk_in_order(node.state, block.transactions, context)


def _run_parallel(node, block, context, num_workers, fault_injector):
    """One untraced discovery here, applied, with the shipped DAG
    checked against it; the receipts are the discovery's. Block order is
    a topological order of any DAG over the block, so the DAG orders
    nothing here."""
    artifacts, _ = _checked_artifacts(node, block, context)
    return [artifact.receipt for artifact in artifacts]


# ``mtpu`` lives in packages that import this one, so they are imported
# when first run.
def _idle_slice(node, context) -> None:
    """The idle slice before a block's discovery: the node's hotspot
    loop (made on first use) folds the chain and profiles."""
    from ..core.hotspot.tracker import HotspotLoop

    if node.hotspots is None:
        node.hotspots = HotspotLoop(node.state)
    node.hotspots.before_block(node, context)


def _time_on_pus(node, block, artifacts, edges, num_workers,
                 fault_injector) -> None:
    """Time the applied block's traced *artifacts* on *num_workers* PUs
    under the spatio-temporal schedule, with the idle slice's hotspot
    plans, and audit the schedule (:func:`check_schedule_order` raises
    on a reordered conflicting pair). A PU fault converges inside the
    schedule."""
    from ..core.mtpu import MTPUExecutor
    from ..core.scheduler import run_spatial_temporal

    executor = MTPUExecutor(
        artifacts, num_pus=num_workers,
        hotspot_optimizer=node.hotspots.optimizer,
    )
    schedule = run_spatial_temporal(
        executor, block.transactions, edges, fault_injector=fault_injector
    )
    check_schedule_order(block.transactions, artifacts, schedule.executions)
    registry = get_registry()
    if registry.enabled:
        registry.counter("sched.makespan_cycles").inc(
            schedule.makespan_cycles
        )


def _run_mtpu(node, block, context, num_workers, fault_injector):
    """The paper's verifying node: the idle slice, a traced discovery
    that checks the shipped DAG, then the block timed on the MTPU. A
    wrong result is the receipts-root claim's to refuse."""
    _idle_slice(node, context)
    artifacts, edges = _checked_artifacts(node, block, context, traced=True)
    _time_on_pus(node, block, artifacts, edges, num_workers, fault_injector)
    return [artifact.receipt for artifact in artifacts]


#: The only place engines are named. ``sequential``: the EVM in block
#: order; ``mtpu``: a traced discovery timed on the MTPU simulator
#: under the spatio-temporal schedule, with the hotspot loop;
#: ``parallel``: a discovery in block order that checks the shipped
#: DAG. ``Node.execute_block`` runs no engine over this node's own open
#: proposal: it commits it (and ``mtpu`` times it).
ENGINES = {
    "sequential": Engine(_run_sequential),
    "mtpu": Engine(_run_mtpu, traced=True),
    "parallel": Engine(_run_parallel),
}
EXECUTORS = tuple(ENGINES)


def _engine(executor: str) -> Engine:
    try:
        return ENGINES[executor]
    except KeyError:
        raise ValueError(
            f"unknown executor {executor!r}: expected one of {EXECUTORS}"
        ) from None
