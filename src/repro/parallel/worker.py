"""Process-pool worker side of the parallel execution backend.

Each worker process holds a *pristine* copy of the block-entry world
state, installed once by :func:`init_worker` when the pool starts (cheap
under ``fork``, and explicit enough to survive ``spawn``). A task ships
only a transaction plus a small *overlay* — the committed post-values of
the keys the transaction is declared to touch — so per-task IPC stays
proportional to the transaction's access set, not to the world state.

The worker applies the overlay under a journal snapshot, executes the
transaction with access tracking on, captures the write journal from the
structured state journal, and reverts — leaving the base pristine for
the next task. The coordinator receives ``(receipt, access, ops,
read_values)`` and decides whether the actual access set honours the
declared one, or whether what was read still holds. Its own end of the
pool, the same for both engines, is :class:`PoolHolder`.
"""

from __future__ import annotations

import pickle
from concurrent.futures import ProcessPoolExecutor

from ..chain.journal import ExecutionArtifact, execute_captured
from ..chain.state import BALANCE_KEY, CODE_KEY, NONCE_KEY, WorldState
from ..chain.transaction import Transaction

#: Per-process state installed by :func:`init_worker`.
_BASE: WorldState | None = None
_CONTEXT = None


def snapshot_accounts(state: WorldState) -> bytes:
    """Serialize a world state's accounts for worker initialization."""
    return pickle.dumps(state._accounts, protocol=pickle.HIGHEST_PROTOCOL)


def context_args(context) -> dict:
    """The picklable fields of a BlockContext (the blockhash service is
    process-local; callers must not dispatch BLOCKHASH-dependent work)."""
    return {
        "height": context.height,
        "timestamp": context.timestamp,
        "coinbase": context.coinbase,
        "difficulty": context.difficulty,
        "gas_limit": context.gas_limit,
    }


class PoolHolder:
    """The coordinator's side of the pool, shared by both engines.

    The pool is persistent: created lazily on the first dispatch, seeded
    with the then-current state, kept across ``execute_block`` calls.
    ``_committed`` holds the post-values committed since that seed (task
    overlays are cut from it); ``_pool_dirty`` says the state has moved
    in a way overlays cannot express — a sequential fallback, an account
    deletion — so the next dispatch starts a fresh pool.
    """

    def __init__(
        self,
        state: WorldState,
        block=None,
        num_workers: int = 4,
        backend: str = "process",
    ) -> None:
        from ..evm.context import BlockContext, _no_blockhash

        if backend not in ("process", "serial"):
            raise ValueError(f"unknown backend {backend!r}")
        self.state = state
        self.block = block or BlockContext()
        self.num_workers = max(1, num_workers)
        if self.block.blockhash_fn is not _no_blockhash:
            # A custom BLOCKHASH service cannot cross the process
            # boundary; degrade to coordinator-side execution.
            backend = "serial"
        self.backend = backend
        self._pool: ProcessPoolExecutor | None = None
        self._committed: dict[tuple, object] = {}
        self._pool_dirty = False

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool_dirty:
            self.close()
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.num_workers,
                initializer=init_worker,
                initargs=(
                    snapshot_accounts(self.state),
                    context_args(self.block),
                ),
            )
            self._committed = {}
            self._pool_dirty = False
        return self._pool

    def warm(self) -> None:
        """Spin up and initialize every pool worker ahead of the first
        block (steady-state serving keeps the pool across blocks; calling
        this keeps one-shot measurements honest about that). No-op on the
        serial backend."""
        if self.backend != "process":
            return
        pool = self._ensure_pool()
        for future in [
            pool.submit(ping) for _ in range(self.num_workers)
        ]:
            future.result()

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def init_worker(accounts_blob: bytes, ctx_args: dict) -> None:
    """Pool initializer: install the base state and block context."""
    global _BASE, _CONTEXT
    from ..evm.context import BlockContext
    from ..evm.decoded import warm_state_codes

    state = WorldState()
    state._accounts = pickle.loads(accounts_blob)
    _BASE = state
    _CONTEXT = BlockContext(**ctx_args)
    # Pre-decode every deployed contract once per *worker process*: each
    # transaction executed by this worker then hits the decoded-program
    # cache instead of re-running the AOT pass per task.
    warm_state_codes(state)


def apply_overlay(state: WorldState, overlay: dict) -> None:
    """Install committed post-values onto *state* (journaled, untracked)."""
    with state.untracked():
        for (address, slot), value in overlay.items():
            if slot == BALANCE_KEY:
                state.set_balance(address, value)
            elif slot == NONCE_KEY:
                state.set_nonce(address, value)
            elif slot == CODE_KEY:
                state.set_code(address, value)
            else:
                state.set_storage(address, slot, value)


def ping() -> bool:
    """No-op task: forces a pool worker to spawn and run its initializer."""
    return _BASE is not None


def execute_task(tx: Transaction, overlay: dict) -> tuple:
    """Run one transaction against base ⊕ overlay; leave the base pristine.

    Returns ``(receipt, access, ops, read_values)``: *ops* is the
    transaction's write journal (tagged tuples, see
    :mod:`repro.chain.journal`) and *read_values* maps each
    ``(address, slot)`` it read to the value it observed, which the
    speculative (OCC) coordinator validates against the authoritative
    state at commit time.
    """
    artifact = speculate_on(_BASE, _CONTEXT, tx, overlay)
    return (artifact.receipt, artifact.access, artifact.journal.ops,
            artifact.read_values)


def speculate_on(
    state: WorldState, context, tx: Transaction, overlay: dict
) -> ExecutionArtifact:
    """One speculation on *state* ⊕ *overlay* — a pool worker's base or
    the coordinator's own state: overlay under a snapshot, execute
    tracked, capture, revert. *state* is left as it was found."""
    token = state.snapshot()
    try:
        if overlay:
            apply_overlay(state, overlay)
        return execute_captured(state, tx, context)
    finally:
        state.revert(token)
