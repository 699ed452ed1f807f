"""Deterministic (seeded) fault injection at the plan's named sites.

The injector is the *adversary half* of the framework: given a
:class:`~repro.faults.plan.FaultPlan` it corrupts blocks, roots,
transaction streams, PUs and hotspot profiles. Every mutation is drawn
from ``random.Random(plan.seed)``, so a failing run replays exactly.
The ``injected`` counter records what was actually injected, which the
acceptance tests compare against the defender's ``faults.*`` counters
(:class:`~repro.faults.report.DegradationReport`).
"""

from __future__ import annotations

import random
from collections import Counter

from ..chain.transaction import Transaction
from .plan import FaultPlan, PUFault

#: Gas limit guaranteed to be below any transaction's intrinsic gas.
_MALFORMED_GAS_LIMIT = 100

#: Address pool for fabricated hostile senders (never funded in genesis).
_HOSTILE_SENDER_BASE = 0xBAD0_0000_0000


class SimulatedCrashError(BaseException):
    """Raised at an armed crash point to model sudden process death —
    not an :class:`Exception`: no fallback or rollback runs after it."""


class FaultInjector:
    """Applies a :class:`FaultPlan` at each injection site."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.rng = random.Random(plan.seed)
        #: What was actually injected, keyed by fault class.
        self.injected: Counter[str] = Counter()

    # ------------------------------------------------------------------
    # Consensus stage: the block-embedded DAG and the claimed root
    # ------------------------------------------------------------------
    def corrupt_dag(
        self, count: int, edges: list[tuple[int, int]]
    ) -> list[tuple[int, int]]:
        """Return a corrupted copy of a block's dependency edges."""
        spec = self.plan.dag
        corrupted = list(edges)
        if spec is None or not spec.active or count < 2:
            return corrupted

        for _ in range(min(spec.drop_edges, len(corrupted))):
            victim = self.rng.randrange(len(corrupted))
            corrupted.pop(victim)
            self.injected["dag_edge_dropped"] += 1

        present = set(corrupted)
        attempts = 0
        added = 0
        while added < spec.bogus_edges and attempts < 50 * spec.bogus_edges:
            attempts += 1
            i, j = sorted(self.rng.sample(range(count), 2))
            if (i, j) in present:
                continue
            corrupted.append((i, j))
            present.add((i, j))
            self.injected["dag_edge_bogus"] += 1
            added += 1

        if spec.make_cycle:
            if corrupted:
                i, j = self.rng.choice(corrupted)
            else:
                i, j = 0, 1
                corrupted.append((i, j))
            corrupted.append((j, i))
            self.injected["dag_cycle"] += 1
        return corrupted

    def corrupt_root(self, root: bytes) -> bytes:
        """Flip one byte of the claimed receipts root."""
        if not self.plan.corrupt_receipts_root or not root:
            return root
        position = self.rng.randrange(len(root))
        mutated = bytearray(root)
        mutated[position] ^= 0xFF
        self.injected["root_corrupted"] += 1
        return bytes(mutated)

    # ------------------------------------------------------------------
    # Dissemination stage: hostile transactions
    # ------------------------------------------------------------------
    def hostile_transactions(
        self, honest: list[Transaction]
    ) -> list[Transaction]:
        """Fabricate the plan's malformed/duplicate/underfunded stream.

        The caller disseminates the returned transactions alongside the
        honest traffic; mempool admission is expected to reject them all.
        """
        spec = self.plan.txs
        if spec is None or not spec.active:
            return []
        hostile: list[Transaction] = []
        for n in range(spec.malformed):
            hostile.append(
                Transaction(
                    sender=_HOSTILE_SENDER_BASE + self.rng.randrange(1 << 16),
                    to=self.rng.randrange(1, 1 << 20),
                    gas_limit=_MALFORMED_GAS_LIMIT,
                    data=b"\xde\xad\xbe\xef" * (n + 1),
                )
            )
            self.injected["tx_malformed"] += 1
        for _ in range(min(spec.duplicates, len(honest))):
            hostile.append(self.rng.choice(honest))
            self.injected["tx_duplicate"] += 1
        for _ in range(spec.underfunded):
            hostile.append(
                Transaction(
                    sender=_HOSTILE_SENDER_BASE + self.rng.randrange(1 << 16),
                    to=self.rng.randrange(1, 1 << 20),
                    value=1 + self.rng.randrange(10**18),
                )
            )
            self.injected["tx_underfunded"] += 1
        return hostile

    # ------------------------------------------------------------------
    # Execution stage: PU failures
    # ------------------------------------------------------------------
    def pu_faults(self, num_pus: int) -> dict[int, PUFault]:
        """The plan's PU faults applicable to a machine with *num_pus*."""
        applicable: dict[int, PUFault] = {}
        for fault in self.plan.pu_faults:
            if fault.pu_id < num_pus:
                applicable[fault.pu_id] = fault
                self.injected[f"pu_{fault.kind}"] += 1
        return applicable

    # ------------------------------------------------------------------
    # Durable store: crash windows and at-rest corruption
    # ------------------------------------------------------------------
    def crash_point(self, site: str) -> None:
        """Hook the store fires at named crash windows.

        With ``storage.crash_between_wal_and_snapshot`` armed, the
        ``between_wal_and_snapshot`` site raises — the block is already
        durable in the WAL, its snapshot never lands, and recovery has
        to come from the previous anchor. Fires once per run: the drill
        is one crash, not a store that can never snapshot.
        """
        spec = self.plan.storage
        if (
            site == "between_wal_and_snapshot"
            and spec is not None
            and spec.crash_between_wal_and_snapshot
            and not self.injected["crash_between_wal_and_snapshot"]
        ):
            self.injected["crash_between_wal_and_snapshot"] += 1
            raise SimulatedCrashError(f"injected crash at {site!r}")

    def corrupt_wal(self, data_dir: str) -> list[str]:
        """Damage a data directory's WAL at rest, per the plan.

        Returns descriptions of what was done. Torn tail: the final
        record loses its last bytes (a partial write). CRC corruption:
        one payload byte of ``corrupt_record`` flips — on the final
        record that is tail damage, earlier it is mid-log corruption.
        """
        import os

        from ..storage.wal import RECORD_HEADER, scan_wal

        spec = self.plan.storage
        applied: list[str] = []
        if spec is None or not spec.active:
            return applied
        wal_path = os.path.join(data_dir, "wal.log")
        scan = scan_wal(wal_path)
        if not scan.records:
            return applied

        if spec.torn_tail:
            cut = 1 + self.rng.randrange(
                max(1, len(scan.records[-1]) // 2)
            )
            with open(wal_path, "r+b") as fh:
                fh.truncate(scan.valid_bytes - cut)
            self.injected["wal_torn_tail"] += 1
            applied.append(f"tore {cut} bytes off the final record")

        if spec.corrupt_record is not None:
            index = spec.corrupt_record % len(scan.records)
            offset = sum(
                len(record) + RECORD_HEADER.size
                for record in scan.records[:index]
            ) + RECORD_HEADER.size
            offset += self.rng.randrange(len(scan.records[index]))
            with open(wal_path, "r+b") as fh:
                fh.seek(offset)
                byte = fh.read(1)
                fh.seek(offset)
                fh.write(bytes([byte[0] ^ 0xFF]))
            self.injected["wal_crc_corrupted"] += 1
            applied.append(
                f"flipped a payload byte of record {index} "
                f"at offset {offset}"
            )
        return applied

    # ------------------------------------------------------------------
    # Replication tier: network faults
    # ------------------------------------------------------------------
    def tear_stream(self, blocks_sent: int) -> bool:
        """True when the writer should sever this stream connection now.

        Fires once per torn connection, at most ``tear_count`` times
        total — the drill is a flaky link the replica must survive, not
        a permanently severed one.
        """
        spec = self.plan.network
        if spec is None or spec.tear_after_blocks is None:
            return False
        if self.injected["stream_torn"] >= spec.tear_count:
            return False
        if blocks_sent >= spec.tear_after_blocks:
            self.injected["stream_torn"] += 1
            return True
        return False

    def stall_follower(self) -> float:
        """Seconds the follower should sleep before applying a block."""
        spec = self.plan.network
        if spec is None or spec.stall_apply_s <= 0:
            return 0.0
        self.injected["follower_stalled"] += 1
        return spec.stall_apply_s

    def partitioned(self) -> bool:
        """True while the partition still refuses connection attempts."""
        spec = self.plan.network
        if spec is None or spec.partition_connects <= 0:
            return False
        if self.injected["connect_refused"] < spec.partition_connects:
            self.injected["connect_refused"] += 1
            return True
        return False

    def corrupt_replica_state(self, state, height: int) -> bool:
        """The divergence drill: flip one balance in applied state.

        Mutates through the state's own setters and leaves the journal
        entry in place, so the corruption *will* be folded into the next
        root update, which is exactly what the replica's per-block
        state-root check must catch. Fires once.
        """
        spec = self.plan.network
        if spec is None or spec.corrupt_at_height != height:
            return False
        if self.injected["replica_state_corrupted"]:
            return False
        addresses = state.addresses()
        if not addresses:
            return False
        victim = self.rng.choice(addresses)
        with state.untracked():
            state.set_balance(victim, state.get_balance(victim) + 1)
        self.injected["replica_state_corrupted"] += 1
        return True

    # ------------------------------------------------------------------
    # Idle slice: stale hotspot profiles
    # ------------------------------------------------------------------
    def poison_profiles(self, state) -> list[int]:
        """Mutate planned contracts *after* they were profiled.

        Appends a dead ``0x00`` (STOP) byte to the contract's code —
        behaviour-preserving but hash-changing — and touches nothing
        else, modelling a contract upgraded between pre-execution and
        block arrival. Returns the addresses poisoned.
        """
        poisoned: list[int] = []
        for address in self.plan.stale_profiles:
            code = state.get_code(address)
            if not code:
                continue
            state.set_code(address, code + b"\x00")
            self.injected["stale_profile"] += 1
            poisoned.append(address)
        return poisoned
