"""Declarative fault plans: *what* to break, *where*, and *when*.

A :class:`FaultPlan` names the injection sites the framework supports —
one field per site — and is consumed by a seeded
:class:`repro.faults.injector.FaultInjector`, so a plan plus a seed
reproduces the exact same hostile behaviour on every run.

Sites mirror the three-stage node model (paper Fig. 4):

* **consensus** — the block-embedded dependency DAG
  (:class:`DagCorruption`) and the claimed receipts root
  (``corrupt_receipts_root``);
* **dissemination** — malformed / duplicate / underfunded transactions
  (:class:`TxCorruption`);
* **execution** — PU death or transient stalls inside the MTPU
  (:class:`PUFault`) and hotspot profiles invalidated by contract
  changes after pre-execution (``stale_profiles``).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class DagCorruption:
    """Corrupt the block-embedded dependency DAG before it ships."""

    #: Randomly delete this many real dependency edges (breaks
    #: conflict coverage: dependent transactions look independent).
    drop_edges: int = 0
    #: Insert this many fabricated forward edges between unrelated
    #: transactions (over-serializes the schedule).
    bogus_edges: int = 0
    #: Insert one backward edge closing a cycle through an existing edge.
    make_cycle: bool = False

    @property
    def active(self) -> bool:
        return bool(self.drop_edges or self.bogus_edges or self.make_cycle)


@dataclass(frozen=True)
class TxCorruption:
    """Inject hostile transactions at the dissemination stage."""

    #: Transactions whose gas limit is below their intrinsic gas.
    malformed: int = 0
    #: Exact duplicates of already-disseminated transactions.
    duplicates: int = 0
    #: Value-bearing transactions from senders with zero balance.
    underfunded: int = 0

    @property
    def active(self) -> bool:
        return bool(self.malformed or self.duplicates or self.underfunded)


@dataclass(frozen=True)
class StorageCorruption:
    """Crash-fault drills against the durable store.

    ``corrupt_wal`` applies the torn-tail / CRC damage to a data
    directory *at rest* (between runs); ``crash_between_wal_and_snapshot``
    arms the :meth:`~repro.faults.injector.FaultInjector.crash_point`
    hook the store fires after a block's WAL append but before its
    snapshot write — the widest crash window in the commit path.
    """

    #: Cut bytes off the final WAL record (simulates a torn write).
    torn_tail: bool = False
    #: Flip a payload byte of this record index (None: no CRC damage).
    #: Negative indexes count from the end (-1 = final record → tail
    #: damage; an earlier index → mid-log corruption).
    corrupt_record: int | None = None
    #: Raise :class:`~repro.faults.injector.SimulatedCrashError` at the
    #: between-WAL-and-snapshot crash point.
    crash_between_wal_and_snapshot: bool = False

    @property
    def active(self) -> bool:
        return bool(
            self.torn_tail
            or self.corrupt_record is not None
            or self.crash_between_wal_and_snapshot
        )


@dataclass(frozen=True)
class NetworkFault:
    """Replication-tier network adversity.

    These are the drills the replication layer must survive without
    operator help: a writer that drops the stream mid-block, a follower
    that applies slowly, a partition that refuses connections for a
    while, and — the one that must never be survivable silently — a
    follower whose state is corrupted between blocks so its re-executed
    state root diverges from the one the writer sealed.
    """

    #: Sever the writer→replica stream after this many BLOCK messages
    #: on a connection (None: never). The replica sees a torn stream
    #: and must reconnect with backoff.
    tear_after_blocks: int | None = None
    #: How many connections to tear in total (the drill is a flaky
    #: link, not a permanently severed one).
    tear_count: int = 1
    #: Sleep this long in the follower before applying each block (a
    #: stalled follower: lag grows, the proxy must eject it).
    stall_apply_s: float = 0.0
    #: Refuse this many consecutive connection attempts (a partition;
    #: the replica keeps backing off until it lifts).
    partition_connects: int = 0
    #: Corrupt the replica's world state just before it applies this
    #: block height. The state-root check must catch it — the byte is
    #: flipped *past* the stream CRC, in applied state.
    corrupt_at_height: int | None = None

    @property
    def active(self) -> bool:
        return bool(
            self.tear_after_blocks is not None
            or self.stall_apply_s > 0
            or self.partition_connects
            or self.corrupt_at_height is not None
        )


#: PU fault kinds.
PU_DEAD = "dead"
PU_STALL = "stall"


@dataclass(frozen=True)
class PUFault:
    """One processing unit failing during block execution."""

    pu_id: int
    #: :data:`PU_DEAD` (permanent) or :data:`PU_STALL` (transient).
    kind: str = PU_DEAD
    #: Simulator cycle at which the failure strikes.
    at_cycle: int = 0
    #: For stalls: cycles until the PU comes back.
    stall_cycles: int = 0

    def __post_init__(self) -> None:
        if self.kind not in (PU_DEAD, PU_STALL):
            raise ValueError(f"unknown PU fault kind {self.kind!r}")
        if self.kind == PU_STALL and self.stall_cycles <= 0:
            raise ValueError("a stall fault needs stall_cycles > 0")


@dataclass(frozen=True)
class FaultPlan:
    """Everything an adversarial run will throw at the node."""

    seed: int = 0
    dag: DagCorruption | None = None
    #: Flip a byte of the claimed receipts root in the consensus message.
    corrupt_receipts_root: bool = False
    txs: TxCorruption | None = None
    pu_faults: tuple[PUFault, ...] = field(default_factory=tuple)
    #: Contract addresses whose state is mutated *after* the hotspot
    #: optimizer profiled them (stale-profile fault).
    stale_profiles: tuple[int, ...] = field(default_factory=tuple)
    #: Crash faults against the durable store.
    storage: StorageCorruption | None = None
    #: Network faults against the replication tier.
    network: NetworkFault | None = None

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for fault in self.pu_faults:
            if fault.pu_id in seen:
                raise ValueError(
                    f"duplicate PU fault for pu_id={fault.pu_id}"
                )
            seen.add(fault.pu_id)

    @property
    def empty(self) -> bool:
        return not (
            (self.dag and self.dag.active)
            or self.corrupt_receipts_root
            or (self.txs and self.txs.active)
            or self.pu_faults
            or self.stale_profiles
            or (self.storage and self.storage.active)
            or (self.network and self.network.active)
        )
