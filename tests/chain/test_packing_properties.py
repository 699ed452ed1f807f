"""Pack-equivalence property harness for conflict-aware block packing.

The tentpole invariant: a chain cut by ``Mempool.take_packed`` commits
**bit-identical state** to FIFO replay of the same transaction set. The
workloads here are deliberately order-*sensitive* — senders with tight
balances whose transfers succeed or fail depending on credits from
earlier transactions — so any reordering of a conflicting pair would
change which transfers fail and fork the digest. Alongside it:

* lanes never contain a cross-lane real conflict (blooms have no false
  negatives, so bloom-disjoint lanes are really disjoint);
* no starvation: every transaction is included within (rank + 1) cuts
  even under a continuous hot-key flood, and the aging bound holds;
* the parity survives the MTPU executor with injected PU faults;
* the packer's own invariants, stated over blooms alone (no execution):
  lanes partition the cut and never ``may_conflict`` across, the cap
  holds unless something was forced, nothing left behind conflicts with
  a younger selected transaction, nothing is deferred needlessly, and a
  closed loop of the ``hotburst`` mix keeps cutting full blocks.
"""

from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.bloom import AccessBloom
from repro.chain.mempool import Mempool, PackingPolicy
from repro.chain.node import Node
from repro.chain.state import WorldState
from repro.chain.transaction import Transaction
from repro.faults import PU_DEAD, FaultInjector, FaultPlan, PUFault

#: Small, overlapping account pool with tight balances: transfers
#: frequently conflict AND the conflict order decides which ones fail.
ACCOUNTS = [0x100 + i for i in range(6)]

transfer_specs = st.lists(
    st.tuples(
        st.integers(0, len(ACCOUNTS) - 1),  # sender index
        st.integers(0, len(ACCOUNTS) - 1),  # recipient index
        st.integers(1, 30),                 # value (can exceed balance)
    ),
    min_size=2,
    max_size=24,
)

policies = st.builds(
    PackingPolicy,
    lane_depth=st.one_of(st.none(), st.integers(1, 4)),
    aging_bound=st.integers(0, 4),
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
            sender=sender,
            to=ACCOUNTS[recipient_idx],
            value=value,
            nonce=nonces[sender],
            gas_limit=50_000,
        ))
    return txs


def build_chain(balances, txs, packing, policy=None, block_size=4,
                executor=None):
    node = Node(state=seed_state(balances))
    for at, tx in enumerate(txs):
        node.hear(tx, at=at)
    blocks = []
    while len(node.mempool):
        block = node.propose_block(
            max_transactions=block_size,
            packing=packing,
            packing_policy=policy,
        )
        assert block.transactions, "a cut must always make progress"
        if executor is None:
            node.execute_block(block)
        else:
            executor(node, block)
        blocks.append(block)
    return node, blocks


def receipts_by_hash(node):
    out = {}
    for block in node.chain:
        for tx, receipt in zip(
            block.transactions, node.receipts[block.hash()]
        ):
            out[tx.hash()] = receipt
    return out


@settings(max_examples=40, deadline=None)
@given(
    balances=st.lists(
        st.integers(1, 40),
        min_size=len(ACCOUNTS), max_size=len(ACCOUNTS),
    ),
    specs=transfer_specs,
    policy=policies,
    block_size=st.integers(1, 6),
)
def test_packed_chain_is_digest_identical_to_fifo(
    balances, specs, policy, block_size
):
    txs = make_txs(specs)
    fifo, _ = build_chain(balances, txs, "fifo", block_size=block_size)
    packed, packed_blocks = build_chain(
        balances, txs, "conflict_aware", policy=policy,
        block_size=block_size,
    )
    assert (fifo.state.state_digest()
            == packed.state.state_digest())
    # Same per-transaction receipts, not just the same final state.
    assert receipts_by_hash(fifo) == receipts_by_hash(packed)
    # Every transaction committed exactly once.
    committed = [
        tx.hash() for b in packed_blocks for tx in b.transactions
    ]
    assert sorted(committed) == sorted(tx.hash() for tx in txs)


@settings(max_examples=40, deadline=None)
@given(
    balances=st.lists(
        st.integers(1, 40),
        min_size=len(ACCOUNTS), max_size=len(ACCOUNTS),
    ),
    specs=transfer_specs,
    policy=policies,
)
def test_lanes_never_share_a_real_conflict(balances, specs, policy):
    """Cross-lane pairs are disjoint in their *executed* access sets —
    the contract that lets a dispatcher run lanes with no DAG edges
    between them."""
    txs = make_txs(specs)
    _, blocks = build_chain(
        balances, txs, "conflict_aware", policy=policy, block_size=6
    )
    for block in blocks:
        assert block.packed_lanes is not None
        # The lanes partition the block.
        flat = sorted(i for lane in block.packed_lanes for i in lane)
        assert flat == list(range(len(block.transactions)))
        lane_of = {
            i: lane_idx
            for lane_idx, lane in enumerate(block.packed_lanes)
            for i in lane
        }
        artifacts = block.artifacts
        for i in range(len(block.transactions)):
            for j in range(i + 1, len(block.transactions)):
                if lane_of[i] != lane_of[j]:
                    assert not artifacts[i].access.conflicts_with(
                        artifacts[j].access
                    ), (i, j)


def test_cold_transaction_rides_past_a_hot_prefix():
    """A non-conflicting transaction is never deferred — it fills the
    block the hot chain cannot."""
    state = WorldState()
    for account in (0xA, 0xB):
        state.set_balance(account, 10**9)
    state.clear_journal()
    pool = Mempool(state=state)
    hot = 0xAB00
    for i in range(10):
        pool.add(Transaction(sender=0xA, to=hot, value=1, nonce=i + 1,
                             gas_limit=50_000))
    cold = Transaction(sender=0xB, to=0xCD00, value=1, nonce=1,
                       gas_limit=50_000)
    pool.add(cold)
    take = pool.take_packed(
        4, policy=PackingPolicy(lane_depth=2, aging_bound=8)
    )
    hashes = [tx.hash() for tx in take.transactions]
    assert cold.hash() in hashes
    assert len(take.lanes) == 2 and take.deferred > 0


def test_every_deferred_tx_included_within_rank_plus_one_cuts():
    """Anti-starvation under continuous flood: a transaction at backlog
    rank r commits within r+1 cuts, however much newer hot traffic
    keeps arriving behind it."""
    hot = 0xAB00
    state = WorldState()
    senders = [0x500 + i for i in range(4)]
    for sender in senders:
        state.set_balance(sender, 10**9)
    state.clear_journal()
    pool = Mempool(state=state)
    nonces = dict.fromkeys(senders, 0)

    def hot_tx(i):
        sender = senders[i % len(senders)]
        nonces[sender] += 1
        return Transaction(sender=sender, to=hot, value=1,
                           nonce=nonces[sender], gas_limit=50_000)

    victim_rank = 19
    for i in range(victim_rank):
        pool.add(hot_tx(i))
    victim = hot_tx(victim_rank)
    pool.add(victim)
    policy = PackingPolicy(lane_depth=2, aging_bound=3)
    cuts = 0
    while pool.contains(victim):
        cuts += 1
        assert cuts <= victim_rank + 1, "victim starved"
        take = pool.take_packed(8, policy=policy)
        assert take.transactions, "cuts must always make progress"
        # The flood: more conflicting traffic lands behind the victim.
        for i in range(8):
            pool.add(hot_tx(1000 + cuts * 8 + i))
    assert cuts <= victim_rank + 1


@settings(max_examples=15, deadline=None)
@given(
    balances=st.lists(
        st.integers(1, 40),
        min_size=len(ACCOUNTS), max_size=len(ACCOUNTS),
    ),
    specs=transfer_specs,
    dead=st.lists(st.integers(0, 3), min_size=1, max_size=3,
                  unique=True),
    at_cycle=st.integers(0, 2_000),
)
def test_packed_chain_survives_pu_faults(balances, specs, dead, at_cycle):
    """Packed blocks through the MTPU with dead PUs still land on the
    FIFO digest — degradation, never divergence."""
    txs = make_txs(specs)
    fifo, _ = build_chain(balances, txs, "fifo")

    def mtpu_execute(node, block):
        injector = FaultInjector(FaultPlan(
            seed=7,
            pu_faults=tuple(
                PUFault(pu_id=p, kind=PU_DEAD, at_cycle=at_cycle)
                for p in dead
            ),
        ))
        node.execute_block(
            block, executor="mtpu", num_workers=4, fault_injector=injector
        )

    packed, _ = build_chain(
        balances, txs, "conflict_aware",
        policy=PackingPolicy(lane_depth=2, aging_bound=2),
        executor=mtpu_execute,
    )
    assert (fifo.state.state_digest()
            == packed.state.state_digest())
    assert receipts_by_hash(fifo) == receipts_by_hash(packed)


# -- packer invariants, from blooms alone -----------------------------------
SENDERS = [0x700 + i for i in range(8)]
RECIPIENTS = [0x800 + i for i in range(4)]
CONTRACT = 0xC0DE00

#: Transfers (derived blooms), tagged contract calls (declared blooms
#: over a four-slot key space) and untagged ones (opaque), mixed.
bloom_specs = st.lists(
    st.tuples(
        st.integers(0, len(SENDERS) - 1),
        st.sampled_from(["transfer"] * 3 + ["declared"] * 3 + ["opaque"]),
        st.integers(0, len(RECIPIENTS) - 1),
        st.frozensets(st.integers(0, 3), max_size=2),  # declared reads
        st.frozensets(st.integers(0, 3), max_size=2),  # declared writes
    ),
    min_size=1,
    max_size=24,
)


def bloom_pool(specs):
    """A pool of the specified transactions, plus each one's bloom and
    arrival rank by hash."""
    state = WorldState()
    for sender in SENDERS:
        state.set_balance(sender, 10**9)
    state.set_code(CONTRACT, b"\x00")
    state.clear_journal()
    pool = Mempool(state=state)
    txs = []
    for nonce, (sender_idx, kind, recipient_idx, reads, writes) in (
        enumerate(specs)
    ):
        if kind == "transfer":
            tx = Transaction(
                sender=SENDERS[sender_idx], to=RECIPIENTS[recipient_idx],
                value=1, nonce=nonce, gas_limit=50_000,
            )
        else:
            tags = {}
            if kind == "declared":
                tags = {
                    "reads": [(CONTRACT, slot) for slot in reads],
                    "writes": [(CONTRACT, slot) for slot in writes],
                }
            tx = Transaction(
                sender=SENDERS[sender_idx], to=CONTRACT, nonce=nonce,
                data=b"\x01\x02\x03\x04", gas_limit=100_000, tags=tags,
            )
        pool.add(tx)
        txs.append(tx)
    blooms = {tx.hash(): pool.bloom_of(tx) for tx in txs}
    rank = {tx.hash(): at for at, tx in enumerate(txs)}
    return pool, txs, blooms, rank


def conflict_components(blooms: list[AccessBloom]) -> list[set[int]]:
    """Connected components of the pairwise ``may_conflict`` graph."""
    component = list(range(len(blooms)))

    def find(i):
        while component[i] != i:
            i = component[i]
        return i

    for i, j in combinations(range(len(blooms)), 2):
        if blooms[i].may_conflict(blooms[j]):
            component[find(j)] = find(i)
    groups: dict[int, set[int]] = {}
    for i in range(len(blooms)):
        groups.setdefault(find(i), set()).add(i)
    return list(groups.values())


def check_cut(take, pool, blooms, rank, policy):
    """Invariants (i)–(iii) of one cut, judged by blooms alone."""
    picked = [blooms[tx.hash()] for tx in take.transactions]
    ranks = [rank[tx.hash()] for tx in take.transactions]
    assert ranks == sorted(ranks), "a cut is a FIFO subsequence"
    # (i) the lanes partition the cut, and no two lanes may conflict.
    assert sorted(i for lane in take.lanes for i in lane) == list(
        range(len(picked))
    )
    assert all(lane == sorted(lane) for lane in take.lanes)
    lane_of = {
        i: lane_idx
        for lane_idx, lane in enumerate(take.lanes)
        for i in lane
    }
    for i, j in combinations(range(len(picked)), 2):
        if lane_of[i] != lane_of[j]:
            assert not picked[i].may_conflict(picked[j]), (i, j)
    # (ii) the cap is hard unless aging forced a transaction in.
    if policy.lane_depth is not None and not take.forced:
        assert max(map(len, take.lanes)) <= policy.lane_depth
    # (iii) the left-behind rule, checked directly: nothing still pooled
    # may conflict with a *younger* transaction that was selected.
    for left in pool.pending():
        for tx in take.transactions:
            if rank[tx.hash()] > rank[left.hash()]:
                assert not blooms[left.hash()].may_conflict(
                    blooms[tx.hash()]
                ), (rank[left.hash()], rank[tx.hash()])


#: Mostly capped: with ``lane_depth=None`` nothing is ever deferred and
#: (ii)–(iii) hold vacuously.
capped_policies = st.builds(
    PackingPolicy,
    lane_depth=st.sampled_from([None, 1, 2, 2, 3, 3, 4]),
    aging_bound=st.integers(0, 4),
)


@settings(deadline=None)
@given(specs=bloom_specs, policy=capped_policies, count=st.integers(1, 8))
def test_every_cut_keeps_the_packer_invariants(specs, policy, count):
    pool, txs, blooms, rank = bloom_pool(specs)
    cuts = 0
    while len(pool):
        oldest = pool.pending()[0]
        take = pool.take_packed(count, policy=policy)
        cuts += 1
        assert take.transactions[0] is oldest, "oldest always selected"
        assert len(take.transactions) <= count
        check_cut(take, pool, blooms, rank, policy)
    assert cuts <= len(txs)


@settings(deadline=None)
@given(
    specs=bloom_specs,
    slack=st.one_of(st.none(), st.integers(0, 3)),
    aging_bound=st.integers(0, 4),
)
def test_no_needless_deferral(specs, slack, aging_bound):
    """(iv) When the whole pool fits one cut and no conflict component
    is longer than the cap, the cut is the whole pool in arrival order
    and its lanes are exactly the components: merging under the cap,
    not deferral, is what a bridging transaction gets."""
    pool, txs, blooms, rank = bloom_pool(specs)
    components = conflict_components([blooms[tx.hash()] for tx in txs])
    largest = max(map(len, components))
    policy = PackingPolicy(
        lane_depth=None if slack is None else largest + slack,
        aging_bound=aging_bound,
    )
    take = pool.take_packed(len(txs), policy=policy)
    assert take.deferred == 0 and take.forced == 0
    assert take.transactions == txs
    assert len(pool) == 0
    assert sorted(map(sorted, take.lanes)) == sorted(
        map(sorted, components)
    )
    check_cut(take, pool, blooms, rank, policy)


def hotburst_loop(deployment, lane_depth, total=4096, in_flight=128):
    """Closed loop over the ``hotburst`` mix: *in_flight* admitted, cut
    128, refill — what one benchmark client pool does to the server.
    Yields each cut with, per transaction in it, ``(cuts waited,
    backlog rank at admission)``."""
    from repro.serve.loadgen import make_transactions

    pool = Mempool(state=deployment.state)
    policy = PackingPolicy(lane_depth=lane_depth, aging_bound=8)
    feed = iter(make_transactions(deployment, total, "hotburst", seed=3))
    admitted = {}
    cut = 0
    while True:
        for tx in feed:
            admitted[tx.hash()] = (cut, len(pool))
            pool.add(tx)
            if len(pool) >= in_flight:
                break
        if not len(pool):
            return
        take = pool.take_packed(128, policy=policy)
        cut += 1
        waits = [
            (cut - admitted[tx.hash()][0], admitted[tx.hash()][1])
            for tx in take.transactions
        ]
        yield take, waits


def test_hotburst_closed_loop_cuts_full_blocks(deployment):
    """(v) The regression that halved the benchmark: 64 senders with
    two transactions each in flight bridge the two hot bursts, and a
    packer that defers every bridge cuts half-empty blocks for ever
    (the deferred half is the next cut's oldest half). Under a cap of
    64 every bridge merges, so every cut is the full 128."""
    sizes = []
    for take, _waits in hotburst_loop(deployment, lane_depth=64):
        sizes.append(len(take.transactions))
        assert take.deferred == 0 and take.forced == 0
        assert max(map(len, take.lanes)) <= 64
        assert take.parallelism >= 2.0
    assert sizes == [128] * (4096 // 128)


def test_hotburst_closed_loop_still_defers_at_a_tight_cap(deployment):
    """The same mix under a cap of 4: chains at the cap wait, the cap
    holds on every unforced cut, and nobody waits longer than its
    backlog rank + 1 cuts."""
    deferred = merged = 0
    for take, waits in hotburst_loop(deployment, lane_depth=4):
        deferred += take.deferred
        merged += take.merged
        if not take.forced:
            assert max(map(len, take.lanes)) <= 4
        for waited, backlog_rank in waits:
            assert waited <= backlog_rank + 1
    assert deferred > 0 and merged > 0


def test_bloom_rebuilt_from_spill_bytes_packs_identically(deployment):
    """A readmitted pool (blooms from ``from_bytes``) cuts the same
    blocks, lanes and deferrals as the pool that derived them."""
    from repro.serve.loadgen import make_transactions

    txs = make_transactions(deployment, 512, "hotburst", seed=5)
    derived = Mempool(state=deployment.state)
    for tx in txs:
        derived.add(tx)
    readmitted = Mempool(state=deployment.state)
    for tx, blob in derived.spill_entries():
        readmitted.add(tx, bloom=AccessBloom.from_bytes(blob))
    policy = PackingPolicy(lane_depth=4, aging_bound=3)
    while len(derived):
        ours = derived.take_packed(32, policy=policy)
        theirs = readmitted.take_packed(32, policy=policy)
        assert ours == theirs
    assert len(readmitted) == 0


def test_merges_deferrals_and_forced_are_counted(deployment):
    """``PackedTake.merged`` / ``.deferred`` / ``.forced`` and the
    ``mempool.packed_*`` counters are one bookkeeping."""
    from repro.obs import use_registry

    totals = {"merged": 0, "deferred": 0, "forced": 0}
    with use_registry() as registry:
        for take, _waits in hotburst_loop(
            deployment, lane_depth=4, total=1024
        ):
            for name in totals:
                totals[name] += getattr(take, name)
        counters = registry.counters_flat()
    assert all(totals.values()), totals
    for name, total in totals.items():
        assert counters[f"mempool.packed_{name}"] == total
