"""Dependency-DAG discovery (paper section 2.2.2).

"Dependencies between transactions is represented by a directed acyclic
graph (DAG), which is discovered by nodes in the consensus stage through
concurrency control or software transaction memory."

We discover the DAG the way a consensus-stage node can: execute the
candidate batch once, in place — that execution is the block's — while
recording read/write sets, then draw an edge i → j (i before j in block
order) whenever the two access sets conflict or the transactions share a
sender (nonce ordering).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..obs import get_registry
from .artifact import ExecutionArtifact, execute_tracked
from .state import WorldState
from .transaction import Transaction
from .transfer import execute_transfer, is_plain_transfer


def discover_access_sets(
    transactions: list[Transaction],
    state: WorldState,
    block_context=None,
    trace: bool = False,
    gas_target: int | None = None,
) -> list[ExecutionArtifact]:
    """Execute the batch once, in block order, on *state*, and say what
    each transaction did.

    Returns one :class:`~repro.chain.artifact.ExecutionArtifact` per
    transaction executed — receipt and access set, and with
    ``trace=True`` the dataflow trace and the code the MTPU's timing
    reads, as the transaction left it. The artifact list is
    access-set-compatible (``.reads`` / ``.writes`` /
    ``conflicts_with``), so it drops directly into
    :func:`build_dag_edges` and :func:`verify_dag`.

    *state* is left as executed: this pass is the block's execution,
    not a rehearsal of it. If it raises, it reverts what it did first.
    A caller that needs the pre-state takes a snapshot and reverts.

    A transaction whose target holds no code when its turn comes never
    enters the interpreter: :func:`~repro.chain.transfer.execute_transfer`
    writes down the same artifact in closed form. Creates, calls into
    code and every transaction of a ``trace=True`` pass run the EVM.

    With *gas_target* this pass is also where a block is filled — the
    one place that knows what each transaction *used*, not what its
    sender promised. It stops before the first transaction (never the
    very first: one over-budget transaction must not wedge block
    building) whose ``gas_limit`` exceeds what the gas used so far
    leaves of the target, and returns artifacts for the prefix that fit;
    the caller keeps ``transactions[:len(result)]``. A block so filled
    uses at most *gas_target* unless it is a single transaction, and the
    first transaction left out would not have fit. Without a target
    (validators, followers, traced passes) every transaction runs.
    """
    from ..evm.context import BlockContext  # local imports avoid a cycle
    from ..evm.gas import DEFAULT_SCHEDULE
    from ..evm.interpreter import count_transaction
    from ..evm.tracer import Tracer

    context = block_context or BlockContext()
    registry = get_registry()
    artifacts: list[ExecutionArtifact] = []
    gas_used = 0
    block_token = state.snapshot()
    saved_access, state.access = state.access, None
    try:
        for tx in transactions:
            if gas_target is not None and artifacts:
                gas_used += artifacts[-1].receipt.gas_used
                if tx.gas_limit > gas_target - gas_used:
                    break
            if trace:
                artifacts.append(
                    execute_tracked(state, tx, context, Tracer())
                )
            elif is_plain_transfer(tx, state):
                artifact = execute_transfer(
                    state, tx, context.coinbase,
                    DEFAULT_SCHEDULE.intrinsic_gas(tx.data),
                )
                artifacts.append(artifact)
                if registry.enabled:
                    count_transaction(registry, artifact.receipt)
                    registry.counter("evm.closed_form_txs").inc()
            else:
                artifacts.append(execute_tracked(state, tx, context))
    except BaseException:
        state.revert(block_token)
        raise
    finally:
        state.access = saved_access
    return artifacts


def build_dag_edges(
    transactions: list[Transaction],
    access_sets: list,
) -> list[tuple[int, int]]:
    """Conflict edges (i, j) with i < j in block order.

    Includes read/write-set conflicts and same-sender ordering. The result
    is acyclic by construction (edges always point forward in block order)
    and identical — order included — to the reference pairwise builder
    (:func:`build_dag_edges_pairwise`), but is computed from an inverted
    index keyed by ``(address, slot)``: cost is proportional to the total
    number of accesses (plus output edges), not to the square of the
    block size. *access_sets* may be :class:`~repro.chain.state.AccessSet`
    or :class:`~repro.chain.artifact.ExecutionArtifact` instances.
    """
    edges: set[tuple[int, int]] = set()

    # Same-sender ordering: every pair within a sender group.
    by_sender: dict[int, list[int]] = {}
    for index, tx in enumerate(transactions):
        by_sender.setdefault(tx.sender, []).append(index)
    for group in by_sender.values():
        for a in range(len(group)):
            for b in range(a + 1, len(group)):
                edges.add((group[a], group[b]))

    # Inverted index: key -> (writer indices, reader indices).
    writers: dict[tuple, list[int]] = {}
    readers: dict[tuple, list[int]] = {}
    for index, access in enumerate(access_sets):
        for key in access.writes:
            writers.setdefault(key, []).append(index)
        for key in access.reads:
            readers.setdefault(key, []).append(index)

    for key, writer_list in writers.items():
        # W/W conflicts.
        for a in range(len(writer_list)):
            for b in range(a + 1, len(writer_list)):
                i, j = writer_list[a], writer_list[b]
                edges.add((i, j) if i < j else (j, i))
        # W/R and R/W conflicts.
        for w in writer_list:
            for r in readers.get(key, ()):
                if w != r:
                    edges.add((w, r) if w < r else (r, w))

    return sorted(edges, key=lambda edge: (edge[1], edge[0]))


def build_dag_edges_pairwise(
    transactions: list[Transaction],
    access_sets: list,
) -> list[tuple[int, int]]:
    """Reference O(n²) pairwise conflict builder.

    Kept as the executable specification :func:`build_dag_edges` is
    property-tested against (`tests/chain/test_dag_index.py`).
    """
    edges: list[tuple[int, int]] = []
    for j in range(len(transactions)):
        for i in range(j):
            if transactions[i].sender == transactions[j].sender:
                edges.append((i, j))
            elif access_sets[i].conflicts_with(access_sets[j]):
                edges.append((i, j))
    return edges


def transitive_reduction(
    count: int, edges: list[tuple[int, int]]
) -> list[tuple[int, int]]:
    """Drop edges implied by transitivity (keeps schedules identical).

    The paper stores the DAG in the block; a reduced DAG is smaller on the
    wire and speeds up the scheduler's indegree bookkeeping.
    """
    successors: list[set[int]] = [set() for _ in range(count)]
    for i, j in edges:
        successors[i].add(j)

    # reach[i] = nodes reachable from i via >=2 hops
    reach_two: list[set[int]] = [set() for _ in range(count)]
    for i in range(count - 1, -1, -1):
        for j in successors[i]:
            reach_two[i] |= successors[j]
            reach_two[i] |= reach_two[j]

    return [(i, j) for i, j in edges if j not in reach_two[i]]


@dataclass
class DagVerification:
    """Outcome of checking a block-embedded DAG against local analysis.

    ``ok`` is True only when the DAG is structurally sound, acyclic, and
    covers every read/write conflict the validator discovered locally —
    the condition for the spatio-temporal schedule to be serializable.
    """

    ok: bool
    #: Structural defects: out-of-range endpoints, self-loops.
    malformed_edges: list[tuple[int, int]] = field(default_factory=list)
    #: True when the edge set contains a directed cycle (including any
    #: backward edge, which closes a cycle with block order).
    cyclic: bool = False
    #: Locally-discovered dependency pairs with no ordering path in the
    #: block DAG (the fatal case: the schedule could reorder them).
    missing_pairs: list[tuple[int, int]] = field(default_factory=list)
    #: Block edges not justified by any local dependency (an adversary
    #: can use these to serialize the whole block — a slowdown attack).
    spurious_edges: list[tuple[int, int]] = field(default_factory=list)

    def reason(self) -> str:
        """Human-readable one-line failure summary."""
        if self.ok:
            return "ok"
        parts = []
        if self.malformed_edges:
            parts.append(f"{len(self.malformed_edges)} malformed edge(s)")
        if self.cyclic:
            parts.append("cycle")
        if self.missing_pairs:
            parts.append(f"{len(self.missing_pairs)} uncovered conflict(s)")
        if self.spurious_edges:
            parts.append(f"{len(self.spurious_edges)} spurious edge(s)")
        return ", ".join(parts)


def _closure(count: int, successors: list[int]) -> list[int]:
    """Reachability bitmasks for a forward-edge DAG (index order is a
    valid topological order, so one reverse sweep suffices)."""
    reach = [0] * count
    for i in range(count - 1, -1, -1):
        mask = successors[i]
        reachable = mask
        while mask:
            j = (mask & -mask).bit_length() - 1
            reachable |= reach[j]
            mask &= mask - 1
        reach[i] = reachable
    return reach


def verify_dag(
    count: int,
    edges: list[tuple[int, int]],
    required_pairs: set[tuple[int, int]],
) -> DagVerification:
    """Check a block-embedded DAG before trusting it for scheduling.

    *required_pairs* are the direct dependency pairs (i, j), i < j, the
    validator derived from its own speculative execution
    (:func:`build_dag_edges` output). The block DAG passes iff:

    1. every edge is in range and loop-free;
    2. the edge set is acyclic (block DAGs may only point forward);
    3. every required pair is connected by a directed path (conflict
       coverage — transitive reduction by the proposer is fine);
    4. every block edge lies within the transitive closure of the
       required pairs (no fabricated ordering constraints).
    """
    result = DagVerification(ok=True)
    forward: list[int] = [0] * count
    for i, j in edges:
        if not (0 <= i < count and 0 <= j < count) or i == j:
            result.malformed_edges.append((i, j))
            continue
        if i > j:
            # A backward edge closes a cycle with the forward ordering
            # the rest of the pipeline assumes.
            result.cyclic = True
            continue
        forward[i] |= 1 << j

    block_reach = _closure(count, forward)

    required_forward: list[int] = [0] * count
    for i, j in required_pairs:
        required_forward[i] |= 1 << j
    required_reach = _closure(count, required_forward)

    for i, j in sorted(required_pairs):
        if not (block_reach[i] >> j) & 1:
            result.missing_pairs.append((i, j))
    for i, j in edges:
        if 0 <= i < j < count and not (required_reach[i] >> j) & 1:
            result.spurious_edges.append((i, j))

    result.ok = not (
        result.malformed_edges
        or result.cyclic
        or result.missing_pairs
        or result.spurious_edges
    )
    return result


class ScheduleOrderError(RuntimeError):
    """A schedule reordered (or overlapped) two conflicting transactions,
    or did not run every transaction exactly once."""


def check_schedule_order(
    transactions: list[Transaction],
    access_sets: list,
    executions,
) -> None:
    """Audit a schedule: its order must be a linear extension of the
    conflict relation — a conflicting pair is never swapped (the
    swappability criterion of Bartoletti et al., arxiv 1905.04366).

    *executions* are the schedule's timings, anything with ``index``,
    ``start_cycle`` and ``end_cycle``. Every transaction must have run
    exactly once, and for every pair ``i < j`` that conflicts under the
    reference builder (:func:`build_dag_edges_pairwise`, not the indexed
    one the DAG was built with), ``j`` must start no earlier than ``i``
    ends. Raises :class:`ScheduleOrderError` otherwise.
    """
    spans: dict[int, tuple[int, int]] = {}
    for execution in executions:
        if execution.index in spans:
            raise ScheduleOrderError(
                f"transaction {execution.index} ran twice"
            )
        spans[execution.index] = (
            execution.start_cycle, execution.end_cycle
        )
    missing = sorted(set(range(len(transactions))) - spans.keys())
    if missing:
        raise ScheduleOrderError(f"transactions {missing} never ran")
    for i, j in build_dag_edges_pairwise(transactions, access_sets):
        start, end = spans[j][0], spans[i][1]
        if start < end:
            raise ScheduleOrderError(
                f"transactions {i} and {j} conflict, but {j} started "
                f"at cycle {start}, before {i} ended at cycle {end}"
            )


def checked_dag(
    transactions: list[Transaction],
    edges: list[tuple[int, int]],
    access_sets: list,
) -> tuple[list[tuple[int, int]], DagVerification]:
    """The untrusted-DAG path: *edges* as shipped when they pass
    :func:`verify_dag` against what the locally discovered *access_sets*
    require, else the reduced DAG rebuilt from those — and the verdict."""
    required = set(build_dag_edges(transactions, access_sets))
    verdict = verify_dag(len(transactions), edges, required)
    if not verdict.ok:
        edges = transitive_reduction(len(transactions), sorted(required))
    return edges, verdict


def to_networkx(count: int, edges: list[tuple[int, int]]):
    """The dependency DAG as a networkx DiGraph (for graph analytics:
    longest paths, width, visualization)."""
    import networkx as nx

    graph = nx.DiGraph()
    graph.add_nodes_from(range(count))
    graph.add_edges_from(edges)
    return graph


def dependency_ratio(count: int, edges: list[tuple[int, int]]) -> float:
    """Fraction of transactions with at least one incoming dependency.

    This is the x-axis of the paper's Figs. 14–16 and Table 9.
    """
    if count == 0:
        return 0.0
    dependent = {j for _, j in edges}
    return len(dependent) / count


def indegrees(count: int, edges: list[tuple[int, int]]) -> list[int]:
    """Indegree per transaction index."""
    degrees = [0] * count
    for _, j in edges:
        degrees[j] += 1
    return degrees


def critical_path_length(count: int, edges: list[tuple[int, int]]) -> int:
    """Longest chain length (in transactions) through the DAG."""
    successors: list[list[int]] = [[] for _ in range(count)]
    for i, j in edges:
        successors[i].append(j)
    depth = [1] * count
    # Edges point forward in index order, so a reverse sweep is a valid
    # topological order.
    for i in range(count - 1, -1, -1):
        for j in successors[i]:
            depth[i] = max(depth[i], 1 + depth[j])
    return max(depth, default=0)
