"""Span arithmetic: from the traced server's dump to per-layer numbers.

Definitions used throughout:

* a span's **self time** is its duration minus the part its child spans
  cover (children run on the same thread, inside the parent, one after
  another);
* every sum is **clipped** to the window it is reported for, so a block
  straddling a window edge contributes only the part inside;
* per thread, self times + time inside no span = wall time exactly;
  across the event-loop thread and the block worker thread the covered
  times can overlap: the loop sits in ``BlockBuilder.submit`` waiting
  for ``state_lock`` (or in any span waiting for the GIL) while the
  worker executes a block. The named metrics keep that wait — it is
  what the event loop really lost — but the waterfall books every
  instant once, to the worker: an event-loop span's **exclusive** self
  time is its self time minus the part a worker span covers, so

      sum of exclusive self times + time inside no span = wall time
"""

from __future__ import annotations

import json
import statistics
from bisect import bisect_right
from collections import namedtuple

Span = namedtuple("Span", "id parent name thread start end tag")

#: Spans that make up the engine: propose + execute + commit.
ENGINE_SPANS = (
    "Node.propose_block",
    "Node.execute_block",
    "ParallelBlockExecutor.execute_block",
    "Node.commit_block",
)


class Trace:
    def __init__(self, spans, missing=(), main_thread=None) -> None:
        self.spans = list(spans)
        self.missing = list(missing)
        self.main_thread = main_thread
        self.children: dict = {}
        self.by_name: dict = {}
        for span in self.spans:
            self.children.setdefault(span.parent, []).append(span)
            self.by_name.setdefault(span.name, []).append(span)

    @classmethod
    def load(cls, path) -> "Trace":
        with open(path) as fh:
            raw = json.load(fh)
        names = raw["names"]
        spans = [
            Span(span_id, parent, names[name], thread,
                 start / 1e9, end / 1e9, tag)
            for span_id, parent, name, thread, start, end, tag
            in raw["spans"]
        ]
        return cls(spans, raw["missing"], raw["main_thread"])

    def named(self, name: str) -> list:
        return self.by_name.get(name, [])

    def has(self, *names) -> bool:
        return not any(name in self.missing for name in names)


def clipped(span, t0: float, t1: float) -> float:
    """Seconds of *span* inside [t0, t1]."""
    return max(0.0, min(span.end, t1) - max(span.start, t0))


def self_time(trace: Trace, span, t0: float, t1: float) -> float:
    """Clipped duration minus what the span's children cover."""
    return clipped(span, t0, t1) - sum(
        clipped(child, t0, t1) for child in trace.children.get(span.id, ())
    )


def total(trace: Trace, names, t0: float, t1: float) -> float:
    return sum(
        clipped(span, t0, t1) for name in names for span in trace.named(name)
    )


def total_self(trace: Trace, names, t0: float, t1: float) -> float:
    return sum(
        self_time(trace, span, t0, t1)
        for name in names for span in trace.named(name)
    )


def ending_in(spans, t0: float, t1: float) -> list:
    return [span for span in spans if t0 <= span.end <= t1]


def merge(intervals) -> list:
    """Possibly overlapping (start, end) pairs as sorted disjoint ones."""
    merged: list = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            if end > merged[-1][1]:
                merged[-1] = (merged[-1][0], end)
        else:
            merged.append((start, end))
    return merged


def union_length(intervals) -> float:
    """Total length covered by possibly overlapping (start, end) pairs."""
    return sum(end - start for start, end in merge(intervals))


def _overlap(merged: list, ends: list, a: float, b: float) -> float:
    """Length of [a, b] covered by the disjoint sorted *merged*."""
    covered = 0.0
    for index in range(bisect_right(ends, a), len(merged)):
        start, end = merged[index]
        if start >= b:
            break
        covered += min(end, b) - max(start, a)
    return covered


def _clip_intervals(spans, t0: float, t1: float) -> list:
    return [
        (max(span.start, t0), min(span.end, t1))
        for span in spans if span.end > t0 and span.start < t1
    ]


def accounting(trace: Trace, t0: float, t1: float) -> dict:
    """Where the wall time of [t0, t1] went."""
    wall = t1 - t0
    top_level = trace.children.get(0, [])
    loop_spans = [s for s in top_level if s.thread == trace.main_thread]
    worker = merge(_clip_intervals(
        [s for s in top_level if s.thread != trace.main_thread], t0, t1
    ))
    worker_ends = [end for _start, end in worker]
    self_by_name = {
        name: sum(self_time(trace, span, t0, t1) for span in spans)
        for name, spans in trace.by_name.items()
    }
    # Book the instants both threads were inside a span to the worker.
    exclusive = dict(self_by_name)
    overlap = 0.0
    for span in loop_spans:
        if span.end > t0 and span.start < t1:
            shared = _overlap(worker, worker_ends,
                              max(span.start, t0), min(span.end, t1))
            exclusive[span.name] -= shared
            overlap += shared
    covered = union_length(_clip_intervals(top_level, t0, t1))
    return {
        "wall_s": wall,
        "self_s_by_name": self_by_name,
        "exclusive_s_by_name": exclusive,
        "uncovered_s": wall - covered,
        "thread_overlap_s": overlap,
        # 1 when the books close: exclusive self times + uncovered.
        "accounted_share": (sum(exclusive.values()) + wall - covered) / wall,
        "engine_s": engine_seconds(trace, t0, t1),
    }


def engine_seconds(trace: Trace, t0: float, t1: float) -> float:
    """Wall time of [t0, t1] spent inside propose + execute + commit."""
    return union_length(_clip_intervals(
        [s for name in ENGINE_SPANS for s in trace.named(name)], t0, t1
    ))


def _median_ms(waits) -> float | None:
    return statistics.median(waits) * 1000.0 if waits else None


def queue_waits(trace: Trace, t0: float, t1: float) -> list:
    """submit end -> start of the propose_block that carried the tx."""
    submitted = {
        span.tag: span.end
        for span in ending_in(trace.named("BlockBuilder.submit"), t0, t1)
        if span.tag is not None
    }
    waits = []
    for span in trace.named("Node.propose_block"):
        for tx_hash in (span.tag or {}).get("txs", ()):
            at = submitted.get(tx_hash)
            if at is not None:
                waits.append(span.start - at)
    return waits


def resolve_waits(trace: Trace, t0: float, t1: float) -> list:
    """commit_block end -> the tx's reply frame encoded (the first frame
    carrying its blockHeight/txIndex; later ones answer getReceipt)."""
    committed = {
        span.tag["height"]: span.end
        for span in ending_in(trace.named("Node.commit_block"), t0, t1)
        if span.tag
    }
    seen = set()
    waits = []
    for span in sorted(trace.named("protocol.encode_frame"),
                       key=lambda s: s.end):
        if span.tag is None:
            continue
        key = tuple(span.tag)
        if key in seen:
            continue
        seen.add(key)
        at = committed.get(key[0])
        if at is not None:
            waits.append(span.end - at)
    return waits


def layer_metrics(trace: Trace, result, books: dict) -> dict:
    """Per-layer metrics of one traced round; *books* is the
    :func:`accounting` of its measured closed window. A metric whose
    wrap point is missing is left out."""
    c0, c1 = result.closed_measure_start, result.closed_measure_end
    o0, o1 = result.open_measure_start, result.open_end
    r0, r1 = result.open_start, result.round_end
    committed, gas = result.committed_between(c0, c1)
    out: dict = {}

    def per_tx(value_s: float) -> float:
        return value_s / committed * 1e6

    def put(metric: str, needs, compute) -> None:
        if committed and trace.has(*needs):
            value = compute()
            if value is not None:
                out[metric] = value

    def summed(*names):
        return lambda: per_tx(total(trace, names, c0, c1))

    put("serve.wire_in_us",
        ("protocol.decode_frame", "protocol.tx_from_wire"),
        summed("protocol.decode_frame", "protocol.tx_from_wire"))
    put("serve.wire_out_us",
        ("protocol.receipt_to_wire", "protocol.encode_frame"),
        summed("protocol.receipt_to_wire", "protocol.encode_frame"))
    put("serve.submit_us", ("BlockBuilder.submit",),
        lambda: per_tx(total_self(trace, ["BlockBuilder.submit"], c0, c1)))
    put("serve.queue_wait_ms",
        ("BlockBuilder.submit", "Node.propose_block"),
        lambda: _median_ms(queue_waits(trace, o0, o1)))
    put("serve.resolve_wait_ms",
        ("Node.commit_block", "protocol.encode_frame"),
        lambda: _median_ms(resolve_waits(trace, o0, o1)))
    put("chain.admit_us", ("Mempool.add",), summed("Mempool.add"))
    put("chain.pack_us", ("Mempool.take", "Mempool.take_packed"),
        summed("Mempool.take", "Mempool.take_packed"))
    put("chain.discover_us", ("dag.discover_access_sets",),
        summed("dag.discover_access_sets"))
    put("chain.dag_us",
        ("dag.build_dag_edges", "dag.transitive_reduction"),
        summed("dag.build_dag_edges", "dag.transitive_reduction"))
    put("chain.context_us", ("Node.block_context",),
        summed("Node.block_context"))
    put("chain.commit_self_us",
        ("Node.commit_block", "Node.seal_state_root", "StateTrie.update",
         "ChainStore.append_block"),
        lambda: per_tx(total_self(
            trace, ["Node.commit_block", "Node.seal_state_root"], c0, c1
        )))

    def execute_s() -> float:
        """Node.execute_block minus the commit it ends with."""
        return sum(
            clipped(span, c0, c1) - sum(
                clipped(child, c0, c1)
                for child in trace.children.get(span.id, ())
                if child.name == "Node.commit_block"
            )
            for span in trace.named("Node.execute_block")
        )

    put("evm.execute_us", ("Node.execute_block", "Node.commit_block"),
        lambda: per_tx(execute_s()))
    put("evm.gas_per_s", ("Node.execute_block", "Node.commit_block"),
        lambda: gas / execute_s() if execute_s() > 0 else 0.0)

    parallel = ending_in(
        trace.named("ParallelBlockExecutor.execute_block"), c0, c1
    )
    parallel_txs = sum(span.tag["txs"] for span in parallel if span.tag)
    put("parallel.execute_us", ("ParallelBlockExecutor.execute_block",),
        summed("ParallelBlockExecutor.execute_block"))
    for metric, key in (("parallel.replayed_share", "replayed"),
                        ("parallel.stale_share", "stale")):
        put(metric, ("ParallelBlockExecutor.execute_block",),
            lambda key=key: (
                sum(span.tag[key] for span in parallel if span.tag)
                / parallel_txs if parallel_txs else 0.0
            ))
    put("parallel.fell_back", ("ParallelBlockExecutor.execute_block",),
        lambda: float(sum(
            1 for span in parallel if span.tag and span.tag["fell_back"]
        )))

    def nodes_rehashed() -> float:
        updates = sorted(trace.named("StateTrie.update"),
                         key=lambda s: s.end)
        before = [s.tag for s in updates if s.end < c0 and s.tag is not None]
        inside = [s.tag for s in ending_in(updates, c0, c1)
                  if s.tag is not None]
        if not inside:
            return 0.0
        return (inside[-1] - (before[-1] if before else 0)) / committed

    put("trie.update_us", ("StateTrie.update",), summed("StateTrie.update"))
    put("trie.nodes_rehashed_per_tx", ("StateTrie.update",), nodes_rehashed)

    def mean_us(name: str, t0: float, t1: float):
        spans = ending_in(trace.named(name), t0, t1)
        if not spans:
            return 0.0
        return sum(s.end - s.start for s in spans) / len(spans) * 1e6

    put("trie.proof_us", ("StateTrie.account_proof",),
        lambda: mean_us("StateTrie.account_proof", r0, r1))
    put("storage.append_us", ("ChainStore.append_block", "WalWriter.sync",
                              "snapshot.write_snapshot"),
        lambda: per_tx(total_self(
            trace, ["ChainStore.append_block"], c0, c1
        )))
    put("storage.fsync_ms", ("WalWriter.sync",),
        lambda: mean_us("WalWriter.sync", c0, c1) / 1000.0)
    put("storage.fsyncs_per_ktx", ("WalWriter.sync",),
        lambda: len(ending_in(trace.named("WalWriter.sync"), c0, c1))
        / committed * 1000.0)
    put("storage.snapshot_ms", ("snapshot.write_snapshot",),
        lambda: mean_us("snapshot.write_snapshot", r0, r1) / 1000.0)
    put("storage.snapshot_stall_ms_max", ("snapshot.write_snapshot",),
        lambda: max(
            ((s.end - s.start) * 1000.0
             for s in ending_in(
                 trace.named("snapshot.write_snapshot"), r0, r1)),
            default=0.0,
        ))

    wall = books["wall_s"]
    out["serve.loop_other_share"] = books["uncovered_s"] / wall
    out["serve.engine_share"] = books["engine_s"] / wall
    out["trace.accounted_share"] = books["accounted_share"]
    out["trace.thread_overlap_share"] = books["thread_overlap_s"] / wall

    quarter = (c1 - c0) / 4.0
    first = _engine_us_per_tx(trace, result, c0, c0 + quarter)
    last = _engine_us_per_tx(trace, result, c1 - quarter, c1)
    if first and last:
        out["chain.height_slowdown"] = last / first
    return out


def _engine_us_per_tx(trace: Trace, result, t0: float, t1: float):
    committed, _gas = result.committed_between(t0, t1)
    if not committed:
        return None
    return engine_seconds(trace, t0, t1) / committed * 1e6


def waterfall(books: dict) -> dict:
    """Exclusive self time of every span name as a share of the wall
    time *books* accounts for; with ``(no span)`` the shares sum to 1."""
    wall = books["wall_s"]
    shares = {
        name: seconds / wall
        for name, seconds in sorted(books["exclusive_s_by_name"].items())
    }
    shares["(no span)"] = books["uncovered_s"] / wall
    return shares
