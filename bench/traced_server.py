"""Traced launcher: ``repro serve`` with spans around its public seams.

    python bench/traced_server.py --spans-out FILE serve --port 0 ...

Wraps a fixed table of public callables with an in-memory span recorder,
then calls ``repro.cli.main([...])`` with the remaining arguments — the
same CLI in its own process, no file under ``src/`` touched, nothing
passed to the program but its own flags. Spans are dumped to FILE when
the server has drained.

A wrap point that no longer resolves (a later refactor moved or renamed
it) is listed under ``missing`` in the dump and its metrics are simply
absent; it is never an error.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import threading
import time

# -- what each span carries besides its name and times -----------------------
# A tag is a small JSON value the analysis joins spans on: a tx hash
# prefix, a block height, a transaction count.


def _tag_submit(args, _result):
    return args[1].hash().hex()[:16]


def _tag_propose(_args, block):
    return {
        "height": block.header.height,
        "txs": [tx.hash().hex()[:16] for tx in block.transactions],
    }


def _tag_block_arg(args, _result):
    block = args[1]
    return {"height": block.header.height, "txs": len(block.transactions)}


def _tag_reply_frame(args, _result):
    result = args[0].get("result")
    if isinstance(result, dict) and "blockHeight" in result:
        return [result["blockHeight"], result["txIndex"]]
    return None


def _tag_parallel(_args, result):
    return {
        "txs": len(result.receipts),
        "replayed": result.replayed,
        "stale": result.stale_artifacts,
        "fell_back": bool(result.fell_back),
    }


def _tag_trie_update(args, _result):
    return args[0].nodes_rehashed


#: (span name, module, attribute path, tag function). Public names only.
WRAP_POINTS = (
    ("protocol.decode_frame", "repro.serve.protocol", "decode_frame", None),
    ("protocol.tx_from_wire", "repro.serve.protocol", "tx_from_wire", None),
    ("protocol.receipt_to_wire", "repro.serve.protocol", "receipt_to_wire",
     None),
    ("protocol.encode_frame", "repro.serve.protocol", "encode_frame",
     _tag_reply_frame),
    ("BlockBuilder.submit", "repro.serve.batcher", "BlockBuilder.submit",
     _tag_submit),
    ("Mempool.add", "repro.chain.mempool", "Mempool.add", None),
    ("Mempool.take", "repro.chain.mempool", "Mempool.take", None),
    ("Mempool.take_packed", "repro.chain.mempool", "Mempool.take_packed",
     None),
    ("Node.propose_block", "repro.chain.node", "Node.propose_block",
     _tag_propose),
    ("Node.block_context", "repro.chain.node", "Node.block_context", None),
    ("Node.execute_block", "repro.chain.node", "Node.execute_block",
     _tag_block_arg),
    ("Node.commit_block", "repro.chain.node", "Node.commit_block",
     _tag_block_arg),
    ("Node.seal_state_root", "repro.chain.node", "Node.seal_state_root",
     None),
    # The DAG helpers as bound in chain.node, which is where
    # propose_block looks them up.
    ("dag.discover_access_sets", "repro.chain.node", "discover_access_sets",
     None),
    ("dag.build_dag_edges", "repro.chain.node", "build_dag_edges", None),
    ("dag.transitive_reduction", "repro.chain.node", "transitive_reduction",
     None),
    ("EVM.execute_transaction", "repro.evm.interpreter",
     "EVM.execute_transaction", None),
    ("ParallelBlockExecutor.execute_block", "repro.parallel",
     "ParallelBlockExecutor.execute_block", _tag_parallel),
    ("StateTrie.update", "repro.trie", "StateTrie.update",
     _tag_trie_update),
    ("StateTrie.account_proof", "repro.trie", "StateTrie.account_proof",
     None),
    ("StateTrie.storage_proof", "repro.trie", "StateTrie.storage_proof",
     None),
    ("ChainStore.append_block", "repro.storage", "ChainStore.append_block",
     None),
    ("WalWriter.sync", "repro.storage.wal", "WalWriter.sync", None),
    ("snapshot.write_snapshot", "repro.storage.snapshot", "write_snapshot",
     None),
)


class SpanRecorder:
    """Spans kept in memory: (id, parent id, name index, thread, start
    ns, end ns, tag). A span's parent is the span open on the same
    thread when it started (0: none)."""

    def __init__(self) -> None:
        self.names: list = []
        self.spans: list = []
        self.missing: list = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, name: str, fn, tag_fn=None):
        name_index = len(self.names)
        self.names.append(name)
        ids, local, spans = self._ids, self._local, self.spans
        clock, thread_id = time.perf_counter_ns, threading.get_ident

        def traced(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stack.pop()
                spans.append((span_id, parent, name_index, thread_id(),
                              start, clock(), None))
                raise
            end = clock()
            stack.pop()
            tag = None
            if tag_fn is not None:
                try:
                    tag = tag_fn(args, result)
                except Exception:  # a tag must never break the server
                    tag = None
            spans.append(
                (span_id, parent, name_index, thread_id(), start, end, tag)
            )
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, wrap_points=WRAP_POINTS) -> None:
        for name, module_name, path, tag_fn in wrap_points:
            try:
                owner = importlib.import_module(module_name)
                *parents, attribute = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                fn = getattr(owner, attribute)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            setattr(owner, attribute, self.wrap(name, fn, tag_fn))

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({
                "names": self.names,
                "missing": self.missing,
                "main_thread": threading.main_thread().ident,
                "spans": self.spans,
            }, fh)


def main(argv: list) -> int:
    if len(argv) < 3 or argv[0] != "--spans-out":
        print(__doc__, file=sys.stderr)
        return 2
    spans_out, cli_args = argv[1], argv[2:]
    recorder = SpanRecorder()
    recorder.install()
    from repro.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        recorder.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
