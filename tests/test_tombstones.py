"""Names a deletion removed may not come back: one table, one check.

Each row is a pattern (a regular expression, searched line by line),
the repo paths it must not match under (files, or directories searched
recursively) and the PR whose deletion it guards. A row matches nothing
at the commit that adds it; a later match is a deleted path, a retired
setting or a second statement coming back, and the failure names the row
and the lines.
"""

import os
import re
from typing import NamedTuple

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DOCS = ("src", "README.md", "DESIGN.md")


class Tombstone(NamedTuple):
    pattern: str
    paths: tuple
    pr: int
    guards: str


TOMBSTONES = [
    Tombstone(
        r"registry\.enabled", ("src/repro/serve", "src/repro/replication"),
        24, "a served process keeps one set of books, its own registry",
    ),
    Tombstone(
        r"AccessEstimator|trust_estimates|observe_outcomes"
        r"|estimate_corrections", ("src",),
        25, "a bloom is declared, closed-form or opaque: no learned source",
    ),
    Tombstone(
        r"AcceleratedValidator|ValidationOutcome|_execute_sequential",
        ("src", "examples", "README.md", "DESIGN.md"),
        26, "the paper's validator is the mtpu engine",
    ),
    Tombstone(
        r"_match_const_chain|_h_push_bin|_h_dup_bin|_h_swap1_pop|_h_const\b"
        r"|CHAIN_LIMIT|_JUMPDEST_CACHE", ("src",),
        27, "the superinstruction pass and the second jumpdest cache",
    ),
    Tombstone(
        r"StatelessValidator|StatelessResult|_apply_block_witness"
        r"|_last_root", DOCS,
        28, "the witness replica's private executor",
    ),
    Tombstone(
        r"chain\.append", ("src/repro/replication/replica.py",),
        28, "a replica appends a block through Node.execute_block only",
    ),
    Tombstone(
        r"ProcessPoolExecutor|PoolHolder|execute_task|occ_pool"
        r"|wall-clock-workers", DOCS,
        29, "one process runs a block: the worker pools and their lane",
    ),
    Tombstone(
        r"ParallelBlockExecutor|ParallelBlockResult|AccessMismatch", DOCS,
        30, "parallel's executor class, validation and fallback",
    ),
    Tombstone(
        r'"parallel\.[a-z_]+"', ("src",),
        30, "the parallel.* series",
    ),
    Tombstone(
        r"CodeIndex|instruction_at|valid_jumpdests", DOCS,
        31, "one decode per code blob: the private decoders",
    ),
    Tombstone(
        r"\bcode\.decode\b", ("src",),
        31, "one decode per code blob: decode calls outside the program",
    ),
    Tombstone(
        r"SpeculativeBlockExecutor|MultiVersionStore|speculate_on"
        r'|preexecutes|"speculate\.|repro\.parallel|--executor occ', DOCS,
        33, "the optimistic engine and its promised-gas FIFO cut",
    ),
    Tombstone(
        r"replay_in_order|txs_replayed|txs_reexecuted|txsReplayed"
        r"|txsReexecuted", DOCS,
        34, "a proposal is the proposer's execution: no replay walk",
    ),
    Tombstone(
        r"emit_witness|default_deadline_ms|drain_timeout_s"
        r"|max_subscriber_buffer|packing_lane_depth|fsync_interval_blocks"
        r"|rate_burst|packing_aging_bound", ("src/repro/serve/config.py",),
        35, "served settings the config no longer states",
    ),
    Tombstone(
        r"WriteJournal|is_fresh|capture_artifact|execute_captured"
        r"|auto_clear_journal|read_values|tx_reuses|tx_reexecutions"
        r"|_traced_proposal|\.witnesses\b", DOCS,
        37, "the write journal, the freshness check and Node.witnesses",
    ),
    Tombstone(
        r"_trie_pre|_TriePre|_track_trie|_track_reads|storage_full", DOCS,
        40, "the first-touch pre-image capture: the journal is the record",
    ),
    Tombstone(
        r"seed_committed|_evict_history|builder\.committed"
        r"|builder\._history", ("src",),
        45, "the node is the one record of its receipts: one index",
    ),
    Tombstone(
        r"self\.height", ("src/repro/replication/replica.py",),
        45, "a replica's height is its node's: one height",
    ),
]


def files_under(root: str, path: str):
    full = os.path.join(root, path)
    if os.path.isfile(full):
        yield full
        return
    assert os.path.isdir(full), f"{path} is neither a file nor a directory"
    for directory, subdirs, names in os.walk(full):
        subdirs[:] = sorted(d for d in subdirs if d != "__pycache__")
        for name in sorted(names):
            yield os.path.join(directory, name)


def matches(tombstone: Tombstone, root: str = ROOT) -> list[str]:
    regex = re.compile(tombstone.pattern)
    found = []
    for path in tombstone.paths:
        for name in files_under(root, path):
            with open(name, encoding="utf-8", errors="replace") as fh:
                for number, line in enumerate(fh, 1):
                    if regex.search(line):
                        found.append(
                            f"{os.path.relpath(name, root)}:{number}: "
                            f"{line.strip()}"
                        )
    return found


@pytest.mark.parametrize(
    "tombstone", TOMBSTONES,
    ids=[f"pr{row.pr}-{index}" for index, row in enumerate(TOMBSTONES)],
)
def test_deleted_names_stay_deleted(tombstone):
    assert matches(tombstone) == [], (
        f"PR {tombstone.pr} deleted this ({tombstone.guards})"
    )


def test_a_row_finds_what_it_guards(tmp_path):
    """The check is live: a guarded name in a guarded path fails it."""
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "revived.py").write_text(
        "x = 1\nclass ParallelBlockExecutor: pass\n"
    )
    row = Tombstone(r"ParallelBlockExecutor", ("src",), 30, "test")
    assert matches(row, str(tmp_path)) == [
        "src/revived.py:2: class ParallelBlockExecutor: pass"
    ]
