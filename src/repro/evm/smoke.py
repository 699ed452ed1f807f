"""Decoded-bytecode cache smoke test + microbenchmark.

``python -m repro.evm.smoke`` deploys the contract suite, drives hot
ERC-20 traffic through the interpreter, and asserts the acceptance gates
of the software DB cache:

* the first transaction against a contract *decodes* (cache miss), the
  second *hits* — decode happens once per code blob, not per tx;
* every untraced transaction engages the trace-free fast path;
* the folding pass actually fused superinstructions;
* fast-path receipts and the post-state digest are bit-identical to the
  legacy byte-at-a-time loop;
* the decoded path beats the legacy loop by ``--min-speedup`` on a
  best-of-N interleaved microbench.

The CI ``evm-smoke`` job runs exactly this.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from ..contracts.registry import build_deployment
from ..obs import use_registry
from ..serve.loadgen import make_transactions
from ..storage.codec import state_digest_bytes
from .code import clear_jumpdest_cache, jumpdest_cache_stats
from .context import BlockContext
from .decoded import DECODE_CACHE
from .interpreter import EVM


def _execute(deployment, transactions, fast_path):
    """Run *transactions* sequentially on a fresh state copy."""
    state = deployment.state.copy()
    evm = EVM(state, block=BlockContext(), fast_path=fast_path)
    receipts = [evm.execute_transaction(tx) for tx in transactions]
    return receipts, state


def run_smoke(transactions: int, seed: int, repeats: int,
              min_speedup: float) -> dict:
    deployment = build_deployment()
    txs = make_transactions(
        deployment, transactions, workload="erc20", seed=seed
    )

    # -- functional gates: cache behaviour + fast-path engagement -------
    DECODE_CACHE.clear()
    clear_jumpdest_cache()
    with use_registry() as registry:
        receipts, state = _execute(deployment, txs, fast_path=None)
    counters = registry.counters_flat()
    misses = counters.get("evm.decode_cache_misses", 0)
    hits = counters.get("evm.decode_cache_hits", 0)
    fast_txs = counters.get("evm.fast_path_txs", 0)
    fused = counters.get("evm.fused_instructions", 0)

    failures = [r for r in receipts if not r.success]
    assert not failures, f"{len(failures)} transactions failed"
    assert misses >= 1, "first call must decode (cache miss)"
    assert hits >= 1, (
        "second transaction against the same contract must hit the "
        f"decoded-program cache (hits={hits}, misses={misses})"
    )
    assert misses <= len(DECODE_CACHE) + 1, (
        f"decode ran {misses} times for {len(DECODE_CACHE)} distinct "
        "code blobs — programs are being re-decoded"
    )
    assert fast_txs == len(txs), (
        f"only {fast_txs}/{len(txs)} transactions took the fast path"
    )
    assert fused > 0, "folding pass fused no superinstructions"

    # -- bit-identity: fast path vs legacy loop -------------------------
    legacy_receipts, legacy_state = _execute(deployment, txs, fast_path=False)
    assert receipts == legacy_receipts, "fast-path receipts diverge"
    assert state_digest_bytes(state) == state_digest_bytes(legacy_state), (
        "fast-path state digest diverges"
    )

    # -- microbench: best-of-N interleaved pairs ------------------------
    legacy_best = fast_best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        _execute(deployment, txs, fast_path=False)
        legacy_best = min(legacy_best, time.perf_counter() - start)
        start = time.perf_counter()
        _execute(deployment, txs, fast_path=None)
        fast_best = min(fast_best, time.perf_counter() - start)
    speedup = legacy_best / fast_best

    out = {
        "transactions": len(txs),
        "decode_cache": DECODE_CACHE.stats(),
        "jumpdest_cache": jumpdest_cache_stats(),
        "fast_path_txs": fast_txs,
        "fused_instructions": fused,
        "legacy_seconds": round(legacy_best, 6),
        "fast_seconds": round(fast_best, 6),
        "fast_tps": round(len(txs) / fast_best, 1),
        "speedup": round(speedup, 3),
        "min_speedup": min_speedup,
    }
    assert speedup >= min_speedup, (
        f"decoded path {speedup:.2f}x vs legacy — below the "
        f"{min_speedup:.2f}x smoke floor"
    )
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--transactions", type=int, default=200)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--repeats", type=int, default=4,
                        help="interleaved legacy/fast timing pairs")
    parser.add_argument("--min-speedup", type=float, default=1.0,
                        help="fail below this decoded-vs-legacy ratio")
    args = parser.parse_args(argv)

    out = run_smoke(
        args.transactions, args.seed, args.repeats, args.min_speedup
    )
    print(json.dumps(out, indent=2))
    print(
        f"evm smoke OK: {out['transactions']} txs, "
        f"{out['speedup']}x decoded-vs-legacy, "
        f"{out['fused_instructions']} fused", file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
