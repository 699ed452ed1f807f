"""Decoded-bytecode cache smoke test.

``python -m repro.evm.smoke`` deploys the contract suite, drives hot
ERC-20 traffic through the interpreter, and asserts the acceptance gates
of the software DB cache:

* the first transaction against a contract *decodes* (cache miss), the
  second *hits* — decode happens once per code blob, not per tx;
* every untraced transaction runs on the trace-free loop;
* the folding pass actually fused superinstructions;
* the trace-free loop's receipts and post-state digest are bit-identical
  to an *observed* run of the same transactions (a
  :class:`~repro.evm.tracer.Tracer` attached: one unfused instruction at
  a time) — fusion is sound and observation does not perturb.

The interpreter's speed is gated end to end by the ``contracts``
workload of the repo's benchmark (``bench/``), not here.

The CI ``evm-smoke`` job runs exactly this.
"""

from __future__ import annotations

import argparse
import json
import sys

from ..contracts.registry import build_deployment
from ..obs import use_registry
from ..serve.loadgen import make_transactions
from ..storage.codec import state_digest_bytes
from .code import clear_jumpdest_cache, jumpdest_cache_stats
from .context import BlockContext
from .decoded import DECODE_CACHE
from .interpreter import EVM
from .tracer import Tracer


def _execute(deployment, transactions, tracer=None):
    """Run *transactions* sequentially on a fresh state copy."""
    state = deployment.state.copy()
    evm = EVM(state, block=BlockContext(), tracer=tracer)
    receipts = [evm.execute_transaction(tx) for tx in transactions]
    return receipts, state


def run_smoke(transactions: int, seed: int) -> dict:
    deployment = build_deployment()
    txs = make_transactions(
        deployment, transactions, workload="erc20", seed=seed
    )

    # -- functional gates: cache behaviour + trace-free engagement ------
    DECODE_CACHE.clear()
    clear_jumpdest_cache()
    with use_registry() as registry:
        receipts, state = _execute(deployment, txs)
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
        f"only {fast_txs}/{len(txs)} transactions ran trace-free"
    )
    assert fused > 0, "folding pass fused no superinstructions"

    # -- bit-identity: trace-free (fused) loop vs observed loop ---------
    tracer = Tracer()
    observed_receipts, observed_state = _execute(deployment, txs, tracer)
    assert receipts == observed_receipts, (
        "trace-free receipts diverge from the observed run"
    )
    assert state_digest_bytes(state) == state_digest_bytes(observed_state), (
        "trace-free state digest diverges from the observed run"
    )

    return {
        "transactions": len(txs),
        "decode_cache": DECODE_CACHE.stats(),
        "jumpdest_cache": jumpdest_cache_stats(),
        "fast_path_txs": fast_txs,
        "fused_instructions": fused,
        "observed_instructions": len(tracer),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--transactions", type=int, default=200)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)

    out = run_smoke(args.transactions, args.seed)
    print(json.dumps(out, indent=2))
    print(
        f"evm smoke OK: {out['transactions']} txs trace-free == "
        f"{out['observed_instructions']} observed instructions, "
        f"{out['fused_instructions']} fused", file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
