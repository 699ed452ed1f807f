"""Dynamic hotspot identification (paper section 2.2.3).

"Hotspots change over time. For example, the once extremely hot CryptoCat
on Ethereum ... is hardly active anymore." The MTPU therefore cannot
hard-wire its optimized contracts (the paper's criticism of BPU); instead
it tracks invocation frequency and re-targets the optimizer during idle
slices.

:class:`HotspotTracker` keeps an exponentially decayed invocation count
per contract across blocks; :meth:`current_hotspots` is the TOP-k set the
idle-slice optimizer should (re)profile. Decay makes dethroned contracts
(CryptoCat) fall out of the set as traffic moves on. :class:`HotspotLoop`
is that loop on one node (paper section 2.2.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ...chain.transaction import Transaction
from .optimizer import HotspotOptimizer

#: Abstract profiling cost per sample transaction, in the StageClock's
#: time units — what keeps a slice within the idle budget.
PROFILE_COST_PER_SAMPLE = 0.01


@dataclass
class HotspotTracker:
    """Decayed per-contract invocation counts across blocks."""

    #: Multiplier applied to all scores at each block boundary. 0.9 keeps
    #: roughly the last ~10 blocks of history relevant.
    decay: float = 0.9
    #: Minimum score for a contract to qualify as a hotspot at all.
    min_score: float = 2.0
    scores: dict[int, float] = field(default_factory=dict)
    blocks_observed: int = 0

    def observe_block(self, transactions: list[Transaction]) -> None:
        """Fold one block's invocations into the decayed scores."""
        for address in list(self.scores):
            self.scores[address] *= self.decay
            if self.scores[address] < 1e-6:
                del self.scores[address]
        for tx in transactions:
            if tx.to is None or tx.selector is None:
                continue  # creations / plain transfers are not SCTs
            self.scores[tx.to] = self.scores.get(tx.to, 0.0) + 1.0
        self.blocks_observed += 1

    def score(self, address: int) -> float:
        return self.scores.get(address, 0.0)

    def current_hotspots(self, k: int = 8) -> list[int]:
        """TOP-k contract addresses by decayed invocation count."""
        eligible = [
            (score, address)
            for address, score in self.scores.items()
            if score >= self.min_score
        ]
        eligible.sort(key=lambda item: (-item[0], item[1]))
        return [address for _, address in eligible[:k]]

    def is_hotspot(self, address: int, k: int = 8) -> bool:
        return address in self.current_hotspots(k)

    def head_share(self, k: int = 5) -> float:
        """Share of (decayed) traffic going to the TOP-k contracts.

        The paper's motivating statistic: 37% of mainnet transactions hit
        the TOP5 contracts.
        """
        total = sum(self.scores.values())
        if not total:
            return 0.0
        top = sorted(self.scores.values(), reverse=True)[:k]
        return sum(top) / total


class HotspotLoop:
    """The idle slice of one node: ``Node.hotspots``, made by the first
    block the ``mtpu`` engine runs there and run at the top of each."""

    def __init__(self, state) -> None:
        self.tracker = HotspotTracker()
        self.optimizer = HotspotOptimizer(state)
        #: Height of the last committed block folded into the tracker.
        self.height = 0

    def before_block(self, node, context) -> HotspotOptimizer:
        """Fold every block *node* committed since the last call into the
        tracker, re-point the optimizer at the node's state, *context*
        and the pool's dissemination clock, and profile the TOP-8 not yet
        profiled within ``node.clock.idle_budget`` — sampling those
        blocks' own transactions. Returns the optimizer the block runs
        with."""
        fresh = []
        for block in reversed(node.chain):
            if block.header.height <= self.height:
                break
            fresh.append(block)
        samples: dict[int, list[Transaction]] = {}
        for block in reversed(fresh):
            self.tracker.observe_block(block.transactions)
            for tx in block.transactions:
                if tx.to is not None and tx.selector is not None:
                    samples.setdefault(tx.to, []).append(tx)
        if fresh:
            self.height = fresh[0].header.height
        optimizer = self.optimizer
        optimizer.state = node.state
        optimizer.block = context
        optimizer.mempool = node.mempool
        optimizer.dissemination_cutoff = node.mempool.clock
        budget = node.clock.idle_budget
        for address in self.tracker.current_hotspots():
            sample = samples.get(address)
            if address in optimizer.hotspot_addresses or not sample:
                continue
            cost = PROFILE_COST_PER_SAMPLE * len(sample)
            if cost > budget:
                break  # the slice is over; resume next interval
            budget -= cost
            optimizer.optimize_contract(address, sample)
        return optimizer
