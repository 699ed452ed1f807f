"""Workload generation: blocks with controlled redundancy, dependency
ratio and ERC20 proportion.

Three block shapes cover every experiment in the paper:

* :func:`generate_block` — realistic mixed traffic: Zipf-skewed contract
  popularity over the TOP8 suite (plus optional plain transfers), the
  shape used for cache studies (Fig. 13) and instruction mixes (Table 6).
* :func:`generate_dependency_block` — sweeps the *dependency ratio* axis
  of Figs. 14–16 / Table 9: a target fraction of transactions is
  constructed to conflict with an earlier transaction (balance-slot RAW),
  the rest touch disjoint accounts.
* :func:`generate_erc20_block` — sweeps the *ERC20 proportion* axis of
  Table 8.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..chain.dag import (
    build_dag_edges,
    dependency_ratio,
    discover_access_sets,
    transitive_reduction,
)
from ..chain.state import AccessSet
from ..chain.transaction import Transaction
from ..contracts.registry import TOP8_NAMES, Deployment, build_deployment
from .actions import (
    ActionLibrary,
    PlannedCall,
    planned_call_to_transaction,
)
from .zipf import ZipfSampler

#: Contracts whose transfer paths touch only per-account slots — used to
#: construct conflict-free transactions for dependency sweeps. (Tether is
#: excluded: its owner-fee write makes every transfer conflict.)
INDEPENDENT_TOKENS = ["Dai", "TokenA", "TokenB", "LinkToken",
                      "FiatTokenProxy", "WETH9"]


@dataclass
class GeneratedBlock:
    """A generated batch plus everything the scheduler needs to run it."""

    deployment: Deployment
    transactions: list[Transaction]
    access_sets: list[AccessSet] = field(default_factory=list)
    dag_edges: list[tuple[int, int]] = field(default_factory=list)

    @property
    def measured_dependency_ratio(self) -> float:
        """Fraction of transactions with at least one dependency."""
        return dependency_ratio(len(self.transactions), self.dag_edges)

    @property
    def erc20_fraction(self) -> float:
        """Fraction of ERC20 transactions (paper Table 8 axis)."""
        if not self.transactions:
            return 0.0
        count = sum(
            1 for tx in self.transactions if tx.tags.get("is_erc20")
        )
        return count / len(self.transactions)

    def redundancy_histogram(self) -> dict[str, int]:
        """Transactions per contract — the composite-DAG node values."""
        histogram: dict[str, int] = {}
        for tx in self.transactions:
            name = tx.tags.get("contract", "transfer")
            histogram[name] = histogram.get(name, 0) + 1
        return histogram

    def top_k_share(self, k: int = 5) -> float:
        """Share of transactions invoking the k most popular contracts."""
        if not self.transactions:
            return 0.0
        counts = sorted(self.redundancy_histogram().values(), reverse=True)
        return sum(counts[:k]) / len(self.transactions)


def _finalize(
    deployment: Deployment, transactions: list[Transaction]
) -> GeneratedBlock:
    """Discover access sets and the dependency DAG for a batch; the
    deployment's state is left as it was."""
    state = deployment.state
    token = state.snapshot()
    access_sets = discover_access_sets(transactions, state)
    state.revert(token)
    edges = transitive_reduction(
        len(transactions), build_dag_edges(transactions, access_sets)
    )
    return GeneratedBlock(
        deployment=deployment,
        transactions=transactions,
        access_sets=access_sets,
        dag_edges=edges,
    )


def generate_block(
    deployment: Deployment | None = None,
    num_transactions: int = 100,
    seed: int = 0,
    contract_names: list[str] | None = None,
    zipf_exponent: float = 1.0,
    sct_fraction: float = 1.0,
) -> GeneratedBlock:
    """Realistic mixed-traffic block with Zipf contract popularity."""
    rng = random.Random(seed)
    if deployment is None:
        deployment = build_deployment()
    library = ActionLibrary(deployment, rng)
    names = contract_names or list(TOP8_NAMES)
    sampler = ZipfSampler(len(names), zipf_exponent)

    transactions: list[Transaction] = []
    for _ in range(num_transactions):
        if rng.random() >= sct_fraction:
            # Plain native-token transfer (non-SCT traffic, paper Table 1).
            sender = rng.choice(deployment.accounts)
            recipient = rng.choice(deployment.accounts)
            tx = Transaction(
                sender=sender, to=recipient,
                value=rng.randint(1, 10**6), gas_limit=100_000,
                tags={"contract": None, "is_erc20": False},
            )
        else:
            contract = names[sampler.sample(rng)]
            tx = library.to_transaction(library.plan(contract))
        transactions.append(tx)
    return _finalize(deployment, transactions)


def generate_dependency_block(
    deployment: Deployment | None = None,
    num_transactions: int = 64,
    target_ratio: float = 0.5,
    seed: int = 0,
    token_names: list[str] | None = None,
    num_conflict_chains: int = 1,
    token_cycle: bool = False,
) -> GeneratedBlock:
    """Block with a controlled fraction of dependent transactions.

    Independent transactions draw pairwise-disjoint (sender, recipient)
    account pairs on fee-less tokens. Dependent transactions extend one of
    ``num_conflict_chains`` conflict *chains*: each reuses the chain's last
    recipient as its sender (a balance-slot read-after-write), so a
    dependency ratio of r yields a critical path of ≈ r·n/chains
    transactions — the "dependent transactions executed in strict order
    ... are the critical path of parallelism" structure the paper's
    Figs. 14–16 sweep.
    """
    rng = random.Random(seed)
    if deployment is None:
        deployment = build_deployment(
            num_accounts=max(64, 2 * num_transactions + 8)
        )
    if 2 * num_transactions > len(deployment.accounts):
        raise ValueError(
            "need at least 2 accounts per transaction for disjointness; "
            f"have {len(deployment.accounts)} for {num_transactions} txs"
        )
    tokens = token_names or list(INDEPENDENT_TOKENS)
    sampler = ZipfSampler(len(tokens), 1.0)

    fresh_accounts = list(deployment.accounts)
    rng.shuffle(fresh_accounts)
    account_iter = iter(fresh_accounts)

    transactions: list[Transaction] = []
    #: Per-chain (last recipient, token); dependents extend a chain.
    chains: list[tuple[int, str]] = []
    for i in range(num_transactions):
        # token_cycle fixes the token composition deterministically
        # (round-robin), decoupling e.g. the block's ERC20 share from the
        # dependency ratio; the default Zipf draw models hotspot skew.
        if token_cycle:
            token = tokens[i % len(tokens)]
        else:
            token = tokens[sampler.sample(rng)]
        # The first few transactions seed the conflict chains; after that
        # a coin flip at the target ratio decides dependence.
        make_dependent = (
            len(chains) >= num_conflict_chains
            and rng.random() < target_ratio
        )
        if make_dependent:
            chain_index = rng.randrange(len(chains))
            parent_recipient, parent_token = chains[chain_index]
            sender = parent_recipient
            token = parent_token
            recipient = next(account_iter)
            chains[chain_index] = (recipient, token)
        else:
            sender = next(account_iter)
            recipient = next(account_iter)
            if len(chains) < num_conflict_chains:
                chains.append((recipient, token))
        call = PlannedCall(
            token, sender, "transfer(address,uint256)",
            (recipient, rng.randint(1, 10**4)),
        )
        transactions.append(planned_call_to_transaction(deployment, call))
    return _finalize(deployment, transactions)


def generate_dynamic_block(
    deployment: Deployment | None = None,
    num_transactions: int = 64,
    seed: int = 0,
    swap_fraction: float = 0.15,
    proxy_fraction: float = 0.10,
) -> GeneratedBlock:
    """Block of dynamic-storage-key traffic with *no declared access sets*.

    Every transaction's hot slots are calldata-derived (multi-hop path
    swaps, delegatecall proxy swaps, batch airdrops to computed
    recipient runs — see :mod:`repro.contracts.dynamic`), so the
    declared-set pipeline sees them as opaque. The returned block
    carries **empty** ``access_sets``/``dag_edges``, as any follower
    receives it: the engine that runs it discovers them.

    Senders are assigned round-robin over distinct accounts, and
    airdrops dominate the default mix, so the workload's *actual*
    conflict graph is sparse — the parallelism is real, just invisible
    to any admission-time declaration.
    """
    rng = random.Random(seed)
    if deployment is None:
        deployment = build_deployment(
            num_accounts=max(64, num_transactions + 8)
        )
    library = ActionLibrary(deployment, rng)
    senders = list(deployment.accounts)
    rng.shuffle(senders)

    transactions: list[Transaction] = []
    for i in range(num_transactions):
        sender = senders[i % len(senders)]
        roll = rng.random()
        if roll < swap_fraction:
            contract = "PathRouter"
        elif roll < swap_fraction + proxy_fraction:
            contract = "RouterProxy"
        else:
            contract = "AirdropDistributor"
        call = library.plan(contract, sender=sender)
        transactions.append(planned_call_to_transaction(deployment, call))
    return GeneratedBlock(deployment=deployment, transactions=transactions)


def generate_erc20_block(
    deployment: Deployment | None = None,
    num_transactions: int = 64,
    erc20_fraction: float = 0.5,
    seed: int = 0,
) -> GeneratedBlock:
    """Block sweeping the ERC20 share (paper Table 8's axis).

    ERC20 transactions are token transfers/approvals on the ERC20-class
    contracts; the remainder are router swaps, marketplace, collectible,
    gateway and ballot traffic.
    """
    rng = random.Random(seed)
    if deployment is None:
        deployment = build_deployment()
    library = ActionLibrary(deployment, rng)
    erc20_names = ["TetherToken", "Dai", "LinkToken", "FiatTokenProxy"]
    other_names = ["UniswapV2Router02", "SwapRouter", "OpenSea",
                   "CryptoCat", "MainchainGatewayProxy", "Ballot"]

    transactions: list[Transaction] = []
    erc20_quota = round(num_transactions * erc20_fraction)
    kinds = [True] * erc20_quota + [False] * (num_transactions - erc20_quota)
    rng.shuffle(kinds)
    for is_erc20 in kinds:
        pool = erc20_names if is_erc20 else other_names
        contract = rng.choice(pool)
        transactions.append(library.to_transaction(library.plan(contract)))
    return _finalize(deployment, transactions)


def all_entry_function_calls(
    deployment: Deployment, contract_name: str, seed: int = 0,
    per_function: int = 1,
) -> list[Transaction]:
    """Transactions covering every entry function of one contract.

    This is the Fig. 12 methodology: "we build transactions that call
    different entry functions and run through all the execution paths of
    that smart contract as much as possible".
    """
    rng = random.Random(seed)
    library = ActionLibrary(deployment, rng)
    deployed = deployment.contracts[contract_name]
    # Proxies dispatch the implementation's functions.
    dispatch = deployed.storage_artifact
    transactions: list[Transaction] = []
    for fn in dispatch.functions:
        for _ in range(per_function):
            call = library.plan_signature(contract_name, fn.signature)
            transactions.append(library.to_transaction(call))
    return transactions
