"""Contract registry and genesis deployment.

Builds the full synthetic mainnet the evaluation runs against: the TOP8
contract archetypes of the paper (Table 6), the auxiliary contracts they
interact with, pre-funded user accounts, token allowances, AMM reserves
and gateway quotas — so that generated workloads execute successfully.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..chain.state import WorldState
from .ballot import make_ballot
from .collectible import make_cryptocat
from .dex import make_swap_router, make_uniswap_router
from .dynamic import make_airdrop_distributor, make_path_router
from .erc20 import (
    make_dai,
    make_link_token,
    make_oracle_receiver,
    make_plain_erc20,
    make_tether,
)
from .lang.compiler import CompiledContract
from .marketplace import make_marketplace
from .proxy import make_fiat_token_impl, make_gateway_impl, make_proxy
from .weth import make_weth

# -- fixed address plan -------------------------------------------------------
ADMIN = 0xAD317
TETHER = 0x1001
UNISWAP_ROUTER = 0x1002
FIAT_TOKEN_PROXY = 0x1003
OPENSEA = 0x1004
LINK_TOKEN = 0x1005
SWAP_ROUTER = 0x1006
DAI = 0x1007
GATEWAY_PROXY = 0x1008
WETH = 0x1009
BALLOT = 0x100A
CRYPTOCAT = 0x100B
#: Dynamic-storage-key archetypes (repro.contracts.dynamic): their hot
#: slots are calldata-derived, so no declared access set covers them;
#: pre-execution discovers them.
PATH_ROUTER = 0x100C
AIRDROP = 0x100D
ROUTER_PROXY = 0x100E
TOKEN_A = 0x2001
TOKEN_B = 0x2002
ORACLE_RECEIVER = 0x2003
FIAT_TOKEN_IMPL = 0x3001
GATEWAY_IMPL = 0x3002

#: The paper's TOP8 hotspot contracts, in Table 6 order.
TOP8_NAMES = [
    "TetherToken",
    "UniswapV2Router02",
    "FiatTokenProxy",
    "OpenSea",
    "LinkToken",
    "SwapRouter",
    "Dai",
    "MainchainGatewayProxy",
]

#: Contracts whose transactions count as "ERC20 transactions" for the
#: BPU comparison (paper Tables 8-9). TokenA/TokenB deliberately stay
#: outside the set: in BPU comparisons they stand in for non-standard
#: application contracts that the App engine cannot accelerate.
ERC20_NAMES = {
    "TetherToken", "Dai", "LinkToken", "FiatTokenProxy", "WETH9",
}

TOKEN_SUPPLY = 10**15  # per-user genesis token balance
NATIVE_SUPPLY = 10**24  # per-user genesis native balance
HUGE_ALLOWANCE = 10**30


@dataclass
class DeployedContract:
    """One contract instance in the deployment."""

    name: str
    address: int
    artifact: CompiledContract
    #: Artifact whose storage layout governs this address (differs from
    #: ``artifact`` for proxies, whose logic lives elsewhere).
    storage_artifact: CompiledContract = None  # type: ignore[assignment]
    is_erc20: bool = False

    def __post_init__(self) -> None:
        if self.storage_artifact is None:
            self.storage_artifact = self.artifact


@dataclass
class Deployment:
    """The genesis world: state + contracts + user accounts."""

    state: WorldState
    contracts: dict[str, DeployedContract]
    accounts: list[int]
    admin: int = ADMIN

    def contract(self, name: str) -> DeployedContract:
        return self.contracts[name]

    def address_of(self, name: str) -> int:
        return self.contracts[name].address

    def by_address(self, address: int) -> DeployedContract | None:
        for deployed in self.contracts.values():
            if deployed.address == address:
                return deployed
        return None

    def top8(self) -> list[DeployedContract]:
        """The paper's TOP8 hotspot contracts, Table 6 order."""
        return [self.contracts[name] for name in TOP8_NAMES]

    # -- storage helpers (route through the storage artifact's layout) -----
    def token_balance(self, name: str, holder: int) -> int:
        deployed = self.contracts[name]
        slot = deployed.storage_artifact.mapping_value_slot(
            "balances", holder
        )
        return self.state.get_storage(deployed.address, slot)

    def set_token_balance(self, name: str, holder: int, amount: int) -> None:
        deployed = self.contracts[name]
        slot = deployed.storage_artifact.mapping_value_slot(
            "balances", holder
        )
        self.state.set_storage(deployed.address, slot, amount)

    def set_allowance(
        self, name: str, owner: int, spender: int, amount: int
    ) -> None:
        deployed = self.contracts[name]
        slot = deployed.storage_artifact.mapping2_value_slot(
            "allowances", owner, spender
        )
        self.state.set_storage(deployed.address, slot, amount)

    def set_scalar(self, name: str, scalar: str, value: int) -> None:
        deployed = self.contracts[name]
        slot = deployed.storage_artifact.scalar_slots[scalar]
        self.state.set_storage(deployed.address, slot, value)

    def set_mapping(
        self, name: str, map_name: str, key: int, value: int
    ) -> None:
        deployed = self.contracts[name]
        slot = deployed.storage_artifact.mapping_value_slot(map_name, key)
        self.state.set_storage(deployed.address, slot, value)

    def set_mapping2(
        self, name: str, map_name: str, key1: int, key2: int, value: int
    ) -> None:
        deployed = self.contracts[name]
        slot = deployed.storage_artifact.mapping2_value_slot(
            map_name, key1, key2
        )
        self.state.set_storage(deployed.address, slot, value)


def compile_suite() -> dict[str, CompiledContract]:
    """Compile every contract in the suite (pure, no state)."""
    return {
        "TetherToken": make_tether(),
        "Dai": make_dai(),
        "LinkToken": make_link_token(),
        "UniswapV2Router02": make_uniswap_router(),
        "SwapRouter": make_swap_router(),
        "OpenSea": make_marketplace(),
        "FiatTokenProxy": make_proxy("FiatTokenProxy"),
        "FiatTokenV2": make_fiat_token_impl(),
        "MainchainGatewayProxy": make_proxy("MainchainGatewayProxy"),
        "MainchainGatewayManager": make_gateway_impl(),
        "WETH9": make_weth(),
        "Ballot": make_ballot(),
        "CryptoCat": make_cryptocat(),
        "TokenA": make_plain_erc20("TokenA"),
        "TokenB": make_plain_erc20("TokenB"),
        "OracleReceiver": make_oracle_receiver(),
        "PathRouter": make_path_router(),
        "AirdropDistributor": make_airdrop_distributor(),
        "RouterProxy": make_proxy("RouterProxy"),
    }


def build_deployment(
    num_accounts: int = 64, account_base: int = 0x100000
) -> Deployment:
    """Deploy the suite into a fresh world state and seed balances."""
    artifacts = compile_suite()
    state = WorldState()
    accounts = [account_base + i for i in range(num_accounts)]

    placements = {
        "TetherToken": TETHER,
        "Dai": DAI,
        "LinkToken": LINK_TOKEN,
        "UniswapV2Router02": UNISWAP_ROUTER,
        "SwapRouter": SWAP_ROUTER,
        "OpenSea": OPENSEA,
        "FiatTokenProxy": FIAT_TOKEN_PROXY,
        "FiatTokenV2": FIAT_TOKEN_IMPL,
        "MainchainGatewayProxy": GATEWAY_PROXY,
        "MainchainGatewayManager": GATEWAY_IMPL,
        "WETH9": WETH,
        "Ballot": BALLOT,
        "CryptoCat": CRYPTOCAT,
        "TokenA": TOKEN_A,
        "TokenB": TOKEN_B,
        "OracleReceiver": ORACLE_RECEIVER,
        "PathRouter": PATH_ROUTER,
        "AirdropDistributor": AIRDROP,
        "RouterProxy": ROUTER_PROXY,
    }
    contracts: dict[str, DeployedContract] = {}
    for name, artifact in artifacts.items():
        address = placements[name]
        artifact.deploy(state, address)
        contracts[name] = DeployedContract(
            name=name,
            address=address,
            artifact=artifact,
            is_erc20=name in ERC20_NAMES,
        )
    # Proxies execute their implementation's logic against their own
    # storage; route storage helpers through the implementation layout.
    contracts["FiatTokenProxy"].storage_artifact = artifacts["FiatTokenV2"]
    contracts["MainchainGatewayProxy"].storage_artifact = artifacts[
        "MainchainGatewayManager"
    ]
    contracts["RouterProxy"].storage_artifact = artifacts["PathRouter"]

    deployment = Deployment(
        state=state, contracts=contracts, accounts=accounts
    )
    _seed_genesis(deployment)
    return deployment


def _seed_genesis(d: Deployment) -> None:
    state = d.state
    parties = d.accounts + [d.admin]

    # Native balances for users, contracts that pay out, and the admin.
    for account in parties:
        state.set_balance(account, NATIVE_SUPPLY)
    for holder in (WETH, OPENSEA, CRYPTOCAT, GATEWAY_PROXY):
        state.set_balance(holder, NATIVE_SUPPLY)

    # Proxy wiring.
    d.set_scalar("FiatTokenProxy", "implementation", FIAT_TOKEN_IMPL)
    d.set_scalar("FiatTokenProxy", "admin", d.admin)
    d.set_scalar("MainchainGatewayProxy", "implementation", GATEWAY_IMPL)
    d.set_scalar("MainchainGatewayProxy", "admin", d.admin)
    # RouterProxy delegates straight to the standalone PathRouter code
    # (proxy storage, router logic — the delegatecall hot path).
    d.set_scalar("RouterProxy", "implementation", PATH_ROUTER)
    d.set_scalar("RouterProxy", "admin", d.admin)

    # Tether configuration: owner, 10bp fee, unpaused.
    d.set_scalar("TetherToken", "owner", d.admin)
    d.set_scalar("TetherToken", "fee_rate", 10)
    d.set_mapping("Dai", "wards", d.admin, 1)
    # A sacrificial blacklisted account for destroyBlackFunds workloads.
    d.set_mapping("TetherToken", "blacklist", 0xBADD1E, 1)
    d.set_token_balance("TetherToken", 0xBADD1E, 1000)
    d.set_mapping("FiatTokenProxy", "minters", d.admin, 1)

    # Token balances and allowances. The dynamic-archetype spenders
    # (path router, its proxy, the airdrop distributor) get the same
    # pre-approval so the dynamic workloads execute successfully.
    spenders = (UNISWAP_ROUTER, SWAP_ROUTER, GATEWAY_PROXY,
                PATH_ROUTER, ROUTER_PROXY, AIRDROP)
    for token in ("TetherToken", "Dai", "LinkToken", "FiatTokenProxy",
                  "TokenA", "TokenB"):
        for account in parties:
            d.set_token_balance(token, account, TOKEN_SUPPLY)
            for spender in spenders:
                d.set_allowance(token, account, spender, HUGE_ALLOWANCE)
        # Ring allowance over user accounts: account i may spend from
        # account i-1, giving transferFrom workloads a pre-approved owner.
        for i, account in enumerate(d.accounts):
            d.set_allowance(
                token, d.accounts[i - 1], account, HUGE_ALLOWANCE
            )
        # Routers and gateway need inventory to pay out swaps/withdrawals.
        for holder in spenders:
            d.set_token_balance(token, holder, TOKEN_SUPPLY * 1000)
        d.set_scalar(
            token, "total_supply",
            TOKEN_SUPPLY * (len(parties) + 1000 * len(spenders)),
        )

    # AMM reserves for the trading pairs used by workloads.
    pairs = [
        (TOKEN_A, TOKEN_B),
        (TETHER, DAI),
        (TOKEN_A, TETHER),
        (TOKEN_B, DAI),
    ]
    for router in ("UniswapV2Router02", "SwapRouter"):
        for left, right in pairs:
            d.set_mapping2(router, "reserves", left, right, 10**13)
            d.set_mapping2(router, "reserves", right, left, 10**13)

    # Path-router reserves: every ordered pair of the four route tokens
    # holds liquidity, so any caller-chosen two-hop path is viable. The
    # proxy holds its *own* reserves (delegatecalled code addresses
    # proxy storage).
    route_tokens = (TETHER, DAI, TOKEN_A, TOKEN_B)
    for router in ("PathRouter", "RouterProxy"):
        for left in route_tokens:
            for right in route_tokens:
                if left != right:
                    d.set_mapping2(router, "reserves", left, right, 10**13)

    # WETH: users start with wrapped balance (native escrow is above),
    # plus the same ring allowance as the other tokens.
    for i, account in enumerate(d.accounts):
        d.set_mapping("WETH9", "balances", account, TOKEN_SUPPLY)
        d.set_allowance("WETH9", d.accounts[i - 1], account,
                        HUGE_ALLOWANCE)

    # Gateway: generous withdrawal quota per token.
    for token in (TETHER, DAI, TOKEN_A, TOKEN_B):
        d.set_mapping("MainchainGatewayProxy", "daily_quota", token, 10**30)

    # OpenSea: fee config.
    d.set_scalar("OpenSea", "protocol_fee_bp", 250)
    d.set_scalar("OpenSea", "fee_recipient", d.admin)

    # CryptoCat: hour-long auctions.
    d.set_scalar("CryptoCat", "auction_duration", 3600)

    # Ballot: ten proposals, every user enfranchised.
    d.set_scalar("Ballot", "chairperson", d.admin)
    d.set_scalar("Ballot", "proposal_count", 10)
    for account in d.accounts:
        d.set_mapping("Ballot", "voter_weight", account, 1)

    # Marketplace inventory: pre-minted NFTs and open sell orders.
    tokens, orders, next_nft = marketplace_genesis(d.accounts)
    for owner, token_id in tokens:
        d.set_mapping("OpenSea", "token_owner", token_id, owner)
    for order_id, seller, price, token_id in orders:
        d.set_mapping("OpenSea", "token_owner", token_id, 0)
        d.set_mapping("OpenSea", "order_token", order_id, token_id)
        d.set_mapping("OpenSea", "order_price", order_id, price)
        d.set_mapping("OpenSea", "order_seller", order_id, seller)
    d.set_scalar("OpenSea", "next_order_id", len(orders))

    # Collectible inventory: owned cats plus live Dutch auctions.
    cats, auctions, next_cat = cryptocat_genesis(d.accounts)
    for owner, cat_id, genes in cats:
        d.set_mapping("CryptoCat", "cat_owner", cat_id, owner)
        d.set_mapping("CryptoCat", "cat_genes", cat_id, genes)
    for cat_id, seller, start_price, end_price in auctions:
        d.set_mapping("CryptoCat", "cat_owner", cat_id, 0)
        d.set_mapping("CryptoCat", "auction_start_price", cat_id,
                      start_price)
        d.set_mapping("CryptoCat", "auction_end_price", cat_id, end_price)
        d.set_mapping("CryptoCat", "auction_started_at", cat_id,
                      1_600_000_000)
        d.set_mapping("CryptoCat", "auction_seller", cat_id, seller)
    d.set_scalar("CryptoCat", "next_cat_id", next_cat)

    state.clear_journal()


def marketplace_genesis(
    accounts: list[int],
) -> tuple[list[tuple[int, int]], list[tuple[int, int, int, int]], int]:
    """Deterministic OpenSea inventory shared by genesis and workloads.

    Returns (owned tokens as (owner, tokenId), open orders as
    (orderId, seller, price, tokenId), next free tokenId).
    """
    count = max(64, 4 * len(accounts))
    next_nft = 10_000
    tokens: list[tuple[int, int]] = []
    for i in range(count):
        tokens.append((accounts[i % len(accounts)], next_nft))
        next_nft += 1
    orders: list[tuple[int, int, int, int]] = []
    for i in range(count):
        seller = accounts[(i * 7) % len(accounts)]
        price = 10**9 * (1 + i % 5)
        orders.append((i, seller, price, next_nft))
        next_nft += 1
    return tokens, orders, next_nft


def cryptocat_genesis(
    accounts: list[int],
) -> tuple[list[tuple[int, int, int]], list[tuple[int, int, int, int]], int]:
    """Deterministic CryptoCat inventory shared by genesis and workloads.

    Returns (cats as (owner, catId, genes), auctions as
    (catId, seller, startPrice, endPrice), next free catId).
    """
    from ..crypto import keccak256_int

    count = max(64, 4 * len(accounts))
    cats = [
        (
            accounts[i % len(accounts)],
            i,
            keccak256_int(i.to_bytes(4, "big")),
        )
        for i in range(count)
    ]
    auctions = [
        (i, accounts[(i * 5) % len(accounts)], 10**10, 10**8)
        for i in range(count, 2 * count)
    ]
    return cats, auctions, 2 * count
