"""Dynamic-storage-key archetypes: workloads declarations cannot serve.

Every contract here derives its hot storage slots from *runtime* values —
token addresses picked per call, loop counters, delegatecalled layouts —
so no submitter can attach a truthful access-set declaration and the
conflict-aware packer sees them as opaque. Only executing them finds
their keys — the proposer's pre-execution, or a follower's discovery:

* :func:`make_path_router` — a multi-hop AMM router whose reserve slots
  depend on the ``(tokenIn, tokenOut)`` pair of *each hop* of a
  caller-chosen path.
* :func:`make_airdrop_distributor` — a batch airdrop whose recipient
  balance slots are computed in a loop (``firstRecipient + i``); the key
  *count* itself is a calldata argument.
* The delegatecall proxy hot path reuses :func:`~repro.contracts.proxy
  .make_proxy` in front of the path router (``RouterProxy`` in the
  registry): the proxy's storage is addressed by the *implementation's*
  layout behind a DELEGATECALL, one more indirection no declaration
  survives.

The router mirrors the proxy storage convention (scalars 0/1 reserved
for ``implementation``/``admin``) so the same compiled artifact serves
standalone and as a proxy implementation.
"""

from __future__ import annotations

from .lang import (
    Arg,
    Assign,
    Caller,
    Const,
    ContractDef,
    Emit,
    ExtCall,
    FunctionDef,
    Local,
    MapLoad,
    Map2Load,
    MapStore,
    Map2Store,
    Require,
    Return,
    SelfAddress,
    While,
)
from .lang.compiler import CompiledContract, compile_contract

PATH_SWAP_EVENT = "PathSwap(address,address,uint256)"
AIRDROP_EVENT = "Airdrop(address,address,uint256)"


def _hop(prefix: str, token_in, token_out, amount_in) -> list:
    """One constant-product hop (0.3% fee); output in ``<prefix>_out``.

    The reserve slots are ``keccak``-derived from *token_in*/*token_out*
    — calldata at run time, unknowable at admission time.
    """
    reserve_in = f"{prefix}_reserve_in"
    reserve_out = f"{prefix}_reserve_out"
    fee_amount = f"{prefix}_in_with_fee"
    out = f"{prefix}_out"
    return [
        Assign(reserve_in, Map2Load("reserves", token_in, token_out)),
        Assign(reserve_out, Map2Load("reserves", token_out, token_in)),
        Require(Local(reserve_in).gt(0)),
        Require(Local(reserve_out).gt(0)),
        Assign(fee_amount, amount_in * 997),
        Assign(
            out,
            (Local(fee_amount) * Local(reserve_out))
            // (Local(reserve_in) * 1000 + Local(fee_amount)),
        ),
        Map2Store("reserves", token_in, token_out,
                  Local(reserve_in) + amount_in),
        Map2Store("reserves", token_out, token_in,
                  Local(reserve_out) - Local(out)),
    ]


def make_path_router() -> CompiledContract:
    """Multi-hop AMM router: ``swapExactPath`` routes through two pools.

    ``swapExactPath(amountIn, minOut, token0, token1, token2)`` swaps
    token0 → token1 → token2 against this contract's own reserves,
    pulling the input leg from the caller and paying the final leg out
    of router inventory. Four reserve slots across two pools plus two
    ERC20 legs — every one keyed by calldata.
    """
    definition = ContractDef(
        name="PathRouter",
        scalars=["implementation", "admin"],
        mappings=["reserves"],
        functions=[
            FunctionDef(
                "swapExactPath(uint256,uint256,address,address,address)",
                [
                    *_hop("hop1", Arg(2), Arg(3), Arg(0)),
                    *_hop("hop2", Arg(3), Arg(4), Local("hop1_out")),
                    Require(Local("hop2_out").ge(Arg(1))),
                    ExtCall(
                        target=Arg(2),
                        signature="transferFrom(address,address,uint256)",
                        args=[Caller(), SelfAddress(), Arg(0)],
                    ),
                    ExtCall(
                        target=Arg(4),
                        signature="transfer(address,uint256)",
                        args=[Caller(), Local("hop2_out")],
                    ),
                    Emit(PATH_SWAP_EVENT, topics=[Caller(), Arg(2)],
                         data=[Local("hop2_out")]),
                    Return(Local("hop2_out")),
                ],
            ),
            FunctionDef(
                "quotePath(uint256,address,address,address)",
                # View quote for the same two-hop path.
                [
                    *_hop("q1", Arg(1), Arg(2), Arg(0)),
                    *_hop("q2", Arg(2), Arg(3), Local("q1_out")),
                    Return(Local("q2_out")),
                ],
            ),
        ],
    )
    return compile_contract(definition)


def make_airdrop_distributor() -> CompiledContract:
    """Batch airdrop: one transaction funds *count* consecutive accounts.

    ``airdrop(token, firstRecipient, count, amountEach)`` pulls
    ``count × amountEach`` from the *caller's* token balance (so two
    airdrops from different senders touch disjoint debit slots and can
    commit concurrently) and credits ``firstRecipient + i`` for each
    ``i < count`` — a write set whose size and members are both
    calldata-dependent.
    """
    definition = ContractDef(
        name="AirdropDistributor",
        scalars=["implementation", "admin"],
        mappings=["drops"],
        functions=[
            FunctionDef(
                "airdrop(address,address,uint256,uint256)",
                [
                    Require(Arg(2).gt(0)),
                    Assign("i", Const(0)),
                    While(
                        Local("i").lt(Arg(2)),
                        [
                            ExtCall(
                                target=Arg(0),
                                signature=(
                                    "transferFrom(address,address,uint256)"
                                ),
                                args=[
                                    Caller(),
                                    Arg(1) + Local("i"),
                                    Arg(3),
                                ],
                            ),
                            Assign("i", Local("i") + 1),
                        ],
                    ),
                    MapStore("drops", Caller(),
                             MapLoad("drops", Caller()) + Arg(2)),
                    Emit(AIRDROP_EVENT, topics=[Caller(), Arg(0)],
                         data=[Arg(2)]),
                    Return(Arg(2)),
                ],
            ),
            FunctionDef(
                "dropsOf(address)",
                [Return(MapLoad("drops", Arg(0)))],
            ),
        ],
    )
    return compile_contract(definition)
