"""Hashing and address utilities shared by the EVM and chain substrates.

Substitution note (see DESIGN.md): Ethereum uses keccak-256; we use NIST
SHA3-256 from :mod:`hashlib`. Both are 256-bit sponge digests and every use
in this system treats the digest as opaque (function selectors, storage-map
key derivation, code hashes, block/transaction hashes), so the substitution
does not change any behaviour the paper evaluates.
"""

from __future__ import annotations

import hashlib

WORD_MASK = (1 << 256) - 1
ADDRESS_MASK = (1 << 160) - 1


def keccak256(data: bytes) -> bytes:
    """256-bit digest standing in for keccak-256."""
    return hashlib.sha3_256(data).digest()


def keccak256_int(data: bytes) -> int:
    """The digest as a 256-bit unsigned integer (EVM word)."""
    return int.from_bytes(keccak256(data), "big")


def selector(signature: str) -> bytes:
    """4-byte function selector for a canonical signature string.

    This is the "function identifier" of the paper's *Input* field
    (Fig. 3): the first four bytes of the hash of e.g.
    ``"transfer(address,uint256)"``.
    """
    return keccak256(signature.encode("ascii"))[:4]


def selector_int(signature: str) -> int:
    """The selector as an integer (as it appears on the EVM stack)."""
    return int.from_bytes(selector(signature), "big")


def contract_address(sender: int, nonce: int) -> int:
    """Deterministic CREATE address from sender and nonce."""
    payload = sender.to_bytes(20, "big") + nonce.to_bytes(8, "big")
    return keccak256_int(payload) & ADDRESS_MASK


def create2_address(sender: int, salt: int, code: bytes) -> int:
    """Deterministic CREATE2 address from sender, salt and init code."""
    payload = (
        b"\xff" + sender.to_bytes(20, "big") + salt.to_bytes(32, "big")
        + keccak256(code)
    )
    return keccak256_int(payload) & ADDRESS_MASK
