"""Merkleized authenticated state: incremental trie, proofs, witnesses.

The package splits along trust boundaries:

* :mod:`repro.trie.verify` — the *normative hashing spec* plus a
  dependency-free light-client verifier (hashlib only; copy-paste
  portable).
* :mod:`repro.trie.tree` — the in-memory crit-bit Merkle tree with
  memoized hashing (the node-side workhorse).
* :mod:`repro.trie.state_trie` — :class:`StateTrie`, the incremental
  bridge from :class:`~repro.chain.state.WorldState` to a sealed root,
  driven by the state's undo journal (the block's one record of what it
  wrote) so a block's root update costs O(touched · depth), never
  O(state).
* :mod:`repro.trie.proof` — RLP proof blobs served over JSON-RPC.
* :mod:`repro.trie.witness` — block witnesses, and
  :func:`witness_state`, which turns one into a state a node adopts.
"""

from .errors import (
    ProofDecodingError,
    StateRootMismatchError,
    WitnessError,
)
from .proof import (
    AccountProof,
    ProofStep,
    StorageProof,
    decode_proof,
    encode_proof,
)
from .state_trie import StateTrie
from .tree import MerkleTree
from .verify import (
    EMPTY_CODE_HASH,
    EMPTY_ROOT,
    account_key,
    account_value_hash,
    slot_key,
    storage_value_hash,
    verify_account_proof,
    verify_proof_blob,
    verify_storage_proof,
)
from .witness import Witness, build_witness, decode_witness, witness_state

__all__ = [
    "AccountProof",
    "EMPTY_CODE_HASH",
    "EMPTY_ROOT",
    "MerkleTree",
    "ProofDecodingError",
    "ProofStep",
    "StateRootMismatchError",
    "StateTrie",
    "StorageProof",
    "Witness",
    "WitnessError",
    "account_key",
    "account_value_hash",
    "build_witness",
    "decode_proof",
    "decode_witness",
    "encode_proof",
    "slot_key",
    "storage_value_hash",
    "verify_account_proof",
    "verify_proof_blob",
    "verify_storage_proof",
    "witness_state",
]
