"""The incremental crit-bit Merkle tree (one tree per key space).

A path-compressed binary Patricia trie over fixed 32-byte keys. Every
internal node names the first bit position at which its two subtrees
diverge; bit positions strictly increase from root to leaf, so the
structure is *canonical* — determined solely by the key set. Mutations
invalidate only the hashes along one root→leaf path, and
:meth:`MerkleTree.root` lazily rehashes exactly the invalidated nodes,
which is what makes per-block root maintenance O(touched · depth)
instead of O(state).

Trees can be *partial*: :meth:`MerkleTree.from_nodes` rebuilds a tree in
which unexpanded subtrees are opaque hash stubs (the block-witness
encoding). Any get/set/delete whose descent crosses a stub raises
:class:`~repro.trie.errors.WitnessError` — a node executing from a
witness can never silently read or write state its witness did not
cover.
"""

from __future__ import annotations

from .errors import WitnessError
from .verify import EMPTY_ROOT, KEY_BITS, branch_hash, key_bit, leaf_hash

__all__ = ["EMPTY_ROOT", "MerkleTree"]


class _Leaf:
    __slots__ = ("key", "value", "hash")

    def __init__(self, key: bytes, value: bytes) -> None:
        self.key = key
        self.value = value
        self.hash: bytes | None = None


class _Branch:
    __slots__ = ("bit", "left", "right", "hash")

    def __init__(self, bit: int, left, right) -> None:
        self.bit = bit
        self.left = left
        self.right = right
        self.hash: bytes | None = None


class _Stub:
    """An unexpanded subtree known only by its hash (partial trees)."""

    __slots__ = ("hash",)

    def __init__(self, digest: bytes) -> None:
        self.hash = digest


def _diverge_bit(a: bytes, b: bytes) -> int:
    """First bit position (MSB-first) at which two 32-byte keys differ."""
    for i in range(32):
        x = a[i] ^ b[i]
        if x:
            return (i << 3) + (8 - x.bit_length())
    raise ValueError("keys are identical")


class MerkleTree:
    """One authenticated key→value-hash map (account tree or a subtrie).

    Values are opaque 32-byte strings (already-hashed commitments); the
    tree never interprets them. *counter* is an optional shared
    single-cell list the hashing pass increments once per recomputed
    node, so a :class:`~repro.trie.state_trie.StateTrie` can meter
    rehash work across its account tree and every storage subtrie.
    """

    __slots__ = ("_root", "_counter")

    def __init__(self, counter: list[int] | None = None) -> None:
        self._root = None
        self._counter = counter if counter is not None else [0]

    # -- queries -----------------------------------------------------------
    def get(self, key: bytes) -> bytes | None:
        """The value hash at *key*, or None when absent.

        Absence is decidable in a crit-bit tree by descent alone: if the
        key were present it would sit exactly where the descent lands.
        Crossing a stub raises :class:`WitnessError` — a partial tree
        cannot prove absence through an unexpanded subtree.
        """
        node = self._root
        while isinstance(node, _Branch):
            node = node.right if key_bit(key, node.bit) else node.left
        if isinstance(node, _Stub):
            raise WitnessError(
                "lookup crossed an unexpanded witness subtree"
            )
        if node is not None and node.key == key:
            return node.value
        return None

    # -- mutations ---------------------------------------------------------
    def set(self, key: bytes, value: bytes) -> None:
        """Insert or update *key* → *value*, invalidating one path."""
        node = self._root
        if node is None:
            self._root = _Leaf(key, value)
            return
        # Descend to the leaf this key routes to; its key decides where
        # the new branch splices in.
        path: list[_Branch] = []
        while isinstance(node, _Branch):
            path.append(node)
            node = node.right if key_bit(key, node.bit) else node.left
        if isinstance(node, _Stub):
            raise WitnessError(
                "insert crossed an unexpanded witness subtree"
            )
        if node.key == key:
            for branch in path:
                branch.hash = None
            node.value = value
            node.hash = None
            return
        diverge = _diverge_bit(key, node.key)
        # Splice point: the first node whose bit exceeds the diverging
        # bit (bits strictly increase along any path, and the two keys
        # agree on every bit of this one).
        depth = 0
        while depth < len(path) and path[depth].bit < diverge:
            path[depth].hash = None
            depth += 1
        current = path[depth] if depth < len(path) else node
        leaf = _Leaf(key, value)
        if key_bit(key, diverge):
            branch = _Branch(diverge, current, leaf)
        else:
            branch = _Branch(diverge, leaf, current)
        if depth == 0:
            self._root = branch
        elif key_bit(key, path[depth - 1].bit):
            path[depth - 1].right = branch
        else:
            path[depth - 1].left = branch

    def delete(self, key: bytes) -> bool:
        """Remove *key*; returns False when it was not present."""
        node = self._root
        if node is None:
            return False
        path: list[_Branch] = []
        while isinstance(node, _Branch):
            path.append(node)
            node = node.right if key_bit(key, node.bit) else node.left
        if isinstance(node, _Stub):
            raise WitnessError(
                "delete crossed an unexpanded witness subtree"
            )
        if node.key != key:
            return False
        if not path:
            self._root = None
            return True
        for branch in path:
            branch.hash = None
        parent = path[-1]
        sibling = parent.left if key_bit(key, parent.bit) else parent.right
        if len(path) == 1:
            self._root = sibling
        else:
            grand = path[-2]
            if key_bit(key, grand.bit):
                grand.right = sibling
            else:
                grand.left = sibling
        return True

    # -- hashing -----------------------------------------------------------
    def root(self) -> bytes:
        """The root hash, rehashing exactly the invalidated nodes."""
        if self._root is None:
            return EMPTY_ROOT
        return self._hash(self._root)

    def _hash(self, node) -> bytes:
        digest = node.hash
        if digest is None:
            if isinstance(node, _Leaf):
                digest = leaf_hash(node.key, node.value)
            else:
                digest = branch_hash(
                    node.bit,
                    self._hash(node.left),
                    self._hash(node.right),
                )
            node.hash = digest
            self._counter[0] += 1
        return digest

    # -- proofs ------------------------------------------------------------
    def prove(self, key: bytes) -> list[tuple[int, bytes]]:
        """Inclusion proof: root→leaf ``(bit, sibling_hash)`` steps.

        Raises :class:`KeyError` when *key* is absent (only inclusion is
        provable) and :class:`WitnessError` on a stub-crossing path.
        """
        self.root()  # every hash on (and beside) the path is now fresh
        steps: list[tuple[int, bytes]] = []
        node = self._root
        while isinstance(node, _Branch):
            if key_bit(key, node.bit):
                steps.append((node.bit, self._hash(node.left)))
                node = node.right
            else:
                steps.append((node.bit, self._hash(node.right)))
                node = node.left
        if isinstance(node, _Stub):
            raise WitnessError(
                "proof path crossed an unexpanded witness subtree"
            )
        if node is None or node.key != key:
            raise KeyError("key is not in the tree")
        return steps

    # -- partial-tree (witness) serialization ------------------------------
    def serialize_expanded(self, keys) -> list[tuple]:
        """Flat post-order node list, expanded only along *keys*' paths.

        Nodes off every descent path collapse to ``("stub", hash)``.
        The flat (stack-machine) encoding keeps the wire format at a
        fixed RLP nesting depth regardless of tree depth. Tags:
        ``("leaf", key, value)``, ``("branch", bit)``,
        ``("stub", hash)``, ``("empty",)``.
        """
        if self._root is None:
            return [("empty",)]
        self.root()  # stubs need fresh hashes
        expanded: set[int] = set()
        for key in keys:
            node = self._root
            while isinstance(node, _Branch):
                expanded.add(id(node))
                node = node.right if key_bit(key, node.bit) else node.left
            expanded.add(id(node))
        out: list[tuple] = []
        stack: list[tuple[object, bool]] = [(self._root, False)]
        while stack:
            node, emit = stack.pop()
            if isinstance(node, _Branch) and id(node) in expanded:
                if emit:
                    out.append(("branch", node.bit))
                else:
                    stack.append((node, True))
                    stack.append((node.right, False))
                    stack.append((node.left, False))
            elif isinstance(node, _Leaf) and id(node) in expanded:
                out.append(("leaf", node.key, node.value))
            else:
                out.append(("stub", self._hash(node)))
        return out

    @classmethod
    def from_nodes(
        cls, nodes, counter: list[int] | None = None
    ) -> "MerkleTree":
        """Rebuild a (partial) tree from :meth:`serialize_expanded` output.

        Structurally validates the encoding — balanced stack machine,
        branch bits strictly increasing downward, every leaf routed to
        the subtree its key bits select — and raises
        :class:`WitnessError` on any violation, so a hostile witness
        cannot materialize a tree no honest prover could have built.
        """
        tree = cls(counter)
        if len(nodes) == 1 and nodes[0][0] == "empty":
            return tree
        stack: list = []
        for node in nodes:
            tag = node[0]
            if tag == "leaf":
                stack.append(_Leaf(node[1], node[2]))
            elif tag == "stub":
                stack.append(_Stub(node[1]))
            elif tag == "branch":
                bit = node[1]
                if not 0 <= bit < KEY_BITS:
                    raise WitnessError(f"branch bit {bit} out of range")
                if len(stack) < 2:
                    raise WitnessError("unbalanced witness tree encoding")
                right = stack.pop()
                left = stack.pop()
                for child in (left, right):
                    if isinstance(child, _Branch) and child.bit <= bit:
                        raise WitnessError(
                            "branch bits must strictly increase downward"
                        )
                stack.append(_Branch(bit, left, right))
            elif tag == "empty":
                raise WitnessError("empty marker inside a non-empty tree")
            else:
                raise WitnessError(f"unknown witness node tag {tag!r}")
        if len(stack) != 1:
            raise WitnessError("unbalanced witness tree encoding")
        root = stack[0]
        # Leaf routing check: each leaf's key bits must match every
        # branch decision above it, or the tree is non-canonical.
        check: list[tuple[object, tuple]] = [(root, ())]
        while check:
            node, constraints = check.pop()
            if isinstance(node, _Branch):
                check.append((node.left, constraints + ((node.bit, 0),)))
                check.append((node.right, constraints + ((node.bit, 1),)))
            elif isinstance(node, _Leaf):
                for bit, side in constraints:
                    if key_bit(node.key, bit) != side:
                        raise WitnessError(
                            "witness leaf routed to the wrong subtree"
                        )
        tree._root = root
        return tree
