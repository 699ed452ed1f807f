"""Dependency-DAG discovery and graph utilities."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.chain.dag import (
    build_dag_edges,
    critical_path_length,
    dependency_ratio,
    discover_access_sets,
    indegrees,
    transitive_reduction,
)
from repro.chain.state import AccessSet
from repro.chain.transaction import Transaction


def txs_with_senders(senders):
    return [Transaction(sender=s, to=0x99, nonce=i)
            for i, s in enumerate(senders)]


class TestBuildEdges:
    def test_same_sender_ordering(self):
        txs = txs_with_senders([1, 1, 2])
        sets = [AccessSet() for _ in txs]
        assert build_dag_edges(txs, sets) == [(0, 1)]

    def test_conflict_edge(self):
        txs = txs_with_senders([1, 2])
        sets = [
            AccessSet(writes={(9, 0)}),
            AccessSet(reads={(9, 0)}),
        ]
        assert build_dag_edges(txs, sets) == [(0, 1)]

    def test_edges_point_forward(self):
        txs = txs_with_senders([1, 2, 3, 1, 2])
        sets = [AccessSet(writes={(9, i % 2)}) for i in range(5)]
        for i, j in build_dag_edges(txs, sets):
            assert i < j

    def test_no_conflicts_no_edges(self):
        txs = txs_with_senders([1, 2, 3])
        sets = [AccessSet(writes={(9, i)}) for i in range(3)]
        assert build_dag_edges(txs, sets) == []


class TestTransitiveReduction:
    def test_removes_implied_edge(self):
        edges = [(0, 1), (1, 2), (0, 2)]
        assert transitive_reduction(3, edges) == [(0, 1), (1, 2)]

    def test_keeps_required_edges(self):
        edges = [(0, 2), (1, 2)]
        assert sorted(transitive_reduction(3, edges)) == [(0, 2), (1, 2)]

    def test_long_chain_reduction(self):
        # Complete forward graph reduces to a chain.
        n = 6
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
        reduced = transitive_reduction(n, edges)
        assert sorted(reduced) == [(i, i + 1) for i in range(n - 1)]

    @given(st.integers(2, 12), st.data())
    def test_reduction_preserves_reachability(self, n, data):
        all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = data.draw(st.lists(st.sampled_from(all_pairs),
                                   unique=True, max_size=20))
        reduced = transitive_reduction(n, edges)

        def reach(edge_list):
            adj = [set() for _ in range(n)]
            for i, j in edge_list:
                adj[i].add(j)
            closure = [set(a) for a in adj]
            for i in range(n - 1, -1, -1):
                for j in list(closure[i]):
                    closure[i] |= closure[j]
            return closure

        assert reach(edges) == reach(reduced)


class TestMetrics:
    def test_dependency_ratio(self):
        assert dependency_ratio(4, [(0, 1), (0, 2)]) == 0.5
        assert dependency_ratio(0, []) == 0.0

    def test_indegrees(self):
        assert indegrees(3, [(0, 2), (1, 2)]) == [0, 0, 2]

    def test_critical_path(self):
        assert critical_path_length(3, []) == 1
        assert critical_path_length(3, [(0, 1), (1, 2)]) == 3
        assert critical_path_length(4, [(0, 1), (2, 3)]) == 2


class TestDiscovery:
    def test_discovery_leaves_the_state_as_executed(self, deployment):
        """Discovery is the block's execution: it leaves the state where
        one EVM pass in block order leaves it, receipts included."""
        from repro.evm import EVM
        from repro.workload import generate_block

        block = generate_block(deployment, num_transactions=10, seed=4)
        state = deployment.state.copy()
        artifacts = discover_access_sets(block.transactions, state)
        reference = deployment.state.copy()
        evm = EVM(reference)
        assert [artifact.receipt for artifact in artifacts] == [
            evm.execute_transaction(tx) for tx in block.transactions
        ]
        assert state.state_digest() == reference.state_digest()

    def test_a_discovery_that_raises_reverts_itself(
        self, deployment, monkeypatch
    ):
        from repro.chain import dag
        from repro.workload import generate_block

        block = generate_block(deployment, num_transactions=10, seed=4)
        state = deployment.state.copy()
        digest = state.state_digest()
        real = dag.execute_tracked
        calls = []

        def dies_on_the_third(*args):
            calls.append(1)
            if len(calls) == 3:
                raise RuntimeError("discovery died")
            return real(*args)

        monkeypatch.setattr(dag, "execute_tracked", dies_on_the_third)
        with pytest.raises(RuntimeError, match="discovery died"):
            discover_access_sets(block.transactions, state)
        assert state.state_digest() == digest
        assert state.access is None

    def test_transfers_between_disjoint_accounts_independent(
        self, deployment
    ):
        from repro.evm import abi

        a, b, c, d = deployment.accounts[:4]
        token = deployment.address_of("Dai")
        txs = [
            Transaction(sender=a, to=token, gas_limit=10**6,
                        data=abi.encode_call(
                            "transfer(address,uint256)", b, 1)),
            Transaction(sender=c, to=token, gas_limit=10**6,
                        data=abi.encode_call(
                            "transfer(address,uint256)", d, 1)),
        ]
        sets = discover_access_sets(txs, deployment.state.copy())
        assert build_dag_edges(txs, sets) == []

    def test_overlapping_transfers_conflict(self, deployment):
        from repro.evm import abi

        a, b, c = deployment.accounts[:3]
        token = deployment.address_of("Dai")
        txs = [
            Transaction(sender=a, to=token, gas_limit=10**6,
                        data=abi.encode_call(
                            "transfer(address,uint256)", b, 1)),
            Transaction(sender=b, to=token, gas_limit=10**6,
                        data=abi.encode_call(
                            "transfer(address,uint256)", c, 1)),
        ]
        sets = discover_access_sets(txs, deployment.state.copy())
        assert build_dag_edges(txs, sets) == [(0, 1)]


class TestNetworkxExport:
    def test_graph_structure(self):
        from repro.chain.dag import to_networkx

        graph = to_networkx(4, [(0, 1), (1, 3)])
        assert graph.number_of_nodes() == 4
        assert graph.number_of_edges() == 2
        import networkx as nx

        assert nx.is_directed_acyclic_graph(graph)
        assert nx.dag_longest_path(graph) == [0, 1, 3]

    def test_generated_block_dag_is_acyclic(self, deployment):
        from repro.chain.dag import to_networkx
        from repro.workload import generate_block

        import networkx as nx

        block = generate_block(deployment, num_transactions=30, seed=44)
        graph = to_networkx(len(block.transactions), block.dag_edges)
        assert nx.is_directed_acyclic_graph(graph)
