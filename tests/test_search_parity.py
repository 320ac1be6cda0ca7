"""Face-parity search verdicts == the exact contract-and-2-color evaluator.

Algorithm 1's Path-Relaxing hill climb judges each candidate pairing with
:func:`~repro.graphs.suppression._search_objective`, a parity test on the
topology's cached dual tables (:attr:`Topology.cut_parity`).  These tests
pin it to :func:`~repro.graphs.suppression._evaluate` — contract, 2-color
with :func:`~repro.graphs.cuts.induce_cut`, check the gate qubits — on
random contract sets (valid and invalid) and random gate-qubit sets, and
show that a wrong face mask or tree-path mask is caught.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.device import Topology, grid, heavy_hex, ring
from repro.graphs.suppression import _evaluate, _search_objective
from repro.verify.generators import scale_topology

ALPHA = 0.5


def _triangular(rows: int, cols: int) -> Topology:
    graph = nx.convert_node_labels_to_integers(
        nx.triangular_lattice_graph(rows, cols), ordering="sorted"
    )
    return Topology(graph, name=f"tri{rows}x{cols}")


TOPOLOGIES = {
    "falcon": lambda: scale_topology("falcon"),
    "hummingbird": lambda: scale_topology("hummingbird"),
    "eagle": lambda: scale_topology("eagle"),
    "heavyhex-9": lambda: heavy_hex(9),
    "grid-3x3": lambda: grid(3, 3),
    "grid-3x5": lambda: grid(3, 5),
    "grid-4x4": lambda: grid(4, 4),
    "grid-5x4": lambda: grid(5, 4),
    "ring-7": lambda: ring(7),
    "triangular-3x4": lambda: _triangular(3, 4),
}


def _samples(topology: Topology, rng: np.random.Generator, count: int):
    """``count`` random (contract set, gate-qubit set) pairs.

    A third of the contract sets are the monochromatic edges of a random
    2-coloring (always valid), a third are such sets with one or two edges
    toggled (mostly invalid), and a third are uniform random subsets.
    Half the gate sets are drawn from one color class of that coloring, so
    the monochromatic check is exercised on valid candidates too.
    """
    edges = topology.edges
    n = topology.num_qubits
    for i in range(count):
        coloring = rng.integers(0, 2, n)
        mode = i % 3
        if mode == 2:
            keep = rng.random(len(edges)) < rng.random()
        else:
            keep = np.array([coloring[u] == coloring[v] for u, v in edges])
            if mode == 1:
                keep[rng.choice(len(edges), int(rng.integers(1, 3)))] ^= True
        contract = frozenset(e for e, k in zip(edges, keep) if k)
        size = int(rng.integers(0, 5))
        if i % 2:
            pool = np.flatnonzero(coloring == coloring[rng.integers(n)])
        else:
            pool = np.arange(n)
        gates = rng.choice(pool, min(size, len(pool)), replace=False)
        yield contract, frozenset(int(q) for q in gates)


def _verdicts(topology: Topology, samples):
    """(mismatches, number of valid candidates) over ``samples``."""
    mismatches, valid = [], 0
    for contract, gates in samples:
        plan = _evaluate(topology, contract, frozenset(), gates)
        expected = None if plan is None else plan.objective(ALPHA)
        got = _search_objective(topology, contract, gates, ALPHA)
        valid += expected is not None
        if got != expected:
            mismatches.append((sorted(contract), sorted(gates), got, expected))
    return mismatches, valid


@pytest.mark.parametrize("name", sorted(TOPOLOGIES))
def test_parity_search_matches_exact_evaluator(name):
    topology = TOPOLOGIES[name]()
    assert topology.is_connected
    count = 150 if topology.num_qubits > 60 else 400
    samples = list(_samples(topology, np.random.default_rng(11), count))
    mismatches, valid = _verdicts(topology, samples)
    assert mismatches == []
    # Both verdicts occur, so neither branch is vacuous.
    assert 0 < valid < len(samples)


def test_bridge_edges_have_zero_face_mask():
    topology = heavy_hex(3)
    parity = topology.cut_parity
    bridges = set(nx.bridges(topology.graph))
    assert bridges
    for u, v in topology.edges:
        face, bit = parity.edge_masks[(u, v)]
        is_bridge = (u, v) in bridges or (v, u) in bridges
        assert (face == 0) == is_bridge
        assert bit == 1 << topology.edges.index((u, v))


def _corrupt_face_mask(topology: Topology) -> None:
    parity = topology.cut_parity
    key = next(k for k, (face, _) in parity.edge_masks.items() if face)
    edge_masks = dict(parity.edge_masks)
    edge_masks[key] = (0, edge_masks[key][1])  # as if the edge were a bridge
    topology.__dict__["cut_parity"] = parity._replace(edge_masks=edge_masks)


def _corrupt_tree_mask(topology: Topology) -> None:
    parity = topology.cut_parity
    q = max(range(topology.num_qubits), key=parity.depths.__getitem__)
    tree_masks = list(parity.tree_masks)
    tree_masks[q] &= tree_masks[q] - 1  # drop one edge from q's tree path
    topology.__dict__["cut_parity"] = parity._replace(
        tree_masks=tuple(tree_masks)
    )


@pytest.mark.parametrize("corrupt", [_corrupt_face_mask, _corrupt_tree_mask])
def test_corrupted_tables_are_caught(corrupt):
    """The equivalence check has teeth: one wrong mask yields mismatches."""
    topology = grid(3, 4)
    samples = list(_samples(topology, np.random.default_rng(11), 400))
    assert _verdicts(topology, samples)[0] == []
    corrupt(topology)
    assert _verdicts(topology, samples)[0]
