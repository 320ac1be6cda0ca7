"""Device topology: a planar graph of qubits and couplings.

A :class:`Topology` wraps an undirected ``networkx`` graph whose nodes are
qubit indices ``0..n-1`` and whose edges are couplings.  It lazily computes
the structures the scheduling algorithms need: all-pairs distances, the
planar dual multigraph (Section 3.2), bipartiteness, and degree statistics.
"""

from __future__ import annotations

import hashlib
from functools import cached_property
from collections.abc import Iterable
from typing import NamedTuple

import networkx as nx
import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path as _csgraph_shortest_path

from repro.telemetry import span


def edge_key(u: int, v: int) -> tuple[int, int]:
    """Canonical (sorted) form of an undirected edge."""
    return (u, v) if u <= v else (v, u)


class CutParity(NamedTuple):
    """Per-topology tables of :attr:`Topology.cut_parity`.

    ``edge_masks`` maps each edge key to ``(face mask, edge bit)``: the XOR
    of the one-hot bits of the two faces it borders (0 for a bridge), and
    the edge's own bit in :attr:`Topology.edges` order.  ``tree_masks[q]``
    ORs the edge bits on qubit ``q``'s BFS-tree path from qubit 0, whose
    length is ``depths[q]``.
    """

    edge_masks: dict[tuple[int, int], tuple[int, int]]
    face_xor: int
    tree_masks: tuple[int, ...]
    depths: tuple[int, ...]


class Topology:
    """Qubit-coupling graph with planar-dual machinery."""

    def __init__(self, graph: nx.Graph, name: str = "device"):
        if graph.number_of_nodes() == 0:
            raise ValueError("topology must have at least one qubit")
        relabeled = set(graph.nodes) != set(range(graph.number_of_nodes()))
        if relabeled:
            raise ValueError("qubits must be labelled 0..n-1")
        self.graph = nx.Graph(graph)
        self.name = name

    @property
    def num_qubits(self) -> int:
        return self.graph.number_of_nodes()

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(edge_key(u, v) for u, v in self.graph.edges))

    @property
    def num_couplings(self) -> int:
        return len(self.edges)

    def neighbors(self, qubit: int) -> list[int]:
        return sorted(self.graph.neighbors(qubit))

    def has_edge(self, u: int, v: int) -> bool:
        return self.graph.has_edge(u, v)

    @cached_property
    def max_degree(self) -> int:
        return max(dict(self.graph.degree).values(), default=0)

    @cached_property
    def is_bipartite(self) -> bool:
        return nx.is_bipartite(self.graph)

    @cached_property
    def is_planar(self) -> bool:
        return nx.check_planarity(self.graph)[0]

    @cached_property
    def distance_matrix(self) -> np.ndarray:
        """All-pairs shortest-path lengths as a dense float matrix.

        Computed with a vectorized BFS over the sparse adjacency matrix
        (``scipy.sparse.csgraph``), which is orders of magnitude faster than
        the ``networkx`` all-pairs dict at real-device sizes (127-433
        qubits).  Unreachable pairs hold ``inf``.
        """
        with span("sched.distance_matrix"):
            n = self.num_qubits
            if not self.edges:
                matrix = np.full((n, n), np.inf)
                np.fill_diagonal(matrix, 0.0)
                return matrix
            us, vs = self.edge_arrays
            data = np.ones(len(self.edges), dtype=np.int8)
            adjacency = csr_matrix((data, (us, vs)), shape=(n, n))
            return _csgraph_shortest_path(
                adjacency, method="D", directed=False, unweighted=True
            )

    @cached_property
    def is_connected(self) -> bool:
        return not np.isinf(self.distance_matrix).any()

    @cached_property
    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Edge endpoints as two parallel index arrays (for vector gathers)."""
        us = np.fromiter((u for u, _ in self.edges), dtype=np.intp, count=len(self.edges))
        vs = np.fromiter((v for _, v in self.edges), dtype=np.intp, count=len(self.edges))
        return us, vs

    def distance(self, u: int, v: int) -> int:
        """Shortest-path length between qubits (in couplings)."""
        n = self.num_qubits
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"qubits {u}, {v} out of range 0..{n - 1}")
        d = self.distance_matrix[u, v]
        if np.isinf(d):
            raise ValueError(f"no path between qubits {u} and {v}")
        return int(d)

    def shortest_path(self, u: int, v: int) -> list[int]:
        return nx.shortest_path(self.graph, u, v)

    @cached_property
    def dual(self) -> nx.MultiGraph:
        """Planar dual multigraph.

        Nodes are face ids (the outer face included); each primal edge
        ``(u, v)`` becomes a dual edge keyed by ``edge_key(u, v)`` between
        the two faces it borders (a self-loop for bridges).
        """
        return build_planar_dual(self.graph)

    @cached_property
    def fingerprint(self) -> str:
        """Content hash of the coupling graph (structure only, not name).

        Two ``Topology`` instances with the same qubit count and edge set
        share a fingerprint, so caches keyed by it (e.g. the scheduler's
        :class:`~repro.scheduling.plan_cache.SuppressionPlanCache`) can be
        shared across instances and processes.
        """
        blob = f"{self.num_qubits}:{self.edges}".encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    @cached_property
    def dual_edge_of(self) -> dict[tuple[int, int], tuple[int, int]]:
        """Primal edge key -> the dual vertex pair (face pair) it crosses."""
        return {key: (u, v) for u, v, key in self.dual.edges(keys=True)}

    @cached_property
    def cut_parity(self) -> CutParity:
        """Face-parity tables that test a contract set without a 2-coloring.

        Contracting an edge set ``D`` of a connected planar graph leaves a
        bipartite quotient with no internal edge iff every face has an even
        number of edges outside ``D`` (face boundaries generate the cycle
        space), i.e. iff the XOR of the face masks over ``D`` equals the
        XOR over all edges.  A qubit's color is then the parity of
        uncontracted edges on its BFS-tree path from qubit 0.  Only
        meaningful for connected topologies.
        """
        edge_masks: dict[tuple[int, int], tuple[int, int]] = {}
        face_xor = 0
        for i, key in enumerate(self.edges):
            f, g = self.dual_edge_of[key]
            edge_masks[key] = ((1 << f) ^ (1 << g), 1 << i)
            face_xor ^= edge_masks[key][0]
        tree_masks = [0] * self.num_qubits
        depths = [0] * self.num_qubits
        for parent, child in nx.bfs_edges(self.graph, 0):
            bit = edge_masks[edge_key(parent, child)][1]
            tree_masks[child] = tree_masks[parent] | bit
            depths[child] = depths[parent] + 1
        return CutParity(edge_masks, face_xor, tuple(tree_masks), tuple(depths))

    @cached_property
    def dual_simple(self) -> nx.Graph:
        """Simple projection of the dual (see ``graphs.pairing``), cached.

        Treat as immutable: Algorithm 1 copies it before patching out the
        duals of gate-internal edges.
        """
        from repro.graphs.pairing import simple_projection

        return simple_projection(self.dual)

    @cached_property
    def dual_odd_vertices(self) -> tuple[int, ...]:
        """Odd-degree dual vertices of the unmodified dual, sorted."""
        from repro.graphs.pairing import odd_degree_vertices

        return tuple(odd_degree_vertices(self.dual))

    def subtopology(self, qubits: Iterable[int]) -> "Topology":
        """Induced subgraph, relabelled to 0..k-1 preserving order."""
        ordered = sorted(set(qubits))
        mapping = {q: i for i, q in enumerate(ordered)}
        sub = nx.relabel_nodes(self.graph.subgraph(ordered), mapping, copy=True)
        sub.add_nodes_from(range(len(ordered)))
        return Topology(sub, name=f"{self.name}[sub{len(ordered)}]")

    def __repr__(self) -> str:
        return (
            f"Topology({self.name!r}, qubits={self.num_qubits}, "
            f"couplings={self.num_couplings})"
        )


def build_planar_dual(graph: nx.Graph) -> nx.MultiGraph:
    """Construct the planar dual of ``graph`` as a multigraph.

    Each dual edge is keyed by the primal edge it crosses, so algorithms can
    map dual structures (odd-vertex pairings) back to coupling sets.
    """
    is_planar, embedding = nx.check_planarity(graph)
    if not is_planar:
        raise ValueError("topology is not planar; the dual is undefined")
    visited: set[tuple[int, int]] = set()
    face_of: dict[tuple[int, int], int] = {}
    face_count = 0
    for u, v in embedding.edges:
        if (u, v) in visited:
            continue
        nodes = embedding.traverse_face(u, v, mark_half_edges=visited)
        for a, b in zip(nodes, nodes[1:] + nodes[:1]):
            face_of[(a, b)] = face_count
        face_count += 1
    dual = nx.MultiGraph()
    dual.add_nodes_from(range(max(face_count, 1)))
    for a, b in graph.edges:
        dual.add_edge(face_of[(a, b)], face_of[(b, a)], key=edge_key(a, b))
    return dual
