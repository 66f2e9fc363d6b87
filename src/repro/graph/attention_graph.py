"""The attention graph: tokens as vertices, mask non-zeros as edges.

This is the data structure of Section IV-A.  Vertex ``i`` carries the query,
key and value rows ``(Q_i, K_i, V_i)``; a directed edge ``i -> j`` exists when
the mask entry ``A_ij`` is 1, meaning query ``i`` pulls key/value information
from token ``j`` during the attention computation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple, Union

import numpy as np

from repro.masks.base import MaskSpec, as_mask_spec
from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix
from repro.utils.validation import require

if TYPE_CHECKING:
    import networkx


class AttentionGraph:
    """Directed graph over tokens with CSR adjacency and Q/K/V vertex attributes."""

    def __init__(
        self,
        adjacency: CSRMatrix,
        queries: Optional[np.ndarray] = None,
        keys: Optional[np.ndarray] = None,
        values: Optional[np.ndarray] = None,
    ):
        # Full attention graphs are square (L x L); row-sliced subgraphs used by
        # the sequence-parallel extension are rectangular (rows x L), with
        # queries attached per row and keys/values per column vertex.
        self.adjacency = adjacency
        self.queries = queries
        self.keys = keys
        self.values = values
        if queries is not None:
            require(queries.shape[0] == adjacency.shape[0], "queries must have one row per query vertex")
        for name, attr in (("keys", keys), ("values", values)):
            if attr is not None:
                require(
                    attr.shape[0] == adjacency.shape[1],
                    f"{name} must have one row per key vertex",
                )

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_mask(
        cls,
        mask: Union[MaskSpec, np.ndarray, COOMatrix, CSRMatrix],
        length: Optional[int] = None,
        *,
        queries: Optional[np.ndarray] = None,
        keys: Optional[np.ndarray] = None,
        values: Optional[np.ndarray] = None,
    ) -> "AttentionGraph":
        """Build from a mask spec (needs ``length``) or a concrete mask."""
        if isinstance(mask, CSRMatrix):
            adjacency = mask
        elif isinstance(mask, COOMatrix):
            adjacency = mask.to_csr()
        elif isinstance(mask, MaskSpec):
            if length is None:
                if queries is not None:
                    length = queries.shape[0]
                else:
                    raise ValueError("length (or queries) required to materialise a MaskSpec")
            adjacency = mask.to_csr(length)
        else:
            adjacency = as_mask_spec(mask).matrix
        require(adjacency.shape[0] == adjacency.shape[1], "attention masks must be square")
        return cls(adjacency, queries=queries, keys=keys, values=values)

    # ------------------------------------------------------------------ #
    # Basic graph interface
    # ------------------------------------------------------------------ #
    @property
    def num_vertices(self) -> int:
        return self.adjacency.shape[0]

    @property
    def num_edges(self) -> int:
        return self.adjacency.nnz

    @property
    def sparsity_factor(self) -> float:
        """``Sf`` of the underlying mask (edges / L^2)."""
        return self.adjacency.sparsity_factor

    def neighbors(self, vertex: int) -> np.ndarray:
        """Out-neighbours of a query vertex — the ``Get_Neighbors`` of Algorithm 1."""
        return self.adjacency.row_neighbors(vertex)

    def out_degrees(self) -> np.ndarray:
        return self.adjacency.row_degrees()

    def in_degrees(self) -> np.ndarray:
        degrees = np.zeros(self.num_vertices, dtype=np.int64)
        if self.num_edges:
            uniq, counts = np.unique(self.adjacency.indices, return_counts=True)
            degrees[uniq] = counts
        return degrees

    def has_edge(self, i: int, j: int) -> bool:
        return bool(np.isin(j, self.neighbors(i)))

    def vertex_attributes(self, vertex: int) -> Tuple[Optional[np.ndarray], ...]:
        """``(Q_i, K_i, V_i)`` for a vertex, ``None`` where unattached."""
        pick = lambda arr: arr[vertex] if arr is not None else None  # noqa: E731
        return pick(self.queries), pick(self.keys), pick(self.values)

    def attach_qkv(self, queries: np.ndarray, keys: np.ndarray, values: np.ndarray) -> "AttentionGraph":
        """Return a graph with the same adjacency and new vertex attributes."""
        return AttentionGraph(self.adjacency, queries=queries, keys=keys, values=values)

    # ------------------------------------------------------------------ #
    # Structure queries
    # ------------------------------------------------------------------ #
    def is_symmetric(self) -> bool:
        """Whether every edge has its reverse edge (undirected attention pattern)."""
        coo = self.adjacency.to_coo()
        transposed = coo.transpose()
        return coo.difference(transposed).nnz == 0 and transposed.difference(coo).nnz == 0

    def empty_rows(self) -> np.ndarray:
        """Query vertices with no neighbours (fully masked rows)."""
        return np.flatnonzero(self.out_degrees() == 0)

    def subgraph_rows(self, start: int, stop: int) -> "AttentionGraph":
        """Row-slice the graph — used for sequence-parallel partitioning."""
        sliced = self.adjacency.row_slice(start, stop)
        pick = lambda arr: arr[start:stop] if arr is not None else None  # noqa: E731
        return AttentionGraph(sliced, queries=pick(self.queries), keys=self.keys, values=self.values)

    # ------------------------------------------------------------------ #
    # Interop
    # ------------------------------------------------------------------ #
    def to_networkx(self, *, max_vertices: int = 100_000) -> networkx.DiGraph:
        """Export to a ``networkx.DiGraph`` (small graphs only)."""
        # imported here: only this export needs networkx, and importing it
        # costs every ``import repro`` a large share of its start-up
        import networkx as nx

        require(
            self.num_vertices <= max_vertices,
            f"graph too large to export ({self.num_vertices} > {max_vertices} vertices)",
        )
        graph = nx.DiGraph()
        graph.add_nodes_from(range(self.num_vertices))
        coo = self.adjacency.to_coo()
        graph.add_edges_from(zip(coo.rows.tolist(), coo.cols.tolist()))
        return graph

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"AttentionGraph(vertices={self.num_vertices}, edges={self.num_edges}, "
            f"Sf={self.sparsity_factor:.3e})"
        )
