"""Disjoint interdependent networks with colored edges.

Nodes live in disjoint layers and are addressed either as ``(layer, index)``
pairs or by a flat id obtained by stacking the layers in order. Every
undirected edge carries exactly one color: one color per layer for edges
inside that layer, and one color per unordered layer pair for edges between
them, so a network with L layers uses L + L(L-1)/2 colors.

Graphs are immutable after construction and all statistics here are pure
functions of the graph, so instances can be shared freely across workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .errors import (
    CrossLayerColorMismatch,
    DuplicateEdge,
    NoEdgesInScope,
    NotTwoLayers,
    SelfLoop,
    UnknownNode,
)

NodeRef = tuple[int, int]  # (layer, index within layer)
EdgeRef = tuple[NodeRef, NodeRef, int]  # endpoints plus color


class Coupling(Enum):
    STRONG = "strongly-coupled"
    WEAK = "weakly-coupled"
    OTHER = "other"


class ColorTable:
    """Canonical color numbering for a given layer count.

    Colors 0..L-1 are the intra-layer colors (color i belongs to layer i);
    the inter-layer colors follow in lexicographic pair order, e.g. for
    L = 3: (0,1), (0,2), (1,2).
    """

    def __init__(self, num_layers: int):
        if num_layers < 1:
            raise ValueError("need at least one layer")
        self.num_layers = num_layers
        self._pairs = [
            (i, j) for i in range(num_layers) for j in range(i + 1, num_layers)
        ]
        self._pair_color = {
            pair: num_layers + k for k, pair in enumerate(self._pairs)
        }

    @property
    def num_colors(self) -> int:
        return self.num_layers + len(self._pairs)

    def intra(self, layer: int) -> int:
        if not 0 <= layer < self.num_layers:
            raise ValueError(f"no layer {layer}")
        return layer

    def inter(self, i: int, j: int) -> int:
        key = (min(i, j), max(i, j))
        if key not in self._pair_color:
            raise ValueError(f"no layer pair {key}")
        return self._pair_color[key]

    def color_of(self, layer_u: int, layer_v: int) -> int:
        """Color an edge between the two layers must carry."""
        if layer_u == layer_v:
            return self.intra(layer_u)
        return self.inter(layer_u, layer_v)

    def color_matrix(self) -> np.ndarray:
        """(L, L) array of ``color_of(i, j)``."""
        return np.array([[self.color_of(i, j) for j in range(self.num_layers)]
                         for i in range(self.num_layers)])

    def members(self, color: int) -> tuple[int, ...]:
        """Layers whose nodes can be incident to this color."""
        if not 0 <= color < self.num_colors:
            raise ValueError(f"no color {color}")
        if color < self.num_layers:
            return (color,)
        return self._pairs[color - self.num_layers]

    def is_intra(self, color: int) -> bool:
        return color < self.num_layers


class LayeredGraph:
    """Validated edge-colored interdependent network.

    Construct through :func:`build_graph`; the constructor trusts its inputs.
    Edge arrays are canonical: each edge stored with flat ids (u < v), sorted
    lexicographically. Adjacency is CSR with neighbor lists grouped by color
    within each node, which is the order the SIR inner loop consumes.
    """

    def __init__(
        self,
        layer_sizes: Sequence[int],
        edges_u: np.ndarray,
        edges_v: np.ndarray,
        edge_colors: np.ndarray,
    ):
        self.layer_sizes = tuple(int(s) for s in layer_sizes)
        self.colors = ColorTable(len(self.layer_sizes))
        self.n = sum(self.layer_sizes)
        self.offsets = np.concatenate(([0], np.cumsum(self.layer_sizes)))
        self.node_layer = np.repeat(
            np.arange(len(self.layer_sizes)), self.layer_sizes
        )

        self.edges_u = np.asarray(edges_u, dtype=np.int64)
        self.edges_v = np.asarray(edges_v, dtype=np.int64)
        self.edge_colors = np.asarray(edge_colors, dtype=np.int64)

        src = np.concatenate([self.edges_u, self.edges_v])
        dst = np.concatenate([self.edges_v, self.edges_u])
        col = np.concatenate([self.edge_colors, self.edge_colors])
        order = np.lexsort((col, src))
        deg = np.bincount(src, minlength=self.n)
        self._indptr = np.concatenate(([0], np.cumsum(deg)))
        self._adj = dst[order]
        self._adj_color = col[order]

        for arr in (self.edges_u, self.edges_v, self.edge_colors, self.node_layer,
                    self.offsets, self._indptr, self._adj, self._adj_color):
            arr.setflags(write=False)

    # -- identity ---------------------------------------------------------

    @property
    def num_layers(self) -> int:
        return len(self.layer_sizes)

    @property
    def num_colors(self) -> int:
        return self.colors.num_colors

    @property
    def num_edges(self) -> int:
        return len(self.edges_u)

    def flat(self, layer: int, index: int) -> int:
        return int(self.offsets[layer]) + index

    def layer_slice(self, layer: int) -> slice:
        return slice(int(self.offsets[layer]), int(self.offsets[layer + 1]))

    def adjacency(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CSR arrays (indptr, neighbors, neighbor edge colors)."""
        return self._indptr, self._adj, self._adj_color

    def degrees(self) -> np.ndarray:
        return np.diff(self._indptr)

    def color_degrees(self) -> np.ndarray:
        """Per-color degree of every node, shape (num_colors, n)."""
        c, n = self.num_colors, self.n
        slot = np.tile(self.edge_colors, 2) * n + np.concatenate([self.edges_u, self.edges_v])
        return np.bincount(slot, minlength=c * n).reshape(c, n)

    def edge_count_by_color(self) -> np.ndarray:
        return np.bincount(self.edge_colors, minlength=self.num_colors)

    def local_edges(self) -> np.ndarray:
        """Canonical edges as (m, 4) rows (layer_u, index_u, layer_v, index_v)."""
        ends = np.column_stack([self.edges_u, self.edges_v])
        layer = self.node_layer[ends]
        return np.stack([layer, ends - self.offsets[layer]], axis=2).reshape(-1, 4)

    def edge_list(self) -> list[EdgeRef]:
        """Canonical ((layer, idx), (layer, idx), color) triples."""
        lu, iu, lv, iv = self.local_edges().T.tolist()
        return list(zip(zip(lu, iu), zip(lv, iv), self.edge_colors.tolist()))

    def __repr__(self) -> str:
        return (
            f"LayeredGraph(layers={self.layer_sizes}, edges={self.num_edges}, "
            f"colors={self.num_colors})"
        )


def build_graph(layer_sizes: Sequence[int], edges: Iterable[EdgeRef]) -> LayeredGraph:
    """Validate ((layer, idx), (layer, idx), color) triples and assemble a
    :class:`LayeredGraph`, with the checks and errors of :func:`build_graph_array`."""
    rows = [(lu, iu, lv, iv, c) for (lu, iu), (lv, iv), c in edges]
    return build_graph_array(layer_sizes, int64_array(rows))


def int64_array(values: Sequence) -> np.ndarray:
    """Python integers as int64. A value beyond int64, which no layer count or
    size reaches, is clamped to the int64 limits; an error message shows that."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.clip(np.array(values, dtype=object), -(2**63), 2**63 - 1).astype(np.int64)


def build_graph_array(layer_sizes: Sequence[int], edges: np.ndarray) -> LayeredGraph:
    """Validate (m, 5) integer rows (layer_u, index_u, layer_v, index_v, color)
    and assemble a :class:`LayeredGraph`.

    The checks are vectorized, and the first offending row in input order
    raises. Within a row they run as UnknownNode (u's layer and index, then
    v's), SelfLoop, CrossLayerColorMismatch, then DuplicateEdge (an earlier
    row has the same pair in either orientation). Messages name the row.
    """
    sizes = [int(s) for s in layer_sizes]
    if not sizes or any(s < 1 for s in sizes):
        raise ValueError("layer sizes must be positive")
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 5)
    layer, idx, color = edges[:, [0, 2]], edges[:, [1, 3]], edges[:, 4]
    bad_layer = (layer < 0) | (layer >= len(sizes))
    layer = np.where(bad_layer, 0, layer)
    bad_idx = ~bad_layer & ((idx < 0) | (idx >= np.asarray(sizes)[layer]))
    unknown = (bad_layer | bad_idx).any(axis=1)
    loop = (edges[:, 0] == edges[:, 2]) & (edges[:, 1] == edges[:, 3])
    expected = ColorTable(len(sizes)).color_matrix()[layer[:, 0], layer[:, 1]]
    mismatch = color != expected
    # a row with an unknown endpoint, or an earlier row, raises before its
    # key is read
    flat = offsets[layer] + np.where(unknown[:, None], 0, idx)
    lo, hi = flat.min(axis=1), flat.max(axis=1)
    _, first = np.unique(lo * offsets[-1] + hi, return_index=True)
    repeat = np.ones(len(edges), dtype=bool)
    repeat[first] = False

    bad = unknown | loop | mismatch | repeat
    if bad.any():
        i = int(np.argmax(bad))
        lu, iu, lv, iv, c = edges[i].tolist()
        for lay, node, no_layer, no_node in zip((lu, lv), (iu, iv), bad_layer[i], bad_idx[i]):
            if no_layer:
                raise UnknownNode(f"layer {lay} not declared")
            if no_node:
                raise UnknownNode(f"node ({lay}, {node}) outside layer of size {sizes[lay]}")
        if loop[i]:
            raise SelfLoop(f"self-loop at ({lu}, {iu})")
        if mismatch[i]:
            raise CrossLayerColorMismatch(
                f"edge ({lu},{iu})-({lv},{iv}) carries color {c}, "
                f"layer pair requires {expected[i]}"
            )
        raise DuplicateEdge(f"duplicate edge ({lu},{iu})-({lv},{iv})")
    # np.unique sorted the distinct keys, which is the canonical (u, v) order
    return LayeredGraph(sizes, lo[first], hi[first], color[first])


def graphs_equal(a: LayeredGraph, b: LayeredGraph) -> bool:
    return (
        a.layer_sizes == b.layer_sizes
        and np.array_equal(a.edges_u, b.edges_u)
        and np.array_equal(a.edges_v, b.edges_v)
        and np.array_equal(a.edge_colors, b.edge_colors)
    )


# ---------------------------------------------------------------------------
# Degree moments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ColorMoments:
    """First and second degree moments of one color, in two conventions.

    The restricted moments average over nodes of the incident layer(s) only;
    the global moments average over all n nodes, so
    mean_global = (population_restricted / n) * mean_restricted.
    """

    mean_restricted: float
    second_restricted: float
    mean_global: float
    second_global: float
    population_restricted: int

    def ratio_restricted(self) -> float:
        """(<y^2> - <y>) / <y>, the size-biased excess degree; 0 for an empty color."""
        if self.mean_restricted == 0:
            return 0.0
        return (self.second_restricted - self.mean_restricted) / self.mean_restricted


@dataclass(frozen=True)
class MomentSet:
    """Per-color degree moments of a layered graph (or of a model)."""

    per_color: tuple[ColorMoments, ...]
    population_global: int

    @property
    def num_colors(self) -> int:
        return len(self.per_color)


def compute_moments(g: LayeredGraph) -> MomentSet:
    """Measure restricted and global degree moments for every color."""
    deg = g.color_degrees().astype(float)
    out = []
    for c in range(g.num_colors):
        pop = sum(g.layer_sizes[l] for l in g.colors.members(c))
        total = deg[c].sum()
        total_sq = (deg[c] ** 2).sum()
        out.append(
            ColorMoments(
                mean_restricted=total / pop,
                second_restricted=total_sq / pop,
                mean_global=total / g.n,
                second_global=total_sq / g.n,
                population_restricted=pop,
            )
        )
    return MomentSet(per_color=tuple(out), population_global=g.n)


def kappa(g: LayeredGraph, layer: Optional[int] = None) -> float:
    """Mean degree of a random edge endpoint, <k^2>/<k>, for the scoped subgraph.

    ``layer=None`` scopes the whole coupled network; an integer scopes one
    layer as its own network (intra-layer edges only).
    """
    deg = (g.degrees() if layer is None else g.color_degrees()[g.colors.intra(layer)]).astype(float)
    total = deg.sum()
    if total == 0:
        scope = "network" if layer is None else f"layer {layer}"
        raise NoEdgesInScope(f"no edges in scope {scope}")
    return float((deg**2).sum() / total)


# ---------------------------------------------------------------------------
# Connected components
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComponentResult:
    """Connected components of a (possibly edge-masked) graph."""

    component_id: np.ndarray  # per flat node id
    sizes: np.ndarray  # per component
    largest_size: int
    largest_size_by_layer: tuple[int, ...]  # max over components of |comp ∩ layer|


def giant_component(
    g: LayeredGraph, edge_mask: Optional[np.ndarray] = None
) -> ComponentResult:
    """Connected components under an optional boolean mask over edges.

    Component ids are an arbitrary labelling 0..k-1 of the components.
    """
    eu, ev = g.edges_u, g.edges_v
    if edge_mask is not None:
        edge_mask = np.asarray(edge_mask, dtype=bool)
        if edge_mask.shape != (g.num_edges,):
            raise ValueError("edge_mask must have one entry per edge")
        eu, ev = eu[edge_mask], ev[edge_mask]
    adj = csr_matrix((np.ones(len(eu), dtype=np.int8), (eu, ev)), shape=(g.n, g.n))
    _, comp_id = connected_components(adj, directed=False)
    sizes = np.bincount(comp_id)
    nl = g.num_layers
    by_layer = np.bincount(comp_id * nl + g.node_layer, minlength=len(sizes) * nl).reshape(-1, nl)
    return ComponentResult(comp_id, sizes, int(sizes.max()), tuple(by_layer.max(axis=0).tolist()))


def layer_gcc_size(g: LayeredGraph, layer: int) -> int:
    """Size of the giant component of one layer taken as its own network.

    Returns 0 when the layer has no intra-layer edges.
    """
    mask = g.edge_colors == g.colors.intra(layer)
    return giant_component(g, mask).largest_size_by_layer[layer] if mask.any() else 0


# ---------------------------------------------------------------------------
# Coupling strength
# ---------------------------------------------------------------------------

def classify_coupling(g: LayeredGraph) -> Coupling:
    """Compare kappa of the coupled network against the individual layers.

    Strongly coupled when the whole-network kappa exceeds both layers';
    weakly coupled when it falls strictly between them (the denser layer
    on top). Everything else, including graphs without inter-layer edges
    or with an edgeless layer, is reported as OTHER.
    """
    if g.num_layers != 2:
        raise NotTwoLayers("coupling classification needs exactly two layers")
    if g.edge_count_by_color()[g.colors.inter(0, 1)] == 0:
        return Coupling.OTHER
    try:
        k_total = kappa(g)
        k0 = kappa(g, 0)
        k1 = kappa(g, 1)
    except NoEdgesInScope:
        return Coupling.OTHER
    k_sparse, k_dense = min(k0, k1), max(k0, k1)
    if k_total > k_dense and k_total > k_sparse:
        return Coupling.STRONG
    if k_dense > k_total > k_sparse:
        return Coupling.WEAK
    return Coupling.OTHER
