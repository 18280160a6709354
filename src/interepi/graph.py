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
    GraphValidationError,
    NoEdgesInScope,
    NotTwoLayers,
    SelfLoop,
    UnknownNode,
)

# The one dtype of every index array a LayeredGraph holds, which bounds a
# graph to 2**31 - 1 nodes and 2**31 - 1 directed adjacency entries. Keys
# built from two indices, such as lo * n + hi, are formed in int64.
INDEX = np.int32

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


class LayeredGraph:
    """Validated edge-colored interdependent network.

    Construct through :func:`build_graph`; the constructor trusts its inputs,
    the canonical edges: flat ids (u < v), sorted lexicographically. A graph
    keeps its layers and its adjacency alone: CSR with neighbor lists grouped
    by color within each node, the order the SIR inner loop consumes. Every
    array it keeps, the layer offsets and CSR index pointer included, is
    :data:`INDEX`, 8 B per edge plus 8 B per node.

    The edge lists and colors are read-only :data:`INDEX` views computed on
    each request and not kept: the canonical edges are the adjacency entries
    whose neighbor exceeds their source, in CSR order (see :meth:`edge_ends`),
    and a color is the ``ColorTable`` color of its endpoints' layers. A caller
    that reads a view more than once takes it once.
    """

    def __init__(self, layer_sizes: Sequence[int], edges_u: np.ndarray, edges_v: np.ndarray):
        self.layer_sizes = tuple(int(s) for s in layer_sizes)
        self.colors = ColorTable(len(self.layer_sizes))
        self.n = sum(self.layer_sizes)
        self.offsets = np.concatenate(([0], np.cumsum(self.layer_sizes)), dtype=INDEX)
        self.node_layer = np.repeat(
            np.arange(len(self.layer_sizes), dtype=INDEX), self.layer_sizes
        )
        edges_u = np.asarray(edges_u, dtype=INDEX)
        edges_v = np.asarray(edges_v, dtype=INDEX)

        # the entries u -> v then v -> u in (source, color) order, ties in list
        # order: a key packs source * C + color above the entry's position, so
        # one unstable sort orders them and the mask leaves the positions; the
        # colors come first, so their temporaries never coexist with the key
        m = len(edges_u)
        shift = (2 * m - 1).bit_length()
        colors = self._layer_colors(self.node_layer.take(edges_u), self.node_layer.take(edges_v))
        key = np.concatenate([edges_u, edges_v], dtype=np.int64)
        key *= self.num_colors
        key[:m] += colors
        key[m:] += colors
        del colors
        key <<= shift
        key |= np.arange(2 * m, dtype=np.int64)
        key.sort()
        key &= (1 << shift) - 1
        self._adj = np.concatenate([edges_v, edges_u])[key]
        del key
        deg = np.bincount(edges_u, minlength=self.n)
        deg += np.bincount(edges_v, minlength=self.n)
        self._indptr = np.zeros(self.n + 1, dtype=INDEX)
        np.cumsum(deg, out=self._indptr[1:])

        for arr in (self.node_layer, self.offsets, self._indptr, self._adj):
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
        return self._adj.size // 2

    def flat(self, layer: int, index: int) -> int:
        return int(self.offsets[layer]) + index

    def layer_slice(self, layer: int) -> slice:
        return slice(int(self.offsets[layer]), int(self.offsets[layer + 1]))

    # -- adjacency and its views -------------------------------------------

    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """The kept CSR arrays (indptr, neighbors)."""
        return self._indptr, self._adj

    def adjacency(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CSR arrays (indptr, neighbors, neighbor edge colors); the colors
        are computed on each call. Rows run in source order, so the source
        layers are L runs of entries."""
        per_layer = np.diff(self._indptr[self.offsets])
        source = np.repeat(np.arange(self.num_layers, dtype=INDEX), per_layer)
        colors = self._layer_colors(source, self.node_layer.take(self._adj))
        return self._indptr, self._adj, _read_only(colors)

    def edge_ends(self, nodes: slice = slice(None)) -> tuple[np.ndarray, np.ndarray]:
        """The canonical edges (edges_u, edges_v) whose lower end is one of a
        range of flat ids, all of them by default, derived together.

        They are the adjacency entries whose neighbor exceeds their source, in
        CSR order. Rows run in source order, and a row's entries by color,
        then by position in the canonical list. Above the source the colors
        run in neighbor-layer order (the intra color, then the pairs (h, j),
        j > h, in ``ColorTable`` order), and within a color the canonical
        positions run in neighbor order.
        """
        start, stop, _ = nodes.indices(self.n)
        ptr = self._indptr[start : stop + 1]
        targets = self._adj[ptr[0] : ptr[-1]]
        source = np.repeat(np.arange(start, stop, dtype=INDEX), np.diff(ptr))
        upper = np.flatnonzero(targets > source)
        return _read_only(source.take(upper)), _read_only(targets.take(upper))

    @property
    def edges_u(self) -> np.ndarray:
        return self.edge_ends()[0]

    @property
    def edges_v(self) -> np.ndarray:
        return self.edge_ends()[1]

    @property
    def edge_colors(self) -> np.ndarray:
        u, v = self.edge_ends()
        return _read_only(self._layer_colors(self.node_layer.take(u), self.node_layer.take(v)))

    def _layer_colors(self, layer_a: np.ndarray, layer_b: np.ndarray) -> np.ndarray:
        """``colors.color_of(layer_a[i], layer_b[i])`` for every i."""
        pairs = layer_a * self.num_layers
        pairs += layer_b
        return self.colors.color_matrix().astype(INDEX).ravel().take(pairs)

    def degrees(self) -> np.ndarray:
        return np.diff(self._indptr)

    def neighbors_in(self, layer: int) -> np.ndarray:
        """How many neighbors in ``layer`` each node has, shape (n,): the
        adjacency is symmetric, so how often the node appears in the rows of
        that layer's nodes, which are one run of entries."""
        first, last = self._indptr[self.offsets[layer : layer + 2]]
        return np.bincount(self._adj[first:last], minlength=self.n)

    def color_degrees(self) -> np.ndarray:
        """Per-color degree of every node, shape (num_colors, n)."""
        table = self.colors.color_matrix()
        deg = np.zeros((self.num_colors, self.n), dtype=np.int64)
        for j in range(self.num_layers):
            count = self.neighbors_in(j)
            for h in range(self.num_layers):
                nodes = self.layer_slice(h)
                deg[table[h, j], nodes] = count[nodes]
        return deg

    def edge_count_by_color(self) -> np.ndarray:
        return self.color_degrees().sum(axis=1) // 2

    def local_edges(self) -> np.ndarray:
        """Canonical edges as (m, 4) rows (layer_u, index_u, layer_v, index_v)."""
        return local_rows(self, slice(None))

    def edge_list(self) -> list[EdgeRef]:
        """Canonical ((layer, idx), (layer, idx), color) triples."""
        rows = self.local_edges()
        colors = self.colors.color_matrix()[rows[:, 0], rows[:, 2]]
        lu, iu, lv, iv = rows.T.tolist()
        return list(zip(zip(lu, iu), zip(lv, iv), colors.tolist()))

    def __repr__(self) -> str:
        return (
            f"LayeredGraph(layers={self.layer_sizes}, edges={self.num_edges}, "
            f"colors={self.num_colors})"
        )


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def local_rows(g: LayeredGraph, nodes: slice) -> np.ndarray:
    """Rows of :meth:`LayeredGraph.local_edges` for the canonical edges whose
    lower end is one of a range of flat ids, the transpose of a C-ordered
    (4, m) array."""
    ends = g.edge_ends(nodes)
    cols = np.empty((4, ends[0].size), dtype=INDEX)
    for k, end in enumerate(ends):
        layer = cols[2 * k] = g.node_layer.take(end)
        np.subtract(end, g.offsets.take(layer), out=cols[2 * k + 1])
    return cols.T


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
    row has the same pair in either orientation). Messages name the row, and
    the error's ``row`` is its index. Rows are read as int64 unless they are
    int32; endpoints are :data:`INDEX` once unknown ones are masked, and only
    pair keys are int64. ValueError when the layers hold 2**31 nodes or more,
    or the rows 2**30 edges or more, which :data:`INDEX` cannot number, and when
    n * C * 2**b > 2**63 (C colors, b = (2m - 1).bit_length()), which the
    int64 adjacency sort key (source * C + color) << b | position cannot
    hold: two layers of about 1.4e9 nodes and 1e9 edges, or more layers.
    """
    sizes = [int(s) for s in layer_sizes]
    if not sizes or any(s < 1 for s in sizes):
        raise ValueError("layer sizes must be positive")
    edges = np.asarray(edges)
    edges = edges.reshape(-1, 5).astype(INDEX if edges.dtype == INDEX else np.int64, copy=False)
    n, m = sum(sizes), len(edges)
    if max(n, 2 * m) > np.iinfo(INDEX).max:
        raise ValueError(f"{n} nodes and {m} edges exceed the int32 index range")
    num_colors = len(sizes) * (len(sizes) + 1) // 2
    if (n * num_colors) << (2 * m - 1).bit_length() > 2**63:
        raise ValueError(f"{n} nodes, {num_colors} colors and {m} edges overflow the sort key")
    offsets = np.concatenate(([0], np.cumsum(sizes)), dtype=INDEX)
    colors = ColorTable(len(sizes)).color_matrix()
    bad_layer, bad_idx, layer, ends = [], [], [], []
    for col in (0, 2):
        lay, idx = edges[:, col], edges[:, col + 1]
        no_layer = (lay < 0) | (lay >= len(sizes))
        lay = np.where(no_layer, 0, lay)
        no_node = ~no_layer & ((idx < 0) | (idx >= np.asarray(sizes)[lay]))
        # an unknown endpoint, or an earlier row, raises before its key is read
        ends.append(offsets[lay] + np.where(no_layer | no_node, 0, idx).astype(INDEX, copy=False))
        bad_layer.append(no_layer)
        bad_idx.append(no_node)
        layer.append(lay)
    mismatch = edges[:, 4] != colors[layer[0], layer[1]]
    loop = ends[0] == ends[1]
    keys = np.minimum(ends[0], ends[1]).astype(np.int64)
    keys *= n
    keys += np.maximum(ends[0], ends[1])
    del layer, ends
    bad = bad_layer[0] | bad_idx[0] | bad_layer[1] | bad_idx[1] | loop | mismatch
    canonical = np.sort(keys)
    if (canonical[1:] == canonical[:-1]).any():
        repeat = np.ones_like(bad)  # rows whose key an earlier row has
        repeat[first_occurrences(keys)] = False
        bad |= repeat
    if bad.any():
        i = int(np.argmax(bad))
        lu, iu, lv, iv, c = edges[i].tolist()
        try:
            for lay, node, no_layer, no_node in zip((lu, lv), (iu, iv), bad_layer, bad_idx):
                if no_layer[i]:
                    raise UnknownNode(f"layer {lay} not declared")
                if no_node[i]:
                    raise UnknownNode(f"node ({lay}, {node}) outside layer of size {sizes[lay]}")
            if loop[i]:
                raise SelfLoop(f"self-loop at ({lu}, {iu})")
            if mismatch[i]:
                raise CrossLayerColorMismatch(
                    f"edge ({lu},{iu})-({lv},{iv}) carries color {c}, "
                    f"layer pair requires {colors[lu, lv]}"
                )
            raise DuplicateEdge(f"duplicate edge ({lu},{iu})-({lv},{iv})")
        except GraphValidationError as exc:
            exc.row = i
            raise
    del keys, bad, bad_layer, bad_idx, loop, mismatch
    # the sorted keys are the canonical (u, v) order
    lo = (canonical // n).astype(INDEX)
    hi = (canonical % n).astype(INDEX)
    del canonical
    return LayeredGraph(sizes, lo, hi)


def first_occurrences(keys: np.ndarray) -> np.ndarray:
    """Index of each distinct key's first occurrence, in key order, as
    ``np.unique(keys, return_index=True)`` gives it: one unstable argsort
    groups equal keys into runs, and a run's least index is its first."""
    order = np.argsort(keys)
    run = keys[order]
    # a run starts at 0 unless there are no keys
    starts = np.flatnonzero(np.concatenate((run[:1] == run[:1], run[1:] != run[:-1])))
    del run
    return np.minimum.reduceat(order, starts)


def graphs_equal(a: LayeredGraph, b: LayeredGraph) -> bool:
    """Same layers and edges: the adjacency is a function of the canonical edges."""
    return a.layer_sizes == b.layer_sizes and all(
        np.array_equal(x, y) for x, y in zip(a.csr(), b.csr())
    )


# ---------------------------------------------------------------------------
# Degree moments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ColorMoments:
    """First and second degree moments of one color, averaged over the
    ``population_restricted`` nodes of its incident layer(s) only."""

    mean_restricted: float
    second_restricted: float
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

    @property
    def num_colors(self) -> int:
        return len(self.per_color)


def compute_moments(g: LayeredGraph) -> MomentSet:
    """Measure the degree moments of every color over its own layer(s)."""
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
                population_restricted=pop,
            )
        )
    return MomentSet(per_color=tuple(out))


def kappa(g: LayeredGraph, layer: Optional[int] = None) -> float:
    """Mean degree of a random edge endpoint, <k^2>/<k>, for the scoped subgraph.

    ``layer=None`` scopes the whole coupled network; an integer scopes one
    layer as its own network (intra-layer edges only).
    """
    if layer is None:
        deg = g.degrees().astype(float)
    else:
        nodes = g.layer_slice(g.colors.intra(layer))
        deg = g.neighbors_in(layer)[nodes].astype(float)
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
    eu, ev = g.edge_ends()
    if edge_mask is not None:
        edge_mask = np.asarray(edge_mask, dtype=bool)
        if edge_mask.shape != (g.num_edges,):
            raise ValueError("edge_mask must have one entry per edge")
        eu, ev = eu[edge_mask], ev[edge_mask]
    return edge_components(g, eu, ev)


def edge_components(g: LayeredGraph, eu: np.ndarray, ev: np.ndarray) -> ComponentResult:
    """Connected components of g's nodes joined by the edges (eu[i], ev[i])."""
    adj = csr_matrix((np.ones(len(eu), dtype=np.int8), (eu, ev)), shape=(g.n, g.n))
    _, comp_id = connected_components(adj, directed=False)
    sizes = np.bincount(comp_id)
    nl = g.num_layers
    slot = comp_id.astype(np.int64) * nl + g.node_layer
    by_layer = np.bincount(slot, minlength=len(sizes) * nl).reshape(-1, nl)
    return ComponentResult(comp_id, sizes, int(sizes.max()), tuple(by_layer.max(axis=0).tolist()))


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
    if not g.neighbors_in(1)[g.layer_slice(0)].any():
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
