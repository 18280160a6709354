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

    The constructor trusts its inputs, the canonical edges that
    :func:`canonical_ends` returns (:func:`build_graph` validates triples). A
    graph keeps its layers and its adjacency alone: CSR with neighbor lists
    grouped by color within each node, the order the SIR inner loop consumes.
    Every array it keeps, the layer offsets and CSR index pointer included, is
    :data:`INDEX`, 8 B per edge plus 8 B per node.

    The edge lists and colors are read-only :data:`INDEX` views computed on
    each request and not kept: the canonical edges are the adjacency entries
    whose neighbor exceeds their source, in CSR order (see :meth:`edge_ends`),
    and a color is the ``ColorTable`` color of its endpoints' layers. A caller
    that reads a view more than once takes it once.
    """

    def __init__(self, layer_sizes: Sequence[int], ends: np.ndarray):
        self.layer_sizes = tuple(int(s) for s in layer_sizes)
        self.colors = ColorTable(len(self.layer_sizes))
        self.n = sum(self.layer_sizes)
        self.offsets = np.concatenate(([0], np.cumsum(self.layer_sizes)), dtype=INDEX)
        self.node_layer = np.repeat(
            np.arange(len(self.layer_sizes), dtype=INDEX), self.layer_sizes
        )
        ends = np.asarray(ends, dtype=INDEX)
        flat = ends.ravel()

        # the entries u -> v then v -> u in (source, color) order, ties in list
        # order: an unsigned key packs source * C + color above the entry's
        # half (0 for u -> v) and its neighbor's position in flat (m + i for
        # u -> v, i for v -> u), which order ties as the list does, so one
        # unstable sort orders them and the mask leaves the neighbor's
        # position; the colors come first and the position runs are written a
        # half at a time, so no full-length temporary coexists with the key
        m = ends.shape[1]
        shift = (2 * m - 1).bit_length()
        colors = self._layer_colors(*self.node_layer.take(ends)).view(np.uint32)
        key = flat.astype(np.uint64)
        key *= self.num_colors
        key[:m] += colors
        key[m:] += colors
        del colors
        key <<= shift + 1
        key[:m] |= np.arange(m, 2 * m, dtype=np.uint64)
        key[m:] |= np.arange(1 << shift, (1 << shift) + m, dtype=np.uint64)
        key.sort()
        key &= (1 << shift) - 1
        self._adj = flat.take(key.view(np.int64))
        del key
        deg = np.bincount(ends[0], minlength=self.n)
        deg += np.bincount(ends[1], minlength=self.n)
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
    :class:`LayeredGraph`, with the checks and errors of :func:`canonical_ends`."""
    rows = int64_array([(lu, iu, lv, iv, c) for (lu, iu), (lv, iv), c in edges]).reshape(-1, 5)
    return LayeredGraph(layer_sizes, canonical_ends(layer_sizes, rows[:, :4], rows[:, 4]))


def int64_array(values: Sequence) -> np.ndarray:
    """Python integers as int64. A value beyond int64, which no layer count or
    size reaches, is clamped to the int64 limits; an error message shows that."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.clip(np.array(values, dtype=object), -(2**63), 2**63 - 1).astype(np.int64)


def canonical_ends(
    layer_sizes: Sequence[int], rows: np.ndarray, colors: Optional[np.ndarray] = None
) -> np.ndarray:
    """Validate (m, 4) integer rows (layer_u, index_u, layer_v, index_v), and
    their colors when given, into the canonical ends of a :class:`LayeredGraph`:
    one (2, m) :data:`INDEX` array of flat ids, u < v, columns sorted.

    The checks are vectorized, and the first offending row in input order
    raises. Within a row they run as UnknownNode (u's layer and index, then
    v's), SelfLoop, CrossLayerColorMismatch (with ``colors`` only), then
    DuplicateEdge (an earlier row has the same pair in either orientation).
    Messages name the row, and the error's ``row`` is its index. Rows are read
    as int64 unless they are int32; only pair keys are int64. ValueError when
    the layers hold 2**31 nodes or more, or the rows 2**30 edges or more,
    which :data:`INDEX` cannot number, and when n * C * 2**b > 2**63 (C
    colors, b = (2m - 1).bit_length()), which the uint64 adjacency sort key
    (source * C + color) << (b + 1) | half << b | position cannot hold: two
    layers of about 1.4e9 nodes and 1e9 edges, or more layers.
    """
    sizes = [int(s) for s in layer_sizes]
    if not sizes or any(s < 1 for s in sizes):
        raise ValueError("layer sizes must be positive")
    rows = np.asarray(rows)
    rows = rows.reshape(-1, 4).astype(INDEX if rows.dtype == INDEX else np.int64, copy=False)
    n, m = sum(sizes), len(rows)
    if max(n, 2 * m) > np.iinfo(INDEX).max:
        raise ValueError(f"{n} nodes and {m} edges exceed the int32 index range")
    num_colors = len(sizes) * (len(sizes) + 1) // 2
    if (n * num_colors) << (2 * m - 1).bit_length() > 2**63:
        raise ValueError(f"{n} nodes, {num_colors} colors and {m} edges overflow the sort key")
    offsets = np.concatenate(([0], np.cumsum(sizes)), dtype=INDEX)
    table = ColorTable(len(sizes)).color_matrix()
    bad = np.zeros(m, dtype=bool)
    ends = np.empty((2, m), dtype=INDEX)
    for end, lay, idx in zip(ends, rows.T[0::2], rows.T[1::2]):
        bad |= (lay < 0) | (lay >= len(sizes))
        lay = np.where(bad, 0, lay)
        bad |= (idx < 0) | (idx >= np.diff(offsets)[lay])
        # an unknown endpoint, or an earlier row, raises before its key is read
        np.add(offsets[lay], np.where(bad, 0, idx), out=end, casting="unsafe")
    del lay
    bad |= ends[0] == ends[1]
    if colors is not None:
        bad |= np.asarray(colors) != table[tuple(np.searchsorted(offsets[1:], ends, "right"))]
    keys = np.minimum(ends[0], ends[1], dtype=np.int64)
    keys *= n
    keys += np.maximum(ends[0], ends[1])
    keys.sort()
    if (keys[1:] == keys[:-1]).any():
        repeat = np.ones_like(bad)  # rows whose key an earlier row has
        unsorted = np.minimum(ends[0], ends[1], dtype=np.int64) * n + np.maximum(*ends)
        repeat[first_occurrences(unsorted)] = False
        bad |= repeat
    if bad.any():
        i = int(np.argmax(bad))
        lu, iu, lv, iv = rows[i].tolist()
        try:
            for lay, node in ((lu, iu), (lv, iv)):
                if not 0 <= lay < len(sizes):
                    raise UnknownNode(f"layer {lay} not declared")
                if not 0 <= node < sizes[lay]:
                    raise UnknownNode(f"node ({lay}, {node}) outside layer of size {sizes[lay]}")
            if (lu, iu) == (lv, iv):
                raise SelfLoop(f"self-loop at ({lu}, {iu})")
            if colors is not None and colors[i] != table[lu, lv]:
                raise CrossLayerColorMismatch(
                    f"edge ({lu},{iu})-({lv},{iv}) carries color {colors[i]}, "
                    f"layer pair requires {table[lu, lv]}"
                )
            raise DuplicateEdge(f"duplicate edge ({lu},{iu})-({lv},{iv})")
        except GraphValidationError as exc:
            exc.row = i
            raise
    # the sorted keys are the canonical (u, v) order
    np.divmod(keys, n, out=(ends[0], ends[1]), casting="unsafe")
    return ends


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
