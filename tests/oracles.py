"""Independent reference implementations the tests check the package against.

Everything here is deliberately written from first principles (dense
reachability, Cardano's cubic, hash-driven bond percolation, heapq first
passage over the documented random stream, exhaustive grid scans) so that
agreement with the package is meaningful.
"""

from __future__ import annotations

import cmath
import heapq
import math

import numpy as np

from interepi import (
    ColorTable,
    CrossLayerColorMismatch,
    DuplicateEdge,
    LayeredGraph,
    LengthMismatch,
    ParseError,
    PowerLawSpec,
    SelfLoop,
    SirConfig,
    Transmissibilities,
    UnknownNode,
    build_graph,
    jacobian_closed_form,
    powerlaw_moments,
    spectral_radius,
    structural_gcc_sizes,
    transmissibility,
)
from interepi.sir import _stream
from interepi.threshold import (
    DegreeTable,
    _epidemic,
    _frontier_search,
    _grid_values,
    _undominated,
)

# ---------------------------------------------------------------------------
# Connected components by O(n^3) transitive closure
# ---------------------------------------------------------------------------

def brute_force_component_labels(n: int, pairs) -> np.ndarray:
    reach = np.eye(n, dtype=bool)
    for a, b in pairs:
        reach[a, b] = reach[b, a] = True
    while True:
        nxt = reach | (reach @ reach)
        if (nxt == reach).all():
            break
        reach = nxt
    labels = np.full(n, -1, dtype=np.int64)
    groups: dict[bytes, int] = {}
    for i in range(n):
        key = reach[i].tobytes()
        labels[i] = groups.setdefault(key, len(groups))
    return labels


# ---------------------------------------------------------------------------
# Cubic spectral radius via Cardano (3x3 only)
# ---------------------------------------------------------------------------

def cardano_radius_3x3(a: np.ndarray) -> float:
    """Largest |root| of det(x I - A) with coefficients from cofactors."""
    a = np.asarray(a, dtype=float)
    c2 = -(a[0, 0] + a[1, 1] + a[2, 2])
    c1 = (
        a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
        + a[0, 0] * a[2, 2] - a[0, 2] * a[2, 0]
        + a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1]
    )
    det = (
        a[0, 0] * (a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1])
        - a[0, 1] * (a[1, 0] * a[2, 2] - a[1, 2] * a[2, 0])
        + a[0, 2] * (a[1, 0] * a[2, 1] - a[1, 1] * a[2, 0])
    )
    c0 = -det
    # depressed cubic t^3 + p t + q with x = t - c2/3
    p = c1 - c2 * c2 / 3.0
    q = 2.0 * c2**3 / 27.0 - c2 * c1 / 3.0 + c0
    disc = cmath.sqrt((q / 2.0) ** 2 + (p / 3.0) ** 3)
    u = 0j
    for cand in (-q / 2.0 + disc, -q / 2.0 - disc):
        if abs(cand) > 1e-300:
            u = cand ** (1.0 / 3.0)
            break
    omega = complex(-0.5, math.sqrt(3.0) / 2.0)
    best = 0.0
    for k in range(3):
        uk = u * omega**k
        if abs(uk) > 1e-300:
            x = uk - p / (3.0 * uk) - c2 / 3.0
        else:
            x = complex(-c2 / 3.0, 0.0)
        best = max(best, abs(x))
    return best


# ---------------------------------------------------------------------------
# Hash-driven bond-percolation SIR reference
# ---------------------------------------------------------------------------

_MASK = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


def hash_uniform(draw_seed: int, src: int, dst: int, age: int) -> float:
    """Deterministic uniform in [0, 1) for a directed transmission attempt."""
    key = _splitmix64(draw_seed * 0x5DEECE66D + 11)
    key = _splitmix64(key ^ (src + 0x1000))
    key = _splitmix64(key ^ (dst + 0x2000))
    key = _splitmix64(key ^ (age + 0x3000))
    return key / 2.0**64


def percolation_ever_infected(
    g: LayeredGraph,
    rates,
    tau: int,
    seeds_flat,
    draw_seed: int,
) -> frozenset:
    """Ever-infected set of the fixed-period SIR as directed bond percolation.

    The directed edge u->v is occupied iff any of tau age-indexed uniforms
    falls below the color's rate; the ever-infected set is exactly the nodes
    reachable from the seeds through occupied edges. Using the same uniforms
    for every rate vector makes the set monotone in the rates.
    """
    indptr, adj, adj_color = g.adjacency()
    visited = set(int(s) for s in seeds_flat)
    stack = list(visited)
    while stack:
        v = stack.pop()
        for pos in range(int(indptr[v]), int(indptr[v + 1])):
            w = int(adj[pos])
            if w in visited:
                continue
            rate = rates[int(adj_color[pos])]
            if rate > 0 and any(
                hash_uniform(draw_seed, v, w, age) < rate for age in range(tau)
            ):
                visited.add(w)
                stack.append(w)
    return frozenset(visited)


# ---------------------------------------------------------------------------
# First passage over the documented random stream, by heapq Dijkstra
# ---------------------------------------------------------------------------

def first_passage_steps(
    g: LayeredGraph, cfg: SirConfig, realization_index: int, cell_index: int
) -> dict[int, int]:
    """Infection step of every node one realization infects, keyed by flat node.

    The stream (master_seed, cell, realization) gives the seeds first, then
    one uniform u per directed adjacency entry in CSR order. Entry x -> y
    transmits when one of its tau trials succeeds, u < 1 - (1 - rate)^tau,
    after the first success: the least k with (1 - rate)^k < 1 - u (tau when
    rounding leaves none). Nodes past ``cfg.max_steps`` are not infected.
    """
    rng = _stream(cfg.master_seed, cell_index, realization_index)
    policy = cfg.seeds
    if policy.kind == "uniform":
        seeds = rng.choice(g.n, size=policy.count, replace=False).tolist()
    elif policy.kind == "per_layer":
        seeds = []
        for layer, count in enumerate(policy.per_layer):
            if count:
                picks = rng.choice(g.layer_sizes[layer], size=count, replace=False)
                seeds += [g.flat(layer, int(i)) for i in picks]
    else:
        seeds = [g.flat(layer, index) for layer, index in policy.nodes]
    indptr, adj, adj_color = g.adjacency()
    uniforms = rng.random(adj.size).tolist()

    cap = math.inf if cfg.max_steps is None else cfg.max_steps
    steps = {}
    heap = [(0, int(s)) for s in seeds]
    heapq.heapify(heap)
    while heap:
        step, node = heapq.heappop(heap)
        if node in steps or step > cap:
            continue
        steps[node] = step
        for pos in range(int(indptr[node]), int(indptr[node + 1])):
            miss, u = 1.0 - cfg.rates[int(adj_color[pos])], uniforms[pos]
            if u < 1.0 - miss**cfg.tau:
                delay = next((k for k in range(1, cfg.tau) if miss**k < 1.0 - u), cfg.tau)
                heapq.heappush(heap, (step + delay, int(adj[pos])))
    return steps


def quiet_layer_density_bound(
    g: LayeredGraph, layer: int, beta: float, alpha: float, tau: int
) -> float:
    """Upper bound B on the expected density of a subcritical layer seeded
    only through its inter-layer edges.

        B = M_inter R(alpha) [1 + R(beta)<k> / (1 - R(beta)(kappa - 1))] / |GCC|

    with R(x) = 1 - (1 - x)^tau, M_inter the number of inter-layer edges
    touching ``layer``, <k> and kappa = <k^2>/<k> the mean and the mean
    endpoint degree of its intra-layer edges over its nodes, and |GCC| the
    layer's own giant component, the denominator of ``infection_density``.

    Derivation, in the bond-percolation picture of the fixed-period SIR
    (Newman 2002, PRE 66), where every directed edge is open independently
    with its color's R. Any infected node of the layer is reached by an open
    path whose last inter-layer step b -> a enters the layer; the rest of
    the path runs on open intra-layer edges, so the node lies in the open
    out-cluster C(a). The layer's ever-infected count is therefore at most
    the sum over inter-layer edges of 1[b -> a open] |C(a)|. Each such edge
    is open with probability R(alpha), independently of how the layer's own
    edges are thinned, and its endpoint a is a node of the layer chosen
    without regard to its intra-layer degree. On a locally tree-like layer
    without degree correlations (the ER layers of ``gen_er_layer``) the
    expected out-cluster of such a node is the bracket: a first generation
    of mean R<k> and offspring of mean R(kappa - 1) thereafter, finite only
    when that is below 1. Loops only shrink clusters, and the sum counts a
    node reached through several inter-layer edges more than once.

    Raises ValueError when the layer is not subcritical at ``beta``.
    """
    r_beta = 1.0 - (1.0 - beta) ** tau
    r_alpha = 1.0 - (1.0 - alpha) ** tau
    in_layer_u = g.node_layer[g.edges_u] == layer
    in_layer_v = g.node_layer[g.edges_v] == layer
    intra = in_layer_u & in_layer_v
    num_inter = int((in_layer_u ^ in_layer_v).sum())
    ends = np.concatenate([g.edges_u[intra], g.edges_v[intra]])
    deg = np.bincount(ends, minlength=g.n)[g.layer_slice(layer)].astype(float)
    mean_deg = deg.mean()
    kappa = (deg**2).sum() / deg.sum()
    offspring = r_beta * (kappa - 1.0)
    if offspring >= 1.0:
        raise ValueError(
            f"layer {layer} is not subcritical at beta={beta}: "
            f"R(beta)(kappa-1) = {offspring:.3f}"
        )
    cluster = 1.0 + r_beta * mean_deg / (1.0 - offspring)
    return num_inter * r_alpha * cluster / structural_gcc_sizes(g)[1][layer]


# ---------------------------------------------------------------------------
# The pivot test on an (N, C, C) stack, one broadcast update per pivot
# ---------------------------------------------------------------------------

def stacked_epidemic(jacs: np.ndarray) -> np.ndarray:
    """theta >= 1 for a stack of non-negative matrices, shape (N, C, C) -> (N,).

    theta < 1 exactly when I - J is a nonsingular M-matrix: when Gaussian
    elimination without pivoting keeps every pivot > 0 (Berman & Plemmons,
    ch. 6). Updates subtract non-negative products, so the test is monotone
    in every entry of J, rounding included; a matrix stops at a pivot <= 0.
    """
    a, live = np.eye(jacs.shape[-1]) - jacs, np.arange(len(jacs))
    for k in range(a.shape[-1]):
        keep = a[:, k, k] > 0.0
        a, live = a[keep], live[keep]
        rest = slice(k + 1, None)
        a[:, rest, rest] -= a[:, rest, k, None] * a[:, None, k, rest] / a[:, k, k, None, None]
    epidemic = np.ones(len(jacs), dtype=bool)
    epidemic[live] = False
    return epidemic


# ---------------------------------------------------------------------------
# Dominance and the closed-form epidemic decision at one rate tuple
# ---------------------------------------------------------------------------

def dominates(t1, t2) -> bool:
    """t1 dominates t2 when it is componentwise <= with at least one strict."""
    if len(t1) != len(t2):
        raise LengthMismatch(f"tuple lengths {len(t1)} != {len(t2)}")
    return all(a <= b for a, b in zip(t1, t2)) and any(a < b for a, b in zip(t1, t2))


def epidemic_indicator(table, layer_sizes, rates, tau) -> tuple[float, bool]:
    """theta of the closed-form Jacobian at these rates, and ``_epidemic`` of it."""
    jac = jacobian_closed_form(table, layer_sizes, Transmissibilities.from_rates(rates, tau))
    return spectral_radius(jac), bool(_epidemic(jac[None])[0])


# ---------------------------------------------------------------------------
# The table of independent colors, one color at a time
# ---------------------------------------------------------------------------

def er_color(mean: float, pop: int) -> tuple[float, float, int]:
    """(mean, second, pop) of a Poisson-degree color over ``pop`` nodes:
    <y^2> = <y> (<y> + 1)."""
    return mean, mean * (mean + 1.0), pop


def powerlaw_color(spec: PowerLawSpec, pop: int) -> tuple[float, float, int]:
    """(mean, second, pop) of a power-law color over ``pop`` nodes, from its
    mean and moment ratio (<y^2> - <y>) / <y>."""
    mean, ratio = powerlaw_moments(spec)
    return mean, (ratio + 1.0) * mean, pop


def color_table(colors, layer_sizes) -> DegreeTable:
    """The degree table of independent colors with these per-color moments,
    one (mean <y>, second moment <y^2>, pop) triple per color.

    A color's moments are taken over the pop nodes of its own layer(s). On a
    member layer h of k, each degree factor scales by f = pop / (k n_h), so
    the mean is f <y> and the factorial moment f^2 (<y^2> - <y>); a cross
    moment of two colors is their means' product.
    """
    table = ColorTable(len(layer_sizes))
    if len(colors) != table.num_colors:
        raise LengthMismatch(f"{len(layer_sizes)} layers have {table.num_colors} colors")
    mean = np.zeros((len(layer_sizes), len(colors)))
    factorial = np.zeros_like(mean)
    for c, (first, second, pop) in enumerate(colors):
        members = table.members(c)
        for h in members:
            f = pop / (len(members) * layer_sizes[h])
            mean[h, c] = f * first
            factorial[h, c] = f * f * (second - first)
    cross = mean[:, :, None] * mean[:, None, :]
    for c in range(len(colors)):
        cross[:, c, c] = factorial[:, c]
    return DegreeTable(mean, cross)


def per_color_table(g: LayeredGraph) -> DegreeTable:
    """The degree table of ``g`` with its colors taken as independent, by way
    of each color's own moments over the nodes of its layer(s)."""
    deg = g.color_degrees().astype(float)
    colors = []
    for c in range(g.num_colors):
        pop = sum(g.layer_sizes[h] for h in g.colors.members(c))
        colors.append((deg[c].sum() / pop, (deg[c] ** 2).sum() / pop, pop))
    return color_table(colors, g.layer_sizes)


def er_set(m1, m2, m3, n1=5000, n2=5000):
    """The table of two ER layers of means m1 and m2 on n1 and n2 nodes, coupled
    by an ER inter color of mean m3, and the layer sizes."""
    sizes = (n1, n2)
    return color_table([er_color(m1, n1), er_color(m2, n2), er_color(m3, n1 + n2)], sizes), sizes


# ---------------------------------------------------------------------------
# Exhaustive frontier scan
# ---------------------------------------------------------------------------

def exhaustive_frontier(theta_fn, num_colors: int, grid_step: float) -> set:
    """Full grid scan plus pairwise Pareto-minimality filter.

    A tuple is epidemic where ``theta_fn(rates) >= 1``; a function that
    returns the epidemic decision as a bool serves as well.
    """
    vals = _grid_values(grid_step)
    k = len(vals)
    idx_grid = np.stack(
        np.meshgrid(*([np.arange(k)] * num_colors), indexing="ij"), axis=-1
    ).reshape(-1, num_colors)
    epidemic = []
    for idx in idx_grid:
        rates = tuple(vals[i] for i in idx)
        if theta_fn(rates) >= 1.0:
            epidemic.append(idx)
    if not epidemic:
        return set()
    cols = np.asarray(epidemic).T  # one row of grid indices per color
    keep = []
    for start in range(0, cols.shape[1], 512):
        chunk = cols[:, start:start + 512, None]
        # (i, j): epidemic tuple j is <= chunk tuple i everywhere, < somewhere
        le = np.ones((chunk.shape[1], cols.shape[1]), dtype=bool)
        lt = np.zeros_like(le)
        for axis in range(num_colors):
            le &= cols[axis] <= chunk[axis]
            lt |= cols[axis] < chunk[axis]
        undominated = ~(le & lt).any(axis=1)
        keep += [tuple(vals[j] for j in idx) for idx in chunk[:, undominated, 0].T]
    return set(keep)


# ---------------------------------------------------------------------------
# Refined frontier by bisection on full Jacobians
# ---------------------------------------------------------------------------

def refined_frontier(base, type_color, tau, grid_step, groups, refine_tol):
    """(rates, thetas) of ``_frontier_search`` with ``refine_tol``, point by
    point from its grid frontier.

    Each grid point's searched rate (the last color's) is bisected between
    the grid value below it and itself with ``_epidemic`` on the full
    Jacobian base * R[type_color], R by scalar ``transmissibility``, while
    the bracket is wider than ``refine_tol`` and its midpoint lies strictly
    inside it. A point goes when the line one grid step down a leading axis
    crosses at most ``refine_tol`` higher (``_undominated``); the thetas are
    ``spectral_radius`` of the kept points' Jacobians.
    """
    vals = _grid_values(grid_step)
    (searched,) = groups[-1]

    def jacobian(rates):
        return base * np.array([transmissibility(b, tau) for b in rates])[type_color]

    crossing = np.full((len(vals),) * (len(groups) - 1), np.inf)
    points = []
    for point in _frontier_search(base, type_color, tau, grid_step, groups, None).points:
        rates = list(point)
        last = point[searched]
        below = vals[max(vals.index(last) - 1, 0)]
        while last - below > refine_tol and below < 0.5 * (below + last) < last:
            rates[searched] = mid = 0.5 * (below + last)
            if _epidemic(jacobian(rates)[None])[0]:
                last = mid
            else:
                below = mid
        rates[searched] = last
        prefix = tuple(vals.index(point[colors[0]]) for colors in groups[:-1])
        crossing[prefix] = last
        points.append((prefix, tuple(rates)))
    keep = _undominated(crossing, refine_tol)
    kept = sorted(rates for prefix, rates in points if keep[prefix])
    thetas = [spectral_radius(jacobian(rates)) for rates in kept]
    return np.array(kept, dtype=float).reshape(-1, type_color[-1] + 1), np.array(thetas)


# ---------------------------------------------------------------------------
# Sequential ER sampling (the scalar loops the vectorized generators replace)
# ---------------------------------------------------------------------------

def sequential_er_layer(n: int, mean_degree: float, rng: np.random.Generator) -> np.ndarray:
    """gen_er_layer one candidate at a time: same batches, same acceptance."""
    m = round(n * mean_degree / 2)
    pairs: list[tuple[int, int]] = []
    seen: set[int] = set()
    while len(pairs) < m:
        batch = 2 * (m - len(pairs)) + 64
        us = rng.integers(0, n, size=batch).tolist()
        vs = rng.integers(0, n, size=batch).tolist()
        for a, b in zip(us, vs):
            if a == b:
                continue
            if a > b:
                a, b = b, a
            key = a * n + b
            if key in seen:
                continue
            seen.add(key)
            pairs.append((a, b))
            if len(pairs) == m:
                break
    return np.asarray(pairs, dtype=np.int64).reshape(m, 2)


def sequential_er_interlayer(
    n1: int, n2: int, mean_degree: float, rng: np.random.Generator
) -> np.ndarray:
    """gen_er_interlayer one candidate at a time: same batches, same acceptance."""
    m = round(mean_degree * (n1 + n2) / 2)
    pairs: list[tuple[int, int]] = []
    seen: set[int] = set()
    while len(pairs) < m:
        batch = 2 * (m - len(pairs)) + 64
        us = rng.integers(0, n1, size=batch).tolist()
        vs = rng.integers(0, n2, size=batch).tolist()
        for a, b in zip(us, vs):
            key = a * n2 + b
            if key in seen:
                continue
            seen.add(key)
            pairs.append((a, b))
            if len(pairs) == m:
                break
    return np.asarray(pairs, dtype=np.int64).reshape(m, 2)


# ---------------------------------------------------------------------------
# Adjacency built entry by entry
# ---------------------------------------------------------------------------

def sequential_adjacency(g: LayeredGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR (indptr, neighbors, colors) of g, one entry at a time: each node
    lists its entries of [u -> v for every edge, then v -> u for every edge]
    sorted by (color, position in that list)."""
    ends = list(zip(g.edges_u.tolist(), g.edges_v.tolist(), g.edge_colors.tolist()))
    entries = ends + [(v, u, c) for u, v, c in ends]
    rows: list[list[tuple[int, int, int]]] = [[] for _ in range(g.n)]
    for pos, (source, target, color) in enumerate(entries):
        rows[source].append((color, pos, target))
    indptr, adj, adj_color = [0], [], []
    for row in rows:
        for color, _, target in sorted(row):
            adj.append(target)
            adj_color.append(color)
        indptr.append(len(adj))
    return np.array(indptr), np.array(adj, dtype=np.int64), np.array(adj_color, dtype=np.int64)


def entry_colors(g: LayeredGraph) -> list[int]:
    """The color of every adjacency entry in CSR order, one entry at a time,
    numbered from the layers of its source and neighbor by the documented
    rule: color l inside layer l, then L + k for the k-th layer pair (i, j),
    i < j, in lexicographic order."""
    indptr, adj = g.csr()
    bounds = np.cumsum(g.layer_sizes).tolist()
    layer_of = lambda node: next(l for l, end in enumerate(bounds) if node < end)
    pairs = [(i, j) for i in range(g.num_layers) for j in range(i + 1, g.num_layers)]
    colors = []
    for source in range(g.n):
        for pos in range(int(indptr[source]), int(indptr[source + 1])):
            a, b = sorted((layer_of(source), layer_of(int(adj[pos]))))
            colors.append(a if a == b else g.num_layers + pairs.index((a, b)))
    return colors


# ---------------------------------------------------------------------------
# Edge-by-edge validation and line-by-line graph-file parsing
# ---------------------------------------------------------------------------

def sequential_validate(layer_sizes, edges) -> tuple[list, list, list]:
    """build_graph's checks one edge at a time: canonical sorted (u, v, color)
    lists, or the error of the first bad edge."""
    sizes = [int(s) for s in layer_sizes]
    if not sizes or any(s < 1 for s in sizes):
        raise ValueError("layer sizes must be positive")
    table = ColorTable(len(sizes))
    offsets = [0] + np.cumsum(sizes).tolist()
    seen, rows = set(), []
    for (lu, iu), (lv, iv), color in edges:
        for layer, idx in ((lu, iu), (lv, iv)):
            if not 0 <= layer < len(sizes):
                raise UnknownNode(f"layer {layer} not declared")
            if not 0 <= idx < sizes[layer]:
                raise UnknownNode(f"node ({layer}, {idx}) outside layer of size {sizes[layer]}")
        if (lu, iu) == (lv, iv):
            raise SelfLoop(f"self-loop at ({lu}, {iu})")
        expected = table.color_of(lu, lv)
        if color != expected:
            raise CrossLayerColorMismatch(
                f"edge ({lu},{iu})-({lv},{iv}) carries color {color}, "
                f"layer pair requires {expected}"
            )
        fu, fv = sorted((offsets[lu] + iu, offsets[lv] + iv))
        if (fu, fv) in seen:
            raise DuplicateEdge(f"duplicate edge ({lu},{iu})-({lv},{iv})")
        seen.add((fu, fv))
        rows.append((fu, fv, color))
    rows.sort()
    return [r[0] for r in rows], [r[1] for r in rows], [r[2] for r in rows]


def sequential_parse_graph(text: str):
    """load_graph's parse one line at a time: (layer sizes, triples), or the
    ParseError of the first malformed line."""
    layer_sizes, edges = None, []
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if line.split()[0] == "#layers":
                if layer_sizes is not None:
                    raise ParseError(line_no, "duplicate #layers header")
                try:
                    layer_sizes = [int(tok) for tok in line.split()[1:]]
                except ValueError:
                    raise ParseError(line_no, "layer sizes must be integers")
                if not layer_sizes:
                    raise ParseError(line_no, "#layers header declares no layers")
                if any(size < 1 for size in layer_sizes):
                    raise ParseError(line_no, "layer sizes must be positive")
            continue
        if layer_sizes is None:
            raise ParseError(line_no, "edge before #layers header")
        parts = line.split()
        if len(parts) != 4:
            raise ParseError(line_no, f"expected 'layer_u u layer_v v', got {line!r}")
        try:
            lu, iu, lv, iv = (int(tok) for tok in parts)
        except ValueError:
            raise ParseError(line_no, f"non-integer field in {line!r}")
        edges.append((line_no, (lu, iu), (lv, iv)))
    if layer_sizes is None:
        raise ParseError(0, "missing #layers header")
    table = ColorTable(len(layer_sizes))
    triples = []
    for line_no, a, b in edges:
        for layer, _ in (a, b):
            if not 0 <= layer < len(layer_sizes):
                raise ParseError(line_no, f"layer {layer} not declared in header")
        triples.append((a, b, table.color_of(a[0], b[0])))
    return layer_sizes, triples


# ---------------------------------------------------------------------------
# Shared small-graph builders
# ---------------------------------------------------------------------------

def single_layer_graph(n: int, pairs) -> LayeredGraph:
    return build_graph([n], [((0, int(a)), (0, int(b)), 0) for a, b in pairs])


def two_layer_graph(n0: int, n1: int, intra0, intra1, inter) -> LayeredGraph:
    triples = []
    triples += [((0, int(a)), (0, int(b)), 0) for a, b in intra0]
    triples += [((1, int(a)), (1, int(b)), 1) for a, b in intra1]
    triples += [((0, int(a)), (1, int(b)), 2) for a, b in inter]
    return build_graph([n0, n1], triples)


def chain_plus_layer2() -> LayeredGraph:
    """12-node two-layer example whose layer-1 intra degrees are {1,3,2,3,2,1}."""
    intra0 = [(0, 1), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5)]
    intra1 = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 2)]
    inter = [(0, 0), (2, 3), (5, 5)]
    return two_layer_graph(6, 6, intra0, intra1, inter)


def random_layered_graph(rng: np.random.Generator, max_nodes: int = 20) -> LayeredGraph:
    from interepi import ColorTable

    num_layers = int(rng.integers(1, 4))
    sizes = [int(rng.integers(1, max_nodes // num_layers + 1)) for _ in range(num_layers)]
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    n = int(offsets[-1])
    table = ColorTable(num_layers)
    triples = []
    seen = set()
    for _ in range(int(rng.integers(0, max(1, 2 * n)))):
        u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
        if u == v:
            continue
        a, b = min(u, v), max(u, v)
        if (a, b) in seen:
            continue
        seen.add((a, b))
        lu = int(np.searchsorted(offsets, a, side="right") - 1)
        lv = int(np.searchsorted(offsets, b, side="right") - 1)
        triples.append(
            (
                (lu, a - int(offsets[lu])),
                (lv, b - int(offsets[lv])),
                table.color_of(lu, lv),
            )
        )
    return build_graph(sizes, triples)
