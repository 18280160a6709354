"""Synthetic interdependent networks: ER layers, ER interconnections, and
power-law layers wired by a configuration model.

All generation is reproducible: every public function takes either a seeded
``numpy.random.Generator`` or a plain integer seed, and :func:`build_interdependent`
derives one child stream per layer and per layer pair from a single master
seed via ``SeedSequence`` spawn keys, so regenerating one layer never shifts
the randomness of another.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence, Union

import numpy as np

from .errors import MeanDegreeTooLarge, WiringFailed
from .graph import INDEX, ColorTable, LayeredGraph, build_graph_array, first_occurrences

RngLike = Union[int, np.random.Generator]


def as_rng(rng: RngLike) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(np.random.SeedSequence(rng))


def child_rng(master_seed: int, *key: int) -> np.random.Generator:
    """Independent child stream for (master_seed, key...)."""
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=key))


# ---------------------------------------------------------------------------
# Erdos-Renyi pieces (fixed edge count variant)
# ---------------------------------------------------------------------------

def _distinct_pairs(
    m: int, n_u: int, n_v: int, rng: np.random.Generator, same_layer: bool
) -> np.ndarray:
    """The first m distinct pairs, in draw order, among uniform draws of
    (a, b) in [0, n_u) x [0, n_v), taken in batches of 2 * (m - accepted) + 64.
    With ``same_layer`` self-loops are skipped and pairs kept as (min, max).
    Each batch's first draw of every pair comes from :func:`first_occurrences`."""
    chunks, count = [np.empty((0, 2), dtype=np.int64)], 0
    # sorted keys of the accepted pairs, above a sentinel that no key reaches
    seen = np.array([np.iinfo(np.int64).max])
    while count < m:
        batch = 2 * (m - count) + 64
        a = rng.integers(0, n_u, size=batch)
        b = rng.integers(0, n_v, size=batch)
        if same_layer:
            keep = a != b
            a, b = np.minimum(a, b)[keep], np.maximum(a, b)[keep]
        keys = a * n_v + b
        first = first_occurrences(keys)
        fresh = keys[first]
        first = np.sort(first[seen[np.searchsorted(seen, fresh)] != fresh])[: m - count]
        chunks.append(np.column_stack([a[first], b[first]]))
        count += len(first)
        taken = np.sort(keys[first])
        seen = np.insert(seen, np.searchsorted(seen, taken), taken)
    return np.concatenate(chunks)


def gen_er_layer(n: int, mean_degree: float, rng: RngLike) -> np.ndarray:
    """m = round(n * mean_degree / 2) distinct random pairs on n nodes.

    Returns an (m, 2) array of local node indices with u < v per row.
    """
    if n < 2:
        raise ValueError("need at least two nodes")
    if mean_degree < 0:
        raise ValueError("mean degree must be non-negative")
    m = round(n * mean_degree / 2)
    max_pairs = n * (n - 1) // 2
    if m > max_pairs:
        raise MeanDegreeTooLarge(f"{m} edges requested, only {max_pairs} pairs exist")
    return _distinct_pairs(m, n, n, as_rng(rng), same_layer=True)


def gen_er_interlayer(n1: int, n2: int, mean_degree: float, rng: RngLike) -> np.ndarray:
    """Distinct random cross pairs such that the restricted mean degree over
    the n1 + n2 incident nodes equals ``mean_degree``.

    Returns an (m, 2) array of (index in first layer, index in second layer).
    """
    if n1 < 1 or n2 < 1:
        raise ValueError("layers must be non-empty")
    if mean_degree < 0:
        raise ValueError("mean degree must be non-negative")
    m = round(mean_degree * (n1 + n2) / 2)
    if m > n1 * n2:
        raise MeanDegreeTooLarge(f"{m} cross edges requested, only {n1 * n2} pairs exist")
    return _distinct_pairs(m, n1, n2, as_rng(rng), same_layer=False)


# ---------------------------------------------------------------------------
# Power-law layers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PowerLawSpec:
    """Discrete power-law degree model p(y) ~ y^-gamma on [y_min, y_max].

    y_max is the natural cutoff floor(y_min * n^(1/(gamma-1))): the largest
    degree such that at most one node is expected above it. gamma must exceed
    1 for the normalization to exist; the experiments of interest use
    2 < gamma < 3.
    """

    gamma: float
    y_min: int
    n: int

    def __post_init__(self):
        if self.gamma <= 1:
            raise ValueError("gamma must exceed 1")
        if self.y_min < 1:
            raise ValueError("y_min must be at least 1")
        if self.n < 1:
            raise ValueError("n must be positive")

    @property
    def y_max(self) -> int:
        return math.floor(self.y_min * self.n ** (1.0 / (self.gamma - 1.0)))

    @property
    def normalization(self) -> float:
        """Constant c of the continuous density c * y^-gamma on [y_min, inf)."""
        return (self.gamma - 1.0) * self.y_min ** (self.gamma - 1.0)


def _powerlaw_draw(spec: PowerLawSpec, u: np.ndarray) -> np.ndarray:
    # inverse CDF of the truncated continuous law, rounded to the nearest
    # integer: bin mass stays ~ y^-gamma while the realized mean tracks the
    # continuous moment formulas (a bare discrete pmf undershoots them badly
    # for gamma near 2)
    e = 1.0 - spec.gamma
    a, b = float(spec.y_min), float(spec.y_max)
    y = (a**e + u * (b**e - a**e)) ** (1.0 / e)
    return np.clip(np.rint(y).astype(np.int64), spec.y_min, spec.y_max)


def sample_powerlaw_degrees(spec: PowerLawSpec, rng: RngLike) -> np.ndarray:
    """IID degrees on [y_min, y_max] with p(y) ~ y^-gamma, sum forced even by
    resampling one randomly chosen entry."""
    rng = as_rng(rng)
    deg = _powerlaw_draw(spec, rng.random(spec.n))
    if deg.sum() % 2 == 1:
        i = int(rng.integers(0, spec.n))
        while True:
            deg[i] = _powerlaw_draw(spec, rng.random(1))[0]
            if deg.sum() % 2 == 0:
                break
    return deg


def _wire_simple(deg: np.ndarray, rng: np.random.Generator,
                 max_attempts: int = 30, max_swap_tries: int = 500) -> np.ndarray:
    """Configuration-model wiring of a degree sequence into a simple graph.

    Stubs are shuffled and paired; self-loops and duplicate edges are repaired
    by degree-preserving swaps against randomly chosen good edges. A full
    reshuffle is attempted when repair stalls; WiringFailed after the budget.
    """
    n = len(deg)
    if deg.max(initial=0) > n - 1:
        raise WiringFailed("a sampled degree exceeds n - 1; no simple graph exists")
    stubs = np.repeat(np.arange(n, dtype=np.int64), deg)
    m = len(stubs) // 2
    for _ in range(max_attempts):
        rng.shuffle(stubs)
        u = stubs[0::2].copy()
        v = stubs[1::2].copy()
        seen: dict[int, int] = {}
        bad: list[int] = []
        for i in range(m):
            a, b = int(u[i]), int(v[i])
            if a > b:
                a, b = b, a
            key = a * n + b
            if a == b or key in seen:
                bad.append(i)
            else:
                seen[key] = i

        def edge_key(i: int) -> int:
            a, b = int(u[i]), int(v[i])
            if a > b:
                a, b = b, a
            return a * n + b

        repaired = True
        for i in bad:
            fixed = False
            for _try in range(max_swap_tries):
                j = int(rng.integers(0, m))
                if j == i or edge_key(j) not in seen:
                    continue
                # propose (u_i, v_j) and (u_j, v_i)
                a1, b1 = int(u[i]), int(v[j])
                a2, b2 = int(u[j]), int(v[i])
                if a1 == b1 or a2 == b2:
                    continue
                k1 = min(a1, b1) * n + max(a1, b1)
                k2 = min(a2, b2) * n + max(a2, b2)
                if k1 == k2 or k1 in seen or k2 in seen:
                    continue
                del seen[edge_key(j)]
                v[i], v[j] = v[j], v[i]
                seen[k1] = i
                seen[k2] = j
                fixed = True
                break
            if not fixed:
                repaired = False
                break
        if repaired:
            lo = np.minimum(u, v)
            hi = np.maximum(u, v)
            return np.column_stack([lo, hi])
    raise WiringFailed(f"could not wire degree sequence after {max_attempts} attempts")


def gen_powerlaw_layer(spec: PowerLawSpec, rng: RngLike) -> np.ndarray:
    """Simple-graph realization of a power-law degree sequence, (m, 2) local pairs."""
    rng = as_rng(rng)
    deg = sample_powerlaw_degrees(spec, rng)
    return _wire_simple(deg, rng)


# ---------------------------------------------------------------------------
# Composition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ErLayerSpec:
    n: int
    mean_degree: float


LayerSpec = Union[ErLayerSpec, PowerLawSpec]


def build_interdependent(
    layers: Sequence[LayerSpec],
    inter_means: Mapping[tuple[int, int], float],
    master_seed: int,
) -> LayeredGraph:
    """Generate every layer and interconnection and assemble the full graph.

    Layer i draws from stream (master_seed, 0, i); the interconnection of the
    pair (i, j) from (master_seed, 1, i, j). Missing pairs get no edges.
    """
    sizes = [spec.n for spec in layers]
    parts = []  # (layer_u, a, layer_v, b, color) rows per layer and layer pair
    for i, spec in enumerate(layers):
        rng = child_rng(master_seed, 0, i)
        if isinstance(spec, ErLayerSpec):
            pairs = gen_er_layer(spec.n, spec.mean_degree, rng)
        else:
            pairs = gen_powerlaw_layer(spec, rng)
        parts.append(np.insert(pairs.astype(INDEX), [0, 1, 2], (i, i, i), axis=1))
    colors = ColorTable(len(layers))
    for color in range(len(layers), colors.num_colors):
        i, j = colors.members(color)
        mean = inter_means.get((i, j), inter_means.get((j, i), 0.0))
        if mean == 0.0:
            continue
        rng = child_rng(master_seed, 1, i, j)
        pairs = gen_er_interlayer(sizes[i], sizes[j], mean, rng)
        parts.append(np.insert(pairs.astype(INDEX), [0, 1, 2], (i, j, color), axis=1))
    return build_graph_array(sizes, np.concatenate(parts or [np.empty((0, 5), dtype=INDEX)]))
