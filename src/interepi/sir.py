"""Discrete-time Monte Carlo SIR with one diffusion rate per edge color.

The model is synchronous: at every step each infected node independently
attempts to infect each susceptible neighbor with the rate of the connecting
edge's color. A node infected at step t transmits during steps t .. t+tau-1,
its targets counting as infected from the following step, and is recovered
at t+tau, so each edge out of an infected node sees exactly tau Bernoulli
trials and the per-edge transmissibility is 1 - (1-beta)^tau.

It is sampled without stepping, as first passage over edge delays (Newman
2002, PRE 66; Kenah & Robins 2007, PRE 76). Each directed edge u -> v gets
the step G_uv of the first success among u's tau trials on it, a geometric
delay, and is dropped when none of the trials succeeds. The trials on
distinct edges are independent and do not depend on when u was infected,
so they can all be drawn up front: a susceptible v is infected at
t_v = min over u of (t_u + G_uv), the shortest-path distance from the seeds
over the kept edges. Trials on an edge after its target was infected are
drawn but never looked at, where a stepped simulation would not make them,
so both have the same law. The ever-infected set is the set
the seeds reach, and the per-step series follow from the times t_v alone.

Randomness is counter-based: realization r of cell c under master seed s
draws from the stream (s, c, r), seeds first and then one uniform per
directed adjacency entry, so sweeps are reproducible bit-for-bit no matter
how cells are scheduled or parallelized.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, dijkstra

from .errors import NotTwoLayers, ZeroGcc
from .graph import LayeredGraph, giant_component, layer_gcc_size


@dataclass(frozen=True)
class SeedPolicy:
    """Where the initially infected nodes come from.

    kind "uniform": ``count`` nodes uniform over the whole network;
    kind "per_layer": ``per_layer[i]`` nodes uniform inside layer i;
    kind "explicit": exactly the given (layer, index) nodes.
    """

    kind: str = "uniform"
    count: int = 1
    per_layer: tuple[int, ...] = ()
    nodes: tuple[tuple[int, int], ...] = ()

    @classmethod
    def uniform(cls, count: int = 1) -> "SeedPolicy":
        return cls(kind="uniform", count=count)

    @classmethod
    def one_per_layer(cls, num_layers: int) -> "SeedPolicy":
        return cls(kind="per_layer", per_layer=(1,) * num_layers)

    @classmethod
    def in_layers(cls, counts: Sequence[int]) -> "SeedPolicy":
        return cls(kind="per_layer", per_layer=tuple(int(c) for c in counts))

    @classmethod
    def explicit(cls, nodes: Sequence[tuple[int, int]]) -> "SeedPolicy":
        return cls(kind="explicit", nodes=tuple((int(l), int(i)) for l, i in nodes))


@dataclass(frozen=True)
class SirConfig:
    rates: tuple[float, ...]
    tau: int = 5
    seeds: SeedPolicy = field(default_factory=SeedPolicy.uniform)
    max_steps: Optional[int] = None
    realizations: int = 100
    master_seed: int = 0

    def __post_init__(self):
        if self.tau < 1:
            raise ValueError("tau must be at least 1")
        if self.realizations < 1:
            raise ValueError("need at least one realization")
        if any(not 0.0 <= r <= 1.0 for r in self.rates):
            raise ValueError("rates must lie in [0, 1]")


@dataclass(frozen=True)
class SimSummary:
    """One SIR realization: per-step counts and the final ever-infected sets.

    Row s of the count arrays is the state at step s (step 0 holds the
    seeds); the infected series ends at 0 unless the run was step-capped.
    ``ever_infected[l]`` lists local indices within layer l.
    """

    per_step_infected: np.ndarray  # (steps+1, L) currently infected
    per_step_infected_total: np.ndarray  # (steps+1,)
    per_step_ever: np.ndarray  # (steps+1, L) cumulative ever-infected
    per_step_ever_total: np.ndarray  # (steps+1,)
    ever_infected: tuple[np.ndarray, ...]
    steps_run: int

    @property
    def ever_counts(self) -> tuple[int, ...]:
        return tuple(len(a) for a in self.ever_infected)

    @property
    def ever_total(self) -> int:
        return sum(self.ever_counts)


def _stream(master_seed: int, cell_index: int, realization_index: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(master_seed, spawn_key=(cell_index, realization_index))
    )


def _choose_seeds(g: LayeredGraph, policy: SeedPolicy, rng: np.random.Generator) -> np.ndarray:
    if policy.kind == "uniform":
        if not 1 <= policy.count <= g.n:
            raise ValueError(f"seed count {policy.count} outside [1, {g.n}]")
        return np.sort(rng.choice(g.n, size=policy.count, replace=False))
    if policy.kind == "per_layer":
        if len(policy.per_layer) != g.num_layers:
            raise ValueError("one seed count per layer required")
        picks = []
        for layer, count in enumerate(policy.per_layer):
            if count == 0:
                continue
            size = g.layer_sizes[layer]
            if not 0 <= count <= size:
                raise ValueError(f"layer {layer} cannot seed {count} of {size}")
            local = rng.choice(size, size=count, replace=False)
            picks.append(local + int(g.offsets[layer]))
        if not picks:
            raise ValueError("seed policy selects no nodes")
        return np.sort(np.concatenate(picks))
    if policy.kind == "explicit":
        if not policy.nodes:
            raise ValueError("explicit seed policy without nodes")
        flat = np.asarray([g.flat(l, i) for l, i in policy.nodes], dtype=np.int64)
        if len(np.unique(flat)) != len(flat):
            raise ValueError("explicit seeds must be distinct")
        return np.sort(flat)
    raise ValueError(f"unknown seed policy kind {policy.kind!r}")


def _transmission_graph(
    g: LayeredGraph, cfg: SirConfig, realization_index: int, cell_index: int
) -> csr_matrix:
    """The edges that transmit in one realization, weighted by their delays.

    Draws the seeds, then one uniform per directed adjacency entry, from the
    stream (master_seed, cell, realization). Entry u -> v is kept when u's
    tau trials on it contain a success, with weight the step of the first
    one. Node n is a super-source with zero-weight edges to the seeds.
    """
    if len(cfg.rates) != g.num_colors:
        raise ValueError(
            f"{g.num_colors} colors need {g.num_colors} rates, got {len(cfg.rates)}"
        )
    rng = _stream(cfg.master_seed, cell_index, realization_index)
    seeds = _choose_seeds(g, cfg.seeds, rng)
    indptr, adj, adj_color = g.adjacency()
    rate = np.asarray(cfg.rates, dtype=float)
    u = rng.random(adj.size)
    transmits = u < (1.0 - (1.0 - rate) ** cfg.tau)[adj_color]
    kept = np.flatnonzero(transmits)
    # first success: the least k with (1 - rate)^k < 1 - u, which is <= tau
    # exactly for the kept entries (the clip only absorbs rounding); 1 - u is
    # exact for the generator's multiples of 2^-53
    log_miss = np.log(1.0 - rate, out=np.full_like(rate, -np.inf), where=rate < 1.0)
    delay = np.floor(np.log(1.0 - u[kept]) / log_miss[adj_color[kept]]) + 1.0
    np.minimum(delay, cfg.tau, out=delay)

    kept_before = np.zeros(adj.size + 1, dtype=np.int32)
    np.cumsum(transmits, out=kept_before[1:])
    ptr = np.empty(g.n + 2, dtype=np.int32)
    ptr[:-1] = kept_before[indptr]
    ptr[-1] = len(kept) + len(seeds)
    targets = np.concatenate([adj[kept], seeds], dtype=np.int32)
    weights = np.concatenate([delay, np.zeros(len(seeds))])
    return csr_matrix((weights, targets, ptr), shape=(g.n + 1, g.n + 1))


def run_sir(
    g: LayeredGraph,
    cfg: SirConfig,
    realization_index: int = 0,
    cell_index: int = 0,
) -> SimSummary:
    """One realization, fully determined by (graph, config, indices)."""
    graph = _transmission_graph(g, cfg, realization_index, cell_index)
    limit = np.inf if cfg.max_steps is None else cfg.max_steps
    dist = dijkstra(graph, indices=g.n, limit=limit)[: g.n]
    reached = np.flatnonzero(dist < np.inf)
    t = dist[reached].astype(np.int64)
    steps = int(t.max()) + cfg.tau
    if cfg.max_steps is not None:
        steps = min(steps, cfg.max_steps)

    num_layers = g.num_layers
    new = np.bincount(
        t * num_layers + g.node_layer[reached], minlength=(steps + 1) * num_layers
    ).reshape(steps + 1, num_layers)
    ever = np.cumsum(new, axis=0)
    infected = ever.copy()
    infected[cfg.tau :] -= ever[: -cfg.tau]
    bounds = np.searchsorted(reached, g.offsets)
    return SimSummary(
        per_step_infected=infected,
        per_step_infected_total=infected.sum(axis=1),
        per_step_ever=ever,
        per_step_ever_total=ever.sum(axis=1),
        ever_infected=tuple(
            reached[bounds[l] : bounds[l + 1]] - g.offsets[l] for l in range(num_layers)
        ),
        steps_run=steps,
    )


def _final_counts(
    g: LayeredGraph, cfg: SirConfig, realization_index: int, cell_index: int
) -> tuple[int, ...]:
    """Per-layer ever-infected counts of an uncapped realization: the nodes
    the super-source reaches, which is the set :func:`run_sir` returns."""
    graph = _transmission_graph(g, cfg, realization_index, cell_index)
    order = breadth_first_order(graph, g.n, return_predecessors=False)
    return tuple(np.bincount(g.node_layer[order[1:]], minlength=g.num_layers).tolist())


# ---------------------------------------------------------------------------
# Infection density
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DensityResult:
    """Ever-infected counts divided by structural giant-component sizes.

    Ratios can exceed 1 when infection covers nodes outside the gcc; they
    are reported as-is with ``exceeds_gcc`` set.
    """

    per_layer: tuple[float, ...]
    whole: float
    exceeds_gcc: bool


def structural_gcc_sizes(g: LayeredGraph) -> tuple[int, tuple[int, ...]]:
    """Gcc size of the full coupled graph and of each layer on its own."""
    whole = giant_component(g).largest_size
    per_layer = tuple(layer_gcc_size(g, l) for l in range(g.num_layers))
    return whole, per_layer


def infection_density(
    summary: SimSummary,
    g: LayeredGraph,
    gcc_sizes: Optional[tuple[int, tuple[int, ...]]] = None,
) -> DensityResult:
    if gcc_sizes is None:
        gcc_sizes = structural_gcc_sizes(g)
    return _density(summary.ever_counts, gcc_sizes)


def _density(counts: Sequence[int], gcc_sizes: tuple[int, tuple[int, ...]]) -> DensityResult:
    whole_gcc, layer_gcc = gcc_sizes
    per_layer = []
    for layer, count in enumerate(counts):
        if layer_gcc[layer] == 0:
            raise ZeroGcc(f"layer {layer} has no edges; density undefined")
        per_layer.append(count / layer_gcc[layer])
    whole = sum(counts) / whole_gcc
    return DensityResult(
        per_layer=tuple(per_layer),
        whole=whole,
        exceeds_gcc=whole > 1.0 or any(d > 1.0 for d in per_layer),
    )


def _two_layer_rates(g: LayeredGraph, beta: float, alpha: float) -> tuple[float, ...]:
    if g.num_layers != 2:
        raise NotTwoLayers("beta/alpha convention requires two layers")
    return (beta, beta, alpha)


def mean_cell_densities(
    g: LayeredGraph,
    cfg: SirConfig,
    cell_index: int,
    gcc_sizes: tuple[int, tuple[int, ...]],
) -> tuple[np.ndarray, float]:
    """Mean per-layer and whole-network densities over cfg.realizations runs."""
    acc_layers = np.zeros(g.num_layers)
    acc_whole = 0.0
    for r in range(cfg.realizations):
        if cfg.max_steps is None:
            counts = _final_counts(g, cfg, r, cell_index)
        else:
            counts = run_sir(g, cfg, realization_index=r, cell_index=cell_index).ever_counts
        dens = _density(counts, gcc_sizes)
        acc_layers += np.asarray(dens.per_layer)
        acc_whole += dens.whole
    return acc_layers / cfg.realizations, acc_whole / cfg.realizations


# ---------------------------------------------------------------------------
# Heat-map sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepResult:
    betas: tuple[float, ...]
    alphas: tuple[float, ...]
    density_per_layer: np.ndarray  # (len(betas), len(alphas), L)
    density_whole: np.ndarray  # (len(betas), len(alphas))


def _sweep_cell(g, cfg, gcc_sizes, cell_index, beta, alpha):
    cell_cfg = replace(cfg, rates=_two_layer_rates(g, beta, alpha))
    layers, whole = mean_cell_densities(g, cell_cfg, cell_index, gcc_sizes)
    return cell_index, layers, whole


_worker_context: tuple = ()


def _init_worker(g, cfg, gcc_sizes):
    # the graph crosses the process boundary once per worker, not per cell
    global _worker_context
    _worker_context = (g, cfg, gcc_sizes)


def _worker_cell(task):
    return _sweep_cell(*_worker_context, *task)


def sweep_heatmap(
    g: LayeredGraph,
    beta_grid: Sequence[float],
    alpha_grid: Sequence[float],
    cfg: SirConfig,
    workers: int = 1,
) -> SweepResult:
    """Mean infection densities on a (beta, alpha) grid, beta shared by both
    intra colors and alpha on the interconnection.

    Cell (i, j) uses cell index i * len(alpha_grid) + j for seed derivation,
    so the result is independent of scheduling and of ``workers``.
    """
    if g.num_layers != 2:
        raise NotTwoLayers("sweep requires two layers")
    betas = tuple(float(b) for b in beta_grid)
    alphas = tuple(float(a) for a in alpha_grid)
    if any(not 0.0 <= b <= 1.0 for b in betas + alphas):
        raise ValueError("grid rates must lie in [0, 1]")
    gcc_sizes = structural_gcc_sizes(g)
    tasks = [
        (i * len(alphas) + j, beta, alpha)
        for i, beta in enumerate(betas)
        for j, alpha in enumerate(alphas)
    ]
    density_layers = np.zeros((len(betas), len(alphas), g.num_layers))
    density_whole = np.zeros((len(betas), len(alphas)))
    if workers > 1:
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker, initargs=(g, cfg, gcc_sizes)
        ) as pool:
            results = list(pool.map(_worker_cell, tasks))
    else:
        results = [_sweep_cell(g, cfg, gcc_sizes, *t) for t in tasks]
    for cell_index, layers, whole in results:
        i, j = divmod(cell_index, len(alphas))
        density_layers[i, j] = layers
        density_whole[i, j] = whole
    return SweepResult(
        betas=betas,
        alphas=alphas,
        density_per_layer=density_layers,
        density_whole=density_whole,
    )


# ---------------------------------------------------------------------------
# Dynamics time series
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DynamicsResult:
    """Mean infected-count trajectories for a list of (beta, alpha) settings.

    ``infected[k]`` has shape (T_k+1, L+1): per-layer columns then the whole
    network, averaged over realizations (shorter runs padded with their final
    state). ``cumulative`` is the ever-infected counterpart.
    """

    settings: tuple[tuple[float, float], ...]
    infected: tuple[np.ndarray, ...]
    cumulative: tuple[np.ndarray, ...]


def dynamics(
    g: LayeredGraph,
    settings: Sequence[tuple[float, float]],
    cfg: SirConfig,
) -> DynamicsResult:
    if g.num_layers != 2:
        raise NotTwoLayers("dynamics convention requires two layers")
    infected_out = []
    ever_out = []
    for s_idx, (beta, alpha) in enumerate(settings):
        run_cfg = replace(cfg, rates=_two_layer_rates(g, beta, alpha))
        runs = [
            run_sir(g, run_cfg, realization_index=r, cell_index=s_idx)
            for r in range(cfg.realizations)
        ]
        horizon = max(r.per_step_infected.shape[0] for r in runs)
        acc_inf = np.zeros((horizon, g.num_layers + 1))
        acc_ever = np.zeros((horizon, g.num_layers + 1))
        for run in runs:
            t = run.per_step_infected.shape[0]
            acc_inf[:t, : g.num_layers] += run.per_step_infected
            acc_inf[:t, -1] += run.per_step_infected_total
            # infected counts after extinction stay 0 (no padding needed);
            # ever-infected counts persist at their final value
            acc_ever[:t, : g.num_layers] += run.per_step_ever
            acc_ever[:t, -1] += run.per_step_ever_total
            if t < horizon:
                acc_ever[t:, : g.num_layers] += run.per_step_ever[-1]
                acc_ever[t:, -1] += run.per_step_ever_total[-1]
        infected_out.append(acc_inf / cfg.realizations)
        ever_out.append(acc_ever / cfg.realizations)
    return DynamicsResult(
        settings=tuple((float(b), float(a)) for b, a in settings),
        infected=tuple(infected_out),
        cumulative=tuple(ever_out),
    )
