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
delay, and transmits nothing when none of the trials succeeds. The trials
on distinct edges are independent and do not depend on when u was infected,
so they can all be drawn up front: a susceptible v is infected at
t_v = min over u of (t_u + G_uv), the first-passage time from the seeds
over the transmitting edges. Trials on an edge after its target was
infected are drawn but never looked at, where a stepped simulation would not
make them, so both have the same law. The ever-infected set is the set the
seeds reach, and the per-step series follow from the times t_v alone.

Every readout is a breadth-first search. The final-size readout (sweep
cells without a step cap) searches the network's own adjacency rows: every
directed entry stays, and one that does not transmit becomes a self-loop on
its source, which no search uses. The time readout (:func:`run_sir`,
dynamics, step-capped cells) searches the same entries pointed into
per-target delay chains, tau - 1 extra nodes in front of each node, so that
an edge with delay d is d breadth-first steps long; a clock chain from the
super-source marks where each level starts, and t_v is v's level. Both read
the same uniforms, so they infect the same nodes. The chains add (tau - 1)*n
nodes and entries, built once per setting, cell or call. A timed
realization turns its uniforms into transmissions and delays one layer
block of entries at a time, against that layer's intra rate as a scalar,
then fixes up the inter entries, whose positions are listed per color once
per setting; it keeps no per-entry color or rate array.

Randomness is counter-based: realization r of cell c under master seed s
draws from the stream (s, c, r), seeds first and then one uniform per
directed adjacency entry, so sweeps are reproducible bit-for-bit no matter
how cells are scheduled or parallelized.

A run's sweep cells and dynamics settings are the tasks of one process pool
(:func:`sweep_and_dynamics`), by default on every CPU this process may use,
the settings first. A task is the unit a serial run computes, and results
come back in task order, so every result is the same whatever the worker
count.
"""

from __future__ import annotations

import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order

from .errors import NotTwoLayers, ZeroGcc
from .graph import INDEX, LayeredGraph, edge_components


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
        for name in ("tau", "realizations", "max_steps"):
            value = getattr(self, name)
            if value is None and name == "max_steps":
                continue
            # bool is an int subclass, and a numpy integer is not an int
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.tau < 1:
            raise ValueError("tau must be at least 1")
        if self.realizations < 1:
            raise ValueError("need at least one realization")
        if self.max_steps is not None and self.max_steps < 0:
            raise ValueError("max_steps must be >= 0")
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


def check_seeds(g: LayeredGraph, policy: SeedPolicy) -> None:
    """Raise ValueError unless ``policy`` can seed a realization on ``g``."""
    if policy.kind == "uniform":
        if not 1 <= policy.count <= g.n:
            raise ValueError(f"seed count {policy.count} outside [1, {g.n}]")
    elif policy.kind == "per_layer":
        if len(policy.per_layer) != g.num_layers:
            raise ValueError("one seed count per layer required")
        for layer, (count, size) in enumerate(zip(policy.per_layer, g.layer_sizes)):
            if not 0 <= count <= size:
                raise ValueError(f"layer {layer} cannot seed {count} of {size}")
        if not any(policy.per_layer):
            raise ValueError("seed policy selects no nodes")
    elif policy.kind == "explicit":
        if not policy.nodes:
            raise ValueError("explicit seed policy without nodes")
        sizes = g.layer_sizes
        for layer, index in policy.nodes:
            if not (0 <= layer < len(sizes) and 0 <= index < sizes[layer]):
                raise ValueError(f"explicit seed {(layer, index)} outside layer sizes {sizes}")
        if len(set(policy.nodes)) != len(policy.nodes):
            raise ValueError("explicit seeds must be distinct")
    else:
        raise ValueError(f"unknown seed policy kind {policy.kind!r}")


def _choose_seeds(g: LayeredGraph, policy: SeedPolicy, rng: np.random.Generator) -> np.ndarray:
    if policy.kind == "uniform":
        return np.sort(rng.choice(g.n, size=policy.count, replace=False))
    if policy.kind == "per_layer":
        picks = [
            rng.choice(size, size=count, replace=False) + int(g.offsets[layer])
            for layer, (count, size) in enumerate(zip(policy.per_layer, g.layer_sizes))
            if count
        ]
        return np.sort(np.concatenate(picks))
    return np.sort(np.asarray([g.flat(l, i) for l, i in policy.nodes], dtype=np.int64))


def _color_law(g: LayeredGraph, cfg: SirConfig) -> tuple[np.ndarray, np.ndarray]:
    """Per color: the probability that one of an edge's tau trials succeeds,
    and log(1 - rate), -inf at rate 1 and where 1 - rate rounds to 1, so that
    such an entry's delay is 1.

    It depends on the rates alone, so a cell, a dynamics setting or a
    :func:`run_sir` call computes it once for all of its realizations, after
    checking the rate count and the seed policy against the network.
    """
    if len(cfg.rates) != g.num_colors:
        raise ValueError(
            f"{g.num_colors} colors need {g.num_colors} rates, got {len(cfg.rates)}"
        )
    check_seeds(g, cfg.seeds)
    miss = 1.0 - np.asarray(cfg.rates, dtype=float)
    keep = 1.0 - miss**cfg.tau
    log_miss = np.log(miss, out=np.full_like(miss, -np.inf), where=(0 < miss) & (miss < 1))
    return keep, log_miss


EdgeLaw = tuple[np.ndarray, np.ndarray, np.ndarray]


def _edge_law(g: LayeredGraph, cfg: SirConfig) -> EdgeLaw:
    """The final-size law, per directed adjacency entry: the probability
    that one of its tau trials succeeds, its source node, and its target
    minus its source. No final-size readout needs a delay."""
    keep = _color_law(g, cfg)[0]
    indptr, adj, adj_color = g.adjacency()
    source = np.repeat(np.arange(g.n, dtype=adj.dtype), np.diff(indptr))
    return keep[adj_color], source, adj - source


def _transmission_graph(
    g: LayeredGraph, cfg: SirConfig, law: EdgeLaw, realization_index: int, cell_index: int
) -> csr_matrix:
    """One realization's transmission graph, on the rows of the adjacency.

    Draws the seeds, then one uniform per directed adjacency entry, from the
    stream (master_seed, cell, realization). Entry u -> v transmits when u's
    tau trials on it contain a success; one that does not points back at u
    instead, a self-loop that no search can use. Node n is a super-source
    with edges to the seeds. The uniforms are the graph's weights, which a
    breadth-first search never reads.
    """
    rng = _stream(cfg.master_seed, cell_index, realization_index)
    seeds = _choose_seeds(g, cfg.seeds, rng)
    indptr = g.csr()[0]
    keep, source, step = law
    size = keep.size + len(seeds)
    weights = np.zeros(size)
    u = rng.random(out=weights[: keep.size])
    # branch-free select: a random mask makes np.where several times slower
    targets = np.empty(size, dtype=source.dtype)
    np.multiply(u < keep, step, out=targets[: keep.size])
    targets[: keep.size] += source
    targets[keep.size :] = seeds
    ptr = np.concatenate([indptr, [size]], dtype=indptr.dtype)
    return csr_matrix((weights, targets, ptr), shape=(g.n + 1, g.n + 1))


# clock nodes of a setting's first realization; the clock doubles while a
# realization infects a node past its last clock node, up to a step cap's
_CLOCK_START = 256


def _seed_count(policy: SeedPolicy) -> int:
    if policy.kind == "uniform":
        return policy.count
    if policy.kind == "per_layer":
        return sum(policy.per_layer)
    return len(policy.nodes)


class _DelayChains:
    """The graph whose breadth-first levels are the infection steps, kept
    with the buffers that write a realization's entries into it.

    Real nodes keep their ids 0..n-1. Chain node k*n + v (k = 1..tau-1)
    means "v, k steps early", and its one entry points to (k-1)*n + v. An
    adjacency entry u -> v that transmits with delay d points to
    (d-1)*n + v, d breadth-first steps from v; one that does not is a
    self-loop on u. Node tau*n is the super-source: its row lists the clock
    node c_0 first, then the seeds, and clock node c_i = tau*n + 1 + i points
    to c_{i+1}. A breadth-first search discovers a level's nodes in the
    order it takes their parents, so c_t is the first node of level t + 1,
    and a real node's infection step is the number of clock nodes before it
    in the search order, minus one.

    With a step cap the clock grows to at most max_steps + 2 nodes, and the
    nodes past the last one are dropped. The chain, clock and row pointers
    are built once per setting, cell or :func:`run_sir` call, never kept on
    the graph; a realization rewrites only the adjacency entries and the
    seed slots, in place.

    Rows run in source order, so layer h's entries are one block, and every
    intra entry in it has color h: a realization compares and divides each
    block against layer h's scalars, then redoes the inter entries against
    their own color's, from intp positions listed once per inter color (8 B
    per inter entry). Its reused buffers are 8 B of uniforms and 1 B of
    transmission flags per entry.
    """

    def __init__(self, g: LayeredGraph, cfg: SirConfig):
        self.keep, self.log_miss = _color_law(g, cfg)
        self.n, self.tau = g.n, cfg.tau
        indptr, self.adj, adj_color = g.adjacency()
        bounds = indptr[g.offsets].tolist()
        self.blocks = [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]
        self.inter = [(c, np.flatnonzero(adj_color == c))
                      for c in range(g.num_layers, g.num_colors)]
        del adj_color
        self.source = np.repeat(np.arange(g.n, dtype=INDEX), np.diff(indptr))
        self.limit = np.inf if cfg.max_steps is None else cfg.max_steps + 2
        clock = min(_CLOCK_START, self.limit)
        chain_end = self.adj.size + (cfg.tau - 1) * g.n
        self.seed_slots = slice(chain_end + 1, chain_end + 1 + _seed_count(cfg.seeds))
        self._check_ids(clock)
        # the rows of the real nodes, the chain nodes and the super-source
        fixed_rows = np.concatenate(
            [indptr, np.arange(self.adj.size + 1, chain_end + 1, dtype=INDEX),
             [self.seed_slots.stop]], dtype=INDEX)
        self.targets = np.empty(self.seed_slots.stop, dtype=INDEX)
        self.targets[self.adj.size : chain_end] = np.arange((cfg.tau - 1) * g.n, dtype=INDEX)
        self.targets[chain_end] = self.tau * g.n + 1
        self._lay_out(fixed_rows, clock)
        del fixed_rows
        # reused by every realization, allocated last: laying out the rows
        # copies the targets, and does not add to these
        self.uniform = np.empty(self.adj.size)
        self.transmits = np.empty(self.adj.size, dtype=bool)

    def _check_ids(self, clock: int) -> None:
        """Raise ValueError unless the graph with ``clock`` clock nodes
        numbers its nodes and entries in :data:`INDEX`."""
        nodes = self.tau * self.n + 1 + clock
        if max(nodes, self.seed_slots.stop + clock) > np.iinfo(INDEX).max:
            raise ValueError(f"{clock} clock steps at tau = {self.tau} over {self.n} nodes "
                             f"exceed {np.dtype(INDEX).name} node ids")

    def _lay_out(self, fixed_rows: np.ndarray, clock: int) -> None:
        """The graph with ``clock`` clock nodes after the rows that
        ``fixed_rows`` points to, keeping the entries written in them."""
        self._check_ids(clock)
        source_node = self.tau * self.n
        fixed = self.seed_slots.stop
        targets = np.empty(fixed + clock - 1, dtype=INDEX)
        targets[:fixed] = self.targets[:fixed]
        targets[fixed:] = np.arange(source_node + 2, source_node + 1 + clock, dtype=INDEX)
        ends = np.minimum(np.arange(1, clock + 1, dtype=INDEX), clock - 1)
        indptr = np.concatenate([fixed_rows, ends + fixed], dtype=INDEX)
        self.targets = targets
        self.graph = csr_matrix((np.broadcast_to(1.0, targets.size), targets, indptr),
                                shape=(indptr.size - 1, indptr.size - 1))

    def write(self, rng: np.random.Generator, seeds: np.ndarray) -> None:
        """Point the adjacency entries at their realization's delay chains,
        from the uniforms ``rng`` draws next, one per entry, and the seed
        slots at ``seeds``."""
        u = rng.random(out=self.uniform)
        # each block against its layer's intra rate, then the inter entries
        # against their colors'
        for h, block in enumerate(self.blocks):
            np.less(u[block], self.keep[h], out=self.transmits[block])
        for c, pos in self.inter:
            self.transmits[pos] = u[pos] < self.keep[c]
        # the first success is the least d with (1 - rate)^d < 1 - u, which
        # is <= tau exactly for the transmitting entries; 1 - u is exact for
        # the generator's multiples of 2^-53. The self-loops are converted
        # too, cheaper than selecting the rest, and d - 1 is clipped to
        # [0, tau - 1] (a -inf log(1 - rate) gives 0, not NaN)
        np.subtract(1.0, u, out=u)
        np.log(u, out=u)
        inter_quotients = [u[pos] / self.log_miss[c] for c, pos in self.inter]
        for h, block in enumerate(self.blocks):
            np.divide(u[block], self.log_miss[h], out=u[block])
        for (_, pos), quotient in zip(self.inter, inter_quotients):
            u[pos] = quotient
        np.floor(u, out=u)
        np.minimum(u, self.tau - 1, out=u)
        real = self.targets[: u.size]
        np.multiply(u, self.n, out=real, casting="unsafe")
        real += self.adj
        # branch-free select: a random mask makes np.copyto(where=) several times slower
        real -= self.source
        real *= self.transmits
        real += self.source
        self.targets[self.seed_slots] = seeds

    def steps(self) -> tuple[np.ndarray, np.ndarray]:
        """The real nodes the written realization infects, ascending, and
        their infection steps."""
        source_node = self.tau * self.n
        while True:
            order = breadth_first_order(self.graph, source_node, return_predecessors=False)
            clock = np.flatnonzero(order > source_node)
            real = np.flatnonzero(order < self.n)
            if real[-1] < clock[-1] or clock.size == self.limit:
                break
            del order, real
            self._lay_out(self.graph.indptr[: source_node + 2], min(2 * clock.size, self.limit))
        real = real[: np.searchsorted(real, clock[-1])]
        step = np.full(self.n, -1, dtype=np.int32)
        step[order[real]] = np.searchsorted(clock, real, side="right") - 1
        reached = np.flatnonzero(step >= 0)
        return reached, step[reached]


def _first_passage(
    g: LayeredGraph, cfg: SirConfig, chains: _DelayChains, realization_index: int,
    cell_index: int
) -> tuple[np.ndarray, np.ndarray]:
    """The nodes one realization infects, ascending, and their infection steps:
    the seeds and then the uniforms of the stream (master_seed, cell,
    realization), read as breadth-first levels over ``chains``."""
    rng = _stream(cfg.master_seed, cell_index, realization_index)
    chains.write(rng, _choose_seeds(g, cfg.seeds, rng))
    return chains.steps()


def _step_series(cfg: SirConfig, num_layers: int, new: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per-step (currently infected, ever infected) counts by layer, from the
    count of infections per key step * num_layers + layer up to the last one.
    The series run tau steps past the last infection, or to the step cap."""
    steps = (new.size - 1) // num_layers + cfg.tau
    if cfg.max_steps is not None:
        steps = min(steps, cfg.max_steps)
    new = np.pad(new, (0, (steps + 1) * num_layers - new.size)).reshape(steps + 1, num_layers)
    ever = np.cumsum(new, axis=0)
    infected = ever.copy()
    infected[cfg.tau :] -= ever[: -cfg.tau]
    return infected, ever


def run_sir(
    g: LayeredGraph,
    cfg: SirConfig,
    realization_index: int = 0,
    cell_index: int = 0,
) -> SimSummary:
    """One realization, fully determined by (graph, config, indices)."""
    reached, t = _first_passage(g, cfg, _DelayChains(g, cfg), realization_index, cell_index)
    num_layers = g.num_layers
    new = np.bincount(t * num_layers + g.node_layer[reached])
    infected, ever = _step_series(cfg, num_layers, new)
    bounds = np.searchsorted(reached, g.offsets)
    return SimSummary(
        per_step_infected=infected,
        per_step_infected_total=infected.sum(axis=1),
        per_step_ever=ever,
        per_step_ever_total=ever.sum(axis=1),
        ever_infected=tuple(
            reached[bounds[l] : bounds[l + 1]] - g.offsets[l] for l in range(num_layers)
        ),
        steps_run=infected.shape[0] - 1,
    )


def _count_law(g: LayeredGraph, cfg: SirConfig) -> EdgeLaw | _DelayChains:
    """What :func:`_final_counts` samples from for a cell's realizations:
    the final-size law without a step cap, delay chains with one."""
    return _edge_law(g, cfg) if cfg.max_steps is None else _DelayChains(g, cfg)


def _final_counts(
    g: LayeredGraph, cfg: SirConfig, law: EdgeLaw | _DelayChains, realization_index: int,
    cell_index: int
) -> tuple[int, ...]:
    """Per-layer ever-infected counts of one realization, the set :func:`run_sir`
    returns: without a step cap, the nodes the super-source reaches."""
    if cfg.max_steps is None:
        graph = _transmission_graph(g, cfg, law, realization_index, cell_index)
        reached = breadth_first_order(graph, g.n, return_predecessors=False)[1:]
    else:
        reached = _first_passage(g, cfg, law, realization_index, cell_index)[0]
    return tuple(np.bincount(g.node_layer[reached], minlength=g.num_layers).tolist())


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
    """Gcc size of the full coupled graph and of each layer on its own, 0 for
    a layer without intra-layer edges. Components of the intra-layer edges
    never cross layers, so one pass over them gives every layer's gcc."""
    eu, ev = g.edge_ends()
    layer = g.node_layer[eu]
    intra = layer == g.node_layer[ev]
    per_layer = edge_components(g, eu[intra], ev[intra]).largest_size_by_layer
    has_edges = np.bincount(layer[intra], minlength=g.num_layers) > 0
    whole = edge_components(g, eu, ev).largest_size
    return whole, tuple(np.where(has_edges, per_layer, 0).tolist())


def _gcc_divisors(gcc_sizes: tuple[int, tuple[int, ...]]) -> np.ndarray:
    """Each layer's gcc size, then the whole network's: what divides a row of
    per-layer ever-infected counts followed by its sum into densities."""
    whole_gcc, layer_gcc = gcc_sizes
    if 0 in layer_gcc:
        raise ZeroGcc(f"layer {list(layer_gcc).index(0)} has no edges; density undefined")
    return np.array([*layer_gcc, whole_gcc])


def infection_density(
    summary: SimSummary,
    g: LayeredGraph,
    gcc_sizes: Optional[tuple[int, tuple[int, ...]]] = None,
) -> DensityResult:
    if gcc_sizes is None:
        gcc_sizes = structural_gcc_sizes(g)
    counts = np.array(summary.ever_counts)
    dens = np.append(counts, counts.sum()) / _gcc_divisors(gcc_sizes)
    return DensityResult(
        per_layer=tuple(dens[:-1].tolist()),
        whole=float(dens[-1]),
        exceeds_gcc=bool((dens > 1.0).any()),
    )


def mean_cell_densities(
    g: LayeredGraph,
    cfg: SirConfig,
    cell_index: int,
    gcc_sizes: tuple[int, tuple[int, ...]],
) -> tuple[np.ndarray, float]:
    """Mean per-layer and whole-network densities over cfg.realizations runs."""
    law = _count_law(g, cfg)
    divisors = _gcc_divisors(gcc_sizes)
    counts = np.array([_final_counts(g, cfg, law, r, cell_index) for r in range(cfg.realizations)])
    # a sum along axis 0 adds the realizations in run order, as a running sum would
    dens = np.column_stack([counts, counts.sum(axis=1)]) / divisors
    means = dens.sum(axis=0) / cfg.realizations
    return means[:-1], float(means[-1])


# ---------------------------------------------------------------------------
# Process pool
# ---------------------------------------------------------------------------

def _worker_count(workers: Optional[int]) -> int:
    """``workers``, checked, or by default the number of CPUs this process may use."""
    if workers is None:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    return workers


_worker_context: Optional[LayeredGraph] = None


def _init_worker(g):
    # the graph crosses the process boundary once per worker, not per task
    global _worker_context
    _worker_context = g


def _worker_task(task):
    fn, *args = task
    return fn(_worker_context, *args)


def _map_tasks(g: LayeredGraph, tasks: list, workers: int) -> list:
    """[fn(g, *args) for fn, *args in tasks], on min(workers, len(tasks))
    processes when that is more than one and in this process otherwise. Both
    start the tasks in order and return the results in task order."""
    workers = min(workers, len(tasks))
    if workers <= 1:
        return [fn(g, *args) for fn, *args in tasks]
    with ProcessPoolExecutor(workers, initializer=_init_worker, initargs=(g,)) as pool:
        return list(pool.map(_worker_task, tasks))


# ---------------------------------------------------------------------------
# Heat-map sweep and dynamics time series
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepResult:
    betas: tuple[float, ...]
    alphas: tuple[float, ...]
    density_per_layer: np.ndarray  # (len(betas), len(alphas), L)
    density_whole: np.ndarray  # (len(betas), len(alphas))


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


def _setting_counts(g: LayeredGraph, cfg: SirConfig, setting_index: int) -> np.ndarray:
    """One dynamics setting's infections over its realizations, counted by
    key step * num_layers + layer up to the last one."""
    chains = _DelayChains(g, cfg)
    new = np.zeros(0, dtype=np.int64)
    for r in range(cfg.realizations):
        reached, t = _first_passage(g, cfg, chains, r, setting_index)
        run_new = np.bincount(t * g.num_layers + g.node_layer[reached], minlength=new.size)
        del reached, t  # not held through the next realization's search
        run_new[: new.size] += new
        new = run_new
    return new


def sweep_and_dynamics(
    g: LayeredGraph,
    cfg: SirConfig,
    beta_grid: Sequence[float] = (),
    alpha_grid: Sequence[float] = (),
    settings: Sequence[tuple[float, float]] = (),
    workers: Optional[int] = None,
) -> tuple[SweepResult, DynamicsResult]:
    """The sweep of :func:`sweep_heatmap` and the series of :func:`dynamics`
    at once: every sweep cell and dynamics setting is one task of a single
    pool of at most ``workers`` processes (default: every usable CPU), none
    when there is at most one task. The settings start first: a setting's
    per-step series costs more than a cell's final sizes at the same rates,
    and a pool whose longest task starts last leaves its other workers idle
    at the end."""
    if g.num_layers != 2:
        raise NotTwoLayers("sweeps and dynamics require two layers")
    workers = _worker_count(workers)
    betas = tuple(float(b) for b in beta_grid)
    alphas = tuple(float(a) for a in alpha_grid)
    if any(not 0.0 <= b <= 1.0 for b in betas + alphas):
        raise ValueError("grid rates must lie in [0, 1]")
    gcc_sizes = structural_gcc_sizes(g) if betas and alphas else None
    cells = [
        (mean_cell_densities, replace(cfg, rates=(beta, beta, alpha)), i * len(alphas) + j,
         gcc_sizes)
        for i, beta in enumerate(betas)
        for j, alpha in enumerate(alphas)
    ]
    series = [(_setting_counts, replace(cfg, rates=(b, b, a)), k)
              for k, (b, a) in enumerate(settings)]
    results = _map_tasks(g, series + cells, workers)
    shape = (len(betas), len(alphas))
    densities = results[len(series) :]
    sweep = SweepResult(
        betas=betas,
        alphas=alphas,
        density_per_layer=np.array([r[0] for r in densities], float).reshape(*shape, g.num_layers),
        density_whole=np.array([r[1] for r in densities], float).reshape(shape),
    )
    infected_out = []
    ever_out = []
    for new in results[: len(series)]:
        # the series of the summed counts are the sums of the runs' series,
        # each run padded with its final state: no infected, ever-infected kept
        infected, ever = _step_series(cfg, g.num_layers, new)
        infected_out.append(np.column_stack([infected, infected.sum(axis=1)]) / cfg.realizations)
        ever_out.append(np.column_stack([ever, ever.sum(axis=1)]) / cfg.realizations)
    return sweep, DynamicsResult(
        settings=tuple((float(b), float(a)) for b, a in settings),
        infected=tuple(infected_out),
        cumulative=tuple(ever_out),
    )


def sweep_heatmap(
    g: LayeredGraph,
    beta_grid: Sequence[float],
    alpha_grid: Sequence[float],
    cfg: SirConfig,
    workers: Optional[int] = None,
) -> SweepResult:
    """Mean infection densities on a (beta, alpha) grid, beta shared by both
    intra colors and alpha on the interconnection.

    Cell (i, j) uses cell index i * len(alpha_grid) + j for seed derivation,
    so the result is independent of scheduling and of ``workers``; the cells
    are the tasks of :func:`sweep_and_dynamics`'s pool.
    """
    return sweep_and_dynamics(g, cfg, beta_grid, alpha_grid, workers=workers)[0]


def dynamics(
    g: LayeredGraph,
    settings: Sequence[tuple[float, float]],
    cfg: SirConfig,
    workers: Optional[int] = None,
) -> DynamicsResult:
    """Mean series for each (beta, alpha) setting. Setting k draws from the
    streams of cell index k, so the result is independent of ``workers``;
    the settings are the tasks of :func:`sweep_and_dynamics`'s pool."""
    return sweep_and_dynamics(g, cfg, settings=settings, workers=workers)[1]
