"""Memory budgets of graph construction, kept frontiers and the SIR sampler,
measured with tracemalloc.

tracemalloc counts the bytes Python and numpy allocate, so these numbers are
the same on every run of a seed and need no wall clock. The budgets are bytes
per edge on the full-scale strongly coupled ER pair (10k + 10k nodes, mean
degrees 1.5 and 6.0, interconnection 1.5: 52 500 edges). With int64 arrays
and lexsorted adjacency the peaks were 311 B (build) and 387 B (load) per
edge, and a graph kept 62 B per edge. The byte tokenizer that np.loadtxt
replaced peaked at 172 B per edge in load_graph. With int32 arrays and the
adjacency ordered by one in-place unstable sort of packed keys, the peaks are
105.7 B (build) and 105.2 B (load), and a graph keeps 31.1 B per edge. With
int32 layer offsets, and files read by np.loadtxt into int32 rows, load_graph
peaks at 81.1 B per edge. Once a graph kept only its layers and its CSR
adjacency, the edge lists and colors being views computed on request, it
keeps 11.1 B per edge (8 B per edge plus 8 B per node), built or loaded, and
the peaks are 92.3 B (build) and 67.6 B (load).

write_graph formats about 4096 edges at a time, so its peak is one chunk's whatever
the edge count: about 693 KiB when every field went through a Python int and
"%d", 327-329 KiB with one fixed-width byte matrix per chunk (the 2 500 and
10 000 node pairs of its test), 268-272 KiB once local_rows gave int32 rows,
and 268-273 KiB with the rows derived from the adjacency a run of about 4096
edges at a time.

A frontier kept after its search is budgeted in bytes per point: about 166 B
when a FrontierSet held its points and thetas as tuples of floats, 52 B with
one rate array and one theta array.

The SIR sampler is budgeted in bytes per directed adjacency entry (105 000 on
the same pair), over one sweep cell and one dynamics setting of 5
realizations at rates (0.16, 0.16, 0.2), one seed per layer, master seed 7.
When each realization compacted its transmitting entries into a new CSR and
computed delays for final sizes too, the cell peaked at 46.8 B and the
dynamics setting, which held every realization's summary, at 52.4 B. On the
adjacency's own rows, with self-loops for the entries that do not transmit
and counts summed as the realizations run, they peak at 39.6 B and 43.8 B.
tracemalloc sees only this process, so the dynamics budget passes workers=1,
which keeps every realization in this process whatever the pool would do;
the budgets are unchanged. Once the final-size law stopped gathering a
log(1 - rate) per entry that no breadth-first readout reads, the cell peaks
at 31.6 B. With infection times read as breadth-first levels over delay
chains instead of Dijkstra distances, the dynamics setting peaks at 42.0 B:
1-byte entry colors, one reused gathered-table buffer and zero-stride CSR
data pay for the chain rows and the search's 8 B per expanded node.

One run_sir call builds its own delay chains and is held to the dynamics
budget: it peaks at 41.7 B with Dijkstra and at 41.9 B with the chains.
Once a realization compared and divided its uniforms one layer block at a
time against scalars, and only the inter entries against their colors'
rates, from intp positions listed once per setting, instead of gathering
both rate tables through 1-byte entry colors, the dynamics setting peaks
at 35.3 B (42.0 B) and run_sir at 35.2 B (41.9 B).

The chains' nodes cost memory that grows with tau: 4 B of targets, 4 B of
row pointers and 8 B inside breadth_first_order per chain node, 16.0 B
measured between tau = 20 and 50. At tau = 20 the dynamics setting is held
to the dynamics budget plus those 16 B per chain node; it peaks at 0.77 of
that bound (0.83 with the gathered tables).
"""

import tracemalloc
from dataclasses import replace

import pytest

from interepi import (
    ErLayerSpec,
    MomentSet,
    SeedPolicy,
    SirConfig,
    build_interdependent,
    dynamics,
    er_color_moments,
    run_sir,
    load_graph,
    multi_threshold,
    structural_gcc_sizes,
    write_graph,
)
from interepi.sir import mean_cell_densities

BUILD_PEAK_PER_EDGE = 220
CELL_PEAK_PER_ENTRY = 42
CHAIN_NODE_BYTES = 16
DYNAMICS_PEAK_PER_ENTRY = 46
LOAD_PEAK_PER_EDGE = 90
KEPT_PER_EDGE = 12
KEPT_PER_FRONTIER_POINT = 80

LAYERS = [ErLayerSpec(10_000, 1.5), ErLayerSpec(10_000, 6.0)]
INTER = {(0, 1): 1.5}


@pytest.fixture(scope="module")
def strong_pair():
    return build_interdependent(LAYERS, INTER, 7)


@pytest.fixture
def traced():
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        yield
    finally:
        if started:
            tracemalloc.stop()


def _measure(fn, *args, **kwargs):
    """fn(*args, **kwargs), the peak bytes allocated during the call and the
    bytes its result still holds, both above what was allocated before it."""
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    result = fn(*args, **kwargs)
    current, peak = tracemalloc.get_traced_memory()
    return result, peak - base, current - base


def test_build_interdependent(traced):
    g, peak, kept = _measure(build_interdependent, LAYERS, INTER, 7)
    assert g.num_edges == 52_500
    assert peak / g.num_edges <= BUILD_PEAK_PER_EDGE
    assert kept / g.num_edges <= KEPT_PER_EDGE


def test_load_graph(traced, tmp_path):
    path = tmp_path / "g.edges"
    write_graph(build_interdependent(LAYERS, INTER, 7), path)
    g, peak, kept = _measure(load_graph, path)
    assert g.num_edges == 52_500
    assert peak / g.num_edges <= LOAD_PEAK_PER_EDGE
    assert kept / g.num_edges <= KEPT_PER_EDGE


def test_write_graph_memory_does_not_grow_with_edges(traced, tmp_path):
    # rows are formatted a chunk at a time; formatting them all at once
    # peaked at 171 B per edge on the full-scale pair
    peaks = []
    for n in (2_500, 10_000):
        g = build_interdependent([ErLayerSpec(n, 1.5), ErLayerSpec(n, 6.0)], INTER, 7)
        _, peak, _ = _measure(write_graph, g, tmp_path / "g.edges")
        peaks.append(peak)
    assert peaks[1] <= 1.1 * peaks[0]


def test_kept_frontier_bytes_per_point(traced):
    # twenty frontiers kept at once, as a benchmark keeps its repetitions'
    # outputs, so numpy's small-buffer cache and the float and tuple free
    # lists weigh little against what the frontiers hold
    moments = MomentSet((er_color_moments(1.5, 10_000), er_color_moments(6.0, 10_000),
                         er_color_moments(1.5, 20_000)))

    def frontiers():
        return [multi_threshold(moments, (10_000, 10_000), 5, 0.01) for _ in range(20)]

    kept_frontiers, _, kept = _measure(frontiers)
    points = sum(len(f) for f in kept_frontiers)
    assert points == 20 * 50  # test_benchmark_model_takes_few_roots
    assert kept / points <= KEPT_PER_FRONTIER_POINT


def _sir_config():
    return SirConfig(rates=(0.16, 0.16, 0.2), tau=5, seeds=SeedPolicy.in_layers([1, 1]),
                     realizations=5, master_seed=7)


def test_sweep_cell_peak_per_entry(strong_pair, traced):
    g = strong_pair
    entries = g.adjacency()[1].size
    assert entries == 2 * 52_500
    _, peak, _ = _measure(mean_cell_densities, g, _sir_config(), 0, structural_gcc_sizes(g))
    assert peak / entries <= CELL_PEAK_PER_ENTRY


def test_dynamics_peak_per_entry(strong_pair, traced):
    g = strong_pair
    _, peak, _ = _measure(dynamics, g, [(0.16, 0.2)], _sir_config(), workers=1)
    assert peak / g.adjacency()[1].size <= DYNAMICS_PEAK_PER_ENTRY


def test_run_sir_peak_per_entry(strong_pair, traced):
    g = strong_pair
    _, peak, _ = _measure(run_sir, g, _sir_config(), 0)
    assert peak / g.adjacency()[1].size <= DYNAMICS_PEAK_PER_ENTRY


def test_dynamics_peak_at_larger_tau(strong_pair, traced):
    g = strong_pair
    tau = 20
    _, peak, _ = _measure(dynamics, g, [(0.16, 0.2)], replace(_sir_config(), tau=tau), workers=1)
    chain_nodes = (tau - 1) * g.n
    assert peak <= DYNAMICS_PEAK_PER_ENTRY * g.adjacency()[1].size + CHAIN_NODE_BYTES * chain_nodes
