import hashlib
import re
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import chisquare

from interepi import (
    ColorTable,
    ErLayerSpec,
    NotTwoLayers,
    SeedPolicy,
    SirConfig,
    ZeroGcc,
    build_graph,
    build_interdependent,
    dynamics,
    infection_density,
    run_sir,
    structural_gcc_sizes,
    sweep_heatmap,
    transmissibility,
)
import interepi.sir as sir_module
from interepi.io import parse_config_text, run_experiment
from interepi.sir import (
    _CLOCK_START,
    _final_counts,
    _Realizations,
    _setting_counts,
    check_seeds,
    mean_cell_densities,
    sweep_and_dynamics,
)
from oracles import (
    chain_plus_layer2,
    first_passage_steps,
    percolation_ever_infected,
    single_layer_graph,
    two_layer_graph,
)


def summaries_equal(a, b):
    return (
        np.array_equal(a.per_step_infected, b.per_step_infected)
        and np.array_equal(a.per_step_ever, b.per_step_ever)
        and a.steps_run == b.steps_run
        and all(np.array_equal(x, y) for x, y in zip(a.ever_infected, b.ever_infected))
    )


class TestRunSir:
    def test_zero_rates_single_seed(self):
        g = chain_plus_layer2()
        cfg = SirConfig(rates=(0.0, 0.0, 0.0), tau=5, seeds=SeedPolicy.explicit([(0, 2)]))
        s = run_sir(g, cfg, 0)
        assert s.ever_counts == (1, 0)
        assert s.ever_infected[0].tolist() == [2]
        assert s.steps_run == 5  # seed transmits tau steps, recovered at tau
        assert s.per_step_infected_total.tolist() == [1, 1, 1, 1, 1, 0]

    def test_certain_transmission_fills_component(self):
        g = chain_plus_layer2()
        cfg = SirConfig(rates=(1.0, 1.0, 1.0), tau=5, seeds=SeedPolicy.explicit([(0, 0)]))
        s = run_sir(g, cfg, 0)
        ever = set(s.ever_infected[0].tolist()) | {
            6 + i for i in s.ever_infected[1].tolist()
        }
        oracle = percolation_ever_infected(g, (1.0, 1.0, 1.0), 5, [0], draw_seed=0)
        assert ever == set(oracle)

    def test_deterministic(self):
        g = chain_plus_layer2()
        cfg = SirConfig(rates=(0.3, 0.3, 0.2), tau=5, seeds=SeedPolicy.uniform(2), master_seed=5)
        a = run_sir(g, cfg, realization_index=3, cell_index=1)
        b = run_sir(g, cfg, realization_index=3, cell_index=1)
        assert summaries_equal(a, b)

    def test_streams_differ_across_realizations(self):
        g = chain_plus_layer2()
        cfg = SirConfig(rates=(0.2, 0.2, 0.2), tau=5, seeds=SeedPolicy.uniform(1), master_seed=5)
        outcomes = {run_sir(g, cfg, r).ever_total for r in range(20)}
        assert len(outcomes) > 1

    def test_accounting_identity(self):
        # every infected node is counted in exactly tau recorded steps
        g = chain_plus_layer2()
        for r in range(10):
            cfg = SirConfig(rates=(0.4, 0.4, 0.4), tau=3, seeds=SeedPolicy.uniform(1), master_seed=2)
            s = run_sir(g, cfg, r)
            assert s.per_step_infected_total.sum() == 3 * s.ever_total

    def test_series_invariants(self):
        g = chain_plus_layer2()
        cfg = SirConfig(rates=(0.6, 0.6, 0.6), tau=4, seeds=SeedPolicy.uniform(1), master_seed=9)
        s = run_sir(g, cfg, 1)
        assert (s.per_step_infected >= 0).all()
        assert s.per_step_infected_total[-1] == 0  # not capped: ends clean
        diffs = np.diff(s.per_step_ever_total)
        assert (diffs >= 0).all()
        assert np.array_equal(
            s.per_step_ever.sum(axis=1), s.per_step_ever_total
        )
        assert s.per_step_ever_total[-1] == s.ever_total

    def test_max_steps_cap(self):
        g = chain_plus_layer2()
        cfg = SirConfig(
            rates=(1.0, 1.0, 1.0), tau=5, seeds=SeedPolicy.explicit([(0, 0)]), max_steps=2
        )
        s = run_sir(g, cfg, 0)
        assert s.steps_run == 2
        assert s.per_step_infected.shape[0] == 3

    def test_rate_count_must_match_colors(self):
        g = chain_plus_layer2()
        cfg = SirConfig(rates=(0.5,), tau=5)
        with pytest.raises(ValueError):
            run_sir(g, cfg, 0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SirConfig(rates=(0.5,), tau=0)
        with pytest.raises(ValueError):
            SirConfig(rates=(1.5,), tau=5)
        with pytest.raises(ValueError):
            SirConfig(rates=(0.5,), tau=5, realizations=0)
        with pytest.raises(ValueError, match="max_steps"):
            SirConfig(rates=(0.5,), tau=5, max_steps=-1)
        # a negative master seed used to pass until numpy refused it at the
        # first realization
        with pytest.raises(ValueError, match="master_seed must be >= 0"):
            SirConfig(rates=(0.5,), master_seed=-1)

    @pytest.mark.parametrize("name, value", [
        ("tau", 2.5), ("tau", True), ("tau", 3.0), ("realizations", 2.5),
        ("realizations", np.bool_(True)), ("max_steps", 2.5), ("max_steps", False),
        ("master_seed", True), ("master_seed", 2.5),
    ])
    def test_integer_fields_must_be_integers(self, name, value):
        # a fractional tau used to run a fractional infectious period in
        # sweeps and fail inside numpy in run_sir, and a bool ran as 0 or 1
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            SirConfig(rates=(0.5,), **{name: value})
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            replace(SirConfig(rates=(0.5,)), **{name: value})

    def test_numpy_integers_act_as_ints(self):
        g = build_interdependent(
            [ErLayerSpec(200, 1.5), ErLayerSpec(200, 5.0)], {(0, 1): 1.0}, master_seed=5
        )
        base = dict(rates=(0.3, 0.3, 0.4), seeds=SeedPolicy.in_layers([1, 1]))
        ints = SirConfig(**base, tau=3, realizations=3, max_steps=3, master_seed=9)
        numpy_ints = SirConfig(**base, tau=np.int64(3), realizations=np.int32(3),
                               max_steps=np.int64(3), master_seed=np.int64(9))
        assert numpy_ints == ints
        assert all(type(v) is int for v in (numpy_ints.tau, numpy_ints.realizations,
                                            numpy_ints.max_steps, numpy_ints.master_seed))
        assert summaries_equal(run_sir(g, numpy_ints, 1), run_sir(g, ints, 1))
        assert summaries_equal(run_sir(g, ints, np.int64(1), np.int32(2)), run_sir(g, ints, 1, 2))
        a = sweep_heatmap(g, [0.2], [0.4], replace(numpy_ints, max_steps=None), workers=1)
        b = sweep_heatmap(g, [0.2], [0.4], replace(ints, max_steps=None), workers=1)
        assert np.array_equal(a.density_whole, b.density_whole)

    @pytest.mark.parametrize("indices, message", [
        # True used to run realization 1, 1.5 and the negatives to fail
        # inside numpy without naming the argument
        (dict(realization_index=True), "realization_index must be an integer, got True"),
        (dict(realization_index=1.5), "realization_index must be an integer, got 1.5"),
        (dict(realization_index=-1), "realization_index must be >= 0"),
        (dict(cell_index=-2), "cell_index must be >= 0"),
    ])
    def test_indices_must_be_nonnegative_integers(self, indices, message):
        cfg = SirConfig(rates=(0.5, 0.5, 0.5), tau=3)
        with pytest.raises(ValueError, match=re.escape(message)):
            run_sir(chain_plus_layer2(), cfg, **indices)


class TestFirstPassageSampler:
    def test_two_node_infection_step_law(self):
        # the target's infection step is the first success of tau Bernoulli
        # trials: P(k) = (1 - beta)^(k-1) beta for k = 1..tau, and
        # (1 - beta)^tau for never. Error budget: chi-square with tau degrees
        # of freedom at p < 0.001, a 0.1% false-alarm rate; 5000 runs put
        # at least 328 expected counts in every bin.
        g = single_layer_graph(2, [(0, 1)])
        beta, tau, runs = 0.2, 5, 5000
        cfg = SirConfig(rates=(beta,), tau=tau, seeds=SeedPolicy.explicit([(0, 0)]), master_seed=41)
        observed = np.zeros(tau + 1)
        for r in range(runs):
            ever = run_sir(g, cfg, r).per_step_ever_total
            hit = np.flatnonzero(ever == 2)
            observed[hit[0] - 1 if hit.size else tau] += 1
        law = [(1 - beta) ** (k - 1) * beta for k in range(1, tau + 1)] + [(1 - beta) ** tau]
        assert chisquare(observed, runs * np.asarray(law)).pvalue > 1e-3

    def test_final_counts_match_run_sir(self):
        # one sampler, two readouts: the reachable set and the first-passage
        # times must give the same ever-infected counts for the same stream
        g = build_interdependent(
            [ErLayerSpec(300, 1.5), ErLayerSpec(300, 4.0)], {(0, 1): 1.0}, master_seed=2
        )
        for rates in ((0.1, 0.1, 0.05), (0.3, 0.3, 0.2), (1.0, 0.0, 1.0)):
            cfg = SirConfig(rates=rates, tau=5, seeds=SeedPolicy.in_layers([1, 1]), master_seed=17)
            realizations = _Realizations(g, cfg, timed=False)
            for cell in (0, 3):
                for r in range(25):
                    assert (_final_counts(realizations, r, cell)
                            == run_sir(g, cfg, r, cell).ever_counts)

    def test_sweep_equals_mean_of_run_sir_densities(self):
        g = build_interdependent(
            [ErLayerSpec(200, 1.5), ErLayerSpec(200, 5.0)], {(0, 1): 1.0}, master_seed=5
        )
        gcc = structural_gcc_sizes(g)
        betas, alphas = [0.05, 0.3], [0.1, 0.6]
        cfg = SirConfig(
            rates=(0.0, 0.0, 0.0), tau=5, seeds=SeedPolicy.in_layers([1, 1]),
            realizations=15, master_seed=8,
        )
        sweep = sweep_heatmap(g, betas, alphas, cfg)
        for i, beta in enumerate(betas):
            for j, alpha in enumerate(alphas):
                cell_cfg = SirConfig(
                    rates=(beta, beta, alpha), tau=5, seeds=cfg.seeds, master_seed=8
                )
                layers, whole = np.zeros(2), 0.0
                for r in range(cfg.realizations):
                    d = infection_density(run_sir(g, cell_cfg, r, i * len(alphas) + j), g, gcc)
                    layers += np.asarray(d.per_layer)
                    whole += d.whole
                assert np.array_equal(sweep.density_per_layer[i, j], layers / cfg.realizations)
                assert sweep.density_whole[i, j] == whole / cfg.realizations

    def test_cap_keeps_nodes_infected_by_the_cap(self):
        # certain transmission along a path infects node i at step i
        g = single_layer_graph(10, [(i, i + 1) for i in range(9)])
        cap = 3
        cfg = SirConfig(
            rates=(1.0,), tau=2, seeds=SeedPolicy.explicit([(0, 0)]), max_steps=cap
        )
        s = run_sir(g, cfg, 0)
        assert s.ever_infected[0].tolist() == [0, 1, 2, 3]
        assert s.steps_run == cap
        assert s.per_step_ever_total.tolist() == [1, 2, 3, 4]
        assert s.per_step_infected_total.tolist() == [1, 2, 2, 2]

    def test_capped_run_is_prefix_of_uncapped(self):
        g = chain_plus_layer2()
        base = dict(rates=(0.5, 0.5, 0.5), tau=3, seeds=SeedPolicy.uniform(1), master_seed=12)
        checked = 0
        for r in range(40):
            full = run_sir(g, SirConfig(**base), r)
            cap = full.steps_run // 2
            if full.per_step_ever_total[cap] == full.ever_total:
                continue  # not a partial outbreak at this cap
            capped = run_sir(g, SirConfig(**base, max_steps=cap), r)
            checked += 1
            assert capped.steps_run == cap
            assert capped.per_step_infected.shape == (cap + 1, 2)
            assert np.array_equal(capped.per_step_infected, full.per_step_infected[: cap + 1])
            assert np.array_equal(capped.per_step_ever, full.per_step_ever[: cap + 1])
            assert capped.ever_total == full.per_step_ever_total[cap] < full.ever_total
            for a, b in zip(capped.ever_infected, full.ever_infected):
                assert set(a.tolist()) <= set(b.tolist())
        assert checked >= 5


class TestDelayChains:
    """The breadth-first readout over delay chains against the heapq
    first-passage oracle, node for node and step for step, where the chain
    layout has edge cases: a clock that must grow, no chain nodes, rates
    that are exactly 0 or 1, and a cap at the seeds."""

    @staticmethod
    def check(g, cfg, realizations=5, cell=0):
        chains = _Realizations(g, cfg, timed=True)
        for r in range(realizations):
            expected = first_passage_steps(g, cfg, r, cell)
            reached, steps = chains.steps(r, cell)
            assert reached.tolist() == sorted(expected)
            assert steps.tolist() == [expected[v] for v in sorted(expected)]
        return chains

    @staticmethod
    def clock_nodes(chains, g, tau):
        return chains.graph.shape[0] - tau * g.n - 1

    @pytest.mark.parametrize("max_steps", [None, _CLOCK_START + 40, 3 * _CLOCK_START])
    def test_path_longer_than_the_first_clock(self, max_steps):
        # certain transmission infects path node i at step i, past the first
        # clock's last node, so the first realization grows the clock
        n = 2 * _CLOCK_START + 100
        g = single_layer_graph(n, [(i, i + 1) for i in range(n - 1)])
        cfg = SirConfig(rates=(1.0,), tau=2, seeds=SeedPolicy.explicit([(0, 0)]),
                        max_steps=max_steps)
        chains = self.check(g, cfg, realizations=2)
        grown = self.clock_nodes(chains, g, 2)
        assert grown > _CLOCK_START
        if max_steps is not None:
            assert grown <= max_steps + 2
        infected = first_passage_steps(g, cfg, 0, 0)
        assert len(infected) == (n if max_steps is None else min(n, max_steps + 1))

    def test_tau_one_has_no_chain_nodes(self):
        g = build_interdependent(
            [ErLayerSpec(300, 1.5), ErLayerSpec(300, 4.0)], {(0, 1): 1.0}, master_seed=2
        )
        cfg = SirConfig(rates=(0.5, 0.7, 0.9), tau=1, seeds=SeedPolicy.in_layers([2, 2]),
                        master_seed=3)
        chains = self.check(g, cfg)
        assert chains.targets.size == g.adjacency()[1].size + 1 + 4 + _CLOCK_START - 1

    @pytest.mark.parametrize("max_steps", [None, 4])
    def test_rates_exactly_zero_and_one(self, max_steps):
        g = build_interdependent(
            [ErLayerSpec(300, 1.5), ErLayerSpec(300, 4.0)], {(0, 1): 1.0}, master_seed=2
        )
        cfg = SirConfig(rates=(1.0, 0.0, 0.3), tau=4, seeds=SeedPolicy.in_layers([1, 1]),
                        max_steps=max_steps, master_seed=5)
        self.check(g, cfg)
        summary = run_sir(g, cfg, 0)
        assert summary.ever_counts[0] > 1  # rate 1 spreads the sparse layer's seed

    def test_cap_at_the_seeds(self):
        g = build_interdependent(
            [ErLayerSpec(300, 1.5), ErLayerSpec(300, 4.0)], {(0, 1): 1.0}, master_seed=2
        )
        cfg = SirConfig(rates=(1.0, 1.0, 1.0), tau=3, seeds=SeedPolicy.uniform(3),
                        max_steps=0, master_seed=6)
        chains = self.check(g, cfg)
        assert self.clock_nodes(chains, g, 3) == 2
        reached, steps = chains.steps(0, 0)
        assert reached.size == 3 and not steps.any()

    # layer h's adjacency rows are one block of entries; its intra entries
    # have color h and its inter entries one inter color each
    THREE_LAYER_LAYOUTS = {
        "all six colors": ((0, 1, 2), ((0, 1), (0, 2), (1, 2))),
        "layer 1 without inter edges": ((0, 1, 2), ((0, 2),)),
        "layer 1 without edges": ((0, 2), ((0, 2),)),
        "layer 2 without intra edges": ((0, 1), ((0, 2), (1, 2))),
    }

    @staticmethod
    def random_graph(sizes, intra_layers, inter_pairs, seed):
        rng = np.random.default_rng(seed)
        table = ColorTable(len(sizes))
        edges = {}
        for a, b in [(h, h) for h in intra_layers] + list(inter_pairs):
            for _ in range(2 * max(sizes[a], sizes[b])):
                ends = sorted([(a, int(rng.integers(sizes[a]))), (b, int(rng.integers(sizes[b])))])
                if ends[0] != ends[1]:
                    edges[tuple(ends)] = table.color_of(a, b)
        return build_graph(sizes, [(x, y, c) for (x, y), c in edges.items()])

    @pytest.mark.parametrize("layout", THREE_LAYER_LAYOUTS)
    def test_layer_blocks_and_inter_colors(self, layout):
        # a distinct rate per color, so an inter entry read with its block's
        # intra rate, or an inter color left out, changes nodes or steps
        intra_layers, inter_pairs = self.THREE_LAYER_LAYOUTS[layout]
        g = self.random_graph((40, 30, 35), intra_layers, inter_pairs, seed=4)
        assert g.num_colors == 6
        assert set(np.unique(g.adjacency()[2]).tolist()) == {
            g.colors.color_of(a, b) for a, b in [(h, h) for h in intra_layers] + list(inter_pairs)
        }
        cfg = SirConfig(rates=(0.35, 0.5, 0.25, 0.6, 0.3, 0.45), tau=4,
                        seeds=SeedPolicy.uniform(3), master_seed=13)
        self.check(g, cfg, realizations=25)
        self.check(g, replace(cfg, max_steps=3), realizations=10, cell=2)

    def test_one_layer_has_no_inter_colors(self):
        g = self.random_graph((80,), (0,), (), seed=6)
        cfg = SirConfig(rates=(0.3,), tau=3, seeds=SeedPolicy.uniform(2), master_seed=2)
        chains = self.check(g, cfg, realizations=25)
        assert chains.inter == []

    def test_one_layout_for_both_readouts(self):
        # the final-size graph is the timed layout with no chain: the n real
        # nodes, the super-source n and one clock node with an empty row
        g = build_interdependent(
            [ErLayerSpec(300, 1.5), ErLayerSpec(300, 4.0)], {(0, 1): 1.0}, master_seed=2
        )
        entries = g.adjacency()[1].size
        cfg = SirConfig(rates=(0.3, 0.3, 0.2), tau=5, seeds=SeedPolicy.in_layers([2, 1]))
        final = _Realizations(g, cfg, timed=False)
        assert final.graph.shape == (g.n + 2, g.n + 2)
        assert final.source_node == g.n
        assert final.targets.size == entries + 1 + 3
        assert final.graph.indptr[g.n + 1] == final.graph.indptr[g.n + 2]
        # a step cap of 2 needs at most 2 + 2 clock nodes
        for max_steps, clock in ((None, _CLOCK_START), (2, 4)):
            times = _Realizations(g, replace(cfg, max_steps=max_steps), timed=True)
            assert times.graph.shape[0] == cfg.tau * g.n + 1 + clock
            assert times.source_node == cfg.tau * g.n
            assert times.targets.size == entries + (cfg.tau - 1) * g.n + 1 + 3 + clock - 1

    def test_ids_past_int32_raise(self):
        g = single_layer_graph(4, [(0, 1)])
        cfg = SirConfig(rates=(0.5,), tau=2**30, seeds=SeedPolicy.explicit([(0, 0)]))
        with pytest.raises(ValueError, match="exceed int32 node ids"):
            run_sir(g, cfg)


class TestSeedPolicies:
    def test_uniform_count(self):
        g = chain_plus_layer2()
        cfg = SirConfig(rates=(0.0, 0.0, 0.0), tau=1, seeds=SeedPolicy.uniform(4), master_seed=3)
        s = run_sir(g, cfg, 0)
        assert s.ever_total == 4

    def test_per_layer(self):
        g = chain_plus_layer2()
        cfg = SirConfig(rates=(0.0, 0.0, 0.0), tau=1, seeds=SeedPolicy.in_layers([2, 1]))
        s = run_sir(g, cfg, 0)
        assert s.ever_counts == (2, 1)

    def test_explicit(self):
        g = chain_plus_layer2()
        cfg = SirConfig(rates=(0.0, 0.0, 0.0), tau=1, seeds=SeedPolicy.explicit([(1, 4)]))
        s = run_sir(g, cfg, 0)
        assert s.ever_counts == (0, 1)
        assert s.ever_infected[1].tolist() == [4]

    def test_check_seeds_counts_the_seeds(self):
        g = chain_plus_layer2()
        assert check_seeds(g, SeedPolicy.uniform(5)) == 5
        assert check_seeds(g, SeedPolicy.in_layers([2, 1])) == 3
        assert check_seeds(g, SeedPolicy.explicit([(0, 1), (1, 4)])) == 2

    def test_validation(self):
        g = chain_plus_layer2()
        bad = [
            SirConfig(rates=(0.0,) * 3, seeds=SeedPolicy.uniform(0)),
            SirConfig(rates=(0.0,) * 3, seeds=SeedPolicy.in_layers([1])),
            SirConfig(rates=(0.0,) * 3, seeds=SeedPolicy.in_layers([7, 0])),
            SirConfig(rates=(0.0,) * 3, seeds=SeedPolicy.explicit([(0, 1), (0, 1)])),
        ]
        for cfg in bad:
            with pytest.raises(ValueError):
                run_sir(g, cfg, 0)

    @pytest.mark.parametrize("placement, detail, message", [
        # the first three used to give (1, 1), (0, 1) and (1, 1)
        ("in_layers", [1.5, 1], "seed count must be an integer, got 1.5"),
        ("explicit", [(0, 1.7)], "seed index must be an integer, got 1.7"),
        ("in_layers", [True, 1], "seed count must be an integer, got True"),
        ("explicit", [(0.0, 1)], "seed layer must be an integer, got 0.0"),
        ("uniform", 2.5, "seed count must be an integer, got 2.5"),
    ])
    def test_counts_and_nodes_must_be_integers(self, placement, detail, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            getattr(SeedPolicy, placement)(detail)

    def test_numpy_integers_act_as_ints(self):
        policies = [
            (SeedPolicy.uniform(np.int64(3)), SeedPolicy.uniform(3)),
            (SeedPolicy.in_layers(np.array([2, 1])), SeedPolicy.in_layers([2, 1])),
            (SeedPolicy.explicit(np.array([[1, 4]], dtype=np.int32)),
             SeedPolicy.explicit([(1, 4)])),
        ]
        for numpy_ints, ints in policies:
            assert numpy_ints == ints
            values = [numpy_ints.count, *numpy_ints.per_layer,
                      *(v for node in numpy_ints.nodes for v in node)]
            assert all(type(v) is int for v in values)

    @pytest.mark.parametrize("node", [(0, 6), (1, 6), (2, 0), (-1, 0)])
    def test_explicit_seed_outside_its_layer(self, node):
        # (0, 6) once seeded node 0 of layer 1; (0, -1) is run by
        # test_io_cli in a child process, as it once crashed the interpreter
        g = chain_plus_layer2()
        cfg = SirConfig(rates=(0.0,) * 3, seeds=SeedPolicy.explicit([(1, 0), node]))
        with pytest.raises(ValueError, match=re.escape(str(node))):
            run_sir(g, cfg, 0)


class TestAgainstPercolationReference:
    def test_distributional_agreement(self):
        # the ever-infected set of fixed-period SIR is reachability over
        # independently occupied directed edges; compare means of the two
        intra0 = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 2), (1, 4)]
        intra1 = [(0, 1), (1, 2), (2, 3), (0, 3)]
        inter = [(0, 0), (2, 1), (4, 3)]
        g = two_layer_graph(5, 4, intra0, intra1, inter)
        rates = (0.25, 0.4, 0.3)
        tau = 3
        runs = 3000
        cfg = SirConfig(rates=rates, tau=tau, seeds=SeedPolicy.explicit([(0, 0)]), master_seed=31)
        mine = np.array([run_sir(g, cfg, r).ever_total for r in range(runs)], dtype=float)
        theirs = np.array(
            [len(percolation_ever_infected(g, rates, tau, [0], draw_seed=d)) for d in range(runs)],
            dtype=float,
        )
        se = np.sqrt(mine.var() / runs + theirs.var() / runs)
        assert abs(mine.mean() - theirs.mean()) <= 4.5 * se + 1e-9

    def test_coupled_monotonicity_in_rates(self):
        # same uniforms, componentwise larger rates: superset of infections
        rng = np.random.default_rng(7)
        for trial in range(30):
            from oracles import random_layered_graph

            g = random_layered_graph(rng, max_nodes=15)
            if g.n < 2:
                continue
            c = g.num_colors
            low = tuple(rng.random(c) * 0.6)
            high = tuple(min(1.0, r + float(d)) for r, d in zip(low, rng.random(c) * 0.4))
            seeds = [int(rng.integers(0, g.n))]
            for draw_seed in range(4):
                small = percolation_ever_infected(g, low, 3, seeds, draw_seed)
                big = percolation_ever_infected(g, high, 3, seeds, draw_seed)
                assert small <= big

    def test_statistical_monotonicity_run_sir(self):
        g = chain_plus_layer2()
        means = []
        for beta in (0.2, 0.5, 0.9):
            cfg = SirConfig(
                rates=(beta, beta, beta), tau=3, seeds=SeedPolicy.explicit([(0, 1)]), master_seed=2
            )
            means.append(np.mean([run_sir(g, cfg, r).ever_total for r in range(400)]))
        assert means[0] < means[1] < means[2]


class TestRetentionFrequency:
    def test_per_color_retention_matches_transmissibility(self):
        # star hubs: every leaf infection is exactly one edge transmission,
        # so the infected-leaf frequency estimates R_c per color
        n_leaves = 60
        intra0 = [(0, i) for i in range(1, n_leaves + 1)]
        inter = [(0, i) for i in range(n_leaves)]
        g = two_layer_graph(n_leaves + 1, n_leaves, intra0, [], inter)
        beta = (0.2, 0.0, 0.35)
        tau = 5
        cfg = SirConfig(rates=beta, tau=tau, seeds=SeedPolicy.explicit([(0, 0)]), master_seed=77)
        runs = 700
        got0 = got2 = 0
        for r in range(runs):
            s = run_sir(g, cfg, r)
            got0 += len(s.ever_infected[0]) - 1  # exclude the hub seed
            got2 += len(s.ever_infected[1])
        freq0 = got0 / (runs * n_leaves)
        freq2 = got2 / (runs * n_leaves)
        assert freq0 == pytest.approx(transmissibility(beta[0], tau), abs=0.01)
        assert freq2 == pytest.approx(transmissibility(beta[2], tau), abs=0.01)


class TestInfectionDensity:
    def test_seed_only(self):
        # layer-0 gcc is the 3-node path; a non-transmitting seed inside it
        g = two_layer_graph(5, 2, [(0, 1), (1, 2)], [(0, 1)], [(4, 0)])
        cfg = SirConfig(rates=(0.0, 0.0, 0.0), tau=2, seeds=SeedPolicy.explicit([(0, 1)]))
        s = run_sir(g, cfg, 0)
        d = infection_density(s, g)
        assert d.per_layer[0] == pytest.approx(1.0 / 3.0)
        assert not d.exceeds_gcc

    def test_full_transmission_connected_layer(self):
        g = two_layer_graph(4, 2, [(0, 1), (1, 2), (2, 3)], [(0, 1)], [])
        cfg = SirConfig(rates=(1.0, 1.0, 0.0), tau=5, seeds=SeedPolicy.explicit([(0, 0)]))
        s = run_sir(g, cfg, 0)
        d = infection_density(s, g)
        assert d.per_layer[0] == pytest.approx(1.0)

    def test_zero_gcc(self):
        g = two_layer_graph(3, 3, [(0, 1)], [], [(0, 0)])
        cfg = SirConfig(rates=(0.0, 0.0, 0.0), tau=1, seeds=SeedPolicy.explicit([(0, 0)]))
        s = run_sir(g, cfg, 0)
        with pytest.raises(ZeroGcc):
            infection_density(s, g)

    def test_cell_zero_gcc_before_any_realization(self, monkeypatch):
        # layer 1 has no intra-layer edge, so no realization can give it a density
        def fail(*args, **kwargs):
            raise AssertionError("a realization ran")

        monkeypatch.setattr(sir_module, "_final_counts", fail)
        g = two_layer_graph(3, 3, [(0, 1)], [], [(0, 0)])
        cfg = SirConfig(rates=(0.5, 0.5, 0.5), tau=1, seeds=SeedPolicy.explicit([(0, 0)]))
        with pytest.raises(ZeroGcc, match="^layer 1 has no edges; density undefined$"):
            mean_cell_densities(g, cfg, 0, structural_gcc_sizes(g))

    def test_uncapped_cell_builds_one_search_graph(self, monkeypatch):
        # its realizations rewrite one graph in place; each used to assemble
        # its own csr_matrix
        g = build_interdependent(
            [ErLayerSpec(300, 1.5), ErLayerSpec(300, 4.0)], {(0, 1): 1.0}, master_seed=2
        )
        gcc_sizes = structural_gcc_sizes(g)
        csr_matrix = sir_module.csr_matrix
        built = []

        def counted(*args, **kwargs):
            built.append(args)
            return csr_matrix(*args, **kwargs)

        monkeypatch.setattr(sir_module, "csr_matrix", counted)
        cfg = SirConfig(rates=(0.3, 0.3, 0.2), tau=5, seeds=SeedPolicy.in_layers([1, 1]),
                        realizations=5, master_seed=3)
        mean_cell_densities(g, cfg, 0, gcc_sizes)
        assert len(built) == 1

    def test_density_can_exceed_one(self):
        # two components in layer 0: gcc has 3 nodes, seeding both components
        # with certain transmission infects all 5
        g = two_layer_graph(5, 2, [(0, 1), (1, 2), (3, 4)], [(0, 1)], [])
        cfg = SirConfig(
            rates=(1.0, 0.0, 0.0), tau=5, seeds=SeedPolicy.explicit([(0, 0), (0, 3)])
        )
        s = run_sir(g, cfg, 0)
        d = infection_density(s, g)
        assert d.per_layer[0] == pytest.approx(5.0 / 3.0)
        assert d.exceeds_gcc


@pytest.fixture
def pool_recorder(monkeypatch):
    """The process counts asked of the pool, by a recorder in its place that
    maps in this process, so no process starts."""
    asked = []

    class Recorder:
        def __init__(self, max_workers, initializer, initargs):
            asked.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(sir_module, "ProcessPoolExecutor", Recorder)
    monkeypatch.setattr(sir_module, "_worker_context", ())
    return asked


class TestSweep:
    def graph(self):
        return two_layer_graph(
            6, 6,
            [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)],
            [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)],
            [(0, 0), (3, 3)],
        )

    def test_zero_cell_density_is_seed_scale(self):
        g = self.graph()
        whole, per = structural_gcc_sizes(g)
        cfg = SirConfig(
            rates=(0.0, 0.0, 0.0), tau=2, seeds=SeedPolicy.in_layers([1, 0]),
            realizations=4, master_seed=1,
        )
        sweep = sweep_heatmap(g, [0.0], [0.0], cfg)
        assert sweep.density_per_layer[0, 0, 0] == pytest.approx(1.0 / per[0])
        assert sweep.density_per_layer[0, 0, 1] == 0.0
        assert sweep.density_whole[0, 0] == pytest.approx(1.0 / whole)

    def test_deterministic_and_worker_independent(self):
        g = self.graph()
        cfg = SirConfig(
            rates=(0.0, 0.0, 0.0), tau=3, seeds=SeedPolicy.uniform(1),
            realizations=6, master_seed=123,
        )
        a = sweep_heatmap(g, [0.0, 0.4], [0.0, 0.5], cfg, workers=1)
        b = sweep_heatmap(g, [0.0, 0.4], [0.0, 0.5], cfg, workers=2)
        assert np.array_equal(a.density_per_layer, b.density_per_layer)
        assert np.array_equal(a.density_whole, b.density_whole)
        c = sweep_heatmap(g, [0.0, 0.4], [0.0, 0.5], cfg, workers=1)
        assert np.array_equal(a.density_whole, c.density_whole)

    def test_requires_two_layers(self):
        g = single_layer_graph(4, [(0, 1), (1, 2)])
        cfg = SirConfig(rates=(0.1,), tau=2, realizations=1)
        with pytest.raises(NotTwoLayers):
            sweep_heatmap(g, [0.1], [0.1], cfg)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_cells_come_back_in_cell_order(self, workers):
        # a 3 x 2 grid, so a transposed placement cannot pass
        g = build_interdependent(
            [ErLayerSpec(150, 2.0), ErLayerSpec(150, 3.0)], {(0, 1): 1.0}, master_seed=3
        )
        gcc = structural_gcc_sizes(g)
        betas, alphas = [0.05, 0.2, 0.6], [0.1, 0.5]
        cfg = SirConfig(
            rates=(0.0, 0.0, 0.0), tau=3, seeds=SeedPolicy.uniform(2),
            realizations=5, master_seed=21,
        )
        sweep = sweep_heatmap(g, betas, alphas, cfg, workers=workers)
        for i, beta in enumerate(betas):
            for j, alpha in enumerate(alphas):
                cell_cfg = replace(cfg, rates=(beta, beta, alpha))
                layers, whole = mean_cell_densities(g, cell_cfg, i * len(alphas) + j, gcc)
                assert np.array_equal(sweep.density_per_layer[i, j], layers)
                assert sweep.density_whole[i, j] == whole

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_raise(self, workers):
        cfg = SirConfig(rates=(0.0, 0.0, 0.0), tau=2, realizations=1)
        with pytest.raises(ValueError, match="workers must be at least 1"):
            sweep_heatmap(self.graph(), [0.1], [0.1], cfg, workers=workers)

    @pytest.mark.parametrize("workers", [2.5, 1.5, True, "2"])
    def test_workers_not_an_integer_raise(self, pool_recorder, workers):
        # three cells, so a pool would start; no task runs
        cfg = SirConfig(rates=(0.0, 0.0, 0.0), tau=2, realizations=1)
        with pytest.raises(ValueError, match="workers must be an integer"):
            sweep_heatmap(self.graph(), [0.1, 0.2, 0.3], [0.1], cfg, workers=workers)
        assert pool_recorder == []

    def test_pool_asks_for_at_most_one_process_per_cell(self, pool_recorder):
        g = self.graph()
        cfg = SirConfig(rates=(0.0, 0.0, 0.0), tau=2, realizations=3, master_seed=4)
        pooled = sweep_heatmap(g, [0.2, 0.6], [0.3], cfg, workers=8)
        assert pool_recorder == [2]
        serial = sweep_heatmap(g, [0.2, 0.6], [0.3], cfg, workers=1)
        assert np.array_equal(pooled.density_per_layer, serial.density_per_layer)
        assert np.array_equal(pooled.density_whole, serial.density_whole)
        sweep_heatmap(g, [0.2], [0.3], cfg, workers=8)
        sweep_heatmap(g, [], [0.3], cfg, workers=8)
        assert pool_recorder == [2]  # one cell or none runs in this process

    def test_default_workers_are_the_usable_cpus(self, pool_recorder, monkeypatch):
        monkeypatch.setattr(sir_module.os, "sched_getaffinity", lambda pid: {0, 1, 2},
                            raising=False)
        cfg = SirConfig(rates=(0.0, 0.0, 0.0), tau=2, realizations=2, master_seed=4)
        sweep_heatmap(self.graph(), [0.2, 0.6], [0.1, 0.3], cfg)
        sweep_heatmap(self.graph(), [0.2, 0.6], [0.3], cfg)
        assert pool_recorder == [3, 2]

    @pytest.mark.parametrize("betas, alphas", [([], []), ([0.1, 0.2], []), ([], [0.3])])
    def test_empty_grid_shapes(self, betas, alphas):
        cfg = SirConfig(rates=(0.0, 0.0, 0.0), tau=2, realizations=1)
        sweep = sweep_heatmap(self.graph(), betas, alphas, cfg)
        assert sweep.density_per_layer.shape == (len(betas), len(alphas), 2)
        assert sweep.density_whole.shape == (len(betas), len(alphas))
        assert sweep.density_per_layer.dtype == sweep.density_whole.dtype == np.float64

    def test_monotone_in_beta_on_average(self):
        g = self.graph()
        cfg = SirConfig(
            rates=(0.0, 0.0, 0.0), tau=3, seeds=SeedPolicy.uniform(1),
            realizations=60, master_seed=9,
        )
        sweep = sweep_heatmap(g, [0.0, 0.3, 0.9], [0.2], cfg)
        col = sweep.density_whole[:, 0]
        assert col[0] < col[1] < col[2]


class TestDynamics:
    def test_zero_setting_curve(self):
        g = chain_plus_layer2()
        cfg = SirConfig(
            rates=(0.0, 0.0, 0.0), tau=4, seeds=SeedPolicy.in_layers([1, 1]),
            realizations=3, master_seed=5,
        )
        result = dynamics(g, [(0.0, 0.0)], cfg)
        curve = result.infected[0]
        assert curve.shape == (5, 3)
        assert curve[:4, 2].tolist() == [2.0] * 4  # both seeds for tau steps
        assert curve[4, 2] == 0.0

    @pytest.mark.parametrize("max_steps", [None, 6])
    def test_equals_the_padded_mean_of_run_sir_series(self, max_steps):
        # the reference: every run's series, a finished run padded with its
        # final state, summed in float64 and divided; sums of counts are exact
        g = build_interdependent(
            [ErLayerSpec(300, 1.5), ErLayerSpec(300, 4.0)], {(0, 1): 1.0}, master_seed=2
        )
        cfg = SirConfig(rates=(0.0, 0.0, 0.0), tau=3, seeds=SeedPolicy.in_layers([1, 1]),
                        max_steps=max_steps, realizations=12, master_seed=9)
        settings = [(0.05, 0.05), (0.3, 0.1), (0.6, 0.6)]
        result = dynamics(g, settings, cfg)
        for k, (beta, alpha) in enumerate(settings):
            setting_cfg = replace(cfg, rates=(beta, beta, alpha))
            runs = [run_sir(g, setting_cfg, r, k) for r in range(cfg.realizations)]
            horizon = max(run.steps_run for run in runs) + 1
            infected, ever = np.zeros((horizon, 3)), np.zeros((horizon, 3))
            for run in runs:
                steps = run.steps_run + 1
                infected[:steps, :2] += run.per_step_infected
                infected[:steps, 2] += run.per_step_infected_total
                ever[:steps, :2] += run.per_step_ever
                ever[:steps, 2] += run.per_step_ever_total
                ever[steps:, :2] += run.per_step_ever[-1]
                ever[steps:, 2] += run.per_step_ever_total[-1]
            assert np.array_equal(result.infected[k], infected / cfg.realizations)
            assert np.array_equal(result.cumulative[k], ever / cfg.realizations)

    # sha256 of every setting's shape and little-endian float64 bytes, in
    # setting order, for the README's six settings on a weakly coupled pair;
    # computed with the Dijkstra first-passage sampler, so any change of
    # search keeps the series byte for byte
    DYNAMICS_SHA256 = {
        "infected": "549f1640b6537a2ae97a95965b7a2404ab03edfaa1cab24933dab7d75241b525",
        "cumulative": "8b221370589e7d87240f0dea16f89d2dcc1ecc0648be884920d04dece250243f",
    }

    def test_series_bytes_are_pinned(self):
        g = build_interdependent(
            [ErLayerSpec(2000, 1.5), ErLayerSpec(2000, 6.0)], {(0, 1): 0.1}, master_seed=11
        )
        cfg = SirConfig(rates=(0.0, 0.0, 0.0), tau=5, seeds=SeedPolicy.in_layers([1, 1]),
                        realizations=10, master_seed=42001)
        settings = [(0.05, 0.05), (0.05, 0.3), (0.3, 0.05), (0.3, 0.3), (0.6, 0.05), (0.6, 0.3)]
        result = dynamics(g, settings, cfg, workers=1)
        digests = {}
        for name in self.DYNAMICS_SHA256:
            h = hashlib.sha256()
            for table in getattr(result, name):
                h.update(np.asarray(table.shape, "<i8").tobytes())
                h.update(table.astype("<f8").tobytes())
            digests[name] = h.hexdigest()
        assert digests == self.DYNAMICS_SHA256

    SETTINGS = [(0.05, 0.05), (0.3, 0.1), (0.6, 0.6)]

    @staticmethod
    def pool_graph():
        return build_interdependent(
            [ErLayerSpec(300, 1.5), ErLayerSpec(300, 4.0)], {(0, 1): 1.0}, master_seed=2
        )

    def test_worker_independent(self):
        g = self.pool_graph()
        cfg = SirConfig(rates=(0.0, 0.0, 0.0), tau=3, seeds=SeedPolicy.in_layers([1, 1]),
                        realizations=6, master_seed=9)
        serial = dynamics(g, self.SETTINGS, cfg, workers=1)
        for workers in (2, None):
            pooled = dynamics(g, self.SETTINGS, cfg, workers=workers)
            assert pooled.settings == serial.settings
            for a, b in zip(pooled.infected + pooled.cumulative,
                            serial.infected + serial.cumulative):
                assert np.array_equal(a, b)

    def test_pool_asks_for_at_most_one_process_per_setting(self, pool_recorder, monkeypatch):
        g = self.pool_graph()
        cfg = SirConfig(rates=(0.0, 0.0, 0.0), tau=3, seeds=SeedPolicy.in_layers([1, 1]),
                        realizations=3, master_seed=9)
        dynamics(g, self.SETTINGS, cfg, workers=8)
        dynamics(g, self.SETTINGS, cfg, workers=2)
        assert pool_recorder == [3, 2]
        dynamics(g, self.SETTINGS, cfg, workers=1)
        dynamics(g, self.SETTINGS[:1], cfg, workers=8)
        dynamics(g, [], cfg, workers=8)
        assert pool_recorder == [3, 2]  # one setting or none runs in this process
        monkeypatch.setattr(sir_module.os, "sched_getaffinity", lambda pid: {0, 1, 2},
                            raising=False)
        dynamics(g, self.SETTINGS * 2, cfg)
        dynamics(g, self.SETTINGS[:2], cfg)
        assert pool_recorder == [3, 2, 3, 2]  # by default min(usable CPUs, settings)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_raise(self, workers):
        cfg = SirConfig(rates=(0.0, 0.0, 0.0), tau=2, realizations=1)
        with pytest.raises(ValueError, match="workers must be at least 1"):
            dynamics(chain_plus_layer2(), [(0.1, 0.1)], cfg, workers=workers)

    @pytest.mark.parametrize("workers", [2.5, 1.5, True, "2"])
    def test_workers_not_an_integer_raise(self, pool_recorder, workers):
        cfg = SirConfig(rates=(0.0, 0.0, 0.0), tau=2, realizations=1)
        with pytest.raises(ValueError, match="workers must be an integer"):
            dynamics(chain_plus_layer2(), [(0.1, 0.1)] * 3, cfg, workers=workers)
        assert pool_recorder == []

    def test_integral_identity(self):
        g = chain_plus_layer2()
        cfg = SirConfig(
            rates=(0.0, 0.0, 0.0), tau=3, seeds=SeedPolicy.uniform(1),
            realizations=8, master_seed=4,
        )
        result = dynamics(g, [(0.5, 0.2)], cfg)
        curve = result.infected[0]
        cumulative = result.cumulative[0]
        # integral of the mean infected curve = tau * mean ever-infected
        assert curve[:, 2].sum() == pytest.approx(3 * cumulative[-1, 2])

    def test_cumulative_monotone(self):
        g = chain_plus_layer2()
        cfg = SirConfig(
            rates=(0.0, 0.0, 0.0), tau=3, seeds=SeedPolicy.uniform(1),
            realizations=5, master_seed=6,
        )
        result = dynamics(g, [(0.4, 0.4), (0.8, 0.8)], cfg)
        for table in result.cumulative:
            assert (np.diff(table[:, 2]) >= -1e-12).all()

    def test_mixed_state_signature(self):
        # weak coupling, dense layer seeded: the dense layer peaks while the
        # sparse layer stays near zero when beta sits between the thresholds
        from interepi import ErLayerSpec, build_interdependent

        layers = [ErLayerSpec(1500, 1.5), ErLayerSpec(1500, 6.0)]
        g = build_interdependent(layers, {(0, 1): 0.1}, master_seed=3)
        cfg = SirConfig(
            rates=(0.0, 0.0, 0.0), tau=5, seeds=SeedPolicy.in_layers([0, 1]),
            realizations=10, master_seed=8,
        )
        result = dynamics(g, [(0.1, 0.05)], cfg)
        curve = result.infected[0]
        dense_peak = curve[:, 1].max()
        sparse_peak = curve[:, 0].max()
        assert dense_peak > 100  # dense layer takes off
        assert sparse_peak < dense_peak / 10  # sparse layer stays marginal


@pytest.fixture
def pool_tasks(pool_recorder, monkeypatch):
    """The tasks the recorded pool maps, in the order it receives them."""
    seen = []
    run = sir_module._worker_task

    def record(task):
        seen.append(task)
        return run(task)

    monkeypatch.setattr(sir_module, "_worker_task", record)
    return seen


RUN_CONFIG = """
network.source = generate
layer.0.type = er
layer.0.n = 100
layer.0.mean_degree = 1.5
layer.1.type = er
layer.1.n = 100
layer.1.mean_degree = 4.0
inter.0.1.mean_degree = 1.0
analysis.tau = 3
analysis.grid_step = 0.1
sim.realizations = 2
master_seed = 5
"""


class TestOnePool:
    """A run's sweep cells and dynamics settings are the tasks of one pool,
    which starts the settings first."""

    BETAS, ALPHAS = [0.05, 0.6, 0.2], [0.1, 0.5]
    SETTINGS = [(0.2, 0.1), (0.6, 0.5), (0.0, 0.3)]

    @staticmethod
    def cfg():
        return SirConfig(rates=(0.0, 0.0, 0.0), tau=3, seeds=SeedPolicy.in_layers([1, 1]),
                         realizations=3, master_seed=9)

    def test_pool_receives_the_settings_then_the_cells(self, pool_tasks):
        cfg = self.cfg()
        sweep_and_dynamics(TestDynamics.pool_graph(), cfg, self.BETAS, self.ALPHAS,
                           self.SETTINGS, workers=2)
        assert [(fn, c, index) for fn, c, index, *_ in pool_tasks] == [
            *[(_setting_counts, replace(cfg, rates=(b, b, a)), k)
              for k, (b, a) in enumerate(self.SETTINGS)],
            *[(mean_cell_densities, replace(cfg, rates=(beta, beta, alpha)), i * 2 + j)
              for i, beta in enumerate(self.BETAS)
              for j, alpha in enumerate(self.ALPHAS)],  # cell (i, j) is index i * 2 + j
        ]

    def test_results_equal_the_serial_stages_for_any_worker_count(self):
        g = TestDynamics.pool_graph()
        cfg = self.cfg()
        serial_sweep = sweep_heatmap(g, self.BETAS, self.ALPHAS, cfg, workers=1)
        serial_dyn = dynamics(g, self.SETTINGS, cfg, workers=1)
        for workers in (1, 2, None):
            both = sweep_and_dynamics(g, cfg, self.BETAS, self.ALPHAS, self.SETTINGS, workers)
            for sweep in (both[0], sweep_heatmap(g, self.BETAS, self.ALPHAS, cfg, workers)):
                assert np.array_equal(sweep.density_per_layer, serial_sweep.density_per_layer)
                assert np.array_equal(sweep.density_whole, serial_sweep.density_whole)
            for dyn in (both[1], dynamics(g, self.SETTINGS, cfg, workers)):
                assert dyn.settings == serial_dyn.settings
                for a, b in zip(dyn.infected + dyn.cumulative,
                                serial_dyn.infected + serial_dyn.cumulative):
                    assert np.array_equal(a, b)

    @pytest.mark.parametrize("workers, asked", [(16, [8]), (3, [3]), (None, [3])])
    def test_run_starts_one_pool(self, pool_recorder, monkeypatch, tmp_path, workers, asked):
        monkeypatch.setattr(sir_module.os, "sched_getaffinity", lambda pid: {0, 1, 2},
                            raising=False)
        cfg = parse_config_text(RUN_CONFIG + "sweep.beta = 0:0.4:0.2\nsweep.alpha = 0.1:0.3:0.2\n"
                                "dynamics.settings = 0.1:0.05 0.3:0.3\n")
        outputs = run_experiment(cfg, out_dir=str(tmp_path), workers=workers)
        assert pool_recorder == asked  # min(workers, 6 cells + 2 settings)
        assert {"sweep", "dynamics"} <= set(outputs)

    @pytest.mark.parametrize("stages", ["sweep.beta = 0.2:0.2:0.1\nsweep.alpha = 0.1:0.1:0.1\n",
                                        "dynamics.settings = 0.3:0.3\n"], ids=["cell", "setting"])
    def test_run_with_one_task_starts_no_pool(self, pool_recorder, tmp_path, stages):
        run_experiment(parse_config_text(RUN_CONFIG + stages), out_dir=str(tmp_path), workers=8)
        assert pool_recorder == []
