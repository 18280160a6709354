import re
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import chisquare

from interepi import (
    ErLayerSpec,
    NotTwoLayers,
    SeedPolicy,
    SirConfig,
    ZeroGcc,
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
    _edge_law,
    _final_counts,
    _setting_counts,
    mean_cell_densities,
    sweep_and_dynamics,
)
from oracles import (
    chain_plus_layer2,
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
            law = _edge_law(g, cfg)
            for cell in (0, 3):
                for r in range(25):
                    assert _final_counts(g, cfg, law, r, cell) == run_sir(g, cfg, r, cell).ever_counts

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
