"""End-to-end acceptance checks.

Each test prints one `[acceptance] NN <name>: PASS/FAIL` line (run with
``pytest -s tests/test_acceptance.py`` to see them as they go).
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.integrate import quad

import interepi as ie
from oracles import (
    cardano_radius_3x3,
    color_table,
    dominates,
    epidemic_indicator,
    er_color,
    er_set,
    exhaustive_frontier,
    powerlaw_color,
    quiet_layer_density_bound,
)


@contextmanager
def criterion(number, name):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"[acceptance] {number:02d} {name}: FAIL ({time.time() - start:.1f}s)")
        raise
    print(f"[acceptance] {number:02d} {name}: PASS ({time.time() - start:.1f}s)")


def random_moment_set(rng):
    """Physically realizable two-layer moments from random discrete degree
    distributions on 0..8."""

    def color(pop):
        weights = rng.random(9) + 0.01
        ks = np.arange(9, dtype=float)
        p = weights / weights.sum()
        mean = float((ks * p).sum())
        second = float((ks * ks * p).sum())
        return mean, second, pop

    n1 = int(rng.integers(50, 500))
    n2 = int(rng.integers(50, 500))
    return color_table([color(n1), color(n2), color(n1 + n2)], (n1, n2)), (n1, n2)


@pytest.fixture(scope="module")
def er_strong_graph():
    layers = [ie.ErLayerSpec(5000, 1.5), ie.ErLayerSpec(5000, 6.0)]
    g = ie.build_interdependent(layers, {(0, 1): 1.5}, master_seed=42)
    return g, ie.structural_gcc_sizes(g)


@pytest.fixture(scope="module")
def er_weak_graph():
    layers = [ie.ErLayerSpec(5000, 1.5), ie.ErLayerSpec(5000, 6.0)]
    g = ie.build_interdependent(layers, {(0, 1): 0.1}, master_seed=42)
    return g, ie.structural_gcc_sizes(g)


def mean_densities(g, gcc, rates, realizations, master_seed, cell_index=0):
    cfg = ie.SirConfig(
        rates=rates, tau=5, seeds=ie.SeedPolicy.in_layers([1, 1]),
        realizations=realizations, master_seed=master_seed,
    )
    layers = np.zeros(2)
    whole = 0.0
    for r in range(realizations):
        summary = ie.run_sir(g, cfg, realization_index=r, cell_index=cell_index)
        dens = ie.infection_density(summary, g, gcc)
        layers += np.asarray(dens.per_layer)
        whole += dens.whole
    return layers / realizations, whole / realizations


def test_01_closed_form_formulas():
    with criterion(1, "transmissibility-and-threshold-formulas"):
        assert ie.transmissibility(0.2, 5) == pytest.approx(0.67232, abs=1e-12)
        # 1 - (5/6)^(1/5); 50-digit reference 0.035807495997372799086
        res = ie.single_layer_threshold(7.0, 5)
        assert res.beta == pytest.approx(1.0 - (5.0 / 6.0) ** 0.2, abs=1e-12)
        assert res.beta == pytest.approx(0.0358074959973728, abs=1e-12)


def test_02_er_moment_identity():
    with criterion(2, "er-moment-identity"):
        start = time.time()
        for mean in (1.5, 6.0):
            errors = []
            for seed in range(20):
                pairs = ie.gen_er_layer(5000, mean, ie.child_rng(seed, 0))
                deg = np.bincount(pairs.ravel(), minlength=5000).astype(float)
                m1, m2 = deg.mean(), (deg**2).mean()
                ratio = (m2 - m1) / m1
                errors.append(abs(ratio - m1) / m1)
            assert np.mean(errors) <= 0.1
        assert time.time() - start < 10.0


def test_03_powerlaw_moments_vs_quadrature():
    with criterion(3, "powerlaw-moments-quadrature"):
        for gamma in (2.9, 2.1):
            spec = ie.PowerLawSpec(gamma=gamma, y_min=1, n=1500)
            c = spec.normalization
            mean_q, _ = quad(
                lambda y: y * c * y**-gamma, spec.y_min, spec.y_max,
                epsabs=1e-13, epsrel=1e-13,
            )
            second_q, _ = quad(
                lambda y: y * y * c * y**-gamma, spec.y_min, spec.y_max,
                epsabs=1e-13, epsrel=1e-13,
            )
            mean, ratio = ie.powerlaw_moments(spec)
            assert mean == pytest.approx(mean_q, abs=1e-9)
            assert ratio == pytest.approx((second_q - mean_q) / mean_q, abs=1e-9)


def test_04_jacobian_spectral_oracle():
    with criterion(4, "jacobian-spectral-oracle"):
        m, _ = er_set(1.5, 6.0, 1.5)
        jac = ie.jacobian_closed_form(
            m, (5000, 5000), ie.Transmissibilities((1.0, 1.0, 1.0))
        )
        # equal ER layers lump the four types to [[a, c], [c, b]] with a = 1.5,
        # b = 6.0, c = 1.5: (a+b)/2 + sqrt(((a-b)/2)^2 + c^2) = 6.4541634566
        assert ie.spectral_radius(jac) == pytest.approx(6.4541634566, abs=1e-10)
        rng = np.random.default_rng(404)
        worst = 0.0
        for _ in range(1000):
            a = rng.random((3, 3))
            worst = max(worst, abs(ie.spectral_radius(a) - cardano_radius_3x3(a)))
        assert worst < 1e-8


def test_05_monotonicity_and_frontier_properties():
    with criterion(5, "monotonicity-and-frontier"):
        start = time.time()
        rng = np.random.default_rng(55)

        # theta non-decreasing in every rate component, 200 random moment sets
        for _ in range(200):
            m, sizes = random_moment_set(rng)
            lo = tuple(rng.random(3))
            hi = tuple(min(1.0, r + d) for r, d in zip(lo, rng.random(3)))
            theta_lo, _ = epidemic_indicator(m, sizes, lo, 5)
            theta_hi, _ = epidemic_indicator(m, sizes, hi, 5)
            assert theta_lo <= theta_hi + 1e-9

        # frontier antichain + one-step-down minimality, 12 moment sets
        step = 0.05
        frontier_sets = []
        for _ in range(12):
            m, sizes = random_moment_set(rng)
            front = ie.multi_threshold(m, sizes, tau=5, grid_step=step)
            frontier_sets.append((m, sizes, front))
            pts = front.points
            for i, p in enumerate(pts):
                for j, q in enumerate(pts):
                    if i != j:
                        assert not dominates(p, q)
            for p in pts:
                for axis in range(3):
                    if p[axis] == 0.0:
                        continue
                    down = list(p)
                    down[axis] = round(down[axis] - step, 12)
                    _, epidemic = epidemic_indicator(m, sizes, tuple(down), 5)
                    assert not epidemic

        # fast monotone search equals the exhaustive grid-scan oracle
        for m, sizes, front in frontier_sets[:6]:
            def theta_fn(rates, m=m, sizes=sizes):
                return epidemic_indicator(m, sizes, rates, 5)[0]

            assert set(front.points) == exhaustive_frontier(theta_fn, 3, step)

        assert time.time() - start < 60.0


def test_06_boundary_agreement_er_strong(er_strong_graph):
    with criterion(6, "analytic-simulation-boundary-agreement"):
        g, gcc = er_strong_graph
        m, _ = er_set(1.5, 6.0, 1.5)
        front = ie.multi_threshold(m, (5000, 5000), tau=5, grid_step=0.0025, tie_intra=True)
        pts = front.points
        assert len(pts) >= 10
        idx = np.round(np.linspace(0.5, len(pts) - 1.5, 10)).astype(int)
        assert len(set(idx.tolist())) == 10
        chosen = [pts[i] for i in idx]

        above = [
            mean_densities(g, gcc, tuple(min(1.0, 1.3 * x) for x in p), 30, 5, 100 + i)[1]
            for i, p in enumerate(chosen)
        ]
        below = [
            mean_densities(g, gcc, tuple(0.7 * x for x in p), 30, 5, 200 + i)[1]
            for i, p in enumerate(chosen)
        ]
        assert sum(d > 0.1 for d in above) >= 8
        assert sum(d < 0.02 for d in below) >= 8


def test_07_mixed_state_reproduction(er_weak_graph):
    """Weak coupling: the dense layer is epidemic, the sparse one has no
    outbreak of its own.

    beta is the midpoint of the two layers' own thresholds on this graph,
    where the model predicts the mixed state; alpha = 0.05. The sparse layer
    still receives about R(alpha) * 500 cross-layer transmissions, each
    starting a finite outbreak, so its mean density is checked against
    ``quiet_layer_density_bound`` B plus three standard errors of the mean
    over the 30 realizations: B bounds the expectation, so the one-sided
    false-alarm rate is at most 0.13% under the normal approximation. At
    (0.30, 0.30, 0.05) beta exceeds the sparse layer's threshold, the model
    predicts an epidemic, and that layer's density must exceed B.
    """
    with criterion(7, "mixed-state-reproduction"):
        g, gcc = er_weak_graph
        tau, alpha, realizations = 5, 0.05, 30
        beta = 0.5 * sum(
            ie.single_layer_threshold(ie.kappa(g, layer), tau).beta for layer in (0, 1)
        )
        mixed_rates, epidemic_rates = (beta, beta, alpha), (0.30, 0.30, alpha)
        table, _ = er_set(1.5, 6.0, 0.1)
        assert ie.classify_state(table, mixed_rates, tau) is ie.NetworkState.MIXED
        assert ie.classify_state(table, epidemic_rates, tau) is ie.NetworkState.EPIDEMIC

        def layer_densities(rates):
            cfg = ie.SirConfig(
                rates=rates, tau=tau, seeds=ie.SeedPolicy.in_layers([0, 1]),
                realizations=realizations, master_seed=11,
            )
            runs = (ie.run_sir(g, cfg, realization_index=r) for r in range(realizations))
            return np.array([ie.infection_density(s, g, gcc).per_layer for s in runs])

        bound = quiet_layer_density_bound(g, 0, beta, alpha, tau)
        mixed = layer_densities(mixed_rates)
        mean1, mean2 = mixed.mean(axis=0)
        se1 = mixed[:, 0].std(ddof=1) / np.sqrt(realizations)
        report = (
            f"beta={beta:.4f}, B={bound:.4f}, SE={se1:.4f}, "
            f"layer 1: {mean1:.4f}, layer 2: {mean2:.4f}"
        )
        assert mean2 > 0.3, f"layer-2 density not > 0.3 ({report})"
        assert mean1 <= bound + 3.0 * se1, f"layer-1 density not <= B + 3 SE ({report})"

        old1, old2 = layer_densities(epidemic_rates).mean(axis=0)
        assert old1 > bound, (
            f"layer-1 density {old1:.4f} not > B={bound:.4f} at beta=0.30 "
            f"(layer 2: {old2:.4f})"
        )


def test_08_scale_free_near_zero_threshold():
    with criterion(8, "scale-free-near-zero-threshold"):
        sf1 = ie.PowerLawSpec(gamma=2.9, y_min=1, n=1500)
        sf2 = ie.PowerLawSpec(gamma=2.1, y_min=1, n=1500)
        m = color_table([
            powerlaw_color(sf1, 1500),
            powerlaw_color(sf2, 1500),
            er_color(6.0, 3000),
        ], (1500, 1500))
        front = ie.multi_threshold(m, (1500, 1500), tau=5, grid_step=0.005, tie_intra=True)
        assert len(front) > 0
        assert all(p[0] <= 0.05 and p[2] <= 0.05 for p in front.points)

        g = ie.build_interdependent([sf1, sf2], {(0, 1): 6.0}, master_seed=42)
        gcc = ie.structural_gcc_sizes(g)
        _, whole = mean_densities(g, gcc, (0.05, 0.05, 0.05), 30, 9)
        assert whole > 0.3


def test_09_two_node_transmissibility_monte_carlo():
    with criterion(9, "two-node-transmissibility-monte-carlo"):
        g = ie.build_graph([2], [((0, 0), (0, 1), 0)])
        cfg = ie.SirConfig(
            rates=(0.2,), tau=5, seeds=ie.SeedPolicy.explicit([(0, 0)]), master_seed=7
        )
        runs = 100_000
        hits = sum(
            len(ie.run_sir(g, cfg, realization_index=r).ever_infected[0]) == 2
            for r in range(runs)
        )
        assert hits / runs == pytest.approx(0.67232, abs=0.005)


EXPERIMENT_CONFIG = """
network.source = generate
layer.0.type = er
layer.0.n = 200
layer.0.mean_degree = 1.5
layer.1.type = er
layer.1.n = 200
layer.1.mean_degree = 5.0
inter.0.1.mean_degree = 1.0
analysis.tau = 5
analysis.grid_step = 0.05
analysis.tie_intra = true
sim.realizations = 5
sim.seed_placement = per-layer
sim.seeds_per_layer = 1 1
sweep.beta = 0:0.4:0.2
sweep.alpha = 0:0.4:0.2
dynamics.settings = 0.1:0.05 0.3:0.3
master_seed = 42
"""


def test_10_determinism(tmp_path):
    with criterion(10, "determinism"):
        cfg1 = ie.parse_config_text(EXPERIMENT_CONFIG)
        out1 = ie.run_experiment(cfg1, out_dir=str(tmp_path / "a"))
        cfg2 = ie.parse_config_text(EXPERIMENT_CONFIG)
        out2 = ie.run_experiment(cfg2, out_dir=str(tmp_path / "b"))
        for name in ("frontier", "sweep", "dynamics", "dynamics_cumulative", "manifest"):
            with open(out1[name], "rb") as fa, open(out2[name], "rb") as fb:
                assert fa.read() == fb.read(), f"{name} not byte-identical"

        layers = [ie.ErLayerSpec(200, 1.5), ie.ErLayerSpec(200, 5.0)]
        g = ie.build_interdependent(layers, {(0, 1): 1.0}, master_seed=1)
        cfg = ie.SirConfig(
            rates=(0.0, 0.0, 0.0), tau=5, seeds=ie.SeedPolicy.uniform(1),
            realizations=4, master_seed=3,
        )
        seq = ie.sweep_heatmap(g, [0.0, 0.3], [0.0, 0.3], cfg, workers=1)
        par = ie.sweep_heatmap(g, [0.0, 0.3], [0.0, 0.3], cfg, workers=2)
        assert np.array_equal(seq.density_per_layer, par.density_per_layer)
        assert np.array_equal(seq.density_whole, par.density_whole)
