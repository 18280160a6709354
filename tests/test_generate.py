import hashlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from interepi import (
    DuplicateEdge,
    ErLayerSpec,
    MeanDegreeTooLarge,
    PowerLawSpec,
    WiringFailed,
    build_interdependent,
    child_rng,
    colored_cross_moments,
    gen_er_interlayer,
    gen_er_layer,
    gen_powerlaw_layer,
    graphs_equal,
    parse_config,
    powerlaw_moments,
    sample_powerlaw_degrees,
)
from interepi.generate import _wire_simple
from oracles import sequential_er_interlayer, sequential_er_layer


class TestErLayer:
    def test_edge_count(self):
        pairs = gen_er_layer(10000, 6.0, child_rng(0, 0))
        assert len(pairs) == 30000  # m = n * mean / 2

    def test_zero_mean(self):
        assert len(gen_er_layer(10, 0.0, child_rng(0, 0))) == 0

    def test_pairs_distinct_no_loops(self):
        pairs = gen_er_layer(50, 10.0, child_rng(1, 0))
        assert all(a < b for a, b in pairs.tolist())
        keys = {a * 50 + b for a, b in pairs.tolist()}
        assert len(keys) == len(pairs)

    def test_mean_degree_too_large(self):
        with pytest.raises(MeanDegreeTooLarge):
            gen_er_layer(10, 20.0, child_rng(0, 0))

    def test_reproducible(self):
        a = gen_er_layer(500, 4.0, child_rng(7, 1))
        b = gen_er_layer(500, 4.0, child_rng(7, 1))
        assert np.array_equal(a, b)

    def test_kappa_poisson_over_seeds(self):
        # Poisson identity kappa = mean + 1, averaged over 20 seeds
        values = []
        for seed in range(20):
            pairs = gen_er_layer(2000, 1.5, child_rng(seed, 0))
            deg = np.bincount(pairs.ravel(), minlength=2000).astype(float)
            values.append((deg**2).sum() / deg.sum())
        assert np.mean(values) == pytest.approx(2.5, rel=0.10)

    def test_poisson_moment_identity(self):
        pairs = gen_er_layer(2000, 6.0, child_rng(2, 0))
        deg = np.bincount(pairs.ravel(), minlength=2000).astype(float)
        mean, second = deg.mean(), (deg**2).mean()
        assert (second - mean) / mean == pytest.approx(mean, rel=0.10)


class TestErInterlayer:
    def test_strong_coupling_count(self):
        pairs = gen_er_interlayer(10000, 10000, 1.5, child_rng(0, 0))
        assert len(pairs) == 15000

    def test_weak_coupling_count(self):
        pairs = gen_er_interlayer(10000, 10000, 0.1, child_rng(0, 0))
        assert len(pairs) == 1000

    def test_zero_mean(self):
        assert len(gen_er_interlayer(10, 10, 0.0, child_rng(0, 0))) == 0

    def test_bounds(self):
        pairs = gen_er_interlayer(10, 20, 5.0, child_rng(3, 0))
        assert pairs[:, 0].max() < 10
        assert pairs[:, 1].max() < 20

    def test_too_dense(self):
        with pytest.raises(MeanDegreeTooLarge):
            gen_er_interlayer(3, 3, 10.0, child_rng(0, 0))


LAYER_CASES = [
    (n, mean, seed)
    for n in (2, 10, 500, 3000)
    for mean in (0.0, 0.7, 1.5, 6.0)
    for seed in (0, 1, 2)
    if round(n * mean / 2) <= n * (n - 1) // 2
] + [(7, 6.0, seed) for seed in range(5)] + [  # complete: all 21 pairs
    (2**31 - 1, 2 * m / (2**31 - 1), m) for m in (1, 2, 3)  # m edges at the top of int32
]

INTER_CASES = [
    (n1, n2, mean, seed)
    for n1, n2 in ((1, 1), (10, 7), (500, 300), (3000, 3000))
    for mean in (0.0, 0.1, 1.5, 4.0)
    for seed in (0, 1, 2)
    if round(mean * (n1 + n2) / 2) <= n1 * n2
] + [(4, 4, 4.0, seed) for seed in range(5)] + [(3, 5, 3.75, seed) for seed in range(5)] + [  # complete
    (2**31 - 1, 3, 2 * m / (2**31 + 2), m) for m in (1, 2, 3)  # m edges at the top of int32
]


class TestErAgainstSequential:
    """The vectorized generators return the sequential loops' arrays exactly."""

    @pytest.mark.parametrize("n,mean,seed", LAYER_CASES)
    def test_layer(self, n, mean, seed):
        got = gen_er_layer(n, mean, child_rng(seed, 0))
        want = sequential_er_layer(n, mean, child_rng(seed, 0))
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("n1,n2,mean,seed", INTER_CASES)
    def test_interlayer(self, n1, n2, mean, seed):
        got = gen_er_interlayer(n1, n2, mean, child_rng(seed, 1))
        want = sequential_er_interlayer(n1, n2, mean, child_rng(seed, 1))
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)

    def test_complete_cases_are_complete(self):
        assert len(gen_er_layer(7, 6.0, child_rng(0, 0))) == 21
        assert len(gen_er_interlayer(4, 4, 4.0, child_rng(0, 0))) == 16
        assert len(gen_er_interlayer(3, 5, 3.75, child_rng(0, 0))) == 15

    def test_top_of_range_cases_ask_for_their_edges(self):
        top = [case for case in LAYER_CASES if case[0] == 2**31 - 1]
        assert [round(n * mean / 2) for n, mean, _ in top] == [1, 2, 3]
        top = [case for case in INTER_CASES if case[0] == 2**31 - 1]
        assert [round(mean * (n1 + n2) / 2) for n1, n2, mean, _ in top] == [1, 2, 3]


class TestIndexRange:
    """Pairs are drawn as int32, so a side of 2**31 nodes is refused before
    any draw, in the words canonical_ends refuses such a graph with."""

    def test_layer(self):
        rng = child_rng(0, 0)
        with pytest.raises(ValueError, match="2147483648 nodes exceed the int32 index range"):
            gen_er_layer(2**31, 2 / 2**31, rng)
        assert rng.bit_generator.state == child_rng(0, 0).bit_generator.state

    @pytest.mark.parametrize("n1,n2", [(2**31, 1), (1, 2**31)])
    def test_interlayer(self, n1, n2):
        rng = child_rng(0, 1)
        with pytest.raises(ValueError, match="2147483648 nodes exceed the int32 index range"):
            gen_er_interlayer(n1, n2, 2 / (2**31 + 1), rng)
        assert rng.bit_generator.state == child_rng(0, 1).bit_generator.state


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 120), st.floats(0, 1), st.integers(0, 2**32 - 1))
def test_er_layer_simple_in_range_exact_size(n, fill, seed):
    mean = fill * (n - 1)
    pairs = gen_er_layer(n, mean, seed)
    assert pairs.shape == (round(n * mean / 2), 2)
    assert ((0 <= pairs[:, 0]) & (pairs[:, 0] < pairs[:, 1]) & (pairs[:, 1] < n)).all()
    assert len(np.unique(pairs[:, 0] * n + pairs[:, 1])) == len(pairs)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 80), st.integers(1, 80), st.floats(0, 1), st.integers(0, 2**32 - 1))
def test_er_interlayer_simple_in_range_exact_size(n1, n2, fill, seed):
    mean = fill * 2 * n1 * n2 / (n1 + n2)
    pairs = gen_er_interlayer(n1, n2, mean, seed)
    assert pairs.shape == (round(mean * (n1 + n2) / 2), 2)
    assert ((0 <= pairs) & (pairs < (n1, n2))).all()
    assert len(np.unique(pairs[:, 0] * n2 + pairs[:, 1])) == len(pairs)


class TestPowerLawSpec:
    def test_natural_cutoff_gamma_29(self):
        # floor(1 * 1500^(1/1.9)) = floor(46.949) = 46
        assert PowerLawSpec(gamma=2.9, y_min=1, n=1500).y_max == 46

    def test_natural_cutoff_gamma_21(self):
        # floor(1 * 1500^(1/1.1)) = floor(771.535) = 771
        assert PowerLawSpec(gamma=2.1, y_min=1, n=1500).y_max == 771

    def test_normalization_constant(self):
        spec = PowerLawSpec(gamma=2.5, y_min=2, n=100)
        assert spec.normalization == pytest.approx(1.5 * 2**1.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            PowerLawSpec(gamma=1.0, y_min=1, n=10)
        with pytest.raises(ValueError):
            PowerLawSpec(gamma=2.5, y_min=0, n=10)


class TestPowerLawSampling:
    def test_within_cutoff_and_even(self):
        spec = PowerLawSpec(gamma=2.1, y_min=1, n=1500)
        deg = sample_powerlaw_degrees(spec, child_rng(0, 0))
        assert deg.min() >= 1
        assert deg.max() <= spec.y_max  # nobody above the natural cutoff
        assert deg.sum() % 2 == 0

    @pytest.mark.parametrize("y_min,n", [(1, 4), (2, 3)])
    def test_point_mass_with_an_even_sum(self, y_min, n):
        # y_max = y_min at gamma = 50; an odd y_min on odd n has no even sum
        # (test_io_cli's power-law exit 4 test, in a child process)
        spec = PowerLawSpec(gamma=50.0, y_min=y_min, n=n)
        assert spec.y_max == y_min
        assert sample_powerlaw_degrees(spec, child_rng(0, 0)).tolist() == [y_min] * n

    @pytest.mark.parametrize("gamma", [2.9, 2.1])
    def test_empirical_mean_near_analytic(self, gamma):
        spec = PowerLawSpec(gamma=gamma, y_min=1, n=1500)
        analytic_mean, _ = powerlaw_moments(spec)
        for seed in range(5):
            deg = sample_powerlaw_degrees(spec, child_rng(seed, 0))
            assert deg.mean() == pytest.approx(analytic_mean, rel=0.15)

    def test_wiring_preserves_degrees(self):
        spec = PowerLawSpec(gamma=2.5, y_min=1, n=400)
        rng = child_rng(5, 0)
        deg = sample_powerlaw_degrees(spec, rng)
        pairs = _wire_simple(deg.copy(), rng)
        realized = np.bincount(pairs.ravel(), minlength=spec.n)
        assert np.array_equal(realized, deg)

    def test_wiring_simple(self):
        spec = PowerLawSpec(gamma=2.1, y_min=1, n=1500)
        pairs = gen_powerlaw_layer(spec, child_rng(1, 0))
        assert all(a != b for a, b in pairs.tolist())
        keys = {a * spec.n + b for a, b in pairs.tolist()}
        assert len(keys) == len(pairs)

    # _wire_simple accepts as swap partner any edge whose key is in `seen`,
    # including a duplicate, whose swap evicts the good edge it duplicates.
    # The fix (`seen.get(edge_key(j)) != j`) makes sf-desk seed 1 build, and
    # perfbench's run-sf-desk test relies on that seed failing, so both
    # change together with the benchmark.
    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="duplicate-edge wiring defect")
    def test_wiring_simple_at_scale(self):
        spec = PowerLawSpec(gamma=2.1, y_min=1, n=20000)
        for seed in range(3):
            pairs = gen_powerlaw_layer(spec, seed)
            assert (pairs[:, 0] < pairs[:, 1]).all()
            assert len(np.unique(pairs[:, 0] * spec.n + pairs[:, 1])) == len(pairs)

    @pytest.mark.xfail(strict=True, raises=DuplicateEdge, reason="duplicate-edge wiring defect")
    def test_sf_desk_builds_are_simple(self):
        # build_graph raises DuplicateEdge on a non-simple layer
        cfg = parse_config(Path(__file__).resolve().parents[1] / "configs" / "sf-desk.cfg")
        for seed in range(20):
            build_interdependent(cfg.layers, cfg.inter_means, master_seed=seed)

    def test_reproducible(self):
        spec = PowerLawSpec(gamma=2.9, y_min=1, n=800)
        a = gen_powerlaw_layer(spec, child_rng(9, 0))
        b = gen_powerlaw_layer(spec, child_rng(9, 0))
        assert np.array_equal(a, b)

    def test_unwireable_degree(self):
        # a degree above n-1 can never be realized as a simple graph
        with pytest.raises(WiringFailed):
            _wire_simple(np.array([5, 1, 1, 1]), child_rng(0, 0))


class TestComposition:
    def test_builds_valid_graph(self):
        layers = [ErLayerSpec(300, 2.0), PowerLawSpec(gamma=2.5, y_min=1, n=300)]
        g = build_interdependent(layers, {(0, 1): 1.0}, master_seed=4)
        assert g.layer_sizes == (300, 300)
        counts = g.edge_count_by_color()
        assert counts[0] == 300  # 300 * 2 / 2
        assert counts[2] == 300  # 1.0 * 600 / 2

    def test_same_seed_same_graph(self):
        layers = [ErLayerSpec(200, 3.0), ErLayerSpec(200, 1.0)]
        a = build_interdependent(layers, {(0, 1): 0.5}, master_seed=13)
        b = build_interdependent(layers, {(0, 1): 0.5}, master_seed=13)
        assert graphs_equal(a, b)

    def test_streams_independent(self):
        # changing the interconnection must not disturb layer randomness
        layers = [ErLayerSpec(200, 3.0), ErLayerSpec(200, 1.0)]
        a = build_interdependent(layers, {(0, 1): 0.5}, master_seed=13)
        b = build_interdependent(layers, {(0, 1): 2.0}, master_seed=13)
        for color in (0, 1):
            mask_a = a.edge_colors == color
            mask_b = b.edge_colors == color
            assert np.array_equal(a.edges_u[mask_a], b.edges_u[mask_b])
            assert np.array_equal(a.edges_v[mask_a], b.edges_v[mask_b])

    @pytest.mark.parametrize("inter,match", [
        ({(0, 5): 1.0}, r"\(0, 5\) names undeclared layer 5"),
        ({(-1, 0): 1.0}, r"\(-1, 0\) names undeclared layer -1"),
        ({(1, 1): 1.0}, r"\(1, 1\) pairs layer 1 with itself"),
        ({(0, 1): 1.0, (1, 0): 2.0}, r"keys \(0, 1\) and \(1, 0\) set the same layer pair"),
    ])
    def test_inter_means_keys_checked(self, inter, match):
        layers = [ErLayerSpec(50, 2.0), ErLayerSpec(50, 2.0)]
        with pytest.raises(ValueError, match=match):
            build_interdependent(layers, inter, master_seed=1)

    def test_inter_means_key_order_free(self):
        layers = [ErLayerSpec(50, 2.0), ErLayerSpec(50, 2.0)]
        assert graphs_equal(build_interdependent(layers, {(1, 0): 1.5}, master_seed=1),
                            build_interdependent(layers, {(0, 1): 1.5}, master_seed=1))

    def test_measured_moments_match_model(self):
        layers = [ErLayerSpec(2000, 1.5), ErLayerSpec(2000, 6.0)]
        g = build_interdependent(layers, {(0, 1): 1.5}, master_seed=21)
        mean = colored_cross_moments(g).mean
        assert mean[0, 0] == pytest.approx(1.5, rel=0.02)
        assert mean[1, 1] == pytest.approx(6.0, rel=0.02)
        # equal layers: each one's inter mean is the mean over both
        assert mean[:, 2] == pytest.approx([1.5, 1.5], rel=0.02)


class TestPinnedArrays:
    """SHA-256 of the int32 graph arrays of two builds, so that a change to
    generation, validation or the adjacency sort cannot move a byte unseen."""

    CASES = {
        "strong-pair": (
            [ErLayerSpec(10_000, 1.5), ErLayerSpec(10_000, 6.0)], {(0, 1): 1.5}, 7,
            {
                "edges_u": "05a7af4cdaf5feeb528817067d7d854f152f4a2b62457ddf1800e5f90cce4ad8",
                "edges_v": "b5a240485ae90b49d5f5acd11e99921e3c69e4028cf1da789fd20e69566da4b3",
                "edge_colors": "9eb1c0c951a4f5dca646b0412e0b8837f875657b47ba9eda5f2768fa56425636",
                "indptr": "1e8e5401bd4e492b6827098ecf2ad8b17d1f5649480dc673144e0e18ea8cc711",
                "adj": "33e0eb84fe211b22dd0ddbc38e03266f64efcbe31fbb132983fd468f0a70291f",
                "adj_color": "e91709cda428e703da867ab138ccfeb96d681c7ca0d76375b3dfbc09e4040143",
            },
        ),
        "three-layers": (
            [ErLayerSpec(300, 2.0), ErLayerSpec(200, 4.0), ErLayerSpec(100, 3.0)],
            {(0, 1): 1.0, (0, 2): 0.5, (1, 2): 2.0}, 3,
            {
                "edges_u": "e25e3448fcef916c4f2bb80b4560d32d75309adc63dd16b978ca9c2929ce4964",
                "edges_v": "482c62e216463ac3d3e127a068ea7c619e99b807fedde16e0745e730110d3677",
                "edge_colors": "a896116f42dec8636ba4882235ce88a7078619c217533b63244490dd1185099f",
                "indptr": "70c8717640beaa4c079ca3c12cf6fc39d64c4cc81c7a99c3f00050acafedeaa8",
                "adj": "dcb5a94b5d961b4c8d3d773ae4a9a8bc6a499c5c026798571bbb4d7b5857245c",
                "adj_color": "d724cc53d865086c625736e893737b15244b7ebd73c47d706cbaebc3ddf7955c",
            },
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_sha256(self, case):
        layers, inter, seed, want = self.CASES[case]
        g = build_interdependent(layers, inter, seed)
        indptr, adj, adj_color = g.adjacency()
        arrays = {"edges_u": g.edges_u, "edges_v": g.edges_v, "edge_colors": g.edge_colors,
                  "indptr": indptr, "adj": adj, "adj_color": adj_color}
        got = {}
        for name, arr in arrays.items():
            assert arr.dtype == np.int32
            got[name] = hashlib.sha256(arr.astype("<i4").tobytes()).hexdigest()
        assert got == want
